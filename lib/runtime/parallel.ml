type stats = {
  cores : int;
  per_core_pkts : int array;
  reads : int;
  writes : int;
  read_pkts : int;
  write_pkts : int;
  spec_restarts : int;
  expired_flows : int;
  rejuv_local : int;
  tm_rw_sets : (int * int) list;
}

let imbalance s = Balancer.imbalance_of s.per_core_pkts

type result = { verdicts : Dsl.Interp.action array; stats : stats }

let port_error ~devices i port =
  invalid_arg
    (Printf.sprintf "packet %d arrived on port %d, but the NF has %d device(s)" i port devices)

let c_pkts = Telemetry.Counter.make "runtime.pkts" ~doc:"packets pushed through parallel plans"
let c_restarts = Telemetry.Counter.make "runtime.spec_restarts" ~doc:"speculative lock restarts"
let c_expired = Telemetry.Counter.make "runtime.expired_flows" ~doc:"flows aged out during execution"
let c_rejuv = Telemetry.Counter.make "runtime.rejuvenations" ~doc:"rejuvenations absorbed per-core"
let h_per_core = Telemetry.Histogram.make "runtime.per_core_pkts" ~doc:"packets per core per run"

(* the sequential oracle stays on the interpreter deliberately: it is the
   reference semantics every parallel execution (and the compiled path
   itself) is differentially tested against *)
let run_sequential nf pkts =
  let info = Dsl.Check.check_exn nf in
  let inst = Dsl.Instance.create nf in
  Array.map (fun p -> Dsl.Interp.process nf info inst p) pkts

(* Per-packet accounting of one interpreter run. *)
type pkt_ops = {
  mutable r : int;
  mutable w : int;
  mutable rejuvs : int;
  mutable expired : int;
}

let observe ops (e : Dsl.Interp.op_event) =
  (match e.Dsl.Interp.kind with
  | Dsl.Interp.Op_chain_rejuv -> ops.rejuvs <- ops.rejuvs + 1
  | Dsl.Interp.Op_chain_expire -> ops.expired <- ops.expired + e.Dsl.Interp.expired
  | _ -> ());
  (* Rejuvenation is served by the per-core aging replicas (§4) and expiry
     only writes when flows actually age out, so neither forces the write
     lock on the fast path. *)
  let counts_as_write =
    match e.Dsl.Interp.kind with
    | Dsl.Interp.Op_chain_rejuv -> false
    | Dsl.Interp.Op_chain_expire -> e.Dsl.Interp.expired > 0
    | _ -> e.Dsl.Interp.write
  in
  if counts_as_write then ops.w <- ops.w + 1 else ops.r <- ops.r + 1

let run (plan : Maestro.Plan.t) pkts =
  Telemetry.Span.with_span "runtime/run" @@ fun () ->
  let nf = plan.Maestro.Plan.nf in
  let info = Dsl.Check.check_exn nf in
  let cores = plan.Maestro.Plan.cores in
  let engines = Array.init nf.Dsl.Ast.devices (Maestro.Plan.rss_engine plan) in
  let shared_nothing = plan.Maestro.Plan.strategy = Maestro.Plan.Shared_nothing in
  let scr = plan.Maestro.Plan.strategy = Maestro.Plan.Scr in
  let per_core_state = shared_nothing || scr in
  let instances =
    if per_core_state then
      Array.init cores (fun _ -> Dsl.Instance.create ~divide:(Maestro.Plan.state_divisor plan) nf)
    else Array.make 1 (Dsl.Instance.create nf)
  in
  let staged = Dsl.Compile.stage_runner nf info in
  let runners = Array.map (Dsl.Compile.bind_runner staged) instances in
  (* SCR deterministic model: packets spray round-robin, the owner runs
     the full NF (and is the only core whose op events are accounted —
     replays are state maintenance, not packet service), every other core
     replays the packet's update digest against its full replica. *)
  let scr_replay =
    if not scr then None
    else
      let spec =
        match Maestro.Scrspec.admissible nf with
        | Ok spec -> spec
        | Error e ->
            invalid_arg
              (Printf.sprintf "Parallel.run: SCR plan for %s but %s" nf.Dsl.Ast.name e)
      in
      let prog = Scr.prepare spec in
      let replayers = Array.map (Scr.bind prog) instances in
      let buf = Array.make (max 1 (Scr.ints_per_pkt prog)) 0 in
      Some
        (fun owner pkt ->
          Scr.encode prog pkt buf 0;
          Array.iteri (fun c r -> if c <> owner then Scr.apply r buf 0) replayers)
  in
  let rr = ref 0 in
  let per_core_pkts = Array.make cores 0 in
  let reads = ref 0 and writes = ref 0 in
  let read_pkts = ref 0 and write_pkts = ref 0 in
  let spec_restarts = ref 0 and expired_flows = ref 0 and rejuv_local = ref 0 in
  let tm_rw_sets = ref [] in
  let tm = plan.Maestro.Plan.strategy = Maestro.Plan.Tm_based in
  let lock_based = plan.Maestro.Plan.strategy = Maestro.Plan.Lock_based in
  let nports = Array.length engines in
  let verdicts =
    Array.mapi
      (fun i pkt ->
        let core =
          if scr then begin
            let c = !rr mod cores in
            incr rr;
            c
          end
          else begin
            let port = pkt.Packet.Pkt.port in
            if port < 0 || port >= nports then port_error ~devices:nports i port;
            Nic.Rss.dispatch engines.(port) pkt
          end
        in
        per_core_pkts.(core) <- per_core_pkts.(core) + 1;
        let runner = if per_core_state then runners.(core) else runners.(0) in
        let ops = { r = 0; w = 0; rejuvs = 0; expired = 0 } in
        let verdict = Dsl.Compile.run ~on_op:(observe ops) runner pkt in
        (match scr_replay with Some replay -> replay core pkt | None -> ());
        reads := !reads + ops.r;
        writes := !writes + ops.w;
        expired_flows := !expired_flows + ops.expired;
        rejuv_local := !rejuv_local + ops.rejuvs;
        if lock_based then
          if ops.w > 0 then begin
            (* speculative read execution hit a write: restart under the
               all-cores write lock *)
            incr write_pkts;
            incr spec_restarts
          end
          else incr read_pkts;
        if tm then tm_rw_sets := (ops.r, ops.w) :: !tm_rw_sets;
        verdict)
      pkts
  in
  if Telemetry.enabled () then begin
    Telemetry.Counter.add c_pkts (Array.length pkts);
    Telemetry.Counter.add c_restarts !spec_restarts;
    Telemetry.Counter.add c_expired !expired_flows;
    Telemetry.Counter.add c_rejuv !rejuv_local;
    Array.iter (fun n -> Telemetry.Histogram.observe h_per_core (float_of_int n)) per_core_pkts
  end;
  {
    verdicts;
    stats =
      {
        cores;
        per_core_pkts;
        reads = !reads;
        writes = !writes;
        read_pkts = !read_pkts;
        write_pkts = !write_pkts;
        spec_restarts = !spec_restarts;
        expired_flows = !expired_flows;
        rejuv_local = !rejuv_local;
        tm_rw_sets = !tm_rw_sets;
      };
  }

let dispatch_counts (plan : Maestro.Plan.t) pkts =
  let nf = plan.Maestro.Plan.nf in
  let engines = Array.init nf.Dsl.Ast.devices (Maestro.Plan.rss_engine plan) in
  let counts = Array.make plan.Maestro.Plan.cores 0 in
  Array.iter
    (fun pkt ->
      let core = Nic.Rss.dispatch engines.(pkt.Packet.Pkt.port) pkt in
      counts.(core) <- counts.(core) + 1)
    pkts;
  counts
