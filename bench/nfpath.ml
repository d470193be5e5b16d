(* NF-path benchmark: tree-walking interpreter vs staged closures.

   For every NF in the corpus a steady-state workload is replayed through
   (a) [Dsl.Interp.process] and (b) the closure from [Dsl.Compile.stage_runner],
   both warmed over the establishment prefix, and the per-packet cost and
   the compiled path's minor-heap allocation rate are recorded to
   BENCH_nfpath.json (same schema as the per-NF telemetry documents, so
   `check_regression` can diff it against bench/baseline/).  One more row,
   fw_churn, replays fw over framebench's churn trace, on which flows
   expire, so the allocation gate covers expiry too.  The last row,
   chain_fw_nat_lb, times the fw→nat→lb chain fused into one closure tree
   against its three stages run back to back.

   Gated counters (machine-portable, compared by default):
     nfpath.<nf>.compiled_rel_cost_x100   100 * t_compiled / t_interp —
                                          a timing *ratio*, so machine
                                          speed cancels; growth means the
                                          compiled path lost ground
     nfpath.<nf>.alloc_words_per_pkt_x100 100 * minor words per packet on
                                          the unobserved compiled path
     nfpath.chain_fw_nat_lb.fused_rel_cost_x100
                                          100 * t_fused / t_back_to_back —
                                          growth means fusion lost ground
   Timing counters (_ns/speedup, skipped by the default gate policy):
     nfpath.<nf>.interp_ns_x100, nfpath.<nf>.compiled_ns_x100,
     nfpath.<nf>.speedup_x100 *)

let iters_scale () =
  match Sys.getenv_opt "MAESTRO_BENCH_ITERS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> float_of_int n /. 100.0
      | _ -> 1.0)
  | None -> 1.0

let scaled base = max 100 (int_of_float (float_of_int base *. iters_scale ()))
let x100 v = int_of_float (Float.round (100.0 *. v))

let counter nf suffix doc =
  Telemetry.Counter.make (Printf.sprintf "nfpath.%s.%s" nf suffix) ~doc

(* Best of [passes] timed runs of [f] over [body 1 .. passes], in ns per
   packet — the minimum is the least noise-contaminated estimate of the
   per-pass cost.  [body k] is the trace of the k-th pass, built outside
   the timing. *)
let passes = 3

let time_pass ~body f =
  let best = ref infinity in
  for k = 1 to passes do
    let arr = body k in
    let t0 = Unix.gettimeofday () in
    f arr;
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best /. float_of_int (Array.length (body 0)) *. 1e9

(* One row: [nf] warmed over [warm] and one untimed pass over [body 0],
   then timed on both paths over [body 1 .. passes], and replayed once
   more on the compiled path for its allocation rate. *)
let bench_nf name nf ~warm ~body =
  let info = Dsl.Check.check_exn nf in
  let npkts = float_of_int (Array.length (body 0)) in
  let time_pass = time_pass ~body in
  let i_inst = Dsl.Instance.create nf in
  let interp_pass arr =
    for i = 0 to Array.length arr - 1 do
      ignore (Dsl.Interp.process nf info i_inst arr.(i))
    done
  in
  interp_pass warm;
  interp_pass (body 0);
  let t_interp = time_pass interp_pass in
  (* compiled: stage once, bind, same warmup discipline *)
  let b = Dsl.Compile.make_runner nf info (Dsl.Instance.create nf) in
  let compiled_pass arr =
    for i = 0 to Array.length arr - 1 do
      ignore (Dsl.Compile.run b arr.(i))
    done
  in
  compiled_pass warm;
  compiled_pass (body 0);
  let t_compiled = time_pass compiled_pass in
  (* allocation rate of the warmed, unobserved compiled path *)
  let arr = body (passes + 1) in
  let w0 = Gc.minor_words () in
  compiled_pass arr;
  let words = (Gc.minor_words () -. w0) /. npkts in
  (* flows expired per packet, from one more pass, observed *)
  let expired = ref 0 in
  let on_op (e : Dsl.Interp.op_event) = expired := !expired + e.Dsl.Interp.expired in
  Array.iter (fun p -> ignore (Dsl.Compile.run ~on_op b p)) (body (passes + 2));
  let speedup = t_interp /. t_compiled in
  Format.printf
    "%-8s interp %8.1f ns/pkt   compiled %8.1f ns/pkt   %4.1fx   %6.2f words/pkt   %5.3f \
     expired/pkt@."
    name t_interp t_compiled speedup words
    (float_of_int !expired /. npkts);
  (name, t_interp, t_compiled, words)

let bench_registry_nf name =
  let w = Sim.Workload.read_heavy ~pkts:(scaled 20_000) name in
  let body = Sim.Workload.body w in
  bench_nf name w.Sim.Workload.nf
    ~warm:(Array.sub w.Sim.Workload.trace 0 w.Sim.Workload.skip)
    ~body:(fun _ -> body)

(* fw over framebench's fw-churn-lock trace: 1024 live flows, 0.4 flow
   generations per 64 B frame, timestamps spanning 4 s, several of fw's
   1 s expiry periods.  The trace is cyclic, so pass k replays it shifted
   k spans later and every pass expires flows at the steady rate, about
   0.53 per packet (a run from empty tables, as in framebench, expires
   0.375). *)
let bench_fw_churn () =
  let pkts = scaled 32_768 and span_ns = 4_000_000_000 in
  let trace =
    Traffic.Churn.trace (Random.State.make [| 42 |])
      {
        Traffic.Churn.active_flows = 1024;
        flows_per_gbit = 0.4 /. (64.0 *. 8.0 /. 1e9);
        pkts;
        size = 64;
        gap_ns = span_ns / pkts;
      }
  in
  let body k =
    Array.map (fun p -> { p with Packet.Pkt.ts_ns = p.Packet.Pkt.ts_ns + (k * span_ns) }) trace
  in
  bench_nf "fw_churn" (Nfs.Registry.find_exn "fw") ~warm:[||] ~body

(* fw→nat→lb fused into one closure tree against the same NFs run back to
   back: each stage staged and bound on its own state, with its own RSS
   dispatch before every hop, as separate NF processes on one core would
   run them.  A uniform two-port trace with replies (512 flows), so the
   LAN and WAN paths and nat's port allocation all run; both sides warmed
   over two passes. *)
let bench_chain () =
  let stages = List.map Nfs.Registry.find_exn [ "fw"; "nat"; "lb" ] in
  let chain = Dsl.Chain.compose_exn stages in
  let rng = Random.State.make [| 0xcab1e |] in
  let flows = Traffic.Gen.flows rng 512 in
  let spec = { Traffic.Gen.default_spec with pkts = scaled 16_384; reply_fraction = 0.4 } in
  let trace = Traffic.Gen.uniform ~spec rng ~flows in
  let fused =
    Dsl.Compile.bind_runner (Dsl.Chain.stage_compiled chain)
      (Dsl.Instance.create (Dsl.Chain.nf chain))
  in
  let request = { Maestro.Pipeline.default_request with cores = 4 } in
  let hops =
    List.map
      (fun (nf : Dsl.Ast.t) ->
        let plan = (Maestro.Pipeline.parallelize_exn ~request nf).Maestro.Pipeline.plan in
        ( Array.init nf.Dsl.Ast.devices (Maestro.Plan.rss_engine plan),
          Dsl.Compile.make_runner nf (Dsl.Check.check_exn nf) (Dsl.Instance.create nf) ))
      stages
  in
  let rec back_to_back hops pkt =
    match hops with
    | [] -> invalid_arg "back_to_back: no stage"
    | (engines, runner) :: rest -> (
        ignore (Nic.Rss.dispatch engines.(pkt.Packet.Pkt.port) pkt : int);
        match (Dsl.Compile.run runner pkt, rest) with
        | Dsl.Interp.Fwd (_, pkt'), _ :: _ -> back_to_back rest pkt'
        | verdict, _ -> verdict)
  in
  let timed run =
    let pass arr = Array.iter (fun p -> ignore (run p : Dsl.Interp.action)) arr in
    pass trace;
    pass trace;
    time_pass ~body:(fun _ -> trace) pass
  in
  let t_fused = timed (Dsl.Compile.run fused) in
  let t_b2b = timed (back_to_back hops) in
  Format.printf "%-8s fused  %8.1f ns/pkt   back-to-back %8.1f ns/pkt   %4.2fx@." "chain" t_fused
    t_b2b (t_b2b /. t_fused);
  t_fused /. t_b2b

let record (name, t_interp, t_compiled, words) =
  Telemetry.Counter.add (counter name "interp_ns_x100" "interp cost, 1/100 ns per packet")
    (x100 t_interp);
  Telemetry.Counter.add (counter name "compiled_ns_x100" "compiled cost, 1/100 ns per packet")
    (x100 t_compiled);
  Telemetry.Counter.add (counter name "speedup_x100" "interp-over-compiled speedup, x100")
    (x100 (t_interp /. t_compiled));
  Telemetry.Counter.add
    (counter name "compiled_rel_cost_x100" "compiled/interp cost ratio, x100 (lower is better)")
    (x100 (t_compiled /. t_interp));
  Telemetry.Counter.add
    (counter name "alloc_words_per_pkt_x100" "compiled-path minor words per packet, x100")
    (x100 words)

let () =
  Format.printf "@.=== NF-path benchmarks (BENCH_nfpath.json) ===@.";
  (* measure with telemetry off so the loops are uninstrumented, then
     record the results against an enabled collector *)
  Telemetry.reset ();
  Telemetry.disable ();
  let results = List.map bench_registry_nf Nfs.Registry.extended_names in
  let results = results @ [ bench_fw_churn () ] in
  let chain_rel_cost = bench_chain () in
  Telemetry.enable ();
  List.iter record results;
  Telemetry.Counter.add
    (counter "chain_fw_nat_lb" "fused_rel_cost_x100"
       "fused/back-to-back cost ratio, x100 (lower is better)")
    (x100 chain_rel_cost);
  let snap = Telemetry.snapshot () in
  Telemetry.disable ();
  Telemetry.reset ();
  let file = "BENCH_nfpath.json" in
  let oc = open_out file in
  output_string oc (Telemetry.to_json ~name:"nfpath" snap);
  close_out oc;
  Format.printf "wrote %s@." file
