(* Frame-replay benchmark: bytes in to verdicts out.

   A run takes a workload name and a seed, generates the workload's trace
   and serializes it to 64-byte frames with [Packet.Wire.serialize],
   keeping each frame's rx port and timestamp (untimed).  It then replays
   the frames in timed passes: [Packet.Wire.parse_typed] on every frame,
   then [Runtime.Pool.run] on the plan from [Maestro.Pipeline.parallelize],
   producing a verdict array.  Each pass is a closed loop: the main domain
   is the one producer and feeds [nproc - 1] pool workers (at least one),
   so producer plus workers never exceed the host's cores.

   Every pass's verdicts are checked against [Runtime.Parallel.run] on the
   same plan.  [Parallel.run_sequential] cannot be the oracle at every
   width: once state is sharded over two or more cores, shared-nothing
   verdicts legitimately differ from the sequential NF's.

   [--trace 0] reports the end-to-end metrics with telemetry off.
   [--trace 1] is the separate traced run: end-to-end passes with
   telemetry off and on (their ratio is the tracing overhead) and each
   layer's public functions called in isolation on the same packets
   inside the benchmark's own spans, one pass of each in turn; then a
   per-layer ledger, and the span log written as Chrome trace JSON under
   .framebench/.  A span covers one pass over the trace, not one call: a
   span per call would cost more than the ~100 ns calls it wraps.

   Standard output ends with two JSON lines: the result document (schema
   framebench/1, with the host block) that framebench/check.py compares,
   then the result object {correct, attempted, failed, metrics}. *)

let now = Unix.gettimeofday

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---- workloads ---------------------------------------------------------- *)

let workloads = [ "nop-64"; "nat-64"; "fw-churn-lock" ]

(* NF and ladder strategy per workload.  fw is forced onto the lock rung so
   one workload runs [Pool.run]'s lock arm; nop (load-balance) and nat
   (shared-nothing) run the static per-core-instance arm. *)
let nf_of = function
  | "nop-64" -> ("nop", `Auto)
  | "nat-64" -> ("nat", `Auto)
  | _ -> ("fw", `Force_locks)

(* The churn trace spans 4 s of timestamps, several of fw's 1 s expiry
   periods, so about as many flows expire as open (at a 100 ns gap none
   would).  0.4 flow generations per 64 B frame makes the slot sweep
   advance every 2 packets: every other packet opens a flow. *)
let churn_span_ns = 4_000_000_000
let churn_flows_per_gbit = 0.4 /. (64.0 *. 8.0 /. 1e9)

(* [pkts] is the measured body of the read-heavy traces (the establishment
   prefix comes on top) and the whole churn trace. *)
let trace_of workload ~seed ~pkts =
  match workload with
  | "nop-64" | "nat-64" ->
      let nf, _ = nf_of workload in
      (Sim.Workload.read_heavy ~seed ~flows:(max 64 (pkts / 4)) ~pkts ~size:64 nf)
        .Sim.Workload.trace
  | _ ->
      Traffic.Churn.trace
        (Random.State.make [| seed |])
        {
          Traffic.Churn.active_flows = 1024;
          flows_per_gbit = churn_flows_per_gbit;
          pkts;
          size = 64;
          gap_ns = churn_span_ns / pkts;
        }

(* ---- frames ------------------------------------------------------------- *)

type frames = { bytes : bytes array; port : int array; ts_ns : int array }

let frames_of trace =
  {
    bytes = Array.map Packet.Wire.serialize trace;
    port = Array.map (fun p -> p.Packet.Pkt.port) trace;
    ts_ns = Array.map (fun p -> p.Packet.Pkt.ts_ns) trace;
  }

let placeholder = Packet.Pkt.make ~ip_src:0 ~ip_dst:0 ~src_port:0 ~dst_port:0 ()

(* A frame that fails to parse keeps the placeholder and is counted. *)
let parse_all fr =
  let n = Array.length fr.bytes in
  let pkts = Array.make n placeholder in
  let errors = ref 0 in
  for i = 0 to n - 1 do
    match Packet.Wire.parse_typed ~port:fr.port.(i) ~ts_ns:fr.ts_ns.(i) fr.bytes.(i) with
    | Ok p -> pkts.(i) <- p
    | Error _ -> incr errors
  done;
  (pkts, !errors)

let mismatches oracle verdicts =
  let bad = ref (abs (Array.length oracle - Array.length verdicts)) in
  for i = 0 to min (Array.length oracle) (Array.length verdicts) - 1 do
    match (oracle.(i), verdicts.(i)) with
    | Dsl.Interp.Dropped, Dsl.Interp.Dropped -> ()
    | Dsl.Interp.Fwd (pa, a), Dsl.Interp.Fwd (pb, b) when pa = pb && Packet.Pkt.equal a b -> ()
    | _ -> incr bad
  done;
  !bad

(* ---- statistics --------------------------------------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let min_passes = 3

(* Run [pass] until [budget] seconds have gone by, at least [min_passes]
   times, after one warm-up pass; [between] runs after every timed pass,
   outside its timing.  Returns each timed pass's result. *)
let repeat ~between ~budget pass =
  ignore (pass ());
  Gc.full_major ();
  let stop = now () +. budget in
  let rec go acc n =
    if n >= min_passes && now () >= stop then List.rev acc
    else begin
      let r = pass () in
      between ();
      go (r :: acc) (n + 1)
    end
  in
  go [] 0

(* Wall seconds and minor-heap words of one call. *)
let measure f =
  let t0 = now () in
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  (now () -. t0, w1 -. w0)

(* ---- set-up ------------------------------------------------------------- *)

type setup = {
  setup_s : float;  (** parallelize + Pool.create *)
  symbex_s : float;
  solving_s : float;
  create_s : float;
}

(* Set-up is sampled again between end-to-end passes, once every
   [setup_interval] seconds, so its median sees the same host conditions
   as the passes do: on a shared 2-vCPU VM, a burst of samples at
   start-up catches one moment of a speed that drifts by up to 1.7x over
   tens of seconds. *)
let setup_interval = 1.0

(* One timed [parallelize] + [Pool.create]. *)
let set_up ~workers workload =
  let nf_name, strategy = nf_of workload in
  let nf = Nfs.Registry.find_exn nf_name in
  let request = { Maestro.Pipeline.default_request with cores = workers; strategy } in
  let t0 = now () in
  let outcome = Maestro.Pipeline.parallelize_exn ~request nf in
  let t1 = now () in
  let pool = Runtime.Pool.create ~cores:workers () in
  let t2 = now () in
  let timing = outcome.Maestro.Pipeline.timing in
  ( outcome.Maestro.Pipeline.plan,
    pool,
    {
      setup_s = t2 -. t0;
      symbex_s = timing.Maestro.Pipeline.symbex_s;
      solving_s = timing.Maestro.Pipeline.solving_s;
      create_s = t2 -. t1;
    } )

(* ---- end-to-end passes -------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int }

(* One closed-loop pass, frames in to verdict array out.  Returns wall and
   CPU seconds; parse errors, backpressure drops and oracle mismatches are
   counted in [tally] outside the timed region.  The spans cost one bool
   test when telemetry is off. *)
let e2e_pass ~frames ~pool ~plan ~oracle tally () =
  let dropped0 = (Runtime.Pool.stats pool).Runtime.Pool.dropped_pkts in
  let c0 = cpu_s () in
  let t0 = now () in
  let errors, verdicts =
    Telemetry.Span.with_span "e2e" (fun () ->
        let pkts, errors = Telemetry.Span.with_span "packet.parse" (fun () -> parse_all frames) in
        (errors, Telemetry.Span.with_span "runtime.pool" (fun () -> Runtime.Pool.run pool plan pkts)))
  in
  let wall = now () -. t0 in
  let cpu = cpu_s () -. c0 in
  let dropped = (Runtime.Pool.stats pool).Runtime.Pool.dropped_pkts - dropped0 in
  tally.attempted <- tally.attempted + Array.length frames.bytes;
  tally.failed <- tally.failed + errors + dropped + mismatches oracle verdicts;
  (wall, cpu)

(* ---- the traced run ----------------------------------------------------- *)

(* A pass that keeps its results, except the first call's: a warm-up. *)
let recorder f =
  let results = ref [] and warm = ref false in
  ( (fun () ->
      let r = f () in
      if !warm then results := r :: !results else warm := true),
    results )

(* One pass of each phase in turn until [budget] seconds have gone by, at
   least [min_passes] rounds, after a warm-up round.  Interleaving lets
   every phase see the same drift in host speed, so the ledger's parts and
   its whole are measured under the same conditions.  Each round holds two
   end-to-end passes, which keeps the span log small even where a layer's
   pass takes microseconds (nop's bind). *)
let round_robin ~budget phases =
  List.iter (fun p -> p ()) phases;
  Gc.full_major ();
  let stop = now () +. budget in
  let rounds = ref 0 in
  while !rounds < min_passes || now () < stop do
    List.iter (fun p -> p ()) phases;
    incr rounds
  done

type ledger = {
  untraced_ns : float;  (** end-to-end, telemetry off *)
  e2e_ns : float;  (** end-to-end, telemetry on *)
  e2e_passes : int;
  parse_ns : float;
  parse_words : float;
  rss_ns : float;
  rss_words : float;
  bind_ms : float;
  nf_ns : float;
  nf_words : float;
  pool_ns : float;
  producer_words : float;
  batches : float;
  ring_full_stalls : float;
  state_ops : float;
  state_writes : float;
  expired : float;
  fwd_frac : float;
}

(* Per-core runners as [Pool.run] binds them: one instance per core, or one
   shared instance under the lock/TM disciplines. *)
let bind_runners (plan : Maestro.Plan.t) =
  let nf = plan.Maestro.Plan.nf in
  let staged = Dsl.Compile.stage_runner nf (Dsl.Check.check_exn nf) in
  let cores = plan.Maestro.Plan.cores in
  match plan.Maestro.Plan.strategy with
  | Maestro.Plan.Lock_based | Maestro.Plan.Tm_based ->
      let inst = Dsl.Instance.create nf in
      Array.init cores (fun _ -> Dsl.Compile.bind_runner staged inst)
  | Maestro.Plan.Shared_nothing | Maestro.Plan.Load_balance | Maestro.Plan.Scr ->
      Array.init cores (fun _ ->
          Dsl.Compile.bind_runner staged
            (Dsl.Instance.create ~divide:(Maestro.Plan.state_divisor plan) nf))

(* End-to-end passes with telemetry off and on, and each layer's public
   functions called in isolation on the same packets inside the
   benchmark's own spans; [sample_setup] runs after each untraced pass. *)
let traced_run ~budget ~e2e_pass ~sample_setup ~frames ~pkts ~plan ~pool =
  let n = float_of_int (Array.length pkts) in
  let nf = plan.Maestro.Plan.nf in
  let per_pkt xs = median (List.map fst xs) /. n *. 1e9 in
  let words xs = median (List.map snd xs) /. n in
  let span name f () = Telemetry.Span.with_span name (fun () -> measure f) in
  let untraced_pass, untraced =
    recorder (fun () ->
        Telemetry.disable ();
        let r = e2e_pass () in
        sample_setup ();
        Telemetry.enable ();
        r)
  in
  let traced_pass, traced = recorder e2e_pass in
  let parse_pass, parse = recorder (span "packet.parse" (fun () -> ignore (parse_all frames))) in
  (* engines are built per pass, as [Pool.run] builds them per run *)
  let rss_pass, rss =
    recorder
      (span "nic.rss" (fun () ->
           let engines = Array.init nf.Dsl.Ast.devices (Maestro.Plan.rss_engine plan) in
           Array.iter (fun p -> ignore (Nic.Rss.dispatch engines.(p.Packet.Pkt.port) p)) pkts))
  in
  let bind_pass, bind = recorder (span "dsl.bind" (fun () -> ignore (bind_runners plan))) in
  (* one fresh instance per pass, bound outside the span *)
  let nf_pass, nfx =
    recorder (fun () ->
        let r = (bind_runners plan).(0) in
        Telemetry.Span.with_span "dsl.nf" (fun () ->
            measure (fun () -> Array.iter (fun p -> ignore (Dsl.Compile.run r p)) pkts)))
  in
  let pool_pass, pool_runs =
    recorder (fun () ->
        let st0 = Runtime.Pool.stats pool in
        let m =
          Telemetry.Span.with_span "runtime.pool" (fun () ->
              measure (fun () -> ignore (Runtime.Pool.run pool plan pkts)))
        in
        let st1 = Runtime.Pool.stats pool in
        ( m,
          ( float_of_int (st1.Runtime.Pool.batches - st0.Runtime.Pool.batches),
            float_of_int (st1.Runtime.Pool.ring_full_stalls - st0.Runtime.Pool.ring_full_stalls) ) ))
  in
  Telemetry.reset ();
  Telemetry.enable ();
  round_robin ~budget
    [ untraced_pass; traced_pass; parse_pass; rss_pass; bind_pass; nf_pass; pool_pass ];
  Telemetry.disable ();
  (* state-op counts from one untimed pass over a fresh instance *)
  let ops = ref 0 and writes = ref 0 and expired = ref 0 and fwd = ref 0 in
  let on_op (e : Dsl.Interp.op_event) =
    incr ops;
    if e.Dsl.Interp.write then incr writes;
    expired := !expired + e.Dsl.Interp.expired
  in
  let r = (bind_runners plan).(0) in
  Array.iter
    (fun p -> match Dsl.Compile.run ~on_op r p with Dsl.Interp.Fwd _ -> incr fwd | Dsl.Interp.Dropped -> ())
    pkts;
  let count c = float_of_int !c /. n in
  let pool_runs = !pool_runs in
  {
    untraced_ns = per_pkt !untraced;
    e2e_ns = per_pkt !traced;
    e2e_passes = List.length !untraced + List.length !traced;
    parse_ns = per_pkt !parse;
    parse_words = words !parse;
    rss_ns = per_pkt !rss;
    rss_words = words !rss;
    bind_ms = median (List.map fst !bind) *. 1e3;
    nf_ns = per_pkt !nfx;
    nf_words = words !nfx;
    pool_ns = per_pkt (List.map fst pool_runs);
    producer_words = words (List.map fst pool_runs);
    batches = median (List.map (fun (_, (b, _)) -> b) pool_runs);
    ring_full_stalls = median (List.map (fun (_, (_, st)) -> st) pool_runs);
    state_ops = count ops;
    state_writes = count writes;
    expired = count expired;
    fwd_frac = count fwd;
  }

(* ---- output ------------------------------------------------------------- *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
         ms)
  ^ "}"

let json_obj kvs =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) kvs) ^ "}"

let ledger_line name ns total =
  Printf.printf "  %-26s %10.1f ns/pkt  %5.1f%%\n" name ns (100.0 *. ns /. total)

(* ---- main --------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let pkts = ref 32_768 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, " trace seed");
      ("--seconds", Arg.Set_int seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: traced per-layer run");
      ("--pkts", Arg.Set_int pkts, " trace size (default 32768)");
    ]
  in
  let usage = "framebench --workload W --seed N --seconds S --trace 0|1 [--pkts N]" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("framebench: --workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end;
  if !seconds < 1 || !pkts < 1024 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let workload = !workload and seed = !seed and traced = !trace = 1 in
  let nproc = Domain.recommended_domain_count () in
  let workers = max 1 (nproc - 1) in
  (* the first set-up runs on a near-empty heap; then, untimed: trace,
     frames, oracle, model *)
  let plan, pool, first_setup = set_up ~workers workload in
  let setups = ref [ first_setup ] in
  let next_setup = ref (now () +. setup_interval) in
  let sample_setup () =
    if now () >= !next_setup then begin
      Gc.full_major ();
      let _, p, sample = set_up ~workers workload in
      Runtime.Pool.shutdown p;
      setups := sample :: !setups;
      next_setup := now () +. setup_interval
    end
  in
  let setup_median f = median (List.map f !setups) in
  let trace = trace_of workload ~seed ~pkts:!pkts in
  let frames = frames_of trace in
  let nframes = Array.length frames.bytes in
  let parsed, parse_errors = parse_all frames in
  let oracle = (Runtime.Parallel.run plan parsed).Runtime.Parallel.verdicts in
  let nf = plan.Maestro.Plan.nf in
  let model_mpps =
    (Sim.Throughput.evaluate plan (Sim.Profile.of_trace nf parsed) parsed).Sim.Throughput.mpps
  in
  let tally = { attempted = nframes; failed = parse_errors } in
  let failed_frac () = float_of_int tally.failed /. float_of_int tally.attempted in
  let e2e_pass = e2e_pass ~frames ~pool ~plan ~oracle tally in
  let budget = float_of_int !seconds in
  let passes, metrics =
    if not traced then begin
      let runs = repeat ~between:sample_setup ~budget e2e_pass in
      let mpps = median (List.map (fun (w, _) -> float_of_int nframes /. w) runs) /. 1e6 in
      Printf.printf "%s: %s on the %s rung, %d frames, %d worker(s), %d passes\n" workload
        nf.Dsl.Ast.name
        (Maestro.Plan.strategy_name plan.Maestro.Plan.strategy)
        nframes workers (List.length runs);
      Printf.printf
        "mpps %.3f measured | %.3f model (Sim.Throughput prediction for this %d-core plan: model output, not measured)\n"
        mpps model_mpps workers;
      ( List.length runs,
        [
          ("mpps", "Mpps", mpps);
          ("cpu_ns_per_pkt", "ns/pkt", median (List.map snd runs) /. float_of_int nframes *. 1e9);
          ("setup_s", "s", setup_median (fun s -> s.setup_s));
        ] )
    end
    else begin
      let l = traced_run ~budget ~e2e_pass ~sample_setup ~frames ~pkts:parsed ~plan ~pool in
      let e2e_ns = l.e2e_ns in
      let bind_ns = l.bind_ms *. 1e6 /. float_of_int nframes in
      let handoff_ns = l.pool_ns -. l.rss_ns -. l.nf_ns -. bind_ns in
      let residual = e2e_ns -. l.parse_ns -. l.pool_ns in
      let residual_frac = residual /. e2e_ns in
      Printf.printf "ledger %s (traced run, %d frames, %d worker(s))\n" workload nframes workers;
      ledger_line "e2e (frames -> verdicts)" e2e_ns e2e_ns;
      ledger_line "  packet.parse" l.parse_ns e2e_ns;
      ledger_line "  runtime.pool" l.pool_ns e2e_ns;
      ledger_line "  residual" residual e2e_ns;
      ledger_line "runtime.pool" l.pool_ns l.pool_ns;
      ledger_line "  nic.rss" l.rss_ns l.pool_ns;
      ledger_line "  dsl.nf" l.nf_ns l.pool_ns;
      ledger_line "  dsl.bind" bind_ns l.pool_ns;
      ledger_line "  runtime.handoff (residual)" handoff_ns l.pool_ns;
      if Float.abs residual_frac > 0.15 then
        Printf.printf "FLAG: ledger residual %.1f%% of e2e is above the 15%% gate\n"
          (100.0 *. residual_frac);
      let dir = ".framebench" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let file = Printf.sprintf "%s/%s-seed%d.trace.json" dir workload seed in
      let oc = open_out file in
      output_string oc (Telemetry.trace_events_json ());
      close_out oc;
      Printf.printf "spans written to %s\n" file;
      ( l.e2e_passes,
        [
          ("packet.parse_ns", "ns/pkt", l.parse_ns);
          ("packet.parse_words", "words/pkt", l.parse_words);
          ("nic.rss_ns", "ns/pkt", l.rss_ns);
          ("nic.rss_words", "words/pkt", l.rss_words);
          ("dsl.bind_ms", "ms/run", l.bind_ms);
          ("dsl.nf_ns", "ns/pkt", l.nf_ns);
          ("dsl.nf_words", "words/pkt", l.nf_words);
          ("dsl.state_ops", "ops/pkt", l.state_ops);
          ("dsl.state_writes", "writes/pkt", l.state_writes);
          ("dsl.expired", "flows/pkt", l.expired);
          ("dsl.fwd_frac", "frac", l.fwd_frac);
          ("runtime.pool_ns", "ns/pkt", l.pool_ns);
          ("runtime.handoff_ns", "ns/pkt", handoff_ns);
          ("runtime.producer_words", "words/pkt", l.producer_words);
          ("runtime.batches", "count/run", l.batches);
          ("runtime.ring_full_stalls", "count/run", l.ring_full_stalls);
          ("maestro.symbex_s", "s", setup_median (fun s -> s.symbex_s));
          ("maestro.solving_s", "s", setup_median (fun s -> s.solving_s));
          ("runtime.create_s", "s", setup_median (fun s -> s.create_s));
          ("ledger.residual_frac", "frac", residual_frac);
          ("trace.overhead_frac", "frac", 1.0 -. (l.untraced_ns /. l.e2e_ns));
          ("failed_frac", "frac", failed_frac ());
        ] )
    end
  in
  Runtime.Pool.shutdown pool;
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  let correct = tally.failed = 0 && finite in
  let host =
    json_obj
      [
        ("nproc", string_of_int nproc);
        ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
        ("workers", string_of_int workers);
        ("seed", string_of_int seed);
        ("pkts", string_of_int nframes);
        ("passes", string_of_int passes);
      ]
  in
  print_endline
    (json_obj
       [
         ("schema", "\"framebench/1\"");
         ("workload", Printf.sprintf "%S" workload);
         ("trace", if traced then "1" else "0");
         ("host", host);
         ("model_mpps", json_num model_mpps);
         ("failed_frac", json_num (failed_frac ()));
         ("metrics", json_metrics metrics);
       ]);
  print_endline
    (json_obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int tally.attempted);
         ("failed", string_of_int tally.failed);
         ("metrics", json_metrics metrics);
       ]);
  if not correct then exit 1
