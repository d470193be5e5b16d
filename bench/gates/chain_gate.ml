(* Chain-path benchmark — the CI [chain-smoke] job (entry point
   bench/chainpath.ml; also runnable inside the bench tour as `ext-chain`).

   Composes fw→nat→lb with [Dsl.Chain] and replays one warmed trace
   through

   (a) the fused single-pass path: [Compile.stage] over the composed AST
       — one packet parse, every stage's layouts baked, verdicts
       threaded from stage to stage without leaving the closure tree —
       and
   (b) the back-to-back baseline: each stage checked, staged and bound
       separately, with a per-NF RSS dispatch before every hop — the
       cost of running the same NFs as a pipeline of independent
       processes on one core, minus the queueing.

   Checks (the wrapper exits non-zero on any violation):

   - fused verdicts are identical, packet for packet, to the
     back-to-back run and to the sequential interpreter-composition
     oracle ([Dsl.Chain.oracle_process]);
   - fused ns/pkt beats back-to-back by the gate factor
     (MAESTRO_CHAIN_GATE_X100, default 120 = 1.2x; CI sets 100 since
     shared runners only have to prove "never slower");
   - the fused path allocates no more minor words per packet than the
     costliest individual stage run alone — fusion introduces zero
     inter-NF allocation.

   Writes BENCH_chain.json ([out] overrides the path) for the
   check_regression gate.  chain.* counters without a timing suffix are
   deterministic for the fixed seed; wall-clock measurements use
   [_ns]/[speedup] names so the benchdiff timing policy excludes them. *)

let cores = 4
let passes = 3
let nflows = 512

let stage_names = [ "fw"; "nat"; "lb" ]

let iters_scale () =
  match Sys.getenv_opt "MAESTRO_BENCH_ITERS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> float_of_int n /. 100.0
      | _ -> 1.0)
  | None -> 1.0

let scaled base = max 100 (int_of_float (float_of_int base *. iters_scale ()))
let x100 v = int_of_float (Float.round (100.0 *. v))

let gate_x100 () =
  match Sys.getenv_opt "MAESTRO_CHAIN_GATE_X100" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 120)
  | None -> 120

(* Best of [passes] timed runs — the minimum is the least
   noise-contaminated estimate of the per-pass cost. *)
let time_pass f =
  let best = ref infinity in
  for _ = 1 to passes do
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

let verdict_equal a b =
  match (a, b) with
  | Dsl.Interp.Dropped, Dsl.Interp.Dropped -> true
  | Dsl.Interp.Fwd (pa, oa), Dsl.Interp.Fwd (pb, ob) -> pa = pb && Packet.Pkt.equal oa ob
  | _ -> false

let c_counter name doc v =
  let c = Telemetry.Counter.make name ~doc in
  Telemetry.Counter.add c v

let run ?(out = "BENCH_chain.json") () =
  let failures = ref 0 in
  let check name ok =
    Printf.printf "%-58s %s\n%!" name (if ok then "ok" else "FAIL");
    if not ok then incr failures
  in
  (* measure with telemetry off so the loops are uninstrumented *)
  Telemetry.reset ();
  Telemetry.disable ();
  let stage_nfs = List.map Nfs.Registry.find_exn stage_names in
  let chain = Dsl.Chain.compose_exn stage_nfs in
  let composed = Dsl.Chain.nf chain in

  (* one uniform 2-port trace with replies, so the LAN and WAN paths and
     the NAT's allocation path are all on the measured loop *)
  let npkts = scaled 16_384 in
  let rng = Random.State.make [| 0xcab1e |] in
  let fs = Traffic.Gen.flows rng nflows in
  let spec = { Traffic.Gen.default_spec with Traffic.Gen.pkts = npkts; reply_fraction = 0.4 } in
  let trace = Traffic.Gen.uniform ~spec rng ~flows:fs in
  let npkts_f = float_of_int (Array.length trace) in

  let fused_bind () =
    Dsl.Compile.bind (Dsl.Chain.stage_compiled chain) (Dsl.Instance.create composed)
  in
  (* back-to-back: every stage owns a full-capacity instance and its own
     RSS engines, exactly as separate NF processes would *)
  let request = { Maestro.Pipeline.default_request with cores } in
  let stage_engines =
    List.map
      (fun nf ->
        let plan = (Maestro.Pipeline.parallelize_exn ~request nf).Maestro.Pipeline.plan in
        Array.init nf.Dsl.Ast.devices (Maestro.Plan.rss_engine plan))
      stage_nfs
  in
  let b2b_make () =
    List.map2
      (fun nf engines ->
        let info = Dsl.Check.check_exn nf in
        (Dsl.Compile.bind (Dsl.Compile.stage nf info) (Dsl.Instance.create nf), engines))
      stage_nfs stage_engines
  in
  let rec b2b_go stages pkt =
    match stages with
    | [] -> assert false
    | [ (b, engines) ] ->
        ignore (Nic.Rss.dispatch engines.(pkt.Packet.Pkt.port) pkt : int);
        Dsl.Compile.process b pkt
    | (b, engines) :: rest -> (
        ignore (Nic.Rss.dispatch engines.(pkt.Packet.Pkt.port) pkt : int);
        match Dsl.Compile.process b pkt with
        | Dsl.Interp.Dropped -> Dsl.Interp.Dropped
        | Dsl.Interp.Fwd (_, pkt') -> b2b_go rest pkt')
  in

  (* correctness: fresh state on every side, lockstep over one pass *)
  let fused_c = fused_bind () in
  let b2b_c = b2b_make () in
  let oracle = Dsl.Chain.oracle chain in
  let agree_b2b = ref 0 and agree_oracle = ref 0 in
  Array.iter
    (fun pkt ->
      let vf = Dsl.Compile.process fused_c pkt in
      if verdict_equal vf (b2b_go b2b_c pkt) then incr agree_b2b;
      if verdict_equal vf (Dsl.Chain.oracle_process oracle pkt) then incr agree_oracle)
    trace;
  check "fused == back-to-back verdicts" (!agree_b2b = Array.length trace);
  check "fused == interpreter-composition oracle" (!agree_oracle = Array.length trace);

  (* timing: fresh state again, warm twice (fill tables, then steady
     state), then best-of-N per side *)
  let fused_pass b = Array.iter (fun p -> ignore (Dsl.Compile.process b p : Dsl.Interp.action)) trace in
  let b2b_pass st = Array.iter (fun p -> ignore (b2b_go st p : Dsl.Interp.action)) trace in
  let fused_t = fused_bind () in
  fused_pass fused_t;
  fused_pass fused_t;
  let t_fused = time_pass (fun () -> fused_pass fused_t) /. npkts_f *. 1e9 in
  let w0 = Gc.minor_words () in
  fused_pass fused_t;
  let fused_words = (Gc.minor_words () -. w0) /. npkts_f in
  let b2b_t = b2b_make () in
  b2b_pass b2b_t;
  b2b_pass b2b_t;
  let t_b2b = time_pass (fun () -> b2b_pass b2b_t) /. npkts_f *. 1e9 in

  (* allocation bound: each stage alone over the same (warmed) trace *)
  let stage_words =
    List.map
      (fun nf ->
        let info = Dsl.Check.check_exn nf in
        let b = Dsl.Compile.bind (Dsl.Compile.stage nf info) (Dsl.Instance.create nf) in
        let pass () = Array.iter (fun p -> ignore (Dsl.Compile.process b p : Dsl.Interp.action)) trace in
        pass ();
        let w0 = Gc.minor_words () in
        pass ();
        (Gc.minor_words () -. w0) /. npkts_f)
      stage_nfs
  in
  let max_stage_words = List.fold_left Float.max 0.0 stage_words in

  let speedup = t_b2b /. t_fused in
  let gate = float_of_int (gate_x100 ()) /. 100.0 in
  Printf.printf
    "chain %s: fused %.1f ns/pkt, back-to-back %.1f ns/pkt (%.2fx, gate %.2fx)\n\
     alloc: fused %.2f words/pkt, stages alone %s (max %.2f)\n%!"
    (String.concat "->" stage_names)
    t_fused t_b2b speedup gate fused_words
    (String.concat ", " (List.map (Printf.sprintf "%.2f") stage_words))
    max_stage_words;
  check (Printf.sprintf "fused beats back-to-back by >= %.2fx" gate) (speedup >= gate);
  check "fused allocates <= costliest individual stage"
    (x100 fused_words <= x100 max_stage_words);

  Telemetry.enable ();
  c_counter "chain.stages" "stages in the fused chain" (List.length stage_names);
  c_counter "chain.pkts" "packets replayed per pass" (Array.length trace);
  c_counter "chain.flows" "flows in the workload" nflows;
  c_counter "chain.verdict_agreement" "fused/back-to-back verdict matches (one pass)"
    !agree_b2b;
  c_counter "chain.oracle_agreement" "fused/interpreter-oracle verdict matches (one pass)"
    !agree_oracle;
  c_counter "chain.fused_alloc_words_per_pkt_x100"
    "fused-path minor words per packet, x100" (x100 fused_words);
  c_counter "chain.stage_max_alloc_words_x100"
    "costliest individual stage, minor words per packet, x100" (x100 max_stage_words);
  (* timing-suffixed names: reported, never diffed *)
  c_counter "chain.fused_ns_x100" "fused cost, 1/100 ns per packet" (x100 t_fused);
  c_counter "chain.b2b_ns_x100" "back-to-back cost, 1/100 ns per packet" (x100 t_b2b);
  c_counter "chain.speedup_x100" "back-to-back over fused, x100" (x100 speedup);
  Telemetry.disable ();
  let snap = Telemetry.snapshot () in
  let oc = open_out out in
  output_string oc (Telemetry.to_json ~name:"chain" snap);
  close_out oc;
  Printf.printf "telemetry written to %s\n" out;
  if !failures > 0 then Printf.printf "%d violation(s)\n" !failures
  else print_endline "chain smoke: fusion beats back-to-back, allocation flat";
  !failures
