(* Churn smoke benchmark — the CI [churn-smoke] job (entry point
   bench/churn.ml; also runnable inside the bench tour as `ext-churn`).

   Replays a high-churn LAN trace (paper §6.3 workload family: a window
   of active flows with the oldest slot retired at an even pace, so the
   firewall's flow table sees constant allocation/expiry pressure)
   through the persistent domain pool twice — once under the lock rung
   and once under state-compute replication — and checks the SCR
   contract end to end on real domains:

   - SCR verdicts are identical to sequential execution (digest
     broadcast + write-slice replay is observationally invisible);
   - every batch is broadcast: scr_replays = batches * (cores - 1),
     and the digest byte accounting is non-zero;
   - SCR beats the lock rung: a churning write-heavy NF serializes
     behind the write lock, while SCR cores never wait for one another.
     The comparison is priced by the {!Sim.Throughput} contention laws
     on the measured per-core dispatch shares of the two real runs, not
     by wall clock: CI runners (and this container) timeshare every
     domain on one CPU, where each rung's wall time is just its total
     CPU work and lock *contention* is invisible — on one CPU the wall
     comparison measures producer dispatch overhead, nothing else.
     Wall clock is still reported, under [_ms]/[speedup] names.

   Returns the number of violations and writes the run's telemetry as
   BENCH_churn.json ([out] overrides the path) for the check_regression
   gate.  Every churn.* counter without a timing suffix is producer-side
   and deterministic for a fixed seed; the wall-clock measurements are
   emitted under [_ms]/[speedup] names so the benchdiff timing policy
   excludes them, and the two timing-dependent pool counters are
   filtered out of the document so the committed baseline diffs cleanly
   across machines. *)

let cores = 4
let npkts = 49_152
let active_flows = 1_024
let flows_per_gbit = 240_000.0
let repeats = 3

(* Model-priced SCR throughput must be at least lock's; the observed
   margin is larger, the gate only has to reject a regression to
   lock-equivalent behaviour *)
let speed_gate = 1.0

let verdicts_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | Dsl.Interp.Dropped, Dsl.Interp.Dropped -> true
         | Dsl.Interp.Fwd (pa, oa), Dsl.Interp.Fwd (pb, ob) -> pa = pb && Packet.Pkt.equal oa ob
         | _ -> false)
       a b

(* warmed best-of-N wall clock for one pool run *)
let best_of pool plan trace =
  ignore (Runtime.Pool.run pool plan trace);
  let best = ref infinity in
  for _ = 1 to repeats do
    let t0 = Unix.gettimeofday () in
    ignore (Runtime.Pool.run pool plan trace);
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

let c_counter name doc v =
  let c = Telemetry.Counter.make name ~doc in
  Telemetry.Counter.add c v

let run ?(out = "BENCH_churn.json") () =
  let failures = ref 0 in
  let check name ok =
    Printf.printf "%-58s %s\n%!" name (if ok then "ok" else "FAIL");
    if not ok then incr failures
  in
  Telemetry.reset ();
  Telemetry.enable ();
  let nf = Nfs.Registry.find_exn "fw" in
  let request = { Maestro.Pipeline.default_request with cores } in
  let plan_of strategy =
    (Maestro.Pipeline.parallelize_exn ~request:{ request with strategy } nf)
      .Maestro.Pipeline.plan
  in
  let scr_plan = plan_of `Force_scr in
  let lock_plan = plan_of `Force_locks in
  check "scr plan lands on the scr rung"
    (scr_plan.Maestro.Plan.strategy = Maestro.Plan.Scr);
  check "lock plan lands on the lock rung"
    (lock_plan.Maestro.Plan.strategy = Maestro.Plan.Lock_based);

  let spec = { Traffic.Churn.default_spec with active_flows; flows_per_gbit; pkts = npkts } in
  let rng = Random.State.make [| 0xc40a9 |] in
  let trace = Traffic.Churn.trace rng spec in
  let generations = Traffic.Churn.generations spec in
  let seq = Runtime.Parallel.run_sequential nf trace in

  (* correctness first: one SCR run, verdicts against the oracle *)
  let pool = Runtime.Pool.create ~cores () in
  let v_scr = Runtime.Pool.run pool scr_plan trace in
  let s = Runtime.Pool.stats pool in
  check "scr: verdicts identical to sequential" (verdicts_equal seq v_scr);
  check "scr: every batch broadcast to every non-owner"
    (s.Runtime.Pool.scr_replays > 0
    && s.Runtime.Pool.scr_replays mod (cores - 1) = 0);
  check "scr: digest bytes accounted" (s.Runtime.Pool.scr_digest_bytes > 0);
  check "scr: no rebuilds without faults" (s.Runtime.Pool.scr_rebuilds = 0);
  check "scr: nothing dropped" (s.Runtime.Pool.dropped_batches = 0);
  let scr_replays = s.Runtime.Pool.scr_replays in
  let scr_digest_bytes = s.Runtime.Pool.scr_digest_bytes in

  (* wall clock: warmed best-of-N for each rung on the same pool shape
     (informational only — see the header comment) *)
  let t_scr = best_of pool scr_plan trace in
  let scr_shares = Sim.Throughput.shares_of_pool_stats (Runtime.Pool.stats pool) in
  Runtime.Pool.shutdown pool;
  let pool = Runtime.Pool.create ~cores () in
  let t_lock = best_of pool lock_plan trace in
  let lock_shares = Sim.Throughput.shares_of_pool_stats (Runtime.Pool.stats pool) in
  Runtime.Pool.shutdown pool;
  let speedup = t_lock /. t_scr in

  (* the gated comparison: the contention laws on the measured shares *)
  let profile = Sim.Profile.of_trace nf trace in
  let mpps plan shares =
    (Sim.Throughput.evaluate ~measured_shares:shares plan profile trace).Sim.Throughput.mpps
  in
  let m_scr = mpps scr_plan scr_shares and m_lock = mpps lock_plan lock_shares in
  let model_speedup = m_scr /. m_lock in
  Printf.printf "model: scr %.2f mpps, lock %.2f mpps (x %.2f, gate %.2fx)\n%!" m_scr m_lock
    model_speedup speed_gate;
  Printf.printf "wall clock (informational): scr %.1f ms, lock %.1f ms (%.2fx)\n%!"
    (t_scr *. 1e3) (t_lock *. 1e3) speedup;
  check "scr beats the lock rung on churn" (model_speedup >= speed_gate);

  c_counter "churn.pkts" "packets replayed per run" npkts;
  c_counter "churn.active_flows" "concurrently live flows" active_flows;
  c_counter "churn.generations" "flow creations in one pass of the trace" generations;
  c_counter "churn.scr_replays" "digest batch replays scheduled (one run)" scr_replays;
  c_counter "churn.scr_digest_bytes" "digest bytes broadcast (one run)" scr_digest_bytes;
  c_counter "churn.scr_rebuilds" "replica rebuilds (must be 0 without faults)"
    s.Runtime.Pool.scr_rebuilds;
  c_counter "churn.model_scr_vs_lock_x100" "model scr/lock throughput, percent (gated)"
    (int_of_float (Float.round (model_speedup *. 100.0)));
  c_counter "churn.model_scr_mpps_x100" "model SCR throughput, mpps x100"
    (int_of_float (Float.round (m_scr *. 100.0)));
  c_counter "churn.model_lock_mpps_x100" "model lock throughput, mpps x100"
    (int_of_float (Float.round (m_lock *. 100.0)));
  (* timing-suffixed names: reported, never diffed *)
  c_counter "churn.scr_best_ms" "best SCR wall clock, milliseconds"
    (int_of_float (Float.round (t_scr *. 1e3)));
  c_counter "churn.lock_best_ms" "best lock wall clock, milliseconds"
    (int_of_float (Float.round (t_lock *. 1e3)));
  c_counter "churn.speedup_x100" "lock/scr wall clock, percent (informational)"
    (int_of_float (Float.round (speedup *. 100.0)));

  Telemetry.disable ();
  let snap = Telemetry.snapshot () in
  let timing_dependent = [ "pool.ring_full_stalls"; "supervisor.stuck_detected" ] in
  let snap =
    {
      snap with
      Telemetry.counters =
        List.filter
          (fun c -> not (List.mem c.Telemetry.counter_name timing_dependent))
          snap.Telemetry.counters;
    }
  in
  let oc = open_out out in
  output_string oc (Telemetry.to_json ~name:"churn" snap);
  close_out oc;
  Printf.printf "telemetry written to %s\n" out;
  if !failures > 0 then Printf.printf "%d violation(s)\n" !failures
  else print_endline "churn smoke: scr beats the lock rung";
  !failures
