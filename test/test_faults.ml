(* The fault-tolerance acceptance suite: seeded fault plans drive every
   recovery path — supervisor restart, permanent failure with
   indirection-table remap, backpressure under full rings and dead
   consumers, and the solver-budget degradation ladder — and each test
   asserts both the recovery telemetry and, where the path is lossless,
   exact sequential equivalence. *)

let rng seed = Random.State.make [| seed |]

let plan_of ?(cores = 4) ?(strategy = `Auto) name =
  let request = { Maestro.Pipeline.default_request with cores; strategy } in
  (Maestro.Pipeline.parallelize_exn ~request (Nfs.Registry.find_exn name)).Maestro.Pipeline.plan

let mixed_trace seed npkts nflows =
  let st = rng seed in
  let flows = Traffic.Gen.flows st nflows in
  Traffic.Gen.uniform ~spec:{ Traffic.Gen.default_spec with pkts = npkts } st ~flows

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let counter_value snap name =
  List.find_map
    (fun c ->
      if String.equal c.Telemetry.counter_name name then Some c.Telemetry.counter_value
      else None)
    snap.Telemetry.counters
  |> Option.value ~default:0

let with_fault_plan spec f =
  (match Faults.parse spec with
  | Ok plan -> Faults.install plan
  | Error e -> Alcotest.fail e);
  Fun.protect ~finally:Faults.clear f

let with_pool ?ring_capacity ?batch_size ?backpressure ?supervisor ~cores f =
  let pool = Runtime.Pool.create ?ring_capacity ?batch_size ?backpressure ?supervisor ~cores () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) (fun () -> f pool)

let no_restart_supervisor = { Runtime.Supervisor.default_config with max_restarts = 0 }

(* --- plan parsing ----------------------------------------------------------- *)

let test_parse_plans () =
  (match Faults.parse "crash@1:3x2; slow@2:0:500 ;stall@0:4:1000;satbudget@10:1000" with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check int) "events" 4 (List.length p.Faults.events);
      Alcotest.(check bool) "crash parsed" true
        (List.mem (Faults.Worker_crash { core = 1; batch = 3; times = 2 }) p.Faults.events);
      Alcotest.(check bool) "slow parsed" true
        (List.mem (Faults.Slow_worker { core = 2; from_batch = 0; spins = 500 }) p.Faults.events);
      Alcotest.(check bool) "stall parsed" true
        (List.mem (Faults.Ring_stall { core = 0; batch = 4; spins = 1000 }) p.Faults.events);
      Alcotest.(check bool) "satbudget parsed" true
        (List.mem (Faults.Solver_budget { conflicts = 10; propagations = 1000 }) p.Faults.events));
  (* default crash multiplicity *)
  (match Faults.parse "crash@0:0" with
  | Ok { Faults.events = [ Faults.Worker_crash { times; _ } ]; _ } ->
      Alcotest.(check int) "times defaults to 1" 1 times
  | _ -> Alcotest.fail "single crash event expected");
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" bad)
        true
        (Result.is_error (Faults.parse bad)))
    [ ""; "boom@1:2"; "crash@x:1"; "crash@1"; "slow@1:2"; "satbudget@1:2:3"; "crash"; "phase@1:"; "phase@x:calm" ]

let test_phase_schedule () =
  (* phase events are descriptive: parsed, sorted, read back — no hook *)
  (match Faults.parse "phase@4:skew;crash@2:60;phase@0:calm;phase@8:calm" with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Faults.install p;
      Fun.protect ~finally:Faults.clear @@ fun () ->
      Alcotest.(check (list (pair int string)))
        "schedule ascending by epoch"
        [ (0, "calm"); (4, "skew"); (8, "calm") ]
        (Faults.phases ()));
  Alcotest.(check (list (pair int string))) "no plan, no phases" [] (Faults.phases ());
  (* round-trips through the printer *)
  let ev = Faults.Phase_shift { epoch = 4; profile = "skew" } in
  Alcotest.(check string) "printer" "phase@4:skew" (Format.asprintf "%a" Faults.pp_event ev)

let test_disabled_hooks_are_noops () =
  Faults.clear ();
  Alcotest.(check bool) "inactive" false (Faults.active ());
  Alcotest.(check bool) "nothing installed" true (Faults.installed () = None);
  (* must not raise or spin *)
  Faults.worker_batch ~core:0 ~batch:0;
  Alcotest.(check bool) "no solver override" true (Faults.solver_budget () = None)

(* --- crash -> supervisor restart -------------------------------------------- *)

let test_crash_restart_preserves_equivalence () =
  let nf = Nfs.Registry.find_exn "fw" in
  let plan = plan_of ~cores:4 "fw" in
  let check (trace, ring_capacity, batch_size) =
    let seq = Runtime.Parallel.run_sequential nf trace in
    with_fault_plan "crash@1:2" @@ fun () ->
    Telemetry.reset ();
    Telemetry.enable ();
    with_pool ?ring_capacity ?batch_size ~cores:4 @@ fun pool ->
    let v = Runtime.Pool.run pool plan trace in
    Telemetry.disable ();
    let snap = Telemetry.snapshot () in
    (* the crashed batch was replayed inline before the respawn, so the
       per-core packet order — and therefore every verdict — is intact *)
    Alcotest.(check bool) "verdicts == sequential across the crash" true (seq = v);
    let s = Runtime.Pool.stats pool in
    Alcotest.(check int) "one restart" 1 s.Runtime.Pool.restarts;
    Alcotest.(check (list int)) "no permanent failure" [] s.Runtime.Pool.failed_cores;
    Alcotest.(check bool) "crashed batch ran inline" true (s.Runtime.Pool.inline_batches >= 1);
    Alcotest.(check bool) "restart event recorded" true
      (List.exists
         (function Runtime.Supervisor.Restarted { core = 1; _ } -> true | _ -> false)
         (Runtime.Supervisor.events (Runtime.Pool.supervisor pool)));
    Alcotest.(check bool) "injection counted" true
      (counter_value snap "faults.injected_crashes" >= 1);
    Alcotest.(check bool) "crash counted" true (counter_value snap "pool.worker_crashes" >= 1);
    Alcotest.(check bool) "restart counted" true (counter_value snap "supervisor.restarts" >= 1)
  in
  (* also on a two-slot ring with 4-packet batches: the producer keeps
     filling the crashed core's lane up to the ring's bound while the dead
     worker's batch waits to be replayed; and on a longer trace *)
  let trace = mixed_trace 71 1500 150 in
  List.iter check
    [ (trace, None, None); (trace, Some 2, Some 4); (mixed_trace 0x5eed 4000 200, None, None) ]

let test_repeated_crashes_exhaust_restart_budget () =
  let trace = mixed_trace 72 1200 120 in
  let plan = plan_of ~cores:4 "fw" in
  let supervisor = { Runtime.Supervisor.default_config with max_restarts = 2 } in
  (* the worker dies on every batch it attempts: 2 restarts, then give up *)
  with_fault_plan "crash@1:0x1000000" @@ fun () ->
  with_pool ~cores:4 ~supervisor @@ fun pool ->
  let nf = Nfs.Registry.find_exn "fw" in
  let seq = Runtime.Parallel.run_sequential nf trace in
  let v = Runtime.Pool.run pool plan trace in
  (* lossless: after the give-up the producer drained the ring inline *)
  Alcotest.(check bool) "verdicts == sequential across permanent failure" true
    (seq = v);
  let s = Runtime.Pool.stats pool in
  Alcotest.(check int) "restart budget spent" 2 s.Runtime.Pool.restarts;
  Alcotest.(check (list int)) "core 1 failed permanently" [ 1 ] s.Runtime.Pool.failed_cores;
  Alcotest.(check (list int)) "live cores" [ 0; 2; 3 ] (Runtime.Pool.live_cores pool);
  Alcotest.(check bool) "gave-up event recorded" true
    (List.exists
       (function Runtime.Supervisor.Gave_up { core = 1; _ } -> true | _ -> false)
       (Runtime.Supervisor.events (Runtime.Pool.supervisor pool)))

(* --- permanent failure -> indirection-table remap ---------------------------- *)

(* fw's packets all hash; gre_peer keys on tunnel ids that no field set
   matches, so its packets take the unhashed route, which must leave a
   written-off core 0 as the hashed ones do *)
let test_failed_core_buckets_migrate () =
  List.iter
    (fun (name, strategy, cores, dead, trace) ->
      let label = Printf.sprintf "%s, core %d" name dead in
      let seq = Runtime.Parallel.run_sequential (Nfs.Registry.find_exn name) trace in
      let plan = plan_of ~cores ~strategy name in
      with_pool ~cores ~supervisor:no_restart_supervisor @@ fun pool ->
      (* run 1: the core dies on its first batch and is written off; the
         producer runs its batches inline, in order *)
      let v =
        with_fault_plan (Printf.sprintf "crash@%d:0x1000000" dead) @@ fun () ->
        Runtime.Pool.run pool plan trace
      in
      Alcotest.(check (list int)) (label ^ " failed") [ dead ] (Runtime.Pool.failed_cores pool);
      if name = "fw" then
        Alcotest.(check bool) (label ^ ": verdicts == sequential across the write-off") true
          (seq = v);
      (* run 2, faults cleared: the RETA is remapped, so every packet lands
         on a live core — the dead core serves exactly zero packets *)
      Telemetry.reset ();
      Telemetry.enable ();
      let v = Runtime.Pool.run pool plan trace in
      Telemetry.disable ();
      let snap = Telemetry.snapshot () in
      let s = Runtime.Pool.stats pool in
      Alcotest.(check int) (label ^ ": dead core serves nothing") 0
        s.Runtime.Pool.last_per_core_pkts.(dead);
      Alcotest.(check int) (label ^ ": every packet on exactly one live core") (Array.length trace)
        (Array.fold_left ( + ) 0 s.Runtime.Pool.last_per_core_pkts);
      if name = "fw" then
        Array.iteri
          (fun core n ->
            if core <> dead then
              Alcotest.(check bool) (Printf.sprintf "live core %d used" core) true (n > 0))
          s.Runtime.Pool.last_per_core_pkts;
      Alcotest.(check bool) (label ^ ": remap counted") true
        (counter_value snap "pool.reta_remaps" >= 1);
      (* flow state still shards correctly: the migrated flows behave as
         sequentially (fw state is flow-local, and whole buckets moved) *)
      Alcotest.(check bool) (label ^ ": verdicts == sequential after failover") true (seq = v))
    [
      ("fw", `Auto, 4, 1, mixed_trace 73 1500 150);
      ("fw", `Auto, 4, 1, mixed_trace 0x5eed 4000 200);
      ( "gre_peer",
        `Force_locks,
        2,
        0,
        Traffic.Gen.encapsulate Packet.Pkt.Gre (mixed_trace 73 2000 150) );
    ]

(* --- backpressure: full rings and dead consumers ----------------------------- *)

let backpressure_cases =
  [
    ("block", Runtime.Pool.Block);
    ("drop", Runtime.Pool.Drop { max_spins = 200 });
    ("shed", Runtime.Pool.Drop { max_spins = 0 });
  ]

let test_stalled_consumer_terminates () =
  let nf = Nfs.Registry.find_exn "fw" in
  List.iter
    (fun ((cores, trace), (policy, bp)) ->
      let seq = Runtime.Parallel.run_sequential nf trace in
      let plan = plan_of ~cores "fw" in
      let name = Printf.sprintf "%s, %d cores" policy cores in
      (* the consumer freezes before its first batch while the producer
         keeps submitting into a 2-slot ring: the ring fills and the
         backpressure policy decides.  The old unbounded spin livelocked
         here for the drop/shed workloads' latency budget.  Stalls depend
         on timing, so the pool's counts are checked against the
         counters, not against literals. *)
      with_fault_plan "stall@1:0:2000000" @@ fun () ->
      let v, s =
        Test_binding.counters_agree name @@ fun () ->
        with_pool ~cores ~ring_capacity:2 ~batch_size:8 ~backpressure:bp @@ fun pool ->
        let v = Runtime.Pool.run pool plan trace in
        (v, Runtime.Pool.stats pool)
      in
      Alcotest.(check bool) (name ^ ": stall observed") true (s.Runtime.Pool.ring_full_stalls >= 1);
      match bp with
      | Runtime.Pool.Block ->
          (* lossless: blocking waited the stall out *)
          Alcotest.(check bool) (name ^ ": verdicts == sequential") true (seq = v);
          Alcotest.(check int) (name ^ ": no drops") 0 s.Runtime.Pool.dropped_batches
      | Runtime.Pool.Drop _ ->
          Alcotest.(check bool) (name ^ ": drops counted") true (s.Runtime.Pool.dropped_batches > 0);
          Alcotest.(check bool)
            (name ^ ": stalled core dropped")
            true
            (s.Runtime.Pool.per_core_drops.(1) > 0);
          Alcotest.(check bool)
            (name ^ ": drop packets accounted")
            true
            (s.Runtime.Pool.dropped_pkts >= s.Runtime.Pool.dropped_batches))
    (List.concat_map
       (fun shape -> List.map (fun bp -> (shape, bp)) backpressure_cases)
       [ (2, mixed_trace 74 800 100); (4, mixed_trace 0x5eed 4000 200) ])

(* Under drop and shed, a dropped batch never runs: on nop, which forwards
   everything it sees, the Dropped verdicts are exactly the dropped
   packets. *)
let test_dropped_batches_never_run () =
  let trace = mixed_trace 78 800 100 in
  let plan = plan_of ~cores:2 "nop" in
  List.iter
    (fun (name, bp) ->
      if bp <> Runtime.Pool.Block then begin
        with_fault_plan "stall@1:0:2000000" @@ fun () ->
        with_pool ~cores:2 ~ring_capacity:2 ~batch_size:8 ~backpressure:bp @@ fun pool ->
        let v = Runtime.Pool.run pool plan trace in
        let s = Runtime.Pool.stats pool in
        let dropped =
          Array.fold_left (fun n a -> if a = Dsl.Interp.Dropped then n + 1 else n) 0 v
        in
        Alcotest.(check bool) (name ^ ": something dropped") true (s.Runtime.Pool.dropped_pkts > 0);
        Alcotest.(check int) (name ^ ": dropped verdicts = dropped packets")
          s.Runtime.Pool.dropped_pkts dropped
      end)
    backpressure_cases

let test_dead_consumer_terminates () =
  let nf = Nfs.Registry.find_exn "fw" in
  let trace = mixed_trace 75 800 100 in
  let seq = Runtime.Parallel.run_sequential nf trace in
  let plan = plan_of ~cores:2 "fw" in
  List.iter
    (fun (name, bp) ->
      (* the consumer dies permanently on its first batch: under every
         policy the producer must fail over (drain inline) rather than
         livelock on the full ring *)
      with_fault_plan "crash@1:0x1000000" @@ fun () ->
      with_pool ~cores:2 ~ring_capacity:2 ~batch_size:8 ~backpressure:bp
        ~supervisor:no_restart_supervisor
      @@ fun pool ->
      let v = Runtime.Pool.run pool plan trace in
      let s = Runtime.Pool.stats pool in
      Alcotest.(check (list int)) (name ^ ": core 1 failed") [ 1 ] s.Runtime.Pool.failed_cores;
      Alcotest.(check bool) (name ^ ": drained inline") true (s.Runtime.Pool.inline_batches >= 1);
      if bp = Runtime.Pool.Block then
        (* nothing was dropped on the way to the failover *)
        Alcotest.(check bool) (name ^ ": verdicts == sequential") true (seq = v)
      else begin
        (* detection is racy under drop/shed (batches can be shed before
           the death is noticed), so only the accounting is asserted *)
        ignore seq;
        Alcotest.(check bool)
          (name ^ ": drop accounting coherent")
          true
          (s.Runtime.Pool.dropped_pkts >= s.Runtime.Pool.dropped_batches
          && s.Runtime.Pool.dropped_pkts <= Array.length trace)
      end)
    backpressure_cases

let test_stuck_worker_detected () =
  let nf = Nfs.Registry.find_exn "fw" in
  let trace = mixed_trace 76 800 100 in
  let seq = Runtime.Parallel.run_sequential nf trace in
  let plan = plan_of ~cores:2 "fw" in
  with_fault_plan "stall@1:0:5000000" @@ fun () ->
  with_pool ~cores:2 @@ fun pool ->
  let v = Runtime.Pool.run pool plan trace in
  (* a stuck-but-live domain cannot be preempted: the supervisor flags it
     and the run completes once the stall clears *)
  Alcotest.(check bool) "verdicts == sequential" true (seq = v);
  Alcotest.(check bool) "stuck event recorded" true
    (List.exists
       (function Runtime.Supervisor.Stuck { core = 1; _ } -> true | _ -> false)
       (Runtime.Supervisor.events (Runtime.Pool.supervisor pool)));
  Alcotest.(check int) "no restarts for a live worker" 0
    (Runtime.Supervisor.restarts (Runtime.Pool.supervisor pool))

(* A slow but live worker: every batch spins 20,000 [Domain.cpu_relax]
   on the worker before it runs (~0.7 ms on a 2-vCPU x86 VM).  The
   worker retires a batch between the producer's looks now and then, so
   the producer naps while it drains; nothing is restarted or flagged
   stuck, and the verdicts are the sequential NF's. *)
let test_slow_worker_producer_naps () =
  let nf = Nfs.Registry.find_exn "fw" in
  let trace = mixed_trace 79 1536 100 in
  let seq = Runtime.Parallel.run_sequential nf trace in
  let plan = plan_of ~cores:1 "fw" in
  with_fault_plan "slow@0:0:20000" @@ fun () ->
  let (v, events), s =
    Test_binding.counters_agree "slow worker" @@ fun () ->
    with_pool ~cores:1 @@ fun pool ->
    let v = Runtime.Pool.run pool plan trace in
    ((v, Runtime.Supervisor.events (Runtime.Pool.supervisor pool)), Runtime.Pool.stats pool)
  in
  Alcotest.(check bool) "verdicts == sequential" true (seq = v);
  Alcotest.(check bool) "a few dozen batches" true (s.Runtime.Pool.batches >= 36);
  Alcotest.(check bool) "the producer napped" true (s.Runtime.Pool.producer_naps >= 1);
  Alcotest.(check int) "no restarts for a live worker" 0 s.Runtime.Pool.restarts;
  Alcotest.(check bool) "a slow worker is not stuck" false
    (List.exists (function Runtime.Supervisor.Stuck _ -> true | _ -> false) events)

(* --- solver budget -> degradation ladder ------------------------------------- *)

let test_sat_budget_degrades_to_locks () =
  let request =
    { Maestro.Pipeline.default_request with solver = `Sat; sat_budget = Some (0, 0) }
  in
  let o = Maestro.Pipeline.parallelize_exn ~request (Nfs.Registry.find_exn "fw") in
  Alcotest.(check bool) "degraded" true (Maestro.Ladder.degraded o.Maestro.Pipeline.ladder);
  (* fw writes state and its digest is small, so the first rung below
     shared-nothing — state-compute replication — catches the fall *)
  Alcotest.(check bool) "scr rung chosen" true
    (o.Maestro.Pipeline.ladder.Maestro.Ladder.chosen = Maestro.Ladder.Scr);
  Alcotest.(check bool) "plan is scr" true
    (o.Maestro.Pipeline.plan.Maestro.Plan.strategy = Maestro.Plan.Scr);
  Alcotest.(check int) "all cores still run" 16 o.Maestro.Pipeline.plan.Maestro.Plan.cores;
  (* the walk records why the top rung was rejected *)
  (match o.Maestro.Pipeline.ladder.Maestro.Ladder.steps with
  | top :: _ ->
      Alcotest.(check bool) "top rung rejected" false top.Maestro.Ladder.taken;
      Alcotest.(check bool) "reason mentions the budget" true
        (contains ~sub:"budget" top.Maestro.Ladder.reason
        || contains ~sub:"gave up" top.Maestro.Ladder.reason)
  | [] -> Alcotest.fail "empty ladder");
  Alcotest.(check bool) "warnings surfaced" true (o.Maestro.Pipeline.plan.Maestro.Plan.warnings <> [])

let test_fault_plan_forces_solver_budget () =
  with_fault_plan "satbudget@0:0" @@ fun () ->
  let request = { Maestro.Pipeline.default_request with solver = `Sat } in
  let o = Maestro.Pipeline.parallelize_exn ~request (Nfs.Registry.find_exn "fw") in
  Alcotest.(check bool) "fault-driven budget degrades the plan" true
    (Maestro.Ladder.degraded o.Maestro.Pipeline.ladder)

let test_too_many_cores_degrades_to_serial () =
  let request = { Maestro.Pipeline.default_request with cores = 300 } in
  let o = Maestro.Pipeline.parallelize_exn ~request (Nfs.Registry.find_exn "fw") in
  Alcotest.(check bool) "serial rung chosen" true
    (o.Maestro.Pipeline.ladder.Maestro.Ladder.chosen = Maestro.Ladder.Serial);
  Alcotest.(check int) "one core" 1 o.Maestro.Pipeline.plan.Maestro.Plan.cores;
  Alcotest.(check bool) "plan is lock-based (serial)" true
    (o.Maestro.Pipeline.plan.Maestro.Plan.strategy = Maestro.Plan.Lock_based);
  (* the serial plan still preserves semantics, at sequential speed *)
  let nf = Nfs.Registry.find_exn "fw" in
  let trace = mixed_trace 77 600 60 in
  let seq = Runtime.Parallel.run_sequential nf trace in
  let par = Runtime.Parallel.run o.Maestro.Pipeline.plan trace in
  Alcotest.(check bool) "serial == sequential" true
    (seq = par.Runtime.Parallel.verdicts)

let test_undegraded_ladder_keeps_top_rung () =
  let o = Maestro.Pipeline.parallelize_exn (Nfs.Registry.find_exn "fw") in
  Alcotest.(check bool) "not degraded" false (Maestro.Ladder.degraded o.Maestro.Pipeline.ladder);
  Alcotest.(check bool) "top rung" true
    (o.Maestro.Pipeline.ladder.Maestro.Ladder.chosen = Maestro.Ladder.Shared_nothing)

let suite =
  [
    Alcotest.test_case "fault plan parsing" `Quick test_parse_plans;
    Alcotest.test_case "phase schedule parses and sorts" `Quick test_phase_schedule;
    Alcotest.test_case "disabled hooks are no-ops" `Quick test_disabled_hooks_are_noops;
    Alcotest.test_case "crash -> restart keeps equivalence" `Quick
      test_crash_restart_preserves_equivalence;
    Alcotest.test_case "repeated crashes exhaust restart budget" `Quick
      test_repeated_crashes_exhaust_restart_budget;
    Alcotest.test_case "failed core's buckets migrate" `Quick test_failed_core_buckets_migrate;
    Alcotest.test_case "stalled consumer terminates (3 policies)" `Quick
      test_stalled_consumer_terminates;
    Alcotest.test_case "dropped batches never run" `Quick test_dropped_batches_never_run;
    Alcotest.test_case "dead consumer terminates (3 policies)" `Quick
      test_dead_consumer_terminates;
    Alcotest.test_case "stuck worker detected" `Quick test_stuck_worker_detected;
    Alcotest.test_case "slow worker: the producer naps" `Quick test_slow_worker_producer_naps;
    Alcotest.test_case "sat budget degrades to scr" `Quick test_sat_budget_degrades_to_locks;
    Alcotest.test_case "fault plan forces solver budget" `Quick
      test_fault_plan_forces_solver_budget;
    Alcotest.test_case "too many cores degrade to serial" `Quick
      test_too_many_cores_degrades_to_serial;
    Alcotest.test_case "undegraded ladder keeps top rung" `Quick
      test_undegraded_ladder_keeps_top_rung;
  ]
