(* The runtime's parts one by one: the deterministic model's statistics,
   the pool's ring, producer, stats and errors, the reader-writer lock and
   the supervisor's policy.  Whether a parallel run agrees with the
   sequential NF is the differential harness's question; the equivalence
   cases here are its checks on fixed plans and traces. *)

let rng seed = Random.State.make [| seed |]

let plan_of ?(cores = 8) ?strategy name =
  let request =
    {
      Maestro.Pipeline.default_request with
      cores;
      strategy = Option.value ~default:`Auto strategy;
    }
  in
  (Maestro.Pipeline.parallelize_exn ~request (Nfs.Registry.find_exn name)).Maestro.Pipeline.plan

let mixed_trace seed npkts nflows =
  let st = rng seed in
  let flows = Traffic.Gen.flows st nflows in
  Traffic.Gen.uniform
    ~spec:{ Traffic.Gen.default_spec with pkts = npkts }
    st ~flows

(* --- equivalence on the deterministic model ---------------------------------- *)

let model_equivalence ?(cores = 8) ?strategy ~rung name trace () =
  let plan = plan_of ~cores ?strategy name in
  Alcotest.(check string)
    (name ^ " rung") (Maestro.Plan.strategy_name rung)
    (Maestro.Plan.strategy_name plan.Maestro.Plan.strategy);
  ignore (Test_differential.check_model_run name plan trace : Runtime.Parallel.result)

let sharded name seed =
  model_equivalence ~rung:Maestro.Plan.Shared_nothing name (mixed_trace seed 4000 300)

let test_fw_equivalence = sharded "fw" 11
let test_policer_equivalence = sharded "policer" 12
let test_psd_equivalence = sharded "psd" 13
let test_cl_equivalence = sharded "cl" 14
let test_nop_equivalence =
  model_equivalence ~rung:Maestro.Plan.Load_balance "nop" (mixed_trace 15 2000 100)
let test_sbridge_lb_mode =
  model_equivalence ~rung:Maestro.Plan.Load_balance "sbridge" (mixed_trace 16 1000 50)

(* NAT: ports may be allocated differently per core, so equivalence is
   behavioral: same forward/drop pattern and replies restored correctly. *)
let test_nat_behavioral_equivalence =
  model_equivalence ~rung:Maestro.Plan.Shared_nothing "nat" (mixed_trace 19 3000 250)

(* Write/read packet classification feeds the §6.4 performance stories. *)
let test_lock_stats_read_heavy () =
  let plan = plan_of ~strategy:`Force_locks "fw" in
  let st = rng 21 in
  let flows = Traffic.Gen.flows st 64 in
  let trace =
    Traffic.Gen.uniform ~spec:{ Traffic.Gen.default_spec with pkts = 4000; reply_fraction = 0.5 }
      st ~flows
  in
  let r = Runtime.Parallel.run plan trace in
  let s = r.Runtime.Parallel.stats in
  (* 64 new flows in 4000 packets: writes are rare *)
  Alcotest.(check bool) "read packets dominate" true
    (s.Runtime.Parallel.read_pkts > 9 * s.Runtime.Parallel.write_pkts);
  Alcotest.(check int) "restarts = write pkts" s.Runtime.Parallel.write_pkts
    s.Runtime.Parallel.spec_restarts;
  Alcotest.(check bool) "rejuvenations stayed local" true
    (s.Runtime.Parallel.rejuv_local > 0)

let test_policer_lock_stats_write_heavy () =
  let plan = plan_of ~strategy:`Force_locks "policer" in
  let st = rng 22 in
  let flows = Traffic.Gen.flows st 64 in
  let trace =
    Traffic.Gen.uniform ~spec:{ Traffic.Gen.default_spec with pkts = 2000; reply_fraction = 0.9 }
      st ~flows
  in
  let r = Runtime.Parallel.run plan trace in
  let s = r.Runtime.Parallel.stats in
  (* every policed (WAN->LAN) packet updates its token bucket *)
  Alcotest.(check bool) "writes dominate reads side" true
    (s.Runtime.Parallel.write_pkts > s.Runtime.Parallel.read_pkts / 4)

let test_dispatch_spreads_over_cores () =
  let plan = plan_of ~cores:8 "fw" in
  let trace = mixed_trace 23 4000 512 in
  let counts = Runtime.Parallel.dispatch_counts plan trace in
  Alcotest.(check int) "8 cores" 8 (Array.length counts);
  Array.iteri
    (fun i c -> Alcotest.(check bool) (Printf.sprintf "core %d used" i) true (c > 0))
    counts

(* --- equivalence on worker domains ------------------------------------------ *)

(* L2 frames between 64 stations: the static bridge only reads its table,
   so no order of lock acquisitions can change a verdict *)
let l2_trace seed n =
  let st = rng seed in
  Array.init n (fun i ->
      Packet.Pkt.make ~port:(i mod 2)
        ~eth_src:(0x02_00_00_00_10_00 + Random.State.int st 64)
        ~eth_dst:(0x02_00_00_00_10_00 + Random.State.int st 64)
        ~ip_src:1 ~ip_dst:2 ~src_port:3 ~dst_port:4 ())

(* [runs] traces of [name]'s plan, one after the other on one pool of
   [shape], each checked by the differential harness: against the
   sequential NF and, from the second on, against a pool spawned for it *)
let pool_runs ?strategy ?order_free shape name traces =
  let plan = plan_of ~cores:shape.Test_differential.cores ?strategy name in
  Test_differential.with_pool shape (fun pool ->
      List.iter
        (fun trace ->
          ignore
            (Test_differential.check_run ?order_free shape pool name plan trace
              : Runtime.Pool.stats))
        traces)

let test_domains_shared_nothing_equivalence () =
  pool_runs (Test_differential.shape 4) "fw" [ mixed_trace 24 1500 150 ]

let test_domains_lock_based_equivalence () =
  pool_runs ~strategy:`Force_locks ~order_free:true (Test_differential.shape 4) "sbridge"
    [ l2_trace 25 500 ]

(* A persistent pool's second run of a trace returns what a pool spawned
   for that run alone does, and what the sequential NF does. *)
let test_pool_matches_spawning_shared_nothing () =
  let trace = mixed_trace 41 1500 150 in
  pool_runs (Test_differential.shape 4) "fw" [ trace; trace ]

let test_pool_matches_spawning_lock_based () =
  let trace = l2_trace 42 600 in
  pool_runs ~strategy:`Force_locks ~order_free:true (Test_differential.shape 4) "sbridge"
    [ trace; trace ]

(* batch size must not change behavior: 1 (degenerate), 32 (default),
   7 (odd, exercises the ragged final batch).  Under a one-slot ring the
   producer stalls mid-stream and the index lanes wrap many times per
   run; the harness checks that streaming cuts each core's packets into
   ceil(n / batch) batches. *)
let test_pool_batch_sizes () =
  let trace = mixed_trace 44 900 120 in
  List.iter
    (fun (batch, ring) -> pool_runs (Test_differential.shape ~batch ~ring 3) "policer" [ trace ])
    [ (1, 1024); (32, 1024); (7, 1024); (7, 1); (32, 1) ]

(* Lanes are sized per run and reused across runs: a long run on a
   one-slot ring (lanes wrap), a short one, a long one again, on both
   lane executors (bare shared-nothing and the lock discipline). *)
let test_pool_lanes_across_runs () =
  let traces =
    List.map (fun (seed, npkts) -> mixed_trace seed npkts 80) [ (47, 2000); (48, 37); (49, 1500) ]
  in
  let shape = Test_differential.shape ~batch:4 ~ring:1 3 in
  pool_runs shape "fw" traces;
  pool_runs ~strategy:`Force_locks ~order_free:true shape "sbridge" traces

(* --- persistent domain pool ------------------------------------------------ *)

let test_pool_ring () =
  let r = Runtime.Pool.Ring.create ~capacity:3 in
  Alcotest.(check int) "capacity rounds to power of two" 4 (Runtime.Pool.Ring.capacity r);
  Alcotest.(check bool) "fresh ring empty" true (Runtime.Pool.Ring.is_empty r);
  Alcotest.(check (option int)) "pop empty" None (Runtime.Pool.Ring.pop r);
  for i = 1 to 4 do
    Alcotest.(check bool) (Printf.sprintf "push %d" i) true (Runtime.Pool.Ring.try_push r i)
  done;
  Alcotest.(check bool) "push on full fails" false (Runtime.Pool.Ring.try_push r 5);
  Alcotest.(check int) "length full" 4 (Runtime.Pool.Ring.length r);
  Alcotest.(check (option int)) "fifo 1" (Some 1) (Runtime.Pool.Ring.pop r);
  Alcotest.(check (option int)) "fifo 2" (Some 2) (Runtime.Pool.Ring.pop r);
  (* wrap-around: push more than capacity total *)
  Alcotest.(check bool) "push after pop" true (Runtime.Pool.Ring.try_push r 5);
  Alcotest.(check bool) "push after pop 2" true (Runtime.Pool.Ring.try_push r 6);
  let rec drain acc = match Runtime.Pool.Ring.pop r with
    | Some v -> drain (v :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list int)) "fifo across wrap" [ 3; 4; 5; 6 ] (drain []);
  Alcotest.(check bool) "drained empty" true (Runtime.Pool.Ring.is_empty r);
  (* slots hold the values themselves: pushes box nothing *)
  let big = Runtime.Pool.Ring.create ~capacity:1024 in
  let w0 = Gc.minor_words () in
  for i = 0 to 999 do
    ignore (Runtime.Pool.Ring.try_push big i : bool)
  done;
  Alcotest.(check bool) "pushes allocate nothing" true (Gc.minor_words () -. w0 < 10.0);
  Alcotest.(check (option int)) "pushed values kept" (Some 0) (Runtime.Pool.Ring.pop big)

let test_pool_ring_spsc_stress () =
  let r = Runtime.Pool.Ring.create ~capacity:8 in
  let n = 20_000 in
  let consumer =
    Domain.spawn (fun () ->
        let sum = ref 0 and seen = ref 0 and last = ref (-1) in
        while !seen < n do
          match Runtime.Pool.Ring.pop r with
          | Some v ->
              if v <= !last then failwith "out of order";
              last := v;
              sum := !sum + v;
              incr seen
          | None -> Domain.cpu_relax ()
        done;
        !sum)
  in
  for i = 0 to n - 1 do
    while not (Runtime.Pool.Ring.try_push r i) do
      Domain.cpu_relax ()
    done
  done;
  Alcotest.(check int) "all values crossed in order" (n * (n - 1) / 2) (Domain.join consumer)

(* The producer hashes and enqueues without allocating: what it allocates
   on the minor heap per run does not grow with the trace. *)
let test_pool_producer_allocation () =
  let plan = plan_of ~cores:1 "nop" in
  let pool = Runtime.Pool.create ~cores:1 () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
  let words n =
    let trace = mixed_trace 50 n 500 in
    ignore (Runtime.Pool.run pool plan trace);
    let w0 = Gc.minor_words () in
    ignore (Runtime.Pool.run pool plan trace);
    Gc.minor_words () -. w0
  in
  let small = words 2_000 and large = words 20_000 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for 2k packets, %.0f for 20k" small large)
    true
    ((large -. small) /. 18_000. < 0.05)

let test_pool_reuse_and_stats () =
  let nf = Nfs.Registry.find_exn "fw" in
  let trace = mixed_trace 45 1000 100 in
  let plan = plan_of ~cores:4 "fw" in
  let seq = Runtime.Parallel.run_sequential nf trace in
  let pool = Runtime.Pool.create ~batch_size:32 ~cores:4 () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
  Alcotest.(check int) "cores" 4 (Runtime.Pool.cores pool);
  Alcotest.(check int) "batch size" 32 (Runtime.Pool.batch_size pool);
  (* same pool, many runs: domains are not respawned, results stay right *)
  for _ = 1 to 3 do
    let v = Runtime.Pool.run pool plan trace in
    Alcotest.(check bool) "reused pool == sequential" true (seq = v)
  done;
  let s = Runtime.Pool.stats pool in
  Alcotest.(check int) "runs counted" 3 s.Runtime.Pool.runs;
  Alcotest.(check int) "pkts counted" (3 * Array.length trace) s.Runtime.Pool.pkts;
  Alcotest.(check bool) "batches counted" true
    (s.Runtime.Pool.batches >= 3 * (Array.length trace / Runtime.Pool.default_batch_size));
  Alcotest.(check int) "per-core counts cover the trace" (Array.length trace)
    (Array.fold_left ( + ) 0 s.Runtime.Pool.last_per_core_pkts);
  (* measured shares feed the throughput model *)
  let shares = Sim.Throughput.shares_of_pool_stats s in
  Alcotest.(check int) "share per core" 4 (Array.length shares);
  Alcotest.(check (float 1e-9)) "shares sum to 1" 1.0 (Array.fold_left ( +. ) 0.0 shares);
  let profile = Sim.Profile.of_trace plan.Maestro.Plan.nf trace in
  let ev = Sim.Throughput.evaluate ~measured_shares:shares plan profile trace in
  Alcotest.(check bool) "model accepts measured shares" true (ev.Sim.Throughput.mpps > 0.0);
  Alcotest.check_raises "share length validated"
    (Invalid_argument "Throughput.evaluate: measured_shares length") (fun () ->
      ignore (Sim.Throughput.evaluate ~measured_shares:[| 1.0 |] plan profile trace))

(* The capacity split (pool.mli, "full shards"): a shared-nothing shard
   holds 1/cores of each table, so fw built small fills its shards where
   the sequential NF's one table does not, and allocations fail there.
   fw's shared-nothing plan on 4 cores, 4,000 uniform packets (traffic
   seed 5): the pool's verdicts equal [Parallel.run]'s, which splits
   capacity the same way, and leave [run_sequential]'s on a fixed number
   of packets. *)
let test_pool_capacity_split () =
  List.iter
    (fun (capacity, nflows, differ) ->
      let label what = Printf.sprintf "capacity %d, %d flows: %s" capacity nflows what in
      let nf = Nfs.Fw.make ~capacity () in
      let request = { Maestro.Pipeline.default_request with cores = 4 } in
      let plan = (Maestro.Pipeline.parallelize_exn ~request nf).Maestro.Pipeline.plan in
      Alcotest.(check bool) (label "shared-nothing plan") true
        (plan.Maestro.Plan.strategy = Maestro.Plan.Shared_nothing);
      let st = Random.State.make [| 5 |] in
      let flows = Traffic.Gen.flows st nflows in
      let trace =
        Traffic.Gen.uniform ~spec:{ Traffic.Gen.default_spec with pkts = 4_000 } st ~flows
      in
      let pool = Runtime.Pool.create ~cores:4 () in
      let v =
        Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
        Runtime.Pool.run pool plan trace
      in
      Alcotest.(check bool) (label "verdicts == Parallel.run") true
        ((Runtime.Parallel.run plan trace).Runtime.Parallel.verdicts = v);
      let seq = Runtime.Parallel.run_sequential nf trace in
      let n = ref 0 in
      Array.iteri (fun i a -> if a <> seq.(i) then incr n) v;
      Alcotest.(check int) (label "verdicts off run_sequential") differ !n)
    [ (64, 60, 30); (128, 150, 164) ]

let test_pool_rejects_oversized_plan () =
  let pool = Runtime.Pool.create ~cores:2 () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
  let plan = plan_of ~cores:4 "fw" in
  let trace = mixed_trace 46 100 10 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Runtime.Pool.run pool plan trace);
       false
     with Invalid_argument _ -> true)

(* A packet on a port the NF does not have is an error that names the
   packet, the port and the device count, on every dispatch path; the pool
   stays usable after it. *)
let test_pool_rejects_unknown_port () =
  let nf = Nfs.Registry.find_exn "fw" in
  let plan = plan_of ~cores:2 "fw" in
  (* LAN->WAN only: forwarded whatever rung the adaptive run is on *)
  let trace =
    let st = rng 51 in
    let flows = Traffic.Gen.flows st 60 in
    Traffic.Gen.uniform
      ~spec:{ Traffic.Gen.default_spec with pkts = 600; reply_fraction = 0.0 }
      st ~flows
  in
  let bad = Array.copy trace in
  bad.(123) <- { bad.(123) with Packet.Pkt.port = 2 };
  let error = Invalid_argument "packet 123 arrived on port 2, but the NF has 2 device(s)" in
  Alcotest.check_raises "Parallel.run" error (fun () -> ignore (Runtime.Parallel.run plan bad));
  let pool = Runtime.Pool.create ~cores:2 () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
  let seq = Runtime.Parallel.run_sequential nf trace in
  List.iter
    (fun (label, run) ->
      Alcotest.check_raises label error (fun () -> ignore (run bad));
      Alcotest.(check bool) (label ^ ": a clean run after it == sequential") true (seq = run trace))
    [
      ("static", Runtime.Pool.run pool plan);
      ( "rebalance",
        Runtime.Pool.run
          ~policy:(Runtime.Pool.Rebalance { Runtime.Balancer.epoch_pkts = 64; threshold = 0.0 })
          pool plan );
      ( "adaptive",
        Runtime.Pool.run
          ~policy:
            (Runtime.Pool.Adaptive
               { Runtime.Adaptive.epoch_pkts = 64; up = 2.0; down = 1.3; cooldown = 1 })
          pool plan );
    ]

(* A run that raises, like a clean one, leaves the idle workers holding no
   reference to its packets: the trace is collectable once [run] returns
   or raises. *)
let test_pool_raise_releases_trace () =
  let plan = plan_of ~cores:2 "fw" in
  let pool = Runtime.Pool.create ~cores:2 () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
  let run_probe ~bad =
    let trace = mixed_trace 52 600 60 in
    if bad then trace.(123) <- { (trace.(123)) with Packet.Pkt.port = 2 };
    let probe = Weak.create 1 in
    Weak.set probe 0 (Some trace);
    (match Runtime.Pool.run pool plan trace with
    | _ -> ()
    | exception Invalid_argument _ -> ());
    probe
  in
  List.iter
    (fun (label, bad) ->
      let probe = (Sys.opaque_identity run_probe) ~bad in
      Gc.full_major ();
      Gc.full_major ();
      Alcotest.(check bool) (label ^ ": the trace is collected") false (Weak.check probe 0))
    [ ("clean run", false); ("raising run", true) ]

let test_rwlock_mutual_exclusion () =
  let lock = Runtime.Rwlock.create ~cores:4 in
  let counter = ref 0 in
  let writers =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              Runtime.Rwlock.with_write lock (fun () -> incr counter)
            done))
  in
  Array.iter Domain.join writers;
  Alcotest.(check int) "no lost updates" 4000 !counter

let test_rwlock_readers_disjoint () =
  let lock = Runtime.Rwlock.create ~cores:2 in
  (* two readers on different cores can hold their locks simultaneously *)
  Runtime.Rwlock.read_lock lock ~core:0;
  Runtime.Rwlock.read_lock lock ~core:1;
  Runtime.Rwlock.read_unlock lock ~core:0;
  Runtime.Rwlock.read_unlock lock ~core:1;
  Runtime.Rwlock.with_write lock (fun () -> ());
  Alcotest.(check pass) "no deadlock" () ()

let test_supervisor_policy () =
  (* pure-policy checks on logical time: backoff growth, the per-core
     sliding restart window, and one-shot stuck reporting *)
  let config =
    {
      Runtime.Supervisor.max_restarts = 2;
      window = 10;
      backoff_base = 3;
      backoff_factor = 5;
      stall_checks = 2;
    }
  in
  let s = Runtime.Supervisor.create ~config ~cores:2 () in
  (match Runtime.Supervisor.on_death s ~core:0 with
  | `Restart b -> Alcotest.(check int) "first backoff" 3 b
  | `Give_up -> Alcotest.fail "first death should restart");
  (match Runtime.Supervisor.on_death s ~core:0 with
  | `Restart b -> Alcotest.(check int) "backoff grows by the factor" 15 b
  | `Give_up -> Alcotest.fail "second death should restart");
  Alcotest.(check bool) "window budget exhausted" true
    (Runtime.Supervisor.on_death s ~core:0 = `Give_up);
  (match Runtime.Supervisor.on_death s ~core:1 with
  | `Restart _ -> ()
  | `Give_up -> Alcotest.fail "budgets are per core");
  (* the window slides with logical time: old restarts age out *)
  for _ = 1 to config.Runtime.Supervisor.window + 1 do
    Runtime.Supervisor.tick s
  done;
  (match Runtime.Supervisor.on_death s ~core:0 with
  | `Restart b -> Alcotest.(check int) "budget refilled, backoff reset" 3 b
  | `Give_up -> Alcotest.fail "the window should refill");
  (* stuck: fires once per stall, only with work queued, reset by progress *)
  let hb h r = Runtime.Supervisor.note_heartbeat s ~core:1 ~heartbeat:h ~ring_len:r in
  Alcotest.(check bool) "progress is ok" true (hb 5 3 = `Ok);
  Alcotest.(check bool) "one stagnant check is ok" true (hb 5 3 = `Ok);
  Alcotest.(check bool) "threshold reached -> stuck" true (hb 5 3 = `Stuck);
  Alcotest.(check bool) "reported once per stall" true (hb 5 3 = `Ok);
  Alcotest.(check bool) "progress rearms" true (hb 6 3 = `Ok);
  Alcotest.(check bool) "empty ring never counts" true (hb 6 0 = `Ok && hb 6 0 = `Ok && hb 6 0 = `Ok);
  let evs = Runtime.Supervisor.events s in
  Alcotest.(check int) "events recorded" 6 (List.length evs);
  Alcotest.(check int) "restarts counted" 4 (Runtime.Supervisor.restarts s)

let test_rwlock_writer_not_starved () =
  let lock = Runtime.Rwlock.create ~cores:3 in
  let stop = Atomic.make false in
  let reads = Array.init 3 (fun _ -> Atomic.make 0) in
  let readers =
    Array.init 3 (fun core ->
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              Runtime.Rwlock.with_read lock ~core (fun () -> Atomic.incr reads.(core))
            done))
  in
  (* Regression: before the [writers_waiting] gate, readers re-acquiring
     their own per-core flag could win the CAS race against a writer (which
     needs every flag) indefinitely — this loop stalled unboundedly under
     continuous reader churn. *)
  let v = ref 0 in
  for _ = 1 to 200 do
    Runtime.Rwlock.with_write lock (fun () -> incr v);
    Domain.cpu_relax ()
  done;
  (* writers done: let every reader observe at least one read, then stop *)
  while Array.exists (fun r -> Atomic.get r = 0) reads do
    Domain.cpu_relax ()
  done;
  Atomic.set stop true;
  Array.iter Domain.join readers;
  Alcotest.(check int) "all writes landed" 200 !v;
  Array.iteri
    (fun i r ->
      Alcotest.(check bool) (Printf.sprintf "reader %d progressed" i) true (Atomic.get r > 0))
    reads

(* --- properties ------------------------------------------------------------ *)

let prop_shared_nothing_equivalence =
  QCheck.Test.make ~name:"fw shared-nothing equivalence on random traces" ~count:10
    QCheck.(pair (int_range 0 10000) (int_range 2 16))
    (fun (seed, cores) ->
      model_equivalence ~cores ~rung:Maestro.Plan.Shared_nothing "fw" (mixed_trace seed 800 100) ();
      true)

let suite =
  [
    Alcotest.test_case "fw shared-nothing equivalence" `Quick test_fw_equivalence;
    Alcotest.test_case "policer shared-nothing equivalence" `Quick test_policer_equivalence;
    Alcotest.test_case "psd shared-nothing equivalence" `Quick test_psd_equivalence;
    Alcotest.test_case "cl shared-nothing equivalence" `Quick test_cl_equivalence;
    Alcotest.test_case "nop equivalence" `Quick test_nop_equivalence;
    Alcotest.test_case "sbridge load-balance equivalence" `Quick test_sbridge_lb_mode;
    Alcotest.test_case "nat behavioral equivalence" `Quick test_nat_behavioral_equivalence;
    Alcotest.test_case "fw lock stats are read-heavy" `Quick test_lock_stats_read_heavy;
    Alcotest.test_case "policer lock stats are write-heavy" `Quick
      test_policer_lock_stats_write_heavy;
    Alcotest.test_case "dispatch spreads over cores" `Quick test_dispatch_spreads_over_cores;
    Alcotest.test_case "domains shared-nothing equivalence" `Quick
      test_domains_shared_nothing_equivalence;
    Alcotest.test_case "domains lock-based equivalence" `Quick
      test_domains_lock_based_equivalence;
    Alcotest.test_case "pool ring fifo + wrap" `Quick test_pool_ring;
    Alcotest.test_case "pool ring spsc stress" `Quick test_pool_ring_spsc_stress;
    Alcotest.test_case "pool == spawning (shared-nothing)" `Quick
      test_pool_matches_spawning_shared_nothing;
    Alcotest.test_case "pool == spawning (lock-based)" `Quick
      test_pool_matches_spawning_lock_based;
    Alcotest.test_case "pool batch sizes 1/32/7" `Quick test_pool_batch_sizes;
    Alcotest.test_case "pool lanes across runs" `Quick test_pool_lanes_across_runs;
    Alcotest.test_case "pool producer allocation flat" `Quick test_pool_producer_allocation;
    Alcotest.test_case "pool reuse, stats, measured shares" `Quick test_pool_reuse_and_stats;
    Alcotest.test_case "pool: full shards match the model" `Quick test_pool_capacity_split;
    Alcotest.test_case "pool rejects oversized plan" `Quick test_pool_rejects_oversized_plan;
    Alcotest.test_case "pool rejects a packet on an unknown port" `Quick
      test_pool_rejects_unknown_port;
    Alcotest.test_case "pool releases a raising run's trace" `Quick
      test_pool_raise_releases_trace;
    Alcotest.test_case "rwlock mutual exclusion" `Quick test_rwlock_mutual_exclusion;
    Alcotest.test_case "rwlock readers disjoint" `Quick test_rwlock_readers_disjoint;
    Alcotest.test_case "supervisor policy" `Quick test_supervisor_policy;
    Alcotest.test_case "rwlock writer not starved" `Quick test_rwlock_writer_not_starved;
    QCheck_alcotest.to_alcotest prop_shared_nothing_equivalence;
  ]
