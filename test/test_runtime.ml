(* Semantic-equivalence tests: the heart of the paper's claim.  Generated
   parallel NFs must behave like their sequential versions. *)

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

let verdicts_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | Dsl.Interp.Dropped, Dsl.Interp.Dropped -> true
         | Dsl.Interp.Fwd (pa, oa), Dsl.Interp.Fwd (pb, ob) ->
             pa = pb && Packet.Pkt.equal oa ob
         | _ -> false)
       a b

let mixed_trace seed npkts nflows =
  let st = rng seed in
  let flows = Traffic.Gen.flows st nflows in
  Traffic.Gen.uniform
    ~spec:{ Traffic.Gen.default_spec with pkts = npkts }
    st ~flows

(* --- shared-nothing equivalence ------------------------------------------ *)

let check_equivalence name trace =
  let nf = Nfs.Registry.find_exn name in
  let seq = Runtime.Parallel.run_sequential nf trace in
  let plan = plan_of name in
  let par = Runtime.Parallel.run plan trace in
  Alcotest.(check bool)
    (Printf.sprintf "%s: parallel == sequential" name)
    true
    (verdicts_equal seq par.Runtime.Parallel.verdicts)

let test_fw_equivalence () = check_equivalence "fw" (mixed_trace 11 4000 300)
let test_policer_equivalence () = check_equivalence "policer" (mixed_trace 12 4000 300)
let test_psd_equivalence () = check_equivalence "psd" (mixed_trace 13 4000 300)
let test_cl_equivalence () = check_equivalence "cl" (mixed_trace 14 4000 300)
let test_nop_equivalence () = check_equivalence "nop" (mixed_trace 15 2000 100)
let test_sbridge_lb_mode () = check_equivalence "sbridge" (mixed_trace 16 1000 50)

(* Lock-based and TM plans serialize on shared state: equivalence holds for
   every NF, including the ones that cannot shard. *)
let test_lock_based_equivalence () =
  List.iter
    (fun name ->
      let nf = Nfs.Registry.find_exn name in
      let trace = mixed_trace 17 2000 200 in
      let seq = Runtime.Parallel.run_sequential nf trace in
      let plan = plan_of ~strategy:`Force_locks name in
      let par = Runtime.Parallel.run plan trace in
      Alcotest.(check bool) (name ^ " lock-based == sequential") true
        (verdicts_equal seq par.Runtime.Parallel.verdicts))
    [ "fw"; "dbridge"; "lb"; "nat"; "cl" ]

let test_tm_equivalence () =
  let nf = Nfs.Registry.find_exn "fw" in
  let trace = mixed_trace 18 2000 200 in
  let seq = Runtime.Parallel.run_sequential nf trace in
  let plan = plan_of ~strategy:`Force_tm "fw" in
  let par = Runtime.Parallel.run plan trace in
  Alcotest.(check bool) "tm == sequential" true (verdicts_equal seq par.Runtime.Parallel.verdicts);
  Alcotest.(check int) "rw sets recorded" (Array.length trace)
    (List.length par.Runtime.Parallel.stats.Runtime.Parallel.tm_rw_sets)

(* NAT: ports may be allocated differently per core, so equivalence is
   behavioral: same forward/drop pattern and replies restored correctly. *)
let test_nat_behavioral_equivalence () =
  let nf = Nfs.Registry.find_exn "nat" in
  let trace = mixed_trace 19 3000 250 in
  let seq = Runtime.Parallel.run_sequential nf trace in
  let plan = plan_of "nat" in
  let par = (Runtime.Parallel.run plan trace).Runtime.Parallel.verdicts in
  Array.iteri
    (fun i (a, b) ->
      match (a, b) with
      | Dsl.Interp.Dropped, Dsl.Interp.Dropped -> ()
      | Dsl.Interp.Fwd (pa, oa), Dsl.Interp.Fwd (pb, ob) ->
          Alcotest.(check int) "same direction" pa pb;
          (* replies towards the LAN must restore identical client headers *)
          if pa = 0 then begin
            Alcotest.(check int) "client ip" oa.Packet.Pkt.ip_dst ob.Packet.Pkt.ip_dst;
            Alcotest.(check int) "client port" oa.Packet.Pkt.dst_port ob.Packet.Pkt.dst_port
          end
      | _ -> Alcotest.fail (Printf.sprintf "verdict %d diverged" i))
    (Array.map2 (fun a b -> (a, b)) seq par)

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

let test_dynamic_rebalance_reduces_imbalance () =
  let st = rng 31 in
  let z = Traffic.Zipf.paper () in
  let fs = Traffic.Gen.flows st 1000 in
  let spec = { Traffic.Gen.default_spec with Traffic.Gen.pkts = 12_000; reply_fraction = 0.0 } in
  let trace = Traffic.Zipf.trace ~spec st z ~flows:fs in
  let plan = plan_of ~cores:8 "fw" in
  let r = Runtime.Rebalance.study_exn plan trace ~epoch_pkts:3000 in
  Alcotest.(check int) "epochs" 4 r.Runtime.Rebalance.epochs;
  (* the first epoch has no observations yet: identical *)
  Alcotest.(check (float 0.0001)) "epoch 0 identical"
    r.Runtime.Rebalance.static_imbalance.(0)
    r.Runtime.Rebalance.dynamic_imbalance.(0);
  (* afterwards the rebalanced tables are at least as even *)
  for e = 1 to r.Runtime.Rebalance.epochs - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "epoch %d no worse" e)
      true
      (r.Runtime.Rebalance.dynamic_imbalance.(e)
      <= r.Runtime.Rebalance.static_imbalance.(e) +. 0.05)
  done;
  Alcotest.(check bool) "some epoch strictly better" true
    (Array.exists2
       (fun d s -> d < s -. 0.1)
       r.Runtime.Rebalance.dynamic_imbalance r.Runtime.Rebalance.static_imbalance);
  Alcotest.(check bool) "migrations counted" true (r.Runtime.Rebalance.migrated_buckets > 0)

(* --- real domains ---------------------------------------------------------- *)

let test_domains_shared_nothing_equivalence () =
  let nf = Nfs.Registry.find_exn "fw" in
  let trace = mixed_trace 24 1500 150 in
  let seq = Runtime.Parallel.run_sequential nf trace in
  let plan = plan_of ~cores:4 "fw" in
  let par = Runtime.Domains.run_shared_nothing plan trace in
  Alcotest.(check bool) "domains == sequential" true (verdicts_equal seq par)

let test_domains_lock_based_equivalence () =
  (* dbridge writes on most packets: the conservative discipline serializes
     them, so verdicts match the deterministic run *)
  let nf = Nfs.Registry.find_exn "sbridge" in
  let st = rng 25 in
  let pkts =
    Array.init 500 (fun i ->
        Packet.Pkt.make ~port:(i mod 2)
          ~eth_src:(0x02_00_00_00_10_00 + Random.State.int st 64)
          ~eth_dst:(0x02_00_00_00_10_00 + Random.State.int st 64)
          ~ip_src:1 ~ip_dst:2 ~src_port:3 ~dst_port:4 ())
  in
  let seq = Runtime.Parallel.run_sequential nf pkts in
  let plan = plan_of ~cores:4 ~strategy:`Force_locks "sbridge" in
  let par = Runtime.Domains.run_lock_based plan pkts in
  Alcotest.(check bool) "domain locks == sequential" true (verdicts_equal seq par)

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

(* The acceptance criterion: the pool produces identical verdicts to the
   spawn-per-run path (and to sequential execution) for shared-nothing,
   lock-based, and TM plans. *)
let test_pool_matches_spawning_shared_nothing () =
  let nf = Nfs.Registry.find_exn "fw" in
  let trace = mixed_trace 41 1500 150 in
  let plan = plan_of ~cores:4 "fw" in
  let seq = Runtime.Parallel.run_sequential nf trace in
  let spawning = Runtime.Domains.run_shared_nothing_spawning plan trace in
  let pool = Runtime.Pool.create ~cores:4 () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
  let pooled = Runtime.Pool.run pool plan trace in
  Alcotest.(check bool) "pool == spawning" true (verdicts_equal spawning pooled);
  Alcotest.(check bool) "pool == sequential" true (verdicts_equal seq pooled)

let test_pool_matches_spawning_lock_based () =
  let nf = Nfs.Registry.find_exn "sbridge" in
  let st = rng 42 in
  let pkts =
    Array.init 600 (fun i ->
        Packet.Pkt.make ~port:(i mod 2)
          ~eth_src:(0x02_00_00_00_10_00 + Random.State.int st 64)
          ~eth_dst:(0x02_00_00_00_10_00 + Random.State.int st 64)
          ~ip_src:1 ~ip_dst:2 ~src_port:3 ~dst_port:4 ())
  in
  let plan = plan_of ~cores:4 ~strategy:`Force_locks "sbridge" in
  let seq = Runtime.Parallel.run_sequential nf pkts in
  let spawning = Runtime.Domains.run_lock_based_spawning plan pkts in
  let pool = Runtime.Pool.create ~cores:4 () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
  let pooled = Runtime.Pool.run pool plan pkts in
  Alcotest.(check bool) "pool == spawning" true (verdicts_equal spawning pooled);
  Alcotest.(check bool) "pool == sequential" true (verdicts_equal seq pooled)

let test_pool_tm_equivalence () =
  (* Real-domain lock/TM disciplines serialize writes in acquisition order,
     which can differ from arrival order across cores (as on hardware), so
     the comparison trace must be order-insensitive: LAN->WAN fw traffic is
     always forwarded, whatever the flow table holds. *)
  let nf = Nfs.Registry.find_exn "fw" in
  let st = rng 43 in
  let flows = Traffic.Gen.flows st 150 in
  let trace =
    Traffic.Gen.uniform
      ~spec:{ Traffic.Gen.default_spec with pkts = 1200; reply_fraction = 0.0 }
      st ~flows
  in
  let plan = plan_of ~cores:4 ~strategy:`Force_tm "fw" in
  let seq = Runtime.Parallel.run_sequential nf trace in
  let spawning = Runtime.Domains.run_lock_based_spawning plan trace in
  let pooled = Runtime.Domains.run_tm plan trace in
  Alcotest.(check bool) "tm on pool == sequential" true (verdicts_equal seq pooled);
  Alcotest.(check bool) "tm on pool == spawn-per-run" true (verdicts_equal spawning pooled)

let test_pool_batch_sizes () =
  (* batch size must not change behavior: 1 (degenerate), 32 (default),
     7 (odd, exercises the ragged final batch).  Under a one-slot ring the
     producer stalls mid-stream and the index lanes wrap many times per
     run.  Streaming cuts each core's packets into the same batches as
     chunking its whole queue would: ceil(n / batch) per core. *)
  let nf = Nfs.Registry.find_exn "policer" in
  let trace = mixed_trace 44 900 120 in
  let plan = plan_of ~cores:3 "policer" in
  let seq = Runtime.Parallel.run_sequential nf trace in
  List.iter
    (fun (bs, ring_capacity) ->
      let pool = Runtime.Pool.create ~batch_size:bs ~ring_capacity ~cores:3 () in
      Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
      let v = Runtime.Pool.run pool plan trace in
      let name = Printf.sprintf "batch=%d ring=%d" bs ring_capacity in
      Alcotest.(check bool) (name ^ " == sequential") true (verdicts_equal seq v);
      let s = Runtime.Pool.stats pool in
      let batches n = (n + bs - 1) / bs in
      Alcotest.(check int) (name ^ ": per-core batches")
        (Array.fold_left (fun acc n -> acc + batches n) 0 s.Runtime.Pool.last_per_core_pkts)
        s.Runtime.Pool.batches)
    [ (1, 1024); (32, 1024); (7, 1024); (7, 1); (32, 1) ]

(* Lanes are sized per run and reused across runs: a long run on a
   one-slot ring (lanes wrap), a short one, a long one again, on both
   lane executors (bare shared-nothing and the lock discipline). *)
let test_pool_lanes_across_runs () =
  List.iter
    (fun (name, strategy) ->
      let nf = Nfs.Registry.find_exn name in
      let plan = plan_of ~cores:3 ?strategy name in
      let pool = Runtime.Pool.create ~batch_size:4 ~ring_capacity:1 ~cores:3 () in
      Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
      List.iter
        (fun (seed, npkts) ->
          let trace = mixed_trace seed npkts 80 in
          Alcotest.(check bool)
            (Printf.sprintf "%s %d pkts == sequential" name npkts)
            true
            (verdicts_equal (Runtime.Parallel.run_sequential nf trace)
               (Runtime.Pool.run pool plan trace)))
        [ (47, 2000); (48, 37); (49, 1500) ])
    [ ("fw", None); ("sbridge", Some `Force_locks) ]

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
    Alcotest.(check bool) "reused pool == sequential" true (verdicts_equal seq v)
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
      Alcotest.(check bool) (label ^ ": a clean run after it == sequential") true
        (verdicts_equal seq (run trace)))
    [
      ("static", Runtime.Pool.run pool plan);
      ( "rebalance",
        Runtime.Pool.run
          ~rebalance:(Runtime.Balancer.On { Runtime.Balancer.epoch_pkts = 64; threshold = 0.0 })
          pool plan );
      ( "adaptive",
        Runtime.Pool.run
          ~adaptive:
            (Runtime.Adaptive.On
               { Runtime.Adaptive.epoch_pkts = 64; up = 2.0; down = 1.3; cooldown = 1 })
          pool plan );
    ]

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
      let nf = Nfs.Registry.find_exn "fw" in
      let trace = mixed_trace seed 800 100 in
      let seq = Runtime.Parallel.run_sequential nf trace in
      let plan = plan_of ~cores "fw" in
      let par = Runtime.Parallel.run plan trace in
      verdicts_equal seq par.Runtime.Parallel.verdicts)

let suite =
  [
    Alcotest.test_case "fw shared-nothing equivalence" `Quick test_fw_equivalence;
    Alcotest.test_case "policer shared-nothing equivalence" `Quick test_policer_equivalence;
    Alcotest.test_case "psd shared-nothing equivalence" `Quick test_psd_equivalence;
    Alcotest.test_case "cl shared-nothing equivalence" `Quick test_cl_equivalence;
    Alcotest.test_case "nop equivalence" `Quick test_nop_equivalence;
    Alcotest.test_case "sbridge load-balance equivalence" `Quick test_sbridge_lb_mode;
    Alcotest.test_case "lock-based equivalence (all NFs)" `Quick test_lock_based_equivalence;
    Alcotest.test_case "tm equivalence" `Quick test_tm_equivalence;
    Alcotest.test_case "nat behavioral equivalence" `Quick test_nat_behavioral_equivalence;
    Alcotest.test_case "fw lock stats are read-heavy" `Quick test_lock_stats_read_heavy;
    Alcotest.test_case "policer lock stats are write-heavy" `Quick
      test_policer_lock_stats_write_heavy;
    Alcotest.test_case "dispatch spreads over cores" `Quick test_dispatch_spreads_over_cores;
    Alcotest.test_case "dynamic rebalance reduces imbalance" `Quick
      test_dynamic_rebalance_reduces_imbalance;
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
    Alcotest.test_case "pool tm equivalence" `Quick test_pool_tm_equivalence;
    Alcotest.test_case "pool batch sizes 1/32/7" `Quick test_pool_batch_sizes;
    Alcotest.test_case "pool lanes across runs" `Quick test_pool_lanes_across_runs;
    Alcotest.test_case "pool producer allocation flat" `Quick test_pool_producer_allocation;
    Alcotest.test_case "pool reuse, stats, measured shares" `Quick test_pool_reuse_and_stats;
    Alcotest.test_case "pool rejects oversized plan" `Quick test_pool_rejects_oversized_plan;
    Alcotest.test_case "pool rejects a packet on an unknown port" `Quick
      test_pool_rejects_unknown_port;
    Alcotest.test_case "rwlock mutual exclusion" `Quick test_rwlock_mutual_exclusion;
    Alcotest.test_case "rwlock readers disjoint" `Quick test_rwlock_readers_disjoint;
    Alcotest.test_case "supervisor policy" `Quick test_supervisor_policy;
    Alcotest.test_case "rwlock writer not starved" `Quick test_rwlock_writer_not_starved;
    QCheck_alcotest.to_alcotest prop_shared_nothing_equivalence;
  ]
