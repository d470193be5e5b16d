(* Plan binding and per-batch locking.  The first run of a plan builds its
   state and later runs of the same plan reset that state in place, so
   every run must still look like a run on a fresh pool; the lock rung
   takes its lock once per batch and never leaves it held. *)

let rng seed = Random.State.make [| seed |]

let plan_of ?(cores = 2) ?(strategy = `Auto) (nf : Dsl.Ast.t) =
  let request = { Maestro.Pipeline.default_request with cores; strategy } in
  (Maestro.Pipeline.parallelize_exn ~request nf).Maestro.Pipeline.plan

let registry_plan ?cores ?strategy name = plan_of ?cores ?strategy (Nfs.Registry.find_exn name)

let verdicts_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | Dsl.Interp.Dropped, Dsl.Interp.Dropped -> true
         | Dsl.Interp.Fwd (pa, oa), Dsl.Interp.Fwd (pb, ob) -> pa = pb && Packet.Pkt.equal oa ob
         | _ -> false)
       a b

let mixed_trace ?(reply_fraction = Traffic.Gen.default_spec.Traffic.Gen.reply_fraction) seed
    npkts nflows =
  let st = rng seed in
  let flows = Traffic.Gen.flows st nflows in
  Traffic.Gen.uniform ~spec:{ Traffic.Gen.default_spec with pkts = npkts; reply_fraction } st ~flows

(* Colliding 5-tuples with jumping timestamps: flows open, fill tables
   and expire. *)
let hostile_trace ~seed n =
  let rng = rng seed in
  Array.init n (fun i ->
      Packet.Pkt.make
        ~port:(Random.State.int rng 2)
        ~ip_src:(Random.State.int rng 8)
        ~ip_dst:(Random.State.int rng 8)
        ~src_port:(Random.State.int rng 4)
        ~dst_port:(Random.State.int rng 4)
        ~ts_ns:(i * Random.State.int rng 5_000_000)
        ())

(* --- Instance.reset ---------------------------------------------------------- *)

(* After a trace, [reset] leaves an instance equal to a fresh one, table
   geometry included, and a runner bound before the reset drives the reset
   state: on a second trace it answers exactly as a runner over a fresh
   instance. *)
let test_reset_equals_create () =
  (* a packet may index past a quartered static table: a [Runtime_error]
     is an outcome like a verdict *)
  let outcomes r trace =
    Array.map
      (fun p ->
        match Dsl.Compile.run r p with v -> [| v |] | exception Dsl.Interp.Runtime_error _ -> [||])
      trace
  in
  let check label (nf : Dsl.Ast.t) trace =
    let staged = Dsl.Compile.stage_runner ~compiled:true nf (Dsl.Check.check_exn nf) in
    List.iter
      (fun divide ->
        let inst = Dsl.Instance.create ~divide nf in
        let r = Dsl.Compile.bind_runner staged inst in
        ignore (outcomes r trace);
        Dsl.Instance.reset inst nf;
        if inst <> Dsl.Instance.create ~divide nf then
          Alcotest.failf "%s, divide %d: the reset instance differs from a fresh one" label divide;
        let fresh = Dsl.Compile.bind_runner staged (Dsl.Instance.create ~divide nf) in
        let again = outcomes r trace in
        if not (Array.for_all2 verdicts_equal (outcomes fresh trace) again) then
          Alcotest.failf "%s, divide %d: the runner bound before the reset diverges" label divide)
      [ 1; 4 ]
  in
  let hostile = hostile_trace ~seed:71 1_500 in
  let workload name = (Sim.Workload.read_heavy ~pkts:1_500 ~flows:300 name).Sim.Workload.trace in
  List.iter
    (fun name ->
      check name (Nfs.Registry.find_exn name) (Array.append (workload name) hostile))
    Nfs.Registry.extended_names;
  let fw = Array.append (workload "fw") hostile in
  List.iter (fun (nf : Dsl.Ast.t) -> check nf.Dsl.Ast.name nf fw) (Nfs.Scenarios.all ());
  List.iter (fun ch -> check ch.Dsl.Chain.name (Dsl.Chain.nf ch) fw) (Nfs.Scenarios.chains ())

(* --- runs on a bound pool ----------------------------------------------------- *)

(* What one run adds to its pool's stats: lifetime counters as deltas,
   plus the run's own dispatch record. *)
let run_stats (s0 : Runtime.Pool.stats) (s1 : Runtime.Pool.stats) =
  let open Runtime.Pool in
  ( [
      s1.runs - s0.runs;
      s1.batches - s0.batches;
      s1.pkts - s0.pkts;
      s1.ring_full_stalls - s0.ring_full_stalls;
      s1.dropped_pkts - s0.dropped_pkts;
      s1.restarts - s0.restarts;
      s1.inline_batches - s0.inline_batches;
      s1.rebalances - s0.rebalances;
      s1.migrated_buckets - s0.migrated_buckets;
      s1.migrated_flows - s0.migrated_flows;
      s1.migration_drops - s0.migration_drops;
      s1.scr_replays - s0.scr_replays;
      s1.scr_rebuilds - s0.scr_rebuilds;
      s1.scr_digest_bytes - s0.scr_digest_bytes;
    ],
    (s1.last_per_core_pkts, s1.last_assignment, s1.last_rebalance_points) )

let pool_run ?rebalance pool plan trace =
  let s0 = Runtime.Pool.stats pool in
  let v = Runtime.Pool.run ?rebalance pool plan trace in
  (v, run_stats s0 (Runtime.Pool.stats pool))

let with_pool ~cores f =
  let pool = Runtime.Pool.create ~cores () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) (fun () -> f pool)

(* A run of [plan] on [pool] returns the verdicts and adds the stats that
   the same run on a fresh pool does. *)
let same_as_fresh label ?rebalance pool plan trace =
  let v, st = pool_run ?rebalance pool plan trace in
  let fv, fst =
    with_pool ~cores:(Runtime.Pool.cores pool) (fun fresh -> pool_run ?rebalance fresh plan trace)
  in
  Alcotest.(check bool) (label ^ ": verdicts as on a fresh pool") true (verdicts_equal fv v);
  Alcotest.(check bool) (label ^ ": stats as on a fresh pool") true (st = fst)

let test_three_runs_one_plan () =
  List.iter
    (fun (name, strategy, cores, expected) ->
      let plan = registry_plan ~cores ~strategy name in
      Alcotest.(check string)
        (name ^ " rung")
        (Maestro.Plan.strategy_name expected)
        (Maestro.Plan.strategy_name plan.Maestro.Plan.strategy);
      with_pool ~cores (fun pool ->
          List.iteri
            (fun k (seed, npkts) ->
              same_as_fresh
                (Printf.sprintf "%s run %d" name (k + 1))
                pool plan (mixed_trace seed npkts 150))
            [ (61, 1_500); (62, 700); (63, 2_000) ]))
    [
      ("nat", `Auto, 2, Maestro.Plan.Shared_nothing);
      ("nop", `Auto, 2, Maestro.Plan.Load_balance);
      (* one core: the lock rung orders writes by arrival only there *)
      ("fw", `Force_locks, 1, Maestro.Plan.Lock_based);
      ("fw", `Force_scr, 2, Maestro.Plan.Scr);
    ]

let zipf_trace seed ~pkts =
  let st = rng seed in
  let z = Traffic.Zipf.make ~exponent:1.2 ~nflows:400 () in
  let flows = Traffic.Gen.flows st 400 in
  Traffic.Zipf.trace
    ~spec:{ Traffic.Gen.default_spec with pkts; reply_fraction = 0.3 }
    st z ~flows

(* A rebalanced run leaves migrated flow state in the bound instances; the
   static run after it must not see any of it. *)
let test_rebalance_then_static () =
  let plan = registry_plan ~cores:4 "fw" in
  let rebalance = Runtime.Balancer.On { Runtime.Balancer.epoch_pkts = 1024; threshold = 0.0 } in
  with_pool ~cores:4 (fun pool ->
      let migrated () = (Runtime.Pool.stats pool).Runtime.Pool.migrated_flows in
      same_as_fresh "static" pool plan (zipf_trace 81 ~pkts:3_000);
      let before = migrated () in
      same_as_fresh "rebalanced" ~rebalance pool plan (zipf_trace 82 ~pkts:6_144);
      Alcotest.(check bool) "the rebalanced run migrated flows" true (migrated () > before);
      same_as_fresh "static after rebalance" pool plan (zipf_trace 83 ~pkts:3_000))

(* A crash mid-run restarts a worker (and, under SCR, rebuilds its replica
   by a reset and a replay of the digest log); the clean run after it
   starts from fresh state. *)
let test_crash_then_clean () =
  List.iter
    (fun strategy ->
      let plan = registry_plan ~cores:4 ~strategy "fw" in
      let label = Maestro.Plan.strategy_name plan.Maestro.Plan.strategy in
      with_pool ~cores:4 (fun pool ->
          same_as_fresh (label ^ " before") pool plan (mixed_trace 91 1_500 150);
          let trace = mixed_trace 92 1_500 150 in
          (match Faults.parse "crash@1:2" with
          | Ok p -> Faults.install p
          | Error e -> Alcotest.fail e);
          let v = Fun.protect ~finally:Faults.clear (fun () -> Runtime.Pool.run pool plan trace) in
          Alcotest.(check int) (label ^ ": one restart") 1
            (Runtime.Pool.stats pool).Runtime.Pool.restarts;
          let clean = with_pool ~cores:4 (fun fresh -> Runtime.Pool.run fresh plan trace) in
          Alcotest.(check bool) (label ^ ": crashed run as a clean one") true (verdicts_equal clean v);
          same_as_fresh (label ^ " after the crash") pool plan (mixed_trace 93 1_500 150)))
    [ `Auto; `Force_scr ]

(* Each run on a different plan replaces the pool's binding. *)
let test_alternating_plans () =
  let nat = registry_plan ~cores:2 "nat" in
  let fw = registry_plan ~cores:1 ~strategy:`Force_locks "fw" in
  with_pool ~cores:2 (fun pool ->
      List.iteri
        (fun k plan ->
          same_as_fresh
            (Printf.sprintf "alternating run %d" (k + 1))
            pool plan
            (mixed_trace (100 + k) 1_200 150))
        [ nat; fw; nat; fw; fw; nat ])

(* --- per-batch locking -------------------------------------------------------- *)

let c_acquisitions = Telemetry.Counter.make "pool.lock_acquisitions"

(* The lock rung takes its lock once per executed batch, inline batches
   included: a crashed batch never reached the executor, and its inline
   replay takes the lock in its place. *)
let test_lock_once_per_batch () =
  let plan = registry_plan ~cores:2 ~strategy:`Force_locks "fw" in
  (* LAN->WAN fw traffic is forwarded whatever the flow table holds, so
     the verdicts do not depend on how the cores interleave *)
  let trace = mixed_trace ~reply_fraction:0.0 111 2_000 150 in
  let seq = Runtime.Parallel.run_sequential plan.Maestro.Plan.nf trace in
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable @@ fun () ->
  with_pool ~cores:2 (fun pool ->
      let run label =
        let s0 = Runtime.Pool.stats pool and a0 = Telemetry.Counter.value c_acquisitions in
        let v = Runtime.Pool.run pool plan trace in
        let s1 = Runtime.Pool.stats pool in
        Alcotest.(check bool) (label ^ ": verdicts") true (verdicts_equal seq v);
        let batches = s1.Runtime.Pool.batches - s0.Runtime.Pool.batches in
        Alcotest.(check int) (label ^ ": one acquisition per batch") batches
          (Telemetry.Counter.value c_acquisitions - a0);
        Alcotest.(check bool) (label ^ ": fewer batches than packets") true
          (batches < Array.length trace);
        s1.Runtime.Pool.inline_batches - s0.Runtime.Pool.inline_batches
      in
      Alcotest.(check int) "clean run: no inline batch" 0 (run "clean");
      (match Faults.parse "crash@1:2" with Ok p -> Faults.install p | Error e -> Alcotest.fail e);
      let inline = Fun.protect ~finally:Faults.clear (fun () -> run "crash") in
      Alcotest.(check int) "crash run: the crashed batch ran inline" 1 inline)

(* Counts packets per destination port in a 4-slot vector: a packet with
   a destination port of 4 or more indexes past the vector, and the NF
   raises [Runtime_error] on it. *)
let raising_nf : Dsl.Ast.t =
  let open Dsl.Ast in
  let slot = Cast (32, Field Packet.Field.Dst_port) in
  {
    name = "count_dst";
    devices = 2;
    state = [ Decl_vector { name = "hits"; capacity = 4; layout = [ ("n", 32) ] } ];
    process =
      Vec_get
        {
          obj = "hits";
          index = slot;
          record = "r";
          k =
            Vec_set
              {
                obj = "hits";
                index = slot;
                fields = [ ("n", Record_field ("r", "n") +. const 1) ];
                k = Nfs.Topo.fwd Nfs.Topo.wan;
              };
        };
  }

(* A packet that raises mid-batch on the lock rung: the executor must
   release the write lock on the way out, or the crashed batch's inline
   replay, and every later run, would wait for it forever. *)
let test_raise_mid_batch_frees_lock () =
  let plan = plan_of ~cores:1 ~strategy:`Force_locks raising_nf in
  let trace bad =
    Array.init 256 (fun i ->
        Packet.Pkt.make ~ip_src:i ~ip_dst:1 ~src_port:7
          ~dst_port:(if i = bad then 9 else i mod 4)
          ())
  in
  (* one core, 8-packet batches: packet 100 is the fifth of its batch *)
  let pool = Runtime.Pool.create ~batch_size:8 ~cores:1 () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
  (match Runtime.Pool.run pool plan (trace 100) with
  | _ -> Alcotest.fail "the raising packet did not raise"
  | exception Dsl.Interp.Runtime_error _ -> ());
  let clean = trace (-1) in
  Alcotest.(check bool) "clean run after the raise == sequential" true
    (verdicts_equal
       (Runtime.Parallel.run_sequential raising_nf clean)
       (Runtime.Pool.run pool plan clean))

let suite =
  [
    Alcotest.test_case "reset == create (registry, scenarios, chains)" `Quick
      test_reset_equals_create;
    Alcotest.test_case "one plan, three runs == fresh pools" `Quick test_three_runs_one_plan;
    Alcotest.test_case "rebalanced run, then static" `Quick test_rebalance_then_static;
    Alcotest.test_case "crash run, then clean" `Quick test_crash_then_clean;
    Alcotest.test_case "two plans alternating" `Quick test_alternating_plans;
    Alcotest.test_case "lock rung: one acquisition per batch" `Quick test_lock_once_per_batch;
    Alcotest.test_case "lock rung: a raise mid-batch frees the lock" `Quick
      test_raise_mid_batch_frees_lock;
  ]
