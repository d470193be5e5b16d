(* Plan binding and per-batch locking.  The first run of a plan builds its
   state and later runs of the same plan reset that state in place, so
   every run must still look like a run on a fresh pool: the differential
   harness compares every reused pool's run with a fresh pool's, here on
   fixed sequences of plans, modes and crashes.  A reset instance equals a
   fresh one, every stats field of every mode, rung and recovery path is
   pinned, and the lock rung takes its lock once per batch and never
   leaves it held. *)

let rng seed = Random.State.make [| seed |]

let plan_of ?(cores = 2) ?(strategy = `Auto) (nf : Dsl.Ast.t) =
  let request = { Maestro.Pipeline.default_request with cores; strategy } in
  (Maestro.Pipeline.parallelize_exn ~request nf).Maestro.Pipeline.plan

let registry_plan ?cores ?strategy name = plan_of ?cores ?strategy (Nfs.Registry.find_exn name)

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
    let staged = Dsl.Compile.stage_runner nf (Dsl.Check.check_exn nf) in
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
        if outcomes fresh trace <> again then
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

(* One run on [pool], checked by the differential harness: against the
   sequential NF and, on a pool that ran before, against the same run on
   a fresh pool; the pool's stats after it. *)
let check_run ?policy ?fault ?order_free pool name plan trace =
  Test_differential.check_run ?policy ?fault ?order_free
    (Test_differential.shape ~threshold:0.0 (Runtime.Pool.cores pool))
    pool name plan trace

let with_pool ~cores f = Test_differential.with_pool (Test_differential.shape cores) f

let test_three_runs_one_plan () =
  List.iter
    (fun (name, strategy, cores, expected) ->
      let plan = registry_plan ~cores ~strategy name in
      Alcotest.(check string)
        (name ^ " rung")
        (Maestro.Plan.strategy_name expected)
        (Maestro.Plan.strategy_name plan.Maestro.Plan.strategy);
      with_pool ~cores (fun pool ->
          List.iter
            (fun (seed, npkts) ->
              ignore (check_run pool name plan (mixed_trace seed npkts 150) : Runtime.Pool.stats))
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

(* calm 4,096 | skew 4,096 | calm 6,144 over one flow population: an
   adaptive run steps down a rung under the skew and climbs back *)
let calm_skew_calm ~seed =
  let flows = Traffic.Gen.flows (rng seed) 1024 in
  Array.concat
    [
      Test_adaptive.calm_trace (rng (seed + 4)) ~flows ~pkts:4096;
      Test_adaptive.skew_trace (rng (seed + 5)) ~flows ~pkts:4096;
      Test_adaptive.calm_trace (rng (seed + 6)) ~flows ~pkts:6144;
    ]

(* A rebalanced run leaves migrated flow state in the bound instances; the
   static run after it must not see any of it. *)
let test_rebalance_then_static () =
  let plan = registry_plan ~cores:4 "fw" in
  with_pool ~cores:4 (fun pool ->
      let run ?policy seed pkts = check_run ?policy pool "fw" plan (zipf_trace seed ~pkts) in
      let before = (run 81 3_000).Runtime.Pool.migrated_flows in
      let after = (run ~policy:Test_differential.Rebalance 82 6_144).Runtime.Pool.migrated_flows in
      Alcotest.(check bool) "the rebalanced run migrated flows" true (after > before);
      ignore (run 83 3_000 : Runtime.Pool.stats))

(* A crash mid-run restarts a worker (and, under SCR, rebuilds its replica
   by a reset and a replay of the digest log); the clean run after it
   starts from fresh state. *)
let test_crash_then_clean () =
  List.iter
    (fun strategy ->
      let plan = registry_plan ~cores:4 ~strategy "fw" in
      let label = Maestro.Plan.strategy_name plan.Maestro.Plan.strategy in
      with_pool ~cores:4 (fun pool ->
          let run ?fault seed = check_run ?fault pool "fw" plan (mixed_trace seed 1_500 150) in
          ignore (run 91 : Runtime.Pool.stats);
          (match Faults.parse "crash@1:2" with
          | Ok p -> Faults.install p
          | Error e -> Alcotest.fail e);
          let s =
            Fun.protect ~finally:Faults.clear (fun () -> run ~fault:Test_differential.Crash 92)
          in
          Alcotest.(check int) (label ^ ": one restart") 1 s.Runtime.Pool.restarts;
          ignore (run 93 : Runtime.Pool.stats)))
    [ `Auto; `Force_scr ]

(* An adaptive run binds its plan like a static run: adaptive, static,
   adaptive and adaptive runs of one plan on one pool each return what the
   same run returns on a fresh pool, whatever capacity and rung the run
   before it left the binding at.  The traces run LAN to WAN only, so the
   lock rung agrees with the sequential NF too. *)
let test_adaptive_on_bound_pool () =
  List.iter
    (fun strategy ->
      let plan = registry_plan ~cores:4 ~strategy "fw" in
      with_pool ~cores:4 (fun pool ->
          List.iteri
            (fun k policy ->
              ignore
                (check_run ~policy ~order_free:true pool "fw" plan
                   (calm_skew_calm ~seed:(20 + (10 * k)))
                  : Runtime.Pool.stats))
            Test_differential.[ Adaptive; Static; Adaptive; Adaptive ]))
    [ `Auto; `Force_locks; `Force_scr ]

(* Each run on a different plan replaces the pool's binding. *)
let test_alternating_plans () =
  let nat = ("nat", registry_plan ~cores:2 "nat") in
  let fw = ("fw", registry_plan ~cores:1 ~strategy:`Force_locks "fw") in
  with_pool ~cores:2 (fun pool ->
      List.iteri
        (fun k (name, plan) ->
          ignore (check_run pool name plan (mixed_trace (100 + k) 1_200 150) : Runtime.Pool.stats))
        [ nat; fw; nat; fw; fw; nat ])

(* --- the pool's observable behaviour, pinned ------------------------------------ *)

(* Every [Pool.stats] field after one run on a fresh pool, as text.
   [last_assignment] reads as a position-weighted sum, since
   [Hashtbl.hash] reads only a prefix of an array.  [~batches:false]
   leaves out the batch count: after a write-off it depends on when the
   producer notices the dead core. *)
let pinned_stats ?(batches = true) (s : Runtime.Pool.stats) =
  let open Runtime.Pool in
  let ints a = String.concat ";" (List.map string_of_int a) in
  let weighted = ref 0 in
  Array.iteri (fun i c -> weighted := !weighted + ((i + 1) * c)) s.last_assignment;
  let rung = Maestro.Ladder.rung_name in
  String.concat " "
    [
      Printf.sprintf "runs %d" s.runs;
      (if batches then Printf.sprintf "batches %d" s.batches else "batches -");
      Printf.sprintf "pkts %d stalls %d per-core [%s]" s.pkts s.ring_full_stalls
        (ints (Array.to_list s.last_per_core_pkts));
      Printf.sprintf "dropped %d/%d [%s]" s.dropped_batches s.dropped_pkts
        (ints (Array.to_list s.per_core_drops));
      Printf.sprintf "restarts %d failed [%s] inline %d" s.restarts (ints s.failed_cores)
        s.inline_batches;
      Printf.sprintf "rebalances %d/%d migrated %d/%d/%d" s.rebalances s.forced_rebalances
        s.migrated_buckets s.migrated_flows s.migration_drops;
      Printf.sprintf "share [%s]"
        (String.concat ";" (List.map (Printf.sprintf "%.17g") (Array.to_list s.last_core_share)));
      Printf.sprintf "assignment %d/%d points [%s]" (Array.length s.last_assignment) !weighted
        (ints s.last_rebalance_points);
      Printf.sprintf "scr %d/%d/%d" s.scr_replays s.scr_rebuilds s.scr_digest_bytes;
      Printf.sprintf "switches %d/%d [%s] residency [%s]" s.switches s.flap_suppressed
        (String.concat ";"
           (List.map (fun (e, r) -> Printf.sprintf "%d:%s" e (rung r)) s.switch_epochs))
        (String.concat ";"
           (List.map (fun (r, n) -> Printf.sprintf "%s:%d" (rung r) n) s.rung_residency));
    ]

let pinned_rebalance =
  Runtime.Pool.Rebalance { Runtime.Balancer.epoch_pkts = 1024; threshold = 0.0 }

(* The [pool.*] counters that count what a [Pool.stats] field counts. *)
let paired_counters =
  let open Runtime.Pool in
  [
    ("pool.batches", fun s -> s.batches);
    ("pool.pkts", fun s -> s.pkts);
    ("pool.ring_full_stalls", fun s -> s.ring_full_stalls);
    ("pool.dropped_batches", fun s -> s.dropped_batches);
    ("pool.dropped_pkts", fun s -> s.dropped_pkts);
    ("pool.inline_batches", fun s -> s.inline_batches);
    ("pool.rebalances", fun s -> s.rebalances);
    ("pool.rebalances_forced", fun s -> s.forced_rebalances);
    ("pool.migrated_buckets", fun s -> s.migrated_buckets);
    ("pool.migrated_flows", fun s -> s.migrated_flows);
    ("pool.migration_drops", fun s -> s.migration_drops);
    ("pool.scr_replays", fun s -> s.scr_replays);
    ("pool.scr_rebuilds", fun s -> s.scr_rebuilds);
    ("pool.scr_digest_bytes", fun s -> s.scr_digest_bytes);
    ("pool.producer_naps", fun s -> s.producer_naps);
    ("pool.producer_nap_us", fun s -> s.producer_nap_us);
    ("pool.adaptive.switches", fun s -> s.switches);
    ("pool.adaptive.flap_suppressed", fun s -> s.flap_suppressed);
  ]

(* Run [f] with telemetry reset and on, then check that every paired
   counter equals its field of the stats [f] returns: the counts of a pool
   created inside [f] and the process-global counters agree. *)
let counters_agree label f =
  Telemetry.reset ();
  Telemetry.enable ();
  let r, (s : Runtime.Pool.stats) = Fun.protect ~finally:Telemetry.disable f in
  List.iter
    (fun (name, field) ->
      Alcotest.(check int) (label ^ ": " ^ name) (field s)
        (Telemetry.Counter.value (Telemetry.Counter.make name)))
    paired_counters;
  (r, s)

(* nf, strategy, mode, fault plan (["write-off"]: crash@1:8 with no
   restart budget), and the stats the run leaves on a fresh 4-core pool *)
let pinned_cases =
  [
    ( "nat", `Auto, `Static, "",
      "runs 1 batches 193 pkts 6144 stalls 0 per-core [1937;665;2204;1338] \
       dropped 0/0 [0;0;0;0] restarts 0 failed [] inline 0 \
       rebalances 0/0 migrated 0/0/0 \
       share [0.31526692708333331;0.10823567708333333;0.35872395833333331;0.2177734375] \
       assignment 6144/28003893 points [] scr 0/0/0 switches 0/0 [] residency []" );
    ( "nat", `Auto, `Rebalance, "",
      "runs 1 batches 206 pkts 6144 stalls 0 per-core [1937;665;2204;1338] \
       dropped 0/0 [0;0;0;0] restarts 0 failed [] inline 0 \
       rebalances 0/0 migrated 0/0/0 \
       share [0.31526692708333331;0.10823567708333333;0.35872395833333331;0.2177734375] \
       assignment 6144/28003893 points [] scr 0/0/0 switches 0/0 [] residency []" );
    ( "nat", `Auto, `Adaptive, "",
      "runs 1 batches 1792 pkts 14336 stalls 0 per-core [3584;3584;3584;3584] \
       dropped 0/0 [0;0;0;0] restarts 0 failed [] inline 0 \
       rebalances 0/0 migrated 0/0/0 share [0.25;0.25;0.25;0.25] \
       assignment 14336/154724864 points [] scr 1344/0/286720 switches 0/0 [] \
       residency [state-compute-replication:14;lock-based:0;serial:0]" );
    ( "nop", `Auto, `Static, "",
      "runs 1 batches 194 pkts 6144 stalls 0 per-core [2051;2008;1015;1070] \
       dropped 0/0 [0;0;0;0] restarts 0 failed [] inline 0 \
       rebalances 0/0 migrated 0/0/0 \
       share [0.33382161458333331;0.32682291666666669;0.16520182291666666;0.17415364583333334] \
       assignment 6144/22429239 points [] scr 0/0/0 switches 0/0 [] residency []" );
    ( "nop", `Auto, `Rebalance, "",
      "runs 1 batches 202 pkts 6144 stalls 0 per-core [1630;1654;1415;1445] \
       dropped 0/0 [0;0;0;0] restarts 0 failed [] inline 0 \
       rebalances 5/0 migrated 126/0/0 \
       share [0.26529947916666669;0.26920572916666669;0.23030598958333334;0.23518880208333334] \
       assignment 6144/28181297 points [1024;2048;3072;4096;5120] scr 0/0/0 \
       switches 0/0 [] residency []" );
    ( "fw", `Auto, `Static, "",
      "runs 1 batches 194 pkts 6144 stalls 0 per-core [849;1790;770;2735] \
       dropped 0/0 [0;0;0;0] restarts 0 failed [] inline 0 \
       rebalances 0/0 migrated 0/0/0 \
       share [0.13818359375;0.29134114583333331;0.12532552083333334;0.44514973958333331] \
       assignment 6144/35216268 points [] scr 0/0/0 switches 0/0 [] residency []" );
    ( "fw", `Auto, `Static, "crash@1:2",
      "runs 1 batches 194 pkts 6144 stalls 0 per-core [849;1790;770;2735] \
       dropped 0/0 [0;0;0;0] restarts 1 failed [] inline 1 \
       rebalances 0/0 migrated 0/0/0 \
       share [0.13818359375;0.29134114583333331;0.12532552083333334;0.44514973958333331] \
       assignment 6144/35216268 points [] scr 0/0/0 switches 0/0 [] residency []" );
    ( "fw", `Auto, `Static, "write-off",
      "runs 1 batches - pkts 6144 stalls 0 per-core [849;1790;770;2735] \
       dropped 0/0 [0;0;0;0] restarts 0 failed [1] inline 48 \
       rebalances 0/0 migrated 0/0/0 \
       share [0.13818359375;0.29134114583333331;0.12532552083333334;0.44514973958333331] \
       assignment 6144/35216268 points [] scr 0/0/0 switches 0/0 [] residency []" );
    ( "fw", `Auto, `Rebalance, "",
      "runs 1 batches 201 pkts 6144 stalls 0 per-core [1294;1662;1256;1932] \
       dropped 0/0 [0;0;0;0] restarts 0 failed [] inline 0 \
       rebalances 5/0 migrated 105/119/0 \
       share [0.21061197916666666;0.2705078125;0.20442708333333334;0.314453125] \
       assignment 6144/29597826 points [1024;2048;3072;4096;5120] scr 0/0/0 \
       switches 0/0 [] residency []" );
    ( "fw", `Auto, `Rebalance, "crash@1:2",
      "runs 1 batches 201 pkts 6144 stalls 0 per-core [1294;1662;1256;1932] \
       dropped 0/0 [0;0;0;0] restarts 1 failed [] inline 1 \
       rebalances 5/0 migrated 105/119/0 \
       share [0.21061197916666666;0.2705078125;0.20442708333333334;0.314453125] \
       assignment 6144/29597826 points [1024;2048;3072;4096;5120] scr 0/0/0 \
       switches 0/0 [] residency []" );
    ( "fw", `Auto, `Rebalance, "write-off",
      "runs 1 batches - pkts 6144 stalls 0 per-core [1997;320;1689;2138] \
       dropped 0/0 [0;0;0;0] restarts 0 failed [1] inline 2 \
       rebalances 5/1 migrated 459/515/0 \
       share [0.32503255208333331;0.052083333333333336;0.27490234375;0.34798177083333331] \
       assignment 6144/30439666 points [1024;2048;3072;4096;5120] scr 0/0/0 \
       switches 0/0 [] residency []" );
    ( "fw", `Auto, `Adaptive, "",
      "runs 1 batches 946 pkts 14336 stalls 0 per-core [3539;3922;3537;3338] \
       dropped 0/0 [0;0;0;0] restarts 0 failed [] inline 0 \
       rebalances 0/0 migrated 0/1764/0 \
       share [0.24686104910714285;0.27357700892857145;0.24672154017857142;0.23284040178571427] \
       assignment 14336/152865417 points [5120;10240] scr 480/0/102400 \
       switches 2/0 [5:state-compute-replication;10:shared-nothing] \
       residency [shared-nothing:9;state-compute-replication:5;lock-based:0;serial:0]" );
    ( "fw", `Auto, `Adaptive, "crash@2:60",
      "runs 1 batches 946 pkts 14336 stalls 0 per-core [3539;3922;3537;3338] \
       dropped 0/0 [0;0;0;0] restarts 1 failed [] inline 1 \
       rebalances 0/0 migrated 0/1764/0 \
       share [0.24686104910714285;0.27357700892857145;0.24672154017857142;0.23284040178571427] \
       assignment 14336/152865417 points [5120;10240] scr 480/1/102400 \
       switches 2/1 [5:state-compute-replication;10:shared-nothing] \
       residency [shared-nothing:9;state-compute-replication:5;lock-based:0;serial:0]" );
    ( "fw", `Auto, `Adaptive, "write-off",
      "runs 1 batches - pkts 14336 stalls 0 per-core [4489;457;4341;5049] \
       dropped 0/0 [0;0;0;0] restarts 0 failed [1] inline 7 \
       rebalances 0/0 migrated 0/1878/0 \
       share [0.31312779017857145;0.031877790178571432;0.3028041294642857;0.35219029017857145] \
       assignment 14336/174529773 points [2048;5120;10240] scr 320/0/102400 \
       switches 2/0 [5:state-compute-replication;10:shared-nothing] \
       residency [shared-nothing:9;state-compute-replication:5;lock-based:0;serial:0]" );
    ( "fw", `Force_locks, `Static, "",
      "runs 1 batches 194 pkts 6144 stalls 0 per-core [2051;2008;1015;1070] \
       dropped 0/0 [0;0;0;0] restarts 0 failed [] inline 0 \
       rebalances 0/0 migrated 0/0/0 \
       share [0.33382161458333331;0.32682291666666669;0.16520182291666666;0.17415364583333334] \
       assignment 6144/22429239 points [] scr 0/0/0 switches 0/0 [] residency []" );
    ( "fw", `Force_locks, `Rebalance, "",
      "runs 1 batches 202 pkts 6144 stalls 0 per-core [1630;1654;1415;1445] \
       dropped 0/0 [0;0;0;0] restarts 0 failed [] inline 0 \
       rebalances 5/0 migrated 126/0/0 \
       share [0.26529947916666669;0.26920572916666669;0.23030598958333334;0.23518880208333334] \
       assignment 6144/28181297 points [1024;2048;3072;4096;5120] scr 0/0/0 \
       switches 0/0 [] residency []" );
    ( "fw", `Force_locks, `Adaptive, "",
      "runs 1 batches 476 pkts 14336 stalls 0 per-core [2568;2375;3444;5949] \
       dropped 0/0 [0;0;0;0] restarts 0 failed [] inline 0 \
       rebalances 0/0 migrated 0/0/0 \
       share [0.17912946428571427;0.16566685267857142;0.240234375;0.4149693080357143] \
       assignment 14336/188244809 points [] scr 0/0/0 switches 0/0 [] \
       residency [lock-based:14;serial:0]" );
    ( "fw", `Force_locks, `Adaptive, "crash@0:4",
      "runs 1 batches 472 pkts 14336 stalls 0 per-core [4093;1954;2919;5370] \
       dropped 0/0 [0;0;0;0] restarts 1 failed [] inline 1 \
       rebalances 0/0 migrated 0/0/0 \
       share [0.28550502232142855;0.13630022321428573;0.20361328125;0.3745814732142857] \
       assignment 14336/178346691 points [2048;4096] scr 0/0/0 \
       switches 2/0 [2:serial;4:lock-based] residency [lock-based:12;serial:2]" );
    ( "fw", `Force_scr, `Static, "",
      "runs 1 batches 768 pkts 6144 stalls 0 per-core [1536;1536;1536;1536] \
       dropped 0/0 [0;0;0;0] restarts 0 failed [] inline 0 \
       rebalances 0/0 migrated 0/0/0 share [0.25;0.25;0.25;0.25] \
       assignment 6144/28561920 points [] scr 576/0/122880 switches 0/0 [] \
       residency []" );
    ( "fw", `Force_scr, `Static, "crash@1:2",
      "runs 1 batches 768 pkts 6144 stalls 0 per-core [1536;1536;1536;1536] \
       dropped 0/0 [0;0;0;0] restarts 1 failed [] inline 1 \
       rebalances 0/0 migrated 0/0/0 share [0.25;0.25;0.25;0.25] \
       assignment 6144/28561920 points [] scr 576/1/122880 switches 0/0 [] \
       residency []" );
    ( "fw", `Force_scr, `Rebalance, "",
      "runs 1 batches 768 pkts 6144 stalls 0 per-core [1536;1536;1536;1536] \
       dropped 0/0 [0;0;0;0] restarts 0 failed [] inline 0 \
       rebalances 0/0 migrated 0/0/0 share [0.25;0.25;0.25;0.25] \
       assignment 6144/28561920 points [] scr 576/0/122880 switches 0/0 [] \
       residency []" );
    ( "fw,fw", `Auto, `Rebalance, "",
      "runs 1 batches 201 pkts 6144 stalls 0 per-core [1294;1662;1256;1932] \
       dropped 0/0 [0;0;0;0] restarts 0 failed [] inline 0 \
       rebalances 5/0 migrated 105/238/0 \
       share [0.21061197916666666;0.2705078125;0.20442708333333334;0.314453125] \
       assignment 6144/29597826 points [1024;2048;3072;4096;5120] scr 0/0/0 \
       switches 0/0 [] residency []" );
    ( "fw", `Force_scr, `Adaptive, "",
      "runs 1 batches 1792 pkts 14336 stalls 0 per-core [3584;3584;3584;3584] \
       dropped 0/0 [0;0;0;0] restarts 0 failed [] inline 0 \
       rebalances 0/0 migrated 0/0/0 share [0.25;0.25;0.25;0.25] \
       assignment 14336/154724864 points [] scr 1344/0/286720 switches 0/0 [] \
       residency [state-compute-replication:14;lock-based:0;serial:0]" );
  ]

(* Static, rebalancing and adaptive runs under every rung and recovery
   path leave exactly the stats pinned above, and agree with sequential
   execution wherever the plan promises it: not for nat's static shards
   (each core allocates its own ports) nor for 4 cores writing under one
   lock (their interleaving orders the writes). *)
let test_pinned_stats () =
  let zipf = zipf_trace 82 ~pkts:6_144 and calm_skew = calm_skew_calm ~seed:7 in
  List.iter
    (fun (name, strategy, mode, fault, expect) ->
      (* "a,b": the fused chain of registry NFs a and b *)
      let plan =
        match String.split_on_char ',' name with
        | [ _ ] -> registry_plan ~cores:4 ~strategy name
        | stages ->
            plan_of ~cores:4 ~strategy
              (Dsl.Chain.nf (Result.get_ok (Nfs.Registry.compose_chain stages)))
      in
      let label =
        String.concat " "
          (List.filter (( <> ) "")
             [
               name;
               Maestro.Plan.strategy_name plan.Maestro.Plan.strategy;
               (match mode with
               | `Static -> "static"
               | `Rebalance -> "rebalance"
               | `Adaptive -> "adaptive");
               fault;
             ])
      in
      let trace, policy =
        match mode with
        | `Static -> (zipf, Runtime.Pool.Static)
        | `Rebalance -> (zipf, pinned_rebalance)
        | `Adaptive -> (calm_skew, Test_adaptive.pool_policy)
      in
      let write_off = fault = "write-off" in
      let supervisor =
        if write_off then Some { Runtime.Supervisor.default_config with max_restarts = 0 }
        else None
      in
      if fault <> "" then (
        match Faults.parse (if write_off then "crash@1:8" else fault) with
        | Ok p -> Faults.install p
        | Error e -> Alcotest.fail e);
      let v, stats =
        Fun.protect ~finally:Faults.clear @@ fun () ->
        counters_agree label @@ fun () ->
        let pool = Runtime.Pool.create ?supervisor ~cores:4 () in
        Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
        let v = Runtime.Pool.run ~policy pool plan trace in
        (v, Runtime.Pool.stats pool)
      in
      Alcotest.(check string) (label ^ ": stats") expect
        (pinned_stats ~batches:(not write_off) stats);
      if not ((name = "nat" || strategy = `Force_locks) && mode <> `Adaptive) then
        Alcotest.(check bool) (label ^ ": verdicts == sequential") true
          (Runtime.Parallel.run_sequential plan.Maestro.Plan.nf trace = v))
    pinned_cases

(* [Pool.stats] hands out the last run's dispatch record without copying
   it: after a 20,000-packet run, one call allocates a few words per core.
   Minor and major words both count, since an array of the trace's length
   would be allocated straight on the major heap.  The minor words come
   from [Gc.minor_words]: [Gc.counters]' own count misses the words of
   the current minor heap. *)
let test_stats_allocation () =
  let cores = 2 in
  let plan = registry_plan ~cores "fw" in
  let pool = Runtime.Pool.create ~cores () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
  ignore (Runtime.Pool.run pool plan (mixed_trace 113 20_000 500));
  let allocated f =
    let _, promoted0, major0 = Gc.counters () in
    let minor0 = Gc.minor_words () in
    f ();
    let minor1 = Gc.minor_words () in
    let _, promoted1, major1 = Gc.counters () in
    int_of_float (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))
  in
  let words = allocated (fun () -> ignore (Sys.opaque_identity (Runtime.Pool.stats pool))) in
  let bound = 64 + (16 * cores) in
  if words > bound then Alcotest.failf "one stats call allocated %d words (bound %d)" words bound

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
  let pool = Runtime.Pool.create ~cores:2 () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) (fun () ->
      let run label =
        let s0 = Runtime.Pool.stats pool and a0 = Telemetry.Counter.value c_acquisitions in
        let v = Runtime.Pool.run pool plan trace in
        let s1 = Runtime.Pool.stats pool in
        Alcotest.(check bool) (label ^ ": verdicts") true (seq = v);
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
    (Runtime.Parallel.run_sequential raising_nf clean = Runtime.Pool.run pool plan clean)

let suite =
  [
    Alcotest.test_case "reset == create (registry, scenarios, chains)" `Quick
      test_reset_equals_create;
    Alcotest.test_case "one plan, three runs == fresh pools" `Quick test_three_runs_one_plan;
    Alcotest.test_case "rebalanced run, then static" `Quick test_rebalance_then_static;
    Alcotest.test_case "crash run, then clean" `Quick test_crash_then_clean;
    Alcotest.test_case "adaptive runs on a bound pool" `Quick test_adaptive_on_bound_pool;
    Alcotest.test_case "two plans alternating" `Quick test_alternating_plans;
    Alcotest.test_case "stats pinned: every mode, rung and recovery path" `Quick test_pinned_stats;
    Alcotest.test_case "stats: one call allocates O(cores)" `Quick test_stats_allocation;
    Alcotest.test_case "lock rung: one acquisition per batch" `Quick test_lock_once_per_batch;
    Alcotest.test_case "lock rung: a raise mid-batch frees the lock" `Quick
      test_raise_mid_batch_frees_lock;
  ]
