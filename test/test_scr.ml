(* State-compute replication: the digest/replay machinery must be
   observationally invisible.  A manual lockstep drives SCR replicas
   against the sequential interpreter oracle, checking verdicts, op-event
   streams AND final replica state on the NF's write set; the model and
   the pool, crashes included, are the differential harness's cells, run
   here on fixed hostile traces too.  A
   qcheck property pins the core algebra: digest-apply ∘ digest-derive is
   the identity on the write set for every shipped NF. *)

let ops_pp fmt (e : Dsl.Interp.op_event) =
  Format.fprintf fmt "%s(%b,%d)" e.Dsl.Interp.obj e.Dsl.Interp.write e.Dsl.Interp.expired

let hostile_trace ~seed n =
  let rng = Random.State.make [| seed |] in
  Array.init n (fun i ->
      Packet.Pkt.make
        ~port:(Random.State.int rng 2)
        ~ip_src:(Random.State.int rng 8)
        ~ip_dst:(Random.State.int rng 8)
        ~src_port:(Random.State.int rng 4)
        ~dst_port:(Random.State.int rng 4)
        ~ts_ns:(i * Random.State.int rng 5_000_000)
        ())

let writers () =
  List.filter
    (fun (nf : Dsl.Ast.t) -> Result.is_ok (Maestro.Scrspec.admissible nf))
    (List.map Nfs.Registry.find_exn Nfs.Registry.extended_names @ Nfs.Scenarios.all ())

(* --- manual lockstep: verdicts, op events, final replicas -------------------- *)

(* Run the trace through the oracle and through [cores] SCR replicas in
   lockstep: packet [i]'s owner is [i mod cores] and runs the full NF;
   everyone else replays the packet's digest.  The owner's verdict and
   op-event stream must match the oracle packet by packet, and every
   replica must end structurally equal to the oracle on the write set. *)
let scr_differential label (nf : Dsl.Ast.t) ~cores trace =
  let info = Dsl.Check.check_exn nf in
  let oracle = Dsl.Instance.create nf in
  let spec =
    match Maestro.Scrspec.admissible nf with
    | Ok s -> s
    | Error e -> Alcotest.failf "%s: expected admissible: %s" label e
  in
  let prog = Runtime.Scr.prepare spec in
  let insts = Array.init cores (fun _ -> Dsl.Instance.create nf) in
  let staged = Dsl.Compile.stage_runner nf info in
  let runners = Array.map (Dsl.Compile.bind_runner staged) insts in
  let reps = Array.map (Runtime.Scr.bind prog) insts in
  let buf = Array.make (max 1 (Runtime.Scr.ints_per_pkt prog)) 0 in
  Array.iteri
    (fun i pkt ->
      let owner = i mod cores in
      let o_ops = ref [] and s_ops = ref [] in
      let a1 = Dsl.Interp.process ~on_op:(fun e -> o_ops := e :: !o_ops) nf info oracle pkt in
      let a2 = Dsl.Compile.run ~on_op:(fun e -> s_ops := e :: !s_ops) runners.(owner) pkt in
      Runtime.Scr.encode prog pkt buf 0;
      Array.iteri (fun c r -> if c <> owner then Runtime.Scr.apply r buf 0) reps;
      if a1 <> a2 then
        Alcotest.failf "%s: verdict diverges at packet %d (%a)" label i Packet.Pkt.pp pkt;
      if !o_ops <> !s_ops then
        Alcotest.failf "%s: op stream diverges at packet %d: oracle [%a] scr [%a]" label i
          (Format.pp_print_list ops_pp)
          (List.rev !o_ops)
          (Format.pp_print_list ops_pp)
          (List.rev !s_ops))
    trace;
  Array.iteri
    (fun c inst ->
      if not (Runtime.Scr.replica_equal spec oracle inst) then
        Alcotest.failf "%s: replica %d diverged from the oracle on the write set" label c)
    insts

let test_lockstep_all_writers () =
  List.iter
    (fun (nf : Dsl.Ast.t) ->
      scr_differential nf.Dsl.Ast.name nf ~cores:4 (hostile_trace ~seed:13 2_000))
    (writers ())

(* --- qcheck: digest-apply ∘ digest-derive = identity on the write set ------- *)

let replay_is_identity (nf : Dsl.Ast.t) trace =
  let info = Dsl.Check.check_exn nf in
  let full = Dsl.Instance.create nf in
  let runner = Dsl.Compile.make_runner nf info full in
  (* [derive], not [admissible]: the identity must hold for every writer,
     budget or no budget *)
  let spec = Maestro.Scrspec.derive nf in
  let prog = Runtime.Scr.prepare spec in
  let replica = Dsl.Instance.create nf in
  let rep = Runtime.Scr.bind prog replica in
  let buf = Array.make (max 1 (Runtime.Scr.ints_per_pkt prog)) 0 in
  Array.iter
    (fun pkt ->
      ignore (Dsl.Compile.run runner pkt);
      Runtime.Scr.encode prog pkt buf 0;
      Runtime.Scr.apply rep buf 0)
    trace;
  Runtime.Scr.replica_equal spec full replica

let prop_digest_identity =
  QCheck.Test.make ~name:"digest replay is the identity on the write set" ~count:30
    QCheck.(pair small_nat (int_range 50 400))
    (fun (seed, n) ->
      let trace = hostile_trace ~seed n in
      List.for_all
        (fun (nf : Dsl.Ast.t) -> replay_is_identity nf trace)
        (List.map Nfs.Registry.find_exn Nfs.Registry.extended_names @ Nfs.Scenarios.all ()))

(* --- crash mid-stream: rebuild from the retained digest log ------------------ *)

let test_rebuild_from_digest_log () =
  let nf = Nfs.Registry.find_exn "fw" in
  let trace = hostile_trace ~seed:21 1_500 in
  let spec =
    match Maestro.Scrspec.admissible nf with Ok s -> s | Error e -> Alcotest.fail e
  in
  let prog = Runtime.Scr.prepare spec in
  let stride = Runtime.Scr.ints_per_pkt prog in
  let log = Runtime.Scr.encode_batch prog trace ~lo:0 ~len:(Array.length trace) in
  let reference = Dsl.Instance.create nf in
  let ref_rep = Runtime.Scr.bind prog reference in
  Runtime.Scr.apply_batch ref_rep log ~npkts:(Array.length trace);
  (* the victim applies half the stream, "crashes", is reset to initial
     state in place (its replayer stays bound to the same containers),
     then rebuilds from the retained log before replaying the rest — the
     pool's crash hook *)
  let victim = Dsl.Instance.create nf in
  let vic_rep = Runtime.Scr.bind prog victim in
  let half = Array.length trace / 2 in
  for i = 0 to half - 1 do
    Runtime.Scr.apply vic_rep log (i * stride)
  done;
  Dsl.Instance.reset victim nf;
  for i = 0 to Array.length trace - 1 do
    Runtime.Scr.apply vic_rep log (i * stride)
  done;
  Alcotest.(check bool) "rebuilt replica matches the reference" true
    (Runtime.Scr.replica_equal spec reference victim)

(* --- the deterministic model and the ladder ---------------------------------- *)

let scr_plan ?(cores = 4) name =
  let request = { Maestro.Pipeline.default_request with cores; strategy = `Force_scr } in
  Maestro.Pipeline.parallelize_exn ~request (Nfs.Registry.find_exn name)

(* the harness's model check: verdicts equal the sequential NF's and the
   round-robin spray balances the cores to within a packet *)
let test_parallel_model_matches_oracle () =
  List.iter
    (fun name ->
      let o = scr_plan name in
      Alcotest.(check string)
        (name ^ " strategy") "state-compute-replication"
        (Maestro.Plan.strategy_name o.Maestro.Pipeline.plan.Maestro.Plan.strategy);
      let par =
        Test_differential.check_model_run name o.Maestro.Pipeline.plan
          (hostile_trace ~seed:17 2_500)
      in
      Alcotest.(check bool)
        (name ^ " balanced")
        true
        (Runtime.Parallel.imbalance par.Runtime.Parallel.stats < 1.01))
    [ "fw"; "dbridge"; "lb" ]

let test_auto_takes_scr_rung_for_blocked_nfs () =
  let o = Maestro.Pipeline.parallelize_exn (Nfs.Registry.find_exn "dbridge") in
  Alcotest.(check string) "dbridge rung" "state-compute-replication"
    (Maestro.Ladder.rung_name o.Maestro.Pipeline.ladder.Maestro.Ladder.chosen);
  let step =
    List.find
      (fun (s : Maestro.Ladder.step) -> s.Maestro.Ladder.rung = Maestro.Ladder.Scr)
      o.Maestro.Pipeline.ladder.Maestro.Ladder.steps
  in
  Alcotest.(check bool) "scr step taken" true step.Maestro.Ladder.taken;
  Alcotest.(check bool) "reason quotes the digest cost" true
    (let r = step.Maestro.Ladder.reason in
     let has sub =
       let n = String.length sub and m = String.length r in
       let rec go i = i + n <= m && (String.sub r i n = sub || go (i + 1)) in
       go 0
     in
     has "digest");
  (* read-only state: SCR buys nothing, the rung must refuse *)
  match Maestro.Scrspec.admissible (Nfs.Registry.find_exn "sbridge") with
  | Ok _ -> Alcotest.fail "sbridge must not be SCR-admissible"
  | Error _ -> ()

(* --- the real domain pool ----------------------------------------------------- *)

(* Crash mid-epoch under an injected fault plan: the respawned worker
   must rebuild its replica from the digest stream before rejoining, and
   verdicts must still equal the sequential oracle. *)
let test_pool_scr_fault_plan () =
  (match Faults.parse "crash@1:2; crash@2:5" with
  | Ok plan -> Faults.install plan
  | Error e -> Alcotest.fail e);
  Fun.protect ~finally:Faults.clear @@ fun () ->
  let shape = Test_differential.shape 4 in
  Test_differential.with_pool shape @@ fun pool ->
  let s =
    Test_differential.check_run ~fault:Test_differential.Crash shape pool "fw"
      (scr_plan "fw").Maestro.Pipeline.plan (hostile_trace ~seed:31 4_000)
  in
  Alcotest.(check bool) "at least one restart" true (s.Runtime.Pool.restarts >= 1);
  Alcotest.(check bool) "replicas rebuilt from the digest stream" true
    (s.Runtime.Pool.scr_rebuilds >= 1)

(* High churn (paper Sec. 6.3): fw's SCR and lock plans on 4 cores over a
   LAN trace that keeps 1,024 flows live and turns them over at 240,000
   flows per Gbit.  Every churn packet arrives on the LAN port, so no
   write can change a verdict and the harness checks the lock run's
   verdicts too.  Every SCR batch is broadcast to the 3 other cores, and
   the throughput model, priced on each run's own per-core shares, puts
   SCR at or above the lock rung. *)
let test_pool_scr_churn () =
  let cores = 4 in
  let spec =
    { Traffic.Churn.default_spec with active_flows = 1_024; flows_per_gbit = 240_000.0; pkts = 49_152 }
  in
  let trace = Traffic.Churn.trace (Random.State.make [| 0xc40a9 |]) spec in
  Alcotest.(check int) "flow generations" 6_040 (Traffic.Churn.generations spec);
  let outcome strategy =
    let request = { Maestro.Pipeline.default_request with cores; strategy } in
    Maestro.Pipeline.parallelize_exn ~request (Nfs.Registry.find_exn "fw")
  in
  let scr = outcome `Force_scr and lock = outcome `Force_locks in
  let rejected (o : Maestro.Pipeline.outcome) =
    List.length
      (List.filter (fun (st : Maestro.Ladder.step) -> not st.Maestro.Ladder.taken)
         o.Maestro.Pipeline.ladder.Maestro.Ladder.steps)
  in
  Alcotest.(check string) "scr plan's rung" "state-compute-replication"
    (Maestro.Ladder.rung_name scr.Maestro.Pipeline.ladder.Maestro.Ladder.chosen);
  Alcotest.(check string) "lock plan's rung" "lock-based"
    (Maestro.Ladder.rung_name lock.Maestro.Pipeline.ladder.Maestro.Ladder.chosen);
  Alcotest.(check (pair int int)) "rungs rejected on the way down" (1, 2)
    (rejected scr, rejected lock);
  let shape = Test_differential.shape cores in
  let run (o : Maestro.Pipeline.outcome) =
    Test_differential.with_pool shape @@ fun pool ->
    Test_differential.check_run ~order_free:true shape pool "fw" o.Maestro.Pipeline.plan trace
  in
  let s_scr = run scr and s_lock = run lock in
  let counts (s : Runtime.Pool.stats) =
    Runtime.Pool.
      [ s.batches; s.scr_replays; s.scr_digest_bytes; s.scr_rebuilds; s.dropped_batches ]
  in
  Alcotest.(check (list int)) "scr: batches, replays, digest bytes, rebuilds, drops"
    [ 6_144; 4_608; 983_040; 0; 0 ] (counts s_scr);
  Alcotest.(check (list int)) "lock: batches, replays, digest bytes, rebuilds, drops"
    [ 1_538; 0; 0; 0; 0 ] (counts s_lock);
  Alcotest.(check bool) "scr: every batch broadcast to every non-owner" true
    (s_scr.Runtime.Pool.scr_replays > 0 && s_scr.Runtime.Pool.scr_replays mod (cores - 1) = 0);
  let profile = Sim.Profile.of_trace (Nfs.Registry.find_exn "fw") trace in
  let mpps (o : Maestro.Pipeline.outcome) s =
    (Sim.Throughput.evaluate ~measured_shares:(Sim.Throughput.shares_of_pool_stats s)
       o.Maestro.Pipeline.plan profile trace)
      .Sim.Throughput.mpps
  in
  let m_scr = mpps scr s_scr and m_lock = mpps lock s_lock in
  Alcotest.(check (float 0.005)) "model: scr mpps" 12.71 m_scr;
  Alcotest.(check (float 0.005)) "model: lock mpps" 12.11 m_lock;
  Alcotest.(check bool) "model: scr >= lock on churn" true (m_scr >= m_lock)

(* A broken internal invariant is a typed error, not [Invalid_argument]:
   nop has no state to replicate, so [Maestro.Scrspec.admissible] rejects
   it, and a nop plan forced onto the SCR rung fails as the pool binds
   it, before any epoch.  The pool stays usable: its next run, of fw's
   SCR plan, equals the sequential NF. *)
let test_inadmissible_scr_plan_raises () =
  let plan =
    { (scr_plan ~cores:2 "nop").Maestro.Pipeline.plan with Maestro.Plan.strategy = Maestro.Plan.Scr }
  in
  let shape = Test_differential.shape 2 in
  Test_differential.with_pool shape @@ fun pool ->
  (match Runtime.Pool.run pool plan (hostile_trace ~seed:37 500) with
  | _ -> Alcotest.fail "an inadmissible SCR plan ran"
  | exception
      Runtime.Pool.Run_error { invariant = Runtime.Pool.Scr_admissible { nf; _ }; epoch; core } ->
      Alcotest.(check string) "names the NF" "nop" nf;
      Alcotest.(check (option int)) "no epoch" None epoch;
      Alcotest.(check (option int)) "no core" None core);
  ignore
    (Test_differential.check_run shape pool "fw"
       (scr_plan ~cores:2 "fw").Maestro.Pipeline.plan (hostile_trace ~seed:41 2_000))

let suite =
  [
    Alcotest.test_case "lockstep differential (all writers)" `Quick test_lockstep_all_writers;
    QCheck_alcotest.to_alcotest prop_digest_identity;
    Alcotest.test_case "crash rebuild from digest log" `Quick test_rebuild_from_digest_log;
    Alcotest.test_case "parallel model matches oracle" `Quick
      test_parallel_model_matches_oracle;
    Alcotest.test_case "auto takes the scr rung for blocked NFs" `Quick
      test_auto_takes_scr_rung_for_blocked_nfs;
    Alcotest.test_case "pool scr under fault plan" `Quick test_pool_scr_fault_plan;
    Alcotest.test_case "pool: churn on the scr and lock rungs" `Slow test_pool_scr_churn;
    Alcotest.test_case "inadmissible plan raises Run_error" `Quick
      test_inadmissible_scr_plan_raises;
  ]
