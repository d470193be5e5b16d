(* Cluster front tier: maglev table properties, machine-churn fault
   events, and the rungs a tier refuses.  Tier runs under join, leave and
   failure are the differential harness's cells. *)

let x100 v = int_of_float (Float.round (v *. 100.0))

let with_fault_plan spec f =
  (match Faults.parse spec with
  | Ok plan -> Faults.install plan
  | Error e -> Alcotest.fail e);
  Fun.protect ~finally:Faults.clear f

let test_maglev_deterministic () =
  let a = Cluster.Maglev.build ~machines:[ 0; 1; 2 ] () in
  let b = Cluster.Maglev.build ~machines:[ 2; 0; 1 ] () in
  Alcotest.(check (float 0.0)) "same set, same table" 0.0 (Cluster.Maglev.disruption a b);
  Alcotest.(check (list int)) "machines ascending" [ 0; 1; 2 ] (Cluster.Maglev.machines a);
  Alcotest.(check bool) "prime table" true (Cluster.Maglev.size a >= 251);
  for h = 0 to 9_999 do
    let m = Cluster.Maglev.lookup a h in
    if not (List.mem m [ 0; 1; 2 ]) then Alcotest.fail "lookup outside the machine set"
  done

(* Every fleet size from 2 to 8 machines: each machine's share of the
   table is within 2x of fair, and a join or a leave moves at most 2/N of
   the slots. *)
let test_maglev_balance_and_disruption () =
  for n = 2 to 8 do
    let label what = Printf.sprintf "n=%d: %s" n what in
    let ids = List.init n Fun.id in
    let t = Cluster.Maglev.build ~machines:ids () in
    List.iter
      (fun (_, share) ->
        Alcotest.(check bool) (label "share within 2x of fair") true
          (share <= 2.0 /. float_of_int n))
      (Cluster.Maglev.shares t);
    let sum = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 (Cluster.Maglev.shares t) in
    Alcotest.(check (float 1e-9)) (label "shares sum to 1") 1.0 sum;
    let joined = Cluster.Maglev.build ~machines:(ids @ [ n ]) () in
    Alcotest.(check bool) (label "join disruption <= 2/(n+1)") true
      (Cluster.Maglev.disruption t joined <= 2.0 /. float_of_int (n + 1));
    let left = Cluster.Maglev.build ~machines:(List.tl ids) () in
    Alcotest.(check bool) (label "leave disruption <= 2/n") true
      (Cluster.Maglev.disruption t left <= 2.0 /. float_of_int n)
  done;
  (* survivors keep their surviving slots: a departed machine's slots
     are the only ones that must move (7 of 251 others do for 5 machines) *)
  let t = Cluster.Maglev.build ~machines:[ 0; 1; 2; 3; 4 ] () in
  let left = Cluster.Maglev.build ~machines:[ 1; 2; 3; 4 ] () in
  let moved = ref 0 in
  for i = 0 to Cluster.Maglev.size t - 1 do
    if Cluster.Maglev.slot_owner t i <> 0 && Cluster.Maglev.slot_owner t i <> Cluster.Maglev.slot_owner left i
    then incr moved
  done;
  Alcotest.(check bool) "surviving slots mostly stable" true
    (float_of_int !moved /. float_of_int (Cluster.Maglev.size t) <= 0.05)

let test_machine_events_parse () =
  match Faults.parse "leave@3:1;join@2:4;fail@5:0" with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      Faults.install plan;
      Fun.protect ~finally:Faults.clear @@ fun () ->
      let evs = Faults.machine_events () in
      Alcotest.(check int) "three events" 3 (List.length evs);
      (match evs with
      | [ (e1, a1, m1); (e2, a2, m2); (e3, a3, m3) ] ->
          Alcotest.(check bool) "ascending epochs" true (e1 <= e2 && e2 <= e3);
          Alcotest.(check (list int)) "epochs" [ 2; 3; 5 ] [ e1; e2; e3 ];
          Alcotest.(check (list int)) "machines" [ 4; 1; 0 ] [ m1; m2; m3 ];
          Alcotest.(check bool) "actions" true
            (a1 = Faults.Join && a2 = Faults.Leave && a3 = Faults.Fail)
      | _ -> Alcotest.fail "expected three machine events")

let test_machine_events_reject_malformed () =
  (match Faults.parse "join@1" with
  | Ok _ -> Alcotest.fail "join without a machine id must not parse"
  | Error _ -> ());
  match Faults.parse "hop@1:2" with
  | Ok _ -> Alcotest.fail "unknown machine event must not parse"
  | Error _ -> ()

let small_config machines =
  {
    Cluster.Tier.default_config with
    Cluster.Tier.machines;
    epoch_pkts = 512;
    request = { Maestro.Pipeline.default_request with cores = 2 };
  }

let test_tier_rejects_shared_state_rungs () =
  let nf = Nfs.Registry.find_exn "fw" in
  let config =
    {
      (small_config 2) with
      Cluster.Tier.request =
        { Maestro.Pipeline.default_request with cores = 2; strategy = `Force_locks };
    }
  in
  match Cluster.Tier.build ~config nf with
  | Ok _ -> Alcotest.fail "a lock-rung plan must not scale out"
  | Error _ -> ()

(* The fleet at scale: fw on 4 machines x 4 cores over 2,048 flows in
   steady state (24,576 packets after the warm-up), run steady, through a
   join and a graceful leave, and through a machine failure.  Each run
   passes the harness's tier checks; machine load stays within 2x of the
   mean, each event reassigns at most 2/N of the maglev slots, and the
   throughput model prices the steady run's machine shares at >= 3.2
   machines of capacity. *)
let test_tier_fleet () =
  let nf = Nfs.Registry.find_exn "fw" in
  let st = Random.State.make [| 0xc105e4 |] in
  let flows = Traffic.Gen.flows st 2_048 in
  let trace, _ =
    Traffic.Gen.steady_uniform ~spec:{ Traffic.Gen.default_spec with pkts = 24_576 } st ~flows
  in
  Alcotest.(check int) "trace packets" 28_672 (Array.length trace);
  let config =
    {
      Cluster.Tier.default_config with
      Cluster.Tier.machines = 4;
      epoch_pkts = 2_048;
      request = { Maestro.Pipeline.default_request with cores = 4 };
    }
  in
  let run () =
    let tier = Result.get_ok (Cluster.Tier.build ~config nf) in
    Alcotest.(check int) "front key found in one attempt" 1 (Cluster.Tier.key_attempts tier);
    Alcotest.(check int) "front key free bits" 612 (Cluster.Tier.key_free_bits tier);
    (tier, Test_differential.check_tier_run tier nf trace)
  in
  let steady, s = run () in
  Alcotest.(check int) "maglev table slots" 251 (Cluster.Maglev.size (Cluster.Tier.table steady));
  Alcotest.(check bool) "steady: machine load within 2x of mean" true
    (s.Cluster.Tier.imbalance_x100 <= 200);
  Alcotest.(check int) "steady: machine load max/mean x100" 101 s.Cluster.Tier.imbalance_x100;
  let ce =
    Sim.Throughput.evaluate_cluster
      ~machine_shares:
        (Sim.Throughput.shares_of_counts (Array.of_list (List.map snd s.Cluster.Tier.machine_pkts)))
      (Cluster.Tier.plan steady) (Sim.Profile.of_trace nf trace) trace
  in
  Alcotest.(check bool) "model: the fleet realises >= 3.2 machines" true
    (ce.Sim.Throughput.scaleout >= 3.2);
  Alcotest.(check int) "model: machines realised x100" 393
    (x100 ce.Sim.Throughput.scaleout);
  Alcotest.(check int) "model: fleet mpps x100" 14773 (x100 ce.Sim.Throughput.cluster_mpps);
  (* each event reassigns at most 2/N of the slots, N the larger fleet
     of the two the event moves between *)
  let events_within_bound (s : Cluster.Tier.stats) =
    ignore
      (List.fold_left
         (fun n (e : Cluster.Tier.event_log) ->
           let after = if e.Cluster.Tier.action = Faults.Join then n + 1 else n - 1 in
           Alcotest.(check bool)
             (Printf.sprintf "event at epoch %d reassigns <= 2/%d of the slots"
                e.Cluster.Tier.at_epoch (max n after))
             true
             (e.Cluster.Tier.disruption <= 2.0 /. float_of_int (max n after));
           after)
         4 s.Cluster.Tier.events
        : int)
  in
  let _, s = with_fault_plan "join@4:4;leave@8:1" run in
  Alcotest.(check int) "churn: both events applied" 2 (List.length s.Cluster.Tier.events);
  events_within_bound s;
  Alcotest.(check int) "churn: flows moved" 870 s.Cluster.Tier.moved_flows;
  let fail_tier, s = with_fault_plan "fail@6:2" run in
  Alcotest.(check bool) "fail: fw admits a digest program" true
    (Cluster.Tier.scr_admissible fail_tier);
  events_within_bound s;
  Alcotest.(check int) "fail: flows moved" 550 s.Cluster.Tier.moved_flows;
  Alcotest.(check int) "fail: flows rebuilt from the digest log" 523 s.Cluster.Tier.rebuilt_flows

let suite =
  [
    Alcotest.test_case "maglev deterministic" `Quick test_maglev_deterministic;
    Alcotest.test_case "maglev balance and disruption" `Quick
      test_maglev_balance_and_disruption;
    Alcotest.test_case "machine events parse" `Quick test_machine_events_parse;
    Alcotest.test_case "machine events reject malformed" `Quick
      test_machine_events_reject_malformed;
    Alcotest.test_case "tier rejects shared-state rungs" `Quick
      test_tier_rejects_shared_state_rungs;
    Alcotest.test_case "tier: steady, join+leave and fail on 4x4" `Quick test_tier_fleet;
  ]
