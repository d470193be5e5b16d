(* Cluster front tier: maglev table properties, machine-churn fault
   events, and the rungs a tier refuses.  Tier runs under join, leave and
   failure are the differential harness's cells. *)

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

let test_maglev_balance_and_disruption () =
  let ids = [ 0; 1; 2; 3; 4 ] in
  let t = Cluster.Maglev.build ~machines:ids () in
  List.iter
    (fun (_, share) ->
      Alcotest.(check bool) "share within 2x of fair" true (share <= 2.0 /. 5.0))
    (Cluster.Maglev.shares t);
  let sum = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 (Cluster.Maglev.shares t) in
  Alcotest.(check (float 1e-9)) "shares sum to 1" 1.0 sum;
  let joined = Cluster.Maglev.build ~machines:(ids @ [ 5 ]) () in
  Alcotest.(check bool) "join disruption <= 2/6" true
    (Cluster.Maglev.disruption t joined <= 2.0 /. 6.0);
  let left = Cluster.Maglev.build ~machines:[ 1; 2; 3; 4 ] () in
  Alcotest.(check bool) "leave disruption <= 2/5" true
    (Cluster.Maglev.disruption t left <= 2.0 /. 5.0);
  (* survivors keep their surviving slots: a departed machine's slots are
     the only ones that must move *)
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
  ]
