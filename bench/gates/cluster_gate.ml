(* Cluster-tier smoke gate — the CI [cluster] matrix entry (entry point
   bench/cluster.ml).

   Exercises the front tier end to end on the firewall NF:

   - {e differential}: cluster verdicts must be positionally identical to
     a single-machine sequential run of the same trace — in steady state,
     across a join and a graceful leave (state migrated with
     {!Runtime.Balancer.migrate_by}), and across a machine failure whose
     replica is rebuilt from the SCR digest log.  This is the cluster
     statement of the paper's semantics-preservation contract.
   - {e minimal disruption}: maglev table reassignment on join/leave must
     stay under 2/N — both as a pure table property (swept over fleet
     sizes) and as measured flow movement under live traffic.
   - {e zero violations}: no packet may reach a down machine, and no flow
     may change machines without a churn event in between
     (state-sharing flows are never split, one level up from RSS).
   - {e pricing}: {!Sim.Throughput.evaluate_cluster} on the measured
     per-machine shares must price the fleet close to linear scale-out —
     the whole motivation for the tier (one box caps at the PCIe
     ceiling; ROADMAP item 4 wants past it).

   All cluster.* counters are deterministic (seeded keys, seeded trace,
   model-priced throughput); wall clock is reported under a [_ms] name
   the benchdiff timing policy excludes. *)

let machines = 4
let cores = 4
let nflows = 2_048
let body_pkts = 24_576
let epoch_pkts = 2_048

let agreement a b =
  let n = min (Array.length a) (Array.length b) in
  let ok = ref 0 in
  for i = 0 to n - 1 do
    let same =
      match (a.(i), b.(i)) with
      | Dsl.Interp.Dropped, Dsl.Interp.Dropped -> true
      | Dsl.Interp.Fwd (pa, oa), Dsl.Interp.Fwd (pb, ob) -> pa = pb && Packet.Pkt.equal oa ob
      | _ -> false
    in
    if same then incr ok
  done;
  !ok

let c_counter name doc v =
  let c = Telemetry.Counter.make name ~doc in
  Telemetry.Counter.add c v

let build_tier nf =
  let config =
    {
      Cluster.Tier.default_config with
      Cluster.Tier.machines;
      epoch_pkts;
      request = { Maestro.Pipeline.default_request with cores };
    }
  in
  match Cluster.Tier.build ~config nf with
  | Ok t -> t
  | Error e -> failwith ("cluster gate: " ^ e)

let run_scenario nf trace fault_plan =
  (match fault_plan with
  | None -> Faults.clear ()
  | Some spec -> (
      match Faults.parse spec with
      | Ok plan -> Faults.install plan
      | Error e -> failwith e));
  let tier = build_tier nf in
  let verdicts, stats = Cluster.Tier.run tier trace in
  Faults.clear ();
  (tier, verdicts, stats)

let run ?(out = "BENCH_cluster.json") () =
  let failures = ref 0 in
  let check name ok =
    Printf.printf "%-58s %s\n%!" name (if ok then "ok" else "FAIL");
    if not ok then incr failures
  in
  Telemetry.reset ();
  Telemetry.enable ();
  let t0 = Unix.gettimeofday () in
  let nf = Nfs.Registry.find_exn "fw" in
  let rng = Random.State.make [| 0xc105e4 |] in
  let flows = Traffic.Gen.flows rng nflows in
  let spec = { Traffic.Gen.default_spec with pkts = body_pkts } in
  let trace, _warmup = Traffic.Gen.steady_uniform ~spec rng ~flows in
  let seq = Runtime.Parallel.run_sequential nf trace in

  (* pure maglev properties first: balance and minimal disruption over a
     sweep of fleet sizes *)
  let maglev_checks = ref 0 in
  for n = 2 to 8 do
    let ids = List.init n Fun.id in
    let base = Cluster.Maglev.build ~machines:ids () in
    let joined = Cluster.Maglev.build ~machines:(ids @ [ n ]) () in
    let left = Cluster.Maglev.build ~machines:(List.tl ids) () in
    let shares = Cluster.Maglev.shares base |> List.map snd in
    let max_s = List.fold_left Float.max 0.0 shares in
    incr maglev_checks;
    check
      (Printf.sprintf "maglev n=%d: balanced (max share %.3f)" n max_s)
      (max_s <= 2.0 /. float_of_int n);
    check
      (Printf.sprintf "maglev n=%d: join disruption <= 2/%d" n (n + 1))
      (Cluster.Maglev.disruption base joined <= 2.0 /. float_of_int (n + 1));
    check
      (Printf.sprintf "maglev n=%d: leave disruption <= 2/%d" n n)
      (Cluster.Maglev.disruption base left <= 2.0 /. float_of_int n)
  done;

  (* scenario A: steady fleet, no churn *)
  let tier_a, v_a, s_a = run_scenario nf trace None in
  check "steady: cluster verdicts identical to sequential" (seq = v_a);
  check "steady: front-tier key matches every packet" (s_a.Cluster.Tier.unmatched = 0);
  check "steady: no packet reached a down machine" (s_a.Cluster.Tier.dead_hits = 0);
  check "steady: no flow split across machines" (s_a.Cluster.Tier.affinity_violations = 0);
  check "steady: machine load within 2x of mean" (s_a.Cluster.Tier.imbalance_x100 <= 200);

  (* scenario B: join then graceful leave, state migrated live *)
  let _, v_b, s_b = run_scenario nf trace (Some "join@4:4;leave@8:1") in
  check "churn: verdicts survive join + leave migrations" (seq = v_b);
  check "churn: both events applied" (List.length s_b.Cluster.Tier.events = 2);
  List.iter
    (fun (e : Cluster.Tier.event_log) ->
      let n_after =
        match e.action with Faults.Join -> machines + 1 | _ -> machines
      in
      check
        (Printf.sprintf "churn: %s@%d reassigned <= 2/%d of slots"
           (match e.action with
           | Faults.Join -> "join"
           | Faults.Leave -> "leave"
           | Faults.Fail -> "fail")
           e.at_epoch n_after)
        (e.disruption <= 2.0 /. float_of_int n_after))
    s_b.Cluster.Tier.events;
  check "churn: migration moved flows" (s_b.Cluster.Tier.moved_flows > 0);
  check "churn: no flow dropped in migration" (s_b.Cluster.Tier.dropped_flows = 0);
  check "churn: no packet reached a down machine" (s_b.Cluster.Tier.dead_hits = 0);
  check "churn: no flow split between events" (s_b.Cluster.Tier.affinity_violations = 0);

  (* scenario C: machine failure, replica rebuilt from the digest log *)
  let tier_c, v_c, s_c = run_scenario nf trace (Some "fail@6:2") in
  check "fail: firewall admits a digest program" (Cluster.Tier.scr_admissible tier_c);
  check "fail: verdicts survive the crash rebuild" (seq = v_c);
  check "fail: zero flows lost" (s_c.Cluster.Tier.lost_flows = 0);
  check "fail: replica rebuilt from digests" (s_c.Cluster.Tier.rebuilt_flows > 0);
  check "fail: no packet reached the dead machine" (s_c.Cluster.Tier.dead_hits = 0);

  (* pricing: the measured steady-state shares through the cluster law *)
  let profile = Sim.Profile.of_trace nf trace in
  let counts =
    s_a.Cluster.Tier.machine_pkts |> List.map snd |> Array.of_list
  in
  let ce =
    Sim.Throughput.evaluate_cluster
      ~machine_shares:(Sim.Throughput.shares_of_counts counts)
      (Cluster.Tier.plan tier_a) profile trace
  in
  Printf.printf "model: one machine %.2f mpps, fleet of %d %.2f mpps (x%.2f)\n%!"
    ce.Sim.Throughput.per_machine.Sim.Throughput.mpps machines ce.Sim.Throughput.cluster_mpps
    ce.Sim.Throughput.scaleout;
  check "model: fleet realizes >= 3.2 machines of capacity"
    (ce.Sim.Throughput.scaleout >= 0.8 *. float_of_int machines);
  let run_ms = (Unix.gettimeofday () -. t0) *. 1e3 in

  c_counter "cluster.machines" "fleet size" machines;
  c_counter "cluster.pkts" "packets per scenario trace" (Array.length trace);
  c_counter "cluster.flows" "distinct flows in the trace" nflows;
  c_counter "cluster.maglev_table_slots" "maglev table size"
    (Cluster.Maglev.size (Cluster.Tier.table tier_a));
  c_counter "cluster.maglev_checks" "fleet sizes swept for table properties" !maglev_checks;
  c_counter "cluster.verdict_agreement" "verdicts agreeing with sequential, all scenarios"
    (agreement seq v_a + agreement seq v_b + agreement seq v_c);
  c_counter "cluster.moved_flows" "flows migrated between machines (join+leave+fail)"
    (s_b.Cluster.Tier.moved_flows + s_c.Cluster.Tier.moved_flows);
  c_counter "cluster.rebuilt_flows" "flows rebuilt from the SCR digest log"
    s_c.Cluster.Tier.rebuilt_flows;
  c_counter "cluster.dropped_flows" "flows dropped in migration (must be 0)"
    (s_b.Cluster.Tier.dropped_flows + s_c.Cluster.Tier.dropped_flows);
  c_counter "cluster.lost_flows" "flows lost to machine failure (must be 0)"
    s_c.Cluster.Tier.lost_flows;
  c_counter "cluster.dead_hits" "packets steered to down machines (must be 0)"
    (s_a.Cluster.Tier.dead_hits + s_b.Cluster.Tier.dead_hits + s_c.Cluster.Tier.dead_hits);
  c_counter "cluster.affinity_violations" "flows split without a churn event (must be 0)"
    (s_a.Cluster.Tier.affinity_violations + s_b.Cluster.Tier.affinity_violations
   + s_c.Cluster.Tier.affinity_violations);
  c_counter "cluster.imbalance_x100" "steady-state machine load max/mean, x100"
    s_a.Cluster.Tier.imbalance_x100;
  c_counter "cluster.front_key_attempts" "front-tier RS3 sampling rounds"
    (Cluster.Tier.key_attempts tier_a);
  c_counter "cluster.front_key_free_bits" "front-tier key solution-space dimension"
    (Cluster.Tier.key_free_bits tier_a);
  c_counter "cluster.model_scaleout_x100" "machines of capacity realized, x100 (gated)"
    (int_of_float (Float.round (ce.Sim.Throughput.scaleout *. 100.0)));
  c_counter "cluster.model_cluster_mpps_x100" "model fleet throughput, mpps x100"
    (int_of_float (Float.round (ce.Sim.Throughput.cluster_mpps *. 100.0)));
  c_counter "cluster.run_ms" "gate wall clock, milliseconds"
    (int_of_float (Float.round run_ms));

  Telemetry.disable ();
  let oc = open_out out in
  output_string oc (Telemetry.to_json ~name:"cluster" (Telemetry.snapshot ()));
  close_out oc;
  Printf.printf "telemetry written to %s\n" out;
  if !failures > 0 then Printf.printf "%d violation(s)\n" !failures
  else print_endline "cluster smoke: fleet preserves sequential semantics under churn";
  !failures
