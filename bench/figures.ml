(* Reproduction of every table and figure of the paper's evaluation.
   Each function prints the series the corresponding figure plots; expected
   shapes are recorded in EXPERIMENTS.md and asserted by
   test/test_experiments.ml. *)

let core_counts = [ 1; 2; 4; 8; 16 ]

let printf = Format.printf

let plan_for ?(seed = 0xbeef) ?(strategy = `Auto) nf cores =
  let request = { Maestro.Pipeline.default_request with cores; strategy; seed } in
  (Maestro.Pipeline.parallelize_exn ~request nf).Maestro.Pipeline.plan

let gbps_of ?balanced_reta ?params plan profile trace =
  (Sim.Throughput.evaluate ?balanced_reta ?params plan profile trace).Sim.Throughput.gbps

let header title = printf "@.=== %s ===@." title

(* --- Fig. 2: Constraints Generator outputs -------------------------------- *)

let fig2 () =
  header "Figure 2: Constraints Generator example outputs";
  List.iter
    (fun nf ->
      let report = Maestro.Report.build (Symbex.Exec.run nf) in
      printf "@[<v 2>%s:@ %a@]@." nf.Dsl.Ast.name Maestro.Sharding.pp_decision
        (Maestro.Sharding.decide report))
    (Nfs.Scenarios.all ())

(* --- Fig. 3: firewall SR -> sharding constraints --------------------------- *)

let fig3 () =
  header "Figure 3: from the firewall's stateful report to its constraints";
  let nf = Nfs.Registry.find_exn "fw" in
  let model = Symbex.Exec.run nf in
  let report = Maestro.Report.build model in
  printf "%a@." Maestro.Report.pp report;
  printf "%a@." Maestro.Sharding.pp_decision (Maestro.Sharding.decide report);
  let plan = plan_for nf 16 in
  printf "@.%s@." (Maestro.Codegen.emit_rss_keys plan)

(* --- Fig. 5: shared-nothing FW under uniform vs Zipfian traffic ------------ *)

let fig5 () =
  header "Figure 5: shared-nothing firewall, uniform vs Zipfian traffic (Gbps)";
  let uniform = Sim.Workload.read_heavy ~pkts:50_000 ~flows:1000 "fw" in
  let zipf = Sim.Workload.zipf ~pkts:50_000 "fw" in
  let p_uni = Sim.Workload.profile_of uniform in
  let p_zipf = Sim.Workload.profile_of zipf in
  let seeds = [ 0xbeef; 0xcafe; 0xd00d; 0xf00d; 0xfeed ] in
  printf "cores |  uniform       | zipf (min..max) | zipf balanced (min..max)@.";
  List.iter
    (fun cores ->
      let series profile trace balanced =
        let gs =
          List.map
            (fun seed ->
              let plan = plan_for ~seed (Nfs.Registry.find_exn "fw") cores in
              gbps_of ~balanced_reta:balanced plan profile trace)
            seeds
        in
        (List.fold_left Float.min infinity gs, List.fold_left Float.max 0.0 gs)
      in
      let u_min, u_max = series p_uni uniform.Sim.Workload.trace false in
      let z_min, z_max = series p_zipf zipf.Sim.Workload.trace false in
      let b_min, b_max = series p_zipf zipf.Sim.Workload.trace true in
      printf "%5d | %5.1f..%5.1f | %5.1f..%5.1f    | %5.1f..%5.1f@." cores u_min u_max z_min
        z_max b_min b_max)
    core_counts

(* --- Fig. 6: time to generate parallel implementations --------------------- *)

let fig6 () =
  header "Figure 6: Maestro generation time per NF (10 runs)";
  printf "%-9s %10s %10s %10s %10s %10s %10s@." "nf" "total-ms" "symbex" "report" "sharding"
    "solving" "codegen";
  List.iter
    (fun name ->
      let nf = Nfs.Registry.find_exn name in
      let runs =
        List.init 10 (fun i ->
            let request = { Maestro.Pipeline.default_request with seed = 0x1000 + i } in
            (Maestro.Pipeline.parallelize_exn ~request nf).Maestro.Pipeline.timing)
      in
      let avg f = List.fold_left (fun a t -> a +. f t) 0.0 runs /. 10.0 *. 1000.0 in
      printf "%-9s %10.2f %10.2f %10.2f %10.2f %10.2f %10.2f@." name
        (avg Maestro.Pipeline.total_s)
        (avg (fun t -> t.Maestro.Pipeline.symbex_s))
        (avg (fun t -> t.Maestro.Pipeline.report_s))
        (avg (fun t -> t.Maestro.Pipeline.sharding_s))
        (avg (fun t -> t.Maestro.Pipeline.solving_s))
        (avg (fun t -> t.Maestro.Pipeline.codegen_s)))
    Nfs.Registry.names

(* --- Table 1: stateful constructors ---------------------------------------- *)

let table1 () =
  header "Table 1: stateful constructors supported by Maestro";
  List.iter
    (fun (name, desc) -> printf "%-8s %s@." name desc)
    [
      ("map", "Stores integers indexed by arbitrary data.");
      ("vector", "Stores arbitrary data indexed by integers.");
      ("dchain", "Time-aware integer allocator.");
      ("sketch", "Count-min sketch.");
    ]

(* --- Fig. 8: NOP throughput vs packet size --------------------------------- *)

let fig8 () =
  header "Figure 8: parallel NOP on 16 cores vs packet size";
  printf "size(B) |   Gbps |   Mpps | bottleneck@.";
  List.iter
    (fun size ->
      let w = Sim.Workload.read_heavy ~flows:40_000 ~pkts:40_000 ~size "nop" in
      let profile = Sim.Workload.profile_of w in
      let plan = plan_for w.Sim.Workload.nf 16 in
      let e = Sim.Throughput.evaluate plan profile w.Sim.Workload.trace in
      printf "%7d | %6.1f | %6.1f | %s@." size e.Sim.Throughput.gbps e.Sim.Throughput.mpps
        (Sim.Throughput.bottleneck_name e.Sim.Throughput.bottleneck))
    Traffic.Gen.packet_sizes

(* --- Fig. 9: FW churn study ------------------------------------------------ *)

let churn_levels = [ 0.0; 100.0; 1_000.0; 10_000.0; 100_000.0; 1_000_000.0 ]

let fig9 () =
  header "Figure 9: firewall under churn (Gbps; churn reported in flows/minute at the achieved rate)";
  List.iter
    (fun (label, strategy) ->
      printf "@.[%s]@." label;
      printf "%14s" "rel-churn f/Gb";
      List.iter (fun c -> printf " | %9s" (Printf.sprintf "%d cores" c)) core_counts;
      printf "@.";
      List.iter
        (fun flows_per_gbit ->
          let spec =
            {
              Traffic.Churn.default_spec with
              Traffic.Churn.active_flows = 4096;
              flows_per_gbit;
              pkts = 50_000;
            }
          in
          let trace = Traffic.Churn.trace (Random.State.make [| 77 |]) spec in
          let nf = Nfs.Registry.find_exn "fw" in
          let profile = Sim.Profile.of_trace ~skip:spec.Traffic.Churn.active_flows nf trace in
          printf "%14.0f" flows_per_gbit;
          List.iter
            (fun cores ->
              let plan = plan_for ~strategy nf cores in
              let e = Sim.Throughput.evaluate plan profile trace in
              let fpm = Traffic.Churn.absolute_churn_fpm spec ~gbps:e.Sim.Throughput.gbps in
              printf " | %5.1fG%s" e.Sim.Throughput.gbps
                (if fpm > 0.0 then Printf.sprintf "/%.0em" fpm else "    "))
            core_counts;
          printf "@.")
        churn_levels)
    [ ("shared-nothing", `Auto); ("lock-based", `Force_locks); ("transactional memory", `Force_tm) ]

(* --- Fig. 10: scalability of all 8 NFs ------------------------------------- *)

let scalability ~title ~workload ?(balanced = false) () =
  header title;
  List.iter
    (fun name ->
      let w : Sim.Workload.t = workload name in
      let profile = Sim.Workload.profile_of w in
      printf "@.%s  (%a)@." w.Sim.Workload.label Sim.Profile.pp profile;
      List.iter
        (fun (label, strategy) ->
          let skip =
            (* unshardable NFs: `Auto now lands on the SCR rung, so both
               forced rows below it stay informative; only skip the scr
               row when `Auto already produced it *)
            match (strategy, Nfs.Registry.expected_strategy name) with
            | `Force_scr, `Locks ->
                Result.is_ok (Maestro.Scrspec.admissible w.Sim.Workload.nf)
            | _ -> false
          in
          if not skip then begin
            printf "  %-16s" label;
            List.iter
              (fun cores ->
                let plan = plan_for ~strategy w.Sim.Workload.nf cores in
                printf " %6.1fG"
                  (gbps_of ~balanced_reta:balanced plan profile w.Sim.Workload.trace))
              core_counts;
            printf "@."
          end)
        [ ("auto", `Auto); ("scr", `Force_scr); ("locks", `Force_locks); ("tm", `Force_tm) ])
    Nfs.Registry.names

let fig10 () =
  scalability
    ~title:
      "Figure 10: scalability, uniform read-heavy 64B traffic (cores: 1 2 4 8 16)"
    ~workload:(fun name -> Sim.Workload.read_heavy name)
    ()

let fig14 () =
  scalability
    ~title:"Figure 14: scalability, Zipfian read-heavy 64B traffic, balanced tables"
    ~workload:(fun name -> Sim.Workload.zipf name)
    ~balanced:true ()

(* --- Fig. 11: VPP comparison ------------------------------------------------ *)

let fig11 () =
  header "Figure 11: NAT — Maestro (shared-nothing, lock-based) vs VPP nat44-ei";
  let w = Sim.Workload.read_heavy "nat" in
  let profile = Sim.Workload.profile_of w in
  let row label f =
    printf "%-24s" label;
    List.iter (fun cores -> printf " %6.1fG" (f cores)) core_counts;
    printf "@."
  in
  row "maestro shared-nothing" (fun cores ->
      gbps_of (plan_for w.Sim.Workload.nf cores) profile w.Sim.Workload.trace);
  row "maestro lock-based" (fun cores ->
      gbps_of (plan_for ~strategy:`Force_locks w.Sim.Workload.nf cores) profile
        w.Sim.Workload.trace);
  row "vpp nat44-ei" (fun cores ->
      gbps_of ~params:Vpp.Nat44.cost_params
        (plan_for ~strategy:`Force_locks w.Sim.Workload.nf cores)
        profile w.Sim.Workload.trace);
  (* sanity: the functional VPP NAT really translates this workload (the
     full trace, so replies target sessions it allocated itself) *)
  let vpp = Vpp.Nat44.create () in
  let verdicts = Vpp.Nat44.run vpp w.Sim.Workload.trace in
  let sent = Array.fold_left (fun a v -> match v with Vpp.Graph.Sent _ -> a + 1 | _ -> a) 0 verdicts in
  printf "(functional check: vpp forwarded %d/%d packets, %d sessions)@." sent
    (Array.length verdicts) (Vpp.Nat44.sessions vpp)

(* --- §6.4 latency ----------------------------------------------------------- *)

let latency () =
  header "Latency (1 Gbps background, 1000 probes)";
  printf "%-9s %-16s %12s %12s %12s@." "nf" "strategy" "avg(us)" "p99(us)" "stddev";
  List.iter
    (fun name ->
      let w = Sim.Workload.read_heavy name in
      let profile = Sim.Workload.profile_of w in
      List.iter
        (fun (label, strategy) ->
          let plan = plan_for ~strategy w.Sim.Workload.nf 16 in
          let s = Sim.Latency.probe plan profile in
          printf "%-9s %-16s %12.1f %12.1f %12.1f@." name label s.Sim.Latency.avg_us
            s.Sim.Latency.p99_us s.Sim.Latency.stddev_us)
        [ ("sequential", `Auto); ("parallel-auto", `Auto); ("parallel-locks", `Force_locks) ])
    Nfs.Registry.names

(* --- ablations --------------------------------------------------------------- *)

let ext_hhh () =
  header "Extension: hierarchical heavy hitter (prefix sharding, §3.5's hard case)";
  let w = Sim.Workload.read_heavy "hhh" in
  let profile = Sim.Workload.profile_of w in
  printf "decision: %a@."
    Maestro.Sharding.pp_decision
    (Maestro.Sharding.decide (Maestro.Report.build (Symbex.Exec.run w.Sim.Workload.nf)));
  printf "  %-16s" "auto";
  List.iter
    (fun cores ->
      let plan = plan_for w.Sim.Workload.nf cores in
      printf " %6.1fG" (gbps_of plan profile w.Sim.Workload.trace))
    core_counts;
  printf "@.";
  printf "  %-16s" "locks";
  List.iter
    (fun cores ->
      let plan = plan_for ~strategy:`Force_locks w.Sim.Workload.nf cores in
      printf " %6.1fG" (gbps_of plan profile w.Sim.Workload.trace))
    core_counts;
  printf "@."

let ext_attack () =
  header "Extension: §5 state-sharding attack and the key-randomization defense";
  let rng = Random.State.make [| 1337 |] in
  let nf = Nfs.Registry.find_exn "fw" in
  let victim = plan_for ~seed:0xbeef nf 16 in
  let redeployed = plan_for ~seed:0xfeed nf 16 in
  let field_set = victim.Maestro.Plan.rss.(0).Maestro.Plan.field_set in
  let key = victim.Maestro.Plan.rss.(0).Maestro.Plan.key in
  (* the attacker knows the victim's key: craft flows colliding on one hash *)
  let attack =
    Rs3.Attack.colliding_packets ~key ~field_set ~target_hash:0x0badcafe ~rng ~n:2000
    |> Array.of_list
  in
  let spread plan =
    let counts = Runtime.Parallel.dispatch_counts plan attack in
    let busiest = Array.fold_left max 0 counts in
    (float_of_int busiest /. float_of_int (Array.length attack), counts)
  in
  printf "attack set: %d crafted flows, collision rate %.3f under the victim key@."
    (Array.length attack)
    (Rs3.Attack.collision_rate ~key ~field_set (Array.to_list attack));
  let frac_victim, _ = spread victim in
  let frac_redeploy, _ = spread redeployed in
  printf "share of attack traffic on the busiest core:@.";
  printf "  victim key (known to the attacker): %5.1f%%  <- one core takes it all@."
    (100.0 *. frac_victim);
  printf "  re-randomized key (same constraints): %5.1f%%  <- defense restored@."
    (100.0 *. frac_redeploy)

let ext_rsspp () =
  header "Extension: dynamic RSS++ rebalancing under shifting skew (shared-nothing FW, 8 cores)";
  (* Zipfian traffic whose elephant set changes halfway through the run *)
  let rng = Random.State.make [| 99 |] in
  let z = Traffic.Zipf.paper () in
  let fs = Traffic.Gen.flows rng 1000 in
  let spec = { Traffic.Gen.default_spec with Traffic.Gen.pkts = 24_000; reply_fraction = 0.0 } in
  let first = Traffic.Zipf.trace ~spec rng z ~flows:fs in
  let second = Traffic.Zipf.trace ~spec rng z ~flows:(List.rev fs) in
  let trace = Array.append first second in
  let plan = plan_for (Nfs.Registry.find_exn "fw") 8 in
  (* the pool with rebalancing off, then on at every epoch boundary *)
  let pool = Runtime.Pool.create ~cores:8 () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
  let imbalance policy =
    ignore (Runtime.Pool.run ~policy pool plan trace);
    let s = Runtime.Pool.stats pool in
    ( Array.map Runtime.Balancer.imbalance_of
        (Runtime.Balancer.epoch_counts ~cores:8 ~epoch_pkts:6000 s.Runtime.Pool.last_assignment),
      s )
  in
  let static, _ = imbalance Runtime.Pool.Static in
  let dynamic, s =
    imbalance (Runtime.Pool.Rebalance { Runtime.Balancer.epoch_pkts = 6000; threshold = 0.0 })
  in
  printf "epoch | static imbalance | dynamic imbalance@.";
  Array.iteri (fun e s -> printf "%5d | %16.2f | %17.2f@." e s dynamic.(e)) static;
  printf "migrations: %d buckets, %d flow states moved across cores@."
    s.Runtime.Pool.migrated_buckets s.Runtime.Pool.migrated_flows

let ext_churn () =
  header "Extension: churn smoke — SCR vs lock rung on the domain pool (BENCH_churn.json)";
  let failures = Gates.Churn_gate.run () in
  if failures > 0 then printf "churn gate: %d violation(s) (non-fatal in the bench tour)@." failures

let ext_adaptive () =
  header
    "Extension: adaptive smoke — discipline switching vs both static rungs (BENCH_adaptive.json)";
  let failures = Gates.Adaptive_gate.run () in
  if failures > 0 then
    printf "adaptive gate: %d violation(s) (non-fatal in the bench tour)@." failures

let ext_chain () =
  header "Extension: service chain — fused single-pass vs back-to-back NFs (BENCH_chain.json)";
  List.iter
    (fun chain ->
      let report = Maestro.Report.build (Symbex.Exec.run (Dsl.Chain.nf chain)) in
      printf "@[<v 2>%s:@ %a@]@." chain.Dsl.Chain.name Maestro.Sharding.pp_decision
        (Maestro.Sharding.decide report))
    (Nfs.Scenarios.chains ());
  let failures = Gates.Chain_gate.run () in
  if failures > 0 then printf "chain gate: %d violation(s) (non-fatal in the bench tour)@." failures

let ablation_nic () =
  header "Ablation: NIC capability vs parallelization strategy (E810 subset/flex hashing vs rigid X710)";
  printf "%-9s %-18s %-18s@." "nf" "E810" "X710";
  List.iter
    (fun name ->
      let nf = Nfs.Registry.find_exn name in
      let strat nic =
        let request = { Maestro.Pipeline.default_request with nic } in
        let o = Maestro.Pipeline.parallelize_exn ~request nf in
        Maestro.Plan.strategy_name o.Maestro.Pipeline.plan.Maestro.Plan.strategy
      in
      printf "%-9s %-18s %-18s@." name (strat Nic.Model.E810) (strat Nic.Model.X710))
    Nfs.Registry.extended_names

let ablation_rs3 () =
  header "Ablation: RS3 GF(2) elimination vs SAT MaxSAT backend (firewall problem)";
  List.iter
    (fun (label, backend) ->
      let t0 = Unix.gettimeofday () in
      let outcomes =
        List.init 5 (fun i ->
            let request =
              { Maestro.Pipeline.default_request with solver = backend; seed = 0x2000 + i }
            in
            Maestro.Pipeline.parallelize_exn ~request (Nfs.Registry.find_exn "fw"))
      in
      let dt = (Unix.gettimeofday () -. t0) /. 5.0 *. 1000.0 in
      let ones =
        List.fold_left
          (fun acc o ->
            let plan = o.Maestro.Pipeline.plan in
            acc
            + Array.fold_left
                (fun a (r : Maestro.Plan.port_rss) -> a + Bitvec.popcount r.Maestro.Plan.key)
                0 plan.Maestro.Plan.rss)
          0 outcomes
        / 5
      in
      printf "%-8s: %8.2f ms/solve, %d key bits set (of %d)@." label dt ones (2 * 416))
    [ ("gauss", `Gauss); ("sat", `Sat) ]

let ablation_rejuv () =
  header "Ablation: per-core aging replicas vs naive write-lock rejuvenation (lock-based FW)";
  let w = Sim.Workload.read_heavy "fw" in
  let profile = Sim.Workload.profile_of w in
  (* naive rejuvenation turns every rejuvenating packet into a writer *)
  let naive =
    {
      profile with
      Sim.Profile.write_pkt_fraction = 1.0;
      writes_per_pkt = profile.Sim.Profile.writes_per_pkt +. 1.0;
    }
  in
  printf "cores | per-core aging | naive write-lock@.";
  List.iter
    (fun cores ->
      let plan = plan_for ~strategy:`Force_locks w.Sim.Workload.nf cores in
      printf "%5d | %9.1fG | %9.1fG@." cores
        (gbps_of plan profile w.Sim.Workload.trace)
        (gbps_of plan naive w.Sim.Workload.trace))
    core_counts

let ablation_shard () =
  header "Ablation: state sharding (capacity split) vs full-size replicas (shared-nothing FW)";
  let w = Sim.Workload.read_heavy "fw" in
  let profile = Sim.Workload.profile_of w in
  printf "cores | split ws/core | replica ws/core | split Gbps | cycles split/replica@.";
  List.iter
    (fun cores ->
      let plan = plan_for w.Sim.Workload.nf cores in
      let machine = Sim.Machine.xeon_6226r in
      let ws_split = Sim.Cost.working_set_bytes profile ~shards:cores in
      let ws_replica = Sim.Cost.working_set_bytes profile ~shards:1 in
      let c_split = Sim.Cost.packet_cycles machine profile ~ws_bytes:ws_split in
      let c_replica = Sim.Cost.packet_cycles machine profile ~ws_bytes:ws_replica in
      printf "%5d | %10.0fKB | %12.0fKB | %9.1fG | %7.0f / %7.0f@." cores (ws_split /. 1024.)
        (ws_replica /. 1024.)
        (gbps_of plan profile w.Sim.Workload.trace)
        c_split c_replica)
    core_counts

let ablation_spec () =
  header "Ablation: speculative read path vs pessimistic write locks (lock-based FW)";
  let w = Sim.Workload.read_heavy "fw" in
  let profile = Sim.Workload.profile_of w in
  let pessimistic = { profile with Sim.Profile.write_pkt_fraction = 1.0 } in
  printf "cores | speculative | pessimistic@.";
  List.iter
    (fun cores ->
      let plan = plan_for ~strategy:`Force_locks w.Sim.Workload.nf cores in
      printf "%5d | %8.1fG | %8.1fG@." cores
        (gbps_of plan profile w.Sim.Workload.trace)
        (gbps_of plan pessimistic w.Sim.Workload.trace))
    core_counts
