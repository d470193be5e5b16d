(* End-to-end pipeline tests: Maestro's decisions match the paper for every
   evaluated NF, generated RSS keys realize the sharding, and the emitted C
   carries the right structure. *)

let outcome_of name =
  Maestro.Pipeline.parallelize_exn (Nfs.Registry.find_exn name)

let strategy_of name = (outcome_of name).Maestro.Pipeline.plan.Maestro.Plan.strategy

(* The registry records the paper's table (shared-nothing / locks /
   read-only); with the SCR rung between sharding and the lock, every NF
   the paper sent to locks now takes SCR instead whenever its update
   digest fits the replication budget. *)
let test_decisions_match_paper () =
  List.iter
    (fun name ->
      let expected =
        match Nfs.Registry.expected_strategy name with
        | `Shared_nothing -> Maestro.Plan.Shared_nothing
        | `Locks -> (
            match Maestro.Scrspec.admissible (Nfs.Registry.find_exn name) with
            | Ok _ -> Maestro.Plan.Scr
            | Error _ -> Maestro.Plan.Lock_based)
        | `Read_only_lb -> Maestro.Plan.Load_balance
      in
      let actual = strategy_of name in
      Alcotest.(check string)
        (Printf.sprintf "strategy for %s" name)
        (Maestro.Plan.strategy_name expected)
        (Maestro.Plan.strategy_name actual))
    Nfs.Registry.names

let test_blocked_nfs_carry_warnings () =
  List.iter
    (fun name ->
      let o = outcome_of name in
      Alcotest.(check bool)
        (Printf.sprintf "%s explains itself" name)
        true
        (o.Maestro.Pipeline.plan.Maestro.Plan.warnings <> []))
    [ "dbridge"; "lb" ]

let test_forced_strategies () =
  let request = { Maestro.Pipeline.default_request with strategy = `Force_locks } in
  let o = Maestro.Pipeline.parallelize_exn ~request (Nfs.Registry.find_exn "fw") in
  Alcotest.(check string) "forced locks" "lock-based"
    (Maestro.Plan.strategy_name o.Maestro.Pipeline.plan.Maestro.Plan.strategy);
  let request = { Maestro.Pipeline.default_request with strategy = `Force_tm } in
  let o = Maestro.Pipeline.parallelize_exn ~request (Nfs.Registry.find_exn "fw") in
  Alcotest.(check string) "forced tm" "transactional-memory"
    (Maestro.Plan.strategy_name o.Maestro.Pipeline.plan.Maestro.Plan.strategy);
  let request = { Maestro.Pipeline.default_request with strategy = `Force_scr } in
  let o = Maestro.Pipeline.parallelize_exn ~request (Nfs.Registry.find_exn "fw") in
  Alcotest.(check string) "forced scr" "state-compute-replication"
    (Maestro.Plan.strategy_name o.Maestro.Pipeline.plan.Maestro.Plan.strategy);
  Alcotest.(check string) "forced scr rung" "state-compute-replication"
    (Maestro.Ladder.rung_name o.Maestro.Pipeline.ladder.Maestro.Ladder.chosen);
  (* a read-only NF has nothing to replicate updates for: forcing SCR
     walks past the rejected rung down to the lock *)
  let o = Maestro.Pipeline.parallelize_exn ~request (Nfs.Registry.find_exn "sbridge") in
  Alcotest.(check string) "scr inadmissible falls to lock" "lock-based"
    (Maestro.Plan.strategy_name o.Maestro.Pipeline.plan.Maestro.Plan.strategy)

let test_fw_keys_realize_symmetry () =
  let o = outcome_of "fw" in
  let plan = o.Maestro.Pipeline.plan in
  let rss0 = Maestro.Plan.rss_engine plan 0 and rss1 = Maestro.Plan.rss_engine plan 1 in
  let rng = Random.State.make [| 3 |] in
  for _ = 1 to 200 do
    let p =
      Packet.Pkt.make ~port:0
        ~ip_src:(Random.State.int rng 0x3fffffff)
        ~ip_dst:(Random.State.int rng 0x3fffffff)
        ~src_port:(Random.State.int rng 0x10000)
        ~dst_port:(Random.State.int rng 0x10000)
        ()
    in
    let reply = Packet.Pkt.with_port (Packet.Pkt.flip p) 1 in
    Alcotest.(check int) "reply on same core" (Nic.Rss.dispatch rss0 p)
      (Nic.Rss.dispatch rss1 reply)
  done

let test_nat_keys_realize_server_sharding () =
  let o = outcome_of "nat" in
  let plan = o.Maestro.Pipeline.plan in
  let rss0 = Maestro.Plan.rss_engine plan 0 and rss1 = Maestro.Plan.rss_engine plan 1 in
  let rng = Random.State.make [| 4 |] in
  for _ = 1 to 200 do
    let server = Random.State.int rng 0x3fffffff and sport = Random.State.int rng 0x10000 in
    let lan =
      Packet.Pkt.make ~port:0
        ~ip_src:(Random.State.int rng 0x3fffffff)
        ~ip_dst:server
        ~src_port:(Random.State.int rng 0x10000)
        ~dst_port:sport ()
    in
    let wan =
      Packet.Pkt.make ~port:1 ~ip_src:server
        ~ip_dst:(Random.State.int rng 0x3fffffff)
        ~src_port:sport
        ~dst_port:(Random.State.int rng 0x10000)
        ()
    in
    Alcotest.(check int) "server meets its flows" (Nic.Rss.dispatch rss0 lan)
      (Nic.Rss.dispatch rss1 wan)
  done

let test_policer_keys_shard_by_user () =
  let o = outcome_of "policer" in
  let plan = o.Maestro.Pipeline.plan in
  let rss1 = Maestro.Plan.rss_engine plan 1 in
  let rng = Random.State.make [| 5 |] in
  for _ = 1 to 200 do
    let user = Random.State.int rng 0x3fffffff in
    let a =
      Packet.Pkt.make ~port:1
        ~ip_src:(Random.State.int rng 0x3fffffff)
        ~ip_dst:user
        ~src_port:(Random.State.int rng 0x10000)
        ~dst_port:(Random.State.int rng 0x10000)
        ()
    in
    let b =
      Packet.Pkt.make ~port:1
        ~ip_src:(Random.State.int rng 0x3fffffff)
        ~ip_dst:user
        ~src_port:(Random.State.int rng 0x10000)
        ~dst_port:(Random.State.int rng 0x10000)
        ()
    in
    Alcotest.(check int) "same user same core" (Nic.Rss.dispatch rss1 a) (Nic.Rss.dispatch rss1 b)
  done

let test_timing_is_recorded () =
  let o = outcome_of "fw" in
  Alcotest.(check bool) "total time positive" true
    (Maestro.Pipeline.total_s o.Maestro.Pipeline.timing > 0.0)

let test_emitted_c_structure () =
  let o = outcome_of "fw" in
  let code = Maestro.Codegen.emit_c o.Maestro.Pipeline.plan in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true
        (Astring_contains.contains code needle))
    [
      "RSS_HASH_PORT_0";
      "RSS_HASH_PORT_1";
      "rss_configure";
      "core_id";
      "map_get";
      "expire_items_single_map";
      "forward";
    ]

let test_emitted_c_locks_comment () =
  let request = { Maestro.Pipeline.default_request with strategy = `Force_locks } in
  let o = Maestro.Pipeline.parallelize_exn ~request (Nfs.Registry.find_exn "fw") in
  let code = Maestro.Codegen.emit_c o.Maestro.Pipeline.plan in
  Alcotest.(check bool) "speculative comment" true
    (Astring_contains.contains code "Speculative read path")

let test_scenarios_decisions () =
  let decisions =
    List.map
      (fun nf ->
        let o = Maestro.Pipeline.parallelize_exn nf in
        (nf.Dsl.Ast.name, o.Maestro.Pipeline.plan.Maestro.Plan.strategy))
      (Nfs.Scenarios.all ())
  in
  let expect name strategy =
    match List.assoc_opt name decisions with
    | Some s ->
        Alcotest.(check string) name
          (Maestro.Plan.strategy_name strategy)
          (Maestro.Plan.strategy_name s)
    | None -> Alcotest.fail ("missing scenario " ^ name)
  in
  (* unshardable write-heavy scenarios land on the SCR rung now (their
     digests are small); the lock is the fallback, not the default *)
  expect "fig2_key_equality" Maestro.Plan.Shared_nothing;
  expect "fig2_subsumption" Maestro.Plan.Shared_nothing;
  expect "fig2_disjoint" Maestro.Plan.Scr;
  expect "fig2_constant_key" Maestro.Plan.Scr;
  expect "fig2_interchangeable" Maestro.Plan.Shared_nothing

let test_psd_shards_on_source_only () =
  let o = outcome_of "psd" in
  let plan = o.Maestro.Pipeline.plan in
  (* rule R2: the source-IP requirement subsumes (source, port) *)
  let fields = Nic.Field_set.fields plan.Maestro.Plan.rss.(0).Maestro.Plan.field_set in
  Alcotest.(check bool) "src only" true (fields = [ Packet.Field.Ip_src ])

(* Extension: the prefix-sharded hierarchical heavy hitter (§3.5's hard
   case).  The /8 requirement must subsume the deeper levels (R2 over
   prefixes) and the generated key must collide exactly on the top 8 bits
   of the source address. *)
let test_hhh_prefix_sharding () =
  let o = outcome_of "hhh" in
  let plan = o.Maestro.Pipeline.plan in
  Alcotest.(check string) "shared-nothing" "shared-nothing"
    (Maestro.Plan.strategy_name plan.Maestro.Plan.strategy);
  let rss = Maestro.Plan.rss_engine plan 0 in
  let rng = Random.State.make [| 6 |] in
  for _ = 1 to 200 do
    let subnet = Random.State.int rng 256 in
    let mk () =
      Packet.Pkt.make ~port:0
        ~ip_src:((subnet lsl 24) lor Random.State.int rng 0xffffff)
        ~ip_dst:(Random.State.int rng 0x3fffffff)
        ~src_port:(Random.State.int rng 0x10000)
        ~dst_port:(Random.State.int rng 0x10000)
        ()
    in
    Alcotest.(check int) "same /8 meets" (Nic.Rss.dispatch rss (mk ()))
      (Nic.Rss.dispatch rss (mk ()))
  done;
  (* distinct /8s must spread over the cores *)
  let seen = Hashtbl.create 16 in
  for subnet = 0 to 255 do
    let p =
      Packet.Pkt.make ~port:0 ~ip_src:(subnet lsl 24) ~ip_dst:1 ~src_port:2 ~dst_port:3 ()
    in
    Hashtbl.replace seen (Nic.Rss.dispatch rss p) ()
  done;
  Alcotest.(check bool) "spreads over >8 cores" true (Hashtbl.length seen > 8)

let test_hhh_equivalence () =
  let nf = Nfs.Registry.find_exn "hhh" in
  let w = Sim.Workload.read_heavy ~pkts:3000 ~flows:500 "hhh" in
  let seq = Runtime.Parallel.run_sequential nf w.Sim.Workload.trace in
  let plan = (outcome_of "hhh").Maestro.Pipeline.plan in
  let par = Runtime.Parallel.run plan w.Sim.Workload.trace in
  (* per-core sketches count a subset of the sequential totals, so observable
     equivalence here is: nothing admitted in parallel was dropped
     sequentially for a *non-capacity* reason and vice versa; with budgets
     unreached, verdicts match exactly *)
  Alcotest.(check bool) "verdicts equal under budget" true
    (Array.for_all2 (fun a b -> a = b) seq par.Runtime.Parallel.verdicts)

let test_sat_solver_request () =
  let request = { Maestro.Pipeline.default_request with solver = `Sat } in
  let o = Maestro.Pipeline.parallelize_exn ~request (Nfs.Registry.find_exn "fw") in
  Alcotest.(check string) "still shared-nothing" "shared-nothing"
    (Maestro.Plan.strategy_name o.Maestro.Pipeline.plan.Maestro.Plan.strategy)

(* The solver's output is pinned: the default request returns exactly these
   keys.  Key validation hashes random probe packets drawn from the solve's
   RNG, and hhh's search rejects two candidates first, so its keys also
   depend on how many probes were drawn.  A change to the probes, their
   draws or the hash that checks them fails here instead of quietly
   re-keying every plan and benchmark. *)
let test_solved_keys_pinned () =
  let keys ?(request = Maestro.Pipeline.default_request) name =
    let o = Maestro.Pipeline.parallelize_exn ~request (Nfs.Registry.find_exn name) in
    let rss = o.Maestro.Pipeline.plan.Maestro.Plan.rss in
    Array.to_list (Array.map (fun r -> Bitvec.to_hex r.Maestro.Plan.key) rss)
  in
  Alcotest.(check (list string)) "nat"
    [
      "673e0204c1acc53efa8d866ca43d65d532c709d3f12e23888aa0bc958830c42e1bd7a7d202cfe64e436d598248c75c72a97d8d00";
      "673e0204c1acc53efa8cf20fd08636732a27238bbe77b35f82929714329ae9d73ac5d310a698b6aa6ac1411f94881a4b58919ea2";
    ]
    (keys "nat");
  Alcotest.(check (list string)) "fw"
    [
      "4bece395e3954bec4bece3954bece395866ca43d65d532c709d3f12e23888aa0bc958830c42e1bd7a7d202cfe64e436d598248c7";
      "e3954bec4bece395e3954bece3954bec680339f010260d6629f7d467907e8431b39951391c5df3bd9afc1494b8a194d74eb9d62e";
    ]
    (keys "fw");
  Alcotest.(check (list string)) "hhh"
    [
      "7d07cba86eb0d8162f74fe404439d5330b682ec46ec0864166e2b2aeebd4c49387efc1a84eab11f46a476a4bdb7ae3af158002ce";
      "02d993a8df54dfa62d372f08fbde412ebd8f70903da124bead3be02848fc5e9514681be24a57c2c0b1f0af14b3353a6247c6ce8f";
    ]
    (keys "hhh");
  Alcotest.(check (list string)) "fw, sat backend"
    [
      "b2d7a22fa22fb2d7b2d7a22fb2d7a22ebc958830c42e1bd7a7d202cfe64e436d598248c75c72a97d8d00673e0204c1acc53efa8c";
      "a22fb2d7b2d7a22fa22fb2d7a22fb2d69714329ae9d73ac5d310a698b6aa6ac1411f94881a4b58919ea2749a08e31a9423816433";
    ]
    (keys ~request:{ Maestro.Pipeline.default_request with solver = `Sat } "fw")

let suite =
  [
    Alcotest.test_case "decisions match the paper (Table of §6.1)" `Quick
      test_decisions_match_paper;
    Alcotest.test_case "blocked NFs carry warnings" `Quick test_blocked_nfs_carry_warnings;
    Alcotest.test_case "forced strategies" `Quick test_forced_strategies;
    Alcotest.test_case "fw keys realize symmetry (Fig. 3)" `Quick test_fw_keys_realize_symmetry;
    Alcotest.test_case "nat keys realize server sharding (R5)" `Quick
      test_nat_keys_realize_server_sharding;
    Alcotest.test_case "policer keys shard by user" `Quick test_policer_keys_shard_by_user;
    Alcotest.test_case "timing recorded" `Quick test_timing_is_recorded;
    Alcotest.test_case "emitted C structure (Fig. 13)" `Quick test_emitted_c_structure;
    Alcotest.test_case "emitted C lock discipline" `Quick test_emitted_c_locks_comment;
    Alcotest.test_case "Fig. 2 scenario decisions" `Quick test_scenarios_decisions;
    Alcotest.test_case "psd shards on source only (R2)" `Quick test_psd_shards_on_source_only;
    Alcotest.test_case "sat solver request" `Quick test_sat_solver_request;
    Alcotest.test_case "solved keys pinned" `Quick test_solved_keys_pinned;
    Alcotest.test_case "hhh prefix sharding (extension)" `Quick test_hhh_prefix_sharding;
    Alcotest.test_case "hhh equivalence (extension)" `Quick test_hhh_equivalence;
  ]
