(* Online RSS++ rebalancing: the flow→core invariant must survive live
   indirection-table changes, the balancer must never resurrect a
   written-off core, and a migration must account for every flow-state
   entry it moves or evicts. *)

let rng seed = Random.State.make [| seed |]

(* Between two consecutive rebalance points every flow's packets land on
   one core, the ordering guarantee of the quiesce protocol; the
   differential harness checks it per RSS bucket and the verdicts against
   the sequential NF, and here per flow as well. *)
let test_pool_rebalance_flow_ordering () =
  let request = { Maestro.Pipeline.default_request with cores = 4 } in
  let plan =
    (Maestro.Pipeline.parallelize_exn ~request (Nfs.Registry.find_exn "fw")).Maestro.Pipeline.plan
  in
  let st = rng 41 in
  let z = Traffic.Zipf.make ~exponent:1.2 ~nflows:400 () in
  let flows = Traffic.Gen.flows st 400 in
  let spec = { Traffic.Gen.default_spec with pkts = 6144; reply_fraction = 0.3 } in
  let trace = Traffic.Zipf.trace ~spec st z ~flows in
  let shape = Test_differential.shape ~threshold:0.0 4 in
  Test_differential.with_pool shape @@ fun pool ->
  let s =
    Test_differential.check_run ~policy:Test_differential.Rebalance shape pool "fw" plan trace
  in
  Alcotest.(check bool) "balancer engaged" true (s.Runtime.Pool.rebalances >= 1);
  Alcotest.(check int) "assignment covers the trace" (Array.length trace)
    (Array.length s.Runtime.Pool.last_assignment);
  Alcotest.(check int) "zero flow-ordering violations" 0
    (Runtime.Balancer.ordering_violations
       ~key:(fun i -> Packet.Flow.normalize (Packet.Flow.of_pkt trace.(i)))
       ~points:s.Runtime.Pool.last_rebalance_points s.Runtime.Pool.last_assignment)

(* Reta.rebalance composed with Reta.remap never targets a written-off
   core, whatever the load profile and however many cores died *)
let prop_rebalance_remap_avoids_dead =
  QCheck.Test.make ~name:"rebalance+remap never targets a written-off core" ~count:100
    QCheck.(triple (int_range 0 1_000_000) (int_range 2 12) (int_range 1 6))
    (fun (seed, queues, ndead) ->
      QCheck.assume (ndead < queues);
      let st = rng seed in
      let reta = Nic.Reta.create ~size:64 ~queues () in
      let load =
        Array.init (Nic.Reta.size reta) (fun _ -> float_of_int (Random.State.int st 1000))
      in
      let live = Array.make queues true in
      let rec kill n =
        if n > 0 then begin
          let c = Random.State.int st queues in
          if live.(c) && Array.fold_left (fun a l -> a + Bool.to_int l) 0 live > 1 then
            live.(c) <- false;
          kill (n - 1)
        end
      in
      kill ndead;
      let moved = Nic.Reta.remap (Nic.Reta.rebalance reta ~bucket_load:load) ~live in
      Array.for_all (fun q -> live.(q)) (Nic.Reta.entries moved)
      && List.for_all (fun (_, _, target) -> live.(target)) (Nic.Reta.diff reta moved))

(* Migration conserves entries: shards filled by the plan's own dispatch
   hold as many map entries before a migration along any table as after
   it, plus the ones it evicted from full destinations; and a second
   migration along the same table finds every entry home.  Shards whose
   capacity is divided by 700 (93 fw flows) fill up and make it evict. *)
let prop_migration_conserves_entries =
  QCheck2.Test.make ~name:"migration conserves map entries" ~count:12
    ~print:(fun (name, k, seed, divide, all_to_0) ->
      Printf.sprintf "%s shards=%d seed=%d divide=%d all-to-core-0=%b" name k seed divide all_to_0)
    QCheck2.Gen.(
      map
        (fun ((name, k, seed), (divide, all_to_0)) -> (name, k, seed, divide, all_to_0))
        (pair
           (triple (oneofl [ "policer"; "fw"; "psd"; "cl"; "hhh"; "vxlan_fw" ]) (int_range 2 4)
              (int_range 0 9999))
           (pair (oneofl [ 1; 700 ]) bool)))
    (fun (name, k, seed, divide, all_to_0) ->
      let nf = Nfs.Registry.find_exn name in
      let request = { Maestro.Pipeline.default_request with cores = k } in
      let plan = (Maestro.Pipeline.parallelize_exn ~request nf).Maestro.Pipeline.plan in
      let st = rng seed in
      let trace =
        Traffic.Gen.uniform ~spec:{ Traffic.Gen.default_spec with pkts = 1_200 } st
          ~flows:(Traffic.Gen.flows st 300)
      in
      let trace =
        if name = "vxlan_fw" then Traffic.Gen.encapsulate Packet.Pkt.Vxlan trace else trace
      in
      let engines = Array.init nf.Dsl.Ast.devices (Maestro.Plan.rss_engine plan) in
      let insts = Array.init k (fun _ -> Dsl.Instance.create ~divide nf) in
      let staged = Dsl.Compile.stage_runner nf (Dsl.Check.check_exn nf) in
      let runners = Array.map (Dsl.Compile.bind_runner staged) insts in
      Array.iter
        (fun (p : Packet.Pkt.t) ->
          ignore (Dsl.Compile.run runners.(Nic.Rss.dispatch engines.(p.Packet.Pkt.port) p) p))
        trace;
      let entries () =
        Array.fold_left
          (fun n inst ->
            List.fold_left
              (fun n decl ->
                match Dsl.Instance.find inst (Dsl.Ast.decl_name decl) with
                | Dsl.Instance.O_map m -> n + State.Map_s.size m
                | _ -> n)
              n nf.Dsl.Ast.state)
          0 insts
      in
      let size = Nic.Reta.size (Nic.Rss.reta engines.(0)) in
      let table = Array.init size (fun _ -> if all_to_0 then 0 else Random.State.int st k) in
      let migrate () =
        Runtime.Balancer.migrate (Runtime.Balancer.migration_plan nf)
          ~hash:(fun (p : Packet.Pkt.t) ->
            let port = p.Packet.Pkt.port in
            Nic.Rss.hash_of engines.(if port < nf.Dsl.Ast.devices then port else 0) p)
          ~mask:(size - 1) ~dest:(Array.get table) ~instances:insts
      in
      let before = entries () in
      let o = migrate () in
      let after = entries () in
      let again = migrate () in
      if before <> after + o.Runtime.Balancer.dropped_flows then
        QCheck2.Test.fail_reportf "%d entries before, %d after, %d dropped" before after
          o.Runtime.Balancer.dropped_flows;
      if again.Runtime.Balancer.moved_flows + again.Runtime.Balancer.dropped_flows > 0 then
        QCheck2.Test.fail_reportf "a second migration moved %d and dropped %d"
          again.Runtime.Balancer.moved_flows again.Runtime.Balancer.dropped_flows;
      true)

let test_balancer_parse () =
  let ok s =
    match Runtime.Balancer.parse s with
    | Ok m -> m
    | Error e -> Alcotest.fail (Printf.sprintf "%S: %s" s e)
  in
  (match ok "off" with
  | None -> ()
  | _ -> Alcotest.fail "off");
  (match ok "on" with
  | Some c ->
      Alcotest.(check int) "default epoch" Runtime.Balancer.default_config.epoch_pkts
        c.Runtime.Balancer.epoch_pkts
  | _ -> Alcotest.fail "on");
  (match ok "epoch=512,threshold=1.5" with
  | Some c ->
      Alcotest.(check int) "epoch" 512 c.Runtime.Balancer.epoch_pkts;
      Alcotest.(check (float 1e-9)) "threshold" 1.5 c.Runtime.Balancer.threshold
  | _ -> Alcotest.fail "epoch+threshold");
  List.iter
    (fun bad ->
      match Runtime.Balancer.parse bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S must be rejected" bad)
      | Error _ -> ())
    [ ""; "epoch=0"; "epoch=x"; "threshold=0.5"; "bogus"; "epoch=" ];
  (* round-trips for the CLI's printer *)
  List.iter
    (fun s ->
      Alcotest.(check string) s s (Runtime.Balancer.to_string (ok s)))
    [ "off"; "epoch=512,threshold=1.5" ]

let suite =
  [
    Alcotest.test_case "pool rebalance preserves per-flow ordering" `Slow
      test_pool_rebalance_flow_ordering;
    QCheck_alcotest.to_alcotest prop_rebalance_remap_avoids_dead;
    QCheck_alcotest.to_alcotest prop_migration_conserves_entries;
    Alcotest.test_case "balancer mode parsing" `Quick test_balancer_parse;
  ]
