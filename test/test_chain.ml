(* Service-chain composition (Dsl.Chain): compose-time validation, the
   3-way differential (fused compiled closure ≡ composed-AST interpreter
   ≡ per-stage interpreter-composition oracle, verdicts AND op-event
   streams), the joint-sharding outcomes of the shipped chains, and the
   differential harness's checks on a fused chain in the model and on the
   supervised pool under injected crashes and online rebalancing (the
   shipped chains are also targets of its random cells). *)

open Dsl.Ast

let ops_pp fmt (e : Dsl.Interp.op_event) =
  Format.fprintf fmt "%s(%b,%d)" e.Dsl.Interp.obj e.Dsl.Interp.write e.Dsl.Interp.expired

(* Same adversarial trace family as test_compile: a tiny address space
   forces key collisions, capacity-full puts, expiry storms and both
   traffic directions. *)
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

(* The tentpole equivalence: the fused chain (one composed AST) run
   through the staged compiler AND through the interpreter must be
   observationally identical to the reference semantics — each stage's
   original NF interpreted against its own state, verdicts threaded. *)
let differential3 label chain trace =
  let composed = Dsl.Chain.nf chain in
  let info = Dsl.Check.check_exn composed in
  let i_inst = Dsl.Instance.create composed in
  let bound =
    Dsl.Compile.bind_runner (Dsl.Chain.stage_compiled chain) (Dsl.Instance.create composed)
  in
  let oracle = Dsl.Chain.oracle chain in
  Array.iteri
    (fun i pkt ->
      let i_ops = ref [] and c_ops = ref [] and o_ops = ref [] in
      let a_i =
        Dsl.Interp.process ~on_op:(fun e -> i_ops := e :: !i_ops) composed info i_inst pkt
      in
      let a_c = Dsl.Compile.run ~on_op:(fun e -> c_ops := e :: !c_ops) bound pkt in
      let a_o = Dsl.Chain.oracle_process ~on_op:(fun e -> o_ops := e :: !o_ops) oracle pkt in
      if a_i <> a_c then
        Alcotest.failf "%s: fused-compiled verdict diverges from fused-interp at packet %d (%a)"
          label i Packet.Pkt.pp pkt;
      if a_i <> a_o then
        Alcotest.failf "%s: fused verdict diverges from per-stage oracle at packet %d (%a)"
          label i Packet.Pkt.pp pkt;
      if !i_ops <> !c_ops then
        Alcotest.failf "%s: op stream diverges (interp vs compiled) at packet %d: [%a] vs [%a]"
          label i
          (Format.pp_print_list ops_pp)
          (List.rev !i_ops)
          (Format.pp_print_list ops_pp)
          (List.rev !c_ops);
      if !i_ops <> !o_ops then
        Alcotest.failf "%s: op stream diverges (fused vs oracle) at packet %d: [%a] vs [%a]"
          label i
          (Format.pp_print_list ops_pp)
          (List.rev !i_ops)
          (Format.pp_print_list ops_pp)
          (List.rev !o_ops))
    trace

(* fw→nat→lb over a uniform two-port trace with replies (512 flows,
   16,384 packets), so that the LAN and WAN paths and the NAT's port
   allocation all run *)
let fw_nat_lb_stages () = List.map Nfs.Registry.find_exn [ "fw"; "nat"; "lb" ]

let fw_nat_lb_trace () =
  let st = Random.State.make [| 0xcab1e |] in
  let flows = Traffic.Gen.flows st 512 in
  Traffic.Gen.uniform
    ~spec:{ Traffic.Gen.default_spec with pkts = 16_384; reply_fraction = 0.4 }
    st ~flows

let test_shipped_chains_differential () =
  List.iteri
    (fun i chain ->
      differential3 chain.Dsl.Chain.name chain (hostile_trace ~seed:(31 + i) 2_000))
    (Nfs.Scenarios.chains ());
  differential3 "fw->nat->lb" (Dsl.Chain.compose_exn (fw_nat_lb_stages ())) (fw_nat_lb_trace ())

(* Fusion changes how a chain runs, not what it does or what it
   allocates: over the fw→nat→lb trace the fused runner returns, packet
   for packet, the verdicts of the three stages compiled and run back to
   back, each on its own state, and once warm it allocates no more minor
   words per packet than the costliest stage run alone. *)
let test_fused_vs_stages () =
  let stages = fw_nat_lb_stages () in
  let chain = Dsl.Chain.compose_exn stages in
  let trace = fw_nat_lb_trace () in
  let fused () =
    Dsl.Compile.bind_runner (Dsl.Chain.stage_compiled chain) (Dsl.Instance.create (Dsl.Chain.nf chain))
  in
  let runner nf = Dsl.Compile.make_runner nf (Dsl.Check.check_exn nf) (Dsl.Instance.create nf) in
  let rec back_to_back runners pkt =
    match runners with
    | [] -> invalid_arg "back_to_back: no stage"
    | [ r ] -> Dsl.Compile.run r pkt
    | r :: rest -> (
        match Dsl.Compile.run r pkt with
        | Dsl.Interp.Dropped -> Dsl.Interp.Dropped
        | Dsl.Interp.Fwd (_, pkt') -> back_to_back rest pkt')
  in
  let f = fused () and b2b = List.map runner stages in
  Array.iteri
    (fun i pkt ->
      if Dsl.Compile.run f pkt <> back_to_back b2b pkt then
        Alcotest.failf "packet %d: fused verdict differs from the stages back to back" i)
    trace;
  (* minor words per packet of one pass after a warming one *)
  let words r =
    let pass () = Array.iter (fun p -> ignore (Dsl.Compile.run r p : Dsl.Interp.action)) trace in
    pass ();
    let w0 = Gc.minor_words () in
    pass ();
    Stdlib.((Gc.minor_words () -. w0) /. float_of_int (Array.length trace))
  in
  let fused_words = words (fused ()) in
  let stage_words = List.map (fun nf -> words (runner nf)) stages in
  let x100 w = Float.to_int (Float.round (Stdlib.( *. ) w 100.0)) in
  Alcotest.(check bool) "fused allocates <= the costliest stage alone" true
    (x100 fused_words <= x100 (List.fold_left Float.max 0.0 stage_words));
  Alcotest.(check (float 0.01)) "fused minor words per packet" 17.68 fused_words;
  Alcotest.(check (list (float 0.01))) "fw, nat, lb alone: minor words per packet"
    [ 3.0; 17.68; 1.83 ] stage_words

(* The same NF twice: namespacing keeps both stages' state disjoint. *)
let test_self_chain_differential () =
  let chain = Dsl.Chain.compose_exn [ Nfs.Registry.find_exn "fw"; Nfs.Registry.find_exn "fw" ] in
  differential3 "fw->fw" chain (hostile_trace ~seed:41 2_000)

(* --- compose-time validation ----------------------------------------------- *)

let fails_with_substring what sub = function
  | Ok _ -> Alcotest.failf "%s: compose unexpectedly succeeded" what
  | Error e ->
      let contains s sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
        n = 0 || go 0
      in
      if not (contains e sub) then
        Alcotest.failf "%s: error %S does not mention %S" what e sub

let test_compose_validation () =
  fails_with_substring "empty chain" "empty" (Dsl.Chain.compose []);
  (* stages must agree on device count *)
  let nop3 = { (Nfs.Registry.find_exn "nop") with devices = 3 } in
  fails_with_substring "device mismatch" "device"
    (Dsl.Chain.compose [ Nfs.Registry.find_exn "fw"; nop3 ]);
  (* a non-final stage must forward through a constant in-range port *)
  let dyn_fwd =
    { name = "dyn_fwd"; devices = 2; state = []; process = Forward In_port }
  in
  fails_with_substring "non-constant forward" "constant"
    (Dsl.Chain.compose [ dyn_fwd; Nfs.Registry.find_exn "fw" ]);
  (* ... but is fine as the final stage, where it is the chain verdict *)
  (match Dsl.Chain.compose [ Nfs.Registry.find_exn "fw"; dyn_fwd ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "dynamic forward in final stage rejected: %s" e);
  (* composition result passes Check as one NF *)
  let chain = Dsl.Chain.compose_exn [ Nfs.Registry.find_exn "fw"; Nfs.Registry.find_exn "nat" ] in
  (match Dsl.Check.check (Dsl.Chain.nf chain) with
  | Ok _ -> ()
  | Error es -> Alcotest.failf "composed chain fails Check: %s" (String.concat "; " es));
  Alcotest.(check string) "default name" "chain_fw_nat" chain.Dsl.Chain.name

let test_stage_attribution () =
  let chain = Nfs.Scenarios.chain_policer_fw_nat () in
  let composed = Dsl.Chain.nf chain in
  (* every namespaced state object maps back to its stage and original name *)
  List.iter
    (fun decl ->
      let obj =
        match decl with
        | Decl_map { name; _ } | Decl_vector { name; _ } | Decl_chain { name; _ }
        | Decl_sketch { name; _ } ->
            name
      in
      match Dsl.Chain.original_obj chain obj with
      | None -> Alcotest.failf "object %s maps to no stage" obj
      | Some (st, orig) ->
          let stage_has =
            List.exists
              (fun d ->
                match d with
                | Decl_map { name; _ } | Decl_vector { name; _ } | Decl_chain { name; _ }
                | Decl_sketch { name; _ } ->
                    name = orig)
              st.Dsl.Chain.nf.state
          in
          if not stage_has then
            Alcotest.failf "object %s: stripped name %s not declared by stage %d (%s)" obj orig
              st.Dsl.Chain.index st.Dsl.Chain.name)
    composed.state;
  Alcotest.(check bool) "unknown object maps to no stage" true
    (Dsl.Chain.stage_of_obj chain "nat_ports" = None)

(* --- joint sharding over the composed AST ----------------------------------- *)

let decision_of chain =
  Maestro.Sharding.decide (Maestro.Report.build (Symbex.Exec.run (Dsl.Chain.nf chain)))

let reasons_string reasons =
  Format.asprintf "%a"
    (Format.pp_print_list Maestro.Sharding.pp_reason)
    reasons

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* fw→nat: the union of both stages' constraints is satisfiable, and R2
   subsumption folds the firewall's 4-tuple under the NAT's server
   two-tuple — the chain still shards shared-nothing. *)
let test_chain_fw_nat_shards () =
  (match decision_of (Nfs.Scenarios.chain_fw_nat ()) with
  | Maestro.Sharding.Shard cs -> Alcotest.(check bool) "has constraints" true (cs <> [])
  | d ->
      Alcotest.failf "expected Shard, got %a" Maestro.Sharding.pp_decision d);
  let request = { Maestro.Pipeline.default_request with cores = 8 } in
  let outcome =
    Maestro.Pipeline.parallelize_exn ~request (Dsl.Chain.nf (Nfs.Scenarios.chain_fw_nat ()))
  in
  Alcotest.(check bool) "shared-nothing plan" true
    (outcome.Maestro.Pipeline.plan.Maestro.Plan.strategy = Maestro.Plan.Shared_nothing)

(* fw→lb: the lb's pool key is a lossy derivation (R4); the union is
   unsatisfiable and the blocked reason names the lb stage's prefix. *)
let test_chain_fw_lb_blocked_names_stage () =
  let chain = Nfs.Scenarios.chain_fw_lb () in
  match decision_of chain with
  | Maestro.Sharding.Blocked reasons ->
      let s = reasons_string reasons in
      Alcotest.(check bool)
        (Printf.sprintf "reason names the lb stage: %s" s)
        true (contains s "s1_lb_")
  | d -> Alcotest.failf "expected Blocked, got %a" Maestro.Sharding.pp_decision d

(* policer→fw→nat: every stage shards alone, the union does not — R3
   disjoint requirements, and the witnesses name the offending pair. *)
let test_chain_policer_fw_nat_disjoint_pair () =
  let chain = Nfs.Scenarios.chain_policer_fw_nat () in
  match decision_of chain with
  | Maestro.Sharding.Blocked reasons ->
      let disjoint =
        List.find_map
          (function
            | Maestro.Sharding.Disjoint { obj_a; obj_b; _ } -> Some (obj_a, obj_b)
            | _ -> None)
          reasons
      in
      (match disjoint with
      | None -> Alcotest.failf "no Disjoint reason in: %s" (reasons_string reasons)
      | Some (obj_a, obj_b) ->
          let stage_idx = function
            | Some obj -> (
                match Dsl.Chain.stage_of_obj chain obj with
                | Some st -> Some st.Dsl.Chain.index
                | None -> None)
            | None -> None
          in
          (match (stage_idx obj_a, stage_idx obj_b) with
          | Some a, Some b ->
              Alcotest.(check bool)
                (Printf.sprintf "witnesses name two different stages (%d vs %d)" a b)
                true (a <> b)
          | _ ->
              Alcotest.failf "Disjoint witnesses unattributed: %s" (reasons_string reasons)))
  | d -> Alcotest.failf "expected Blocked, got %a" Maestro.Sharding.pp_decision d

(* each stage of policer→fw→nat is shardable on its own — the block is a
   property of the composition, not of any one NF *)
let test_chain_stages_shard_alone () =
  List.iter
    (fun (st : Dsl.Chain.stage) ->
      match
        Maestro.Sharding.decide (Maestro.Report.build (Symbex.Exec.run st.Dsl.Chain.nf))
      with
      | Maestro.Sharding.Shard _ -> ()
      | d ->
          Alcotest.failf "stage %s: expected Shard alone, got %a" st.Dsl.Chain.name
            Maestro.Sharding.pp_decision d)
    (Nfs.Scenarios.chain_policer_fw_nat ()).Dsl.Chain.stages

(* --- the chain on the runtime ------------------------------------------------ *)

let chain_plan ?(seed = Maestro.Pipeline.default_request.Maestro.Pipeline.seed) composed =
  let request = { Maestro.Pipeline.default_request with cores = 4; seed } in
  (Maestro.Pipeline.parallelize_exn ~request composed).Maestro.Pipeline.plan

(* The composed chain behind Runtime.Parallel: the deterministic model's
   verdicts equal the sequential composed run, which differential3
   already tied to the per-stage oracle. *)
let test_chain_parallel_model () =
  let chain = Nfs.Scenarios.chain_policer_fw_nat () in
  let plan = chain_plan (Dsl.Chain.nf chain) in
  ignore
    (Test_differential.check_model_run chain.Dsl.Chain.name plan (hostile_trace ~seed:53 4_000)
      : Runtime.Parallel.result)

(* Crash/replay semantics hold for a fused chain: under a seeded fault
   plan the supervised pool still agrees with the sequential composed
   run. *)
let test_chain_pool_fault_plan () =
  (match Faults.parse "crash@1:2; crash@2:5" with
  | Ok plan -> Faults.install plan
  | Error e -> Alcotest.fail e);
  Fun.protect ~finally:Faults.clear @@ fun () ->
  let chain = Nfs.Scenarios.chain_policer_fw_nat () in
  let plan = chain_plan ~seed:3 (Dsl.Chain.nf chain) in
  let shape = Test_differential.shape 4 in
  Test_differential.with_pool shape @@ fun pool ->
  let stats =
    Test_differential.check_run ~fault:Test_differential.Crash shape pool chain.Dsl.Chain.name plan
      (hostile_trace ~seed:59 4_000)
  in
  Alcotest.(check bool) "at least one restart" true (stats.Runtime.Pool.restarts >= 1)

(* Online rebalancing migrates a fused chain's namespaced state exactly
   like a single NF's: fw→fw is shared-nothing with an exact migration
   plan, so bucket moves carry both stages' flow state and verdicts stay
   sequential. *)
let test_chain_pool_rebalance () =
  let chain =
    Dsl.Chain.compose_exn ~name:"chain_fw_fw"
      [ Nfs.Registry.find_exn "fw"; Nfs.Registry.find_exn "fw" ]
  in
  let composed = Dsl.Chain.nf chain in
  let plan = chain_plan composed in
  Alcotest.(check bool) "fw->fw is shared-nothing" true
    (plan.Maestro.Plan.strategy = Maestro.Plan.Shared_nothing);
  let rng = Random.State.make [| 0x9e1 |] in
  let z = Traffic.Zipf.make ~exponent:1.1 ~nflows:600 () in
  let fs = Traffic.Gen.flows rng 600 in
  let spec = { Traffic.Gen.default_spec with Traffic.Gen.pkts = 16_384; reply_fraction = 0.3 } in
  let trace = Traffic.Zipf.trace ~spec rng z ~flows:fs in
  let shape = Test_differential.shape ~epoch:2048 ~threshold:1.05 4 in
  Test_differential.with_pool shape @@ fun pool ->
  let stats =
    Test_differential.check_run ~policy:Test_differential.Rebalance shape pool
      chain.Dsl.Chain.name plan trace
  in
  if Runtime.Balancer.exact (Runtime.Balancer.migration_plan composed) then begin
    Alcotest.(check bool) "balancer engaged" true (stats.Runtime.Pool.rebalances >= 1);
    Alcotest.(check bool) "chain state migrated" true (stats.Runtime.Pool.migrated_flows >= 1)
  end

let suite =
  [
    Alcotest.test_case "shipped chains: 3-way differential" `Slow
      test_shipped_chains_differential;
    Alcotest.test_case "fw->nat->lb: fused equals its stages, allocates no more" `Quick
      test_fused_vs_stages;
    Alcotest.test_case "self chain fw->fw: namespaced state stays disjoint" `Quick
      test_self_chain_differential;
    Alcotest.test_case "compose validation" `Quick test_compose_validation;
    Alcotest.test_case "stage attribution round-trips" `Quick test_stage_attribution;
    Alcotest.test_case "fw->nat: union satisfiable, shared-nothing" `Quick
      test_chain_fw_nat_shards;
    Alcotest.test_case "fw->lb: blocked reason names the lb stage" `Quick
      test_chain_fw_lb_blocked_names_stage;
    Alcotest.test_case "policer->fw->nat: R3 witnesses name the stage pair" `Quick
      test_chain_policer_fw_nat_disjoint_pair;
    Alcotest.test_case "policer->fw->nat: every stage shards alone" `Quick
      test_chain_stages_shard_alone;
    Alcotest.test_case "parallel model matches sequential composed" `Quick
      test_chain_parallel_model;
    Alcotest.test_case "pool under fault plan matches composed oracle" `Quick
      test_chain_pool_fault_plan;
    Alcotest.test_case "pool rebalancing migrates fused chain state" `Slow
      test_chain_pool_rebalance;
  ]
