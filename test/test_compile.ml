(* Differential testing of the staged compiler against the interpreter —
   the compiled closure must be observationally identical: same verdicts
   AND same op-event streams, packet by packet, on every shipped NF, on
   the Fig. 2 micro-NFs, on a wide-key NF, against the VPP NAT44 graph,
   and with the supervised pool under an injected fault plan — plus the
   compiled path's allocation and observer contracts. *)

let ops_pp fmt (e : Dsl.Interp.op_event) =
  Format.fprintf fmt "%s(%b,%d)" e.Dsl.Interp.obj e.Dsl.Interp.write e.Dsl.Interp.expired

(* Run [trace] through a fresh interpreter instance and two fresh
   compiled instances in lockstep, one observed and one not; fail on the
   first divergence.  The interpreter keys containers by the string
   encoding and the compiled path by the packed pair it assembles from
   parts, so at the end every map must hold the same bindings under the
   string view, and every vector the same slots, on both compiled
   instances. *)
let differential label nf trace =
  let info = Dsl.Check.check_exn nf in
  let i_inst = Dsl.Instance.create nf in
  let c_inst = Dsl.Instance.create nf in
  let u_inst = Dsl.Instance.create nf in
  let staged = Dsl.Compile.stage nf info in
  let bound = Dsl.Compile.bind staged c_inst in
  let unobserved = Dsl.Compile.bind staged u_inst in
  Array.iteri
    (fun i pkt ->
      let i_ops = ref [] and c_ops = ref [] in
      let a1 = Dsl.Interp.process ~on_op:(fun e -> i_ops := e :: !i_ops) nf info i_inst pkt in
      let a2 = Dsl.Compile.process ~on_op:(fun e -> c_ops := e :: !c_ops) bound pkt in
      let a3 = Dsl.Compile.process unobserved pkt in
      if a1 <> a2 || a1 <> a3 then
        Alcotest.failf "%s: verdict diverges at packet %d (%a)" label i Packet.Pkt.pp pkt;
      if !i_ops <> !c_ops then
        Alcotest.failf "%s: op stream diverges at packet %d: interp [%a] compiled [%a]" label
          i
          (Format.pp_print_list ops_pp)
          (List.rev !i_ops)
          (Format.pp_print_list ops_pp)
          (List.rev !c_ops))
    trace;
  List.iter
    (fun decl ->
      let name = Dsl.Ast.decl_name decl in
      List.iter
        (fun inst ->
          match (Dsl.Instance.find i_inst name, Dsl.Instance.find inst name) with
          | Dsl.Instance.O_map a, Dsl.Instance.O_map b ->
              if
                List.sort compare (State.Map_s.entries a)
                <> List.sort compare (State.Map_s.entries b)
              then Alcotest.failf "%s: map %s holds different bindings" label name
          | Dsl.Instance.O_vector a, Dsl.Instance.O_vector b ->
              if a.Dsl.Instance.slots <> b.Dsl.Instance.slots then
                Alcotest.failf "%s: vector %s holds different slots" label name
          | _ -> ())
        [ c_inst; u_inst ])
    nf.Dsl.Ast.state

(* An adversarial trace: a tiny address space forces key collisions,
   capacity-full puts, expiry storms and both traffic directions. *)
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

let test_registry_nfs () =
  List.iter
    (fun name ->
      let w = Sim.Workload.read_heavy ~pkts:3_000 ~flows:300 name in
      differential (name ^ "/read-heavy") w.Sim.Workload.nf w.Sim.Workload.trace;
      differential (name ^ "/hostile") (Nfs.Registry.find_exn name) (hostile_trace ~seed:7 2_000))
    Nfs.Registry.extended_names

let test_fig2_scenarios () =
  List.iter
    (fun (nf : Dsl.Ast.t) ->
      differential nf.Dsl.Ast.name nf (hostile_trace ~seed:11 2_000))
    (Nfs.Scenarios.all ())

(* A flow table keyed by the outer 5-tuple and the input port: 15 bytes,
   one more than packs, so its lookups, puts and the purge of its expiry
   all take the string-key path.  A 20 ms age and 16 slots make the
   hostile traces expire flows and fill the table. *)
let wide_key_fw =
  let open Dsl.Ast in
  let f x = Field x in
  let key =
    Packet.Field.[ f Ip_src; f Ip_dst; f Src_port; f Dst_port; f Ip_proto ] @ [ In_port ]
  in
  let fwd = Nfs.Topo.fwd Nfs.Topo.wan in
  {
    name = "wide_key_fw";
    devices = 2;
    state =
      [
        Decl_map { name = "wk_flows"; capacity = 16; init = [] };
        Decl_chain { name = "wk_chain"; capacity = 16 };
        Decl_vector
          {
            name = "wk_keys";
            capacity = 16;
            layout =
              [ ("sip", 32); ("dip", 32); ("sp", 16); ("dp", 16); ("proto", 8); ("port", 16) ];
          };
      ];
    process =
      Chain_expire
        {
          obj = "wk_chain";
          purges = [ ("wk_flows", "wk_keys") ];
          age_ns = 20_000_000;
          k =
            Map_get
              {
                obj = "wk_flows";
                key;
                found = "wk_f";
                value = "wk_i";
                k =
                  If
                    ( Var "wk_f",
                      Chain_rejuv { obj = "wk_chain"; index = Var "wk_i"; k = fwd },
                      Chain_alloc
                        {
                          obj = "wk_chain";
                          index = "wk_new";
                          k_ok =
                            Vec_set
                              {
                                obj = "wk_keys";
                                index = Var "wk_new";
                                fields =
                                  List.combine [ "sip"; "dip"; "sp"; "dp"; "proto"; "port" ] key;
                                k =
                                  Map_put
                                    {
                                      obj = "wk_flows";
                                      key;
                                      value = Var "wk_new";
                                      ok = "wk_ok";
                                      k = fwd;
                                    };
                              };
                          k_fail = Drop;
                        } );
              };
        };
  }

let test_wide_key_expiry () =
  List.iter
    (fun seed ->
      let trace = hostile_trace ~seed 2_000 in
      let info = Dsl.Check.check_exn wide_key_fw in
      let inst = Dsl.Instance.create wide_key_fw in
      let expired = ref 0 in
      let on_op (e : Dsl.Interp.op_event) = expired := !expired + e.Dsl.Interp.expired in
      Array.iter (fun p -> ignore (Dsl.Interp.process ~on_op wide_key_fw info inst p)) trace;
      Alcotest.(check bool) "the trace expires flows" true (!expired > 0);
      differential (Printf.sprintf "wide_key_fw/%d" seed) wide_key_fw trace)
    [ 3; 17; 29 ]

(* An observed call that raises leaves no observer behind: the next,
   unobserved call on the same bound program must not reach it. *)
let test_observer_cleared_on_raise () =
  let open Dsl.Ast in
  let nf =
    {
      name = "vec_oob";
      devices = 2;
      state = [ Decl_vector { name = "v"; capacity = 4; layout = [ ("x", 32) ] } ];
      process =
        Vec_get
          { obj = "v"; index = Field Packet.Field.Ip_src; record = "r"; k = Nfs.Topo.fwd 0 };
    }
  in
  let b = Dsl.Compile.bind (Dsl.Compile.stage nf (Dsl.Check.check_exn nf)) (Dsl.Instance.create nf) in
  let seen = ref 0 in
  let pkt ip_src = Packet.Pkt.make ~ip_src ~ip_dst:0 ~src_port:0 ~dst_port:0 () in
  (match Dsl.Compile.process ~on_op:(fun _ -> incr seen) b (pkt 9) with
  | _ -> Alcotest.fail "vec_get out of range must raise"
  | exception Dsl.Interp.Runtime_error _ -> ());
  Alcotest.(check int) "observed call saw its event" 1 !seen;
  ignore (Dsl.Compile.process b (pkt 1));
  Alcotest.(check int) "unobserved call reached no observer" 1 !seen

(* framebench's fw-churn-lock parameters: 1024 live flows, 0.4 flow
   generations per 64 B frame, over [span_ns] of timestamps. *)
let churn_trace ~span_ns pkts =
  Traffic.Churn.trace (Random.State.make [| 5 |])
    {
      Traffic.Churn.active_flows = 1024;
      flows_per_gbit = 0.4 /. (64.0 *. 8.0 /. 1e9);
      pkts;
      size = 64;
      gap_ns = span_ns / pkts;
    }

(* Minor words per packet of the unobserved compiled [name] over the
   second half of [trace], warmed over the first, and the flows that half
   expires (read from the interpreter). *)
let second_half_cost name trace =
  let nf = Nfs.Registry.find_exn name in
  let info = Dsl.Check.check_exn nf in
  let b = Dsl.Compile.bind (Dsl.Compile.stage nf info) (Dsl.Instance.create nf) in
  let n = Array.length trace and half = Array.length trace / 2 in
  for i = 0 to half - 1 do
    ignore (Dsl.Compile.process b trace.(i))
  done;
  let w0 = Gc.minor_words () in
  for i = half to n - 1 do
    ignore (Dsl.Compile.process b trace.(i))
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int (n - half) in
  let inst = Dsl.Instance.create nf and expired = ref 0 in
  Array.iteri
    (fun i p ->
      let on_op (e : Dsl.Interp.op_event) =
        if i >= half then expired := !expired + e.Dsl.Interp.expired
      in
      ignore (Dsl.Interp.process ~on_op nf info inst p))
    trace;
  (words, !expired)

(* Expiry allocates nothing on the unobserved path: fw, whose every churn
   packet is forwarded unrewritten, allocates exactly its 3-word [Fwd]
   block per packet while flows expire, and nat allocates as much per
   packet whether flows expire or not. *)
let test_unobserved_expiry_allocation () =
  let expiring = churn_trace ~span_ns:4_000_000_000 16_384 in
  let fw_words, fw_expired = second_half_cost "fw" expiring in
  Alcotest.(check bool) "fw: flows expire" true (fw_expired > 1_000);
  Alcotest.(check (float 0.01)) "fw: the verdict block alone" 3.0 fw_words;
  let nat_words, nat_expired = second_half_cost "nat" expiring in
  let still_words, still_expired = second_half_cost "nat" (churn_trace ~span_ns:1_000_000 16_384) in
  Alcotest.(check bool) "nat: flows expire on one trace only" true
    (nat_expired > 1_000 && still_expired = 0);
  Alcotest.(check (float 0.01)) "nat: expiry adds nothing" still_words nat_words

(* The compiled maestro NAT must agree with the hand-written VPP NAT44
   graph exactly as the interpreter does (mirrors
   test_vpp.test_nat44_agrees_with_maestro_nat, compiled side). *)
let test_vpp_nat44_agrees_with_compiled () =
  let w = Sim.Workload.read_heavy ~pkts:4_000 ~flows:500 "nat" in
  let vpp = Vpp.Nat44.create () in
  let vpp_verdicts = Vpp.Nat44.run vpp w.Sim.Workload.trace in
  let info = Dsl.Check.check_exn w.Sim.Workload.nf in
  let runner =
    Dsl.Compile.make_runner ~compiled:true w.Sim.Workload.nf info
      (Dsl.Instance.create w.Sim.Workload.nf)
  in
  let compiled = Array.map (Dsl.Compile.run runner) w.Sim.Workload.trace in
  Array.iteri
    (fun i v ->
      let same =
        match (v, compiled.(i)) with
        | Vpp.Graph.Sent (pa, _), Dsl.Interp.Fwd (pb, _) -> pa = pb
        | Vpp.Graph.Dropped, Dsl.Interp.Dropped -> true
        | _ -> false
      in
      Alcotest.(check bool) (Printf.sprintf "verdict %d" i) true same)
    vpp_verdicts

(* Crash/replay semantics from PR 3 hold with the compiled path: under a
   seeded fault plan the supervised pool (workers on compiled closures)
   still reproduces the sequential interpreter verdict for every packet. *)
let test_pool_fault_plan_differential () =
  (match Faults.parse "crash@1:2; crash@2:5" with
  | Ok plan -> Faults.install plan
  | Error e -> Alcotest.fail e);
  Fun.protect ~finally:Faults.clear @@ fun () ->
  let w = Sim.Workload.read_heavy ~pkts:4_000 ~flows:400 "fw" in
  let nf = w.Sim.Workload.nf in
  let request = { Maestro.Pipeline.default_request with cores = 4; seed = 3 } in
  let plan = (Maestro.Pipeline.parallelize_exn ~request nf).Maestro.Pipeline.plan in
  let seq = Runtime.Parallel.run_sequential nf w.Sim.Workload.trace in
  let pool = Runtime.Pool.create ~cores:4 () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
  let verdicts = Runtime.Pool.run pool plan w.Sim.Workload.trace in
  let stats = Runtime.Pool.stats pool in
  Alcotest.(check bool) "at least one restart" true (stats.Runtime.Pool.restarts >= 1);
  Array.iteri
    (fun i v ->
      if v <> seq.(i) then Alcotest.failf "pool verdict %d diverges from sequential" i)
    verdicts

(* The interp runner honours the dispatch switch: with [?compiled:false]
   the runner is the interpreter itself. *)
let test_runner_dispatch () =
  let nf = Nfs.Registry.find_exn "fw" in
  let info = Dsl.Check.check_exn nf in
  let mk c = Dsl.Compile.make_runner ?compiled:c nf info (Dsl.Instance.create nf) in
  Alcotest.(check bool) "explicit on" true (Dsl.Compile.is_compiled (mk (Some true)));
  Alcotest.(check bool) "explicit off" false (Dsl.Compile.is_compiled (mk (Some false)))

(* Re-binding one staged program over independent instances keeps their
   state disjoint (the pool binds a fresh instance per core). *)
let test_bind_isolates_state () =
  let nf = Nfs.Registry.find_exn "fw" in
  let info = Dsl.Check.check_exn nf in
  let staged = Dsl.Compile.stage nf info in
  let b1 = Dsl.Compile.bind staged (Dsl.Instance.create nf) in
  let b2 = Dsl.Compile.bind staged (Dsl.Instance.create nf) in
  let lan_pkt =
    Packet.Pkt.make ~port:0 ~ip_src:10 ~ip_dst:20 ~src_port:1 ~dst_port:2 ()
  in
  let wan_reply =
    Packet.Pkt.make ~port:1 ~ip_src:20 ~ip_dst:10 ~src_port:2 ~dst_port:1 ()
  in
  (* open the session only on b1 *)
  (match Dsl.Compile.process b1 lan_pkt with
  | Dsl.Interp.Fwd _ -> ()
  | Dsl.Interp.Dropped -> Alcotest.fail "outbound dropped");
  (match Dsl.Compile.process b1 wan_reply with
  | Dsl.Interp.Fwd _ -> ()
  | Dsl.Interp.Dropped -> Alcotest.fail "reply should be admitted on b1");
  match Dsl.Compile.process b2 wan_reply with
  | Dsl.Interp.Dropped -> ()
  | Dsl.Interp.Fwd _ -> Alcotest.fail "b2 must not see b1's session"

(* qcheck: random seeds, random NF from the corpus, strict equivalence *)
let prop_differential =
  QCheck.Test.make ~name:"compiled ≡ interpreter on random hostile traces" ~count:25
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 9))
    (fun (seed, nf_idx) ->
      let name = List.nth Nfs.Registry.extended_names
          (nf_idx mod List.length Nfs.Registry.extended_names) in
      differential (name ^ "/qcheck") (Nfs.Registry.find_exn name)
        (hostile_trace ~seed 500);
      true)

let suite =
  [
    Alcotest.test_case "registry NFs: verdicts + op streams" `Slow test_registry_nfs;
    Alcotest.test_case "fig2 micro-NFs" `Quick test_fig2_scenarios;
    Alcotest.test_case "wide-key expiry purge" `Quick test_wide_key_expiry;
    Alcotest.test_case "observer cleared when the NF raises" `Quick
      test_observer_cleared_on_raise;
    Alcotest.test_case "unobserved expiry allocates nothing" `Quick
      test_unobserved_expiry_allocation;
    Alcotest.test_case "vpp nat44 agrees with compiled nat" `Quick
      test_vpp_nat44_agrees_with_compiled;
    Alcotest.test_case "pool under fault plan matches oracle" `Quick
      test_pool_fault_plan_differential;
    Alcotest.test_case "runner dispatch switch" `Quick test_runner_dispatch;
    Alcotest.test_case "bind isolates per-core state" `Quick test_bind_isolates_state;
    QCheck_alcotest.to_alcotest prop_differential;
  ]
