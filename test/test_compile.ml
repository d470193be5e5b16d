(* Differential testing of the staged compiler against the interpreter —
   the compiled closure must be observationally identical: same verdicts
   AND same op-event streams, packet by packet, on every shipped NF, on
   the Fig. 2 micro-NFs, against the VPP NAT44 graph, and with the
   supervised pool under an injected fault plan. *)

let ops_pp fmt (e : Dsl.Interp.op_event) =
  Format.fprintf fmt "%s(%b,%d)" e.Dsl.Interp.obj e.Dsl.Interp.write e.Dsl.Interp.expired

(* Run [trace] through a fresh interpreter instance and a fresh compiled
   instance in lockstep; fail on the first divergence.  The interpreter
   keys containers by the string encoding and the compiled path by the
   packed pair it assembles from parts, so at the end every map must
   hold the same bindings under the string view, and every vector the
   same slots. *)
let differential label nf trace =
  let info = Dsl.Check.check_exn nf in
  let i_inst = Dsl.Instance.create nf in
  let c_inst = Dsl.Instance.create nf in
  let bound = Dsl.Compile.bind (Dsl.Compile.stage nf info) c_inst in
  Array.iteri
    (fun i pkt ->
      let i_ops = ref [] and c_ops = ref [] in
      let a1 = Dsl.Interp.process ~on_op:(fun e -> i_ops := e :: !i_ops) nf info i_inst pkt in
      let a2 = Dsl.Compile.process ~on_op:(fun e -> c_ops := e :: !c_ops) bound pkt in
      if a1 <> a2 then
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
      match (Dsl.Instance.find i_inst name, Dsl.Instance.find c_inst name) with
      | Dsl.Instance.O_map a, Dsl.Instance.O_map b ->
          if List.sort compare (State.Map_s.entries a) <> List.sort compare (State.Map_s.entries b)
          then Alcotest.failf "%s: map %s holds different bindings" label name
      | Dsl.Instance.O_vector a, Dsl.Instance.O_vector b ->
          if a.Dsl.Instance.slots <> b.Dsl.Instance.slots then
            Alcotest.failf "%s: vector %s holds different slots" label name
      | _ -> ())
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
  Dsl.Compile.set_default true;
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
   (or the global default off) the runner is the interpreter itself. *)
let test_runner_dispatch () =
  let nf = Nfs.Registry.find_exn "fw" in
  let info = Dsl.Check.check_exn nf in
  let mk c = Dsl.Compile.make_runner ?compiled:c nf info (Dsl.Instance.create nf) in
  Alcotest.(check bool) "explicit on" true (Dsl.Compile.is_compiled (mk (Some true)));
  Alcotest.(check bool) "explicit off" false (Dsl.Compile.is_compiled (mk (Some false)));
  let before = Dsl.Compile.default_enabled () in
  Fun.protect ~finally:(fun () -> Dsl.Compile.set_default before) @@ fun () ->
  Dsl.Compile.set_default false;
  Alcotest.(check bool) "default off" false (Dsl.Compile.is_compiled (mk None));
  Dsl.Compile.set_default true;
  Alcotest.(check bool) "default on" true (Dsl.Compile.is_compiled (mk None))

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
    Alcotest.test_case "vpp nat44 agrees with compiled nat" `Quick
      test_vpp_nat44_agrees_with_compiled;
    Alcotest.test_case "pool under fault plan matches oracle" `Quick
      test_pool_fault_plan_differential;
    Alcotest.test_case "runner dispatch switch" `Quick test_runner_dispatch;
    Alcotest.test_case "bind isolates per-core state" `Quick test_bind_isolates_state;
    QCheck_alcotest.to_alcotest prop_differential;
  ]
