(* Tests for RS3: the window-equation reduction and both solver backends. *)

open Packet
open Rs3

let rng seed = Random.State.make [| seed |]

let random_pkt ?(port = 0) st =
  Pkt.make ~port
    ~ip_src:(Random.State.int st 0x3fffffff)
    ~ip_dst:(Random.State.int st 0x3fffffff)
    ~src_port:(Random.State.int st 0x10000)
    ~dst_port:(Random.State.int st 0x10000)
    ()

let hash_on problem keys port pkt =
  match Nic.Field_set.hash_input problem.Problem.field_sets.(port) pkt with
  | Some d -> Nic.Toeplitz.hash_int ~key:keys.(port) d
  | None -> Alcotest.fail "no hash input"

let solve_exn ?backend problem =
  match Solve.solve ?backend ~seed:99 problem with
  | Ok s -> s
  | Error (_, e) -> Alcotest.fail e

(* --- constraint constructors --------------------------------------------- *)

let test_cstr_normalizes_ports () =
  let c = Cstr.make ~port_a:1 ~port_b:0 [ (Field.Ip_src, Field.Ip_dst) ] in
  Alcotest.(check int) "a" 0 c.Cstr.port_a;
  Alcotest.(check int) "b" 1 c.Cstr.port_b;
  Alcotest.(check bool) "pairs flipped" true
    (c.Cstr.pairs = [ { Cstr.fa = Field.Ip_dst; fb = Field.Ip_src; bits = 32 } ])

let test_cstr_rejects_width_mismatch () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Cstr.make ~port_a:0 ~port_b:0 [ (Field.Ip_src, Field.Src_port) ]);
       false
     with Invalid_argument _ -> true)

let test_self_identity () =
  Alcotest.(check bool) "identity" true
    (Cstr.is_self_identity (Cstr.same_flow ~port:0 [ Field.Ip_src; Field.Ip_dst ]));
  Alcotest.(check bool) "symmetric is not" false
    (Cstr.is_self_identity (Cstr.symmetric ~port_a:0 ~port_b:0))

(* --- problems ------------------------------------------------------------ *)

let fw_problem () =
  (* the firewall: 5-tuple per port, sessions symmetric across ports *)
  match
    Problem.for_constraints ~nports:2
      [
        Cstr.same_flow ~port:0 [ Field.Ip_src; Field.Ip_dst; Field.Src_port; Field.Dst_port ];
        Cstr.same_flow ~port:1 [ Field.Ip_src; Field.Ip_dst; Field.Src_port; Field.Dst_port ];
        Cstr.symmetric ~port_a:0 ~port_b:1;
      ]
  with
  | Ok p -> p
  | Error e -> Alcotest.fail e

let policer_problem () =
  match Problem.for_constraints ~nports:2 [ Cstr.same_flow ~port:1 [ Field.Ip_dst ] ] with
  | Ok p -> p
  | Error e -> Alcotest.fail e

let nat_problem () =
  (* LAN shards on the server (dst), WAN on the server (src), cross-linked *)
  match
    Problem.for_constraints ~nports:2
      [
        Cstr.same_flow ~port:0 [ Field.Ip_dst; Field.Dst_port ];
        Cstr.same_flow ~port:1 [ Field.Ip_src; Field.Src_port ];
        Cstr.make ~port_a:0 ~port_b:1
          [ (Field.Ip_dst, Field.Ip_src); (Field.Dst_port, Field.Src_port) ];
      ]
  with
  | Ok p -> p
  | Error e -> Alcotest.fail e

let test_identity_constraints_leave_keys_free () =
  let p =
    match
      Problem.for_constraints ~nports:1
        [ Cstr.same_flow ~port:0 [ Field.Ip_src; Field.Ip_dst; Field.Src_port; Field.Dst_port ] ]
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list pass)) "no equations" [] (Window.equations p);
  let s = solve_exn p in
  Alcotest.(check int) "all bits free" (Problem.key_bits p) s.Solve.free_bits

let test_fw_solution_is_symmetric () =
  let p = fw_problem () in
  let s = solve_exn p in
  let st = rng 5 in
  for _ = 1 to 200 do
    let pkt = random_pkt st in
    (* the WAN sees the reply: src/dst swapped, hashed with the WAN key *)
    let h_lan = hash_on p s.Solve.keys 0 pkt in
    let h_wan = hash_on p s.Solve.keys 1 (Pkt.flip pkt) in
    Alcotest.(check int) "reply meets its flow" h_lan h_wan
  done

let test_fw_distinct_flows_spread () =
  let p = fw_problem () in
  let s = solve_exn p in
  let st = rng 7 in
  let seen = Hashtbl.create 256 in
  for _ = 1 to 256 do
    Hashtbl.replace seen (hash_on p s.Solve.keys 0 (random_pkt st)) ()
  done;
  Alcotest.(check bool) "spreads" true (Hashtbl.length seen > 200)

let test_policer_ignores_ports_and_src () =
  let p = policer_problem () in
  let s = solve_exn p in
  let st = rng 11 in
  for _ = 1 to 200 do
    let a = random_pkt st in
    let b = { (random_pkt st) with Pkt.ip_dst = a.Pkt.ip_dst } in
    Alcotest.(check int) "same destination meets"
      (hash_on p s.Solve.keys 1 a) (hash_on p s.Solve.keys 1 b)
  done;
  (* but different destinations spread *)
  let seen = Hashtbl.create 64 in
  for _ = 1 to 200 do
    Hashtbl.replace seen (hash_on p s.Solve.keys 1 (random_pkt st)) ()
  done;
  Alcotest.(check bool) "distinct destinations spread" true (Hashtbl.length seen > 100)

let test_nat_cross_port_server_sharding () =
  let p = nat_problem () in
  let s = solve_exn p in
  let st = rng 13 in
  for _ = 1 to 200 do
    let lan = random_pkt st ~port:0 in
    (* any WAN packet from the same server must land with the LAN flow *)
    let wan =
      Pkt.make ~port:1 ~ip_src:lan.Pkt.ip_dst
        ~ip_dst:(Random.State.int st 0x3fffffff)
        ~src_port:lan.Pkt.dst_port
        ~dst_port:(Random.State.int st 0x10000)
        ()
    in
    Alcotest.(check int) "server-sharded" (hash_on p s.Solve.keys 0 lan)
      (hash_on p s.Solve.keys 1 wan)
  done

let test_disjoint_requirements_rejected () =
  (* rule R3 as seen by the solver: sharding by src on one map and by dst on
     another forces a constant hash, which the quality test rejects *)
  match
    Problem.for_constraints ~nports:1
      [ Cstr.same_flow ~port:0 [ Field.Ip_src ]; Cstr.same_flow ~port:0 [ Field.Ip_dst ] ]
  with
  | Error e -> Alcotest.fail e
  | Ok p -> (
      match Solve.solve ~seed:1 p with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "expected degenerate-hash rejection")

let test_sat_backend_agrees () =
  List.iter
    (fun problem ->
      let p = problem () in
      let s = solve_exn ~backend:`Sat p in
      (match Validate.check_constraints p ~keys:s.Solve.keys ~rng:(rng 3) ~trials:100 with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Alcotest.(check bool) "sat quality" true
        (Validate.quality_ok p ~keys:s.Solve.keys ~rng:(rng 4)))
    [ fw_problem; policer_problem; nat_problem ]

let test_validate_catches_bad_keys () =
  let p = fw_problem () in
  let st = rng 17 in
  (* random unconstrained keys almost surely break the symmetry *)
  let keys = Array.init 2 (fun _ -> Bitvec.random st (8 * 52)) in
  Alcotest.(check bool) "violation detected" true
    (Result.is_error (Validate.check_constraints p ~keys ~rng:st ~trials:200))

let test_spread_detects_constant_hash () =
  let zero = Bitvec.create (8 * 52) in
  let s =
    Validate.spread_of_key ~key:zero ~field_set:Nic.Field_set.ipv4_tcp ~rng:(rng 19) ~trials:500
  in
  Alcotest.(check bool) "constant" true s.Validate.constant_hash

(* The reproduction's Toeplitz finding: sharding on one address over a rigid
   ports-bearing input leaves exactly ONE effective key bit — the zero
   windows of the ignored fields overlap all but bit 63 of the key.  The
   surviving hash (the bit-reversed address when k[63]=1) is full-rank, but
   there is no key randomization freedom at all: every accepted key computes
   the SAME hash function, defeating the §5 DoS defense — and its queue-index
   bits are the address's high bits, which carry almost no entropy in real
   traffic.  Flex-extracted subset inputs (what the E810 model offers) keep
   hundreds of free key bits instead. *)
let test_rigid_input_has_no_key_freedom () =
  let p =
    Problem.make ~field_sets:[ Nic.Field_set.ipv4_tcp ]
      [ Cstr.same_flow ~port:0 [ Field.Ip_dst ] ]
  in
  match (Solve.solve ~seed:3 p, Solve.solve ~seed:77 p) with
  | Ok a, Ok b ->
      let st = rng 31 in
      for _ = 1 to 200 do
        let pkt = random_pkt st in
        (* different seeds, same hash values: no randomization freedom *)
        Alcotest.(check int) "hash is forced" (hash_on p a.Solve.keys 0 pkt)
          (hash_on p b.Solve.keys 0 pkt)
      done;
      (* whereas the flex-extracted formulation keeps the key free *)
      let q =
        Problem.make
          ~field_sets:[ Nic.Field_set.make [ Field.Ip_dst ] ]
          [ Cstr.same_flow ~port:0 [ Field.Ip_dst ] ]
      in
      (match (Solve.solve ~seed:3 q, Solve.solve ~seed:77 q) with
      | Ok a', Ok b' ->
          let differs = ref false in
          for _ = 1 to 50 do
            let pkt = random_pkt st in
            if hash_on q a'.Solve.keys 0 pkt <> hash_on q b'.Solve.keys 0 pkt then
              differs := true
          done;
          Alcotest.(check bool) "flex keys are randomizable" true !differs
      | _ -> Alcotest.fail "flex formulation should solve")
  | Error _, _ | _, Error _ ->
      (* also acceptable: the quality gate refuses the rigid workaround *)
      ()

let test_problem_rejects_uncoverable_fields () =
  (* MAC-keyed sharding cannot be expressed on any modeled NIC *)
  Alcotest.(check bool) "error" true
    (Result.is_error
       (Problem.for_constraints ~nports:1
          [ Cstr.make ~port_a:0 ~port_b:0 [ (Field.Eth_src, Field.Eth_src) ] ]))

(* --- the §5 collision attack ------------------------------------------------ *)

let test_attack_finds_collisions () =
  let st = rng 23 in
  let key = Bitvec.random st (52 * 8) in
  let field_set = Nic.Field_set.ipv4_tcp in
  let pkts = Attack.colliding_packets ~key ~field_set ~target_hash:0x12345678 ~rng:st ~n:100 in
  Alcotest.(check int) "count" 100 (List.length pkts);
  List.iter
    (fun p ->
      match Nic.Field_set.hash_input field_set p with
      | Some d ->
          Alcotest.(check int) "hash is the target" 0x12345678 (Nic.Toeplitz.hash_int ~key d)
      | None -> Alcotest.fail "no input")
    pkts;
  Alcotest.(check (float 0.001)) "fully colliding" 1.0
    (Attack.collision_rate ~key ~field_set pkts)

let test_attack_defeated_by_rekeying () =
  let st = rng 29 in
  let key = Bitvec.random st (52 * 8) in
  let other = Bitvec.random st (52 * 8) in
  let field_set = Nic.Field_set.ipv4_tcp in
  let pkts = Attack.colliding_packets ~key ~field_set ~target_hash:0xdead00d ~rng:st ~n:200 in
  (* under an independently drawn key the collision set falls apart *)
  Alcotest.(check bool) "spread under a fresh key" true
    (Attack.collision_rate ~key:other ~field_set pkts < 0.2)

(* --- the probe hash against the bit-by-bit reference ------------------------ *)

(* Key validation hashes its probes with [Nic.Rss.hasher] (compiled tables,
   fields read straight from the packet).  Each check below redoes the
   computation with [Field_set.hash_input] and the bit-by-bit
   [Toeplitz.hash_int] over the same probes, drawn from a copy of the same
   RNG state, and must agree exactly — which is what keeps every solved key
   and plan unchanged. *)
let reference_hash key field_set p =
  match Nic.Field_set.hash_input field_set p with
  | Some d -> Nic.Toeplitz.hash_int ~key d
  | None -> -1

let solved_plan name =
  (Maestro.Pipeline.parallelize_exn (Nfs.Registry.find_exn name)).Maestro.Pipeline.plan

let solved_nfs = [ "nat"; "fw"; "psd"; "hhh"; "vxlan_fw" ]
let zero_key = Bitvec.create (8 * 52)
let ragged_set = Nic.Field_set.make_sliced [ (Field.Ip_src, 12) ]

(* (label, key, field set): every solved port of [solved_nfs], ipv4_tcp under
   the all-zero key and random keys, and a 12-bit slice, which takes the
   hasher's Bitvec fallback *)
let hash_cases () =
  let st = rng 41 in
  let solved =
    List.concat_map
      (fun name ->
        Array.to_list
          (Array.mapi
             (fun port { Maestro.Plan.key; field_set } ->
               (Printf.sprintf "%s port %d" name port, key, field_set))
             (solved_plan name).Maestro.Plan.rss))
      solved_nfs
  in
  let cases =
    solved
    @ [ ("ipv4_tcp, zero key", zero_key, Nic.Field_set.ipv4_tcp) ]
    @ List.init 3 (fun i ->
          let key = Bitvec.random st (8 * 52) in
          (Printf.sprintf "ipv4_tcp, random key %d" i, key, Nic.Field_set.ipv4_tcp))
    @ [ ("ip.src[0:12]", Bitvec.random st (8 * 52), ragged_set) ]
  in
  let covers set = List.exists (fun (_, _, s) -> Nic.Field_set.equal s set) solved in
  Alcotest.(check bool) "hhh's /8 set covered" true
    (covers (Nic.Field_set.make_sliced [ (Field.Ip_src, 8) ]));
  Alcotest.(check bool) "vxlan_fw's inner set covered" true (covers Nic.Field_set.inner_ipv4_tcp);
  Alcotest.(check bool) "ragged set takes the Bitvec path" true
    (Nic.Field_set.field_plan ragged_set = None);
  cases

let spread =
  Alcotest.testable
    (fun fmt (s : Validate.spread) ->
      Format.fprintf fmt "{distinct %d; imbalance %h; nonempty %d; constant %b}"
        s.Validate.distinct_hashes s.Validate.bucket_imbalance s.Validate.nonempty_buckets
        s.Validate.constant_hash)
    ( = )

let reference_spread ~key ~field_set ~rng ~trials =
  let hs =
    Array.init trials (fun _ -> reference_hash key field_set (Validate.probe rng ~port:0))
    |> Array.to_list
    |> List.filter (fun h -> h >= 0)
  in
  let buckets = Array.make 64 0 in
  List.iter (fun h -> buckets.(h land 63) <- buckets.(h land 63) + 1) hs;
  let distinct = List.length (List.sort_uniq compare hs) in
  let total = List.length hs in
  {
    Validate.distinct_hashes = distinct;
    bucket_imbalance =
      (if total = 0 then 1.
       else float_of_int (Array.fold_left max 0 buckets) /. (float_of_int total /. 64.));
    nonempty_buckets = Array.fold_left (fun a c -> if c > 0 then a + 1 else a) 0 buckets;
    constant_hash = distinct <= 1;
  }

(* both sides must also leave the RNG in the same state: they drew the
   same probes *)
let check_same_draws label a b =
  Alcotest.(check int) (label ^ ": same draws") (Random.State.bits a) (Random.State.bits b)

let test_spread_matches_reference () =
  List.iteri
    (fun i (label, key, field_set) ->
      let st = rng (100 + i) in
      let copy = Random.State.copy st in
      Alcotest.check spread label
        (reference_spread ~key ~field_set ~rng:copy ~trials:2048)
        (Validate.spread_of_key ~key ~field_set ~rng:st ~trials:2048);
      check_same_draws label st copy)
    (hash_cases ())

let reference_check (p : Problem.t) ~keys ~rng ~trials =
  let violation = ref None in
  List.iter
    (fun (c : Cstr.t) ->
      for _ = 1 to trials do
        if !violation = None then begin
          let d_a, d_b = Validate.probe_pair rng c in
          let h port d = reference_hash keys.(port) p.Problem.field_sets.(port) d in
          let ha = h c.Cstr.port_a d_a and hb = h c.Cstr.port_b d_b in
          if ha >= 0 && hb >= 0 && ha <> hb then
            violation :=
              Some (Format.asprintf "constraint %a violated: %08x vs %08x" Cstr.pp c ha hb)
        end
      done)
    p.Problem.constraints;
  match !violation with Some msg -> Error msg | None -> Ok ()

(* Solved keys pass; random keys break a constraint, and both sides must
   name the same constraint and the same pair of hashes. *)
let test_check_constraints_matches_reference () =
  let st = rng 43 in
  let random_keys n = Array.init n (fun _ -> Bitvec.random st (8 * 52)) in
  let of_plan name =
    let plan = solved_plan name in
    let rss = plan.Maestro.Plan.rss in
    let p =
      Problem.make ~nic:plan.Maestro.Plan.nic
        ~field_sets:(Array.to_list (Array.map (fun r -> r.Maestro.Plan.field_set) rss))
        plan.Maestro.Plan.constraints
    in
    [
      (name ^ " solved", p, Array.map (fun r -> r.Maestro.Plan.key) rss, true);
      (name ^ " random", p, random_keys (Array.length rss), false);
    ]
  in
  let ragged =
    Problem.make ~field_sets:[ ragged_set ]
      [
        Cstr.make_sliced ~port_a:0 ~port_b:0
          [ { Cstr.fa = Field.Ip_src; fb = Field.Ip_src; bits = 12 } ];
      ]
  in
  let cases =
    List.concat_map of_plan solved_nfs
    @ [
        ("fw, zero keys", fw_problem (), [| zero_key; zero_key |], true);
        ("fw, random keys", fw_problem (), random_keys 2, false);
        ("ip.src[0:12], random key", ragged, random_keys 1, true);
      ]
  in
  let violated = ref 0 in
  List.iteri
    (fun i (label, p, keys, passes) ->
      let st = rng (200 + i) in
      let copy = Random.State.copy st in
      let expected = reference_check p ~keys ~rng:copy ~trials:200 in
      Alcotest.(check (result unit string)) label expected
        (Validate.check_constraints p ~keys ~rng:st ~trials:200);
      check_same_draws label st copy;
      if passes then Alcotest.(check bool) (label ^ " passes") true (Result.is_ok expected);
      if Result.is_error expected then incr violated)
    cases;
  Alcotest.(check bool) "random keys break constraints" true (!violated >= 3)

let reference_collision_rate ~key ~field_set pkts =
  let hs = List.filter (fun h -> h >= 0) (List.map (reference_hash key field_set) pkts) in
  let counts = Hashtbl.create 64 in
  List.iter
    (fun h -> Hashtbl.replace counts h (1 + Option.value ~default:0 (Hashtbl.find_opt counts h)))
    hs;
  if hs = [] then 0.0
  else
    float_of_int (Hashtbl.fold (fun _ c acc -> max c acc) counts 0)
    /. float_of_int (List.length hs)

(* Over an attack set, random probes and packets no port-bearing or inner
   set matches, packet by packet and in aggregate. *)
let test_collision_rate_matches_reference () =
  List.iteri
    (fun i (label, key, field_set) ->
      let st = rng (300 + i) in
      let probes = List.init 200 (fun _ -> Validate.probe st ~port:0) in
      let target_hash = reference_hash key field_set (List.hd probes) in
      let attack = Attack.colliding_packets ~key ~field_set ~target_hash ~rng:st ~n:50 in
      let unmatched = List.init 20 (fun _ -> { (random_pkt st) with Pkt.proto = Pkt.Other 1 }) in
      let hash = Nic.Rss.hasher (Nic.Toeplitz.Key.compile key) field_set in
      List.iter
        (fun pkts ->
          List.iter
            (fun p ->
              Alcotest.(check int) (label ^ ": hash") (reference_hash key field_set p) (hash p))
            pkts;
          Alcotest.(check (float 0.)) (label ^ ": collision rate")
            (reference_collision_rate ~key ~field_set pkts)
            (Attack.collision_rate ~key ~field_set pkts))
        [ attack; probes; unmatched; attack @ probes @ unmatched ])
    (hash_cases ())

(* --- properties ----------------------------------------------------------- *)

let prop_solutions_always_validate =
  QCheck.Test.make ~name:"gauss solutions satisfy their constraints" ~count:25
    QCheck.(int_range 0 1000)
    (fun seed ->
      let p = fw_problem () in
      match Solve.solve ~seed p with
      | Error _ -> false
      | Ok s ->
          Result.is_ok
            (Validate.check_constraints p ~keys:s.Solve.keys ~rng:(rng seed) ~trials:50))

let prop_backends_equisatisfiable =
  QCheck.Test.make ~name:"gauss and sat agree on satisfiability" ~count:10
    QCheck.(int_range 0 100)
    (fun seed ->
      let p = nat_problem () in
      let a = Result.is_ok (Solve.solve ~backend:`Gauss ~seed p) in
      let b = Result.is_ok (Solve.solve ~backend:`Sat ~seed p) in
      a = b)

let suite =
  [
    Alcotest.test_case "cstr normalizes ports" `Quick test_cstr_normalizes_ports;
    Alcotest.test_case "cstr width mismatch" `Quick test_cstr_rejects_width_mismatch;
    Alcotest.test_case "self identity" `Quick test_self_identity;
    Alcotest.test_case "identity constraints leave keys free" `Quick
      test_identity_constraints_leave_keys_free;
    Alcotest.test_case "fw keys are symmetric across ports" `Quick test_fw_solution_is_symmetric;
    Alcotest.test_case "fw distinct flows spread" `Quick test_fw_distinct_flows_spread;
    Alcotest.test_case "policer shards on dst ip only" `Quick test_policer_ignores_ports_and_src;
    Alcotest.test_case "nat shards on the server" `Quick test_nat_cross_port_server_sharding;
    Alcotest.test_case "disjoint requirements rejected (R3)" `Quick
      test_disjoint_requirements_rejected;
    Alcotest.test_case "sat backend agrees" `Quick test_sat_backend_agrees;
    Alcotest.test_case "validate catches bad keys" `Quick test_validate_catches_bad_keys;
    Alcotest.test_case "spread detects constant hash" `Quick test_spread_detects_constant_hash;
    Alcotest.test_case "uncoverable fields rejected" `Quick test_problem_rejects_uncoverable_fields;
    Alcotest.test_case "rigid input leaves no key freedom" `Quick
      test_rigid_input_has_no_key_freedom;
    Alcotest.test_case "attack finds exact collisions" `Quick test_attack_finds_collisions;
    Alcotest.test_case "attack defeated by re-keying" `Quick test_attack_defeated_by_rekeying;
    Alcotest.test_case "spread matches the reference hash" `Quick test_spread_matches_reference;
    Alcotest.test_case "check_constraints matches the reference hash" `Quick
      test_check_constraints_matches_reference;
    Alcotest.test_case "collision rate matches the reference hash" `Quick
      test_collision_rate_matches_reference;
    QCheck_alcotest.to_alcotest prop_solutions_always_validate;
    QCheck_alcotest.to_alcotest prop_backends_equisatisfiable;
  ]
