(* The NF registry (lib/nfs/registry.ml): every published name builds,
   round-trips lookup, stages cleanly under the compiler, declares
   unambiguous state, and composes into chains — the contracts the CLI,
   the benches and Dsl.Chain all lean on. *)

open Dsl.Ast

let decl_name = function
  | Decl_map { name; _ } | Decl_vector { name; _ } | Decl_chain { name; _ }
  | Decl_sketch { name; _ } ->
      name

(* every extended name resolves, and the NF it builds answers to it *)
let test_names_round_trip () =
  List.iter
    (fun name ->
      match Nfs.Registry.find name with
      | None -> Alcotest.failf "%s: published but find returns None" name
      | Some nf ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: fresh builds are independent values" name)
            true
            (Nfs.Registry.find_exn name == Nfs.Registry.find_exn name = false);
          Alcotest.(check bool)
            (Printf.sprintf "%s: expected_strategy is published" name)
            true
            (match Nfs.Registry.expected_strategy name with
            | `Shared_nothing | `Locks | `Read_only_lb -> true);
          ignore nf)
    Nfs.Registry.extended_names;
  Alcotest.(check bool) "unknown name finds nothing" true (Nfs.Registry.find "no_such_nf" = None);
  Alcotest.(check bool) "names is a prefix of extended_names" true
    (List.for_all (fun n -> List.mem n Nfs.Registry.extended_names) Nfs.Registry.names)

(* every registry NF passes Check and stages under Dsl.Compile *)
let test_all_stage_cleanly () =
  List.iter
    (fun name ->
      let nf = Nfs.Registry.find_exn name in
      match Dsl.Check.check nf with
      | Error es -> Alcotest.failf "%s: Check fails: %s" name (String.concat "; " es)
      | Ok info ->
          let staged = Dsl.Compile.stage_runner nf info in
          let bound = Dsl.Compile.bind_runner staged (Dsl.Instance.create nf) in
          let pkt =
            Packet.Pkt.make ~port:0 ~ip_src:1 ~ip_dst:2 ~src_port:3 ~dst_port:4 ()
          in
          (* the bound closure runs: any verdict will do *)
          ignore (Dsl.Compile.run bound pkt : Dsl.Interp.action))
    Nfs.Registry.extended_names

(* state-object names are distinct within each NF (what Chain's
   namespacing preserves) and each NF's name is distinct in the registry *)
let test_distinct_names () =
  let dup l =
    let sorted = List.sort compare l in
    let rec go = function a :: b :: _ when a = b -> Some a | _ :: t -> go t | [] -> None in
    go sorted
  in
  (match dup Nfs.Registry.extended_names with
  | Some n -> Alcotest.failf "registry name %s published twice" n
  | None -> ());
  List.iter
    (fun name ->
      let nf = Nfs.Registry.find_exn name in
      match dup (List.map decl_name nf.state) with
      | Some o -> Alcotest.failf "%s: state object %s declared twice" name o
      | None -> ())
    Nfs.Registry.extended_names

(* every registry NF chains with itself — or, for the bridges, whose
   egress port is a learned value rather than a constant, is rejected
   with exactly the non-spliceable-forward error and still composes as a
   final stage *)
let test_self_chains () =
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  List.iter
    (fun name ->
      let nf () = Nfs.Registry.find_exn name in
      match Dsl.Chain.compose [ nf (); nf () ] with
      | Ok chain -> (
          match Dsl.Check.check (Dsl.Chain.nf chain) with
          | Error es ->
              Alcotest.failf "%s: self-chain fails Check: %s" name (String.concat "; " es)
          | Ok info ->
              ignore
                (Dsl.Compile.make_runner (Dsl.Chain.nf chain) info
                   (Dsl.Instance.create (Dsl.Chain.nf chain))))
      | Error e ->
          if not (contains e "constant") then
            Alcotest.failf "%s: self-chain rejected for the wrong reason: %s" name e;
          (* a dynamic forward is still a valid chain *verdict*: the same
             NF must compose when it is the final stage *)
          let pass =
            Dsl.Chain.filter ~devices:(nf ()).devices ~name:"pass"
              Dsl.Ast.(const 1 ==. const 1)
          in
          (match Dsl.Chain.compose [ pass; nf () ] with
          | Ok _ -> ()
          | Error e' -> Alcotest.failf "%s: rejected even as final stage: %s" name e'))
    Nfs.Registry.extended_names

(* compose_chain: the CLI's name-list entry point *)
let test_compose_chain () =
  (match Nfs.Registry.compose_chain [ "fw"; "nat"; "lb" ] with
  | Error e -> Alcotest.failf "fw,nat,lb rejected: %s" e
  | Ok chain ->
      Alcotest.(check int) "three stages" 3 (List.length chain.Dsl.Chain.stages);
      Alcotest.(check string) "derived name" "chain_fw_nat_lb" chain.Dsl.Chain.name);
  (match Nfs.Registry.compose_chain [ "fw"; "no_such_nf" ] with
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "unknown name reported: %s" e)
        true
        (String.length e >= 7 && String.sub e 0 7 = "unknown")
  | Ok _ -> Alcotest.fail "unknown NF accepted");
  match Nfs.Registry.compose_chain [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty chain accepted"

let suite =
  [
    Alcotest.test_case "names round-trip lookup" `Quick test_names_round_trip;
    Alcotest.test_case "all NFs stage under the compiler" `Quick test_all_stage_cleanly;
    Alcotest.test_case "distinct registry and state-object names" `Quick test_distinct_names;
    Alcotest.test_case "every NF self-chains" `Quick test_self_chains;
    Alcotest.test_case "compose_chain from names" `Quick test_compose_chain;
  ]
