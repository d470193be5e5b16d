(* Tests for the NF DSL: static checking, interpretation, state semantics. *)

open Dsl.Ast

let ip a b c d = (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let pkt ?(port = 0) ?(ts_ns = 0) ?(size = 64) ?(proto = Packet.Pkt.Tcp) src sport dst dport =
  Packet.Pkt.make ~port ~ts_ns ~size ~proto ~ip_src:src ~ip_dst:dst ~src_port:sport
    ~dst_port:dport ()

let run_nf nf =
  let info = Dsl.Check.check_exn nf in
  let inst = Dsl.Instance.create nf in
  fun p -> Dsl.Interp.process nf info inst p

(* --- static checking ----------------------------------------------------- *)

let tiny_counter key =
  {
    name = "tiny";
    devices = 2;
    state = [ Decl_map { name = "m"; capacity = 16; init = [] } ];
    process =
      Map_get
        {
          obj = "m";
          key;
          found = "f";
          value = "v";
          k =
            Map_put
              { obj = "m"; key; value = Var "v" +. const 1; ok = "ok"; k = Forward (const ~width:16 1) };
        };
  }

let test_check_accepts_valid () =
  match Dsl.Check.check (tiny_counter [ Field Packet.Field.Ip_src ]) with
  | Ok _ -> ()
  | Error es -> Alcotest.fail (String.concat "; " es)

let expect_errors nf =
  match Dsl.Check.check nf with
  | Ok _ -> Alcotest.fail "expected validation errors"
  | Error es -> es

let test_check_unknown_object () =
  let nf =
    { (tiny_counter [ Field Packet.Field.Ip_src ]) with state = [] }
  in
  let es = expect_errors nf in
  Alcotest.(check bool) "mentions unknown object" true
    (List.exists (fun e -> String.length e > 0) es)

let test_check_unbound_var () =
  let nf =
    {
      name = "bad";
      devices = 1;
      state = [];
      process = If (Var "nope" ==. const 1, Drop, Drop);
    }
  in
  ignore (expect_errors nf)

let test_check_key_width_consistency () =
  let nf =
    {
      name = "bad_widths";
      devices = 1;
      state = [ Decl_map { name = "m"; capacity = 4; init = [] } ];
      process =
        Map_get
          {
            obj = "m";
            key = [ Field Packet.Field.Ip_src ];
            found = "f";
            value = "v";
            k =
              Map_put
                {
                  obj = "m";
                  key = [ Field Packet.Field.Src_port ];
                  value = const 1;
                  ok = "ok";
                  k = Drop;
                };
          };
    }
  in
  ignore (expect_errors nf)

let test_check_mismatched_comparison () =
  let nf =
    {
      name = "bad_cmp";
      devices = 1;
      state = [];
      process = If (Field Packet.Field.Ip_src ==. Field Packet.Field.Src_port, Drop, Drop);
    }
  in
  ignore (expect_errors nf)

let test_check_bad_forward () =
  let nf = { name = "bad_fwd"; devices = 2; state = []; process = Forward (const ~width:16 5) } in
  ignore (expect_errors nf)

let test_check_all_registry_nfs_valid () =
  List.iter
    (fun nf ->
      match Dsl.Check.check nf with
      | Ok _ -> ()
      | Error es ->
          Alcotest.fail (Printf.sprintf "%s: %s" nf.Dsl.Ast.name (String.concat "; " es)))
    (List.map Nfs.Registry.find_exn Nfs.Registry.extended_names @ Nfs.Scenarios.all ())

(* --- interpretation ------------------------------------------------------ *)

let test_interp_counter_counts () =
  let nf = tiny_counter [ Field Packet.Field.Ip_src ] in
  let info = Dsl.Check.check_exn nf in
  let inst = Dsl.Instance.create nf in
  let p = pkt (ip 1 2 3 4) 10 (ip 5 6 7 8) 20 in
  for _ = 1 to 3 do
    ignore (Dsl.Interp.process nf info inst p)
  done;
  match Dsl.Instance.find inst "m" with
  | Dsl.Instance.O_map m ->
      let key = key_of_parts [ (32, ip 1 2 3 4) ] in
      Alcotest.(check (option int)) "count" (Some 3) (State.Map_s.get m key)
  | _ -> Alcotest.fail "not a map"

let test_interp_op_events () =
  let nf = tiny_counter [ Field Packet.Field.Ip_src ] in
  let info = Dsl.Check.check_exn nf in
  let inst = Dsl.Instance.create nf in
  let events = ref [] in
  let on_op (e : Dsl.Interp.op_event) = events := e :: !events in
  ignore (Dsl.Interp.process ~on_op nf info inst (pkt 1 2 3 4));
  let kinds = List.rev_map (fun (e : Dsl.Interp.op_event) -> e.Dsl.Interp.kind) !events in
  Alcotest.(check int) "two ops" 2 (List.length kinds);
  Alcotest.(check bool) "get then put" true
    (kinds = [ Dsl.Interp.Op_map_get; Dsl.Interp.Op_map_put ]);
  let writes = List.filter (fun (e : Dsl.Interp.op_event) -> e.Dsl.Interp.write) !events in
  Alcotest.(check int) "one write" 1 (List.length writes)

let test_instance_capacity_division () =
  let nf = Nfs.Fw.make ~capacity:1024 () in
  let whole = Dsl.Instance.create nf in
  let sharded = Dsl.Instance.create ~divide:8 nf in
  (match (Dsl.Instance.find whole "fw_chain", Dsl.Instance.find sharded "fw_chain") with
  | Dsl.Instance.O_chain a, Dsl.Instance.O_chain b ->
      Alcotest.(check int) "full" 1024 (State.Dchain.capacity a);
      Alcotest.(check int) "divided" 128 (State.Dchain.capacity b)
  | _ -> Alcotest.fail "chains expected");
  Alcotest.(check bool) "memory shrinks" true
    (Dsl.Instance.total_memory_bytes sharded < Dsl.Instance.total_memory_bytes whole)

(* [copy] is deep: a flow the original opens after the copy shows in
   neither the copy's map nor its key vector *)
let test_instance_copy_is_deep () =
  let nf = Nfs.Fw.make ~capacity:64 () in
  let info = Dsl.Check.check_exn nf in
  let inst = Dsl.Instance.create nf in
  ignore (Dsl.Interp.process nf info inst (pkt (ip 10 0 0 1) 1234 (ip 96 0 0 2) 80));
  let dup = Dsl.Instance.copy inst in
  ignore (Dsl.Interp.process nf info inst (pkt (ip 10 0 0 3) 1235 (ip 96 0 0 4) 80));
  match
    ( Dsl.Instance.find inst "fw_flows",
      Dsl.Instance.find dup "fw_flows",
      Dsl.Instance.find inst "fw_keys",
      Dsl.Instance.find dup "fw_keys" )
  with
  | Dsl.Instance.O_map ma, Dsl.Instance.O_map mb, Dsl.Instance.O_vector va, Dsl.Instance.O_vector vb
    ->
      Alcotest.(check int) "original: two flows" 2 (State.Map_s.size ma);
      Alcotest.(check int) "copy: one flow" 1 (State.Map_s.size mb);
      Alcotest.(check bool) "key vectors diverged" true
        (va.Dsl.Instance.slots <> vb.Dsl.Instance.slots)
  | _ -> Alcotest.fail "fw_flows map and fw_keys vector expected"

let test_cast_masks () =
  let nf =
    {
      name = "cast";
      devices = 2;
      state = [];
      process =
        Let
          ( "x",
            Cast (16, const ~width:32 (1024 + 70000)),
            If (Var "x" ==. const ~width:16 ((1024 + 70000) land 0xffff), Forward (const ~width:16 1), Drop) );
    }
  in
  match run_nf nf (pkt 1 2 3 4) with
  | Dsl.Interp.Fwd (1, _) -> ()
  | _ -> Alcotest.fail "cast did not truncate"

let test_div_by_zero_is_zero () =
  let nf =
    {
      name = "divz";
      devices = 2;
      state = [];
      process =
        If (Bin (Div, const 10, const 0) ==. const 0, Forward (const ~width:16 1), Drop);
    }
  in
  match run_nf nf (pkt 1 2 3 4) with
  | Dsl.Interp.Fwd (1, _) -> ()
  | _ -> Alcotest.fail "div by zero should be 0"

let suite =
  [
    Alcotest.test_case "check accepts valid" `Quick test_check_accepts_valid;
    Alcotest.test_case "check unknown object" `Quick test_check_unknown_object;
    Alcotest.test_case "check unbound var" `Quick test_check_unbound_var;
    Alcotest.test_case "check key width consistency" `Quick test_check_key_width_consistency;
    Alcotest.test_case "check width-mismatched comparison" `Quick test_check_mismatched_comparison;
    Alcotest.test_case "check bad forward" `Quick test_check_bad_forward;
    Alcotest.test_case "all registry NFs validate" `Quick test_check_all_registry_nfs_valid;
    Alcotest.test_case "interp counter" `Quick test_interp_counter_counts;
    Alcotest.test_case "interp op events" `Quick test_interp_op_events;
    Alcotest.test_case "instance capacity division" `Quick test_instance_capacity_division;
    Alcotest.test_case "instance copy is deep" `Quick test_instance_copy_is_deep;
    Alcotest.test_case "cast masks" `Quick test_cast_masks;
    Alcotest.test_case "div by zero" `Quick test_div_by_zero_is_zero;
  ]
