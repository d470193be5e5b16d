(* Tests for the NIC library: Toeplitz hash (against the published Microsoft
   verification vectors), field sets, capability models, RETA, RSS. *)

open Packet
open Nic

let ip a b c d = (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

(* The Microsoft RSS hash verification suite: (src ip:port, dst ip:port,
   expected hash with TCP ports, expected hash over addresses only). *)
let microsoft_vectors =
  [
    (ip 66 9 149 187, 2794, ip 161 142 100 80, 1766, 0x51ccc178, 0x323e8fc2);
    (ip 199 92 111 2, 14230, ip 65 69 140 83, 4739, 0xc626b0ea, 0xd718262a);
    (ip 24 19 198 95, 12898, ip 12 22 207 184, 38024, 0x5c2b394a, 0xd2d0a5de);
    (ip 38 27 205 30, 48228, ip 209 142 163 6, 2217, 0xafc7327f, 0x82989176);
    (ip 153 39 163 191, 44251, ip 202 188 127 2, 1303, 0x10e828a2, 0x5d1809c5);
  ]

let test_toeplitz_microsoft_tcp () =
  List.iter
    (fun (src, sport, dst, dport, expected_tcp, _) ->
      let p = Pkt.make ~ip_src:src ~ip_dst:dst ~src_port:sport ~dst_port:dport () in
      match Field_set.hash_input Field_set.ipv4_tcp p with
      | None -> Alcotest.fail "no hash input"
      | Some d ->
          Alcotest.(check int) "tcp hash" expected_tcp
            (Toeplitz.hash_int ~key:Toeplitz.microsoft_test_key d))
    microsoft_vectors

let test_toeplitz_microsoft_ip_only () =
  List.iter
    (fun (src, _, dst, _, _, expected_ip) ->
      let p = Pkt.make ~ip_src:src ~ip_dst:dst ~src_port:0 ~dst_port:0 () in
      match Field_set.hash_input Field_set.ipv4 p with
      | None -> Alcotest.fail "no hash input"
      | Some d ->
          Alcotest.(check int) "ip hash" expected_ip
            (Toeplitz.hash_int ~key:Toeplitz.microsoft_test_key d))
    microsoft_vectors

let test_toeplitz_zero_key () =
  let key = Bitvec.create (52 * 8) in
  let p = Pkt.make ~ip_src:123 ~ip_dst:456 ~src_port:7 ~dst_port:8 () in
  match Field_set.hash_input Field_set.ipv4_tcp p with
  | None -> Alcotest.fail "no input"
  | Some d -> Alcotest.(check int) "zero key hashes to zero" 0 (Toeplitz.hash_int ~key d)

let test_toeplitz_key_too_short () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Toeplitz.hash ~key:(Bitvec.create 64) (Bitvec.create 96));
       false
     with Invalid_argument _ -> true)

(* A key made of a repeated 16-bit pattern hashes symmetrically under
   src/dst swap of both addresses and ports — the Woo & Park construction
   our RS3 must rediscover. *)
let test_toeplitz_repeated_pattern_symmetry () =
  let key = Bitvec.of_hex (String.concat "" (List.init 26 (fun _ -> "6d5a"))) in
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 100 do
    let p =
      Pkt.make ~ip_src:(Random.State.int rng 0x3fffffff)
        ~ip_dst:(Random.State.int rng 0x3fffffff)
        ~src_port:(Random.State.int rng 0x10000)
        ~dst_port:(Random.State.int rng 0x10000)
        ()
    in
    let d = Option.get (Field_set.hash_input Field_set.ipv4_tcp p) in
    let d' = Option.get (Field_set.hash_input Field_set.ipv4_tcp (Pkt.flip p)) in
    Alcotest.(check int32) "symmetric" (Toeplitz.hash ~key d) (Toeplitz.hash ~key d')
  done

let test_field_set_canonical_order () =
  let a = Field_set.make [ Field.Dst_port; Field.Ip_src; Field.Src_port; Field.Ip_dst ] in
  Alcotest.(check bool) "order-insensitive" true (Field_set.equal a Field_set.ipv4_tcp);
  Alcotest.(check int) "input bits" 96 (Field_set.input_bits a)

let test_field_set_offsets () =
  Alcotest.(check (option int)) "ip_src" (Some 0) (Field_set.offset Field_set.ipv4_tcp Field.Ip_src);
  Alcotest.(check (option int)) "ip_dst" (Some 32) (Field_set.offset Field_set.ipv4_tcp Field.Ip_dst);
  Alcotest.(check (option int)) "sport" (Some 64) (Field_set.offset Field_set.ipv4_tcp Field.Src_port);
  Alcotest.(check (option int)) "dport" (Some 80) (Field_set.offset Field_set.ipv4_tcp Field.Dst_port);
  Alcotest.(check (option int)) "absent" None (Field_set.offset Field_set.ipv4 Field.Src_port)

let test_field_set_rejects_mac () =
  Alcotest.(check bool) "mac rejected" true
    (try
       ignore (Field_set.make [ Field.Eth_src ]);
       false
     with Invalid_argument _ -> true)

let test_field_set_matches () =
  let tcp = Pkt.make ~ip_src:1 ~ip_dst:2 ~src_port:3 ~dst_port:4 () in
  let icmp = Pkt.make ~proto:(Pkt.Other 1) ~ip_src:1 ~ip_dst:2 ~src_port:0 ~dst_port:0 () in
  Alcotest.(check bool) "tcp matches" true (Field_set.matches Field_set.ipv4_tcp tcp);
  Alcotest.(check bool) "icmp no ports" false (Field_set.matches Field_set.ipv4_tcp icmp);
  Alcotest.(check bool) "icmp ip-only ok" true (Field_set.matches Field_set.ipv4 icmp)

let test_nic_capabilities () =
  Alcotest.(check bool) "e810 supports tcp tuple" true (Model.supports Model.E810 Field_set.ipv4_tcp);
  Alcotest.(check bool) "e810 arbitrary subset" true
    (Model.supports Model.E810 (Field_set.make [ Field.Ip_dst ]));
  Alcotest.(check bool) "e810 dst-only pair" true
    (Model.supports Model.E810 (Field_set.make [ Field.Ip_dst; Field.Dst_port ]));
  Alcotest.(check bool) "x710 is rigid" false
    (Model.supports Model.X710 (Field_set.make [ Field.Ip_dst ]));
  Alcotest.(check bool) "x710 address pair ok" true (Model.supports Model.X710 Field_set.ipv4);
  Alcotest.(check int) "e810 key bytes" 52 (Model.key_bytes Model.E810);
  Alcotest.(check int) "x710 key bytes" 40 (Model.key_bytes Model.X710)

let test_best_set_covering () =
  (* the Policer scenario: needs dst IP only; the E810 hashes exactly that
     field (L3_DST_ONLY), the X710 falls back to its rigid address pair *)
  (match Model.best_set_covering Model.E810 [ Field.Ip_dst ] with
  | None -> Alcotest.fail "should find a covering set"
  | Some s ->
      Alcotest.(check bool) "e810 picks the exact subset" true
        (Field_set.equal s (Field_set.make [ Field.Ip_dst ])));
  (match Model.best_set_covering Model.X710 [ Field.Ip_dst ] with
  | None -> Alcotest.fail "x710 should cover"
  | Some s -> Alcotest.(check bool) "x710 falls back to the pair" true (Field_set.equal s Field_set.ipv4));
  Alcotest.(check bool) "mac is uncoverable" true
    (Model.best_set_covering Model.E810 [ Field.Eth_src ] = None)

let test_reta_round_robin () =
  let r = Reta.create ~size:8 ~queues:3 () in
  Alcotest.(check (array int)) "pattern" [| 0; 1; 2; 0; 1; 2; 0; 1 |] (Reta.entries r);
  Alcotest.(check int) "lookup masks" (Reta.lookup r 9) (Reta.lookup r 1)

let test_reta_bad_size () =
  Alcotest.(check bool) "power of two" true
    (try
       ignore (Reta.create ~size:100 ~queues:2 ());
       false
     with Invalid_argument _ -> true)

let test_reta_rebalance () =
  let r = Reta.create ~size:8 ~queues:2 () in
  (* all the load lands in buckets 0,2,4,6 -> all on queue 0 *)
  let load = [| 10.; 0.; 10.; 0.; 10.; 0.; 10.; 0. |] in
  let before = Reta.imbalance r ~bucket_load:load in
  Alcotest.(check bool) "imbalanced before" true (before > 1.9);
  let r' = Reta.rebalance r ~bucket_load:load in
  let after = Reta.imbalance r' ~bucket_load:load in
  Alcotest.(check bool) "balanced after" true (after <= 1.01);
  Alcotest.(check int) "queues preserved" 2 (Reta.queues r')

let test_reta_remap_failover () =
  let r = Reta.create ~size:16 ~queues:4 () in
  let live = [| true; false; true; true |] in
  let r' = Reta.remap r ~live in
  let before = Reta.entries r and after = Reta.entries r' in
  Array.iteri
    (fun i q ->
      Alcotest.(check bool) (Printf.sprintf "bucket %d live" i) true live.(q);
      (* buckets already on live queues must not move *)
      if live.(before.(i)) then
        Alcotest.(check int) (Printf.sprintf "bucket %d untouched" i) before.(i) q)
    after;
  Alcotest.(check int) "queue count preserved" 4 (Reta.queues r');
  (* the dead queue's buckets spread over every live queue, not one *)
  let migrated = Array.to_list after |> List.filteri (fun i _ -> before.(i) = 1) in
  List.iter
    (fun q ->
      Alcotest.(check bool) (Printf.sprintf "queue %d got a share" q) true (List.mem q migrated))
    [ 0; 2; 3 ]

let test_reta_remap_skewed_load_stays_balanced () =
  (* rebalance under skew, then kill a queue: every flow still lands on
     exactly one live queue and the survivors share the dead queue's load *)
  let st = Random.State.make [| 97 |] in
  let r = Reta.create ~size:32 ~queues:4 () in
  let load = Array.init 32 (fun _ -> Random.State.float st 1.0 ** 4.0 *. 100.) in
  let r = Reta.rebalance r ~bucket_load:load in
  let live = [| true; true; false; true |] in
  let r' = Reta.remap r ~live in
  Array.iter (fun q -> Alcotest.(check bool) "live queue" true live.(q)) (Reta.entries r');
  let loads = Reta.queue_loads r' ~bucket_load:load in
  Alcotest.(check (float 1e-9)) "dead queue serves nothing" 0.0 loads.(2);
  let total = Array.fold_left ( +. ) 0.0 load in
  Alcotest.(check (float 1e-6)) "no load lost" total (Array.fold_left ( +. ) 0.0 loads)

let test_reta_remap_errors () =
  let r = Reta.create ~size:8 ~queues:2 () in
  Alcotest.(check bool) "length mismatch rejected" true
    (try
       ignore (Reta.remap r ~live:[| true |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "all-dead rejected" true
    (try
       ignore (Reta.remap r ~live:[| false; false |]);
       false
     with Invalid_argument _ -> true)

let test_rss_dispatch_deterministic () =
  let rng = Random.State.make [| 7 |] in
  let key = Rss.random_key rng Model.E810 in
  let rss = Rss.configure ~key ~sets:[ Field_set.ipv4_tcp ] ~queues:4 () in
  let p = Pkt.make ~ip_src:(ip 10 1 2 3) ~ip_dst:(ip 10 4 5 6) ~src_port:111 ~dst_port:222 () in
  let q = Rss.dispatch rss p in
  Alcotest.(check int) "stable" q (Rss.dispatch rss p);
  Alcotest.(check bool) "in range" true (q >= 0 && q < 4)

let test_rss_unmatched_goes_to_zero () =
  let rng = Random.State.make [| 8 |] in
  let rss = Rss.configure ~key:(Rss.random_key rng Model.E810) ~sets:[ Field_set.ipv4_tcp ] ~queues:4 () in
  let icmp = Pkt.make ~proto:(Pkt.Other 1) ~ip_src:1 ~ip_dst:2 ~src_port:0 ~dst_port:0 () in
  Alcotest.(check int) "default queue" 0 (Rss.dispatch rss icmp)

let test_rss_validates_key_size () =
  Alcotest.(check bool) "wrong key size" true
    (try
       ignore (Rss.configure ~key:(Bitvec.create 8) ~sets:[] ~queues:1 ());
       false
     with Invalid_argument _ -> true)

let test_rss_validates_nic_support () =
  let rng = Random.State.make [| 9 |] in
  Alcotest.(check bool) "x710 rejects dst-only" true
    (try
       ignore
         (Rss.configure ~nic:Model.X710
            ~key:(Rss.random_key rng Model.X710)
            ~sets:[ Field_set.make [ Field.Ip_dst ] ]
            ~queues:2 ());
       false
     with Invalid_argument _ -> true)

(* --- compiled (table-driven) Toeplitz ------------------------------------ *)

(* The compiled fast path must be bit-exact against the bit-by-bit oracle on
   the published Microsoft vectors... *)
let test_compiled_matches_microsoft_vectors () =
  let ck = Toeplitz.Key.compile Toeplitz.microsoft_test_key in
  List.iter
    (fun (src, sport, dst, dport, expected_tcp, expected_ip) ->
      let p = Pkt.make ~ip_src:src ~ip_dst:dst ~src_port:sport ~dst_port:dport () in
      let d = Option.get (Field_set.hash_input Field_set.ipv4_tcp p) in
      Alcotest.(check int) "tcp hash (compiled)" expected_tcp (Toeplitz.Key.hash_int ck d);
      let d_ip = Option.get (Field_set.hash_input Field_set.ipv4 p) in
      Alcotest.(check int) "ip hash (compiled)" expected_ip (Toeplitz.Key.hash_int ck d_ip))
    microsoft_vectors

let test_compiled_key_metadata () =
  let ck = Toeplitz.Key.compile Toeplitz.microsoft_test_key in
  Alcotest.(check int) "max input bits" ((40 * 8) - 32) (Toeplitz.Key.max_input_bits ck);
  Alcotest.(check bool) "original key kept" true
    (Bitvec.equal Toeplitz.microsoft_test_key (Toeplitz.Key.key ck))

let test_compiled_rejects_oversized_input () =
  let ck = Toeplitz.Key.compile (Bitvec.create 64) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Toeplitz.Key.hash ck (Bitvec.create 96));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "short key rejected" true
    (try
       ignore (Toeplitz.Key.compile (Bitvec.create 16));
       false
     with Invalid_argument _ -> true);
  (* the staged hasher checks the set's width once, when it is built,
     before its unchecked table reads: a 64-bit key hashes 32 bits *)
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  let staged set () = Rss.hasher ck set in
  Alcotest.(check bool) "pieces within the key" false
    (raises (staged (Field_set.make [ Field.Src_port; Field.Dst_port ])));
  Alcotest.(check bool) "pieces past the key" true
    (raises (staged (Field_set.make [ Field.Ip_src; Field.Ip_proto ])));
  Alcotest.(check bool) "ragged set past the key" true
    (raises (staged (Field_set.make_sliced [ (Field.Ip_src, 20); (Field.Ip_dst, 13) ])))

(* ... and on ≥1000 random (key, input) pairs across every supported
   field-set width, byte-aligned and ragged (sliced prefix sets). *)
let test_compiled_equals_oracle_randomized () =
  let rng = Random.State.make [| 0x70e9 |] in
  (* all supported field-set widths: full tuples plus ragged prefix slices *)
  let widths =
    [ 96; 64; 32; 40; 48; 8; 12; 20; 25; 33; 17; 96; 80; 72; 3; 1 ]
  in
  let checked = ref 0 in
  for _ = 1 to 70 do
    List.iter
      (fun w ->
        let key = Bitvec.random rng (Toeplitz.key_bits_for_input w + (8 * Random.State.int rng 3)) in
        let ck = Toeplitz.Key.compile key in
        let d = Bitvec.random rng w in
        incr checked;
        if Toeplitz.hash ~key d <> Toeplitz.Key.hash ck d then
          Alcotest.failf "compiled hash diverges on key=%s input=%s" (Bitvec.to_hex key)
            (Bitvec.to_hex d))
      widths
  done;
  Alcotest.(check bool) ">= 1000 pairs" true (!checked >= 1000)

(* The compiled hash agrees with the bit-by-bit reference on every kind of
   field set — whole fields, byte-multiple slices (1-, 2- and 3-byte
   pieces), ragged slices (Bitvec path) and inner headers — returns -1
   exactly when no set matches, and allocates nothing per packet. *)
let test_rss_compiled_and_reference_dispatch_agree () =
  let rng = Random.State.make [| 0xd15 |] in
  let key = Rss.random_key rng Model.E810 in
  let set_lists =
    [
      [ Field_set.ipv4_tcp; Field_set.ipv4 ];
      [ Field_set.make_sliced [ (Field.Ip_src, 24); (Field.Ip_dst, 8); (Field.Dst_port, 16) ] ];
      [ Field_set.make_sliced [ (Field.Ip_src, 20); (Field.Ip_dst, 12) ] ];
      [ Field_set.inner_ipv4_tcp ];
    ]
  in
  List.iter
    (fun sets ->
      let fast = Rss.configure ~compiled:true ~key ~sets ~queues:8 () in
      let slow = Rss.configure ~compiled:false ~key ~sets ~queues:8 () in
      Alcotest.(check bool) "fast path on" true (Rss.uses_compiled fast);
      Alcotest.(check bool) "reference path on" false (Rss.uses_compiled slow);
      let plain =
        Array.init 300 (fun _ ->
            Pkt.make
              ~proto:(if Random.State.bool rng then Pkt.Tcp else Pkt.Other 1)
              ~ip_src:(Random.State.int rng 0x3fffffff)
              ~ip_dst:(Random.State.int rng 0x3fffffff)
              ~src_port:(Random.State.int rng 0x10000)
              ~dst_port:(Random.State.int rng 0x10000)
              ())
      in
      let pkts =
        Array.concat
          [
            plain;
            Traffic.Gen.encapsulate Pkt.Vxlan (Array.sub plain 0 100);
            Traffic.Gen.encapsulate Pkt.Gre (Array.sub plain 100 100);
          ]
      in
      Array.iter
        (fun p ->
          Alcotest.(check int) "hash agrees" (Rss.hash slow p) (Rss.hash fast p);
          Alcotest.(check (option int)) "hash_of agrees" (Rss.hash_of slow p) (Rss.hash_of fast p);
          Alcotest.(check bool) "-1 iff no set matches"
            (List.exists (fun s -> Field_set.matches s p) sets)
            (Rss.hash fast p >= 0);
          Alcotest.(check int) "dispatch agrees" (Rss.dispatch slow p) (Rss.dispatch fast p))
        pkts;
      if List.for_all (fun s -> Field_set.field_plan s <> None) sets then begin
        let w0 = Gc.minor_words () in
        let acc = ref 0 in
        Array.iter (fun p -> acc := !acc lxor Rss.hash fast p) pkts;
        let words = Gc.minor_words () -. w0 in
        ignore (Sys.opaque_identity !acc);
        (* the loop's own closure and counters cost a few words in all *)
        Alcotest.(check bool) "no allocation per hash" true (words < 50.0)
      end)
    set_lists

(* --- properties --------------------------------------------------------- *)

let prop_compiled_equals_oracle =
  QCheck.Test.make ~name:"compiled toeplitz equals the bit-by-bit oracle" ~count:500
    QCheck.(pair (int_range 0 1000000) (int_range 1 96))
    (fun (seed, width) ->
      let rng = Random.State.make [| seed; width |] in
      let key = Bitvec.random rng (Toeplitz.key_bits_for_input width) in
      let d = Bitvec.random rng width in
      Toeplitz.hash ~key d = Toeplitz.Key.hash (Toeplitz.Key.compile key) d)

(* The staged hasher against the reference engine on random byte-aligned
   sets: one or two sets of RSS-capable fields, outer and inner, each cut
   to 1 to 4 whole bytes (X710 takes its two fixed sets), under a random
   key of the NIC's length, over TCP, UDP and other protocols on plain,
   VXLAN and GRE packets.  The hash is -1 exactly when no set matches. *)
let prop_staged_equals_reference =
  let fields = Array.of_list (List.filter Field.rss_capable Field.all) in
  QCheck.Test.make ~name:"staged hasher equals the reference engine" ~count:300
    QCheck.(int_range 0 1000000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nic = [| Model.E810; Model.X710; Model.Permissive |].(Random.State.int rng 3) in
      let random_set () =
        if nic = Model.X710 then if Random.State.bool rng then Field_set.ipv4 else Field_set.ipv4_tcp
        else
          let chosen = Array.to_list fields |> List.filter (fun _ -> Random.State.int rng 3 = 0) in
          let chosen =
            if chosen = [] then [ fields.(Random.State.int rng (Array.length fields)) ] else chosen
          in
          Field_set.make_sliced
            (List.map (fun f -> (f, 8 * (1 + Random.State.int rng (Field.width f / 8)))) chosen)
      in
      let sets = List.init (1 + Random.State.int rng 2) (fun _ -> random_set ()) in
      let key = Rss.random_key rng nic in
      let fast = Rss.configure ~nic ~key ~sets ~queues:4 () in
      let slow = Rss.configure ~nic ~compiled:false ~key ~sets ~queues:4 () in
      let proto () =
        match Random.State.int rng 3 with
        | 0 -> Pkt.Tcp
        | 1 -> Pkt.Udp
        | _ -> Pkt.Other (Random.State.int rng 256)
      in
      let plain =
        Array.init 30 (fun _ ->
            Pkt.make ~proto:(proto ())
              ~ip_src:(Random.State.full_int rng 0x1_0000_0000)
              ~ip_dst:(Random.State.full_int rng 0x1_0000_0000)
              ~src_port:(Random.State.int rng 0x10000)
              ~dst_port:(Random.State.int rng 0x10000)
              ())
      in
      Array.for_all
        (fun p ->
          let h = Rss.hash fast p in
          h = Rss.hash slow p && h >= 0 = List.exists (fun s -> Field_set.matches s p) sets)
        (Array.concat
           [
             plain;
             Traffic.Gen.encapsulate Pkt.Vxlan plain;
             Traffic.Gen.encapsulate Pkt.Gre plain;
           ]))

let prop_same_flow_same_queue =
  QCheck.Test.make ~name:"packets of one flow always reach the same queue" ~count:100
    QCheck.(pair (int_range 0 1000000) (int_range 1 16))
    (fun (seed, queues) ->
      let rng = Random.State.make [| seed |] in
      let key = Rss.random_key rng Model.E810 in
      let rss = Rss.configure ~key ~sets:[ Field_set.ipv4_tcp ] ~queues () in
      let p =
        Pkt.make
          ~ip_src:(Random.State.int rng 0x3fffffff)
          ~ip_dst:(Random.State.int rng 0x3fffffff)
          ~src_port:(Random.State.int rng 0x10000)
          ~dst_port:(Random.State.int rng 0x10000)
          ()
      in
      (* size and timestamp never matter *)
      let q1 = Rss.dispatch rss p in
      let q2 = Rss.dispatch rss { p with Pkt.size = 1500; ts_ns = 99 } in
      q1 = q2)

let prop_toeplitz_linear_in_input =
  QCheck.Test.make ~name:"toeplitz is linear over GF(2) in the input" ~count:100
    QCheck.(int_range 0 1000000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let key = Bitvec.random rng (52 * 8) in
      let a = Bitvec.random rng 96 and b = Bitvec.random rng 96 in
      let h v = Toeplitz.hash_int ~key v in
      h (Bitvec.xor a b) = h a lxor h b)

let suite =
  [
    Alcotest.test_case "toeplitz microsoft tcp vectors" `Quick test_toeplitz_microsoft_tcp;
    Alcotest.test_case "toeplitz microsoft ip vectors" `Quick test_toeplitz_microsoft_ip_only;
    Alcotest.test_case "toeplitz zero key" `Quick test_toeplitz_zero_key;
    Alcotest.test_case "toeplitz key too short" `Quick test_toeplitz_key_too_short;
    Alcotest.test_case "repeated-pattern key is symmetric" `Quick
      test_toeplitz_repeated_pattern_symmetry;
    Alcotest.test_case "compiled toeplitz microsoft vectors" `Quick
      test_compiled_matches_microsoft_vectors;
    Alcotest.test_case "compiled key metadata" `Quick test_compiled_key_metadata;
    Alcotest.test_case "compiled toeplitz bounds" `Quick test_compiled_rejects_oversized_input;
    Alcotest.test_case "compiled == oracle on 1000+ random pairs" `Quick
      test_compiled_equals_oracle_randomized;
    Alcotest.test_case "rss compiled/reference dispatch agree" `Quick
      test_rss_compiled_and_reference_dispatch_agree;
    Alcotest.test_case "field set canonical order" `Quick test_field_set_canonical_order;
    Alcotest.test_case "field set offsets" `Quick test_field_set_offsets;
    Alcotest.test_case "field set rejects mac" `Quick test_field_set_rejects_mac;
    Alcotest.test_case "field set matches" `Quick test_field_set_matches;
    Alcotest.test_case "nic capabilities" `Quick test_nic_capabilities;
    Alcotest.test_case "best covering set" `Quick test_best_set_covering;
    Alcotest.test_case "reta round robin" `Quick test_reta_round_robin;
    Alcotest.test_case "reta bad size" `Quick test_reta_bad_size;
    Alcotest.test_case "reta rebalance" `Quick test_reta_rebalance;
    Alcotest.test_case "reta remap failover" `Quick test_reta_remap_failover;
    Alcotest.test_case "reta remap under skew" `Quick test_reta_remap_skewed_load_stays_balanced;
    Alcotest.test_case "reta remap errors" `Quick test_reta_remap_errors;
    Alcotest.test_case "rss dispatch deterministic" `Quick test_rss_dispatch_deterministic;
    Alcotest.test_case "rss unmatched to queue 0" `Quick test_rss_unmatched_goes_to_zero;
    Alcotest.test_case "rss validates key size" `Quick test_rss_validates_key_size;
    Alcotest.test_case "rss validates nic support" `Quick test_rss_validates_nic_support;
    QCheck_alcotest.to_alcotest prop_same_flow_same_queue;
    QCheck_alcotest.to_alcotest prop_toeplitz_linear_in_input;
    QCheck_alcotest.to_alcotest prop_compiled_equals_oracle;
    QCheck_alcotest.to_alcotest prop_staged_equals_reference;
  ]
