(* Tests for the derived zero-copy codecs: per-shape round-trip properties
   over both shipped stacks (tunnels, VLAN/QinQ, IPv6), staged-vs-legacy
   differential, typed parse errors, pcap fixtures for the new protocols,
   and the vxlan_fw end-to-end differential (inner-header RSS sharding
   agrees with the sequential oracle). *)

open Packet

(* Classification is first-match with no backtracking, so free switch
   scrutinees (fields the encoder does not force, i.e. those on a taken
   default arm) must not collide with a sibling arm's tag or the encoded
   frame classifies into a different — usually longer, hence truncated —
   shape.  Forced scrutinees are fixed up by the encoder regardless of
   the value supplied here, so the sanitizer is harmless on them. *)
let sanitize path v =
  let leaf = match String.rindex_opt path '.' with
    | Some i -> String.sub path (i + 1) (String.length path - i - 1)
    | None -> path
  in
  match leaf with
  | "proto" | "nexthdr" ->
      let v = v land 0xff in
      if v = 6 || v = 17 || v = Stacks.gre_proto then 50 else v
  | "dport" -> if v land 0xffff = Stacks.vxlan_port then 80 else v
  | _ -> v

(* encode ∘ decode = id, per shape: a frame built by the derived encoder
   classifies into its own shape, decodes to field values, and re-encoding
   those values reproduces the frame byte for byte (checksums included —
   they are fixups on both sides). *)
let roundtrip_prop label codec =
  let nshapes = Codec.shape_count codec in
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: encode/decode roundtrip over all %d shapes" label nshapes)
    ~count:400
    QCheck.(pair (int_bound (nshapes - 1)) (int_bound 0x3ffffff))
    (fun (shape, seed) ->
      let rng = Random.State.make [| seed |] in
      let vals =
        List.map
          (fun p -> (p, sanitize p (Random.State.int rng 0x3fffffff)))
          (Codec.shape_fields codec shape)
      in
      let payload_len = Random.State.int rng 32 in
      let f1 = Codec.encode codec ~shape ~payload_len vals in
      Codec.shape_of codec f1 = shape
      &&
      match Codec.decode codec f1 with
      | Error _ -> false
      | Ok (shape', fields, payload') ->
          shape' = shape && payload' = payload_len
          && Bytes.equal f1 (Codec.encode codec ~shape ~payload_len:payload' fields))

let prop_pkt_roundtrip = roundtrip_prop "pkt" Stacks.pkt
let prop_full_roundtrip = roundtrip_prop "full" Stacks.full

(* --- staged vs legacy differential -------------------------------------- *)

let gen_plain_pkt =
  QCheck.Gen.(
    let ip = int_bound 0x3fffffff in
    let port = int_bound 0xffff in
    map3
      (fun (s, d) (sp, dp) (udp, sz) ->
        Pkt.make
          ~proto:(if udp then Pkt.Udp else Pkt.Tcp)
          ~ip_src:s ~ip_dst:d ~src_port:sp
          ~dst_port:(if dp = Stacks.vxlan_port then 80 else dp)
          ~size:(64 + sz) ())
      (pair ip ip) (pair port port) (pair bool (int_bound 256)))

let arb_plain = QCheck.make ~print:(Format.asprintf "%a" Pkt.pp) gen_plain_pkt

let prop_serialize_differential =
  QCheck.Test.make ~name:"staged serialize = legacy serialize (bytes)" ~count:300 arb_plain
    (fun p -> Bytes.equal (Wire.serialize p) (Wire.Legacy.serialize p))

let prop_parse_differential =
  QCheck.Test.make ~name:"staged parse = legacy parse" ~count:300 arb_plain (fun p ->
      let frame = Wire.Legacy.serialize p in
      match (Wire.parse frame, Wire.Legacy.parse frame) with
      | Ok a, Ok b -> Pkt.equal a b
      | Error _, Error _ -> true
      | _ -> false)

(* --- tunnel round-trips -------------------------------------------------- *)

let gen_encap_pkt =
  QCheck.Gen.(
    let ip = int_bound 0x3fffffff in
    let port = int_bound 0xffff in
    map3
      (fun (s, d) ((isrc, idst), (isp, idp)) (gre, (vni, inner_udp)) ->
        let kind = if gre then Pkt.Gre else Pkt.Vxlan in
        let encap =
          {
            Pkt.kind;
            tunnel_id = vni;
            in_eth_src = (if gre then 0 else 0x02aabbcc0001);
            in_eth_dst = (if gre then 0 else 0x02aabbcc0002);
            in_ip_src = isrc;
            in_ip_dst = idst;
            in_proto = (if inner_udp then Pkt.Udp else Pkt.Tcp);
            in_src_port = isp;
            in_dst_port = idp;
          }
        in
        let p =
          Pkt.make
            ~proto:(if gre then Pkt.Other Stacks.gre_proto else Pkt.Udp)
            ~ip_src:s ~ip_dst:d
            ~src_port:(if gre then 0 else 49152)
            ~dst_port:(if gre then 0 else Stacks.vxlan_port)
            ~encap ~size:160 ()
        in
        p)
      (pair ip ip)
      (pair (pair ip ip) (pair port port))
      (pair bool (pair (int_bound 0xffffff) bool)))

let arb_encap = QCheck.make ~print:(Format.asprintf "%a" Pkt.pp) gen_encap_pkt

let prop_tunnel_roundtrip =
  QCheck.Test.make ~name:"vxlan/gre serialize/parse roundtrip" ~count:300 arb_encap (fun p ->
      match Wire.parse_typed ~port:0 ~ts_ns:0 (Wire.serialize p) with
      | Ok q -> Pkt.equal p q
      | Error _ -> false)

(* --- typed errors -------------------------------------------------------- *)

let test_typed_errors () =
  (match Wire.parse_typed ~port:0 ~ts_ns:0 (Bytes.create 10) with
  | Error (Codec.Truncated { record = "eth"; need = 14; have = 10 }) -> ()
  | _ -> Alcotest.fail "expected eth truncation");
  let arp = Wire.serialize (Pkt.make ~ip_src:1 ~ip_dst:2 ~src_port:1 ~dst_port:2 ()) in
  Bytes.set arp 12 '\x08';
  Bytes.set arp 13 '\x06';
  (match Wire.parse_typed ~port:0 ~ts_ns:0 arp with
  | Error (Codec.Unsupported { record = "eth"; tag_field = "type"; tag = 0x0806 }) -> ()
  | _ -> Alcotest.fail "expected unsupported ethertype");
  (* a VXLAN frame cut inside the inner headers is a truncation of the
     inner record, not a silent short parse *)
  let vx =
    Pkt.make ~proto:Pkt.Udp ~ip_src:1 ~ip_dst:2 ~src_port:49152 ~dst_port:Stacks.vxlan_port
      ~encap:Pkt.default_encap ~size:110 ()
  in
  let frame = Wire.serialize vx in
  match Wire.parse_typed ~port:0 ~ts_ns:0 (Bytes.sub frame 0 60) with
  | Error (Codec.Truncated { record; _ }) ->
      Alcotest.(check string) "inner record truncated" "ieth" record
  | _ -> Alcotest.fail "expected inner truncation"

let test_shape_metadata () =
  let c = Stacks.pkt in
  Alcotest.(check int) "9 shapes" 9 (Codec.shape_count c);
  Alcotest.(check string) "tcp shape name" "eth/ipv4/tcp" (Codec.shape_name c Stacks.Sid.tcp);
  Alcotest.(check int) "named inverse" Stacks.Sid.vxlan_tcp
    (Codec.shape_named c "eth/ipv4/udp/vxlan/ieth/iipv4/itcp");
  Alcotest.(check int) "tcp min len" 54 (Codec.shape_min_len c Stacks.Sid.tcp);
  Alcotest.(check int) "vxlan tcp min len" 104 (Codec.shape_min_len c Stacks.Sid.vxlan_tcp);
  Alcotest.(check bool) "inner fields exposed" true
    (List.mem "iipv4.src" (Codec.shape_fields c Stacks.Sid.vxlan_tcp))

let test_payload_start () =
  let p = Pkt.make ~ip_src:1 ~ip_dst:2 ~src_port:3 ~dst_port:4 ~size:100 () in
  let frame = Wire.serialize p in
  let sid = Codec.shape_of Stacks.pkt frame in
  Alcotest.(check int) "tcp payload starts past 54" 54
    (Codec.payload_start Stacks.pkt sid frame)

(* --- checksum primitive -------------------------------------------------- *)

(* reference implementation with an explicit padded copy *)
let checksum_padded b =
  let len = Bytes.length b in
  let padded = Bytes.make (len + (len land 1)) '\x00' in
  Bytes.blit b 0 padded 0 len;
  let sum = ref 0 in
  for i = 0 to (Bytes.length padded / 2) - 1 do
    sum := !sum + (Char.code (Bytes.get padded (2 * i)) lsl 8)
           + Char.code (Bytes.get padded ((2 * i) + 1))
  done;
  let s = ref !sum in
  while !s lsr 16 <> 0 do
    s := (!s land 0xffff) + (!s lsr 16)
  done;
  lnot !s land 0xffff

let prop_checksum_odd =
  QCheck.Test.make ~name:"internet_checksum matches padded reference (odd lengths)"
    ~count:200
    QCheck.(string_of_size Gen.(int_range 1 65))
    (fun s ->
      let b = Bytes.of_string s in
      Wire.internet_checksum b = checksum_padded b)

(* --- pcap fixtures ------------------------------------------------------- *)

let test_pcap_tunnels () =
  let mk kind proto =
    let gre = kind = Pkt.Gre in
    Pkt.make
      ~proto:(if gre then Pkt.Other Stacks.gre_proto else Pkt.Udp)
      ~ip_src:0x0a000001 ~ip_dst:0x0a000002
      ~src_port:(if gre then 0 else 49152)
      ~dst_port:(if gre then 0 else Stacks.vxlan_port)
      ~encap:
        {
          Pkt.kind;
          tunnel_id = 0x1234;
          in_eth_src = (if gre then 0 else Pkt.default_encap.Pkt.in_eth_src);
          in_eth_dst = (if gre then 0 else Pkt.default_encap.Pkt.in_eth_dst);
          in_ip_src = 0xc0a80101;
          in_ip_dst = 0xc0a80102;
          in_proto = proto;
          in_src_port = 1111;
          in_dst_port = 2222;
        }
      ~size:160 ()
  in
  let pkts = [ mk Pkt.Vxlan Pkt.Tcp; mk Pkt.Vxlan Pkt.Udp; mk Pkt.Gre Pkt.Tcp; mk Pkt.Gre Pkt.Udp ] in
  match Pcap.of_string (Buffer.contents (Pcap.to_buffer pkts)) with
  | Error e -> Alcotest.fail e
  | Ok read ->
      Alcotest.(check int) "all tunnel frames survive pcap" (List.length pkts) (List.length read);
      List.iter2
        (fun a b -> Alcotest.(check bool) "pcap tunnel roundtrip" true (Pkt.equal a b))
        pkts read

let test_pcap_frames () =
  (* frame-level API: raw VLAN and IPv6 frames (not representable as Pkt.t)
     survive a pcap round-trip byte for byte *)
  let vlan_frame =
    Codec.encode Stacks.full
      ~shape:(Codec.shape_named Stacks.full "eth/vlan/ipv4/tcp")
      ~payload_len:6
      [ ("vlan.vid", 42); ("ipv4.src", 0x01020304); ("tcp.sport", 80) ]
  in
  let v6_frame =
    Codec.encode Stacks.full
      ~shape:(Codec.shape_named Stacks.full "eth/ipv6/udp6")
      ~payload_len:0
      [ ("ipv6.src0", 0x20010db8); ("udp6.dport", 53) ]
  in
  let frames = [ (0, vlan_frame); (1_000_000, v6_frame) ] in
  match Pcap.frames_of_string (Buffer.contents (Pcap.to_buffer_frames frames)) with
  | Error e -> Alcotest.fail e
  | Ok read ->
      Alcotest.(check int) "frame count" 2 (List.length read);
      List.iter2
        (fun (ts_a, a) (ts_b, b) ->
          Alcotest.(check int) "timestamp" ts_a ts_b;
          Alcotest.(check bool) "bytes" true (Bytes.equal a b))
        frames read

(* --- zero-copy accessor agreement --------------------------------------- *)

let test_accessors_agree () =
  let c = Stacks.pkt in
  let g path = Codec.getter c path in
  let g_src = g "ipv4.src" and g_isrc = g "iipv4.src" and g_isp = g "itcp.sport" in
  let p =
    Pkt.make ~proto:Pkt.Udp ~ip_src:0x0a0a0a0a ~ip_dst:0x14141414 ~src_port:49152
      ~dst_port:Stacks.vxlan_port
      ~encap:
        {
          Pkt.default_encap with
          in_ip_src = 0xc0a80001;
          in_ip_dst = 0xc0a80002;
          in_src_port = 4321;
          in_dst_port = 80;
        }
      ~size:160 ()
  in
  let frame = Wire.serialize p in
  let sid = Codec.shape_of c frame in
  Alcotest.(check int) "classified as vxlan tcp" Stacks.Sid.vxlan_tcp sid;
  Alcotest.(check int) "outer src via getter" 0x0a0a0a0a (g_src.(sid) frame);
  Alcotest.(check int) "inner src via getter" 0xc0a80001 (g_isrc.(sid) frame);
  Alcotest.(check int) "inner sport via getter" 4321 (g_isp.(sid) frame)

(* --- fixed layouts against the closure tree --------------------------------- *)

(* The records on a shape's path with their option-free frame offsets,
   walking the spec along the shape's record names. *)
let path_records spec names =
  let rec walk (r : Spec.t) off = function
    | [] -> []
    | [ _ ] -> [ (r, off) ]
    | _ :: (next :: _ as rest) ->
        let child =
          match r.Spec.next with
          | Spec.Then t -> t
          | Spec.Switch { arms; _ } -> snd (List.find (fun (_, t) -> t.Spec.name = next) arms)
          | Spec.Stop -> Alcotest.fail "shape path runs past a Stop"
        in
        (r, off) :: walk child (off + Spec.fixed_bytes r) rest
  in
  walk spec 0 names

(* bit offset and width of a field within its record *)
let field_bits (r : Spec.t) name =
  let rec go bit = function
    | [] -> Alcotest.failf "no field %s.%s" r.Spec.name name
    | (f : Spec.field) :: rest -> if f.fname = name then (bit, f.bits) else go (bit + f.bits) rest
  in
  go 0 r.Spec.fields

let set_bits frame ~bitpos ~bits v =
  for i = 0 to bits - 1 do
    let pos = bitpos + i in
    let byte = Char.code (Bytes.get frame (pos / 8)) in
    let mask = 0x80 lsr (pos mod 8) in
    let bit = (v lsr (bits - 1 - i)) land 1 in
    Bytes.set frame (pos / 8)
      (Char.chr (if bit = 1 then byte lor mask else byte land lnot mask))
  done

let set_field frame (r, off) name v =
  let bit, bits = field_bits r name in
  set_bits frame ~bitpos:((8 * off) + bit) ~bits (v land ((1 lsl bits) - 1))

(* [frame] with [n] option bytes (0x01, NOP) inserted at [at] *)
let insert frame ~at n =
  if n <= 0 then Bytes.copy frame
  else
    Bytes.concat Bytes.empty
      [ Bytes.sub frame 0 at; Bytes.make n '\x01'; Bytes.sub frame at (Bytes.length frame - at) ]

(* Every mutation of an encoded frame that touches what a layout guards:
   each header-length field set to every value its 4 bits hold, with the
   option bytes a longer header needs inserted after its fixed part, and
   each switch tag on the path set to every arm value of its switch and to
   a few values no arm has. *)
let mutations spec codec sid frame =
  let recs = path_records spec (Codec.shape_records codec sid) in
  List.concat_map
    (fun ((r, off) as ro) ->
      let fixed = Spec.fixed_bytes r in
      let hdr =
        match Spec.hdr_len_field r with
        | Some ({ fkind = Spec.Hdr_len { unit_bytes }; _ } as f) ->
            List.init (min 16 (1 lsl f.bits)) (fun v ->
                let m = insert frame ~at:(off + fixed) ((v * unit_bytes) - fixed) in
                set_field m ro f.fname v;
                m)
        | _ -> []
      in
      let tags =
        match r.Spec.next with
        | Spec.Switch { on; arms; _ } ->
            List.map
              (fun v ->
                let m = Bytes.copy frame in
                set_field m ro on v;
                m)
              (List.map fst arms @ [ 0; 1; 0x3c; 0xffff ])
        | _ -> []
      in
      hdr @ tags)
    recs

let every_truncation frame = List.init (Bytes.length frame) (fun len -> Bytes.sub frame 0 len)

(* shape_of = the closure tree on every frame; error_of agrees with the
   tree's rejection code; returns (layout hits, fallbacks that parsed). *)
let check_against_tree codec frames =
  let hits = ref 0 and fallback_shapes = ref 0 in
  List.iter
    (fun f ->
      let tree = Codec.tree_shape_of codec f in
      let got = Codec.shape_of codec f in
      if got <> tree then
        Alcotest.failf "shape_of %d <> tree %d on %S" got tree (Bytes.to_string f);
      let layout = Codec.layout_of codec f in
      if layout >= 0 then incr hits else if tree >= 0 then incr fallback_shapes;
      if layout >= 0 && layout <> tree then Alcotest.failf "layout %d <> tree %d" layout tree;
      if tree < 0 then
        match (Codec.error_of codec f, tree) with
        | Codec.Truncated _, t when t = Codec.err_truncated -> ()
        | Codec.Unsupported _, t when t = Codec.err_unsupported -> ()
        | e, _ -> Alcotest.failf "code %d but error_of says %s" tree (Codec.error_to_string e))
    frames;
  (!hits, !fallback_shapes)

let test_layouts_match_tree label spec codec () =
  let rng = Random.State.make [| 15 |] in
  let hits = ref 0 and fallbacks = ref 0 in
  for sid = 0 to Codec.shape_count codec - 1 do
    for _ = 1 to 2 do
      let vals =
        List.map
          (fun p -> (p, sanitize p (Random.State.int rng 0x3fffffff)))
          (Codec.shape_fields codec sid)
      in
      let frame = Codec.encode codec ~shape:sid ~payload_len:(Random.State.int rng 24) vals in
      Alcotest.(check int) "an encoded frame meets its own layout" sid
        (Codec.layout_of codec frame);
      let mutated = mutations spec codec sid frame in
      let h, f =
        check_against_tree codec
          (mutated @ List.concat_map every_truncation (frame :: mutated))
      in
      hits := !hits + h;
      fallbacks := !fallbacks + f
    done
  done;
  (* both paths are exercised: mutated frames that still meet a layout,
     and option-carrying frames that parse through the tree *)
  Alcotest.(check bool) (label ^ ": layout hits") true (!hits > 0);
  Alcotest.(check bool) (label ^ ": tree-parsed fallbacks") true (!fallbacks > 0)

(* [frame] with [words] 4-byte words of options after its outer IPv4
   header's fixed part, and the IHL saying so *)
let with_ipv4_options frame words =
  let ((r, off) as ipv4) = List.nth (path_records Stacks.pkt_spec [ "eth"; "ipv4" ]) 1 in
  let m = insert frame ~at:(off + Spec.fixed_bytes r) (4 * words) in
  set_field m ipv4 "ihl" (5 + words);
  m

(* The fixed-offset builder and the getter path build the same packet: a
   frame of every pkt shape against the same frame with one word of outer
   IPv4 options, which meets no layout. *)
let test_fixed_path_matches_getters () =
  let c = Stacks.pkt in
  let rng = Random.State.make [| 16 |] in
  for sid = 0 to Codec.shape_count c - 1 do
    let vals =
      List.map (fun p -> (p, sanitize p (Random.State.int rng 0x3fffffff))) (Codec.shape_fields c sid)
    in
    let frame = Codec.encode c ~shape:sid ~payload_len:8 vals in
    let opt = with_ipv4_options frame 1 in
    Alcotest.(check int) "options miss every layout" (-1) (Codec.layout_of c opt);
    match (Wire.parse_typed ~port:3 ~ts_ns:7 frame, Wire.parse_typed ~port:3 ~ts_ns:7 opt) with
    | Ok a, Ok b ->
        Alcotest.(check bool)
          (Codec.shape_name c sid ^ ": fixed path = getter path")
          true
          (Pkt.equal { a with Pkt.size = 0 } { b with Pkt.size = 0 })
    | _ -> Alcotest.failf "%s: a frame did not parse" (Codec.shape_name c sid)
  done

(* IPv4 options move the L4 header: the staged parse takes the fallback
   and must still agree with the hand-written oracle, which honours IHL. *)
let prop_options_differential =
  QCheck.Test.make ~name:"staged parse = legacy parse, IPv4 options" ~count:300
    QCheck.(pair arb_plain (int_range 1 10))
    (fun (p, words) ->
      let frame = with_ipv4_options (Wire.Legacy.serialize p) words in
      Codec.layout_of Stacks.pkt frame = -1
      &&
      match (Wire.parse_typed ~port:0 ~ts_ns:0 frame, Wire.Legacy.parse frame) with
      | Ok a, Ok b -> Pkt.equal a b
      | _ -> false)

(* A layout-matched plain frame allocates the Ok and the 13-word record
   and nothing else: no boxed optional argument, no boxed int32 load. *)
let test_parse_allocation () =
  let rng = Random.State.make [| 17 |] in
  let frames n =
    Array.init n (fun i ->
        Wire.serialize
          (Pkt.make
             ~proto:(if i land 1 = 0 then Pkt.Tcp else Pkt.Udp)
             ~ip_src:(Random.State.bits rng) ~ip_dst:(Random.State.bits rng)
             ~src_port:(Random.State.int rng 4000) ~dst_port:(Random.State.int rng 4000)
             ()))
  in
  let words frames =
    let w0 = Gc.minor_words () in
    for i = 0 to Array.length frames - 1 do
      ignore (Sys.opaque_identity (Wire.parse_typed ~port:1 ~ts_ns:i frames.(i)))
    done;
    Gc.minor_words () -. w0
  in
  let small = frames 1_000 and large = frames 11_000 in
  ignore (words small);
  let ws = words small and wl = words large in
  Alcotest.(check (float 0.0)) "15 words per parsed frame" (15.0 *. 10_000.) (wl -. ws);
  Alcotest.(check bool) (Printf.sprintf "%.0f words for 1000 frames" ws) true
    (Float.abs (ws -. 15_000.) < 16.)

let test_layout_offsets () =
  let c = Stacks.pkt in
  Alcotest.(check int) "tcp.dport" 36 (Codec.layout_offset c Stacks.Sid.tcp "tcp.dport" ~bits:16);
  Alcotest.(check int) "inner tcp.sport past vxlan" 84
    (Codec.layout_offset c Stacks.Sid.vxlan_tcp "itcp.sport" ~bits:16);
  Alcotest.(check int) "shape order is the tree's trial order" Stacks.Sid.tcp
    (Codec.layout_of c (Wire.serialize (Pkt.make ~ip_src:1 ~ip_dst:2 ~src_port:3 ~dst_port:4 ())));
  Alcotest.check_raises "a nibble is not a whole field"
    (Invalid_argument "Codec.layout_offset: ipv4.ihl is not a byte-aligned 8-bit field")
    (fun () -> ignore (Codec.layout_offset c Stacks.Sid.tcp "ipv4.ihl" ~bits:8));
  Alcotest.check_raises "a field of another shape"
    (Invalid_argument "Codec.layout_offset: udp.sport is not a field of eth/ipv4/tcp")
    (fun () -> ignore (Codec.layout_offset c Stacks.Sid.tcp "udp.sport" ~bits:16))

(* --- vxlan_fw end to end ------------------------------------------------- *)

let test_vxlan_fw_pool_differential () =
  let nf = Nfs.Registry.find_exn "vxlan_fw" in
  let request = { Maestro.Pipeline.default_request with cores = 4 } in
  let outcome = Maestro.Pipeline.parallelize_exn ~request nf in
  let plan = outcome.Maestro.Pipeline.plan in
  Alcotest.(check string) "vxlan_fw shards shared-nothing" "shared-nothing"
    (Maestro.Plan.strategy_name plan.Maestro.Plan.strategy);
  Array.iter
    (fun r ->
      Alcotest.(check bool) "RSS keys hash inner headers" true
        (List.exists Nic.Field_set.is_inner_field
           (Nic.Field_set.fields r.Maestro.Plan.field_set)))
    plan.Maestro.Plan.rss;
  let rng = Random.State.make [| 7 |] in
  let fs = Traffic.Gen.flows rng 256 in
  let spec = { Traffic.Gen.default_spec with pkts = 4000; reply_fraction = 0.4 } in
  let trace = Traffic.Gen.encapsulate Pkt.Vxlan (Traffic.Gen.uniform ~spec rng ~flows:fs) in
  let seq = Runtime.Parallel.run_sequential nf trace in
  let par = Runtime.Parallel.run plan trace in
  Array.iteri
    (fun i v ->
      if v <> seq.(i) then
        Alcotest.failf "verdict %d differs between parallel and sequential" i)
    par.Runtime.Parallel.verdicts;
  (* the point of inner-header RSS: traffic actually spreads across cores *)
  let counts = Runtime.Parallel.dispatch_counts plan trace in
  Alcotest.(check bool) "every core receives traffic" true
    (Array.for_all (fun c -> c > 0) counts)

let test_gre_peer_decision () =
  let nf = Nfs.Registry.find_exn "gre_peer" in
  let outcome = Maestro.Pipeline.parallelize_exn nf in
  Alcotest.(check bool) "gre_peer cannot shard shared-nothing" true
    (Maestro.Plan.strategy_name outcome.Maestro.Pipeline.plan.Maestro.Plan.strategy
    <> "shared-nothing")

let suite =
  [
    QCheck_alcotest.to_alcotest prop_pkt_roundtrip;
    QCheck_alcotest.to_alcotest prop_full_roundtrip;
    QCheck_alcotest.to_alcotest prop_serialize_differential;
    QCheck_alcotest.to_alcotest prop_parse_differential;
    QCheck_alcotest.to_alcotest prop_tunnel_roundtrip;
    QCheck_alcotest.to_alcotest prop_checksum_odd;
    Alcotest.test_case "typed parse errors" `Quick test_typed_errors;
    Alcotest.test_case "shape metadata" `Quick test_shape_metadata;
    Alcotest.test_case "payload start" `Quick test_payload_start;
    Alcotest.test_case "pcap tunnel fixtures" `Quick test_pcap_tunnels;
    Alcotest.test_case "pcap raw frames (vlan, ipv6)" `Quick test_pcap_frames;
    Alcotest.test_case "zero-copy accessors" `Quick test_accessors_agree;
    Alcotest.test_case "pkt layouts = closure tree, mutated and truncated" `Quick
      (test_layouts_match_tree "pkt" Stacks.pkt_spec Stacks.pkt);
    Alcotest.test_case "full layouts = closure tree, mutated and truncated" `Quick
      (test_layouts_match_tree "full" Stacks.full_spec Stacks.full);
    Alcotest.test_case "fixed-offset parse = getter parse" `Quick test_fixed_path_matches_getters;
    QCheck_alcotest.to_alcotest prop_options_differential;
    Alcotest.test_case "parse allocates 15 words per frame" `Quick test_parse_allocation;
    Alcotest.test_case "layout offsets" `Quick test_layout_offsets;
    Alcotest.test_case "vxlan_fw pool differential" `Quick test_vxlan_fw_pool_differential;
    Alcotest.test_case "gre_peer ladder decision" `Quick test_gre_peer_decision;
  ]
