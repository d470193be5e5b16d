(* Wire encoding of packets, routed through the staged codecs of
   Stacks.pkt.  The original hand-written parser/serializer survives as
   [Legacy] — the differential-test oracle for the derived code, exactly
   like lib/dsl keeps the interpreter as the oracle for staged NFs. *)

(* RFC 1071, delegating to the codec's fixup primitive (allocation-free,
   odd tail folded in place — no padded copy). *)
let internet_checksum buf =
  Codec.Checksum.(finish (sum_region buf ~off:0 ~len:(Bytes.length buf) 0))

let eth_header = 14
let ip_header = 20

let l4_header = function Pkt.Tcp -> 20 | Pkt.Udp -> 8 | Pkt.Other _ -> 0

let min_size proto = eth_header + ip_header + l4_header proto

(* ---- the hand-written original, kept as oracle ---------------------- *)

module Legacy = struct
  let set_u8 b off v = Bytes.set b off (Char.chr (v land 0xff))

  let set_u16 b off v =
    set_u8 b off (v lsr 8);
    set_u8 b (off + 1) v

  let set_u32 b off v =
    set_u16 b off (v lsr 16);
    set_u16 b (off + 2) v

  let set_u48 b off v =
    set_u16 b off (v lsr 32);
    set_u32 b (off + 2) v

  let get_u8 b off = Char.code (Bytes.get b off)
  let get_u16 b off = (get_u8 b off lsl 8) lor get_u8 b (off + 1)
  let get_u32 b off = (get_u16 b off lsl 16) lor get_u16 b (off + 2)
  let get_u48 b off = (get_u16 b off lsl 32) lor get_u32 b (off + 2)

  let serialize (p : Pkt.t) =
    let hdr = min_size p.Pkt.proto in
    if p.Pkt.size < hdr then
      invalid_arg
        (Printf.sprintf "Wire.serialize: frame of %d B below header size %d B" p.Pkt.size
           hdr);
    let b = Bytes.make p.Pkt.size '\000' in
    (* Ethernet *)
    set_u48 b 0 p.Pkt.eth_dst;
    set_u48 b 6 p.Pkt.eth_src;
    set_u16 b 12 p.Pkt.eth_type;
    (* IPv4 *)
    let ip_total = p.Pkt.size - eth_header in
    set_u8 b 14 0x45;
    set_u16 b 16 ip_total;
    set_u8 b 22 64 (* TTL *);
    set_u8 b 23 (Pkt.proto_number p.Pkt.proto);
    set_u32 b 26 p.Pkt.ip_src;
    set_u32 b 30 p.Pkt.ip_dst;
    let ip_csum = internet_checksum (Bytes.sub b eth_header ip_header) in
    set_u16 b 24 ip_csum;
    (* L4 *)
    let l4_off = eth_header + ip_header in
    let l4_len = p.Pkt.size - l4_off in
    (match p.Pkt.proto with
    | Pkt.Tcp ->
        set_u16 b l4_off p.Pkt.src_port;
        set_u16 b (l4_off + 2) p.Pkt.dst_port;
        set_u8 b (l4_off + 12) 0x50 (* data offset = 5 words *)
    | Pkt.Udp ->
        set_u16 b l4_off p.Pkt.src_port;
        set_u16 b (l4_off + 2) p.Pkt.dst_port;
        set_u16 b (l4_off + 4) l4_len
    | Pkt.Other _ -> ());
    (* L4 checksum over pseudo-header + segment *)
    (match p.Pkt.proto with
    | Pkt.Tcp | Pkt.Udp ->
        let pseudo = Bytes.make (12 + l4_len) '\000' in
        set_u32 pseudo 0 p.Pkt.ip_src;
        set_u32 pseudo 4 p.Pkt.ip_dst;
        set_u8 pseudo 9 (Pkt.proto_number p.Pkt.proto);
        set_u16 pseudo 10 l4_len;
        Bytes.blit b l4_off pseudo 12 l4_len;
        let csum = internet_checksum pseudo in
        let csum_off = if p.Pkt.proto = Pkt.Tcp then l4_off + 16 else l4_off + 6 in
        set_u16 b csum_off (if csum = 0 then 0xffff else csum)
    | Pkt.Other _ -> ());
    b

  let parse ?(port = 0) ?(ts_ns = 0) b =
    let n = Bytes.length b in
    if n < eth_header then Error "frame shorter than an Ethernet header"
    else
      let eth_dst = get_u48 b 0 and eth_src = get_u48 b 6 and eth_type = get_u16 b 12 in
      if eth_type <> Pkt.ipv4_ethertype then Error "unsupported ethertype"
      else if n < eth_header + ip_header then Error "frame truncated inside the IPv4 header"
      else
        let proto = Pkt.proto_of_number (get_u8 b 23) in
        let ip_src = get_u32 b 26 and ip_dst = get_u32 b 30 in
        let l4_off = eth_header + ((get_u8 b 14 land 0xf) * 4) in
        let needs = match proto with Pkt.Tcp | Pkt.Udp -> 4 | Pkt.Other _ -> 0 in
        if n < l4_off + needs then Error "frame truncated inside the L4 header"
        else
          let src_port, dst_port =
            match proto with
            | Pkt.Tcp | Pkt.Udp -> (get_u16 b l4_off, get_u16 b (l4_off + 2))
            | Pkt.Other _ -> (0, 0)
          in
          Ok
            {
              Pkt.port;
              eth_src;
              eth_dst;
              eth_type;
              ip_src;
              ip_dst;
              proto;
              src_port;
              dst_port;
              encap = None;
              size = n;
              ts_ns;
            }
end

(* ---- staged path ---------------------------------------------------- *)

let c = Stacks.pkt

module Sid = Stacks.Sid

let shape_for (p : Pkt.t) =
  match p.Pkt.encap with
  | None -> (
      match p.Pkt.proto with
      | Pkt.Tcp -> Sid.tcp
      | Pkt.Udp -> Sid.udp
      | Pkt.Other _ -> Sid.ipv4)
  | Some e -> (
      match (e.Pkt.kind, e.Pkt.in_proto) with
      | Pkt.Vxlan, Pkt.Tcp -> Sid.vxlan_tcp
      | Pkt.Vxlan, Pkt.Udp -> Sid.vxlan_udp
      | Pkt.Vxlan, Pkt.Other _ -> Sid.vxlan_ip
      | Pkt.Gre, Pkt.Tcp -> Sid.gre_tcp
      | Pkt.Gre, Pkt.Udp -> Sid.gre_udp
      | Pkt.Gre, Pkt.Other _ -> Sid.gre_ip)

let serialize (p : Pkt.t) =
  let shape = shape_for p in
  let hdr = Codec.encode_fixed_len c ~shape in
  if p.Pkt.size < hdr then
    invalid_arg
      (Printf.sprintf "Wire.serialize: frame of %d B below header size %d B" p.Pkt.size hdr);
  let outer =
    [
      ("eth.dst", p.Pkt.eth_dst);
      ("eth.src", p.Pkt.eth_src);
      ("ipv4.ttl", 64);
      ("ipv4.proto", Pkt.proto_number p.Pkt.proto);
      ("ipv4.src", p.Pkt.ip_src);
      ("ipv4.dst", p.Pkt.ip_dst);
      ("tcp.sport", p.Pkt.src_port);
      ("tcp.dport", p.Pkt.dst_port);
      ("udp.sport", p.Pkt.src_port);
      ("udp.dport", p.Pkt.dst_port);
    ]
  in
  let fields =
    match p.Pkt.encap with
    | None -> outer
    | Some e ->
        outer
        @ [
            ("vxlan.vni", e.Pkt.tunnel_id land 0xffffff);
            ("gre.key", e.Pkt.tunnel_id);
            ("ieth.dst", e.Pkt.in_eth_dst);
            ("ieth.src", e.Pkt.in_eth_src);
            ("iipv4.ttl", 64);
            ("iipv4.proto", Pkt.proto_number e.Pkt.in_proto);
            ("iipv4.src", e.Pkt.in_ip_src);
            ("iipv4.dst", e.Pkt.in_ip_dst);
            ("itcp.sport", e.Pkt.in_src_port);
            ("itcp.dport", e.Pkt.in_dst_port);
            ("iudp.sport", e.Pkt.in_src_port);
            ("iudp.dport", e.Pkt.in_dst_port);
          ]
  in
  Codec.encode c ~shape ~payload_len:(p.Pkt.size - hdr) fields

(* The getter builders and the fixed-layout offsets below read the same
   fields: the first of [paths] that shape [sid] has.  A field the shape
   lacks reads as zero (GRE has no outer ports and no inner Ethernet).
   Fields the shape pins read back the pinned value: eth.type is 0x0800,
   a VXLAN frame's UDP destination port is 4789, a TCP frame's protocol
   byte is 6. *)
let field_of sid paths =
  let fields = Codec.shape_fields c sid in
  List.find_opt (fun p -> List.mem p fields) paths

(* [Pkt.proto_of_number] of every protocol byte, built once: a lookup
   instead of a call, and no [Other] block allocated per frame. *)
let protos = Array.init 256 Pkt.proto_of_number

(* Per-shape Pkt builders over the staged getters: the path for frames the
   closure tree classified, whose header options move later fields. *)
let builders : (int -> int -> bytes -> Pkt.t) array =
  Array.init (Codec.shape_count c) (fun sid ->
      let get paths =
        match field_of sid paths with
        | Some p -> (Codec.getter c p).(sid)
        | None -> fun _ -> 0
      in
      let es = get [ "eth.src" ] and ed = get [ "eth.dst" ] in
      let is = get [ "ipv4.src" ] and id = get [ "ipv4.dst" ] and pr = get [ "ipv4.proto" ] in
      let sp = get [ "tcp.sport"; "udp.sport" ] and dp = get [ "tcp.dport"; "udp.dport" ] in
      let outer encap port ts_ns b =
        {
          Pkt.port;
          eth_src = es b;
          eth_dst = ed b;
          eth_type = Pkt.ipv4_ethertype;
          ip_src = is b;
          ip_dst = id b;
          proto = protos.(pr b);
          src_port = sp b;
          dst_port = dp b;
          encap;
          size = Bytes.length b;
          ts_ns;
        }
      in
      match field_of sid [ "vxlan.vni"; "gre.key" ] with
      | None -> fun port ts_ns b -> outer None port ts_ns b
      | Some tid_path ->
          let kind = if tid_path = "vxlan.vni" then Pkt.Vxlan else Pkt.Gre in
          let tid = get [ tid_path ] in
          let ies = get [ "ieth.src" ] and ied = get [ "ieth.dst" ] in
          let iis = get [ "iipv4.src" ] and iid = get [ "iipv4.dst" ] in
          let ipr = get [ "iipv4.proto" ] in
          let isp = get [ "itcp.sport"; "iudp.sport" ] and idp = get [ "itcp.dport"; "iudp.dport" ] in
          fun port ts_ns b ->
            outer
              (Some
                 {
                   Pkt.kind;
                   tunnel_id = tid b;
                   in_eth_src = ies b;
                   in_eth_dst = ied b;
                   in_ip_src = iis b;
                   in_ip_dst = iid b;
                   in_proto = protos.(ipr b);
                   in_src_port = isp b;
                   in_dst_port = idp b;
                 })
              port ts_ns b)

(* Whole-field big-endian loads, unchecked: [parse_fixed] applies them
   only at layout offsets of a frame [Codec.layout_of] accepted, which
   holds every field of its shape.  Each is a machine load and a byte
   swap; the int32 is converted where it is loaded, so it is never
   boxed. *)
external get16 : bytes -> int -> int = "%caml_bytes_get16u"
external get32 : bytes -> int -> int32 = "%caml_bytes_get32u"
external swap16 : int -> int = "%bswap16"
external swap32 : int32 -> int32 = "%bswap_int32"

let u8 b o = Char.code (Bytes.unsafe_get b o)
let u16 b o = if Sys.big_endian then get16 b o else swap16 (get16 b o)

let u32 b o =
  (if Sys.big_endian then Int32.to_int (get32 b o) else Int32.to_int (swap32 (get32 b o)))
  land 0xffff_ffff

let u24 b o = (u8 b o lsl 16) lor u16 b (o + 1)
let[@inline] u48 b o = (u16 b o lsl 32) lor u32 b (o + 2)
let u16_or_0 b o = if o < 0 then 0 else u16 b o
let u48_or_0 b o = if o < 0 then 0 else u48 b o

(* Each shape's field offsets in its fixed layout, derived from
   [Stacks.pkt_spec] and bound at module init; -1 marks a field the shape
   lacks.  Every shape has the Ethernet and outer IPv4 fields, and a
   tunnel (a VNI or a GRE key) has the inner IPv4 ones.  Names: MACs,
   IPv4 addresses and protocol, ports, tunnel id, then the inner ones. *)
type offsets = {
  es : int; ed : int; is : int; id : int; pr : int; sp : int; dp : int;
  vni : int; key : int;
  ies : int; ied : int; iis : int; iid : int; ipr : int; isp : int; idp : int;
}

let offsets =
  Array.init (Codec.shape_count c) (fun sid ->
      let need bits path = Codec.layout_offset c sid path ~bits in
      let opt bits paths =
        match field_of sid paths with Some p -> need bits p | None -> -1
      in
      let vni = opt 24 [ "vxlan.vni" ] and key = opt 32 [ "gre.key" ] in
      let inner bits path = if vni >= 0 || key >= 0 then need bits path else -1 in
      {
        es = need 48 "eth.src";
        ed = need 48 "eth.dst";
        is = need 32 "ipv4.src";
        id = need 32 "ipv4.dst";
        pr = need 8 "ipv4.proto";
        sp = opt 16 [ "tcp.sport"; "udp.sport" ];
        dp = opt 16 [ "tcp.dport"; "udp.dport" ];
        vni;
        key;
        ies = opt 48 [ "ieth.src" ];
        ied = opt 48 [ "ieth.dst" ];
        iis = inner 32 "iipv4.src";
        iid = inner 32 "iipv4.dst";
        ipr = inner 8 "iipv4.proto";
        isp = opt 16 [ "itcp.sport"; "iudp.sport" ];
        idp = opt 16 [ "itcp.dport"; "iudp.dport" ];
      })

let fixed_encap o b =
  Some
    {
      Pkt.kind = (if o.vni >= 0 then Pkt.Vxlan else Pkt.Gre);
      tunnel_id = (if o.vni >= 0 then u24 b o.vni else u32 b o.key);
      in_eth_src = u48_or_0 b o.ies;
      in_eth_dst = u48_or_0 b o.ied;
      in_ip_src = u32 b o.iis;
      in_ip_dst = u32 b o.iid;
      in_proto = protos.(u8 b o.ipr);
      in_src_port = u16_or_0 b o.isp;
      in_dst_port = u16_or_0 b o.idp;
    }

(* The packet of a frame that met the fixed layout with offsets [o]: one
   whole big-endian load per field, no closure call, and nothing
   allocated beyond the result (and a tunnel's encap view). *)
let parse_fixed o port ts_ns b =
  Ok
    {
      Pkt.port;
      eth_src = u48 b o.es;
      eth_dst = u48 b o.ed;
      eth_type = Pkt.ipv4_ethertype;
      ip_src = u32 b o.is;
      ip_dst = u32 b o.id;
      proto = protos.(u8 b o.pr);
      src_port = u16_or_0 b o.sp;
      dst_port = u16_or_0 b o.dp;
      encap = (if o.vni < 0 && o.key < 0 then None else fixed_encap o b);
      size = Bytes.length b;
      ts_ns;
    }

let parse_typed ~port ~ts_ns b =
  let sid = Codec.layout_of c b in
  if sid >= 0 then parse_fixed offsets.(sid) port ts_ns b
  else
    (* options, truncation or an unsupported tag: [shape_of] misses the
       layouts again, counts the fallback and runs the closure tree *)
    let sid = Codec.shape_of c b in
    if sid < 0 then Error (Codec.error_of c b) else Ok (builders.(sid) port ts_ns b)

let parse ?(port = 0) ?(ts_ns = 0) b =
  match parse_typed ~port ~ts_ns b with
  | Ok p -> Ok p
  | Error e -> Error (Codec.error_to_string e)
