type proto = Tcp | Udp | Other of int

type encap_kind = Vxlan | Gre

type encap = {
  kind : encap_kind;
  tunnel_id : int;
  in_eth_src : int;
  in_eth_dst : int;
  in_ip_src : int;
  in_ip_dst : int;
  in_proto : proto;
  in_src_port : int;
  in_dst_port : int;
}

type t = {
  port : int;
  eth_src : int;
  eth_dst : int;
  eth_type : int;
  ip_src : int;
  ip_dst : int;
  proto : proto;
  src_port : int;
  dst_port : int;
  encap : encap option;
  size : int;
  ts_ns : int;
}

let ipv4_ethertype = 0x0800

let proto_number = function Tcp -> 6 | Udp -> 17 | Other n -> n land 0xff

let proto_of_number = function 6 -> Tcp | 17 -> Udp | n -> Other (n land 0xff)

let default_encap =
  {
    kind = Vxlan;
    tunnel_id = 0;
    in_eth_src = 0x02_00_00_00_01_01;
    in_eth_dst = 0x02_00_00_00_01_02;
    in_ip_src = 0;
    in_ip_dst = 0;
    in_proto = Tcp;
    in_src_port = 0;
    in_dst_port = 0;
  }

let make ?(port = 0) ?(eth_src = 0x02_00_00_00_00_01) ?(eth_dst = 0x02_00_00_00_00_02)
    ?(proto = Tcp) ?(size = 64) ?(ts_ns = 0) ?encap ~ip_src ~ip_dst ~src_port ~dst_port () =
  {
    port;
    eth_src;
    eth_dst;
    eth_type = ipv4_ethertype;
    ip_src;
    ip_dst;
    proto;
    src_port;
    dst_port;
    encap;
    size;
    ts_ns;
  }

let field_int p = function
  | Field.Eth_src -> p.eth_src
  | Field.Eth_dst -> p.eth_dst
  | Field.Eth_type -> p.eth_type
  | Field.Ip_src -> p.ip_src
  | Field.Ip_dst -> p.ip_dst
  | Field.Ip_proto -> proto_number p.proto
  | Field.Src_port -> p.src_port
  | Field.Dst_port -> p.dst_port
  (* Inner fields of a packet that is not encapsulated read as zero, the
     same convention the legacy parser used for absent L4 ports. *)
  | Field.Tunnel_id -> ( match p.encap with Some e -> e.tunnel_id | None -> 0)
  | Field.Inner_ip_src -> ( match p.encap with Some e -> e.in_ip_src | None -> 0)
  | Field.Inner_ip_dst -> ( match p.encap with Some e -> e.in_ip_dst | None -> 0)
  | Field.Inner_ip_proto -> (
      match p.encap with Some e -> proto_number e.in_proto | None -> 0)
  | Field.Inner_src_port -> ( match p.encap with Some e -> e.in_src_port | None -> 0)
  | Field.Inner_dst_port -> ( match p.encap with Some e -> e.in_dst_port | None -> 0)

let get_field p f = Bitvec.of_int ~width:(Field.width f) (field_int p f)

let set_field p f v =
  let enc g =
    let e = match p.encap with Some e -> e | None -> default_encap in
    { p with encap = Some (g e) }
  in
  match f with
  | Field.Eth_src -> { p with eth_src = v }
  | Field.Eth_dst -> { p with eth_dst = v }
  | Field.Eth_type -> { p with eth_type = v }
  | Field.Ip_src -> { p with ip_src = v }
  | Field.Ip_dst -> { p with ip_dst = v }
  | Field.Ip_proto -> { p with proto = proto_of_number v }
  | Field.Src_port -> { p with src_port = v }
  | Field.Dst_port -> { p with dst_port = v }
  | Field.Tunnel_id -> enc (fun e -> { e with tunnel_id = v })
  | Field.Inner_ip_src -> enc (fun e -> { e with in_ip_src = v })
  | Field.Inner_ip_dst -> enc (fun e -> { e with in_ip_dst = v })
  | Field.Inner_ip_proto -> enc (fun e -> { e with in_proto = proto_of_number v })
  | Field.Inner_src_port -> enc (fun e -> { e with in_src_port = v })
  | Field.Inner_dst_port -> enc (fun e -> { e with in_dst_port = v })

let flip p =
  {
    p with
    eth_src = p.eth_dst;
    eth_dst = p.eth_src;
    ip_src = p.ip_dst;
    ip_dst = p.ip_src;
    src_port = p.dst_port;
    dst_port = p.src_port;
    encap =
      Option.map
        (fun e ->
          {
            e with
            in_eth_src = e.in_eth_dst;
            in_eth_dst = e.in_eth_src;
            in_ip_src = e.in_ip_dst;
            in_ip_dst = e.in_ip_src;
            in_src_port = e.in_dst_port;
            in_dst_port = e.in_src_port;
          })
        p.encap;
  }

let with_port p port = { p with port }

(* 7B preamble + 1B SFD + 12B inter-frame gap *)
let wire_size p = p.size + 20

let equal a b = a = b
let compare = Stdlib.compare

let pp_ip fmt ip =
  Format.fprintf fmt "%d.%d.%d.%d" ((ip lsr 24) land 0xff) ((ip lsr 16) land 0xff)
    ((ip lsr 8) land 0xff) (ip land 0xff)

let pp fmt p =
  let proto_str = function Tcp -> "tcp" | Udp -> "udp" | Other n -> string_of_int n in
  (match p.encap with
  | None -> ()
  | Some e ->
      Format.fprintf fmt "%s[%d] "
        (match e.kind with Vxlan -> "vxlan" | Gre -> "gre")
        e.tunnel_id);
  Format.fprintf fmt "[port %d] %a:%d -> %a:%d %s" p.port pp_ip p.ip_src p.src_port pp_ip
    p.ip_dst p.dst_port (proto_str p.proto);
  (match p.encap with
  | None -> ()
  | Some e ->
      Format.fprintf fmt " | inner %a:%d -> %a:%d %s" pp_ip e.in_ip_src e.in_src_port
        pp_ip e.in_ip_dst e.in_dst_port (proto_str e.in_proto));
  Format.fprintf fmt " %dB" p.size
