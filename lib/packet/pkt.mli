(** Concrete packets.

    A packet is a parsed Ethernet/IPv4/L4 header set plus wire metadata.
    Header values are plain non-negative integers (a 48-bit MAC fits in an
    OCaml int); [size] is the full frame length in bytes, used by the
    performance model and by throughput accounting.

    A packet may additionally carry an {!encap} view: the inner headers of
    a VXLAN or GRE tunnel as seen by a tunnel-terminating NF.  The outer
    fields then describe the underlay (VTEP addresses, outer UDP port) and
    the [Inner_*] members of {!Field.t} address the encapsulated frame. *)

type proto = Tcp | Udp | Other of int

type encap_kind = Vxlan | Gre

type encap = {
  kind : encap_kind;
  tunnel_id : int;  (** VXLAN VNI (24-bit) or GRE key (32-bit) *)
  in_eth_src : int;  (** inner MACs; zero for GRE (no inner Ethernet) *)
  in_eth_dst : int;
  in_ip_src : int;
  in_ip_dst : int;
  in_proto : proto;
  in_src_port : int;
  in_dst_port : int;
}

type t = {
  port : int;  (** device the packet arrived on *)
  eth_src : int;  (** 48-bit MAC *)
  eth_dst : int;
  eth_type : int;  (** 16-bit; 0x0800 for IPv4 *)
  ip_src : int;  (** 32-bit IPv4 address *)
  ip_dst : int;
  proto : proto;
  src_port : int;  (** 16-bit; 0 when [proto] is [Other] *)
  dst_port : int;
  encap : encap option;  (** inner headers when the frame is a tunnel *)
  size : int;  (** frame bytes, header included *)
  ts_ns : int;  (** arrival timestamp, nanoseconds *)
}

val ipv4_ethertype : int

val proto_number : proto -> int

val proto_of_number : int -> proto

val default_encap : encap
(** A zeroed VXLAN view; what {!set_field} materializes when asked to set
    an inner field on a packet with no encapsulation. *)

val make :
  ?port:int ->
  ?eth_src:int ->
  ?eth_dst:int ->
  ?proto:proto ->
  ?size:int ->
  ?ts_ns:int ->
  ?encap:encap ->
  ip_src:int ->
  ip_dst:int ->
  src_port:int ->
  dst_port:int ->
  unit ->
  t
(** A TCP/IPv4 packet by default, 64 bytes, port 0, timestamp 0, no
    encapsulation. *)

val get_field : t -> Field.t -> Bitvec.t
(** The wire bits of one header field, MSB first. *)

val field_int : t -> Field.t -> int
(** Inner fields and the tunnel id of a packet without an [encap] view
    read as zero (same convention as absent L4 ports). *)

val set_field : t -> Field.t -> int -> t
(** Functional update of one header field.  Setting an inner field on a
    packet with no encapsulation materializes {!default_encap} first. *)

val flip : t -> t
(** Swap source and destination addresses and ports (the WAN reply direction
    of a LAN flow), inner headers included. *)

val with_port : t -> int -> t

val wire_size : t -> int
(** Bytes the frame occupies on the wire including Ethernet preamble,
    start-of-frame delimiter and inter-frame gap (size + 20) — what line-rate
    math must use. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit

val pp_ip : Format.formatter -> int -> unit
(** Dotted-quad rendering of a 32-bit address. *)
