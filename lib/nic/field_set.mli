(** RSS packet-field sets.

    A field set selects which header fields the NIC feeds to the Toeplitz
    hash and in which order — the DPDK [RTE_ETH_RSS_*] options.  The hash
    input is the big-endian concatenation of the selected fields in the
    canonical Microsoft order (addresses before ports, source before
    destination). *)

type t

val make : Packet.Field.t list -> t
(** Whole fields, stored in canonical order regardless of argument order.
    Raises [Invalid_argument] on duplicates or on fields RSS can never hash
    (link-layer fields). *)

val make_sliced : (Packet.Field.t * int) list -> t
(** Each field contributes only its leading [bits] to the hash input — the
    flexible protocol-extraction mode prefix-sharded NFs need (see the
    comment in the implementation for why key-side cancellation cannot
    replace it). *)

val ipv4 : t
(** Source and destination IPv4 addresses (DPDK [RSS_IPV4]). *)

val ipv4_tcp : t
(** Addresses and TCP ports — the 12-byte tuple of [RSS_NONFRAG_IPV4_TCP].
    The IP protocol number is not part of the hash input (it selects which
    field set applies), matching real NICs. *)

val ipv4_udp : t

val inner_ipv4_tcp : t
(** Inner (encapsulated) addresses and ports of a terminated VXLAN/GRE
    tunnel — the inner-header extraction of tunnel-aware NICs (DPDK
    [RSS_LEVEL_INNERMOST]).  Only matches packets carrying an
    {!Packet.Pkt.encap} view. *)

val fields : t -> Packet.Field.t list

val slices : t -> (Packet.Field.t * int) list
(** Field and contributed leading bits, in canonical order. *)

val slice_bits : t -> Packet.Field.t -> int option
(** Contributed bits of a field, when selected. *)

val input_bits : t -> int
(** Width of the hash input this set produces. *)

val offset : t -> Packet.Field.t -> int option
(** Bit offset of a field inside the hash input, when selected. *)

val is_inner_field : Packet.Field.t -> bool
(** Whether the field addresses an encapsulated (inner) header. *)

val matches : t -> Packet.Pkt.t -> bool
(** Whether the packet has all the selected fields (e.g. port-bearing sets
    require TCP or UDP; inner-header sets require an encapsulated packet,
    inner-port-bearing ones an inner TCP/UDP). *)

val field_plan : t -> (Packet.Field.t * int * int) array option
(** Extraction plan for {!Rss}'s allocation-free hash path: the hash input
    is the concatenation, entry after entry, of the [bytes] big-endian
    bytes of [Pkt.field_int p f lsr drop] for each [(f, bytes, drop)].
    [None] when some slice is not a whole number of bytes, in which case
    callers must serialize through {!hash_input}. *)

val hash_input : t -> Packet.Pkt.t -> Bitvec.t option
(** The hash input bits for this packet, or [None] when {!matches} is
    false. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
