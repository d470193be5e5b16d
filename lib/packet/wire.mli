(** Wire encoding of packets, derived from the staged codecs.

    [serialize] and [parse] route through {!Stacks.pkt} (the production
    Ethernet/IPv4 stack with VXLAN and GRE tunnels): one staged
    classification per frame, field reads straight off the bytes.  Every
    offset the parse uses is derived from the spec: the fixed layouts'
    static offsets for option-free frames, the staged getters for the
    rest.  The original hand-written code survives as {!Legacy}, the
    differential oracle for the derived path and the only parser with
    offsets written by hand. *)

val internet_checksum : bytes -> int
(** RFC 1071 ones-complement checksum over the buffer.  Allocation-free,
    including the odd-length tail (folded in place — no padded copy);
    delegates to {!Codec.Checksum}, the same primitive the derived
    encoders use for checksum fixups. *)

val serialize : Pkt.t -> bytes
(** Encode the packet into a frame of exactly [p.size] bytes (the payload
    is zero-filled) via the derived encoder for the packet's shape —
    including VXLAN/GRE encapsulation when [p.encap] is set.  Header
    checksums and lengths are fixed up by construction.  Raises
    [Invalid_argument] when [p.size] cannot hold the headers its shape
    needs. *)

val parse_typed : port:int -> ts_ns:int -> bytes -> (Pkt.t, Codec.error) result
(** Decode a frame received on [port] at [ts_ns].  Tunnel frames (UDP
    port 4789 VXLAN, IP protocol 47 GRE) come back with [encap] set.
    Truncation and unsupported ethertypes/protocols are distinguished in
    the typed error.

    A frame that meets its shape's fixed layout ({!Codec.layout_of}) —
    every frame {!serialize} and the traffic generators emit — is read
    with whole big-endian loads at the layout's static offsets, derived
    from {!Stacks.pkt_spec}; a plain TCP/UDP frame allocates exactly the
    [Ok] and the record, 15 words.  Any other frame (IPv4 or TCP
    options, truncation, an unsupported tag) falls back to
    {!Codec.shape_of}'s closure tree and the per-field staged getters,
    and is counted in [codec.layout_fallback].  Both paths return the
    same packet for the same frame.  The arguments are labelled, not
    optional, so a call boxes nothing. *)

val parse : ?port:int -> ?ts_ns:int -> bytes -> (Pkt.t, string) result
(** String-error shim over {!parse_typed}; [port] and [ts_ns] default
    to 0.  Note the historical
    silent-zero behaviour is gone: a non-IPv4 ethertype is an [Error
    "unsupported …"], not an [Ok] packet with zeroed addresses. *)

(** The pre-codec hand-written serializer/parser, kept as the
    differential-test oracle (IPv4-only, no tunnels). *)
module Legacy : sig
  val serialize : Pkt.t -> bytes

  val parse : ?port:int -> ?ts_ns:int -> bytes -> (Pkt.t, string) result
end
