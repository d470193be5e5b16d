(** A combinator DSL for binary header formats.

    Following Narcissus, a single declarative format yields both the
    parser and the encoder: {!Codec.stage} compiles a spec into
    zero-copy accessors and a derived encoder such that
    [encode ∘ decode = id] holds by construction.

    A spec is a chain of {e records}.  Each record is an ordered list of
    fixed-width bit {e fields} followed by a {!next} rule: nothing
    ([Stop]), an unconditional nested record ([Then]), or a tagged union
    ([Switch]) discriminating on one of the record's own fields — the
    ethertype, the IP protocol, a well-known UDP port.  Classification
    is first-match with no backtracking.

    Fields are either plain values or {e derived}: constants, computed
    lengths, header-length words (IPv4 IHL, TCP data offset) and
    checksums.  Derived fields are ignored on decode and fixed up by the
    derived encoder. *)

(** What a computed length counts: the bytes from this header's first
    byte to the end of the frame, or from just past this header's fixed
    part (IPv6 payload length). *)
type lscope = From_this_header | After_this_header

(** Checksum flavours: the IPv4 header checksum (over this record's
    actual bytes), or an L4 pseudo-header checksum that folds in address
    and protocol fields of the named ancestor IP record plus the L4
    length. *)
type ckind =
  | Ipv4_header
  | L4_pseudo of {
      ip : string;  (** record name of the enclosing IP header *)
      addrs : string list;  (** its address fields, in pseudo-header order *)
      proto_field : string;  (** its protocol / next-header field *)
      zero_is_ffff : bool;  (** transmit 0xffff when the sum comes out 0 *)
    }

type kind =
  | Value  (** caller-supplied on encode, reported on decode *)
  | Const of int  (** fixed wire value, written by the encoder *)
  | Length of lscope  (** computed byte count, written by the encoder *)
  | Hdr_len of { unit_bytes : int }
      (** this record's actual length in [unit_bytes] units; bounds the
          decoder (options allowed) and is emitted minimal by the encoder *)
  | Checksum of ckind  (** fixup field, settled innermost-first *)

type field = { fname : string; bits : int; fkind : kind }

(** What an unmatched switch tag means: [Accept] ends the shape at this
    record (an IPv4 packet of an unmodeled protocol is still a packet);
    [Reject] classifies the frame as unsupported. *)
type default = Accept | Reject

type t = { name : string; fields : field list; next : next }

and next =
  | Stop
  | Then of t
  | Switch of { on : string; arms : (int * t) list; default : default }

val field : ?kind:kind -> string -> int -> field
(** [field name bits] — a plain value field of [bits] wire bits. *)

val const : string -> int -> int -> field
(** [const name bits v] — shorthand for [field ~kind:(Const v) name bits]. *)

val value : ?kind:kind -> string -> int -> field
(** Alias of {!field}. *)

val record : string -> field list -> next -> t

val fixed_bytes : t -> int

val find_field : t -> string -> field option

val hdr_len_field : t -> field option
(** The record's [Hdr_len] field, if any. *)

val validate : t -> (unit, string) result
(** Structural checks: every record a whole number of bytes; every field
    1–56 bits and spanning at most 7 bytes (so staged reads fit an OCaml
    int); unique field names per record; at most one [Hdr_len] per
    record; switch scrutinee declared in the same record with distinct
    arm tags that fit its width; no record name repeated along a path; pseudo-checksums
    referencing an ancestor record.  [Codec.stage] refuses specs that
    fail this. *)

val pp : Format.formatter -> t -> unit
