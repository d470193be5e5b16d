(** Packed representation of container keys of up to 14 bytes.

    The stateful containers are logically keyed by byte strings (the
    encoding [Dsl.Ast.key_of_parts] produces).  Keys of at most
    {!max_packed_bytes} bytes pack losslessly into two immediate OCaml
    ints.  Read the key as one big-endian number: [lo] holds its last 7
    bytes, and [hi] the bytes before them plus the byte length at bit
    56.  So a key of 7 bytes or less has [hi = tag
    ~bytes:n], and the compiled per-packet path builds the pair from
    header fields and performs map and sketch operations on it without
    allocating.  [hi_of_string], [lo_of_string] and [to_string] are exact
    inverses on strings that {!fits}, which is what keeps the packed and
    string views of one container consistent. *)

val max_packed_bytes : int
(** 14: [lo] holds the last 7 bytes, [hi] the up to 7 before them. *)

val lo_mask : int
(** [(1 lsl 56) - 1]: the bits of [lo], and of the key bytes in [hi]. *)

val fits : string -> bool
(** Whether a string key packs. *)

val tag : bytes:int -> int
(** The length tag of a [bytes]-byte key: its [hi] when [bytes <= 7]. *)

val byte_length : int -> int
(** Byte length of a packed key, read from its [hi]. *)

val part_shifts : int list -> int list
(** [part_shifts bytes]: where each part of a key built from parts
    [bytes] wide, in key order, lands — the bit offset of the part's
    lowest bit in the key read as one big-endian number.  The last part
    sits at bit 0. *)

val geometry : int list -> int array
(** [geometry bytes]: where each part of a key built from parts [bytes]
    wide lands, worked out once, as five ints per part in key order:
    [m; ls; lm; hr; hl].  A part [v] truncated to [v land m] — as
    [key_of_parts] truncates it — contributes [(v lsl ls) land lm] to
    [lo] and [(v lsr hr) lsl hl] to [hi], and the key's [hi] is its {!tag}
    [lor] every part's contribution.  Raises [Invalid_argument] when the
    key does not pack. *)

val hi_of_string : string -> int
(** Raises [Invalid_argument] when the key does not {!fits}. *)

val lo_of_string : string -> int
(** Raises [Invalid_argument] when the key does not {!fits}. *)

val to_string : hi:int -> lo:int -> string
(** Exact inverse of the pair ({!hi_of_string}, {!lo_of_string}). *)
