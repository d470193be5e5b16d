(** Staged zero-copy codecs compiled from {!Spec} formats.

    {!stage} walks a spec once and bakes every offset, width, tag
    location and bounds check into closures — the same staging
    discipline [Dsl.Compile] applies to NF logic.  At run time a frame
    is classified into a {e shape} (one root-to-leaf path through the
    spec's tagged unions) by {!shape_of}, after which per-field getters
    read straight off the raw bytes: no intermediate record, no
    allocation on the hot path.

    {b Fixed layouts.}  For every shape, {!stage} also derives the
    layout the shape has when each header on its path is option-free:
    the static byte offset of each record, the minimum frame length,
    and a flat set of guards of three kinds —
    - each header-length field (IPv4 IHL, TCP data offset) equals its
      option-free value (the record's fixed part in its units);
    - each switch tag on the path equals its arm's value;
    - where the path leaves a switch by its default arm, the tag
      differs from every arm value (plain UDP: the destination port is
      not 4789).

    {!shape_of} checks the layouts first, in shape order, as flat loads
    and compares ({!layout_of}).  Only a frame that meets no layout —
    one with header options, a truncated one, one with an unsupported
    tag — is classified by the closure tree ({!tree_shape_of}) and
    counted in the telemetry counter [codec.layout_fallback].

    {b Why the answer is the tree's.}  Suppose a frame of [n] bytes
    meets shape [s]'s layout.  Every header-length field on [s]'s path
    holds its option-free value, so every header's actual length is
    its fixed length, and the tree's dynamic record offsets are the
    layout's static ones.  Every record then ends within the layout's
    minimum length, which is at most [n], so each of the tree's bounds
    checks on the path passes, as does its header-length check
    ([actual >= fixed] and the header fits).  At each switch on the
    path the tag equals the arm value the path takes — arm tags are
    distinct, so the tree's first-match chain takes that arm — or, at a
    default exit, differs from every arm value, so the tree falls to
    the default, which accepts (a rejecting default ends no shape).
    The tree therefore returns [s].  Two shapes' guards exclude each
    other: their paths share a prefix of records, hence the same static
    offsets, and part at a switch where one takes arm value [v] and the
    other a different arm value or the default, which excludes [v]; one
    path cannot end where the other goes on, because a shape ends only
    at [Stop] or at a default exit.  So at most one layout matches, and
    a frame that matches none gets the tree's answer directly.  (Each
    guard compares exactly the field's bits: {!Spec.validate} makes
    every arm tag fit its switch field, and an option-free header
    length that does not fit its field leaves the shape with no
    layout.)
    [test/test_codec.ml] checks [shape_of = tree_shape_of] on mutated
    and truncated frames of every shape of both shipped stacks.

    The derived encoder emits minimal (option-free) headers, writes
    caller-supplied values, then fixes up constants, forced switch tags,
    header lengths, computed lengths and finally checksums
    innermost-first — which is what makes [encode ∘ decode = id] hold by
    construction, and [decode ∘ encode = id] hold modulo checksum
    recomputation. *)

type error =
  | Truncated of { record : string; need : int; have : int }
  | Unsupported of { record : string; tag_field : string; tag : int }

val err_truncated : int
(** [-1]: {!shape_of}'s truncation code. *)

val err_unsupported : int
(** [-2]: {!shape_of}'s rejected-tag code. *)

val error_to_string : error -> string

(** The RFC 1071 ones-complement checksum, as an allocation-free region
    primitive.  This is both the encoder's fixup engine and what
    [Wire.internet_checksum] delegates to; the odd-length tail is folded
    in place rather than via a padded copy. *)
module Checksum : sig
  val sum_region : bytes -> off:int -> len:int -> int -> int
  (** [sum_region b ~off ~len acc] adds the region's big-endian 16-bit
      words (odd tail high-padded) onto [acc].  Bounds-checked once at
      entry.  Raises [Invalid_argument] if the region escapes [b]. *)

  val finish : int -> int
  (** Fold carries and complement: the wire checksum of an accumulated
      sum. *)
end

type t
(** A staged codec. *)

(** Per-field staged accessors, indexed by shape id.  Entries for shapes
    that do not contain the field raise [Invalid_argument]. *)
type accessor = { get : (bytes -> int) array; set : (bytes -> int -> unit) array }

val stage : Spec.t -> t
(** Compile a spec.  Raises [Invalid_argument] when {!Spec.validate}
    rejects it. *)

(** {1 Classification} *)

val shape_of : t -> bytes -> int
(** Classify a frame: a shape id [>= 0], or {!err_truncated} /
    {!err_unsupported}.  Int-only by design — the hot path pays no
    [result] allocation; recover the typed error with {!error_of}.
    The fixed layouts first ({!layout_of}), then, counted in
    {!layout_fallback}, the closure tree; always equal to
    {!tree_shape_of}. *)

val layout_of : t -> bytes -> int
(** The shape whose fixed layout the frame meets, or [-1] when it meets
    none.  Flat loads and compares only; allocates nothing and never
    falls back.  A frame it accepts into shape [s] holds every field of
    [s] at the field's {!layout_offset}. *)

val tree_shape_of : t -> bytes -> int
(** The reference classifier: the staged closure tree alone, uncounted.
    {!shape_of} always returns what it returns; differential tests
    compare the two. *)

val layout_fallback : Telemetry.Counter.t
(** [codec.layout_fallback]: frames {!shape_of} handed to the tree
    because they met no layout.  Incremented on the fallback only, so
    the layout path pays nothing for it; a no-op while telemetry is
    off. *)

val layout_offset : t -> int -> string -> bits:int -> int
(** [layout_offset t sid path ~bits]: the frame offset of field [path]'s
    first byte in shape [sid]'s fixed layout.  Raises
    [Invalid_argument] when the shape has no layout, lacks the field,
    or the field is not byte-aligned and exactly [bits] wide.  Every
    shipped shape has a layout; a shape has none when a header on its
    path has no option-free length (a fixed part that is no whole
    number of its length units) or a guarded field is wider than 4
    bytes. *)

val error_of : t -> bytes -> error
(** The typed error for a frame {!shape_of} rejected (a slow, safe
    re-walk of the spec).  Raises [Invalid_argument] on a frame that
    parses cleanly. *)

val shape_count : t -> int
(** Shape ids run from 0 to [shape_count - 1] in the order the tree
    tries the paths: at each switch, every arm's shapes in declared
    order, then the default's.  This is also the layouts' order. *)

val shape_name : t -> int -> string
(** ["eth/ipv4/tcp"]-style path name of a shape. *)

val shape_named : t -> string -> int
(** Inverse of {!shape_name}; raises [Invalid_argument] on unknown
    names. *)

val shape_min_len : t -> int -> int
(** Minimum frame bytes for this shape (sum of fixed header parts). *)

val shape_fields : t -> int -> string list
(** Qualified field paths (["ipv4.src"]) of a shape, in wire order. *)

val shape_records : t -> int -> string list

val payload_start : t -> int -> bytes -> int
(** Offset of the first payload byte (past all headers, honouring
    header-length fields) of a frame already classified into the shape. *)

val paths : t -> string list
(** All qualified field paths across all shapes, sorted. *)

(** {1 Field access} *)

val accessor : t -> string -> accessor
(** The staged accessors of a qualified path.  Raises
    [Invalid_argument] on unknown paths.  Getter entries use unchecked
    reads — only apply them to frames {!shape_of} accepted into a shape
    that contains the field. *)

val getter : t -> string -> (bytes -> int) array

(** {1 Decode / encode} *)

val decode : t -> bytes -> (int * (string * int) list * int, error) result
(** [(shape id, all fields as path/value pairs, payload byte count)].
    The slow convenience form; hot paths use {!shape_of} + getters. *)

val encode : t -> shape:int -> ?payload_len:int -> (string * int) list -> bytes
(** Build a frame of the given shape: caller-supplied plain values from
    the assoc list (missing fields encode as zero, extra entries are
    ignored), derived fields fixed up.  The payload is zero-filled. *)

val encode_fixed_len : t -> shape:int -> int
(** Header bytes {!encode} emits for this shape. *)
