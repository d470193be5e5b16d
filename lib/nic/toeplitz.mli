(** The Toeplitz-based RSS hash (paper Fig. 4, Microsoft RSS spec).

    The 32-bit running hash is XOR-ed with the 32 most significant bits of
    the key, left-rotated once per consumed input bit, whenever the current
    input bit is 1.  Equivalently, hash bit [b] is
    [⊕_x d(x) ∧ k(x + b)] — linear over GF(2) in both the key and the
    input, which is the property RS3's solver exploits. *)

val hash : key:Bitvec.t -> Bitvec.t -> int32
(** [hash ~key d] hashes input [d].  Requires
    [Bitvec.length key >= Bitvec.length d + 32] — 52-byte keys cover the
    12-byte IPv4 TCP tuple and more.  Raises [Invalid_argument] otherwise. *)

val hash_int : key:Bitvec.t -> Bitvec.t -> int
(** Same as {!hash} with the result as a non-negative int. *)

val key_bits_for_input : int -> int
(** Minimum key width for a given input width. *)

val hashes : Telemetry.Counter.t
(** The [toeplitz.hashes] counter, bumped once per hash computed: here,
    and by {!Rss.hasher}'s staged hashers. *)

(** Compiled keys: the table-driven fast path (DPDK [rte_thash] style).

    [compile] precomputes, for every input byte position, a 256-entry table
    of 32-bit partial hashes — entry [b] is the XOR of the key windows
    selected by the set bits of [b] — so hashing costs one lookup and one
    XOR per input byte instead of up to eight bit-window extractions.
    Results are bit-exact against {!hash}, the retained oracle; ragged
    (non-byte-multiple) input widths work because {!Bitvec} keeps the
    unused low-order bits of the last byte at zero. *)
module Key : sig
  type t

  val compile : Bitvec.t -> t
  (** Requires a key of at least 32 bits; raises [Invalid_argument]
      otherwise.  Cost is O(256 × key bytes) — compile once per configured
      key, not per packet. *)

  val key : t -> Bitvec.t
  (** The original key the tables were compiled from. *)

  val max_input_bits : t -> int
  (** Largest input width this key can hash, [length key - 32]. *)

  val hash : t -> Bitvec.t -> int32
  (** Bit-exact equivalent of [hash ~key:(key t)]; raises
      [Invalid_argument] when the input exceeds [max_input_bits]. *)

  val hash_int : t -> Bitvec.t -> int
  (** Same as {!hash} with the result as a non-negative int. *)

  val tables : t -> int array
  (** The compiled tables themselves, read-only: entry [256 * i + b] is
      the partial hash of byte value [b] at input byte [i], for [i] below
      [ceil (max_input_bits / 8)].  {!Rss.hasher} stages its lookups into
      them, after checking the set's width against [max_input_bits]
      once. *)
end

val microsoft_test_key : Bitvec.t
(** The 40-byte reference key from the Microsoft RSS verification suite,
    usable for validating this implementation against published vectors. *)
