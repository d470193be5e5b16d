(** A configured RSS engine for one NIC port: key + field sets + indirection
    table.  This is the hardware mechanism Maestro programs; dispatching a
    packet reproduces exactly what the NIC does in hardware. *)

type t

val configure :
  ?nic:Model.t ->
  ?compiled:bool ->
  key:Bitvec.t ->
  sets:Field_set.t list ->
  queues:int ->
  unit ->
  t
(** Raises [Invalid_argument] when the key length differs from the NIC's,
    when a set is unsupported by the NIC, or when [queues] exceeds the NIC's
    maximum.  [nic] defaults to {!Model.E810}; the indirection table is
    round-robin.  [compiled] (default [true]) selects the
    table-driven {!hasher} over the bit-by-bit reference
    ({!Field_set.hash_input} and {!Toeplitz.hash}), which tests keep as the
    oracle.  Both paths are bit-exact, so dispatch decisions never depend
    on the choice.  The lookup tables are compiled lazily on first hash. *)

val hasher : Toeplitz.Key.t -> Field_set.t -> Packet.Pkt.t -> int
(** [hasher ck s] stages the per-set hash a compiled engine runs: the
    32-bit Toeplitz hash of the packet's [s] fields under [ck], or [-1]
    when the packet lacks one of them ({!Field_set.matches}).  When every
    slice of [s] is whole bytes, [s]'s {!Field_set.field_plan} becomes one
    closure that reads the fields straight from the packet, looks their
    bytes up in [ck]'s tables inline, tests only what [s] needs of a
    packet and allocates nothing; otherwise it hashes
    {!Field_set.hash_input}.  Raises [Invalid_argument], here and not per
    packet, when [s] is wider than [ck] can hash.  Staging costs a few
    small arrays on top of {!Toeplitz.Key.compile}: RS3 builds one per
    candidate key. *)

val random_key : Random.State.t -> Model.t -> Bitvec.t
(** A uniformly random key of the NIC's key size — what Maestro installs
    when no sharding constraints exist (NOP, SBridge) or for lock-based
    parallelization. *)

val key : t -> Bitvec.t

val uses_compiled : t -> bool
(** Whether {!hash} and {!dispatch} take the table-driven fast path. *)

val nic : t -> Model.t

val sets : t -> Field_set.t list

val reta : t -> Reta.t

val with_reta : t -> Reta.t -> t

val hash : t -> Packet.Pkt.t -> int
(** [hash t p] is the 32-bit Toeplitz hash the NIC computes, or [-1] when
    no configured field set matches the packet (it then goes to the
    default queue).  On the fast path it is the set's {!hasher} (the first
    matching set's, with several), allocates nothing and makes no
    polymorphic comparison.  The engine's tables are compiled on the first
    call. *)

val hash_of : t -> Packet.Pkt.t -> int option
(** {!hash} as an option: [None] when no configured field set matches. *)

val dispatch : t -> Packet.Pkt.t -> int
(** The queue (= core) this packet is steered to; unmatched packets go to
    queue 0, as DPDK drivers do. *)

val pp : Format.formatter -> t -> unit
