(** NIC capability models.

    Each NIC supports only some of the DPDK RSS field-set options (paper
    §5, "RSS limitations").  The modeled E810, like DPDK's ice driver,
    honors the [RTE_ETH_RSS_L3_SRC_ONLY]/[L3_DST_ONLY]/[L4_*_ONLY]
    modifiers, i.e. it can hash {e any} subset of the IPv4/L4 fields; the
    modeled X710 only offers the rigid address-pair and full-tuple sets.

    Subset hashing is load-bearing for shared-nothing parallelization:
    cancelling an unwanted field out of a rigid ports-bearing Toeplitz
    input zeroes key windows that overlap the neighbouring fields' windows,
    collapsing the hash to a handful of values (the solver-level face of
    rule R3; proved by the solver in test_rs3.ml).  A dst-IP-sharded
    Policer or a server-sharded NAT therefore needs the *_ONLY modifiers —
    on a rigid NIC Maestro must fall back to locks. *)

type t = E810 | X710 | Permissive

val name : t -> string

val key_bytes : t -> int
(** RSS key length (52 for the E810, 40 for the X710). *)

val supports : t -> Field_set.t -> bool

val reta_size : t -> int
(** Indirection table entries. *)

val max_queues : t -> int

val best_set_covering : t -> Packet.Field.t list -> Field_set.t option
(** The smallest supported field set that includes all the given fields —
    how Maestro picks the RSS option for a sharding requirement.  [None]
    when some field is not hashable on this NIC. *)

val pp : Format.formatter -> t -> unit
