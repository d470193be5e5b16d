(** Maglev-style consistent hashing for the cluster front tier.

    A lookup table of prime size is filled by letting every machine walk
    its own permutation of the slots (derived from a per-machine offset
    and skip, as in Eisenbud et al., NSDI'16) and claim unfilled slots in
    round-robin order.  The construction gives two properties the front
    tier needs:

    - {e balance}: machine slot counts differ by at most the round-robin
      granularity (within a factor ~2 even while machines churn), and
    - {e minimal disruption}: adding or removing one of [n] machines
      reassigns close to [1/n] of the slots — far less than the [2/n]
      bound [test_cluster] asserts — because every surviving machine
      re-walks the {e same} permutation.

    Tables are value-semantics snapshots: churn builds a new table from
    the new machine set and the old one is kept to measure disruption and
    to ownership-filter digest logs during failure rebuilds. *)

type t

val build : ?size:int -> machines:int list -> unit -> t
(** [build ~machines ()] fills a table of the smallest prime [>= size]
    (default 251) over the given machine ids (deduplicated; ids must be
    non-negative).  Deterministic: the permutations derive from the
    machine ids alone, so two builds over the same set are identical —
    the property that makes disruption measurable and rebuilds
    reproducible.  Raises [Invalid_argument] on an empty machine set. *)

val size : t -> int
(** The (prime) number of slots. *)

val machines : t -> int list
(** The machine ids the table was built over, ascending. *)

val lookup : t -> int -> int
(** [lookup t h] is the machine owning hash [h] (any int; reduced
    mod [size]). *)

val slot_owner : t -> int -> int
(** The machine owning table slot [i] directly (for table audits). *)

val shares : t -> (int * float) list
(** Fraction of slots owned by each machine, ascending by id. *)

val disruption : t -> t -> float
(** Fraction of slots whose owner differs between two tables of the same
    size — the flow-reassignment fraction a table swap causes.  Raises
    [Invalid_argument] when the sizes differ. *)

val pp : Format.formatter -> t -> unit
