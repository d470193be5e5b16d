(** Independent validation of RSS keys.

    The window reduction is exact, but solutions are still re-checked the
    way the paper's artifact does: hash randomly drawn packet pairs that
    satisfy each constraint and require equal hashes; and measure how well
    each key spreads unconstrained traffic over the indirection table —
    rejecting the degenerate keys §4 warns about (e.g. hashes that can only
    take two values, or the all-zero hash a disjoint-requirement system
    forces). *)

val probe : Random.State.t -> port:int -> Packet.Pkt.t
(** One random probe packet on [port]: a TCP packet whose outer and inner
    (tunnel) addresses and ports are all drawn at random. *)

val probe_pair : Random.State.t -> Cstr.t -> Packet.Pkt.t * Packet.Pkt.t
(** [(d_a, d_b)]: two probes on the constraint's ports, drawn [d_b] first,
    where [d_a] copies the constrained leading bits of [d_b]'s fields. *)

val check_constraints :
  Problem.t -> keys:Bitvec.t array -> rng:Random.State.t -> trials:int -> (unit, string) result
(** For every constraint, draw [trials] satisfying packet pairs
    ({!probe_pair}) and compare hashes.  The first violated constraint is
    reported and no further pair is drawn.  Probes are hashed with
    {!Nic.Rss.hasher}, bit-exact with the reference Toeplitz hash. *)

type spread = {
  distinct_hashes : int;
  bucket_imbalance : float;
      (** max/mean occupancy over the hash-indexed buckets; 1.0 is ideal *)
  nonempty_buckets : int;
      (** buckets (indexed by the low hash bits, as the indirection table
          is) that received at least one packet — a key whose variability
          sits only in the high hash bits fails here *)
  constant_hash : bool;
}

val spread_of_key :
  key:Bitvec.t -> field_set:Nic.Field_set.t -> rng:Random.State.t -> trials:int -> spread
(** Hash [trials] probes ({!probe} on port 0) under [key] and [field_set]
    with {!Nic.Rss.hasher}.  Probes the set does not match are skipped. *)

val quality_ok : Problem.t -> keys:Bitvec.t array -> rng:Random.State.t -> bool
(** The paper's acceptance test: every port's key must spread unconstrained
    traffic (no constant or two-value hashes, no pathological bucket
    skew). *)
