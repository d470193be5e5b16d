(** Online RSS++ rebalancing: policy, migration planning, and the state
    handoff that keeps shared-nothing sharding correct when buckets move.

    The paper implements the *static* variant of RSS++ bucket balancing and
    notes that "their dynamic versions could be used to handle changes in
    skew over time" (§4, "Traffic skew").  This module is that dynamic
    half: {!Runtime.Pool} counts per-RETA-bucket load at dispatch and, at
    every epoch boundary, consults a {!config} to decide whether to move
    hot buckets to underloaded queues.  Because shared-nothing plans keep
    per-flow state on the owning core, a bucket move must also move the
    state of every flow hashing into that bucket — the {!migrate} executor
    below performs that handoff while the pool is quiesced.

    Cross-port consistency: Maestro configures *symmetric* per-port RSS
    keys (paper Fig. 3), so both directions of a flow produce the same hash
    and therefore the same bucket index on every port.  The balancer
    exploits this by maintaining ONE indirection table shared by all ports
    (bucket loads are aggregated across ports and the rebalanced table is
    applied to every port engine), which preserves the invariant that a
    flow lands on exactly one core no matter which port its packets
    arrive on. *)

(** {1 Policy} *)

type config = {
  epoch_pkts : int;  (** packets between imbalance checks *)
  threshold : float;
      (** rebalance when max/mean per-core load exceeds this (1.0 is
          perfectly balanced, so useful thresholds are > 1.0) *)
}

val default_config : config
(** [epoch_pkts = 4096], [threshold = 1.1]. *)

(** The parser shape shared by every mode flag ([--rebalance] here,
    [--adaptive] in {!Adaptive}): ["off"], ["on"], or comma-separated
    [key=value] tokens implying "on", with every malformed input a typed
    [Error] — never an exception. *)
module Kv : sig
  val parse :
    flag:string ->
    grammar:string ->
    default:'cfg ->
    field:(key:string -> value:string -> 'cfg -> ('cfg, string) result) ->
    string ->
    ('cfg option, string) result
  (** [Ok None] for ["off"], [Ok (Some default)] for ["on"], otherwise
      [field] folds each [key=value] token over [default].  [flag] and
      [grammar] only shape error messages. *)

  val pos_int : flag:string -> key:string -> string -> (int, string) result
  val nonneg_int : flag:string -> key:string -> string -> (int, string) result

  val ratio : flag:string -> key:string -> string -> (float, string) result
  (** A float [>= 1.0] — the shape of every imbalance threshold. *)
end

val parse : string -> (config option, string) result
(** Parse a [--rebalance] specification: ["off"] ([None]), ["on"], or a
    comma-separated list of [epoch=N] and [threshold=F] (each implies
    "on", missing fields take {!default_config} values).  [Error] (never
    an exception) on malformed input. *)

val to_string : config option -> string

(** {1 Migration planning}

    A static analysis of the NF's AST discovering how per-flow state is
    laid out, mirroring the Vigor idiom: a {!State.Dchain} allocates flow
    indices, key vectors remember each flow's key fields, maps go from key
    bytes to index, and data vectors hold per-flow values — all tied
    together by the [Chain_expire] purge pairs.  The plan records, for
    every migratable object, how to rebuild a flow's key, decode it back
    into packet header fields (possible exactly when the map keys are
    plain header fields — the same restriction that makes the key
    RSS-shardable in the first place), and which vectors travel with a
    chain index. *)

type migration_plan

val migration_plan : Dsl.Ast.t -> migration_plan

val exact : migration_plan -> bool
(** [true] when every written map, chain and vector is migratable, so a
    bucket move loses no state and parallel verdicts stay equal to
    sequential.  Sketches are exempt: they are estimators, not exact
    state, and are skipped (and listed) instead. *)

val skipped_objects : migration_plan -> string list
(** Written state objects the migration cannot carry (sketches always;
    maps/vectors/chains whose keys or index flow defeat the analysis). *)

(** {1 Migration execution} *)

type outcome = {
  moved_flows : int;  (** state entries handed to another core *)
  dropped_flows : int;
      (** entries evicted because the destination was full — the flow
          restarts, exactly as if it had expired *)
}

val migrate_by :
  migration_plan ->
  hash:(Packet.Pkt.t -> int option) ->
  owner:(int -> int) ->
  instances:Dsl.Instance.t array ->
  outcome
(** [migrate_by plan ~hash ~owner ~instances] walks every instance's
    state, rebuilds each flow's key, decodes it into a pseudo-packet,
    hashes it with [hash] (an RSS key solved over the plan's sharding
    constraints, so the hash depends only on the key fields), and moves
    the flow's entries to instance [owner h] when that differs from the
    current holder.  [owner] receives the raw hash — the in-pool
    rebalancer masks it into an indirection table, the cluster tier feeds
    it to a maglev lookup.  Chain indices are re-allocated on the target
    with their last-touch time preserved in recency order
    ({!State.Dchain.allocate_at}), tied vector slots are copied, and map
    entries are re-pointed — so aging, expiry order and lookups all
    survive the move.  Must only be called while the instances are
    quiesced (no worker touching them). *)

val migrate :
  migration_plan ->
  hash:(Packet.Pkt.t -> int option) ->
  mask:int ->
  dest:(int -> int) ->
  instances:Dsl.Instance.t array ->
  outcome
(** [migrate plan ~hash ~mask ~dest ~instances] is
    [migrate_by plan ~hash ~owner:(fun h -> dest (h land mask)) ~instances]
    — the single-machine indirection-table form used by the pool's
    rebalancer. *)

(** {1 Dispatch records}

    Pure readings of what {!Pool.stats} records of a run: the core each
    packet was dispatched to ([last_assignment]) and the packet offsets
    where the run changed its table or rung ([last_rebalance_points]). *)

val imbalance_of : int array -> float
(** Max over mean of per-core packet counts; 1.0 when every count is 0. *)

val epoch_counts : cores:int -> epoch_pkts:int -> int array -> int array array
(** [epoch_counts ~cores ~epoch_pkts assignment] cuts a run's per-packet
    core assignment into epochs of [epoch_pkts] packets, the last one
    possibly partial, and counts each epoch's packets per core. *)

val ordering_violations :
  ?exempt:(int -> bool) -> key:(int -> 'k) -> points:int list -> int array -> int
(** [ordering_violations ~key ~points assignment] counts the packets [i]
    whose [key i] (a flow, or an RSS bucket) was dispatched earlier in the
    same segment between two consecutive [points] to another core — the
    per-flow order the quiesce protocol guarantees is then at risk.
    Packets with [exempt i] are skipped: on the SCR rung the round-robin
    spray moves ownership per batch by design. *)
