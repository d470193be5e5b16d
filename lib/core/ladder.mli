(** The degradation ladder: Maestro's maintain-semantics-at-lower-speed
    contract (paper §4.4, §6) made explicit, extended with the
    state-compute-replication rung of Xu et al. (arXiv 2309.14647).

    The pipeline always produces a plan whose behavior matches the
    sequential NF; what degrades under adversity is {e speed}, one rung
    at a time:

    {v
      shared-nothing        state shards: an RSS key steers each flow's
        |                   packets to one core, which owns its state
        | no key / sharding blocked / budget exhausted
        v
      state-compute-        full replica per core + per-packet update
      replication (SCR)     digest broadcast: any core serves any flow
        |
        | NF never writes (replication is free anyway), or the
        | digest would exceed the replication budget
        v
      lock-based            one shared state behind the reader-writer
        |                   lock; write packets serialize
        | multi-queue dispatch unavailable (cores > NIC queues,
        | or a single-core request)
        v
      serial                one core, sequential speed, zero contention
    v}

    Selection conditions, top to bottom:

    + {e shared-nothing} — the sharding analysis found partitionable
      keys and RS3 solved an RSS key for them (also the rung recorded
      for stateless / read-only NFs, which parallelize without a key);
    + {e state-compute-replication} — the NF writes state that cannot
      be sharded, but {!Scrspec.admissible} finds a per-packet digest
      within the replication budget: every core keeps a full replica
      and replays the other cores' updates — no shared writes, at the
      cost of replicated memory and replay cycles;
    + {e lock-based} — shared state behind the reader-writer lock;
      chosen when SCR is inadmissible or explicitly forced;
    + {e serial} — one core; chosen when multi-queue dispatch itself is
      unavailable (more cores requested than the NIC has queues, or a
      single-core request).

    Every {!Pipeline.outcome} carries the ladder walked for it: which
    rungs were rejected, why, and which was chosen — so run reports can
    show {e why} a plan is slower than hoped rather than silently
    falling back.  The walk feeds the [ladder.*] telemetry counters
    ([ladder.shared_nothing], [ladder.scr], [ladder.lock_based],
    [ladder.serial], [ladder.degradations]). *)

type rung = Shared_nothing | Scr | Lock_based | Serial

val rung_name : rung -> string

val descent : rung -> rung list
(** The given rung followed by every rung below it, fastest first — the
    order an online controller degrades (and, read bottom-up, recovers)
    through when it may not climb above the compile-time choice. *)

type step = {
  rung : rung;
  taken : bool;  (** [true] for the chosen rung, [false] for rejected ones *)
  reason : string;  (** why this rung was rejected, or why it was chosen *)
}

type t = { chosen : rung; steps : step list }

val top : string -> t
(** A ladder that kept the top rung (no degradation), with the reason it
    was available. *)

val make : step list -> t
(** Build a ladder from the walked steps (ordered top rung first); the
    chosen rung is the first [taken] step.  Feeds the [ladder.*]
    telemetry counters. *)

val degraded : t -> bool
(** [true] when anything below the top rung was chosen. *)

val pp : Format.formatter -> t -> unit
