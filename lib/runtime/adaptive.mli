(** Online discipline switching: pick the cheapest parallelization rung
    the *current* traffic admits, live.

    The compile-time ladder ({!Maestro.Ladder}) chooses one rung for the
    whole run; NFork (arXiv 2309.01494) observes that the right rung is a
    property of the workload, not just the NF — a shared-nothing plan is
    fastest under balanced traffic but bottlenecks on one core under
    skew, while SCR spreads any skew across cores at a fixed digest
    cost.  This module is the controller half of that argument: it
    watches per-epoch pool statistics and asks {!Runtime.Pool} to switch
    the live pool between admissible rungs at the epoch quiesce barrier,
    where the state conversions (shard merge/split via
    {!Balancer.migrate}, replica seeding via {!Dsl.Instance.copy}) are
    safe.

    Hysteresis, not reaction: a switch needs the imbalance to leave the
    [down]..[up] dead band, an upward switch additionally needs
    [cooldown + 1] consecutive calm epochs, and every committed switch
    opens a [cooldown]-epoch window in which further switches are
    suppressed (and counted as {!flap_suppressed}) — an oscillating
    trace settles on one rung instead of flapping.  Dispatch imbalance
    pressures only the shared-nothing rung (the other rungs are
    skew-immune by construction), but sustained skew still blocks the
    climb back up: calm requires the imbalance below [down].

    Admissibility is pinned to compile time: the controller never climbs
    above the plan's rung, SCR participates only when
    {!Maestro.Scrspec.admissible} derived a digest, and shared-nothing
    participates only when the {!Balancer} migration plan is exact (a
    lossy shard split would fork verdicts from sequential semantics). *)

(** {1 Policy} *)

type config = {
  epoch_pkts : int;  (** packets between controller decisions *)
  up : float;  (** step down a rung when imbalance exceeds this *)
  down : float;  (** step up only while imbalance is below this *)
  cooldown : int;  (** epochs after a switch during which further switches are suppressed *)
}

val default_config : config
(** [epoch_pkts = 4096], [up = 1.5], [down = 1.15], [cooldown = 2]. *)

val parse : string -> (config option, string) result
(** Parse an [--adaptive] specification: ["off"] ([None]), ["on"], or a
    comma-separated list of [epochs=N], [up=F], [down=F], [cooldown=N]
    (each implies "on"; missing fields take {!default_config} values).
    Built on {!Balancer.Kv} — the same parser shape, the same typed
    errors.  Rejects [up <= down] (no hysteresis band). *)

val to_string : config option -> string

(** {1 Admissibility} *)

val ladder :
  strategy:Maestro.Plan.strategy ->
  scr_ok:bool ->
  exact_migration:bool ->
  (Maestro.Ladder.rung list, string) result
(** The admissible rungs for a plan, fastest first: the plan's own rung
    and everything below it ({!Maestro.Ladder.descent}), minus SCR when
    [scr_ok] is false and minus shared-nothing when [exact_migration] is
    false.  [Error] for load-balance plans (no state-owning rung to
    switch).  An inadmissible rung is simply absent, so a step-down
    request from the rung above it lands on the next admissible rung. *)

(** {1 Controller} *)

type obs = {
  imbalance : float;
      (** max/mean of the would-be RSS dispatch counts this epoch —
          computed from packet hashes in {e every} rung, because SCR's
          round-robin spray hides skew from actual dispatch counts *)
  drops : int;  (** batches dropped by backpressure this epoch *)
  restarts : int;  (** worker restarts recovered this epoch *)
  digest_bytes : int;  (** SCR digest bytes broadcast this epoch *)
}

type decision =
  | Stay
  | Switch of Maestro.Ladder.rung  (** perform the conversion, then {!commit} *)
  | Suppressed of Maestro.Ladder.rung
      (** the cooldown window blocked a switch that would have fired *)

type t

val create : config -> ladder:Maestro.Ladder.rung list -> t
(** A controller starting on the first (fastest admissible) rung.
    Raises [Invalid_argument] on an empty ladder. *)

val rung : t -> Maestro.Ladder.rung
val admissible : t -> Maestro.Ladder.rung list

val observe : t -> obs -> decision
(** Feed one epoch's statistics; must be called exactly once per epoch,
    at the quiesce barrier.  A pending deferred switch ({!defer}) is
    re-issued before any fresh analysis. *)

val commit : t -> Maestro.Ladder.rung -> unit
(** The pool completed the conversion: adopt the rung, open the cooldown
    window.  Raises [Invalid_argument] for a rung outside the ladder. *)

val defer : t -> Maestro.Ladder.rung -> unit
(** The pool declined to switch this barrier (a worker crash in the same
    epoch was recovered by the old rung's replay/rebuild path); the
    switch is retried at the next barrier. *)

(** {1 Accounting} *)

val switches : t -> int
val flap_suppressed : t -> int

val switch_epochs : t -> (int * Maestro.Ladder.rung) list
(** Committed switches in order: (1-based epoch index, rung adopted). *)

val rung_of_epoch :
  initial:Maestro.Ladder.rung -> (int * Maestro.Ladder.rung) list -> int -> Maestro.Ladder.rung
(** [rung_of_epoch ~initial switches e]: the rung 1-based epoch [e] of a
    run ran on, given the rung the run started on and its {!switch_epochs}
    — a switch committed at epoch [s] takes effect from epoch [s + 1]. *)

val residency : t -> (Maestro.Ladder.rung * int) list
(** Epochs spent on each rung, fastest first (admissible rungs always
    listed, others only when visited). *)
