(** Restart policy for the {!Pool}'s worker domains.

    OCaml domains cannot be preempted or killed from outside, so the
    supervisor is pure policy: the pool's producer — the only thread
    that can safely [Domain.join] a dead worker and respawn it — reports
    deaths and heartbeat observations, and acts on the decision returned
    here.  Restarts are granted with exponential backoff and bounded per
    sliding window; a worker that exhausts the budget is declared
    permanently failed, after which the pool drains its ring inline and
    remaps the NIC indirection table so its RSS buckets migrate to live
    cores ({!Nic.Reta.remap}, paper §4.4).

    Restart time is logical ([tick]): restart decisions are
    deterministic functions of the observed event sequence, so seeded
    fault-injection runs replay identically.  Stalls are timed on the
    clock readings the producer passes to {!note_heartbeat}; the
    supervisor reads no clock itself. *)

type config = {
  max_restarts : int;  (** restarts granted per core per sliding window *)
  window : int;  (** window length in {!tick}s *)
  backoff_base : int;  (** producer spins before the first respawn *)
  backoff_factor : int;  (** backoff multiplier per consecutive restart *)
  stall_ns : int;
      (** nanoseconds a live worker may go without heartbeat progress,
          with work queued, before it is flagged stuck *)
}

val default_config : config
(** 4 restarts per 4096-tick window, backoff 64 spins ×4 per attempt,
    stuck after 10 ms without progress (a slow but healthy batch of
    ~0.7 ms is never flagged). *)

type event =
  | Restarted of { core : int; attempt : int; backoff_spins : int }
  | Gave_up of { core : int; restarts : int }
  | Stuck of { core : int; stalled_ns : int }

type decision = [ `Restart of int  (** backoff, in producer spins *) | `Give_up ]

type t

val create : ?config:config -> cores:int -> unit -> t

val tick : t -> unit
(** Advance logical time; the pool calls this on each wait-loop check. *)

val on_death : t -> core:int -> decision
(** Report a dead worker; grants a restart (with backoff) while the
    window budget lasts, [`Give_up] once it is exhausted. *)

val note_heartbeat :
  t -> core:int -> heartbeat:int -> ring_len:int -> now_ns:int -> [ `Ok | `Stuck ]
(** Report a liveness observation for a {e live} worker, made when a
    non-negative clock read [now_ns].  [`Stuck] fires once per stall,
    [stall_ns] after the first observation that found work queued and no
    heartbeat progress (reset by the next progress): the worker still
    holds its domain — it cannot be killed — but the event lets
    backpressure and operators react. *)

val events : t -> event list
(** Chronological. *)

val restarts : t -> int
(** Total restarts granted over the supervisor's lifetime. *)

val pp_event : Format.formatter -> event -> unit
