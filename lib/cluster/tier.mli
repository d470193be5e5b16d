(** The cluster front tier: one NF plan scaled out over N machines.

    The paper parallelizes one NF across the cores of one machine; the
    front tier adds the second sharding level the ROADMAP's
    millions-of-users target needs.  The same invariant recurs one layer
    up: {e flows that share state must land on the same machine}.  So the
    tier solves a {e second} RS3 instance over the very same sharding
    constraints the per-machine plan was derived from
    ({!Maestro.Plan.t.constraints}) — a fresh Toeplitz key, one per port,
    under which every state-sharing flow group collides into one 32-bit
    hash — and spreads those hashes over machines with a maglev table
    ({!Maglev}), whose minimal-disruption property bounds flow
    reassignment under machine churn.

    Machine churn is driven by the {!Faults} plan language
    ([join@E:M;leave@E:M;fail@E:M]), applied at epoch boundaries:

    - {e join}/{e leave} migrate affected flow state between machines
      with {!Runtime.Balancer.migrate_by} — the same plan classification
      (purge-pair groups, lone maps, decodable key specs) the in-pool
      rebalancer uses, with the maglev lookup as the owner function;
    - {e fail} loses the machine's state: when the NF admits an SCR
      digest program ({!Maestro.Scrspec}), the tier replays its retained
      digest log ({!Runtime.Scr}) filtered to the dead machine's flows
      (each logged pseudo-packet is re-hashed with the front-tier key and
      ownership-tested under the pre-failure table) into a scratch
      replica, then migrates the rebuilt entries to the surviving owners
      — recency order preserved, so expiry semantics survive the crash.

    Only plans whose rung keeps no cross-core shared state scale out
    exactly ([Shared_nothing], [Load_balance]); {!build} refuses the
    lock/TM/SCR rungs. *)

type config = {
  machines : int;  (** initial machine count, ids [0 .. machines-1] *)
  table_size : int;  (** maglev slot floor; rounded up to a prime *)
  epoch_pkts : int;  (** packets per epoch — the churn-event granularity *)
  seed : int;  (** front-tier key solve seed *)
  request : Maestro.Pipeline.request;  (** per-machine plan request *)
}

val default_config : config
(** 4 machines, 251 slots, 4096-packet epochs, seed 7,
    {!Maestro.Pipeline.default_request}. *)

type t

val build : ?config:config -> Dsl.Ast.t -> (t, string) result
(** Derive the per-machine plan, solve the second-level key over its
    sharding constraints, and stand up the initial machines.  [Error]
    when the per-machine plan fails validation, lands on a rung that
    shares state across cores (it cannot scale past one machine), or the
    front-tier key solve fails. *)

val plan : t -> Maestro.Plan.t
val outcome : t -> Maestro.Pipeline.outcome
val table : t -> Maglev.t
val live_machines : t -> int list

val key_attempts : t -> int
(** Sampling rounds the front-tier key solve took (0 when the NF has no
    sharding constraints and a random key suffices). *)

val key_free_bits : t -> int

val scr_admissible : t -> bool
(** Whether machine failure can be survived by digest-log replay. *)

(** What one churn event did, for the gate and the CLI. *)
type event_log = {
  at_epoch : int;
  action : Faults.machine_action;
  machine : int;
  disruption : float;  (** maglev slot-reassignment fraction, [0..1] *)
  moved : int;  (** flows migrated between machines *)
  dropped : int;  (** flows evicted because a destination was full *)
  rebuilt : int;  (** flows reconstructed from the SCR digest log *)
  lost : int;  (** flows lost with the machine (no digest program) *)
}

type stats = {
  pkts : int;
  unmatched : int;  (** packets the front-tier field sets did not match *)
  machine_pkts : (int * int) list;  (** packets processed, by machine id *)
  events : event_log list;  (** ascending by epoch *)
  moved_flows : int;
  dropped_flows : int;
  rebuilt_flows : int;
  lost_flows : int;
  dead_hits : int;  (** packets steered to a down machine — must be 0 *)
  affinity_violations : int;
      (** packets of a flow processed by a different machine than the
          flow's previous packet with no churn event in between — must
          be 0: this is the cluster-level statement of the paper's
          "flows sharing state are never split" invariant *)
  imbalance_x100 : int;
      (** max/mean of per-machine packet counts over machines that were
          up for the whole run, x100; meaningful for churn-free runs *)
}

val run : t -> Packet.Pkt.t array -> Dsl.Interp.action array * stats
(** Process a trace through the tier, consuming the installed
    {!Faults.machine_events} schedule at epoch boundaries.  Verdicts are
    positionally comparable with a sequential single-machine run of the
    same trace — the oracle the differential harness's tier cells check
    against.  A tier is single-shot:
    build a fresh one per run. *)
