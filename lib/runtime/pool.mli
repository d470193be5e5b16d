(** A persistent, {e supervised} pool of worker domains fed by bounded
    SPSC rings of packet batches.

    The spawn-per-run entry points in {!Domains} paid a domain-spawn per
    core per call; this pool spawns [cores] domains {e once} and feeds
    them batches (default {!default_batch_size} packets, mirroring DPDK
    burst mode) through single-producer single-consumer rings, so
    repeated runs cost only enqueue/dequeue.  Idle workers block on a
    condition variable — an idle pool burns no CPU — and the producer
    signals a worker only when it is blocked.

    {2 Streamed dispatch}

    The producer (the domain calling {!run}) hashes each packet in arrival
    order with the engine's software RSS ({!Nic.Rss.hash}) and appends the
    packet's index to its core's {e lane}.  A core's batch is handed over
    the moment it fills, so its worker runs batch k while the producer is
    still hashing the packets of batch k+1, instead of waiting for the
    whole trace to be dispatched.  Per core, the batches are those of
    cutting the core's packet sequence into [batch_size] pieces.  Ring
    entries are int tokens — a position in the lane, or an SCR log index —
    read by an executor each run installs on its workers, so handing a
    batch over allocates nothing; each worker counts the batches it
    completes, and a run is quiesced when every worker's count has caught
    up with its pushes.

    {2 Fault tolerance}

    Every worker loop runs behind an exception barrier; a crash (real or
    injected via {!Faults}) marks the worker dead instead of silently
    killing the domain.  The producer detects deaths, consults the
    {!Supervisor} and either restarts the worker with exponential
    backoff — replaying the crashed batch inline {e before} the respawn,
    which preserves per-core arrival order and therefore sequential
    equivalence — or, once the restart budget is exhausted, declares the
    core permanently failed: its ring is drained inline and subsequent
    {!run}s remap the NIC indirection table ({!Nic.Reta.remap}) so the
    dead core's RSS buckets migrate to live cores (paper §4.4).

    Full rings apply the pool's {!backpressure} policy; the old
    unbounded producer spin livelocked when a consumer died with a full
    ring.  [Block] keeps the lossless behavior but checks worker
    liveness while spinning; [Drop]/[Shed] trade packets for bounded
    producer latency and account every loss in {!stats} and telemetry.

    {2 State-compute replication}

    SCR plans ({!Maestro.Plan.strategy} [Scr]) run a fourth discipline:
    every live core keeps a {e full} state replica and consumes the
    whole global batch stream in arrival order over its own SPSC ring.
    The owning core of a batch (round-robin spray) runs the complete NF
    and produces the verdicts; every other core replays the batch's
    {e update digest} — header fields captured from the packets at
    dispatch time ({!Maestro.Scrspec}) — by executing the NF's
    write-slice against its replica ({!Scr}).  No core ever waits for
    another and nothing is shared, so write-heavy NFs scale without a
    lock at the price of replicated memory and replay cycles.  Digest
    batches are never dropped (backpressure is forced to [Block] for
    SCR runs: a lost digest would silently diverge a replica), the
    digest stream is retained while the run stays on the rung, and a
    worker that dies mid-run has its replica {e rebuilt from the digest
    stream} — reset to the state the SCR rung was entered with
    (start-up state, or an adaptive switch's seed), then replayed up to
    exactly the batches it had applied since — before the crashed batch
    is replayed inline and the core rejoins ({!stats.scr_rebuilds}).

    {!run} executes any plan strategy without respawning: shared-nothing
    and load-balance get per-core state instances (capacity-split and
    read-only replicas respectively); SCR gets per-core {e full-capacity}
    replicas; lock-based and transactional-memory
    plans share one instance guarded by the {!Rwlock} with conservative
    static write classification (OCaml has no transactional rollback, so
    the TM discipline degrades to the lock discipline on real domains —
    the speculative/transactional behavior is modeled deterministically
    in {!Parallel.run}).  Verdicts are bit-identical to the spawn-per-run
    paths and, for shared-nothing and SCR plans, to sequential
    execution.

    {2 Plan binding}

    As Maestro's generated NFs allocate their state once per core in
    [init()], a pool builds a plan's state once.  The first {!run} of a
    plan checks and stages its NF and configures its port hashes, then
    creates its instances and binds one runner per core (and, on the SCR
    rung, one replayer per replica): the pool's {e binding}.  A later run
    of the {e same} plan — the same {!Maestro.Plan.t} value, compared by
    physical equality — reuses the staged NF; when it starts at the
    capacity and on the rung the last run left the state at, it waits for
    the pool to quiesce and resets those instances in place
    ({!Dsl.Instance.reset}: a reset instance is structurally equal to a
    fresh one), and otherwise it binds fresh ones.  Either way each run
    starts from start-up state and returns what a run on a fresh pool
    returns.  Static runs, with or without [rebalance], bind at the plan's
    own capacity and rung; an [adaptive] run binds full-capacity
    instances on its ladder's first rung, and its switches convert the
    state and leave the binding on the rung the run ended on.  A pool
    holds one binding: a run of another plan replaces it, and {!shutdown}
    drops it.  Until then the binding keeps the plan's state alive between
    runs (fw: a 65,536-slot chain and a 262,144-int key vector).

    {2 Per-batch locking}

    On the lock rung (static lock/TM plans and adaptive runs' lock
    rung alike) a core takes the shared instance's lock once per batch —
    the write lock when the NF may write, the core's read lock otherwise —
    and releases it when the batch returns or raises.  Mutual exclusion
    and per-core arrival order are those of locking per packet, which is
    what the generated C and paper §3.6 do; the [pool.lock_acquisitions]
    counter counts one acquisition per executed batch, inline batches
    included.

    {2 Errors}

    A packet whose rx port has no RSS engine (a port at or above the NF's
    [devices]) raises {!Parallel.port_error}'s [Invalid_argument], naming
    the packet, the port and the device count, on every dispatch path.
    When {!run} raises — that error, an NF [Runtime_error] that its inline
    replay raises again, or any other — the batches the run left queued
    retire without running before the exception leaves {!run}, so the
    pool and its binding stay usable, and, as after a clean run, the idle
    workers hold no reference to the run's packets or verdicts. *)

val default_batch_size : int
(** 32 — the DPDK burst size. *)

(** Bounded single-producer single-consumer ring (lock-free; the
    producer's behavior on a full ring is the pool's backpressure
    policy, and {!stats} counts the stall).  Slots hold the values
    themselves, so a push allocates nothing; a popped slot keeps its value
    until a later push overwrites it. *)
module Ring : sig
  type 'a t

  val create : capacity:int -> 'a t
  (** Capacity is rounded up to a power of two; [capacity >= 1]. *)

  val capacity : 'a t -> int

  val length : 'a t -> int

  val is_empty : 'a t -> bool

  val try_push : 'a t -> 'a -> bool
  (** [false] when the ring is full.  Producer side only. *)

  val pop : 'a t -> 'a option
  (** [None] when empty.  Consumer side only. *)
end

(** What the producer does when a worker's ring is full. *)
type backpressure =
  | Block
      (** Spin until there is room, rechecking worker liveness while
          spinning (a dead consumer triggers failover, not livelock).
          Lossless; the default. *)
  | Drop of { max_spins : int }
      (** Spin at most [max_spins] times, then drop the batch.  Losses
          are counted per core in {!stats} and in the
          [pool.dropped_*] telemetry counters. *)
  | Shed  (** Drop immediately — minimum producer latency. *)

val backpressure_name : backpressure -> string

val default_drop_spins : int
(** 4096 — the bounded spin used by the CLI's [--backpressure drop]. *)

type t

type stats = {
  runs : int;  (** plans executed since the pool was created *)
  batches : int;  (** batches pushed over the pool's lifetime *)
  pkts : int;  (** packets executed over the pool's lifetime *)
  ring_full_stalls : int;  (** producer stalls on a full ring *)
  last_per_core_pkts : int array;  (** dispatch counts of the most recent run *)
  dropped_batches : int;  (** batches dropped by backpressure *)
  dropped_pkts : int;  (** packets dropped by backpressure *)
  per_core_drops : int array;  (** lifetime dropped batches per core *)
  restarts : int;  (** supervisor restarts over the pool's lifetime *)
  failed_cores : int list;  (** cores declared permanently failed *)
  inline_batches : int;
      (** batches the producer ran inline: crashed-batch replays and
          failed-core ring drains *)
  rebalances : int;
      (** online rebalances applied over the pool's lifetime (epoch
          boundaries where the shared indirection table changed) *)
  forced_rebalances : int;
      (** the subset of {!field-rebalances} triggered by a permanent core
          write-off rather than the imbalance threshold *)
  migrated_buckets : int;  (** indirection buckets moved by the balancer *)
  migrated_flows : int;
      (** flow-state entries handed between cores by quiesced migrations *)
  migration_drops : int;
      (** flow-state entries evicted during migration because the
          destination instance was full (the flow restarts, as on expiry) *)
  last_core_share : float array;
      (** measured per-core load share of the most recent run (sums to 1;
          empty before the first run) — the post-rebalance shares
          {!Sim.Throughput.shares_of_pool_stats} feeds back to the model *)
  last_assignment : int array;
      (** core each packet of the most recent run was dispatched to, in
          trace order — with {!field-last_rebalance_points} this lets a
          caller verify per-flow ordering across rebalances *)
  last_rebalance_points : int list;
      (** ascending packet offsets at which the most recent run changed
          the indirection table; between two consecutive points every
          flow's packets land on exactly one core *)
  scr_replays : int;
      (** foreign-batch digest replays scheduled by SCR dispatch (one per
          batch per non-owning live core) *)
  scr_rebuilds : int;
      (** SCR replicas rebuilt from the retained digest stream after a
          worker death, before the core rejoined *)
  scr_digest_bytes : int;
      (** update-digest bytes broadcast by SCR dispatch — what the digest
          stream would cost on a real wire *)
  switches : int;
      (** adaptive discipline switches committed over the pool's lifetime
          (the [pool.adaptive.switches] counter) *)
  flap_suppressed : int;
      (** adaptive switches suppressed by the cooldown window over the
          pool's lifetime — evidence the hysteresis is doing work *)
  switch_epochs : (int * Maestro.Ladder.rung) list;
      (** committed switches of the most recent adaptive run, in order:
          (1-based epoch index, rung adopted).  The packet offsets of the
          same switches appear in {!field-last_rebalance_points}, so the
          per-flow ordering check spans discipline switches exactly as it
          spans rebalances *)
  rung_residency : (Maestro.Ladder.rung * int) list;
      (** epochs the most recent adaptive run spent on each rung, fastest
          first *)
}

val create :
  ?batch_size:int ->
  ?ring_capacity:int ->
  ?backpressure:backpressure ->
  ?supervisor:Supervisor.config ->
  cores:int ->
  unit ->
  t
(** Spawns [cores] worker domains immediately.  [batch_size] defaults to
    {!default_batch_size}, [ring_capacity] (per worker, in batches) to
    1024, [backpressure] to [Block], [supervisor] to
    {!Supervisor.default_config}.  Raises [Invalid_argument] on
    non-positive sizes. *)

val cores : t -> int

val batch_size : t -> int

val backpressure : t -> backpressure

val supervisor : t -> Supervisor.t
(** The pool's supervisor — its {!Supervisor.events} record every
    restart, permanent failure and stuck detection. *)

val live_cores : t -> int list

val failed_cores : t -> int list

val run :
  ?rebalance:Balancer.mode ->
  ?adaptive:Adaptive.mode ->
  t ->
  Maestro.Plan.t ->
  Packet.Pkt.t array ->
  Dsl.Interp.action array
(** Execute a plan over a trace on the pool's persistent workers, over
    the pool's binding of the plan (built by the plan's first run, reset
    in place by a later one at the same capacity and rung; see {e Plan
    binding} above).  A run is a loop of epochs: each epoch dispatches
    its packets, quiesces and joins dead workers, then the run's barrier
    policy acts.  A static run is one epoch over the whole trace;
    [rebalance] and [adaptive] are the two barrier policies.
    Verdicts are returned in the original packet order; batches dropped
    by backpressure leave their packets' verdicts as [Dropped].  When
    cores have failed permanently, the RSS indirection table is
    remapped so every packet lands on a live core.  Raises
    [Invalid_argument] when the plan wants more cores than the pool has
    (plans with fewer cores use a prefix of the workers), when every
    plan core has failed, or when a packet to be RSS-dispatched arrived
    on a port the NF does not have ({!Parallel.port_error}).

    [rebalance] (default [Off], the single-epoch path) turns on online
    RSS++ rebalancing: the trace is processed in epochs
    of {!Balancer.config.epoch_pkts} packets with per-bucket load counted
    at dispatch; at each epoch boundary the pool quiesces (every
    submitted batch has retired) and, when max/mean core imbalance
    exceeds the threshold — or a core was written off during the epoch,
    which counts as a {e forced} rebalance — hot buckets move to
    underloaded queues on the single table shared by all ports.  For
    exactly-migratable shared-nothing plans the moved buckets' flow state
    is handed to the destination cores ({!Balancer.migrate}) so verdicts
    stay equal to sequential execution; lock/TM/load-balance plans only
    retarget the table, and SCR plans, whose dispatch sprays batches
    round-robin, run as static runs.  A rebalance never races a restart:
    dead domains are joined at the boundary before any state moves.

    [adaptive] (default [Off]; mutually exclusive with [rebalance]) turns
    on online discipline switching: the trace is processed in epochs of
    {!Adaptive.config.epoch_pkts} packets, and at each epoch barrier the
    {!Adaptive} hysteresis controller may switch the pool to an adjacent
    admissible ladder rung — shared-nothing ↔ SCR ↔ lock ↔ serial.  All
    rungs run over full-capacity instances so the quiesced state
    conversions are lossless: shard merges/splits reuse
    {!Balancer.migrate}, SCR replicas are seeded with exact structural
    copies ({!Dsl.Instance.copy}) so they evolve in lockstep, and an
    SCR collapse first asserts {!Scr.replica_equal} agreement across the
    live replicas.  Crash safety: dead domains are joined at the barrier
    {e before} the switch decision, so a worker crash in a switch epoch
    is recovered by the {e old} rung's replay/rebuild path and the switch
    is deferred to the next barrier ({!Adaptive.defer}); SCR replica
    rebuilds restore from the seeded snapshot plus the digest log since
    rung entry, not from initial state. *)

val stats : t -> stats

val shutdown : t -> unit
(** Stop and join every worker and drop the pool's plan binding.
    Idempotent; the pool must not be used afterwards. *)

val with_global : ?batch_size:int -> ?backpressure:backpressure -> cores:int -> (t -> 'a) -> 'a
(** Run [f] against the shared process-wide pool, growing it (respawn
    happens only when the requested core count exceeds the current pool,
    a different [batch_size] or [backpressure] is requested, or a
    previous run left permanently failed cores) and creating it on first
    use.  The global pool is shut down automatically [at_exit]. *)

val shutdown_global : unit -> unit
(** Tear down the process-wide pool now (it is recreated on the next
    {!with_global}). *)

val nf_statically_writes : Dsl.Ast.t -> bool
(** Conservative static classification used by the lock/TM disciplines:
    [true] when any path of the NF's packet handler writes state. *)
