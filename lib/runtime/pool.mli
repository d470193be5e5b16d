(** A persistent, {e supervised} pool of worker domains fed by bounded
    SPSC rings of packet batches.

    Spawning a domain costs tens of microseconds, so the pool spawns
    [cores] domains {e once} and feeds them batches (default
    {!default_batch_size} packets, mirroring DPDK burst mode) through
    single-producer single-consumer rings, so repeated runs cost only
    enqueue/dequeue.  Idle workers block on a condition variable — an
    idle pool burns no CPU — and the producer signals a worker only when
    it is blocked.

    The producer waits in one place: for a run's batches to retire (at
    every epoch barrier and at the end of a run), and for room in a full
    ring under [Block].  It spins, and every 256 spins it {e looks}: it
    plays supervisor over the workers it waits on and, when each of them
    has retired a batch since the last look, naps for 20 µs
    ([Unix.sleepf]; longer in practice, ~80 µs on an idle Linux host by
    the timer's slack) instead of burning a core while they drain.  A worker that retires nothing
    between two looks keeps the producer spinning, so supervision keeps
    its spin cadence: liveness, {!Supervisor.tick} and heartbeats, stuck
    detection, crash replay and restart backoff.  {!stats} counts the
    naps and how long they lasted.

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
    ring.  [Block] keeps the lossless behavior but supervises the worker
    while it waits; [Drop] trades packets for bounded producer latency
    and accounts every loss in {!stats} and telemetry.

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
    in {!Parallel.run}).  Verdicts equal sequential execution
    ({!Parallel.run_sequential}) except in three cases: sharded NAT,
    whose cores allocate their own ports; cores that write under one
    lock, in the order they win it; and full shards.  A shared-nothing
    shard holds 1/[cores] of each table, so once a shard fills, its
    allocations fail where the sequential NF's would not, and its
    verdicts leave {!Parallel.run_sequential} while still equalling
    {!Parallel.run}, which splits capacity the same way (fw built with
    capacity 64, on 4 cores over 60 flows and 4,000 uniform packets:
    30 verdicts differ from the sequential NF's, none from
    {!Parallel.run}'s).

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
    workers hold no reference to the run's packets or verdicts.

    A run that writes off the last live plan core finishes inline on the
    producer, static, rebalancing and adaptive alike: its later barriers
    do nothing.  The next run raises [Invalid_argument] ("every core of
    the plan has failed permanently").

    [Invalid_argument] is for the caller's mistakes.  A broken internal
    invariant raises {!Run_error} instead, naming the invariant and,
    where the pool knows them, the run's epoch and the core; the pool
    stays usable, as after any raising run. *)

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
      (** Wait until there is room, in the producer's one wait (see the
          top of this page): spinning, and napping while the worker
          drains.  The worker is supervised at spin cadence while it
          makes no progress (a dead consumer triggers failover, not
          livelock).  Lossless; the default. *)
  | Drop of { max_spins : int }
      (** Spin at most [max_spins] times, then drop the batch; with
          [max_spins = 0] the batch is shed at once, for minimum producer
          latency.  Losses are counted per core in {!stats} and in the
          [pool.dropped_*] telemetry counters. *)

val backpressure_name : backpressure -> string

val default_drop_spins : int
(** 4096 — the bounded spin used by the CLI's [--backpressure drop]. *)

type t

(** The pool's internal invariants a {!Run_error} names. *)
type invariant =
  | Scr_admissible of { nf : string; reason : string }
      (** a plan on the SCR rung has an NF whose update digest
          {!Maestro.Scrspec.admissible} accepts; [reason] is why it
          rejected [nf] *)
  | Scr_replicas_agree
      (** the live SCR replicas agree ({!Scr.replica_equal}) when an
          adaptive switch collapses them *)

exception Run_error of { invariant : invariant; epoch : int option; core : int option }
(** A run broke an internal invariant.  [epoch] is the run's 1-based
    epoch, [core] the core that broke it, each [None] where the pool
    does not know it: an SCR plan with an inadmissible NF fails as the
    run binds it, before any epoch; diverged replicas name the switch's
    epoch and the first core that disagrees with the lowest live one. *)

type stats = {
  runs : int;  (** plans executed since the pool was created *)
  batches : int;  (** batches pushed over the pool's lifetime *)
  pkts : int;  (** packets executed over the pool's lifetime *)
  ring_full_stalls : int;  (** producer stalls on a full ring *)
  last_per_core_pkts : int array;
      (** dispatch counts of the most recent run; read-only, like
          {!field-last_assignment} *)
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
          caller verify per-flow ordering across rebalances.  Read-only:
          {!stats} returns the run's own array, uncopied, and the pool
          never writes it again *)
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
  producer_naps : int;
      (** naps the producer took while the workers it waited on drained
          (the [pool.producer_naps] counter) *)
  producer_nap_us : int;
      (** microseconds those naps lasted, measured around each sleep (the
          [pool.producer_nap_us] counter) *)
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

(** What a run does at its epoch barriers. *)
type policy =
  | Static  (** nothing: the whole trace is one epoch *)
  | Rebalance of Balancer.config
      (** online RSS++ rebalancing: the trace is processed in epochs of
          {!Balancer.config.epoch_pkts} packets with per-bucket load
          counted at dispatch; at each epoch boundary the pool quiesces
          (every submitted batch has retired) and, when max/mean core
          imbalance exceeds the threshold — or a core was written off
          during the epoch, which counts as a {e forced} rebalance — hot
          buckets move to underloaded queues on the single table shared
          by all ports.  For exactly-migratable shared-nothing plans the
          moved buckets' flow state is handed to the destination cores
          ({!Balancer.migrate}) so verdicts stay equal to sequential
          execution; lock/TM/load-balance plans only retarget the table,
          and SCR plans, whose dispatch sprays batches round-robin, run as
          static runs.  A rebalance never races a restart: dead domains
          are joined at the boundary before any state moves. *)
  | Adaptive of Adaptive.config
      (** online discipline switching: the trace is processed in epochs of
          {!Adaptive.config.epoch_pkts} packets, and at each epoch barrier
          the {!Adaptive} hysteresis controller may switch the pool to an
          adjacent admissible ladder rung — shared-nothing ↔ SCR ↔ lock ↔
          serial.  All rungs run over full-capacity instances so the
          quiesced state conversions are lossless: shard merges/splits
          reuse {!Balancer.migrate}, SCR replicas are seeded with exact
          structural copies ({!Dsl.Instance.copy}) so they evolve in
          lockstep, and an SCR collapse first asserts
          {!Scr.replica_equal} agreement across the live replicas.  Crash
          safety: dead domains are joined at the barrier {e before} the
          switch decision, so a worker crash in a switch epoch is
          recovered by the {e old} rung's replay/rebuild path and the
          switch is deferred to the next barrier ({!Adaptive.defer}); SCR
          replica rebuilds restore from the seeded snapshot plus the
          digest log since rung entry, not from initial state.  Raises
          [Invalid_argument] for a load-balance plan, which has no rung
          to switch to. *)

val run :
  ?policy:policy -> t -> Maestro.Plan.t -> Packet.Pkt.t array -> Dsl.Interp.action array
(** Execute a plan over a trace on the pool's persistent workers, over
    the pool's binding of the plan (built by the plan's first run, reset
    in place by a later one at the same capacity and rung; see {e Plan
    binding} above).  A run is a loop of epochs: each epoch dispatches
    its packets, quiesces and joins dead workers, then the run's barrier
    [policy] (default [Static]) acts.
    Verdicts are returned in the original packet order; batches dropped
    by backpressure leave their packets' verdicts as [Dropped].  When
    cores have failed permanently, the RSS indirection table is
    remapped so every packet lands on a live core; packets that no field
    set matches go to the first live plan core.  Raises
    [Invalid_argument] when the plan wants more cores than the pool has
    (plans with fewer cores use a prefix of the workers), when every
    plan core failed before the run, or when a packet to be
    RSS-dispatched arrived on a port the NF does not have
    ({!Parallel.port_error}).  Raises {!Run_error} when an internal
    invariant breaks.  Cores that fail during the run do not make it
    raise: once none is left, the rest of the run executes inline. *)

val stats : t -> stats
(** The pool's ledger: every count since the pool was created and the
    most recent run's dispatch record.  A count and the [pool.*]
    telemetry counter of the same name (the adaptive ones under
    [pool.adaptive.*]) are bumped by one call at each event, so they
    agree whenever telemetry was reset and on since the pool was
    created. *)

val shutdown : t -> unit
(** Stop and join every worker and drop the pool's plan binding.
    Idempotent; the pool must not be used afterwards. *)
