(** System throughput under a parallelization plan — the quantity every
    evaluation figure plots (maximum rate with negligible loss, §6.2).

    The evaluation is trace-driven: per-core load shares come from pushing
    the actual workload through the plan's real RSS configuration (Toeplitz
    keys + indirection table), and the operation mix comes from a profiled
    run of the NF itself.  On top of that, closed-form contention laws turn
    per-core costs into system throughput:

    - {e shared-nothing / load-balance}: cores are independent; the
      slowest-loaded core saturates first, so
      [X = min_i (core_pps_i / share_i)], then the NIC-side PCIe/line-rate
      ceilings apply.
    - {e read/write locks}: a write packet restarts, takes every per-core
      flag and serializes the system for its write section; read packets
      only pay a local atomic.  With write fraction [fw]:
      [X = n·F / (fw·n·(hold + n·lk) + (1-fw)·(c + rd))].
    - {e state-compute replication}: round-robin spray keeps shares
      balanced by construction; each core pays the full NF plus digest
      encode/decode for its [1/n] of the traffic and a cheaper
      write-slice replay ([scr_replay_factor] of the non-base packet
      cost, plus digest decode) for the other [n-1] shares:
      [X = n·F / (c_own + (n-1)·c_replay)].  The working set is the
      {e full} state (replicas are not shards), so SCR also pays in
      cache locality.
    - {e transactional memory}: abort probability grows with concurrent
      writers, [p = 1-(1-κ)^(n-1)] with [κ] proportional to the
      transactional write rate; retries inflate cost and exhausted retries
      fall back to a global lock that serializes like a write packet. *)

type bottleneck = Cpu | Pcie | Line_rate

type eval = {
  mpps : float;
  gbps : float;
  bottleneck : bottleneck;
  cycles_per_pkt : float;  (** core-local cost, coordination excluded *)
  shares : float array;  (** per-core fraction of the traffic *)
  imbalance : float;  (** max/mean of shares *)
}

val evaluate :
  ?machine:Machine.t ->
  ?params:Cost.params ->
  ?balanced_reta:bool ->
  ?measured_shares:float array ->
  Maestro.Plan.t ->
  Profile.t ->
  Packet.Pkt.t array ->
  eval
(** [balanced_reta] applies RSS++-style static table rebalancing using the
    trace's observed bucket loads (Fig. 5's "balanced" series).
    [measured_shares] bypasses the model's own RSS dispatch and feeds the
    contention laws per-core load shares observed elsewhere — e.g.
    {!shares_of_pool_stats} from a real {!Runtime.Pool} run — so model
    throughput and real-domain execution agree on the load they describe.
    Its length must equal the plan's core count. *)

(** Cluster-level pricing: one machine's {!eval} scaled across a fleet
    behind the maglev front tier.  Machines are independent (the whole
    point of the second sharding level), so the same law as
    shared-nothing cores applies one level up: the hottest machine
    saturates first, [X_cluster = X_machine / max_machine_share], and
    cross-machine imbalance is pure lost capacity. *)
type cluster_eval = {
  machines : int;
  per_machine : eval;  (** one machine under its own per-core shares *)
  machine_shares : float array;  (** per-machine fraction of the traffic *)
  machine_imbalance : float;  (** max/mean of machine shares *)
  cluster_mpps : float;
  cluster_gbps : float;
  scaleout : float;
      (** [cluster_mpps / per_machine.mpps] — machines of capacity
          actually realized; [machines / machine_imbalance] in the limit *)
}

val evaluate_cluster :
  ?machine:Machine.t ->
  ?params:Cost.params ->
  ?balanced_reta:bool ->
  ?measured_shares:float array ->
  machine_shares:float array ->
  Maestro.Plan.t ->
  Profile.t ->
  Packet.Pkt.t array ->
  cluster_eval
(** [machine_shares] is each machine's observed fraction of the traffic —
    e.g. {!shares_of_counts} over a {!Cluster.Tier} run's per-machine
    packet counts (raw counts are normalized).  The per-machine leg
    forwards [measured_shares] etc. to {!evaluate}.  Raises
    [Invalid_argument] when [machine_shares] is empty or sums to zero. *)

val shares_of_counts : int array -> float array
(** Normalize per-core packet counts into traffic shares. *)

val shares_of_pool_stats : Runtime.Pool.stats -> float array
(** The most recent run's per-core shares from a persistent domain pool.
    When the run used online rebalancing ({!Runtime.Pool.run} with
    [~policy:(Rebalance _)]), these are the measured {e post-rebalance} shares
    ([stats.last_core_share]), so the model sees the load the balancer
    actually produced. *)

val bottleneck_name : bottleneck -> string
