(* Persistent worker-domain pool fed by bounded SPSC rings of packet
   batches.  Spawning an OCaml domain costs tens of microseconds — paid on
   every call by the old spawn-per-run [Domains] entry points, which
   dominated short runs the way per-packet dispatch cost dominates the
   stateful-NF studies this repo models.  The pool spawns [cores] domains
   once and feeds them DPDK-burst-style batches (default 32 packets)
   through single-producer single-consumer rings, so repeated runs pay
   only the enqueue/dequeue cost.

   The pool is supervised (paper §4.4's failure story made executable):
   every worker loop runs behind an exception barrier; the producer — the
   only thread that can safely join and respawn a domain — detects deaths,
   consults {!Supervisor} for a restart-with-backoff or give-up decision,
   replays the crashed batch inline (BEFORE respawning: re-queueing it
   would run it after later batches of the same core and break per-core
   arrival order, i.e. sequential equivalence), and on permanent failure
   drains the dead core's ring inline and remaps the NIC indirection
   table so its RSS buckets migrate to live cores ({!Nic.Reta.remap}).
   Full rings apply a configurable backpressure policy instead of the
   unbounded producer spin that livelocked on a dead consumer. *)

let default_batch_size = 32
let default_ring_capacity = 1024

let c_batches = Telemetry.Counter.make "pool.batches" ~doc:"packet batches pushed to pool rings"
let c_pkts = Telemetry.Counter.make "pool.pkts" ~doc:"packets executed on the domain pool"
let c_stalls =
  Telemetry.Counter.make "pool.ring_full_stalls" ~doc:"producer stalls on a full pool ring"
let c_spawns = Telemetry.Counter.make "pool.domain_spawns" ~doc:"worker domains spawned by pools"

let c_crashes =
  Telemetry.Counter.make "pool.worker_crashes" ~doc:"worker domains killed by an exception"

let c_dropped_batches =
  Telemetry.Counter.make "pool.dropped_batches" ~doc:"batches dropped by backpressure"

let c_dropped_pkts =
  Telemetry.Counter.make "pool.dropped_pkts" ~doc:"packets dropped by backpressure"

let c_inline =
  Telemetry.Counter.make "pool.inline_batches"
    ~doc:"batches the producer ran inline (crash replay and failed-core drains)"

let c_remaps =
  Telemetry.Counter.make "pool.reta_remaps"
    ~doc:"indirection-table remaps after permanent core failures"

let c_rebalances =
  Telemetry.Counter.make "pool.rebalances"
    ~doc:"online RSS++ rebalances applied at epoch boundaries"

let c_rebalances_forced =
  Telemetry.Counter.make "pool.rebalances_forced"
    ~doc:"rebalances forced by a permanent core failure"

let c_moved_buckets =
  Telemetry.Counter.make "pool.migrated_buckets"
    ~doc:"indirection buckets moved by the online balancer"

let c_moved_flows =
  Telemetry.Counter.make "pool.migrated_flows"
    ~doc:"flow states handed between cores by the online balancer"

let c_migration_drops =
  Telemetry.Counter.make "pool.migration_drops"
    ~doc:"flow states evicted during migration because the destination was full"

let c_scr_replays =
  Telemetry.Counter.make "pool.scr_replays"
    ~doc:"foreign-batch digest replays scheduled by the SCR dispatcher"

let c_scr_rebuilds =
  Telemetry.Counter.make "pool.scr_rebuilds"
    ~doc:"SCR replicas rebuilt from the digest stream after a worker death"

let c_scr_digest_bytes =
  Telemetry.Counter.make "pool.scr_digest_bytes"
    ~doc:"update-digest bytes broadcast by the SCR dispatcher"

let c_lock_acquisitions =
  Telemetry.Counter.make "pool.lock_acquisitions"
    ~doc:"reader-writer lock acquisitions on the lock rung, one per batch executed"

(* --- bounded SPSC ring ----------------------------------------------------- *)

module Ring = struct
  (* One producer (the dispatching domain), one consumer (the worker).
     [head] and [tail] are monotonically increasing; publication of the
     slot write is ordered by the subsequent [Atomic.set] of [tail]
     (OCaml's memory model makes atomic writes release points).  Slots
     hold the values themselves, so a push allocates nothing: the slot
     array is made on the first push, filled with the value pushed, and a
     popped slot keeps its value until it is overwritten. *)
  type 'a t = {
    mutable slots : 'a array;
    mask : int;
    head : int Atomic.t; (* consumer position *)
    tail : int Atomic.t; (* producer position *)
  }

  let create ~capacity =
    if capacity < 1 then invalid_arg "Pool.Ring.create: capacity";
    let cap = ref 1 in
    while !cap < capacity do
      cap := !cap * 2
    done;
    { slots = [||]; mask = !cap - 1; head = Atomic.make 0; tail = Atomic.make 0 }

  let capacity t = t.mask + 1
  let length t = Atomic.get t.tail - Atomic.get t.head
  let is_empty t = length t = 0

  let try_push t x =
    let tail = Atomic.get t.tail in
    if tail - Atomic.get t.head > t.mask then false
    else begin
      if Array.length t.slots = 0 then t.slots <- Array.make (t.mask + 1) x;
      t.slots.(tail land t.mask) <- x;
      Atomic.set t.tail (tail + 1);
      true
    end

  (* Consumer side, on a ring known to be non-empty. *)
  let take t =
    let head = Atomic.get t.head in
    let x = t.slots.(head land t.mask) in
    Atomic.set t.head (head + 1);
    x

  let pop t = if is_empty t then None else Some (take t)
end

(* --- backpressure ----------------------------------------------------------- *)

type backpressure =
  | Block  (** spin until there is room (checking worker liveness while spinning) *)
  | Drop of { max_spins : int }  (** bounded spin, then drop the batch *)
  | Shed  (** drop immediately when the ring is full *)

let backpressure_name = function
  | Block -> "block"
  | Drop { max_spins } -> Printf.sprintf "drop(%d)" max_spins
  | Shed -> "shed"

let default_drop_spins = 4096

(* --- workers ---------------------------------------------------------------- *)

(* A ring entry is an int token, not a closure: each run installs on every
   worker an executor that reads its tokens — the end of a batch in the
   worker's index lane, or an SCR log index — so a batch handoff allocates
   nothing. *)
type worker = {
  core : int;
  ring : int Ring.t;
  mutex : Mutex.t;
  cond : Condition.t;
  stop : bool Atomic.t;
  parked : bool Atomic.t;  (* blocked on [cond]: the only time a push signals *)
  alive : bool Atomic.t;  (* cleared by the exception barrier on crash *)
  failed : bool Atomic.t;  (* permanent: restart budget exhausted *)
  retired : int Atomic.t;
      (* batches completed: the heartbeat the producer reads, and this
         worker's own completion counter — no counter is shared between
         workers *)
  mutable pushed : int;  (* batches handed to [ring]; producer only *)
  batches_started : int Atomic.t;  (* monotonic attempt index for fault hooks *)
  mutable exec : int -> unit;
      (* runs one token of the current run.  Installed by the producer
         only when nothing is in flight; the [tail] store of the next push
         publishes it. *)
  mutable in_flight : int;
      (* the token being executed, or -1; left set on crash and replayed
         inline by the producer.  Published by the release store to
         [alive]. *)
  mutable lane : int array;
      (* indices of the packets dispatched to this core, position [k] at
         [k land (length - 1)] *)
  mutable lane_fill : int;  (* producer: positions filled *)
  mutable lane_sent : int;  (* producer: positions handed over *)
  mutable lane_done : int;  (* executor: positions executed *)
  mutable last_exn : string;
  mutable domain : unit Domain.t option;
}

let no_exec (_ : int) = ()

(* The token {!ensure_live} hands a dead worker's executor after joining
   its domain (the join is the happens-before edge that publishes the
   worker's progress) and before the crashed batch is replayed inline:
   the run makes the core's state whole again.  Only an SCR core acts on
   it, rebuilding its replica from the retained digest stream. *)
let rejoin = -1

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
  inline_batches : int;  (** batches the producer ran inline *)
  rebalances : int;  (** online rebalances applied over the pool's lifetime *)
  forced_rebalances : int;  (** rebalances forced by a core write-off *)
  migrated_buckets : int;  (** indirection buckets moved by the balancer *)
  migrated_flows : int;  (** flow states handed between cores *)
  migration_drops : int;  (** flow states evicted (destination full) *)
  last_core_share : float array;  (** per-core load share of the last run *)
  last_assignment : int array;  (** per-packet core of the last run *)
  last_rebalance_points : int list;
      (** packet offsets (ascending) where the last run changed the table *)
  scr_replays : int;  (** foreign-batch digest replays scheduled (SCR runs) *)
  scr_rebuilds : int;  (** replicas rebuilt from the digest stream after a death *)
  scr_digest_bytes : int;  (** update-digest bytes broadcast (SCR runs) *)
  switches : int;  (** adaptive discipline switches committed (lifetime) *)
  flap_suppressed : int;  (** adaptive switches suppressed by the cooldown (lifetime) *)
  switch_epochs : (int * Maestro.Ladder.rung) list;
      (** committed switches of the last adaptive run: (epoch, rung adopted) *)
  rung_residency : (Maestro.Ladder.rung * int) list;
      (** epochs spent per rung in the last adaptive run *)
}

(* What the first run of a plan builds and later runs of the same plan
   (the same [Plan.t] value) reuse, as Maestro's generated NFs allocate
   their state once per core in [init()]: the checked and staged NF, and
   the state it is bound to.  [insts] has one slot per plan core —
   per-core shards or replicas, or on the lock and serial rungs one shared
   instance in every slot.  A run at the capacity and rung the last run
   left resets them in place ({!Dsl.Instance.reset}), which keeps the
   runners and SCR replayers bound to them valid. *)
type binding = {
  plan : Maestro.Plan.t;
  mutable divide : int;  (* of [insts]' capacities: the plan's, 1 (adaptive), 0 (none) *)
  staged : Dsl.Compile.staged;
  hashes : (Packet.Pkt.t -> int) array;  (* per port; -1 when no field set matches *)
  table : Nic.Reta.t;  (* the plan's indirection table, the same on every port *)
  mplan : Balancer.migration_plan Lazy.t;
  scr : Scr.t Lazy.t;  (* the staged write-slice, forced on the SCR rung *)
  lock : Rwlock.t;  (* the lock rung's *)
  writes : bool;  (* the NF may write: the lock rung takes the write lock *)
  mutable rung : Maestro.Ladder.rung;
  mutable insts : Dsl.Instance.t array;
  mutable runners : Dsl.Compile.runner array;  (* per plan core, each with its own frame *)
  mutable replayers : Scr.replayer array;  (* per plan core on the SCR rung, else empty *)
}

type t = {
  cores : int;
  batch_size : int;
  backpressure : backpressure;
  supervisor : Supervisor.t;
  workers : worker array;
  mutable runs : int;
  mutable batches : int;
  mutable total_pkts : int;
  mutable stalls : int;
  mutable dropped_batches : int;
  mutable dropped_pkts : int;
  per_core_drops : int array;
  mutable inline_batches : int;
  mutable last_per_core : int array;
  mutable rebalances : int;
  mutable forced_rebalances : int;
  mutable migrated_buckets : int;
  mutable migrated_flows : int;
  mutable migration_drops : int;
  mutable last_share : float array;
  mutable last_assignment : int array;
  mutable last_points : int list;
  mutable scr_replays : int;
  mutable scr_rebuilds : int;
  mutable scr_digest_bytes : int;
  mutable adaptive_switches : int;
  mutable adaptive_flaps : int;
  mutable adaptive_switch_epochs : (int * Maestro.Ladder.rung) list;
  mutable adaptive_residency : (Maestro.Ladder.rung * int) list;
  mutable binding : binding option;  (* the one plan bound to this pool *)
}

let park w =
  Mutex.lock w.mutex;
  Atomic.set w.parked true;
  while Ring.is_empty w.ring && not (Atomic.get w.stop) do
    Condition.wait w.cond w.mutex
  done;
  Atomic.set w.parked false;
  Mutex.unlock w.mutex

let worker_loop w () =
  let rec go () =
    if not (Ring.is_empty w.ring) then begin
      let tok = Ring.take w.ring in
      w.in_flight <- tok;
      let b = Atomic.fetch_and_add w.batches_started 1 in
      Faults.worker_batch ~core:w.core ~batch:b;
      w.exec tok;
      w.in_flight <- -1;
      Atomic.incr w.retired;
      go ()
    end
    else if not (Atomic.get w.stop) then begin
      (* brief spin keeps latency low while a run is in flight... *)
      let rec spin n = if n > 0 && Ring.is_empty w.ring then (Domain.cpu_relax (); spin (n - 1)) in
      spin 64;
      (* ...then park so an idle pool costs nothing between runs *)
      if Ring.is_empty w.ring then park w;
      go ()
    end
  in
  (* The exception barrier: any exception — injected or real — marks the
     worker dead instead of silently killing the domain.  The [alive]
     store is a release point publishing [in_flight] and [last_exn] to
     the producer. *)
  try go ()
  with e ->
    w.last_exn <- Printexc.to_string e;
    Telemetry.Counter.incr c_crashes;
    Atomic.set w.alive false

let spawn_worker w =
  Telemetry.Counter.incr c_spawns;
  Atomic.set w.alive true;
  w.domain <- Some (Domain.spawn (worker_loop w))

let create ?(batch_size = default_batch_size) ?(ring_capacity = default_ring_capacity)
    ?(backpressure = Block) ?supervisor ~cores () =
  if cores < 1 then invalid_arg "Pool.create: cores";
  if batch_size < 1 then invalid_arg "Pool.create: batch_size";
  (match backpressure with
  | Drop { max_spins } when max_spins < 0 -> invalid_arg "Pool.create: max_spins"
  | _ -> ());
  let workers =
    Array.init cores (fun core ->
        {
          core;
          ring = Ring.create ~capacity:ring_capacity;
          mutex = Mutex.create ();
          cond = Condition.create ();
          stop = Atomic.make false;
          parked = Atomic.make false;
          alive = Atomic.make false;
          failed = Atomic.make false;
          retired = Atomic.make 0;
          pushed = 0;
          batches_started = Atomic.make 0;
          exec = no_exec;
          in_flight = -1;
          lane = [||];
          lane_fill = 0;
          lane_sent = 0;
          lane_done = 0;
          last_exn = "";
          domain = None;
        })
  in
  Array.iter spawn_worker workers;
  {
    cores;
    batch_size;
    backpressure;
    supervisor = Supervisor.create ?config:supervisor ~cores ();
    workers;
    runs = 0;
    batches = 0;
    total_pkts = 0;
    stalls = 0;
    dropped_batches = 0;
    dropped_pkts = 0;
    per_core_drops = Array.make cores 0;
    inline_batches = 0;
    last_per_core = [||];
    rebalances = 0;
    forced_rebalances = 0;
    migrated_buckets = 0;
    migrated_flows = 0;
    migration_drops = 0;
    last_share = [||];
    last_assignment = [||];
    last_points = [];
    scr_replays = 0;
    scr_rebuilds = 0;
    scr_digest_bytes = 0;
    adaptive_switches = 0;
    adaptive_flaps = 0;
    adaptive_switch_epochs = [];
    adaptive_residency = [];
    binding = None;
  }

let cores t = t.cores
let batch_size t = t.batch_size
let backpressure t = t.backpressure
let supervisor t = t.supervisor

let live_cores t =
  Array.to_list t.workers
  |> List.filter_map (fun w -> if Atomic.get w.failed then None else Some w.core)

let failed_cores t =
  Array.to_list t.workers
  |> List.filter_map (fun w -> if Atomic.get w.failed then Some w.core else None)

let shutdown t =
  Array.iter
    (fun w ->
      match w.domain with
      | None -> ()
      | Some d ->
          Atomic.set w.stop true;
          Mutex.lock w.mutex;
          Condition.signal w.cond;
          Mutex.unlock w.mutex;
          Domain.join d;
          w.domain <- None)
    t.workers;
  t.binding <- None

let stats t =
  {
    runs = t.runs;
    batches = t.batches;
    pkts = t.total_pkts;
    ring_full_stalls = t.stalls;
    last_per_core_pkts = Array.copy t.last_per_core;
    dropped_batches = t.dropped_batches;
    dropped_pkts = t.dropped_pkts;
    per_core_drops = Array.copy t.per_core_drops;
    restarts = Supervisor.restarts t.supervisor;
    failed_cores = failed_cores t;
    inline_batches = t.inline_batches;
    rebalances = t.rebalances;
    forced_rebalances = t.forced_rebalances;
    migrated_buckets = t.migrated_buckets;
    migrated_flows = t.migrated_flows;
    migration_drops = t.migration_drops;
    last_core_share = Array.copy t.last_share;
    last_assignment = Array.copy t.last_assignment;
    last_rebalance_points = t.last_points;
    scr_replays = t.scr_replays;
    scr_rebuilds = t.scr_rebuilds;
    scr_digest_bytes = t.scr_digest_bytes;
    switches = t.adaptive_switches;
    flap_suppressed = t.adaptive_flaps;
    switch_epochs = t.adaptive_switch_epochs;
    rung_residency = t.adaptive_residency;
  }

(* --- supervision (producer side) -------------------------------------------- *)

let run_inline t w tok =
  t.inline_batches <- t.inline_batches + 1;
  Telemetry.Counter.incr c_inline;
  w.exec tok

(* Complete, on the producer, a token that was pushed to [w] but that its
   dead domain will not complete; retiring it, even when it raises, keeps
   [w]'s completion count equal to its pushes. *)
let complete_inline t w tok =
  Fun.protect ~finally:(fun () -> Atomic.incr w.retired) (fun () -> run_inline t w tok)

(* Drain a permanently failed worker's ring on the producer: the consumer
   is gone, and FIFO order preserves per-core arrival order. *)
let drain_inline t w =
  while not (Ring.is_empty w.ring) do
    complete_inline t w (Ring.take w.ring)
  done

(* Bring [w] back to a usable state if its domain died.  Returns [`Ok]
   when the worker is (again) consuming its ring, [`Failed] when it is
   permanently gone and the producer must run this core's work inline.
   Only the producer calls this, so join/respawn are race-free. *)
let ensure_live t w =
  if Atomic.get w.failed then `Failed
  else if Atomic.get w.alive then `Ok
  else begin
    (* the barrier ran: the domain is exiting — join it *)
    (match w.domain with
    | Some d ->
        Domain.join d;
        w.domain <- None
    | None -> ());
    let crashed = w.in_flight in
    w.in_flight <- -1;
    (* SCR: the dead core's replica may be stale (an injected crash fires
       before the batch mutates it); the run's executor rebuilds it from
       the retained digest stream BEFORE any inline replay touches it *)
    w.exec rejoin;
    match Supervisor.on_death t.supervisor ~core:w.core with
    | `Restart backoff ->
        (* replay the crashed batch inline BEFORE respawning: re-queueing
           it would run it after later batches of this core and reorder
           the per-core packet stream.  A replay that raises (the NF fails
           on a packet, not the worker) still respawns the worker. *)
        Fun.protect
          ~finally:(fun () ->
            for _ = 1 to backoff do
              Domain.cpu_relax ()
            done;
            spawn_worker w)
          (fun () -> if crashed >= 0 then complete_inline t w crashed);
        `Ok
    | `Give_up ->
        Atomic.set w.failed true;
        if crashed >= 0 then complete_inline t w crashed;
        drain_inline t w;
        `Failed
  end

(* Wake [w] if it is parked.  The worker sets [parked] before its last
   emptiness check and the producer pushes before reading [parked]; both
   are sequentially consistent atomics, so at least one of them sees the
   other and no push goes unnoticed.  Taking the mutex orders the signal
   after the worker's wait. *)
let wake w =
  if Atomic.get w.parked then begin
    Mutex.lock w.mutex;
    Condition.signal w.cond;
    Mutex.unlock w.mutex
  end

(* The producer's answer to a full ring under policy [bp]: [true] once
   [tok] is in the ring. *)
let push_full t w bp tok =
  t.stalls <- t.stalls + 1;
  Telemetry.Counter.incr c_stalls;
  match bp with
  | Shed -> false
  | Drop { max_spins } ->
      let spins = ref 0 in
      let ok = ref false in
      while (not !ok) && !spins < max_spins do
        Domain.cpu_relax ();
        incr spins;
        ok := Ring.try_push w.ring tok
      done;
      !ok
  | Block ->
      (* spin, but recheck liveness: a full ring with a dead consumer must
         fail over, not livelock the producer *)
      let ok = ref false in
      let gone = ref false in
      let spins = ref 0 in
      while (not !ok) && not !gone do
        Domain.cpu_relax ();
        incr spins;
        if !spins land 63 = 0 then begin
          match ensure_live t w with
          | `Failed -> gone := true
          | `Ok -> ok := Ring.try_push w.ring tok
        end
        else ok := Ring.try_push w.ring tok
      done;
      !ok

(* Hand token [tok], a batch of [npkts] packets, to [w], honoring the
   backpressure policy ([bp], defaulting to the pool's own — SCR runs
   force [Block]: a dropped digest batch would silently diverge a
   replica).  Returns how the batch was disposed of; [`Dropped] batches
   never run. *)
let submit ?bp t w ~npkts tok =
  let bp = Option.value ~default:t.backpressure bp in
  match ensure_live t w with
  | `Failed ->
      run_inline t w tok;
      `Inline
  | `Ok ->
      let pushed = Ring.try_push w.ring tok || push_full t w bp tok in
      if pushed then begin
        w.pushed <- w.pushed + 1;
        t.batches <- t.batches + 1;
        Telemetry.Counter.incr c_batches;
        wake w;
        `Pushed
      end
      else if Atomic.get w.failed then begin
        (* the blocking path failed over: the ring was drained inline,
           so running this batch inline keeps per-core order *)
        run_inline t w tok;
        `Inline
      end
      else begin
        t.dropped_batches <- t.dropped_batches + 1;
        t.dropped_pkts <- t.dropped_pkts + npkts;
        t.per_core_drops.(w.core) <- t.per_core_drops.(w.core) + 1;
        Telemetry.Counter.incr c_dropped_batches;
        Telemetry.Counter.add c_dropped_pkts npkts;
        `Dropped
      end

(* The producer waits until every batch handed over has retired.  Every
   256 spins it plays supervisor: joins/restarts dead workers (running
   their crashed batch and, on permanent failure, their whole ring
   inline) and checks heartbeats of workers with queued work. *)
let wait_quiesce t ~cores =
  let rec busy c =
    c < cores
    &&
    let w = t.workers.(c) in
    Atomic.get w.retired <> w.pushed || busy (c + 1)
  in
  let iters = ref 0 in
  while busy 0 do
    incr iters;
    if !iters land 255 = 0 then begin
      Supervisor.tick t.supervisor;
      for core = 0 to cores - 1 do
        let w = t.workers.(core) in
        match ensure_live t w with
        | `Failed -> drain_inline t w
        | `Ok ->
            ignore
              (Supervisor.note_heartbeat t.supervisor ~core
                 ~heartbeat:(Atomic.get w.retired) ~ring_len:(Ring.length w.ring))
      done
    end;
    Domain.cpu_relax ()
  done

(* --- streamed dispatch ------------------------------------------------------ *)

(* Conservative static write classification, shared by the lock and TM
   disciplines: OCaml has no transactional rollback, so a packet that *may*
   write on any path takes the write lock up front.  The speculative
   read→restart discipline is modeled deterministically in {!Parallel.run};
   this runtime demonstrates race-free real-domain execution.  The
   classification itself is {!Maestro.Scrspec}'s — the same walk that
   derives the SCR write-slice. *)
let nf_statically_writes = Maestro.Scrspec.nf_writes

(* Ready the plan cores' lanes for a run of [npkts] packets.  A lane only
   holds positions that are being filled, queued or in flight — at most
   ring-capacity + 2 batches, since the batch being filled and the one
   executing sit outside the ring — and never more than the run's packets,
   so a lane that long can wrap without overwriting a live position. *)
let reset_lanes t ~cores ~npkts =
  for c = 0 to cores - 1 do
    let w = t.workers.(c) in
    let need = max 1 (min npkts ((Ring.capacity w.ring + 2) * t.batch_size)) in
    if Array.length w.lane < need then begin
      let n = ref 1 in
      while !n < need do
        n := 2 * !n
      done;
      w.lane <- Array.make !n 0
    end;
    w.lane_fill <- 0;
    w.lane_sent <- 0;
    w.lane_done <- 0
  done

(* The executor of [w]'s lane: a token is the lane position its batch
   ends at, and the batch starts where the previous one ended. *)
let lane_exec w step upto =
  let lane = w.lane in
  let mask = Array.length lane - 1 in
  for k = w.lane_done to upto - 1 do
    step (Array.unsafe_get lane (k land mask))
  done;
  w.lane_done <- upto

(* Hand [w]'s filled positions over as one batch.  A dropped batch never
   runs, so its positions are filled again. *)
let send t w =
  let n = w.lane_fill - w.lane_sent in
  if n > 0 then
    match submit t w ~npkts:n w.lane_fill with
    | `Pushed | `Inline -> w.lane_sent <- w.lane_fill
    | `Dropped -> w.lane_fill <- w.lane_sent

(* Dispatch packets [lo, hi) in arrival order, [core_of i] naming packet
   [i]'s core.  A core's batch is handed over the moment it fills, so its
   worker runs batch k while the producer is still hashing the packets of
   batch k+1; partial batches go out at [hi].  Per core, the batches are
   the same as cutting its whole packet sequence into [batch_size]
   pieces. *)
let stream t ~cores ~assignment ~per_core ~lo ~hi core_of =
  for i = lo to hi - 1 do
    let c = core_of i in
    assignment.(i) <- c;
    per_core.(c) <- per_core.(c) + 1;
    let w = t.workers.(c) in
    let n = w.lane_fill in
    Array.unsafe_set w.lane (n land (Array.length w.lane - 1)) i;
    w.lane_fill <- n + 1;
    if n + 1 - w.lane_sent = t.batch_size then send t w
  done;
  for c = 0 to cores - 1 do
    send t t.workers.(c)
  done

(* The per-packet step of a core bound to runner [r]. *)
let direct_step r ~verdicts ~pkts i = verdicts.(i) <- Dsl.Compile.run r pkts.(i)

let unlock lock ~writes ~core =
  if writes then Rwlock.write_unlock lock else Rwlock.read_unlock lock ~core

(* The lane executor of a lock-rung core: the whole batch runs under one
   acquisition of the shared instance's reader-writer lock — the write
   lock when the NF may write — released on return or on exception.  The
   generated C (and paper §3.6) lock once per packet; locking once per
   batch keeps mutual exclusion and per-core order, and saves the lock's
   atomic operations on every packet but one per batch. *)
let locked_exec lock ~writes w step upto =
  if writes then Rwlock.write_lock lock else Rwlock.read_lock lock ~core:w.core;
  Telemetry.Counter.incr c_lock_acquisitions;
  match lane_exec w step upto with
  | () -> unlock lock ~writes ~core:w.core
  | exception e ->
      unlock lock ~writes ~core:w.core;
      raise e

(* The digest log of an SCR stretch.  Batch [j] covers packets
   [lo.(j), lo.(j) + len.(j)): core [owner.(j)] runs the NF on them and
   every other live core replays [digest.(j)].  It is kept for the whole
   stretch so that a respawned worker's replica can be rebuilt. *)
type scr_log = {
  mutable digest : int array array;
  mutable lo : int array;
  mutable len : int array;
  mutable owner : int array;
  mutable n : int;
}

(* Empty until the first push: every run makes a log, and only runs on
   the SCR rung fill one. *)
let scr_log () = { digest = [||]; lo = [||]; len = [||]; owner = [||]; n = 0 }

(* The log grows by copying, so a worker reading an older batch through
   the old arrays still finds it. *)
let scr_log_push log ~digest ~lo ~len ~owner =
  if log.n = Array.length log.lo then begin
    let grow a fill =
      let b = Array.make (max 64 (2 * log.n)) fill in
      Array.blit a 0 b 0 log.n;
      b
    in
    log.digest <- grow log.digest [||];
    log.lo <- grow log.lo 0;
    log.len <- grow log.len 0;
    log.owner <- grow log.owner 0
  end;
  let j = log.n in
  log.digest.(j) <- digest;
  log.lo.(j) <- lo;
  log.len.(j) <- len;
  log.owner.(j) <- owner;
  log.n <- j + 1;
  j

(* The executor of an SCR core over binding [b]: token [j] is a log
   index; [applied] counts the batches of the stretch the core has fully
   applied.  The core's runner and replayer are looked up per batch: a
   crash rebuild rebinds them. *)
let scr_exec b log ~applied ~verdicts ~pkts core j =
  if log.owner.(j) = core then begin
    let r = b.runners.(core) in
    for i = log.lo.(j) to log.lo.(j) + log.len.(j) - 1 do
      verdicts.(i) <- Dsl.Compile.run r pkts.(i)
    done
  end
  else Scr.apply_batch b.replayers.(core) log.digest.(j) ~npkts:log.len.(j);
  applied.(core) <- applied.(core) + 1

(* Dispatch packets [lo, hi) as SCR batches: ownership goes round-robin
   over [lives] from [!rr]; each batch's digest is logged and its token
   sent to every live core, losslessly. *)
let scr_stream t prog log ~lives ~rr ~assignment ~per_core ~pkts ~lo ~hi =
  let p = ref lo in
  while !p < hi do
    let blo = !p in
    let len = min t.batch_size (hi - blo) in
    let owner = lives.(!rr mod Array.length lives) in
    incr rr;
    Array.fill assignment blo len owner;
    per_core.(owner) <- per_core.(owner) + len;
    let digest = Scr.encode_batch prog pkts ~lo:blo ~len in
    let j = scr_log_push log ~digest ~lo:blo ~len ~owner in
    let bytes = len * Scr.digest_wire_bytes prog in
    t.scr_digest_bytes <- t.scr_digest_bytes + bytes;
    Telemetry.Counter.add c_scr_digest_bytes bytes;
    Array.iter
      (fun core ->
        if core <> owner then begin
          t.scr_replays <- t.scr_replays + 1;
          Telemetry.Counter.incr c_scr_replays
        end;
        (* a dropped digest batch would silently diverge a replica *)
        ignore (submit ~bp:Block t t.workers.(core) ~npkts:len j))
      lives;
    p := blo + len
  done

(* --- plan execution --------------------------------------------------------- *)

(* The rung a plan's own runs execute on: load-balance plans run like
   shared-nothing ones, over per-core read-only replicas, and TM plans on
   the lock rung. *)
let plan_rung (plan : Maestro.Plan.t) =
  match plan.Maestro.Plan.strategy with
  | Maestro.Plan.Shared_nothing | Maestro.Plan.Load_balance -> Maestro.Ladder.Shared_nothing
  | Maestro.Plan.Scr -> Maestro.Ladder.Scr
  | Maestro.Plan.Lock_based | Maestro.Plan.Tm_based -> Maestro.Ladder.Lock_based

(* Put [b] on [rung] over [insts]: every core gets its own execution
   frame, and on the SCR rung a replayer, bound to its slot. *)
let rebind b ~rung insts =
  let replayers =
    if rung = Maestro.Ladder.Scr then Array.map (Scr.bind (Lazy.force b.scr)) insts else [||]
  in
  b.rung <- rung;
  b.insts <- insts;
  b.runners <- Array.map (Dsl.Compile.bind_runner b.staged) insts;
  b.replayers <- replayers

(* The pool's binding of [plan], with start-up state whose capacities
   are divided by [divide], on [rung].  The binding the pool holds is
   kept when it was built for [plan] (the same [Plan.t] value);
   otherwise [plan]'s NF is checked and staged into a new one, replacing
   it.  The state is the last run's, reset in place, when that run left
   it at [divide] and on [rung]; otherwise fresh per-core instances
   (capacity-split for shared-nothing, read-only replicas for
   load-balance, full replicas for SCR) or one instance the lock and
   serial cores share.  Called only at a quiesce point. *)
let bind_plan t (plan : Maestro.Plan.t) ~divide ~rung =
  let nf = plan.Maestro.Plan.nf in
  let cores = plan.Maestro.Plan.cores in
  let b =
    match t.binding with
    | Some b when b.plan == plan -> b
    | Some _ | None ->
        let b =
          {
            plan;
            staged = Dsl.Compile.stage_runner nf (Dsl.Check.check_exn nf);
            hashes =
              Array.init nf.Dsl.Ast.devices (fun p ->
                  Nic.Rss.hash (Maestro.Plan.rss_engine plan p));
            (* the default table {!Maestro.Plan.rss_engine} configures
               every port with *)
            table =
              Nic.Reta.create ~size:(Nic.Model.reta_size plan.Maestro.Plan.nic) ~queues:cores ();
            mplan = lazy (Balancer.migration_plan nf);
            scr =
              lazy
                (match Maestro.Scrspec.admissible nf with
                | Ok spec -> Scr.prepare spec
                | Error e ->
                    invalid_arg
                      (Printf.sprintf "Pool.run: SCR plan for %s but %s" nf.Dsl.Ast.name e));
            lock = Rwlock.create ~cores;
            writes = nf_statically_writes nf;
            divide = 0;
            rung;
            insts = [||];
            runners = [||];
            replayers = [||];
          }
        in
        t.binding <- Some b;
        b
  in
  if b.divide = divide && b.rung = rung then
    (* the lock and serial rungs hold one instance in every slot *)
    Array.iteri (fun c i -> if c = 0 || i != b.insts.(0) then Dsl.Instance.reset i nf) b.insts
  else begin
    let fresh () = Dsl.Instance.create ~divide nf in
    rebind b ~rung
      (match rung with
      | Maestro.Ladder.Shared_nothing | Maestro.Ladder.Scr -> Array.init cores (fun _ -> fresh ())
      | Maestro.Ladder.Lock_based | Maestro.Ladder.Serial -> Array.make cores (fresh ()));
    b.divide <- divide
  end;
  b

(* What a run does at its epoch barriers. *)
type policy =
  | Static  (** nothing: the whole trace is one epoch *)
  | Rebalance of Balancer.config  (** RSS++ bucket moves *)
  | Switch of Adaptive.t  (** discipline switches between ladder rungs *)

(* [run]'s body; its executors run a batch only while [running] holds.

   A run is a loop of epochs over one binding.  Each epoch dispatches its
   packets, quiesces, and joins the dead workers; then the run's policy
   acts at the barrier, where nothing is in flight.  A static run is one
   epoch over the whole trace.

   Adaptive runs switch rungs in place: all their rungs run over
   FULL-capacity instances (divide 1), since a conversion must never lose
   entries to a smaller target, so the adaptive pool trades the static
   shards' memory savings for lossless switches. *)
let execute ~running ~rebalance ~adaptive (t : t) (plan : Maestro.Plan.t) pkts =
  let cores = plan.Maestro.Plan.cores in
  if cores > t.cores then
    invalid_arg
      (Printf.sprintf "Pool.run: plan wants %d cores but the pool has %d" cores t.cores);
  let nf = plan.Maestro.Plan.nf in
  let live = Array.init cores (fun c -> not (Atomic.get t.workers.(c).failed)) in
  if not (Array.exists Fun.id live) then
    invalid_arg "Pool.run: every core of the plan has failed permanently";
  let npkts = Array.length pkts in
  let policy, epoch_pkts, divide, rung =
    let own = Maestro.Plan.state_divisor plan in
    match (adaptive, rebalance) with
    | Adaptive.On _, Balancer.On _ ->
        invalid_arg "Pool.run: --adaptive and --rebalance are mutually exclusive"
    | Adaptive.On acfg, Balancer.Off ->
        let mplan = Balancer.migration_plan nf in
        (* shared-nothing participates only when the migration is exact AND
           skips nothing: shard merges/splits rebuild state in fresh
           instances, so even a skipped sketch (harmless to RSS++ bucket
           moves, which leave it in place) would be silently reset here *)
        let exact_migration = Balancer.exact mplan && Balancer.skipped_objects mplan = [] in
        let scr_ok = Result.is_ok (Maestro.Scrspec.admissible nf) in
        let ctl =
          match Adaptive.ladder ~strategy:plan.Maestro.Plan.strategy ~scr_ok ~exact_migration with
          | Ok ladder -> Adaptive.create acfg ~ladder
          | Error e -> invalid_arg ("Pool.run: " ^ e)
        in
        (Switch ctl, acfg.Adaptive.epoch_pkts, 1, Adaptive.rung ctl)
    (* SCR dispatch sprays batches round-robin: it has no table to rebalance *)
    | Adaptive.Off, Balancer.On cfg when plan.Maestro.Plan.strategy <> Maestro.Plan.Scr ->
        (Rebalance cfg, cfg.Balancer.epoch_pkts, own, plan_rung plan)
    | Adaptive.Off, (Balancer.On _ | Balancer.Off) -> (Static, max 1 npkts, own, plan_rung plan)
  in
  (* state is reset and executors installed only at a quiesce point
     (a run that raised quiesced before it did, with its leftovers
     abandoned) *)
  wait_quiesce t ~cores:t.cores;
  reset_lanes t ~cores ~npkts;
  let b = bind_plan t plan ~divide ~rung in
  let verdicts = Array.make npkts Dsl.Interp.Dropped in
  let assignment = Array.make npkts 0 in
  let per_core = Array.make cores 0 in
  let hashes = b.hashes in
  let nports = Array.length hashes in
  (* ONE table shared by all ports: Maestro's symmetric per-port keys
     give both directions of a flow the same hash, hence the same bucket
     on every port, so a single table — rebalanced or remapped — keeps
     each flow on exactly one core no matter the arrival port *)
  let table = ref b.table in
  if not (Array.for_all Fun.id live) then begin
    (* failover: migrate dead cores' RSS buckets to live cores so no
       flow is steered at a queue nobody serves (RSS++-style remap),
       counted once per port *)
    Telemetry.Counter.add c_remaps nports;
    table := Nic.Reta.remap !table ~live
  end;
  let mask = Nic.Reta.size !table - 1 in
  (* never empty: a barrier that writes off the last live core raises *)
  let lives () = Array.of_list (List.filteri (fun c _ -> live.(c)) (List.init cores Fun.id)) in
  let install ?(recover = ignore) exec =
    for c = 0 to cores - 1 do
      let exec = exec c in
      t.workers.(c).exec <-
        (fun tok -> if Atomic.get running then if tok = rejoin then recover c else exec tok)
    done
  in
  (* the SCR stretch since the rung was entered: its digest log, the
     batches each core has fully applied (written by whoever executes the
     batch, worker or producer inline; read by the producer only after
     joining a dead domain), and the state a switch seeded the replicas
     with — none when the run started on the rung, from reset state *)
  let log = ref (scr_log ()) in
  let applied = Array.make cores 0 in
  let seeded = ref None in
  let rebuild core =
    t.scr_rebuilds <- t.scr_rebuilds + 1;
    Telemetry.Counter.incr c_scr_rebuilds;
    (match !seeded with
    | None ->
        (* the reset keeps the replica's containers, so its runner and
           replayer stay bound across it *)
        Dsl.Instance.reset b.insts.(core) nf
    | Some s ->
        b.insts.(core) <- Dsl.Instance.copy s;
        b.runners.(core) <- Dsl.Compile.bind_runner b.staged b.insts.(core);
        b.replayers.(core) <- Scr.bind (Lazy.force b.scr) b.insts.(core));
    let log = !log in
    for j = 0 to applied.(core) - 1 do
      Scr.apply_batch b.replayers.(core) log.digest.(j) ~npkts:log.len.(j)
    done
  in
  (* install the executors of the binding's rung over its current state *)
  let enter () =
    match b.rung with
    | Maestro.Ladder.Scr ->
        log := scr_log ();
        Array.fill applied 0 cores 0;
        install ~recover:rebuild (scr_exec b !log ~applied ~verdicts ~pkts)
    | Maestro.Ladder.Lock_based ->
        install (fun c ->
            locked_exec b.lock ~writes:b.writes t.workers.(c)
              (direct_step b.runners.(c) ~verdicts ~pkts))
    | Maestro.Ladder.Shared_nothing | Maestro.Ladder.Serial ->
        install (fun c -> lane_exec t.workers.(c) (direct_step b.runners.(c) ~verdicts ~pkts))
  in
  (* hand flow state between [instances] along [dest], counting the moves *)
  let migrate ~hash ~mask ~dest instances =
    let o = Balancer.migrate (Lazy.force b.mplan) ~hash ~mask ~dest ~instances in
    t.migrated_flows <- t.migrated_flows + o.Balancer.moved_flows;
    t.migration_drops <- t.migration_drops + o.Balancer.dropped_flows;
    Telemetry.Counter.add c_moved_flows o.Balancer.moved_flows;
    Telemetry.Counter.add c_migration_drops o.Balancer.dropped_flows
  in
  (* hand each flow's state to the core table [tab] sends its bucket to *)
  let follow tab instances =
    let dentries = Nic.Reta.entries tab in
    migrate
      ~hash:(fun (pk : Packet.Pkt.t) ->
        let h = hashes.(if pk.Packet.Pkt.port < nports then pk.Packet.Pkt.port else 0) pk in
        if h < 0 then None else Some h)
      ~mask
      ~dest:(fun bk -> dentries.(bk))
      instances
  in
  (* convert the state to rung [target] and bind it there *)
  let convert target =
    (* collapse the current rung's state into ONE full instance *)
    let merged =
      match b.rung with
      | Maestro.Ladder.Shared_nothing ->
          (* merge every shard into a fresh full instance: the migration
             executor already knows how to re-home a flow's entries, so
             point every bucket at slot 0 (the merged instance) and let
             the shards at slots 1..cores empty themselves into it *)
          let merged = Dsl.Instance.create nf in
          migrate ~hash:(fun _ -> Some 0) ~mask:0 ~dest:(fun _ -> 0)
            (Array.append [| merged |] b.insts);
          merged
      | Maestro.Ladder.Scr ->
          (* collapse replicas to one: sound only if the live replicas
             agree — which the SCR contract guarantees at a quiesce
             point, and crash rebuilds restore before we get here *)
          let spec = Scr.spec (Lazy.force b.scr) in
          let base = (lives ()).(0) in
          for c = 0 to cores - 1 do
            if live.(c) && c <> base && not (Scr.replica_equal spec b.insts.(base) b.insts.(c))
            then invalid_arg "Pool.run: SCR replicas diverged at a discipline switch"
          done;
          b.insts.(base)
      | Maestro.Ladder.Lock_based | Maestro.Ladder.Serial -> b.insts.(0)
    in
    let insts =
      match target with
      | Maestro.Ladder.Shared_nothing ->
          (* split one full instance into per-core shards along the
             live indirection table; slot 0 reuses the merged instance
             (its surplus entries migrate out, anything undecodable —
             static init entries — is already in every fresh shard) *)
          let shards =
            Array.init cores (fun c -> if c = 0 then merged else Dsl.Instance.create nf)
          in
          follow !table shards;
          shards
      | Maestro.Ladder.Scr ->
          (* seed every replica with an exact copy ({!Dsl.Instance.copy})
             of the collapsed state, which crash rebuilds restart from:
             the replicas evolve in lockstep *)
          seeded := Some merged;
          Array.init cores (fun _ -> Dsl.Instance.copy merged)
      | Maestro.Ladder.Lock_based | Maestro.Ladder.Serial -> Array.make cores merged
    in
    rebind b ~rung:target insts
  in
  (* the epoch's per-bucket and per-core RSS load, counted on the producer
     next to the dispatch it already performs — zero worker-side cost,
     and deterministic (a CI gate compares the resulting counters) *)
  let loads = Array.make (mask + 1) 0 in
  let counts = Array.make cores 0 in
  let rss_core i =
    (* the rx port is checked where the producer reads it to pick the
       port's hash *)
    let port = pkts.(i).Packet.Pkt.port in
    if port < 0 || port >= nports then Parallel.port_error ~devices:nports i port;
    let h = hashes.(port) pkts.(i) in
    let q =
      if h < 0 then 0
      else begin
        let bk = h land mask in
        loads.(bk) <- loads.(bk) + 1;
        Nic.Reta.lookup !table h
      end
    in
    counts.(q) <- counts.(q) + 1;
    q
  in
  let rr = ref 0 in
  let dispatch ~lo ~hi =
    match b.rung with
    | Maestro.Ladder.Shared_nothing | Maestro.Ladder.Lock_based ->
        (* dispatch on the producer, exactly what the NIC does in hardware *)
        stream t ~cores ~assignment ~per_core ~lo ~hi rss_core
    | Maestro.Ladder.Serial ->
        let core = (lives ()).(0) in
        stream t ~cores ~assignment ~per_core ~lo ~hi (fun i ->
            ignore (rss_core i);
            core)
    | Maestro.Ladder.Scr ->
        (* SCR's round-robin spray and the serial funnel hide traffic skew
           from the actual dispatch counts, but an adaptive run's
           controller must see the imbalance the shared-nothing rung
           WOULD suffer *)
        if policy <> Static then
          for i = lo to hi - 1 do
            ignore (rss_core i)
          done;
        scr_stream t (Lazy.force b.scr) !log ~lives:(lives ()) ~rr ~assignment ~per_core ~pkts
          ~lo ~hi
  in
  let points = ref [] in
  (* the next epoch dispatches over [candidate]; [~follow] moves the flow
     state of its moved buckets with them *)
  let retable ~hi ~follow:f candidate =
    if f then follow candidate b.insts;
    table := candidate;
    if hi < npkts then points := hi :: !points
  in
  let marks () = (t.dropped_batches, Supervisor.restarts t.supervisor, t.scr_digest_bytes) in
  let last = ref (marks ()) in
  let barrier ~hi =
    (* join any dead domain NOW, noting cores written off in the epoch:
       crash recovery (inline replay, SCR replica rebuild) has run under
       the OLD table and rung, and a rebalance or switch never races a
       restart *)
    let was_live = Array.copy live in
    for core = 0 to cores - 1 do
      if ensure_live t t.workers.(core) = `Failed then live.(core) <- false
    done;
    let newly_dead = live <> was_live in
    match policy with
    | Static -> ()
    | Rebalance _ when hi >= npkts -> ()
    | Rebalance cfg ->
        (* voluntary bucket moves need either no per-core flow state
           (lock/TM share one instance, load-balance replicates read-only
           state) or an exact migration; a partially-migratable
           shared-nothing NF only moves buckets when a core write-off
           forces it (state is then stranded exactly as in a plain
           remap) *)
        let sharded = plan.Maestro.Plan.strategy = Maestro.Plan.Shared_nothing in
        let exact = Balancer.exact (Lazy.force b.mplan) in
        let wanted =
          ((not sharded) || exact) && Rebalance.imbalance_of counts > cfg.Balancer.threshold
        in
        (* a fresh write-off is a forced rebalance *)
        if newly_dead || wanted then begin
          let candidate =
            Nic.Reta.remap ~live
              (if wanted then Nic.Reta.rebalance !table ~bucket_load:(Array.map float_of_int loads)
               else !table)
          in
          let moves = List.length (Nic.Reta.diff !table candidate) in
          if moves > 0 then
            Telemetry.Span.with_span "pool/rebalance" (fun () ->
                retable ~hi ~follow:(sharded && exact) candidate;
                t.rebalances <- t.rebalances + 1;
                Telemetry.Counter.incr c_rebalances;
                if newly_dead then begin
                  t.forced_rebalances <- t.forced_rebalances + 1;
                  Telemetry.Counter.incr c_rebalances_forced
                end;
                t.migrated_buckets <- t.migrated_buckets + moves;
                Telemetry.Counter.add c_moved_buckets moves)
        end
    | Switch ctl -> (
        (* recovery ran before any switch is considered, so a
           mid-switch crash lands in the old rung's recovery path *)
        if newly_dead then begin
          (* failover: remap the dead cores' buckets; on the
             shared-nothing rung their flow state follows the buckets to
             the new owners.  A write-off remap moves flows between cores
             exactly like a switch does, so its boundary is recorded and
             the per-flow ordering check over [last_rebalance_points]
             stays checkable *)
          let candidate = Nic.Reta.remap !table ~live in
          if Nic.Reta.diff !table candidate <> [] then begin
            retable ~hi ~follow:(b.rung = Maestro.Ladder.Shared_nothing) candidate;
            Telemetry.Counter.incr c_remaps
          end
        end;
        let ((drops, restarts, digest) as now) = marks () in
        let drops0, restarts0, digest0 = !last in
        last := now;
        let obs =
          {
            Adaptive.imbalance =
              Rebalance.imbalance_of
                (Array.of_list (List.filteri (fun c _ -> live.(c)) (Array.to_list counts)));
            drops = drops - drops0;
            restarts = restarts - restarts0;
            digest_bytes = digest - digest0;
          }
        in
        match Adaptive.observe ctl obs with
        | Adaptive.Stay | Adaptive.Suppressed _ -> ()
        | Adaptive.Switch _ when hi >= npkts -> () (* run is over *)
        | Adaptive.Switch target ->
            if obs.Adaptive.restarts > 0 || newly_dead then
              (* the old rung's recovery path just ran; switching on state
                 it may still be settling risks a torn conversion — defer
                 the switch and retry at the next barrier *)
              Adaptive.defer ctl target
            else begin
              Telemetry.Span.with_span "pool/switch" (fun () ->
                  convert target;
                  enter ());
              Adaptive.commit ctl target;
              points := hi :: !points
            end)
  in
  enter ();
  let pos = ref 0 in
  while !pos < npkts do
    let hi = min (!pos + epoch_pkts) npkts in
    Array.fill loads 0 (mask + 1) 0;
    Array.fill counts 0 cores 0;
    dispatch ~lo:!pos ~hi;
    (* the epoch barrier IS the quiesce point: nothing is in flight when
       the table changes, state moves or the rung switches, so per-flow
       order is preserved by construction (FIFO per core within an
       epoch) *)
    wait_quiesce t ~cores;
    pos := hi;
    barrier ~hi
  done;
  (match policy with
  | Switch ctl ->
      t.adaptive_switches <- t.adaptive_switches + Adaptive.switches ctl;
      t.adaptive_flaps <- t.adaptive_flaps + Adaptive.flap_suppressed ctl;
      t.adaptive_switch_epochs <- Adaptive.switch_epochs ctl;
      t.adaptive_residency <- Adaptive.residency ctl
  | Static | Rebalance _ -> ());
  t.runs <- t.runs + 1;
  t.total_pkts <- t.total_pkts + npkts;
  t.last_per_core <- per_core;
  t.last_assignment <- assignment;
  t.last_points <- List.rev !points;
  let total = Array.fold_left ( + ) 0 per_core in
  t.last_share <-
    (if total = 0 then Array.make cores 0.
     else Array.map (fun c -> float_of_int c /. float_of_int total) per_core);
  Telemetry.Counter.add c_pkts npkts;
  verdicts

let run ?(rebalance = Balancer.Off) ?(adaptive = Adaptive.Off) t plan pkts =
  Telemetry.Span.with_span "pool/run" @@ fun () ->
  let running = Atomic.make true in
  (* idle workers keep no reference to a finished run's packets, whether
     it returned or raised *)
  Fun.protect ~finally:(fun () -> Array.iter (fun w -> w.exec <- no_exec) t.workers)
  @@ fun () ->
  match execute ~running ~rebalance ~adaptive t plan pkts with
  | verdicts -> verdicts
  | exception e ->
      (* the batches a raising run left queued retire without running,
         so none of them — a batch holding the packet that raised, say —
         runs again in the next run *)
      Atomic.set running false;
      wait_quiesce t ~cores:t.cores;
      raise e

(* --- the process-global pool ------------------------------------------------- *)

let global : t option ref = ref None
let global_mutex = Mutex.create ()

let shutdown_global () =
  Mutex.lock global_mutex;
  (match !global with
  | Some pool ->
      shutdown pool;
      global := None
  | None -> ());
  Mutex.unlock global_mutex

let () = at_exit shutdown_global

let with_global ?batch_size ?backpressure ~cores f =
  Mutex.lock global_mutex;
  let pool =
    match !global with
    | Some pool
      when pool.cores >= cores
           && (match batch_size with None -> true | Some b -> b = pool.batch_size)
           && (match backpressure with None -> true | Some bp -> bp = pool.backpressure)
           && failed_cores pool = [] ->
        pool
    | Some pool ->
        shutdown pool;
        let pool = create ?batch_size ?backpressure ~cores:(max cores pool.cores) () in
        global := Some pool;
        pool
    | None ->
        let pool = create ?batch_size ?backpressure ~cores () in
        global := Some pool;
        pool
  in
  Mutex.unlock global_mutex;
  f pool
