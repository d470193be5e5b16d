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

(* What the first run of a plan builds and every later run of the same
   plan (the same [Plan.t] value) reuses, as Maestro's generated NFs
   allocate their state once per core in [init()]: the checked and staged
   NF bound to its state.  [insts] are the distinct instances — one per
   plan core, or the one the lock/TM cores share — and a later run resets
   them in place ({!Dsl.Instance.reset}), which keeps the runners and SCR
   replayers bound to them valid. *)
type binding = {
  plan : Maestro.Plan.t;
  engines : Nic.Rss.t array;  (* per port, over the plan's own tables *)
  insts : Dsl.Instance.t array;
  runners : Dsl.Compile.runner array;  (* per plan core, each with its own frame *)
  discipline : discipline;
}

and discipline =
  | Direct  (** shared-nothing and load-balance: per-core instances *)
  | Locked of { lock : Rwlock.t; writes : bool }  (** lock/TM: one shared instance *)
  | Replicated of { prog : Scr.t; replayers : Scr.replayer array }
      (** SCR: a full replica per core *)

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
  mutable scr_crash_hook : (int -> unit) option;
      (* set for the duration of an SCR run: rebuild [core]'s replica from
         the retained digest stream.  Called only by the producer, inside
         {!ensure_live}, after joining the dead domain (the join is the
         happens-before edge that publishes the worker's progress counter)
         and before the crashed batch is replayed inline. *)
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
    scr_crash_hook = None;
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
       before the batch mutates it); rebuild it from the retained digest
       stream BEFORE any inline replay touches it *)
    (match t.scr_crash_hook with Some rebuild -> rebuild w.core | None -> ());
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

(* An SCR owner runs the whole NF over its batch.  The runner is looked up
   per batch because an adaptive run's crash rebuild rebinds it. *)
let run_range runners ~verdicts ~pkts core lo len =
  let r = runners.(core) in
  for i = lo to lo + len - 1 do
    verdicts.(i) <- Dsl.Compile.run r pkts.(i)
  done

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

let scr_log () =
  {
    digest = Array.make 64 [||];
    lo = Array.make 64 0;
    len = Array.make 64 0;
    owner = Array.make 64 0;
    n = 0;
  }

(* The log grows by copying, so a worker reading an older batch through
   the old arrays still finds it. *)
let scr_log_push log ~digest ~lo ~len ~owner =
  if log.n = Array.length log.lo then begin
    let grow a fill =
      let b = Array.make (2 * log.n) fill in
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

(* The executor of an SCR core: token [j] is a log index; [applied]
   counts the batches of the stretch the core has fully applied. *)
let scr_exec log ~own ~replay ~applied core j =
  if log.owner.(j) = core then own core log.lo.(j) log.len.(j)
  else replay core log.digest.(j) log.len.(j);
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

(* The engine of each of the plan's ports. *)
let plan_engines (plan : Maestro.Plan.t) =
  Array.init plan.Maestro.Plan.nf.Dsl.Ast.devices (Maestro.Plan.rss_engine plan)

(* Check and stage [plan]'s NF and bind it to fresh state: per-core
   instances (capacity-split for shared-nothing, read-only replicas for
   load-balance, full replicas for SCR) or one instance the lock/TM cores
   share.  Every core gets its own execution frame. *)
let bind_plan (plan : Maestro.Plan.t) =
  let nf = plan.Maestro.Plan.nf in
  let staged = Dsl.Compile.stage_runner nf (Dsl.Check.check_exn nf) in
  let cores = plan.Maestro.Plan.cores in
  let per_core () =
    Array.init cores (fun _ -> Dsl.Instance.create ~divide:(Maestro.Plan.state_divisor plan) nf)
  in
  let insts, discipline =
    match plan.Maestro.Plan.strategy with
    | Maestro.Plan.Shared_nothing | Maestro.Plan.Load_balance -> (per_core (), Direct)
    | Maestro.Plan.Lock_based | Maestro.Plan.Tm_based ->
        ( [| Dsl.Instance.create nf |],
          Locked { lock = Rwlock.create ~cores; writes = nf_statically_writes nf } )
    | Maestro.Plan.Scr ->
        let spec =
          match Maestro.Scrspec.admissible nf with
          | Ok spec -> spec
          | Error e ->
              invalid_arg
                (Printf.sprintf "Pool.run: SCR plan for %s but %s" nf.Dsl.Ast.name e)
        in
        let insts = per_core () in
        let prog = Scr.prepare spec in
        (insts, Replicated { prog; replayers = Array.map (Scr.bind prog) insts })
  in
  let inst_of c = match discipline with Locked _ -> insts.(0) | Direct | Replicated _ -> insts.(c) in
  {
    plan;
    engines = plan_engines plan;
    insts;
    runners = Array.init cores (fun c -> Dsl.Compile.bind_runner staged (inst_of c));
    discipline;
  }

(* The pool's binding of [plan]: the one it holds, its state reset in
   place, when [plan] is the plan it was built for; otherwise a new one,
   replacing it.  Called only at a quiesce point. *)
let bind t (plan : Maestro.Plan.t) =
  match t.binding with
  | Some b when b.plan == plan ->
      Array.iter (fun inst -> Dsl.Instance.reset inst plan.Maestro.Plan.nf) b.insts;
      b
  | Some _ | None ->
      let b = bind_plan plan in
      t.binding <- Some b;
      b

(* The rx port of packet [i], checked where the producer reads it to pick
   the port's engine. *)
let port_of pkts ~nports i =
  let port = pkts.(i).Packet.Pkt.port in
  if port < 0 || port >= nports then Parallel.port_error ~devices:nports i port;
  port

(* [run]'s body; its executors run a batch only while [running] holds. *)
let execute ~running ~rebalance ~adaptive (t : t) (plan : Maestro.Plan.t) pkts =
  let cores = plan.Maestro.Plan.cores in
  if cores > t.cores then
    invalid_arg
      (Printf.sprintf "Pool.run: plan wants %d cores but the pool has %d" cores t.cores);
  let nf = plan.Maestro.Plan.nf in
  let live = Array.init cores (fun c -> not (Atomic.get t.workers.(c).failed)) in
  if not (Array.exists Fun.id live) then
    invalid_arg "Pool.run: every core of the plan has failed permanently";
  (* this run's port engines, in an array of its own: the rebalance and
     adaptive arms retarget them *)
  let live_engines base =
    Array.map
      (fun e ->
        if Array.for_all Fun.id live then e
        else begin
          (* failover: migrate dead cores' RSS buckets to live cores so no
             flow is steered at a queue nobody serves (RSS++-style remap) *)
          Telemetry.Counter.incr c_remaps;
          Nic.Rss.with_reta e (Nic.Reta.remap (Nic.Rss.reta e) ~live)
        end)
      base
  in
  let npkts = Array.length pkts in
  let verdicts = Array.make npkts Dsl.Interp.Dropped in
  (* state is reset and executors installed only at a quiesce point
     (a run that raised quiesced before it did, with its leftovers
     abandoned) *)
  wait_quiesce t ~cores:t.cores;
  reset_lanes t ~cores ~npkts;
  let install exec =
    for c = 0 to cores - 1 do
      let exec = exec c in
      t.workers.(c).exec <- (fun tok -> if Atomic.get running then exec tok)
    done
  in
  (* every plan core runs its lane through [step c]: bare, or on the lock
     rung under the shared instance's lock *)
  let lanes ?lock step =
    install (fun c ->
        match lock with
        | None -> lane_exec t.workers.(c) (step c)
        | Some (lock, writes) -> locked_exec lock ~writes t.workers.(c) (step c))
  in
  let assignment = Array.make npkts 0 in
  let per_core = Array.make cores 0 in
  let lives () = Array.of_list (List.filteri (fun c _ -> live.(c)) (List.init cores Fun.id)) in
  let strategy = plan.Maestro.Plan.strategy in
  let finish points =
    (* idle workers keep no reference to this run's packets *)
    install (fun _ -> no_exec);
    t.runs <- t.runs + 1;
    t.total_pkts <- t.total_pkts + npkts;
    t.last_per_core <- per_core;
    t.last_assignment <- assignment;
    t.last_points <- List.rev points;
    let total = Array.fold_left ( + ) 0 per_core in
    t.last_share <-
      (if total = 0 then Array.make cores 0.
       else Array.map (fun c -> float_of_int c /. float_of_int total) per_core);
    Telemetry.Counter.add c_pkts npkts;
    verdicts
  in
  match adaptive with
  | Adaptive.On acfg ->
      if rebalance <> Balancer.Off then
        invalid_arg "Pool.run: --adaptive and --rebalance are mutually exclusive";
      (* ---- adaptive discipline switching ------------------------------
         The run is driven in epochs; at every epoch barrier — the quiesce
         point PR 5 introduced, where nothing is in flight — a hysteresis
         controller ({!Adaptive}) looks at the epoch's statistics and may
         switch the live pool to an adjacent admissible ladder rung.  All
         rungs run over FULL-capacity instances (divide 1): a conversion
         must never lose entries to a smaller target, so the adaptive pool
         trades the static shards' memory savings for lossless switches.

         Representation: [insts] always has [cores] slots, whose meaning
         depends on the rung — per-core shards (shared-nothing), full
         replicas (SCR), or one shared instance aliased into every slot
         (lock-based and serial). *)
      let staged = Dsl.Compile.stage_runner nf (Dsl.Check.check_exn nf) in
      let engines = live_engines (plan_engines plan) in
      (* the engines share their hash functions with every [with_reta] copy *)
      let hashes = Array.map Nic.Rss.hash engines in
      let nports = Array.length engines in
      let size = Nic.Reta.size (Nic.Rss.reta engines.(0)) in
      if Array.exists (fun e -> Nic.Reta.size (Nic.Rss.reta e) <> size) engines then
        invalid_arg "Pool.run: adaptive switching requires equal-size port indirection tables";
      let table = ref (Nic.Rss.reta engines.(0)) in
      let set_table tab =
        table := tab;
        Array.iteri (fun p e -> engines.(p) <- Nic.Rss.with_reta e tab) engines
      in
      set_table !table;
      let mask = size - 1 in
      let hash_pkt (pk : Packet.Pkt.t) =
        let port = if pk.Packet.Pkt.port < nports then pk.Packet.Pkt.port else 0 in
        Nic.Rss.hash_of engines.(port) pk
      in
      let mplan = Balancer.migration_plan nf in
      (* shared-nothing participates only when the migration is exact AND
         skips nothing: shard merges/splits rebuild state in fresh
         instances, so even a skipped sketch (harmless to RSS++ bucket
         moves, which leave it in place) would be silently reset here *)
      let exact_migration = Balancer.exact mplan && Balancer.skipped_objects mplan = [] in
      let scr_spec =
        match Maestro.Scrspec.admissible nf with Ok s -> Some s | Error _ -> None
      in
      let ladder =
        match Adaptive.ladder ~strategy ~scr_ok:(scr_spec <> None) ~exact_migration with
        | Ok l -> l
        | Error e -> invalid_arg ("Pool.run: " ^ e)
      in
      let ctl = Adaptive.create acfg ~ladder in
      let scr_prog = Option.map Scr.prepare scr_spec in
      let writes = nf_statically_writes nf in
      let lock = Rwlock.create ~cores in
      let fresh () = Dsl.Instance.create nf in
      let insts =
        ref
          (match Adaptive.rung ctl with
          | Maestro.Ladder.Shared_nothing | Maestro.Ladder.Scr ->
              (* independent [create]s are structurally identical, so SCR
                 replicas start in lockstep *)
              Array.init cores (fun _ -> fresh ())
          | Maestro.Ladder.Lock_based | Maestro.Ladder.Serial ->
              let sh = fresh () in
              Array.make cores sh)
      in
      let runners = Array.map (Dsl.Compile.bind_runner staged) !insts in
      let replayers : Scr.replayer option array = Array.make cores None in
      (* SCR support state, reset at every SCR entry: the pristine seeded
         replica and the digest log since entry, for crash rebuilds *)
      let snapshot = ref None in
      let log = ref (scr_log ()) in
      let applied = Array.make cores 0 in
      let first_live () =
        let rec go c = if c >= cores then 0 else if live.(c) then c else go (c + 1) in
        go 0
      in
      let replay core digest len =
        match replayers.(core) with Some rp -> Scr.apply_batch rp digest ~npkts:len | None -> ()
      in
      (* (re)bind the execution frames and executors for rung [r] over the
         current [insts]; must run at a quiesce point (or, for one core,
         from the crash hook after the dead domain was joined) *)
      let enter r =
        Array.iteri (fun c inst -> runners.(c) <- Dsl.Compile.bind_runner staged inst) !insts;
        match r with
        | Maestro.Ladder.Scr ->
            let prog = Option.get scr_prog in
            Array.iteri (fun c inst -> replayers.(c) <- Some (Scr.bind prog inst)) !insts;
            snapshot := Some (Dsl.Instance.copy !insts.(first_live ()));
            log := scr_log ();
            Array.fill applied 0 cores 0;
            install (scr_exec !log ~own:(run_range runners ~verdicts ~pkts) ~replay ~applied)
        | Maestro.Ladder.Lock_based ->
            Array.fill replayers 0 cores None;
            lanes ~lock:(lock, writes) (fun c -> direct_step runners.(c) ~verdicts ~pkts)
        | Maestro.Ladder.Shared_nothing | Maestro.Ladder.Serial ->
            Array.fill replayers 0 cores None;
            lanes (fun c -> direct_step runners.(c) ~verdicts ~pkts)
      in
      let account (o : Balancer.outcome) =
        t.migrated_flows <- t.migrated_flows + o.Balancer.moved_flows;
        t.migration_drops <- t.migration_drops + o.Balancer.dropped_flows;
        Telemetry.Counter.add c_moved_flows o.Balancer.moved_flows;
        Telemetry.Counter.add c_migration_drops o.Balancer.dropped_flows
      in
      (* collapse the current rung's state into ONE full instance *)
      let collapse from_r =
        match from_r with
        | Maestro.Ladder.Shared_nothing ->
            (* merge every shard into a fresh full instance: the migration
               executor already knows how to re-home a flow's entries, so
               point every bucket at slot 0 (the merged instance) and let
               the shards at slots 1..cores empty themselves into it *)
            let merged = fresh () in
            account
              (Balancer.migrate mplan
                 ~hash:(fun _ -> Some 0)
                 ~mask:0
                 ~dest:(fun _ -> 0)
                 ~instances:(Array.append [| merged |] !insts));
            merged
        | Maestro.Ladder.Scr ->
            (* collapse replicas to one: sound only if the live replicas
               agree — which the SCR contract guarantees at a quiesce
               point, and crash rebuilds restore before we get here *)
            let spec = Option.get scr_spec in
            let base = first_live () in
            for c = 0 to cores - 1 do
              if
                live.(c) && c <> base
                && not (Scr.replica_equal spec !insts.(base) !insts.(c))
              then invalid_arg "Pool.run: SCR replicas diverged at a discipline switch"
            done;
            !insts.(base)
        | Maestro.Ladder.Lock_based | Maestro.Ladder.Serial -> !insts.(0)
      in
      let convert from_r to_r =
        match to_r with
        | Maestro.Ladder.Shared_nothing ->
            (* split one full instance into per-core shards along the
               live indirection table; slot 0 reuses the merged instance
               (its surplus entries migrate out, anything undecodable —
               static init entries — is already in every fresh shard) *)
            let merged = collapse from_r in
            let shards = Array.init cores (fun c -> if c = 0 then merged else fresh ()) in
            let dentries = Nic.Reta.entries !table in
            account
              (Balancer.migrate mplan ~hash:hash_pkt ~mask
                 ~dest:(fun b -> dentries.(b))
                 ~instances:shards);
            insts := shards
        | Maestro.Ladder.Scr ->
            (* seed every replica from the collapsed state; exact copies
               ({!Dsl.Instance.copy}) keep the replicas in lockstep *)
            let base = collapse from_r in
            insts :=
              Array.init cores (fun c -> if c = 0 then base else Dsl.Instance.copy base)
        | Maestro.Ladder.Lock_based | Maestro.Ladder.Serial ->
            insts := Array.make cores (collapse from_r)
      in
      enter (Adaptive.rung ctl);
      t.scr_crash_hook <-
        Some
          (fun core ->
            if Adaptive.rung ctl = Maestro.Ladder.Scr then begin
              t.scr_rebuilds <- t.scr_rebuilds + 1;
              Telemetry.Counter.incr c_scr_rebuilds;
              (* rebuild from the seeded snapshot, not initial state: the
                 replica was seeded by a conversion mid-run *)
              let base = match !snapshot with Some s -> s | None -> assert false in
              !insts.(core) <- Dsl.Instance.copy base;
              runners.(core) <- Dsl.Compile.bind_runner staged !insts.(core);
              let rp = Scr.bind (Option.get scr_prog) !insts.(core) in
              replayers.(core) <- Some rp;
              let log = !log in
              for j = 0 to applied.(core) - 1 do
                Scr.apply_batch rp log.digest.(j) ~npkts:log.len.(j)
              done
            end)
      ;
      Fun.protect ~finally:(fun () -> t.scr_crash_hook <- None) @@ fun () ->
      let rss_counts = Array.make cores 0 in
      (* would-be RSS dispatch of packet [i], counted in EVERY rung: SCR's
         round-robin spray and the serial funnel hide traffic skew from
         the actual dispatch counts, but the controller must see the
         imbalance the shared-nothing rung WOULD suffer *)
      let rss_core i =
        let h = hashes.(port_of pkts ~nports i) pkts.(i) in
        let q = if h < 0 then 0 else Nic.Reta.lookup !table h in
        rss_counts.(q) <- rss_counts.(q) + 1;
        q
      in
      let points = ref [] in
      let rr = ref 0 in
      let pos = ref 0 in
      let drops0 = ref t.dropped_batches in
      let restarts0 = ref (Supervisor.restarts t.supervisor) in
      let digest0 = ref t.scr_digest_bytes in
      while !pos < npkts do
        let lo = !pos in
        let hi = min (lo + acfg.Adaptive.epoch_pkts) npkts in
        Array.fill rss_counts 0 cores 0;
        (match Adaptive.rung ctl with
        | Maestro.Ladder.Shared_nothing | Maestro.Ladder.Lock_based ->
            stream t ~cores ~assignment ~per_core ~lo ~hi rss_core
        | Maestro.Ladder.Serial ->
            let core = first_live () in
            stream t ~cores ~assignment ~per_core ~lo ~hi (fun i ->
                ignore (rss_core i);
                core)
        | Maestro.Ladder.Scr ->
            for i = lo to hi - 1 do
              ignore (rss_core i)
            done;
            scr_stream t (Option.get scr_prog) !log ~lives:(lives ()) ~rr ~assignment ~per_core
              ~pkts ~lo ~hi);
        (* the epoch barrier IS the quiesce point *)
        wait_quiesce t ~cores;
        pos := hi;
        (* join any dead domain NOW: crash recovery (inline replay, SCR
           replica rebuild) runs under the OLD rung before any switch is
           considered, so a mid-switch crash lands in the old rung's
           recovery path *)
        let newly_dead = ref false in
        for core = 0 to cores - 1 do
          match ensure_live t t.workers.(core) with
          | `Failed ->
              if live.(core) then begin
                live.(core) <- false;
                newly_dead := true
              end
          | `Ok -> ()
        done;
        if !newly_dead then begin
          (* failover: remap the dead cores' buckets; on the shared-nothing
             rung their flow state follows the buckets to the new owners *)
          let candidate = Nic.Reta.remap !table ~live in
          if Nic.Reta.diff !table candidate <> [] then begin
            (match Adaptive.rung ctl with
            | Maestro.Ladder.Shared_nothing ->
                let dentries = Nic.Reta.entries candidate in
                account
                  (Balancer.migrate mplan ~hash:hash_pkt ~mask
                     ~dest:(fun b -> dentries.(b))
                     ~instances:!insts)
            | _ -> ());
            set_table candidate;
            Telemetry.Counter.incr c_remaps;
            (* a write-off remap moves flows between cores exactly like a
               switch does — record the boundary so the per-flow ordering
               invariant over [last_rebalance_points] stays checkable *)
            if hi < npkts then points := hi :: !points
          end
        end;
        let drops_now = t.dropped_batches in
        let restarts_now = Supervisor.restarts t.supervisor in
        let digest_now = t.scr_digest_bytes in
        let live_counts =
          Array.of_list
            (List.filteri (fun c _ -> live.(c)) (Array.to_list rss_counts))
        in
        let obs =
          {
            Adaptive.imbalance = Rebalance.imbalance_of live_counts;
            drops = drops_now - !drops0;
            restarts = restarts_now - !restarts0;
            digest_bytes = digest_now - !digest0;
          }
        in
        drops0 := drops_now;
        restarts0 := restarts_now;
        digest0 := digest_now;
        let crash_recovery = obs.Adaptive.restarts > 0 || !newly_dead in
        (match Adaptive.observe ctl obs with
        | Adaptive.Stay | Adaptive.Suppressed _ -> ()
        | Adaptive.Switch _ when hi >= npkts -> () (* run is over *)
        | Adaptive.Switch target ->
            if crash_recovery then
              (* the old rung's recovery path just ran; switching on state
                 it may still be settling risks a torn conversion — defer
                 the switch and retry at the next barrier *)
              Adaptive.defer ctl target
            else begin
              let from_r = Adaptive.rung ctl in
              Telemetry.Span.with_span "pool/switch" (fun () ->
                  convert from_r target;
                  enter target);
              Adaptive.commit ctl target;
              points := hi :: !points
            end)
      done;
      t.adaptive_switches <- t.adaptive_switches + Adaptive.switches ctl;
      t.adaptive_flaps <- t.adaptive_flaps + Adaptive.flap_suppressed ctl;
      t.adaptive_switch_epochs <- Adaptive.switch_epochs ctl;
      t.adaptive_residency <- Adaptive.residency ctl;
      finish !points
  | Adaptive.Off -> (
  let bound = bind t plan in
  let engines = live_engines bound.engines in
  let hashes = Array.map Nic.Rss.hash engines in
  let nports = Array.length engines in
  match bound.discipline with
  | Replicated { prog; replayers } ->
      (* State-compute replication: every live core consumes the FULL
         global batch stream in arrival order over its own SPSC ring.
         The owning core (round-robin over the batches) runs the complete
         NF for the verdicts; every other core replays the batch's update
         digest — derived from the packets at dispatch time — against its
         own full replica by executing the NF's write-slice.  No core
         ever waits for another: there is no shared state and no lock.
         The digest stream is retained for the whole run so a respawned
         worker can rebuild its replica from scratch before rejoining
         (see [scr_crash_hook]). *)
      let log = scr_log () in
      (* batches of THIS run fully applied per core; written by whoever
         executes the batch (worker, or the producer inline), read by the
         producer only after joining the dead domain *)
      let applied = Array.make cores 0 in
      install
        (scr_exec log ~own:(run_range bound.runners ~verdicts ~pkts) ~applied
           ~replay:(fun core digest len -> Scr.apply_batch replayers.(core) digest ~npkts:len));
      t.scr_crash_hook <-
        Some
          (fun core ->
            t.scr_rebuilds <- t.scr_rebuilds + 1;
            Telemetry.Counter.incr c_scr_rebuilds;
            (* the run started from reset state, and the reset keeps the
               replica's containers, so its runner and replayer stay bound
               across it *)
            Dsl.Instance.reset bound.insts.(core) nf;
            for j = 0 to applied.(core) - 1 do
              Scr.apply_batch replayers.(core) log.digest.(j) ~npkts:log.len.(j)
            done);
      Fun.protect ~finally:(fun () -> t.scr_crash_hook <- None) @@ fun () ->
      scr_stream t prog log ~lives:(lives ()) ~rr:(ref 0) ~assignment ~per_core ~pkts ~lo:0
        ~hi:npkts;
      wait_quiesce t ~cores;
      finish []
  | (Direct | Locked _) as discipline -> (
      let lock =
        match discipline with
        | Locked { lock; writes } -> Some (lock, writes)
        | Direct | Replicated _ -> None
      in
      lanes ?lock (fun c -> direct_step bound.runners.(c) ~verdicts ~pkts);
      match rebalance with
      | Balancer.Off ->
          (* dispatch on the producer, exactly what the NIC does in hardware *)
          let retas = Array.map Nic.Rss.reta engines in
          stream t ~cores ~assignment ~per_core ~lo:0 ~hi:npkts (fun i ->
              let port = port_of pkts ~nports i in
              let h = hashes.(port) pkts.(i) in
              if h < 0 then 0 else Nic.Reta.lookup retas.(port) h);
          wait_quiesce t ~cores;
          finish []
      | Balancer.On cfg ->
          let size = Nic.Reta.size (Nic.Rss.reta engines.(0)) in
          if Array.exists (fun e -> Nic.Reta.size (Nic.Rss.reta e) <> size) engines then
            invalid_arg "Pool.run: rebalancing requires equal-size port indirection tables";
          (* ONE table shared by all ports: Maestro's symmetric per-port keys
             give both directions of a flow the same hash, hence the same
             bucket on every port, so a single rebalanced table keeps each
             flow on exactly one core no matter the arrival port *)
          let table = ref (Nic.Rss.reta engines.(0)) in
          let set_table tab =
            table := tab;
            Array.iteri (fun p e -> engines.(p) <- Nic.Rss.with_reta e tab) engines
          in
          set_table !table;
          let mask = size - 1 in
          let mplan = Balancer.migration_plan nf in
          (* voluntary bucket moves need either no per-core flow state
             (lock/TM share one instance, load-balance replicates read-only
             state) or an exact migration; a partially-migratable
             shared-nothing NF only moves buckets when a core write-off
             forces it (state is then stranded exactly as in a plain remap) *)
          let migrate_ok = strategy = Maestro.Plan.Shared_nothing && Balancer.exact mplan in
          let voluntary_ok = strategy <> Maestro.Plan.Shared_nothing || Balancer.exact mplan in
          let hash_pkt (pk : Packet.Pkt.t) =
            let port = if pk.Packet.Pkt.port < nports then pk.Packet.Pkt.port else 0 in
            Nic.Rss.hash_of engines.(port) pk
          in
          let bucket_loads = Array.make size 0.0 in
          let epoch_counts = Array.make cores 0 in
          (* per-bucket load accounting lives on the producer next to the
             dispatch it already performs — zero worker-side cost, and
             deterministic (a CI gate compares the resulting counters) *)
          let core_of i =
            let h = hashes.(port_of pkts ~nports i) pkts.(i) in
            let q =
              if h < 0 then 0
              else begin
                let b = h land mask in
                bucket_loads.(b) <- bucket_loads.(b) +. 1.0;
                Nic.Reta.lookup !table h
              end
            in
            epoch_counts.(q) <- epoch_counts.(q) + 1;
            q
          in
          let points = ref [] in
          let pos = ref 0 in
          while !pos < npkts do
            let hi = min (!pos + cfg.Balancer.epoch_pkts) npkts in
            stream t ~cores ~assignment ~per_core ~lo:!pos ~hi core_of;
            (* the epoch barrier IS the quiesce point: nothing is in flight
               when the table changes or state moves, so per-flow order is
               preserved by construction (FIFO per core within an epoch) *)
            wait_quiesce t ~cores;
            pos := hi;
            if !pos < npkts then begin
              (* supervisor integration: join any dead domain NOW, so a
                 rebalance can never race a restart, and treat a fresh
                 write-off as a forced rebalance *)
              let newly_dead = ref false in
              for core = 0 to cores - 1 do
                match ensure_live t t.workers.(core) with
                | `Failed ->
                    if live.(core) then begin
                      live.(core) <- false;
                      newly_dead := true
                    end
                | `Ok -> ()
              done;
              let wanted =
                voluntary_ok && Rebalance.imbalance_of epoch_counts > cfg.Balancer.threshold
              in
              if !newly_dead || wanted then begin
                let candidate =
                  if wanted then Nic.Reta.rebalance !table ~bucket_load:bucket_loads else !table
                in
                let candidate =
                  if Array.for_all Fun.id live then candidate
                  else Nic.Reta.remap candidate ~live
                in
                let moves = Nic.Reta.diff !table candidate in
                if moves <> [] then
                  Telemetry.Span.with_span "pool/rebalance" (fun () ->
                      if migrate_ok then begin
                        let dentries = Nic.Reta.entries candidate in
                        let outcome =
                          Balancer.migrate mplan ~hash:hash_pkt ~mask
                            ~dest:(fun b -> dentries.(b))
                            ~instances:bound.insts
                        in
                        t.migrated_flows <- t.migrated_flows + outcome.Balancer.moved_flows;
                        t.migration_drops <- t.migration_drops + outcome.Balancer.dropped_flows;
                        Telemetry.Counter.add c_moved_flows outcome.Balancer.moved_flows;
                        Telemetry.Counter.add c_migration_drops outcome.Balancer.dropped_flows
                      end;
                      set_table candidate;
                      t.rebalances <- t.rebalances + 1;
                      Telemetry.Counter.incr c_rebalances;
                      if !newly_dead then begin
                        t.forced_rebalances <- t.forced_rebalances + 1;
                        Telemetry.Counter.incr c_rebalances_forced
                      end;
                      t.migrated_buckets <- t.migrated_buckets + List.length moves;
                      Telemetry.Counter.add c_moved_buckets (List.length moves);
                      points := !pos :: !points)
              end;
              Array.fill bucket_loads 0 size 0.0;
              Array.fill epoch_counts 0 cores 0
            end
          done;
          finish !points))

let run ?(rebalance = Balancer.Off) ?(adaptive = Adaptive.Off) t plan pkts =
  Telemetry.Span.with_span "pool/run" @@ fun () ->
  let running = Atomic.make true in
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
