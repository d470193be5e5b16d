(* Persistent, supervised worker-domain pool fed by bounded SPSC rings of
   packet batches (paper §4.4's failure story made executable).  See
   pool.mli for the design. *)

let default_batch_size = 32
let default_ring_capacity = 1024

(* --- the ledger ------------------------------------------------------------ *)

(* Every count {!stats} reports is an event of this table: one row of a
   pool's ledger and, where there is one, the process-global [pool.*]
   telemetry counter of the same name.  [count_on] is the only place
   either moves, so the two cannot disagree.  A row has a slot per core: the
   dropped batches are counted on the core that dropped them, every other
   event on slot 0. *)
module Event = struct
  type t = { slot : int; counter : Telemetry.Counter.t option }

  let n = ref 0

  let make counter =
    incr n;
    { slot = !n - 1; counter }

  let counted name ~doc = make (Some (Telemetry.Counter.make name ~doc))
  let batches = counted "pool.batches" ~doc:"packet batches pushed to pool rings"
  let pkts = counted "pool.pkts" ~doc:"packets executed on the domain pool"
  let stalls = counted "pool.ring_full_stalls" ~doc:"producer stalls on a full pool ring"
  let dropped_batches = counted "pool.dropped_batches" ~doc:"batches dropped by backpressure"
  let dropped_pkts = counted "pool.dropped_pkts" ~doc:"packets dropped by backpressure"
  let inline =
    counted "pool.inline_batches"
      ~doc:"batches the producer ran inline (crash replay and failed-core drains)"
  let rebalances =
    counted "pool.rebalances" ~doc:"online RSS++ rebalances applied at epoch boundaries"
  let forced_rebalances =
    counted "pool.rebalances_forced" ~doc:"rebalances forced by a permanent core failure"
  let migrated_buckets =
    counted "pool.migrated_buckets" ~doc:"indirection buckets moved by the online balancer"
  let migrated_flows =
    counted "pool.migrated_flows"
      ~doc:"flow states handed between cores by the online balancer"
  let migration_drops =
    counted "pool.migration_drops"
      ~doc:"flow states evicted during migration because the destination was full"
  let scr_replays =
    counted "pool.scr_replays"
      ~doc:"foreign-batch digest replays scheduled by the SCR dispatcher"
  let scr_rebuilds =
    counted "pool.scr_rebuilds"
      ~doc:"SCR replicas rebuilt from the digest stream after a worker death"
  let scr_digest_bytes =
    counted "pool.scr_digest_bytes" ~doc:"update-digest bytes broadcast by the SCR dispatcher"
  let naps = counted "pool.producer_naps" ~doc:"producer naps while its workers drained"
  let nap_us = counted "pool.producer_nap_us" ~doc:"microseconds the producer napped"

  (* the pool's alone: runs have no counter, and the {!Adaptive}
     controller bumps its own [pool.adaptive.*] counters as it decides *)
  let runs = make None
  let switches = make None
  let flap_suppressed = make None
end

(* Telemetry only, outside the ledger: crashes and lock acquisitions are
   counted on worker domains, which never write the producer's ledger;
   workers are spawned before their pool exists; and {!stats} reports no
   remaps. *)
let c_spawns = Telemetry.Counter.make "pool.domain_spawns" ~doc:"worker domains spawned by pools"

let c_crashes =
  Telemetry.Counter.make "pool.worker_crashes" ~doc:"worker domains killed by an exception"

let c_remaps =
  Telemetry.Counter.make "pool.reta_remaps"
    ~doc:"indirection-table remaps after permanent core failures"

let c_lock_acquisitions =
  Telemetry.Counter.make "pool.lock_acquisitions"
    ~doc:"reader-writer lock acquisitions on the lock rung, one per batch executed"

(* The least power of two that is at least [n]. *)
let ceil_pow2 n =
  let p = ref 1 in
  while !p < n do
    p := 2 * !p
  done;
  !p

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
    { slots = [||]; mask = ceil_pow2 capacity - 1; head = Atomic.make 0; tail = Atomic.make 0 }

  let capacity t = t.mask + 1
  let length t = Atomic.get t.tail - Atomic.get t.head
  let is_empty t = length t = 0
  let is_full t = length t > t.mask

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
  | Block  (** wait until there is room (supervising the worker while waiting) *)
  | Drop of { max_spins : int }  (** bounded spin, then drop the batch *)

let backpressure_name = function
  | Block -> "block"
  | Drop { max_spins } -> Printf.sprintf "drop(%d)" max_spins

let default_drop_spins = 4096

(* --- run errors ------------------------------------------------------------- *)

type invariant = Scr_admissible of { nf : string; reason : string } | Scr_replicas_agree

exception Run_error of { invariant : invariant; epoch : int option; core : int option }

let () =
  Printexc.register_printer (function
    | Run_error { invariant; epoch; core } ->
        let at name = Option.fold ~none:"" ~some:(Printf.sprintf ", %s %d" name) in
        Some
          (Printf.sprintf "Pool.Run_error (%s%s%s)"
             (match invariant with
             | Scr_admissible { nf; reason } -> Printf.sprintf "SCR plan for %s but %s" nf reason
             | Scr_replicas_agree -> "SCR replicas diverged at a discipline switch")
             (at "epoch" epoch) (at "core" core))
    | _ -> None)

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
  producer_naps : int;  (** naps the producer took while its workers drained *)
  producer_nap_us : int;  (** microseconds those naps lasted *)
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
   runners and SCR replayers bound to them valid and the maps' grown
   tables allocated. *)
type binding = {
  plan : Maestro.Plan.t;
  mutable divide : int;  (* of [insts]' capacities: the plan's, 1 (adaptive), 0 (none) *)
  staged : Dsl.Compile.staged;
  hashes : (Packet.Pkt.t -> int) array;  (* per port; -1 when no field set matches *)
  table : Nic.Reta.t;  (* the plan's indirection table, the same on every port *)
  mutable reta : int array;
      (* the entries of the table the producer dispatches with, which each
         run sets before it dispatches and wherever it swaps tables: read
         through the binding the dispatch already holds, it costs a run
         no allocation *)
  mplan : Balancer.migration_plan Lazy.t;
  scr : Scr.t Lazy.t;  (* the staged write-slice, forced on the SCR rung *)
  lock : Rwlock.t;  (* the lock rung's *)
  writes : bool;  (* the NF may write: the lock rung takes the write lock *)
  mutable rung : Maestro.Ladder.rung;
  mutable insts : Dsl.Instance.t array;
  mutable runners : Dsl.Compile.runner array;  (* per plan core, each with its own frame *)
  mutable replayers : Scr.replayer array;  (* per plan core on the SCR rung, else empty *)
}

(* What {!stats} reports of the most recent run, written when it ends.
   The run made its arrays and writes them no more, so {!stats} hands
   them out without copying. *)
type last_run = {
  per_core : int array;  (* packets dispatched to each plan core *)
  assignment : int array;  (* the core of each packet, in trace order *)
  points : int list;  (* ascending packet offsets where the table or rung changed *)
  switch_epochs : (int * Maestro.Ladder.rung) list;  (* of the last adaptive run *)
  residency : (Maestro.Ladder.rung * int) list;  (* of the last adaptive run *)
}

type t = {
  cores : int;
  batch_size : int;
  backpressure : backpressure;
  supervisor : Supervisor.t;
  workers : worker array;
  seen : int array;
      (* each worker's [retired] at the producer's last look: the
         producer's alone, so it stays out of the worker records, whose
         fields the workers write per batch *)
  ledger : int array array;  (* one row per {!Event}, one slot per core *)
  mutable last : last_run;
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
    seen = Array.make cores 0;
    ledger = Array.init !Event.n (fun _ -> Array.make cores 0);
    last = { per_core = [||]; assignment = [||]; points = []; switch_epochs = []; residency = [] };
    binding = None;
  }

let cores t = t.cores
let batch_size t = t.batch_size
let backpressure t = t.backpressure
let supervisor t = t.supervisor

let cores_where ~failed t =
  Array.to_list t.workers
  |> List.filter_map (fun w -> if Atomic.get w.failed = failed then Some w.core else None)

let live_cores = cores_where ~failed:false
let failed_cores = cores_where ~failed:true

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

(* Count [n] more of event [e]: on [core]'s slot of the pool's ledger
   and on the event's counter. *)
let count_on t (e : Event.t) ~core n =
  let row = t.ledger.(e.slot) in
  row.(core) <- row.(core) + n;
  match e.counter with Some c -> Telemetry.Counter.add c n | None -> ()

let count t e n = count_on t e ~core:0 n
let total t (e : Event.t) = Array.fold_left ( + ) 0 t.ledger.(e.slot)

let stats t =
  let n = total t and last = t.last in
  let dispatched = Array.fold_left ( + ) 0 last.per_core in
  {
    runs = n Event.runs;
    batches = n Event.batches;
    pkts = n Event.pkts;
    ring_full_stalls = n Event.stalls;
    last_per_core_pkts = last.per_core;
    dropped_batches = n Event.dropped_batches;
    dropped_pkts = n Event.dropped_pkts;
    per_core_drops = Array.copy t.ledger.(Event.dropped_batches.slot);
    restarts = Supervisor.restarts t.supervisor;
    failed_cores = failed_cores t;
    inline_batches = n Event.inline;
    rebalances = n Event.rebalances;
    forced_rebalances = n Event.forced_rebalances;
    migrated_buckets = n Event.migrated_buckets;
    migrated_flows = n Event.migrated_flows;
    migration_drops = n Event.migration_drops;
    last_core_share =
      Array.map
        (fun c -> if dispatched = 0 then 0. else float_of_int c /. float_of_int dispatched)
        last.per_core;
    last_assignment = last.assignment;
    last_rebalance_points = last.points;
    scr_replays = n Event.scr_replays;
    scr_rebuilds = n Event.scr_rebuilds;
    scr_digest_bytes = n Event.scr_digest_bytes;
    producer_naps = n Event.naps;
    producer_nap_us = n Event.nap_us;
    switches = n Event.switches;
    flap_suppressed = n Event.flap_suppressed;
    switch_epochs = last.switch_epochs;
    rung_residency = last.residency;
  }

(* --- supervision (producer side) -------------------------------------------- *)

let run_inline t w tok =
  count t Event.inline 1;
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

(* Spin on [w]'s full ring at most [n] times until [tok] is in it. *)
let rec drop_spin w tok n =
  n > 0 && (Domain.cpu_relax (); Ring.try_push w.ring tok || drop_spin w tok (n - 1))

(* --- the producer's wait ------------------------------------------------------ *)

(* What the producer waits for from a worker: every batch handed to it
   retired, or room in its full ring. *)
type goal = Quiesce | Room

(* [w] still owes the producer [goal].  A failed worker owes no room: its
   ring was drained inline, and its batches run inline. *)
let owes goal w =
  match goal with
  | Quiesce -> Atomic.get w.retired <> w.pushed
  | Room -> Ring.is_full w.ring && not (Atomic.get w.failed)

let rec owing t goal c hi = c < hi && (owes goal t.workers.(c) || owing t goal (c + 1) hi)

(* Spins between two looks (the old quiesce's cadence), and the length
   of a nap, chosen by a paired sweep (EXPERIMENTS.md, "Frame replay: a
   napping producer"). *)
let look_spins = 256
let nap_s = 20e-6

(* One look at workers [lo, hi): the producer plays supervisor.  It ticks
   logical time, joins and restarts dead workers (running their crashed
   batch and, on permanent failure, their whole ring inline) and notes
   the live ones' heartbeats.  [true] when every worker that still owes
   [goal] has retired a batch since the last look. *)
let look t goal ~lo ~hi =
  Supervisor.tick t.supervisor;
  let now_ns = int_of_float (Unix.gettimeofday () *. 1e9) in
  let draining = ref true in
  for core = lo to hi - 1 do
    let w = t.workers.(core) in
    (match ensure_live t w with
    | `Failed -> drain_inline t w
    | `Ok ->
        ignore
          (Supervisor.note_heartbeat t.supervisor ~core ~heartbeat:(Atomic.get w.retired)
             ~ring_len:(Ring.length w.ring) ~now_ns));
    let retired = Atomic.get w.retired in
    if retired = t.seen.(core) && owes goal w then draining := false;
    t.seen.(core) <- retired
  done;
  !draining

(* Sleep for [nap_s], counting the nap and how long it lasted. *)
let nap t =
  let t0 = Unix.gettimeofday () in
  Unix.sleepf nap_s;
  count t Event.naps 1;
  count t Event.nap_us (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6))

(* The producer's one wait: until no worker of [lo, hi) owes [goal].  It
   looks every [look_spins] spins, and naps when the look finds every
   worker it waits on draining: their batches, not the producer, are what
   the run waits for.  A worker that retires nothing between two looks
   keeps the producer spinning, so it is supervised at spin cadence:
   liveness, heartbeats, stuck detection, crash replay and restart
   backoff. *)
let wait t goal ~lo ~hi =
  for c = lo to hi - 1 do
    t.seen.(c) <- Atomic.get t.workers.(c).retired
  done;
  let spins = ref 0 in
  while owing t goal lo hi do
    incr spins;
    if !spins mod look_spins = 0 && look t goal ~lo ~hi && owing t goal lo hi then nap t
    else Domain.cpu_relax ()
  done

(* The producer's answer to a full ring under policy [bp]: [true] once
   [tok] is in the ring, [false] when it was dropped or [w] has failed. *)
let push_full t w bp tok =
  count t Event.stalls 1;
  match bp with
  | Drop { max_spins } -> drop_spin w tok max_spins
  | Block ->
      wait t Room ~lo:w.core ~hi:(w.core + 1);
      (not (Atomic.get w.failed)) && Ring.try_push w.ring tok

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
        count t Event.batches 1;
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
        count_on t Event.dropped_batches ~core:w.core 1;
        count t Event.dropped_pkts npkts;
        `Dropped
      end

(* Wait until every batch handed to the workers of cores [0, cores) has
   retired. *)
let wait_quiesce t ~cores = wait t Quiesce ~lo:0 ~hi:cores

(* --- streamed dispatch ------------------------------------------------------ *)

(* Ready the plan cores' lanes for a run of [npkts] packets.  A lane only
   holds positions that are being filled, queued or in flight — at most
   ring-capacity + 2 batches, since the batch being filled and the one
   executing sit outside the ring — and never more than the run's packets,
   so a lane that long can wrap without overwriting a live position. *)
let reset_lanes t ~cores ~npkts =
  for c = 0 to cores - 1 do
    let w = t.workers.(c) in
    let need = max 1 (min npkts ((Ring.capacity w.ring + 2) * t.batch_size)) in
    if Array.length w.lane < need then w.lane <- Array.make (ceil_pow2 need) 0;
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
    count t Event.scr_digest_bytes (len * Scr.digest_wire_bytes prog);
    Array.iter
      (fun core ->
        if core <> owner then count t Event.scr_replays 1;
        (* a dropped digest batch would silently diverge a replica *)
        ignore (submit ~bp:Block t t.workers.(core) ~npkts:len j))
      lives;
    p := blo + len
  done

(* --- plan execution --------------------------------------------------------- *)

(* The first core [live] marks: where the producer sends the packets that
   no field set matches.  A loop, so finding it allocates nothing. *)
let first_live live =
  let c = ref 0 in
  while not live.(!c) do
    incr c
  done;
  !c

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
            reta = [||];
            mplan = lazy (Balancer.migration_plan nf);
            scr =
              lazy
                (match Maestro.Scrspec.admissible nf with
                | Ok spec -> Scr.prepare spec
                | Error reason ->
                    raise
                      (Run_error
                         {
                           invariant = Scr_admissible { nf = nf.Dsl.Ast.name; reason };
                           epoch = None;
                           core = None;
                         }));
            lock = Rwlock.create ~cores;
            (* conservative static write classification, shared by the
               lock and TM disciplines: OCaml has no transactional
               rollback, so a batch that may write on any path takes the
               write lock up front (the speculative read→restart
               discipline is modeled in {!Parallel.run}).  It is
               {!Maestro.Scrspec}'s, the walk that derives the SCR
               write-slice. *)
            writes = Maestro.Scrspec.nf_writes nf;
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

type policy = Static | Rebalance of Balancer.config | Adaptive of Adaptive.config

(* [run]'s body; its executors run a batch only while [running] holds.

   A run is a loop of epochs over one binding.  Each epoch dispatches its
   packets, quiesces, and joins the dead workers; then the run's policy
   acts at the barrier, where nothing is in flight.  A static run is one
   epoch over the whole trace.

   Adaptive runs switch rungs in place: all their rungs run over
   FULL-capacity instances (divide 1), since a conversion must never lose
   entries to a smaller target, so the adaptive pool trades the static
   shards' memory savings for lossless switches. *)
let execute ~running ~policy (t : t) (plan : Maestro.Plan.t) pkts =
  let cores = plan.Maestro.Plan.cores in
  if cores > t.cores then
    invalid_arg
      (Printf.sprintf "Pool.run: plan wants %d cores but the pool has %d" cores t.cores);
  let nf = plan.Maestro.Plan.nf in
  let live = Array.init cores (fun c -> not (Atomic.get t.workers.(c).failed)) in
  if not (Array.exists Fun.id live) then
    invalid_arg "Pool.run: every core of the plan has failed permanently";
  let npkts = Array.length pkts in
  (* SCR dispatch sprays batches round-robin: it has no table to rebalance *)
  let policy =
    match policy with
    | Rebalance _ when plan.Maestro.Plan.strategy = Maestro.Plan.Scr -> Static
    | p -> p
  in
  (* [ctl], an adaptive run's controller, picks the rung it starts on *)
  let epoch_pkts, divide, ctl =
    let own = Maestro.Plan.state_divisor plan in
    match policy with
    | Static -> (max 1 npkts, own, None)
    | Rebalance cfg -> (cfg.Balancer.epoch_pkts, own, None)
    | Adaptive acfg ->
        let mplan = Balancer.migration_plan nf in
        (* shared-nothing participates only when the migration is exact AND
           skips nothing: shard merges/splits rebuild state in fresh
           instances, so even a skipped sketch (harmless to RSS++ bucket
           moves, which leave it in place) would be silently reset here *)
        let exact_migration = Balancer.exact mplan && Balancer.skipped_objects mplan = [] in
        let scr_ok = Result.is_ok (Maestro.Scrspec.admissible nf) in
        match Adaptive.ladder ~strategy:plan.Maestro.Plan.strategy ~scr_ok ~exact_migration with
        | Ok ladder -> (acfg.Adaptive.epoch_pkts, 1, Some (Adaptive.create acfg ~ladder))
        | Error e -> invalid_arg ("Pool.run: " ^ e)
  in
  let rung = match ctl with Some ctl -> Adaptive.rung ctl | None -> plan_rung plan in
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
  b.reta <- Nic.Reta.entries !table;
  let mask = Nic.Reta.size !table - 1 in
  (* never empty: a barrier that writes off the last live core keeps the
     epoch's cores, which then run inline on the producer *)
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
    count t Event.scr_rebuilds 1;
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
    count t Event.migrated_flows o.Balancer.moved_flows;
    count t Event.migration_drops o.Balancer.dropped_flows
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
  let convert ~epoch target =
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
            then
              raise
                (Run_error { invariant = Scr_replicas_agree; epoch = Some epoch; core = Some c })
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
     and deterministic (a CI gate compares the resulting counters) — for
     the rebalancing and adaptive barriers, which read them *)
  let loads = Array.make (mask + 1) 0 in
  let counts = Array.make cores 0 in
  let counted = policy <> Static in
  (* where packets that no field set matches go, moved on at a barrier
     that writes it off *)
  let unhashed = ref (first_live live) in
  let rss_core i =
    (* the rx port is checked where the producer reads it to pick the
       port's hash *)
    let port = pkts.(i).Packet.Pkt.port in
    if port < 0 || port >= Array.length hashes then
      Parallel.port_error ~devices:(Array.length hashes) i port;
    let h = hashes.(port) pkts.(i) in
    let q = if h < 0 then !unhashed else Array.unsafe_get b.reta (h land mask) in
    if counted then begin
      (if h >= 0 then
         let bk = h land mask in
         loads.(bk) <- loads.(bk) + 1);
      counts.(q) <- counts.(q) + 1
    end;
    q
  in
  let rr = ref 0 in
  let dispatch ~lo ~hi =
    match b.rung with
    | Maestro.Ladder.Shared_nothing | Maestro.Ladder.Lock_based ->
        (* dispatch on the producer, exactly what the NIC does in hardware *)
        stream t ~cores ~assignment ~per_core ~lo ~hi rss_core
    | Maestro.Ladder.Serial ->
        (* {!plan_rung} never returns [Serial]: only an adaptive run
           dispatches here, and its barriers read the counts [rss_core]
           feeds, so every packet is hashed *)
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
    b.reta <- Nic.Reta.entries candidate;
    if hi < npkts then points := hi :: !points
  in
  let marks () =
    ( total t Event.dropped_batches,
      Supervisor.restarts t.supervisor,
      total t Event.scr_digest_bytes )
  in
  let last = ref (marks ()) in
  let barrier ~epoch ~hi =
    (* join any dead domain NOW, noting cores written off in the epoch:
       crash recovery (inline replay, SCR replica rebuild) has run under
       the OLD table and rung, and a rebalance or switch never races a
       restart *)
    let was_live = Array.copy live in
    for core = 0 to cores - 1 do
      if ensure_live t t.workers.(core) = `Failed then live.(core) <- false
    done;
    let newly_dead = live <> was_live in
    let any_live = Array.exists Fun.id live in
    (* with no live core left the barrier does nothing: the rest of the
       run executes inline on the epoch's cores, whose state is current,
       as a static run does *)
    if any_live then unhashed := first_live live else Array.blit was_live 0 live 0 cores;
    match (policy, ctl) with
    | _ when not any_live -> ()
    | Rebalance cfg, _ when hi < npkts ->
        (* voluntary bucket moves need either no per-core flow state
           (lock/TM share one instance, load-balance replicates read-only
           state) or an exact migration; a partially-migratable
           shared-nothing NF only moves buckets when a core write-off
           forces it (state is then stranded exactly as in a plain
           remap) *)
        let sharded = plan.Maestro.Plan.strategy = Maestro.Plan.Shared_nothing in
        let exact = Balancer.exact (Lazy.force b.mplan) in
        let wanted =
          ((not sharded) || exact) && Balancer.imbalance_of counts > cfg.Balancer.threshold
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
                count t Event.rebalances 1;
                if newly_dead then count t Event.forced_rebalances 1;
                count t Event.migrated_buckets moves)
        end
    | _, Some ctl -> (
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
              Balancer.imbalance_of
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
                  convert ~epoch target;
                  enter ());
              Adaptive.commit ctl target;
              points := hi :: !points
            end)
    | _, None -> ()
  in
  enter ();
  let pos = ref 0 and epoch = ref 0 in
  while !pos < npkts do
    incr epoch;
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
    barrier ~epoch:!epoch ~hi
  done;
  (* an adaptive run's schedule stands until the next adaptive run's *)
  let switch_epochs, residency =
    match ctl with
    | Some ctl ->
        count t Event.switches (Adaptive.switches ctl);
        count t Event.flap_suppressed (Adaptive.flap_suppressed ctl);
        (Adaptive.switch_epochs ctl, Adaptive.residency ctl)
    | None -> (t.last.switch_epochs, t.last.residency)
  in
  count t Event.runs 1;
  count t Event.pkts npkts;
  t.last <- { per_core; assignment; points = List.rev !points; switch_epochs; residency };
  verdicts

let run ?(policy = Static) t plan pkts =
  Telemetry.Span.with_span "pool/run" @@ fun () ->
  let running = Atomic.make true in
  (* idle workers keep no reference to a finished run's packets, whether
     it returned or raised *)
  Fun.protect ~finally:(fun () -> Array.iter (fun w -> w.exec <- no_exec) t.workers)
  @@ fun () ->
  match execute ~running ~policy t plan pkts with
  | verdicts -> verdicts
  | exception e ->
      (* the batches a raising run left queued retire without running,
         so none of them — a batch holding the packet that raised, say —
         runs again in the next run *)
      Atomic.set running false;
      wait_quiesce t ~cores:t.cores;
      raise e
