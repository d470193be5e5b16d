(* Restart policy and failure bookkeeping for the pool's worker domains.

   The supervisor never touches domains itself — OCaml domains cannot be
   preempted or killed from outside — it only decides.  The pool's
   producer (the only thread that can safely join a dead domain and
   respawn it) reports deaths and heartbeat observations here and acts on
   the returned decision.  Restart time is logical: the producer advances
   it by calling [tick] on its wait-loop checks, so every restart decision
   is a deterministic function of the observed event sequence — fault-
   injection tests replay identically.  A stall is measured in wall-clock
   time, from the clock reading the producer passes with each heartbeat
   observation: the supervisor reads no clock itself. *)

type config = {
  max_restarts : int;
  window : int;
  backoff_base : int;
  backoff_factor : int;
  stall_ns : int;
}

(* [stall_ns] must dwarf one slow but healthy batch and stay under any
   stall worth reporting, in time rather than in looks: the producer
   looks every 256 [Domain.cpu_relax], whose cost varies severalfold
   across CPUs.  On a 2-vCPU x86 VM a [slow@0:0:20000] batch takes ~0.7
   ms and a [stall@1:0:5000000] ~105 ms; 10 ms clears the first by ~14x
   and still flags the second on a host whose relax is 5x faster. *)
let default_config =
  {
    max_restarts = 4;
    window = 4096;
    backoff_base = 64;
    backoff_factor = 4;
    stall_ns = 10_000_000;
  }

type event =
  | Restarted of { core : int; attempt : int; backoff_spins : int }
  | Gave_up of { core : int; restarts : int }
  | Stuck of { core : int; stalled_ns : int }

type decision = [ `Restart of int | `Give_up ]

type core_state = {
  mutable restart_ticks : int list;  (* logical times of restarts, newest first *)
  mutable last_heartbeat : int;
  mutable stalled_since : int;
      (* clock reading of the first no-progress observation with work
         queued since the last progress, or -1 *)
  mutable stuck_reported : bool;
}

type t = {
  config : config;
  cores : core_state array;
  mutable now : int;
  mutable events : event list; (* newest first *)
}

let c_restarts =
  Telemetry.Counter.make "supervisor.restarts" ~doc:"worker domains restarted after a crash"

let c_gave_up =
  Telemetry.Counter.make "supervisor.gave_up"
    ~doc:"workers declared permanently failed (restart budget exhausted)"

let c_stuck =
  Telemetry.Counter.make "supervisor.stuck_detected"
    ~doc:"live workers flagged as stuck (heartbeat stopped with work queued)"

let create ?(config = default_config) ~cores () =
  if config.max_restarts < 0 then invalid_arg "Supervisor.create: max_restarts";
  if config.stall_ns < 1 then invalid_arg "Supervisor.create: stall_ns";
  {
    config;
    cores =
      Array.init cores (fun _ ->
          { restart_ticks = []; last_heartbeat = 0; stalled_since = -1; stuck_reported = false });
    now = 0;
    events = [];
  }

let tick t = t.now <- t.now + 1

let events t = List.rev t.events

let restarts t =
  List.length (List.filter (function Restarted _ -> true | _ -> false) t.events)

let on_death t ~core =
  let st = t.cores.(core) in
  st.restart_ticks <- List.filter (fun tk -> t.now - tk < t.config.window) st.restart_ticks;
  let prior = List.length st.restart_ticks in
  if prior >= t.config.max_restarts then begin
    Telemetry.Counter.incr c_gave_up;
    t.events <- Gave_up { core; restarts = prior } :: t.events;
    `Give_up
  end
  else begin
    st.restart_ticks <- t.now :: st.restart_ticks;
    let attempt = prior + 1 in
    let backoff =
      let b = ref t.config.backoff_base in
      for _ = 2 to attempt do
        b := !b * t.config.backoff_factor
      done;
      !b
    in
    Telemetry.Counter.incr c_restarts;
    t.events <- Restarted { core; attempt; backoff_spins = backoff } :: t.events;
    `Restart backoff
  end

(* A stall is timed from its own first observation, not from the last
   progress, which may lie a whole idle gap back (the end of the previous
   run, say). *)
let note_heartbeat t ~core ~heartbeat ~ring_len ~now_ns =
  let st = t.cores.(core) in
  if ring_len = 0 || heartbeat <> st.last_heartbeat then begin
    st.last_heartbeat <- heartbeat;
    st.stalled_since <- -1;
    st.stuck_reported <- false;
    `Ok
  end
  else begin
    if st.stalled_since < 0 then st.stalled_since <- now_ns;
    let stalled_ns = now_ns - st.stalled_since in
    if stalled_ns >= t.config.stall_ns && not st.stuck_reported then begin
      st.stuck_reported <- true;
      Telemetry.Counter.incr c_stuck;
      t.events <- Stuck { core; stalled_ns } :: t.events;
      `Stuck
    end
    else `Ok
  end

let pp_event fmt = function
  | Restarted { core; attempt; backoff_spins } ->
      Format.fprintf fmt "core %d restarted (attempt %d, backoff %d spins)" core attempt
        backoff_spins
  | Gave_up { core; restarts } ->
      Format.fprintf fmt "core %d failed permanently after %d restarts" core restarts
  | Stuck { core; stalled_ns } ->
      Format.fprintf fmt "core %d stuck (%.1f ms without progress)" core
        (float_of_int stalled_ns /. 1e6)
