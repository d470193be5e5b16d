(* Online discipline switching: the hysteresis controller that moves the
   live pool between admissible ladder rungs at epoch barriers.  See
   adaptive.mli for the design notes; the state conversions themselves
   live in Pool (the only module that owns the instances). *)

type config = { epoch_pkts : int; up : float; down : float; cooldown : int }

let default_config = { epoch_pkts = 4096; up = 1.5; down = 1.15; cooldown = 2 }

let validate cfg =
  if cfg.epoch_pkts < 1 then Error "--adaptive: epochs must be a positive integer"
  else if cfg.cooldown < 0 then Error "--adaptive: cooldown must be non-negative"
  else if not (cfg.down >= 1.0) then Error "--adaptive: down must be >= 1.0"
  else if not (cfg.up > cfg.down) then
    Error
      (Printf.sprintf "--adaptive: up (%g) must exceed down (%g) — the hysteresis band"
         cfg.up cfg.down)
  else Ok cfg

let parse spec =
  let flag = "--adaptive" in
  let ( let* ) = Result.bind in
  let field ~key ~value cfg =
    match key with
    | "epochs" | "epoch" ->
        let* n = Balancer.Kv.pos_int ~flag ~key value in
        Ok { cfg with epoch_pkts = n }
    | "up" ->
        let* f = Balancer.Kv.ratio ~flag ~key value in
        Ok { cfg with up = f }
    | "down" ->
        let* f = Balancer.Kv.ratio ~flag ~key value in
        Ok { cfg with down = f }
    | "cooldown" ->
        let* n = Balancer.Kv.nonneg_int ~flag ~key value in
        Ok { cfg with cooldown = n }
    | _ -> Error (Printf.sprintf "%s: unknown key %S" flag key)
  in
  match
    Balancer.Kv.parse ~flag ~grammar:"off, on, epochs=N, up=F, down=F or cooldown=N"
      ~default:default_config ~field spec
  with
  | Ok (Some cfg) -> Result.map Option.some (validate cfg)
  | (Ok None | Error _) as r -> r

let to_string = function
  | None -> "off"
  | Some { epoch_pkts; up; down; cooldown } ->
      Printf.sprintf "epochs=%d,up=%g,down=%g,cooldown=%d" epoch_pkts up down cooldown

(* ------------------------------------------------------------------ *)
(* Admissibility                                                       *)
(* ------------------------------------------------------------------ *)

let ladder ~strategy ~scr_ok ~exact_migration =
  let open Maestro.Ladder in
  let top =
    match strategy with
    | Maestro.Plan.Shared_nothing -> Ok Shared_nothing
    | Maestro.Plan.Scr -> Ok Scr
    | Maestro.Plan.Lock_based | Maestro.Plan.Tm_based -> Ok Lock_based
    | Maestro.Plan.Load_balance ->
        Error "adaptive: load-balance plans have no state-owning rung to switch"
  in
  Result.map
    (fun top ->
      (* admissibility is pinned to what compile time derived: never climb
         above the plan's rung, include SCR only when Scrspec admitted a
         digest, and include shared-nothing only when the migration plan
         can carry every written object (a lossy conversion would fork the
         replicas from sequential semantics) *)
      List.filter
        (function
          | Shared_nothing -> exact_migration
          | Scr -> scr_ok
          | Lock_based | Serial -> true)
        (descent top))
    top

(* ------------------------------------------------------------------ *)
(* Controller                                                          *)
(* ------------------------------------------------------------------ *)

type obs = { imbalance : float; drops : int; restarts : int; digest_bytes : int }

type decision =
  | Stay
  | Switch of Maestro.Ladder.rung
  | Suppressed of Maestro.Ladder.rung

type t = {
  config : config;
  ladder : Maestro.Ladder.rung list;
  mutable rung : Maestro.Ladder.rung;
  mutable epoch : int;
  mutable cooldown_left : int;
  mutable calm_streak : int;
  mutable pending : Maestro.Ladder.rung option; (* a deferred switch to retry *)
  mutable switches : int;
  mutable flap_suppressed : int;
  mutable switch_epochs : (int * Maestro.Ladder.rung) list; (* newest first *)
  residency : int array; (* epochs spent per rung, Ladder order *)
}

let rung_index = function
  | Maestro.Ladder.Shared_nothing -> 0
  | Maestro.Ladder.Scr -> 1
  | Maestro.Ladder.Lock_based -> 2
  | Maestro.Ladder.Serial -> 3

let c_switches =
  Telemetry.Counter.make "pool.adaptive.switches" ~doc:"discipline switches committed"

let c_suppressed =
  Telemetry.Counter.make "pool.adaptive.flap_suppressed"
    ~doc:"switches suppressed by the cooldown window"

let c_epochs =
  Telemetry.Counter.make "pool.adaptive.epochs" ~doc:"epochs observed by the controller"

let c_deferred =
  Telemetry.Counter.make "pool.adaptive.deferred"
    ~doc:"switches deferred to the next barrier by same-epoch crash recovery"

let create config ~ladder:rungs =
  (match rungs with [] -> invalid_arg "Adaptive.create: empty ladder" | _ -> ());
  {
    config;
    ladder = rungs;
    rung = List.hd rungs;
    epoch = 0;
    cooldown_left = 0;
    calm_streak = 0;
    pending = None;
    switches = 0;
    flap_suppressed = 0;
    switch_epochs = [];
    residency = Array.make 4 0;
  }

let rung t = t.rung
let admissible t = t.ladder
let switches t = t.switches
let flap_suppressed t = t.flap_suppressed
let switch_epochs t = List.rev t.switch_epochs

let rung_of_epoch ~initial switches epoch =
  List.fold_left (fun acc (e, r) -> if epoch > e then r else acc) initial switches

let residency t =
  List.filter_map
    (fun r ->
      let n = t.residency.(rung_index r) in
      if n > 0 || List.mem r t.ladder then Some (r, n) else None)
    [ Maestro.Ladder.Shared_nothing; Scr; Lock_based; Serial ]

(* position of the current rung in the admissible ladder *)
let pos t =
  let rec go i = function
    | [] -> invalid_arg "Adaptive: current rung left the ladder"
    | r :: _ when r = t.rung -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 t.ladder

let step_down t = List.nth_opt t.ladder (pos t + 1)
let step_up t = if pos t = 0 then None else List.nth_opt t.ladder (pos t - 1)

(* The rung the current observation asks for, hysteresis band applied:
   pressure steps down to the next more conservative rung; only a
   [cooldown + 1]-epoch streak of calm (imbalance below [down], nothing
   dropped or restarted) earns a step back up.  The dead band between
   [down] and [up] holds.

   Dispatch imbalance pressures ONLY the shared-nothing rung: skew
   bottlenecks a sharded pool on the hot core, but SCR sprays batches
   round-robin and the lock/serial rungs funnel through shared state, so
   they are skew-immune by construction — treating would-be RSS skew as
   pressure everywhere would ratchet a skewed trace all the way down to
   serial instead of settling on SCR.  Sustained skew also blocks the
   step back up (calm requires [imbalance < down]), so the pool does not
   bounce back onto the rung the skew just chased it off. *)
let desired t o =
  let skew_pressured =
    t.rung = Maestro.Ladder.Shared_nothing && o.imbalance > t.config.up
  in
  let pressured = skew_pressured || o.drops > 0 || o.restarts > 0 in
  let calm = o.imbalance < t.config.down && o.drops = 0 && o.restarts = 0 in
  if pressured then begin
    t.calm_streak <- 0;
    step_down t
  end
  else if calm then begin
    t.calm_streak <- t.calm_streak + 1;
    if t.calm_streak >= t.config.cooldown + 1 then step_up t else None
  end
  else begin
    t.calm_streak <- 0;
    None
  end

let observe t o =
  t.epoch <- t.epoch + 1;
  t.residency.(rung_index t.rung) <- t.residency.(rung_index t.rung) + 1;
  Telemetry.Counter.incr c_epochs;
  match t.pending with
  | Some r -> Switch r (* a deferred switch retries before fresh analysis *)
  | None -> (
      if t.cooldown_left > 0 then begin
        t.cooldown_left <- t.cooldown_left - 1;
        match desired t o with
        | Some r ->
            t.flap_suppressed <- t.flap_suppressed + 1;
            Telemetry.Counter.incr c_suppressed;
            Suppressed r
        | None -> Stay
      end
      else match desired t o with Some r -> Switch r | None -> Stay)

let commit t r =
  if not (List.mem r t.ladder) then invalid_arg "Adaptive.commit: rung not admissible";
  t.rung <- r;
  t.pending <- None;
  t.cooldown_left <- t.config.cooldown;
  t.calm_streak <- 0;
  t.switches <- t.switches + 1;
  t.switch_epochs <- (t.epoch, r) :: t.switch_epochs;
  Telemetry.Counter.incr c_switches

let defer t r =
  t.pending <- Some r;
  Telemetry.Counter.incr c_deferred
