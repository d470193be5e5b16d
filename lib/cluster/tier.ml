(* The cluster front tier.  See tier.mli for the model; the shape of the
   code mirrors the single-machine runtime: a build step that solves keys
   and stages the NF once, and a run step that is a plain dispatch loop
   with all churn handling pushed to epoch boundaries. *)

type config = {
  machines : int;
  table_size : int;
  epoch_pkts : int;
  seed : int;
  request : Maestro.Pipeline.request;
}

let default_config =
  {
    machines = 4;
    table_size = 251;
    epoch_pkts = 4096;
    seed = 7;
    request = Maestro.Pipeline.default_request;
  }

type machine = {
  id : int;
  inst : Dsl.Instance.t;
  runner : Dsl.Compile.runner;
  mutable up : bool;
  mutable pkts : int;
  mutable churned : bool; (* joined late, left, or failed: excluded from imbalance *)
}

type t = {
  nf : Dsl.Ast.t;
  cfg : config;
  outcome : Maestro.Pipeline.outcome;
  engines : Nic.Rss.t array; (* front tier, one per port *)
  key_attempts : int;
  key_free_bits : int;
  mplan : Runtime.Balancer.migration_plan;
  scr : Runtime.Scr.t option;
  staged : Dsl.Compile.staged;
  placeholder : Dsl.Instance.t; (* empty stand-in for unoccupied slots *)
  mutable table : Maglev.t;
  mutable slots : machine option array; (* index = machine id *)
}

type event_log = {
  at_epoch : int;
  action : Faults.machine_action;
  machine : int;
  disruption : float;
  moved : int;
  dropped : int;
  rebuilt : int;
  lost : int;
}

type stats = {
  pkts : int;
  unmatched : int;
  machine_pkts : (int * int) list;
  events : event_log list;
  moved_flows : int;
  dropped_flows : int;
  rebuilt_flows : int;
  lost_flows : int;
  dead_hits : int;
  affinity_violations : int;
  imbalance_x100 : int;
}

let scale_out_ok (plan : Maestro.Plan.t) =
  match plan.strategy with
  | Maestro.Plan.Shared_nothing | Maestro.Plan.Load_balance -> true
  | Maestro.Plan.Scr | Maestro.Plan.Lock_based | Maestro.Plan.Tm_based -> false

(* The second-level key: same constraints, fresh solve.  A different seed
   from the per-machine solve keeps the two keys independent — the
   machine-level hash must not be a function of the core-level hash, or
   the front tier would see only [cores] distinct values per machine. *)
let solve_front_key cfg (nf : Dsl.Ast.t) (plan : Maestro.Plan.t) =
  let nic = cfg.request.Maestro.Pipeline.nic in
  match plan.constraints with
  | [] ->
      let rng = Random.State.make [| cfg.seed; 0x9a61e7 |] in
      Ok
        ( Array.init nf.Dsl.Ast.devices (fun _ ->
              Nic.Rss.configure ~nic ~key:(Nic.Rss.random_key rng nic)
                ~sets:[ Nic.Field_set.ipv4_tcp ] ~queues:1 ()),
          0,
          0 )
  | cstrs -> (
      match Rs3.Problem.for_constraints ~nic ~nports:nf.Dsl.Ast.devices cstrs with
      | Error e -> Error ("cluster: front-tier key: " ^ e)
      | Ok problem -> (
          match
            Rs3.Solve.solve ~backend:cfg.request.Maestro.Pipeline.solver
              ~seed:(cfg.seed lxor 0x5a5a5a) problem
          with
          | Error (_, e) -> Error ("cluster: front-tier key solve failed: " ^ e)
          | Ok sol ->
              Ok
                ( Array.mapi
                    (fun port key ->
                      Nic.Rss.configure ~nic ~key
                        ~sets:[ problem.Rs3.Problem.field_sets.(port) ]
                        ~queues:1 ())
                    sol.Rs3.Solve.keys,
                  sol.Rs3.Solve.attempts,
                  sol.Rs3.Solve.free_bits )))

let fresh_machine t id =
  let inst = Dsl.Instance.create t.nf in
  { id; inst; runner = Dsl.Compile.bind_runner t.staged inst; up = true; pkts = 0; churned = false }

let live_ids t =
  Array.to_list t.slots
  |> List.filter_map (function Some m when m.up -> Some m.id | _ -> None)

let build_table t = Maglev.build ~size:t.cfg.table_size ~machines:(live_ids t) ()

let build ?(config = default_config) nf =
  if config.machines < 1 then invalid_arg "Tier.build: machines must be >= 1";
  if config.epoch_pkts < 1 then invalid_arg "Tier.build: epoch_pkts must be >= 1";
  match Maestro.Pipeline.parallelize ~request:config.request nf with
  | Error e -> Error ("cluster: per-machine plan failed: " ^ e)
  | Ok outcome ->
      if not (scale_out_ok outcome.Maestro.Pipeline.plan) then
        Error
          (Printf.sprintf
             "cluster: the %s rung shares state across the cores of one machine and cannot \
              scale out exactly; only shared-nothing and load-balance plans can"
             (Maestro.Plan.strategy_name outcome.Maestro.Pipeline.plan.Maestro.Plan.strategy))
      else
        (match solve_front_key config nf outcome.Maestro.Pipeline.plan with
        | Error e -> Error e
        | Ok (engines, key_attempts, key_free_bits) ->
            let check = Dsl.Check.check_exn nf in
            let t =
              {
                nf;
                cfg = config;
                outcome;
                engines;
                key_attempts;
                key_free_bits;
                mplan = Runtime.Balancer.migration_plan nf;
                scr =
                  (match Maestro.Scrspec.admissible nf with
                  | Ok spec -> Some (Runtime.Scr.prepare spec)
                  | Error _ -> None);
                staged = Dsl.Compile.stage_runner nf check;
                placeholder = Dsl.Instance.create nf;
                table = Maglev.build ~size:config.table_size ~machines:[ 0 ] ();
                slots = [||];
              }
            in
            t.slots <- Array.init config.machines (fun id -> Some (fresh_machine t id));
            t.table <- build_table t;
            Ok t)

let plan t = t.outcome.Maestro.Pipeline.plan
let outcome t = t.outcome
let table t = t.table
let live_machines t = live_ids t
let key_attempts t = t.key_attempts
let key_free_bits t = t.key_free_bits
let scr_admissible t = t.scr <> None

let front_hash t (pkt : Packet.Pkt.t) = Nic.Rss.hash_of t.engines.(pkt.Packet.Pkt.port) pkt

let owner_of_hash table = function
  | Some h -> Maglev.lookup table h
  | None -> Maglev.slot_owner table 0 (* the default-queue convention, one level up *)

(* flows currently resident on an instance = allocated chain cells (the
   NF's flow tables all hang off chains; lone read-mostly maps are not
   per-flow state worth counting twice) *)
let resident_flows t inst =
  List.fold_left
    (fun acc decl ->
      match decl with
      | Dsl.Ast.Decl_chain { name; _ } -> (
          match Dsl.Instance.find inst name with
          | Dsl.Instance.O_chain c -> acc + State.Dchain.allocated c
          | _ -> acc)
      | _ -> acc)
    0 t.nf.Dsl.Ast.state

let ensure_slot t id =
  if id >= Array.length t.slots then begin
    let bigger = Array.make (id + 1) None in
    Array.blit t.slots 0 bigger 0 (Array.length t.slots);
    t.slots <- bigger
  end

let instances t = Array.map (function Some m -> m.inst | None -> t.placeholder) t.slots

let migrate_all t =
  let hash pkt = front_hash t pkt in
  Runtime.Balancer.migrate_by t.mplan ~hash
    ~owner:(fun h -> Maglev.lookup t.table h)
    ~instances:(instances t)

(* The reset keeps the instance's containers, so [m.runner] stays bound. *)
let reset_machine t m = Dsl.Instance.reset m.inst t.nf

(* Rebuild a failed machine's replica from the digest log: replay, in
   arrival order, exactly the log entries whose pseudo-packet the dead
   machine owned under the pre-failure table.  SCR's trajectory-equality
   guarantee makes the scratch replica structurally identical to the
   state the machine had (including expiry, which the write-slice drives
   from the logged timestamps). *)
let replay_into t m ~old_table ~log ~log_len =
  match t.scr with
  | None -> 0
  | Some prog ->
      let stride = Runtime.Scr.ints_per_pkt prog in
      if stride = 0 || log_len = 0 then 0
      else begin
        let repl = Runtime.Scr.bind prog m.inst in
        for k = 0 to (log_len / stride) - 1 do
          let off = k * stride in
          let pkt = Runtime.Scr.decode prog log off in
          if owner_of_hash old_table (front_hash t pkt) = m.id then
            Runtime.Scr.apply repl log off
        done;
        resident_flows t m.inst
      end

let apply_event t ~epoch ~action ~machine:id ~log ~log_len events =
  let record ~disruption ~moved ~dropped ~rebuilt ~lost =
    events :=
      { at_epoch = epoch; action; machine = id; disruption; moved; dropped; rebuilt; lost }
      :: !events
  in
  let slot id = if id < Array.length t.slots then t.slots.(id) else None in
  match action with
  | Faults.Join -> (
      match slot id with
      | Some m when m.up -> () (* already live: no-op *)
      | _ ->
          ensure_slot t id;
          let m = fresh_machine t id in
          m.churned <- true;
          t.slots.(id) <- Some m;
          let old = t.table in
          t.table <- build_table t;
          let d = Maglev.disruption old t.table in
          let o = migrate_all t in
          record ~disruption:d ~moved:o.Runtime.Balancer.moved_flows
            ~dropped:o.Runtime.Balancer.dropped_flows ~rebuilt:0 ~lost:0)
  | Faults.Leave -> (
      match slot id with
      | Some m when m.up && List.length (live_ids t) > 1 ->
          m.up <- false;
          m.churned <- true;
          let old = t.table in
          t.table <- build_table t;
          let d = Maglev.disruption old t.table in
          (* m's instance is still in the slot array, so migrate_by walks
             it as a source; the new table never returns m as an owner *)
          let o = migrate_all t in
          reset_machine t m;
          record ~disruption:d ~moved:o.Runtime.Balancer.moved_flows
            ~dropped:o.Runtime.Balancer.dropped_flows ~rebuilt:0 ~lost:0
      | _ -> () (* unknown, already down, or last machine: no-op *))
  | Faults.Fail -> (
      match slot id with
      | Some m when m.up && List.length (live_ids t) > 1 ->
          m.up <- false;
          m.churned <- true;
          let old_table = t.table in
          t.table <- build_table t;
          let d = Maglev.disruption old_table t.table in
          let lost = if t.scr = None then resident_flows t m.inst else 0 in
          (* the machine's state is gone: reset, then rebuild what the
             digest log can prove it held *)
          reset_machine t m;
          let rebuilt = replay_into t m ~old_table ~log ~log_len in
          let o = migrate_all t in
          reset_machine t m;
          record ~disruption:d ~moved:o.Runtime.Balancer.moved_flows
            ~dropped:o.Runtime.Balancer.dropped_flows ~rebuilt ~lost
      | _ -> ())

let run t trace =
  let n = Array.length trace in
  let verdicts = Array.make n Dsl.Interp.Dropped in
  let schedule = ref (Faults.machine_events ()) in
  let events = ref [] in
  let unmatched = ref 0 and dead_hits = ref 0 and affinity_violations = ref 0 in
  (* digest log: flat segments in arrival order, grown geometrically *)
  let stride = match t.scr with Some p -> Runtime.Scr.ints_per_pkt p | None -> 0 in
  let log = ref (Array.make (max 1 (stride * 4096)) 0) in
  let log_len = ref 0 in
  (* flow -> machine since the last churn event; any event legitimately
     reassigns flows, so the map restarts there *)
  let aff : (Packet.Flow.t, int) Hashtbl.t = Hashtbl.create 4096 in
  for i = 0 to n - 1 do
    if i mod t.cfg.epoch_pkts = 0 then begin
      let epoch = i / t.cfg.epoch_pkts in
      let fired = ref false in
      let rec drain () =
        match !schedule with
        | (e, action, machine) :: rest when e <= epoch ->
            schedule := rest;
            apply_event t ~epoch:e ~action ~machine ~log:!log ~log_len:!log_len events;
            fired := true;
            drain ()
        | _ -> ()
      in
      drain ();
      if !fired then Hashtbl.reset aff
    end;
    let pkt = trace.(i) in
    let h = front_hash t pkt in
    if h = None then incr unmatched;
    let o = owner_of_hash t.table h in
    let m =
      match t.slots.(o) with
      | Some m when m.up -> m
      | _ ->
          incr dead_hits;
          (* should be unreachable: the table only maps live machines *)
          let live = live_ids t in
          Option.get t.slots.(List.hd live)
    in
    let flow = Packet.Flow.normalize (Packet.Flow.of_pkt pkt) in
    (match Hashtbl.find_opt aff flow with
    | Some prev when prev <> m.id -> incr affinity_violations
    | Some _ -> ()
    | None -> Hashtbl.replace aff flow m.id);
    m.pkts <- m.pkts + 1;
    verdicts.(i) <- Dsl.Compile.run m.runner pkt;
    (match t.scr with
    | Some prog ->
        if !log_len + stride > Array.length !log then begin
          let bigger = Array.make (2 * Array.length !log) 0 in
          Array.blit !log 0 bigger 0 !log_len;
          log := bigger
        end;
        Runtime.Scr.encode prog pkt !log !log_len;
        log_len := !log_len + stride
    | None -> ())
  done;
  let events = List.rev !events in
  let machine_pkts =
    Array.to_list t.slots
    |> List.filter_map (function
         | Some (m : machine) when m.pkts > 0 || m.up -> Some (m.id, m.pkts)
         | _ -> None)
  in
  let steady = Array.to_list t.slots |> List.filter_map Fun.id |> List.filter (fun m -> not m.churned) in
  let imbalance_x100 =
    match steady with
    | [] -> 0
    | ms ->
        let counts = List.map (fun (m : machine) -> m.pkts) ms in
        let mx = List.fold_left max 0 counts in
        let mean = float_of_int (List.fold_left ( + ) 0 counts) /. float_of_int (List.length counts) in
        if mean <= 0. then 0 else int_of_float (100. *. float_of_int mx /. mean)
  in
  let sum f = List.fold_left (fun acc e -> acc + f e) 0 events in
  ( verdicts,
    {
      pkts = n;
      unmatched = !unmatched;
      machine_pkts;
      events;
      moved_flows = sum (fun e -> e.moved);
      dropped_flows = sum (fun e -> e.dropped);
      rebuilt_flows = sum (fun e -> e.rebuilt);
      lost_flows = sum (fun e -> e.lost);
      dead_hits = !dead_hits;
      affinity_violations = !affinity_violations;
      imbalance_x100;
    } )
