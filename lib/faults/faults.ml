type event =
  | Worker_crash of { core : int; batch : int; times : int }
  | Slow_worker of { core : int; from_batch : int; spins : int }
  | Ring_stall of { core : int; batch : int; spins : int }
  | Solver_budget of { conflicts : int; propagations : int }
  | Phase_shift of { epoch : int; profile : string }
  | Machine_join of { epoch : int; machine : int }
  | Machine_leave of { epoch : int; machine : int }
  | Machine_fail of { epoch : int; machine : int }

type machine_action = Join | Leave | Fail

type plan = { label : string; events : event list }

exception Injected_crash of { core : int; batch : int }

let c_crashes =
  Telemetry.Counter.make "faults.injected_crashes" ~doc:"worker crashes injected by fault plans"

let c_slow =
  Telemetry.Counter.make "faults.injected_slow_batches"
    ~doc:"batches delayed by slow-worker fault events"

let c_stalls =
  Telemetry.Counter.make "faults.injected_stalls" ~doc:"one-shot consumer stalls injected"

let c_budget =
  Telemetry.Counter.make "faults.solver_budget_overrides"
    ~doc:"solver budgets overridden by fault plans"

(* Compiled plan: one-shot state lives in mutable fields.  Each crash/stall
   event targets a single core, and only that core's worker domain mutates
   its state, so no synchronization beyond the publication of [current] is
   needed. *)

type crash_state = { c_core : int; c_batch : int; mutable c_remaining : int }
type stall_state = { st_core : int; st_batch : int; st_spins : int; mutable st_fired : bool }

type compiled = {
  plan : plan;
  crashes : crash_state list;
  slows : (int * int * int) list; (* core, from_batch, spins *)
  stalls : stall_state list;
  budget : (int * int) option;
  phases : (int * string) list; (* ascending by epoch *)
  machines : (int * machine_action * int) list; (* epoch, action, machine; ascending *)
}

let current : compiled option Atomic.t = Atomic.make None

let compile plan =
  let crashes, slows, stalls, budget, phases, machines =
    List.fold_left
      (fun (cs, sl, st, b, ph, mc) ev ->
        match ev with
        | Worker_crash { core; batch; times } ->
            ({ c_core = core; c_batch = batch; c_remaining = times } :: cs, sl, st, b, ph, mc)
        | Slow_worker { core; from_batch; spins } ->
            (cs, (core, from_batch, spins) :: sl, st, b, ph, mc)
        | Ring_stall { core; batch; spins } ->
            ( cs,
              sl,
              { st_core = core; st_batch = batch; st_spins = spins; st_fired = false } :: st,
              b,
              ph,
              mc )
        | Solver_budget { conflicts; propagations } ->
            (cs, sl, st, Some (conflicts, propagations), ph, mc)
        | Phase_shift { epoch; profile } -> (cs, sl, st, b, (epoch, profile) :: ph, mc)
        | Machine_join { epoch; machine } -> (cs, sl, st, b, ph, (epoch, Join, machine) :: mc)
        | Machine_leave { epoch; machine } -> (cs, sl, st, b, ph, (epoch, Leave, machine) :: mc)
        | Machine_fail { epoch; machine } -> (cs, sl, st, b, ph, (epoch, Fail, machine) :: mc))
      ([], [], [], None, [], []) plan.events
  in
  {
    plan;
    crashes = List.rev crashes;
    slows = List.rev slows;
    stalls = List.rev stalls;
    budget;
    phases = List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev phases);
    machines =
      List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b) (List.rev machines);
  }

let install plan = Atomic.set current (Some (compile plan))
let clear () = Atomic.set current None
let active () = Atomic.get current <> None

let installed () =
  match Atomic.get current with None -> None | Some c -> Some c.plan

let spin n =
  for _ = 1 to n do
    Domain.cpu_relax ()
  done

let worker_batch ~core ~batch =
  match Atomic.get current with
  | None -> ()
  | Some c ->
      List.iter
        (fun (sc, from, spins) ->
          if sc = core && batch >= from then begin
            Telemetry.Counter.incr c_slow;
            spin spins
          end)
        c.slows;
      List.iter
        (fun st ->
          if st.st_core = core && batch >= st.st_batch && not st.st_fired then begin
            st.st_fired <- true;
            Telemetry.Counter.incr c_stalls;
            spin st.st_spins
          end)
        c.stalls;
      List.iter
        (fun cr ->
          if cr.c_core = core && batch >= cr.c_batch && cr.c_remaining > 0 then begin
            cr.c_remaining <- cr.c_remaining - 1;
            Telemetry.Counter.incr c_crashes;
            raise (Injected_crash { core; batch })
          end)
        c.crashes

let solver_budget () =
  match Atomic.get current with
  | Some { budget = Some b; _ } ->
      Telemetry.Counter.incr c_budget;
      Some b
  | _ -> None

let phases () =
  match Atomic.get current with None -> [] | Some c -> c.phases

let machine_events () =
  match Atomic.get current with None -> [] | Some c -> c.machines

(* --- parsing ---------------------------------------------------------------- *)

let pp_event fmt = function
  | Worker_crash { core; batch; times } ->
      Format.fprintf fmt "crash@%d:%d%s" core batch
        (if times = 1 then "" else Printf.sprintf "x%d" times)
  | Slow_worker { core; from_batch; spins } -> Format.fprintf fmt "slow@%d:%d:%d" core from_batch spins
  | Ring_stall { core; batch; spins } -> Format.fprintf fmt "stall@%d:%d:%d" core batch spins
  | Solver_budget { conflicts; propagations } ->
      Format.fprintf fmt "satbudget@%d:%d" conflicts propagations
  | Phase_shift { epoch; profile } -> Format.fprintf fmt "phase@%d:%s" epoch profile
  | Machine_join { epoch; machine } -> Format.fprintf fmt "join@%d:%d" epoch machine
  | Machine_leave { epoch; machine } -> Format.fprintf fmt "leave@%d:%d" epoch machine
  | Machine_fail { epoch; machine } -> Format.fprintf fmt "fail@%d:%d" epoch machine

let parse spec =
  let ( let* ) = Result.bind in
  let int_of tok what =
    match int_of_string_opt tok with
    | Some i when i >= 0 -> Ok i
    | _ -> Error (Printf.sprintf "fault plan: bad %s %S" what tok)
  in
  let parse_event ev =
    match String.index_opt ev '@' with
    | None -> Error (Printf.sprintf "fault plan: missing '@' in %S" ev)
    | Some at -> (
        let kind = String.sub ev 0 at in
        let args =
          String.sub ev (at + 1) (String.length ev - at - 1) |> String.split_on_char ':'
        in
        match (kind, args) with
        | "crash", [ core; batch_times ] ->
            let batch, times =
              match String.index_opt batch_times 'x' with
              | None -> (batch_times, "1")
              | Some x ->
                  ( String.sub batch_times 0 x,
                    String.sub batch_times (x + 1) (String.length batch_times - x - 1) )
            in
            let* core = int_of core "core" in
            let* batch = int_of batch "batch" in
            let* times = int_of times "times" in
            Ok (Worker_crash { core; batch; times = max 1 times })
        | "slow", [ core; from_batch; spins ] ->
            let* core = int_of core "core" in
            let* from_batch = int_of from_batch "from-batch" in
            let* spins = int_of spins "spins" in
            Ok (Slow_worker { core; from_batch; spins })
        | "stall", [ core; batch; spins ] ->
            let* core = int_of core "core" in
            let* batch = int_of batch "batch" in
            let* spins = int_of spins "spins" in
            Ok (Ring_stall { core; batch; spins })
        | "satbudget", [ conflicts; propagations ] ->
            let* conflicts = int_of conflicts "conflicts" in
            let* propagations = int_of propagations "propagations" in
            Ok (Solver_budget { conflicts; propagations })
        | "phase", [ epoch; profile ] ->
            let* epoch = int_of epoch "epoch" in
            if profile = "" then Error (Printf.sprintf "fault plan: empty profile in %S" ev)
            else Ok (Phase_shift { epoch; profile })
        | "join", [ epoch; machine ] ->
            let* epoch = int_of epoch "epoch" in
            let* machine = int_of machine "machine" in
            Ok (Machine_join { epoch; machine })
        | "leave", [ epoch; machine ] ->
            let* epoch = int_of epoch "epoch" in
            let* machine = int_of machine "machine" in
            Ok (Machine_leave { epoch; machine })
        | "fail", [ epoch; machine ] ->
            let* epoch = int_of epoch "epoch" in
            let* machine = int_of machine "machine" in
            Ok (Machine_fail { epoch; machine })
        | _ ->
            Error
              (Printf.sprintf
                 "fault plan: unknown event %S (expected crash@C:B[xT], slow@C:F:S, stall@C:B:S, \
                  satbudget@C:P, phase@E:PROFILE, join@E:M, leave@E:M or fail@E:M)"
                 ev))
  in
  let events =
    String.split_on_char ';' spec |> List.map String.trim |> List.filter (( <> ) "")
  in
  if events = [] then Error "fault plan: empty specification"
  else
    List.fold_left
      (fun acc ev ->
        let* acc = acc in
        let* ev = parse_event ev in
        Ok (ev :: acc))
      (Ok []) events
    |> Result.map (fun evs -> { label = spec; events = List.rev evs })
