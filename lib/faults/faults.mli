(** Deterministic fault injection for the runtime and the solver.

    A fault {e plan} is a small, seeded description of what should go
    wrong and when: a worker domain crashing at its Nth batch, a worker
    slowing down, a consumer stalling so its ring fills, or the SAT
    search being forced to exhaust its budget.  Plans are installed
    process-wide; the hooks below are called from the hot paths
    ({!Runtime.Pool}'s worker loop, {!Sat.Solver.solve}) and cost a
    single atomic load when no plan is installed, so production runs pay
    nothing.

    Fault events are deterministic functions of (core, batch) or of the
    solve call — never of wall-clock time — so every recovery path
    (supervisor restart, indirection-table remap, backpressure,
    degradation ladder) is exercised reproducibly by tests and by the
    [fault-smoke] CI job. *)

type event =
  | Worker_crash of { core : int; batch : int; times : int }
      (** Raise {!Injected_crash} in core [core]'s worker loop on every
          batch attempt with index [>= batch], at most [times] times.
          [times > max_restarts] exhausts the supervisor's restart
          budget and forces a permanent core failure. *)
  | Slow_worker of { core : int; from_batch : int; spins : int }
      (** Burn [spins] extra [Domain.cpu_relax] iterations on every
          batch with index [>= from_batch] — a degraded-but-live core. *)
  | Ring_stall of { core : int; batch : int; spins : int }
      (** A one-shot long pause ([spins] relax iterations) before batch
          [batch]: the consumer freezes, the ring fills, and the
          producer's backpressure policy decides what happens. *)
  | Solver_budget of { conflicts : int; propagations : int }
      (** Override the budget of every {!Sat.Solver.solve} call,
          forcing [Unknown] and the pipeline's degradation ladder. *)
  | Phase_shift of { epoch : int; profile : string }
      (** Declare that the trace changes traffic profile (e.g. ["calm"],
          ["skew"]) from epoch [epoch] on.  Purely descriptive: no hook
          fires — trace builders ({!Traffic}, the adaptive bench) read the
          schedule back via {!phases} so the same plan string drives both
          the workload and the faults injected into it. *)
  | Machine_join of { epoch : int; machine : int }
      (** A machine joins the cluster front tier at epoch [epoch].  Like
          {!Phase_shift}, descriptive: the cluster tier reads the schedule
          back via {!machine_events} and performs the maglev-table rebuild
          and flow-state migration at the epoch boundary. *)
  | Machine_leave of { epoch : int; machine : int }
      (** Graceful decommission: the machine's flow state is migrated to
          the surviving owners before it stops taking traffic. *)
  | Machine_fail of { epoch : int; machine : int }
      (** Abrupt machine death: its local state is lost and must be
          rebuilt from SCR digests (when the NF admits a digest program)
          before the survivors take over its flows. *)

type machine_action = Join | Leave | Fail

type plan = { label : string; events : event list }

exception Injected_crash of { core : int; batch : int }
(** The exception raised by {!worker_batch} for {!Worker_crash} events.
    It deliberately escapes the task body so the worker's exception
    barrier and the supervisor see a real worker death. *)

val install : plan -> unit
(** Install [plan] process-wide, replacing any previous plan and
    resetting its one-shot state. *)

val clear : unit -> unit
(** Remove the installed plan; all hooks become no-ops again. *)

val active : unit -> bool

val installed : unit -> plan option

val parse : string -> (plan, string) result
(** Parse the CLI fault-plan syntax: semicolon-separated events

    - [crash@CORE:BATCH] or [crash@CORE:BATCHxTIMES]
    - [slow@CORE:FROM:SPINS]
    - [stall@CORE:BATCH:SPINS]
    - [satbudget@CONFLICTS:PROPS]
    - [phase@EPOCH:PROFILE]
    - [join@EPOCH:MACHINE], [leave@EPOCH:MACHINE], [fail@EPOCH:MACHINE]

    e.g. ["crash@1:3;slow@2:0:500;satbudget@0:0"],
    ["phase@0:calm;phase@4:skew;crash@2:60"] or
    ["join@2:8;leave@4:0;fail@6:3"]. *)

val pp_event : Format.formatter -> event -> unit

(** {1 Hooks} — called by the instrumented subsystems. *)

val worker_batch : core:int -> batch:int -> unit
(** Called by the pool worker loop before executing a batch, with the
    worker's monotonic attempt index (it keeps counting across
    supervisor restarts).  May spin (slow worker / ring stall) or raise
    {!Injected_crash}.  A no-op when no plan is installed. *)

val solver_budget : unit -> (int * int) option
(** The forced [(conflicts, propagations)] solver budget, if the
    installed plan carries a {!Solver_budget} event. *)

val phases : unit -> (int * string) list
(** The installed plan's {!Phase_shift} schedule, ascending by epoch;
    empty when no plan (or no phase events) is installed. *)

val machine_events : unit -> (int * machine_action * int) list
(** The installed plan's machine churn schedule as
    [(epoch, action, machine)] triples, ascending by epoch; empty when no
    plan (or no machine events) is installed.  Like {!phases} this is
    descriptive — the cluster tier applies it at epoch boundaries. *)
