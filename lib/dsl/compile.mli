(** Staged compilation of NF programs to packet-processing closures.

    {!stage} resolves, once per program, everything {!Interp.process}
    re-derives per packet: variable and record bindings become fixed
    slots in a preallocated frame, expression widths become baked-in
    mask constants, record layouts become field indices, constants,
    variables and outer header fields are read in place, and container
    keys of up to {!State.Key.max_packed_bytes} bytes — the 12-byte flow
    5-tuple included — are packed with shifts and masks worked out at
    stage time into {!State.Key} int pairs driving the allocation-free
    [_packed] operations of {!State.Map_s} and {!State.Sketch} (wider
    keys keep the string path, serialized through a per-site key
    buffer).

    The compiled closure is observationally identical to the
    interpreter — same verdicts, same [on_op] event stream, same
    {!Interp.Runtime_error} conditions — which the differential suite
    in [test/test_compile.ml] checks against every shipped NF.  The
    interpreter remains the reference semantics; the compiled path is
    the per-core datapath the runtime uses by default (paper §7: the
    per-core packet loop is what sharding leaves on the critical
    path). *)

type t
(** A staged program: instance-independent, reusable across binds. *)

type bound
(** A staged program bound to one {!Instance} with its own execution
    frame.  A [bound] value is single-threaded — bind once per worker;
    binds over the same instance share state but not frames. *)

val stage : Ast.t -> Check.info -> t
(** One-time compilation, timed under the [compile.stage] telemetry
    span. *)

val bind : t -> Instance.t -> bound
(** Resolve container objects and preallocate the frame.  Raises
    [Invalid_argument] if the instance lacks an object the program
    uses or binds it to the wrong kind. *)

val process :
  ?on_op:(Interp.op_event -> unit) -> bound -> Packet.Pkt.t -> Interp.action
(** Run one packet.  Same contract as {!Interp.process}.

    Allocation: without [on_op], a call allocates only what the NF asks
    for — the [Fwd] verdict block and one packet copy per header rewrite.
    Container operations and expiry allocate nothing on NFs whose keys all
    pack; a key over 14 bytes costs one string per [put] and per purged
    flow.

    Observer: without [on_op], no observer is written or called and no
    event is built.  With [on_op], it sees exactly the interpreter's event
    stream, and it is uninstalled when the call returns or raises, so a
    later unobserved call never reaches it. *)

(** {1 Execution-path dispatch}

    Every execution site (pool workers, the deterministic runtime, the
    simulator, the CLI) selects interpreter vs compiled through a
    [runner], so one switch — [--compiled-nf] / [--interp] — controls
    them all. *)

val set_default : bool -> unit
(** Process-wide default for {!stage_runner} and {!make_runner} when
    [?compiled] is omitted.  Initially [true]. *)

val default_enabled : unit -> bool

type staged
(** A runner before instance binding: stage once, bind per worker. *)

type runner

val stage_runner : ?compiled:bool -> Ast.t -> Check.info -> staged

val bind_runner : staged -> Instance.t -> runner

val make_runner : ?compiled:bool -> Ast.t -> Check.info -> Instance.t -> runner

val run : ?on_op:(Interp.op_event -> unit) -> runner -> Packet.Pkt.t -> Interp.action

val is_compiled : runner -> bool
