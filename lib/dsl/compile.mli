(** Staged compilation of NF programs to packet-processing closures.

    {!stage_runner} resolves, once per program, everything {!Interp.process}
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
    what every execution site runs — pool workers, the deterministic
    runtime, the simulator (paper §7: the per-core packet loop is what
    sharding leaves on the critical path). *)

type staged
(** A staged program: instance-independent, reusable across binds. *)

type runner
(** A staged program bound to one {!Instance} with its own execution
    frame.  A runner is single-threaded — bind once per worker; binds
    over the same instance share state but not frames. *)

val stage_runner : Ast.t -> Check.info -> staged
(** One-time compilation, timed under the [compile.stage] telemetry
    span. *)

val bind_runner : staged -> Instance.t -> runner
(** Resolve container objects and preallocate the frame.  Raises
    [Invalid_argument] if the instance lacks an object the program
    uses or binds it to the wrong kind. *)

val make_runner : Ast.t -> Check.info -> Instance.t -> runner
(** [bind_runner (stage_runner nf info) instance]. *)

val run : ?on_op:(Interp.op_event -> unit) -> runner -> Packet.Pkt.t -> Interp.action
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
