(** Service-chain composition: flatten a list of NFs into ONE composed
    AST so the whole chain is checked, symbolically executed, sharded
    and staged exactly like a single NF (ROADMAP item 2).

    {2 Verdict routing}

    Stages run in list order against the {e same} packet view: a stage
    that [Forward]s hands the (possibly rewritten) packet to the next
    stage — inside a chain "forward" means "continue", and the
    intermediate egress port is erased — while [Drop] short-circuits the
    rest of the chain.  The final stage's action is the chain's verdict.
    Every stage observes the original ingress port ([In_port] is never
    rewritten), so a per-port RSS key solved for the composed AST steers
    the whole chain consistently.

    {2 Namespacing}

    Flattening renames each stage's state objects, int/record bindings
    and purge pairs under the prefix [s<i>_<name>_].  The prefix keeps
    {!Check.check}'s global-unambiguity rules satisfied (the same NF can
    even appear twice in one chain) and makes every sharding diagnostic
    self-describing: a blocked reason mentioning [s2_nat_nat_ports]
    names the stage that forced the ladder down.

    {2 Fusion}

    Stage [i+1]'s statement tree is spliced in place of every [Forward]
    leaf of stage [i], so {!Compile.stage_runner} on the composed AST
    yields a single closure tree: one packet parse, every stage's record
    layouts baked at stage time, no allocation and no dispatch between
    stages.
    This requires every non-final stage to forward through a constant
    in-range port (all registry NFs do, via [Topo.fwd]); {!compose}
    rejects the chain otherwise. *)

type stage = {
  index : int;  (** position in the chain, 0-based *)
  name : string;  (** the stage NF's own name *)
  prefix : string;  (** namespace prefix applied to its objects/bindings *)
  nf : Ast.t;  (** the original, un-renamed stage NF *)
}

type t = {
  name : string;
  devices : int;
  stages : stage list;
  composed : Ast.t;  (** the flattened chain — use it anywhere an NF goes *)
}

val compose : ?name:string -> Ast.t list -> (t, string) result
(** Flatten the stages, in order, into one NF.  [name] defaults to
    [chain_<s0>_<s1>_...].  Errors (never exceptions): an empty list, a
    stage that fails {!Check.check}, a non-final stage with a
    non-constant or out-of-range forward port, or stages that disagree
    on device count. *)

val compose_exn : ?name:string -> Ast.t list -> t

val nf : t -> Ast.t
(** [nf t = t.composed]. *)

val stage_of_obj : t -> string -> stage option
(** Map a namespaced state-object (or binding) name back to its stage —
    the inverse of the flattening rename, for attributing sharding
    constraints and ladder reasons to stages. *)

val original_obj : t -> string -> (stage * string) option
(** Like {!stage_of_obj} but also strips the prefix. *)

val filter : ?devices:int -> name:string -> Ast.expr -> Ast.t
(** A stateless predicate stage (the NetKAT [Filter] shape): packets
    satisfying the condition continue down the chain, others drop.
    [devices] defaults to 2. *)

val branch : ?name:string -> Ast.expr -> Ast.t -> Ast.t -> (Ast.t, string) result
(** [branch pred a b] — predicate branching with verdict routing: the
    packet traverses [a] when [pred] holds and [b] otherwise, with both
    arms' state namespaced apart.  The result is an ordinary NF, usable
    standalone or as a chain stage.  Errors mirror {!compose}. *)

(** {2 The differential oracle}

    The reference semantics of a chain is the {e sequential interpreter
    composition}: run each stage's original NF through {!Interp.process}
    against its own state instance, thread [Fwd] packets to the next
    stage, stop on [Drop].  Op events are re-namespaced with the stage
    prefix so the event stream is comparable, event for event, with a
    run of the fused AST. *)

type oracle

val oracle : t -> oracle
(** Fresh per-stage instances (full capacity, like any sequential run). *)

val oracle_process : ?on_op:(Interp.op_event -> unit) -> oracle -> Packet.Pkt.t -> Interp.action

val stage_compiled : t -> Compile.staged
(** Stage the fused chain: [Compile.stage_runner] over the composed AST — one
    closure tree for the whole chain. *)
