(** The execution tree extracted by exhaustive symbolic execution —
    the paper's "model" (§3.3): every node is a branch condition, a stateful
    operation, or a packet operation, and every node carries the constraints
    that lead to it. *)

type path = (Sym.t * bool) list
(** Branch conditions taken so far, oldest first, with the polarity taken. *)

(** One stateful call site as observed on one path. *)
type call = {
  id : int;  (** unique per (port, path, site) *)
  port : int;  (** device whose symbolic packet triggered it *)
  obj : string;
  kind : Dsl.Interp.op_kind;
  key : Sym.t list option;  (** map/sketch ops: symbolic key parts *)
  index : Sym.t option;  (** vector/chain ops: symbolic index *)
  stored : (string * Sym.t) list;  (** vec_set: fields written; map_put: [("value", v)] *)
  path : path;  (** constraints under which the call happens *)
}

type action =
  | Forward of Sym.t * (Packet.Field.t * Sym.t) list
      (** output device and the header rewrites applied *)
  | Drop

type t =
  | Branch of { cond : Sym.t; t_true : t; t_false : t }
  | Call_node of call * t
  | Action_node of { action : action; path : path }

val leaves : t -> (action * path) list
(** All packet operations with their path constraints. *)

val all_calls : t -> call list
(** Every stateful call in the tree, in traversal order. *)

val count_paths : t -> int

val continuation_of_call : t -> int -> t option
(** The subtree that follows the call with the given id, when present. *)

val find_branch : t -> (Sym.t -> bool) -> (Sym.t * t * t) option
(** Depth-first search for the first branch whose condition satisfies the
    predicate; returns condition and both subtrees. *)

val leaf_action_set : t -> action list
(** The distinct actions reachable in the tree (sorted, deduplicated) — the
    basis for the behavioural-equivalence checks of rule R5. *)

val pp : Format.formatter -> t -> unit
(** Renders the tree with indentation, for diagnostics and the CLI. *)
