(** Allocated state for one NF instance.

    The sequential NF uses a single instance; a shared-nothing parallel NF
    uses one instance per core with capacities divided so the total memory
    stays constant (paper §4, "State sharding"); lock-based and TM NFs share
    one full-capacity instance between cores. *)

type record = int array
(** A snapshot of one vector slot, fields in layout order. *)

type vector = {
  layout : (string * int) list;  (** field names and bit widths *)
  stride : int;  (** ints per slot: the layout's length *)
  capacity : int;  (** slots *)
  slots : int array;
      (** every slot in one flat array: field [j] of slot [i] is at
          [i * stride + j], so creating a vector allocates one block, not
          one per slot *)
}

type obj =
  | O_map of State.Map_s.t
  | O_vector of vector
  | O_chain of State.Dchain.t
  | O_sketch of State.Sketch.t

type t

val create : ?divide:int -> Ast.t -> t
(** [divide] (default 1) scales every capacity down to
    [max 1 (capacity / divide)]; sketch dimensions are kept (a sketch is an
    estimator, not an allocator).  Map [init] entries are loaded into every
    instance — static configuration is replicated, as Maestro's generated
    code replicates read-only state. *)

val find : t -> string -> obj
(** Raises [Not_found] for undeclared objects (excluded by {!Check}). *)

val record : vector -> int -> record
(** [record v i] copies slot [i] out of [v]. *)

val memory_bytes : t -> string -> int
(** Approximate resident bytes of one object, for the cache model. *)

val total_memory_bytes : t -> int

val copy : t -> t
(** Deep, structurally-exact duplicate of every object: dchain free-list
    and recency order, map probe layouts, vector slots and sketch counters
    are all preserved, so two copies driven by the same operation sequence
    evolve in lockstep ({!State.Dchain.copy}).  Discipline switching uses
    this to seed SCR replicas from migrated state and to clone a lock-rung
    instance into per-replica state. *)

val reset : t -> Ast.t -> unit
(** [reset t nf] restores the start-up state of [t], an instance of [nf],
    in place: maps are emptied and get their [init] entries again, vector
    slots are zeroed, chains free every index ({!State.Dchain.reset}) and
    sketches zero their counters.  A reset instance holds the bindings,
    free lists, recency order, vector slots and sketch counters of
    [create ~divide nf] for the [divide] [t] was created with, and answers
    every packet as that fresh instance does.  Its maps keep the tables
    they grew to ({!State.Map_s.clear}), as Maestro's generated NFs
    allocate their maps once in [init()]: a warm run does not regrow
    them.  So a map's slot order is its own history; walks that must not
    see it use {!State.Map_s.entries}, in key order.  The containers are
    the same ones, so runners and SCR replayers bound to [t] stay
    bound. *)
