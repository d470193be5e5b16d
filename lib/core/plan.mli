(** A parallelization plan: everything the generated parallel NF needs —
    the strategy, per-port RSS configurations, and the state layout rules.
    This is the "generated implementation" in data form; {!Codegen} renders
    it as runnable per-core workers and as C-like source (paper Fig. 13). *)

type strategy =
  | Shared_nothing
      (** per-core state instances, capacities divided, no coordination *)
  | Scr
      (** state-compute replication: per-core {e full} replicas, every
          core replays the other cores' state updates from a per-packet
          digest broadcast by the dispatcher — no shared writes, no
          locks ({!Scrspec}) *)
  | Lock_based
      (** one shared state, the custom per-core read/write lock, speculative
          read → restart-on-write, per-core aging for rejuvenation (§3.6) *)
  | Tm_based
      (** one shared state, restricted transactions with retry and global
          fallback lock (§6) *)
  | Load_balance
      (** no writable state: RSS spreads traffic, state is replicated
          read-only *)

val strategy_name : strategy -> string
(** Short human-readable name ("shared-nothing", "locks", ...). *)

(** One port's RSS configuration: the 52-byte Toeplitz key and the packet
    fields it hashes. *)
type port_rss = { key : Bitvec.t; field_set : Nic.Field_set.t }

type t = {
  nf : Dsl.Ast.t;
  cores : int;
  nic : Nic.Model.t;
  strategy : strategy;
  rss : port_rss array;  (** one configuration per device *)
  constraints : Rs3.Cstr.t list;  (** provenance: the sharding solution *)
  warnings : string list;  (** Maestro's feedback to the developer *)
}

val rss_engine : t -> int -> Nic.Rss.t
(** The configured RSS engine for one port, with a round-robin
    indirection table over [cores] queues. *)

val state_divisor : t -> int
(** How much each per-core instance's capacity is divided by: [cores] for
    shared-nothing (total memory constant, §4), 1 otherwise — including
    SCR, whose per-core instances are {e full} replicas (memory scales
    with cores; that is the price of zero coordination). *)

val pp : Format.formatter -> t -> unit
(** Human-readable plan summary: strategy, keys, warnings. *)
