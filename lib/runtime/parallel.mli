(** Deterministic execution of generated parallel NFs.

    Packets are steered by the plan's actual RSS engines (Toeplitz hash +
    indirection table) to per-core workers.  Shared-nothing workers own
    per-core state instances with divided capacities; lock-based, TM and
    load-balance workers share one instance and are serialized in arrival
    order — which is exactly the semantics their coordination guarantees, so
    verdicts are reproducible and comparable against the sequential NF.
    SCR plans spray packets round-robin over per-core {e full} replicas:
    the owner runs the complete NF, every other core replays the
    packet's update digest through the write-slice ({!Scr}), and only
    the owner's op events are accounted — replays are state maintenance,
    not packet service.

    Besides the verdicts, execution gathers the coordination statistics the
    performance model consumes: read/write packet classification under the
    speculative lock discipline (a rejuvenation counts as a local write
    thanks to the per-core aging replicas of §4, so read-heavy traffic takes
    no write locks), speculative restarts, and per-packet read/write set
    sizes for the TM abort model. *)

type stats = {
  cores : int;
  per_core_pkts : int array;
  reads : int;  (** stateful read operations *)
  writes : int;  (** stateful write operations (local aging excluded) *)
  read_pkts : int;  (** packets that needed only the core-local read lock *)
  write_pkts : int;  (** packets that restarted and took the write lock *)
  spec_restarts : int;
  expired_flows : int;
  rejuv_local : int;  (** rejuvenations absorbed by per-core aging *)
  tm_rw_sets : (int * int) list;  (** per-packet (reads, writes), newest first *)
}

val imbalance : stats -> float
(** {!Balancer.imbalance_of} the per-core packet counts (1.0 = perfectly
    even). *)

type result = { verdicts : Dsl.Interp.action array; stats : stats }

val run_sequential : Dsl.Ast.t -> Packet.Pkt.t array -> Dsl.Interp.action array
(** The sequential interpreter: the verdict oracle every parallel
    execution is checked against. *)

val run : Maestro.Plan.t -> Packet.Pkt.t array -> result
(** Execute the plan over the trace, under the plan's own per-port RSS
    engines.  A packet to be RSS-dispatched from a port outside the NF's
    devices raises {!port_error}'s [Invalid_argument]. *)

val port_error : devices:int -> int -> int -> 'a
(** [port_error ~devices i port] raises the [Invalid_argument] for packet
    [i] arriving on [port] of an NF with [devices] ports, naming all
    three — the one error {!run} and [Pool.run] give for a packet whose
    port has no RSS engine.  Each checks the port where it already reads
    it, so the check costs two comparisons and no extra pass. *)

val dispatch_counts : Maestro.Plan.t -> Packet.Pkt.t array -> int array
(** Per-core packet counts under the plan's RSS configuration, without
    executing the NF. *)
