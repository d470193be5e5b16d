(** State-compute replication (SCR), dynamic half.

    SCR is the fourth parallelization discipline (Xu et al., arXiv
    2309.14647), sitting between shared-nothing and lock-based on the
    degradation ladder: every core keeps a {e full} replica of the NF's
    state, the dispatcher derives a compact {e update digest} from each
    packet at dispatch time, and every non-owning core replays the
    digest against its replica by re-executing only the NF's
    {e write-slice} — the statement tree with every subtree that cannot
    reach a state write pruned away ({!Maestro.Scrspec}).  No core ever
    waits for another: owners run the full NF for the verdict, peers
    replay write-slices, and because every core consumes the global
    packet stream in arrival order, all replicas walk the sequential
    state trajectory exactly.

    The static analysis — which header fields the digest must carry,
    how many bytes that costs per packet, and whether the NF is
    admissible at all — lives in {!Maestro.Scrspec}; this module stages
    the write-slice once ({!prepare}), binds it per replica ({!bind}),
    and moves digests as flat [int] arrays sized by {!ints_per_pkt}, so
    a whole batch's digest is one array pushed over an SPSC ring. *)

type t
(** A prepared SCR program: the staged write-slice plus its digest
    layout.  Instance-independent; bind once per replica. *)

val prepare : Maestro.Scrspec.t -> t
(** Stage the write-slice of an admissible spec ({!Maestro.Scrspec.admissible}).
    Raises [Invalid_argument] if the slice fails {!Dsl.Check.check}
    (impossible for a spec derived from a checked NF). *)

val spec : t -> Maestro.Scrspec.t

val ints_per_pkt : t -> int
(** Digest stride: [int] slots per packet (one per digest field, plus
    port / length / timestamp slots when present). *)

val digest_wire_bytes : t -> int
(** What the digest would cost on a real wire, in bytes per packet —
    {!Maestro.Scrspec.t.digest_bytes}; feeds the SCR throughput model
    and the [pool.scr_digest_bytes] counter. *)

(** {1 Encoding} *)

val encode : t -> Packet.Pkt.t -> int array -> int -> unit
(** [encode t pkt buf off] writes [pkt]'s digest segment at [buf.(off)
    ..], using exactly {!ints_per_pkt} slots. *)

val encode_batch : t -> Packet.Pkt.t array -> lo:int -> len:int -> int array
(** Digest for the batch [pkts.(lo) .. pkts.(lo+len-1)] as one freshly
    allocated array of [len * ints_per_pkt] slots. *)

val decode : t -> int array -> int -> Packet.Pkt.t
(** [decode t buf off] reconstructs the pseudo-packet of the digest
    segment at [off] — the packet {!apply} replays the write-slice with.
    Fields absent from the digest get defaults the slice never reads.
    The cluster tier uses this to ownership-filter a retained digest log
    when rebuilding a failed machine's replica: each logged packet is
    re-hashed with the front-tier key to decide whether the dead machine
    owned it. *)

(** {1 Replay} *)

type replayer
(** The write-slice bound to one replica.  Single-threaded, like
    {!Dsl.Compile.runner}: each core binds its own. *)

val bind : t -> Dsl.Instance.t -> replayer

val apply : replayer -> int array -> int -> unit
(** Replay one digest segment at the given offset: reconstruct the
    pseudo-packet and run the write-slice against the replica.  The
    slice's verdict is always [Drop] and is discarded — replay mutates
    state, it does not emit packets or op events. *)

val apply_batch : replayer -> int array -> npkts:int -> unit
(** Replay a whole batch digest in order. *)

(** {1 Replica comparison} *)

val replica_equal : Maestro.Scrspec.t -> Dsl.Instance.t -> Dsl.Instance.t -> bool
(** Structural equality of two instances over the spec's written
    objects: map bindings ({!State.Map_s.entries}, whatever the tables'
    sizes), vector slots, chain allocation sets with last-touch times,
    sketch counters.  The correctness oracle for digest replay and crash
    rebuilds. *)
