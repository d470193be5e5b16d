(** State-compute replication, static analysis half (Xu et al.,
    arXiv 2309.14647; ROADMAP item 1).

    SCR lets {e any} core process {e any} flow with zero shared writes:
    every core keeps a {e full} replica of the NF's state, the
    dispatcher derives a compact per-packet {e update digest} from the
    packet headers, and each core replays every other core's digests
    against its own replica.  Unlike sharding there is nothing to
    solve — no RSS key, no partitionable keys — so the discipline slots
    into the degradation ladder between shared-nothing and the lock
    rung: it costs replicated memory and per-core replay cycles instead
    of cross-core lock contention.

    This module is the static half, pure AST analysis shared by
    {!Pipeline} (rung admissibility), {!Sim} (digest size feeds the
    contention model) and the runtime ([Runtime.Scr] stages the slice
    and applies digests):

    - the {e write classification} ({!nf_writes}) the pool's lock
      discipline also uses;
    - the {e write-slice}: the NF's statement tree with every subtree
      that cannot reach a state write pruned to [Drop], and [Forward]
      leaves (a replica replays updates, it does not emit packets)
      replaced by [Drop].  Binders, reads and branch conditions feeding
      a write are preserved, so the slice reproduces the full NF's
      writes exactly, given the same header fields and an identical
      replica;
    - the {e digest spec}: which header fields (plus port, frame
      length, timestamp) the slice reads — the bytes the dispatcher
      must broadcast per packet. *)

type t = {
  nf : Dsl.Ast.t;  (** the original NF *)
  slice : Dsl.Ast.t;  (** its write-slice (a valid NF; every leaf is [Drop]) *)
  fields : Packet.Field.t list;  (** header fields in the digest, sorted *)
  needs_port : bool;  (** digest carries the 16-bit arrival port *)
  needs_len : bool;  (** digest carries the 16-bit frame length *)
  needs_ts : bool;
      (** digest carries the 48-bit timestamp (any chain operation or
          [Now] read forces it) *)
  written_objects : string list;
      (** state objects some path writes, in declaration-walk order —
          the set on which replicas must stay equal (purge-pair maps of
          a [Chain_expire] included) *)
  digest_bytes : int;  (** modeled wire size of one packet's digest *)
}

val nf_writes : Dsl.Ast.t -> bool
(** Conservative static write classification: [true] when any path of
    the NF's packet handler writes state.  Shared with the pool's lock/TM
    disciplines. *)

val derive : Dsl.Ast.t -> t
(** Compute the slice, digest spec and write set.  Total: every NF has
    a derivation (an NF with no writes gets an empty write set and a
    slice that drops everything). *)

val admissible : ?max_bytes:int -> Dsl.Ast.t -> (t, string) result
(** {!derive}, gated the way the ladder needs: [Error] with a
    developer-facing reason when the NF never writes state (read-only
    replication is free, SCR buys nothing) or when the digest exceeds
    [max_bytes] (default 64: a digest wider than this approaches header
    size, and replaying it stops being cheaper than re-dispatching the
    packet). *)

val pp : Format.formatter -> t -> unit
