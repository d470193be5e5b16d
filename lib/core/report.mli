(** The stateful report (SR) — paper §3.4.

    From the execution trees, every stateful call is catalogued and the
    objects are grouped into {e clusters}: flow tables whose map, dchain and
    vectors exchange indices through call results.  Accesses through such
    internal plumbing impose no sharding constraints of their own (the
    originating keyed access already decides the core); only the cluster's
    {e entry points} — keyed or packet-indexed accesses — matter to the
    Constraints Generator. *)

type role =
  | Keyed of Symbex.Sym.atom list
      (** an external access: the key (or packet-derived index) parts *)
  | Internal
      (** index/value plumbed from another call of the same cluster, or an
          allocator operation — imposes no constraint *)
  | Maintenance  (** expiry: per-shard aging preserves semantics *)

type entry = { call : Symbex.Tree.call; role : role; write : bool }

type cluster = {
  cid : int;
  objects : string list;  (** sorted member object names *)
  entries : entry list;
  read_only : bool;  (** no entry ever writes *)
}

type t = { model : Symbex.Exec.model; clusters : cluster list }

val build : Symbex.Exec.model -> t
(** Catalogue every stateful call in the execution trees and cluster the
    objects that exchange indices. *)

val stateless : t -> bool
(** [true] when the NF touches no state at all. *)

val writable_clusters : t -> cluster list
(** Clusters that are not read-only — the ones sharding must reason about
    (read-only objects are replicated and filtered out, paper §3.4). *)

val pp : Format.formatter -> t -> unit
(** Renders the SR like the paper's Fig. 3 top half. *)
