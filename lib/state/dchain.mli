(** The Vigor "dchain": a time-aware index allocator (paper Table 1).

    It hands out integer indices from a fixed pool, remembers when each
    allocated index was last touched, and expires the stale ones in
    least-recently-touched order.  NFs pair it with a {!Map_s} (flow key →
    index) and vectors (index → per-flow data) to build flow tables with
    aging. *)

type t

val create : capacity:int -> t

val capacity : t -> int

val reset : t -> unit
(** Free every index in place and restore the start-up free-stack order,
    so the chain is structurally equal ([=]) to a fresh {!create} of the
    same capacity and hands out indices in the same order. *)

val copy : t -> t
(** Exact structural duplicate — recency list, free-stack order and
    last-touch times all preserved — so a copy hands out the same indices
    in the same order as the original under an identical operation
    sequence. *)

val allocated : t -> int
(** Number of indices currently allocated. *)

val allocate : t -> now:int -> int option
(** A fresh index touched at [now], or [None] when the pool is exhausted. *)

val allocate_idx : t -> now:int -> int
(** Like {!allocate} but returns [-1] instead of [None] — the
    allocation-free form the compiled datapath uses. *)

val rejuvenate : t -> int -> now:int -> bool
(** Refresh the last-touch time of an allocated index; [false] when the
    index is not allocated. *)

val is_allocated : t -> int -> bool

val last_touch : t -> int -> int option
(** Last-touch time of an allocated index. *)

val free : t -> int -> bool
(** Explicitly release an index; [false] when not allocated. *)

val iter_allocated : t -> (int -> int -> unit) -> unit
(** [iter_allocated t f] calls [f index last_touch] for every allocated
    index, oldest-touched first.  [f] must not allocate or free indices of
    [t] during the walk — collect first when migrating. *)

val allocate_at : t -> touched:int -> int option
(** Like {!allocate}, but inserts the fresh index at the recency-list
    position implied by [touched] instead of at the back — the state
    migration path uses it to hand an entry to another core's chain while
    preserving both its last-touch time and the list's sorted order (so
    {!expire_one} keeps expiring oldest-first).  [None] when the pool is
    exhausted. *)

val expire_one : t -> threshold:int -> int
(** Free the oldest allocated index if its last touch is strictly below
    [threshold] and return it, or return [-1] when none is due.  It
    allocates nothing: the compiled datapath calls it until [-1], purging
    each freed index's map entries before freeing the next. *)

val expire_before : t -> threshold:int -> int list
(** Free every index whose last touch is strictly below [threshold] by
    calling {!expire_one} until [-1]; the freed indices are returned
    oldest first, for the caller to purge the associated map and vector
    entries.  The interpreter oracle uses it. *)

val oldest : t -> int option
(** The least recently touched allocated index. *)

val pp : Format.formatter -> t -> unit
