(** Fixed-capacity map from packed key pairs to ints, with open addressing.

    Backs the packed-key path of {!Map_s}: a key is a {!Key} [(hi, lo)]
    pair, a value a DSL integer, and every operation is allocation-free.
    One array holds the table, each slot's [hi], [lo] and value side by
    side.  A negative [hi] marks an empty or deleted slot, so keys need a
    non-negative [hi], as every {!Key} [hi] is.  The logical capacity is
    enforced the way the Vigor containers do it — {!put} of an absent key
    on a full map returns [false] — while the physical table grows on
    demand to keep probe sequences short. *)

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] if [capacity < 1]. *)

val capacity : t -> int
val length : t -> int

val mem : t -> int -> int -> bool
(** [mem t hi lo]; [false] for any negative [hi]. *)

val find : t -> int -> int -> absent:int -> int
(** [find t hi lo ~absent] is the value bound to the key, or [absent]
    when it is unbound.  The caller picks a sentinel that cannot be a
    stored value (DSL values are non-negative, so any negative int
    works). *)

val put : t -> int -> int -> int -> bool
(** [put t hi lo v]: insert or replace; [false] iff the map is logically
    full and the key absent.  Raises [Invalid_argument] if [hi < 0]. *)

val erase : t -> int -> int -> bool
(** [false] iff the key was absent. *)

val copy : t -> t
(** Field-exact duplicate: same physical table size, probe layout and
    tombstones, so a copy that sees the same operation sequence as the
    original stays structurally identical to it. *)

val iter : t -> (int -> int -> int -> unit) -> unit
(** [iter t f] calls [f hi lo v] on every binding, in slot order. *)

val clear : t -> unit
(** Drop every binding and return the table to its start-up 16 slots, so
    the map is structurally equal to a fresh {!create} of the same
    capacity.  Keeping a grown table would change the slot order {!iter}
    walks. *)

(** {1 Introspection} — read-only physical-layout stats, used by the
    capacity-boundary tests and the 1M-flow stress harness to gate probe
    lengths and to prove tombstone churn keeps the table bounded. *)

val table_slots : t -> int
(** Current physical table size in slots (a power of two). *)

val tombstones : t -> int

val probe_stats : t -> int * int
(** [(max_probe, mean_probe_x100)] over the occupied entries: the extra
    slots a [find] of that key walks past its home slot.  O(table) scan —
    diagnostics only, not for the datapath. *)
