(** The Vigor map: integers indexed by arbitrary byte-string keys, with a
    fixed capacity (paper Table 1).

    Two operations access the same stored entry iff they use the same key —
    the property the Constraints Generator's rule R1 relies on.  The map
    never resizes: when full, [put] fails and the NF observes it (the
    sequential semantics that sharded per-core instances must reproduce
    locally, §4 "State sharding").

    Storage is hybrid.  Every key of at most {!Key.max_packed_bytes} bytes
    (the 12-byte flow 5-tuple keys included) lives in one allocation-free
    table ({!Intmap}) keyed by its {!Key} [(hi, lo)] pair, and the
    [_packed] operations below access it by that pair without
    materializing the string — the compiled datapath's zero-allocation
    path.  The string view routes those keys to the same table, so [get t
    s] and [find_packed t (Key.hi_of_string s) (Key.lo_of_string s)]
    always agree.  Only keys over 14 bytes fall back to a string-keyed
    table; no corpus NF has one.

    Values must be DSL integers (non-negative); [min_int] is reserved as
    the internal absence sentinel. *)

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val capacity : t -> int

val size : t -> int

val get : t -> string -> int option

val mem : t -> string -> bool

val put : t -> string -> int -> bool
(** Insert or overwrite; [false] iff the map is full and the key absent. *)

val erase : t -> string -> bool
(** [true] iff the key was present. *)

val mem_packed : t -> int -> int -> bool
(** [mem_packed t hi lo]: the packed view takes a key as its {!Key}
    pair. *)

val find_packed : t -> int -> int -> absent:int -> int
(** Allocation-free lookup by packed key; [absent] must be a value the
    map cannot hold (any negative int). *)

val put_packed : t -> int -> int -> int -> bool
(** [put_packed t hi lo v]. *)

val erase_packed : t -> int -> int -> bool

val find_wide : t -> string -> absent:int -> int
(** Wide-view operations address the string-keyed fallback table directly,
    bypassing the [Key.fits] routing — the compiled datapath uses them for
    keys over 14 bytes.  [find_wide] and [erase_wide] do not retain the
    key, so a [Bytes.unsafe_to_string] alias of a reused buffer is a sound
    argument; [put_wide] stores the key and must be given a string the
    caller never mutates.  [find_wide] is allocation-free; [absent] as in
    {!find_packed}. *)

val put_wide : t -> string -> int -> bool

val erase_wide : t -> string -> bool

val iter : t -> (string -> int -> unit) -> unit
(** Iterates packed entries (keys reconstructed as strings) then wide
    entries; order within each group is unspecified. *)

val entries : t -> (string * int) list
(** All [(key, value)] pairs, in unspecified order — a stable snapshot the
    state-migration path can walk while erasing from the live map. *)

val clear : t -> unit
(** Drop every binding; both tables return to their start-up size, so the
    map is structurally equal to a fresh {!create} of the same capacity
    ({!Intmap.clear}). *)

val copy : t -> t
(** Independent duplicate holding the same bindings.  The packed table is
    copied field-exactly (see {!Intmap.copy}), so two copies driven by the
    same operation sequence stay structurally identical — the property
    SCR replica seeding needs when a discipline switch clones state. *)

val packed_size : t -> int
(** Bindings held in the packed table; [size t - packed_size t] are keys
    over 14 bytes. *)

val packed_stats : t -> int * int * int * int
(** [(max_probe, mean_probe_x100, table_slots, tombstones)] of the packed
    table (see {!Intmap.probe_stats}).  O(table) — used by the stress
    harness to gate probe lengths and physical growth, not by the
    datapath. *)

val pp : Format.formatter -> t -> unit
