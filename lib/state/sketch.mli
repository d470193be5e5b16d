(** A count-min sketch (paper Table 1, used by the Connection Limiter).

    [depth] independent hash rows of [width] counters; an item's estimated
    count is the minimum of its [depth] counters, which can only
    over-estimate.  The CL drops a new connection when every indexed entry
    surpasses the limit — i.e. when the estimate exceeds it (§6.1). *)

type t

val create : ?depth:int -> ?width:int -> unit -> t
(** Defaults: depth 5 (the paper's default), width 4096. *)

val depth : t -> int

val width : t -> int

val increment : t -> string -> unit

val add : t -> string -> int -> unit

val count : t -> string -> int
(** The count-min estimate. *)

val over_limit : t -> string -> limit:int -> bool
(** Whether all of the item's entries surpass [limit] — the CL's drop test. *)

val increment_packed : t -> int -> int -> unit
(** Allocation-free variants keyed by a {!Key} [(hi, lo)] pair.  For any
    string [s] with [Key.fits s], [increment_packed t (Key.hi_of_string s)
    (Key.lo_of_string s)] touches exactly the counters [increment t s]
    touches — the packed pair is the canonical hash input for keys of 14
    bytes or less. *)

val add_packed : t -> int -> int -> int -> unit
(** [add_packed t hi lo n]. *)

val count_packed : t -> int -> int -> int

val over_limit_packed : t -> int -> int -> limit:int -> bool

val clear : t -> unit
(** Reset all counters (the periodic refresh of a time-framed limiter). *)

val copy : t -> t
(** Independent duplicate with identical dimensions and counters —
    [equal t (copy t)] always holds. *)

val memory_bytes : t -> int
(** Footprint in bytes (4 per counter), for the cache model. *)

val equal : t -> t -> bool
(** Structural equality of dimensions and every counter — two sketches
    that answer every query identically.  Used by the SCR replica
    checker. *)
