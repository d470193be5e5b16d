(** The RSS indirection table (RETA).

    The low bits of the Toeplitz hash index a table of queue identifiers.
    Under skewed (Zipfian) traffic some buckets become much hotter than
    others; RSS++-style balancing reassigns hot buckets to underloaded
    queues (paper §4, "Traffic skew").  We implement the static variant the
    paper uses in its experiments. *)

type t

val create : ?size:int -> queues:int -> unit -> t
(** Round-robin filled table; [size] defaults to 512 and must be a power of
    two; [queues >= 1]. *)

val size : t -> int

val queues : t -> int

val lookup : t -> int -> int
(** [lookup t hash] is the queue for a (non-negative) hash value. *)

val entries : t -> int array
(** A copy of the table. *)

val rebalance : t -> bucket_load:float array -> t
(** Greedy RSS++-style balancing: given the observed per-bucket load (same
    length as the table), reassign buckets so that per-queue total loads are
    as even as a greedy pass can make them.  Queue count is preserved. *)

val remap : t -> live:bool array -> t
(** Failover remap: every bucket pointing at a queue whose [live] entry is
    [false] is reassigned round-robin to the live queues; buckets already
    on live queues are untouched.  Whole buckets move, so colliding flows
    stay together and each flow still lands on exactly one (live) queue —
    the supervisor uses this to migrate a dead core's traffic (RSS++-style
    remap, paper §4.4).  Raises [Invalid_argument] when [live] does not
    match the queue count or no queue is live. *)

val diff : t -> t -> (int * int * int) list
(** [diff old new_] lists the buckets whose queue assignment changed, as
    [(bucket, from_queue, to_queue)] triples in bucket order — the move set
    a live rebalance must migrate state for.  Raises [Invalid_argument]
    when the tables differ in size or queue count. *)

val queue_loads : t -> bucket_load:float array -> float array
(** Per-queue load implied by a bucket-load vector. *)

val imbalance : t -> bucket_load:float array -> float
(** max(queue load) / mean(queue load); 1.0 is perfectly balanced. *)

val pp : Format.formatter -> t -> unit
