(** Symbolic values.

    During exhaustive symbolic execution the packet's header fields, its
    length, the time, and every stateful-call result are opaque symbols;
    expressions over them stay symbolic.  The Constraints Generator decides
    shardability by looking at the *shape* of these values: a key part that
    is (an injective function of) a packet field can steer RSS, a call
    result or a lossy derivation cannot. *)

type t =
  | Field of Packet.Field.t  (** an original header field of the packet *)
  | Pkt_len
  | Now
  | Const of int * int  (** width, value *)
  | Call of int * string  (** stateful-call id, result tag ("value", "index", "count", "ok") *)
  | Record of int * string * string  (** vec_get call id, vector object, field name *)
  | Bin of Dsl.Ast.binop * t * t
  | Not of t
  | Cast of int * t

val equal : t -> t -> bool

val compare : t -> t -> int

val fields : t -> Packet.Field.t list
(** All header fields appearing anywhere inside, without duplicates. *)

val calls : t -> int list
(** All call ids appearing inside. *)

(** How a key part can be used for sharding. *)
type atom =
  | A_field of Packet.Field.t
      (** equal to an injective function of this one field: packets agreeing
          on the field agree on the part, and vice versa *)
  | A_prefix of Packet.Field.t * int
      (** the top [bits] of the field (a division by a power of two):
          packets agreeing on that prefix agree on the part — how a
          hierarchical heavy hitter keys its subnet levels (§3.5) *)
  | A_const of int * int  (** the same for every packet *)
  | A_opaque of t
      (** anything else — call results, lossy arithmetic, time, length *)

val classify : t -> atom
(** Injective field derivations recognized: the field itself, [field ± c],
    width-preserving casts of those, and [field / 2^k] as a prefix. *)

val pp : Format.formatter -> t -> unit
