(** The NF language.

    Network functions handed to Maestro are written against the Vigor-style
    stateful API (map / vector / dchain / sketch) in a small expression and
    statement language.  The language enforces the paper's §5 restrictions
    by construction: state only lives in the declared data structures,
    control flow is a finite tree (no loops), and there is no pointer
    arithmetic — which is what makes exhaustive symbolic execution both
    possible and complete.

    Statements are in continuation style: every stateful call names its
    results and carries the rest of the program, so an NF's [process] is a
    tree whose leaves are packet actions. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div  (** integer division; division by zero yields 0, as NFs guard it *)
  | Mod
  | Eq
  | Neq
  | Lt
  | Le
  | Land  (** logical and on 1-bit values *)
  | Lor

type expr =
  | Const of int * int  (** width in bits, value *)
  | Field of Packet.Field.t  (** header field of the packet being processed *)
  | In_port  (** device the packet arrived on (16 bits) *)
  | Now  (** packet timestamp in ns (48 bits) *)
  | Pkt_len  (** frame length in bytes (16 bits) *)
  | Var of string  (** an int binding *)
  | Record_field of string * string  (** record binding, field name *)
  | Bin of binop * expr * expr
  | Not of expr
  | Cast of int * expr  (** truncate/zero-extend to the given width *)

(** A stateful key is the big-endian concatenation of expressions. *)
type key = expr list

type stmt =
  | If of expr * stmt * stmt
  | Let of string * expr * stmt
  | Map_get of { obj : string; key : key; found : string; value : string; k : stmt }
      (** [found] is a 1-bit binding, [value] a 32-bit one (garbage when not
          found, as in Vigor). *)
  | Map_put of { obj : string; key : key; value : expr; ok : string; k : stmt }
  | Map_erase of { obj : string; key : key; k : stmt }
  | Vec_get of { obj : string; index : expr; record : string; k : stmt }
  | Vec_set of { obj : string; index : expr; fields : (string * expr) list; k : stmt }
      (** Fields not listed keep their stored value. *)
  | Chain_alloc of { obj : string; index : string; k_ok : stmt; k_fail : stmt }
      (** Allocate a fresh index touched at the packet time. *)
  | Chain_rejuv of { obj : string; index : expr; k : stmt }
  | Chain_expire of { obj : string; purges : (string * string) list; age_ns : int; k : stmt }
      (** Expire every flow untouched for [age_ns]: free its chain index and,
          for each [(map, keyvec)] purge pair, rebuild the key from the key
          vector's record and erase it from that map — the Vigor
          [expire_items_single_map] idiom, generalized to NFs (like the NAT)
          whose flows live in several maps. *)
  | Sketch_touch of { obj : string; key : key; k : stmt }
  | Sketch_query of { obj : string; key : key; count : string; k : stmt }
      (** Binds the count-min estimate (32 bits). *)
  | Set_field of Packet.Field.t * expr * stmt  (** header rewrite *)
  | Forward of expr  (** output device *)
  | Drop

type state_decl =
  | Decl_map of { name : string; capacity : int; init : (string * int) list }
      (** [init] pre-populates the map at start-up; a map that is never
          written by [process] is read-only state (no coordination needed). *)
  | Decl_vector of { name : string; capacity : int; layout : (string * int) list }
      (** [layout]: field name and width in bits, in serialization order. *)
  | Decl_chain of { name : string; capacity : int }
  | Decl_sketch of { name : string; depth : int; width : int }

type t = {
  name : string;
  devices : int;  (** number of ports, numbered [0 .. devices-1] *)
  state : state_decl list;
  process : stmt;
}

val decl_name : state_decl -> string

val key_of_parts : (int * int) list -> string
(** Serialize (width, value) pairs into the byte-string key representation
    used by map instances — also how [Decl_map.init] keys must be built. *)

(** {1 Convenience constructors} *)

val const : ?width:int -> int -> expr
(** Defaults to 32 bits. *)

val ( ==. ) : expr -> expr -> expr

val ( <>. ) : expr -> expr -> expr

val ( <. ) : expr -> expr -> expr

val ( <=. ) : expr -> expr -> expr

val ( &&. ) : expr -> expr -> expr

val ( ||. ) : expr -> expr -> expr

val ( +. ) : expr -> expr -> expr

val ( -. ) : expr -> expr -> expr

val ( *. ) : expr -> expr -> expr

val ( /. ) : expr -> expr -> expr

val ( %. ) : expr -> expr -> expr

val pp_expr : Format.formatter -> expr -> unit

val pp : Format.formatter -> t -> unit
