(** Static validation of NF programs.

    Rejects programs that would defeat exhaustive symbolic execution or
    concrete interpretation: unbound names, kind mismatches, inconsistent
    key widths on one object, unknown record fields, boolean operators on
    non-boolean widths.  On success returns the width/layout information
    that the interpreter and the symbolic engine share. *)

type info

val check : Ast.t -> (info, string list) result
(** All detected problems, or the binding information. *)

val check_exn : Ast.t -> info
(** Raises [Invalid_argument] with the concatenated problems. *)

val record_layout : info -> string -> (string * int) list
(** Layout of a record binding. *)

val expr_width : info -> Ast.expr -> int
(** Width in bits of an expression's value. *)

val layout_of_object : info -> string -> (string * int) list
(** Layout of a vector object. *)
