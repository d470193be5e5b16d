(** Tseitin encoding of boolean formulas and parity constraints into CNF.

    Auxiliary variables are allocated in the target solver; the encoding is
    equisatisfiable and, because every definition is bidirectional, also
    model-preserving on the original variables. *)

type formula =
  | True
  | False
  | Atom of Lit.t
  | Not of formula
  | And of formula list
  | Or of formula list
  | Xor of formula * formula
  | Iff of formula * formula
  | Imp of formula * formula

val atom : Lit.var -> formula
(** Positive atom for a variable. *)

val assert_formula : Solver.t -> formula -> unit
(** Add clauses forcing the formula to hold. *)

val xor_clause : Solver.t -> Lit.t list -> bool -> unit
(** [xor_clause s lits rhs] asserts that the parity of the literals equals
    [rhs], chaining auxiliary variables (CNF size linear in the number of
    literals). *)

val pp : Format.formatter -> formula -> unit
