type t =
  | Field of Packet.Field.t
  | Pkt_len
  | Now
  | Const of int * int
  | Call of int * string
  | Record of int * string * string
  | Bin of Dsl.Ast.binop * t * t
  | Not of t
  | Cast of int * t

let equal = ( = )
let compare = Stdlib.compare

let rec fold f acc s =
  let acc = f acc s in
  match s with
  | Field _ | Pkt_len | Now | Const _ | Call _ | Record _ -> acc
  | Bin (_, a, b) -> fold f (fold f acc a) b
  | Not a | Cast (_, a) -> fold f acc a

let fields s =
  fold (fun acc x -> match x with Field f when not (List.mem f acc) -> f :: acc | _ -> acc) [] s
  |> List.rev

let calls s =
  fold (fun acc x -> match x with Call (i, _) | Record (i, _, _) -> i :: acc | _ -> acc) [] s
  |> List.sort_uniq Int.compare

type atom =
  | A_field of Packet.Field.t
  | A_prefix of Packet.Field.t * int
  | A_const of int * int
  | A_opaque of t

let log2_exact v =
  let rec go k = if 1 lsl k = v then Some k else if 1 lsl k > v then None else go (k + 1) in
  if v <= 0 then None else go 0

(* Injectivity is what matters: sharding on the underlying field must
   guarantee "equal key part" exactly when the field is equal.  The field
   itself, field ± constant (addition mod 2^w is a bijection), and casts at
   least as wide as the field qualify. *)
let rec classify s =
  match s with
  | Field f -> A_field f
  | Const (w, v) -> A_const (w, v)
  | Bin ((Dsl.Ast.Add | Dsl.Ast.Sub), a, b) -> (
      match (classify a, classify b) with
      | A_field f, A_const _ | A_const _, A_field f -> A_field f
      | _ -> A_opaque s)
  | Bin (Dsl.Ast.Div, a, b) -> (
      (* field / 2^k keeps the field's top (width - k) bits *)
      match (classify a, classify b) with
      | A_field f, A_const (_, v) -> (
          match log2_exact v with
          | Some k when k > 0 && k < Packet.Field.width f -> A_prefix (f, Packet.Field.width f - k)
          | Some 0 -> A_field f
          | _ -> A_opaque s)
      | A_prefix (f, bits), A_const (_, v) -> (
          match log2_exact v with
          | Some k when k > 0 && k < bits -> A_prefix (f, bits - k)
          | Some 0 -> A_prefix (f, bits)
          | _ -> A_opaque s)
      | _ -> A_opaque s)
  | Cast (w, a) -> (
      match classify a with
      | A_field f when w >= Packet.Field.width f -> A_field f
      | A_prefix (f, bits) when w >= bits -> A_prefix (f, bits)
      | A_const (_, v) -> A_const (w, if w >= 62 then v else v land ((1 lsl w) - 1))
      | A_field _ | A_prefix _ | A_opaque _ -> A_opaque s)
  | Pkt_len | Now | Call _ | Record _ | Bin _ | Not _ -> A_opaque s

let rec pp fmt = function
  | Field f -> Packet.Field.pp fmt f
  | Pkt_len -> Format.pp_print_string fmt "pkt_len"
  | Now -> Format.pp_print_string fmt "now"
  | Const (w, v) -> Format.fprintf fmt "%d:%d" v w
  | Call (id, tag) -> Format.fprintf fmt "call%d.%s" id tag
  | Record (id, obj, f) -> Format.fprintf fmt "%s[call%d].%s" obj id f
  | Bin (op, a, b) ->
      let op_str =
        match op with
        | Dsl.Ast.Add -> "+"
        | Dsl.Ast.Sub -> "-"
        | Dsl.Ast.Mul -> "*"
        | Dsl.Ast.Div -> "/"
        | Dsl.Ast.Mod -> "%"
        | Dsl.Ast.Eq -> "=="
        | Dsl.Ast.Neq -> "!="
        | Dsl.Ast.Lt -> "<"
        | Dsl.Ast.Le -> "<="
        | Dsl.Ast.Land -> "&&"
        | Dsl.Ast.Lor -> "||"
      in
      Format.fprintf fmt "(%a %s %a)" pp a op_str pp b
  | Not a -> Format.fprintf fmt "!%a" pp a
  | Cast (w, a) -> Format.fprintf fmt "(%a:%d)" pp a w
