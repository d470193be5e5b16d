type path = (Sym.t * bool) list

type call = {
  id : int;
  port : int;
  obj : string;
  kind : Dsl.Interp.op_kind;
  key : Sym.t list option;
  index : Sym.t option;
  stored : (string * Sym.t) list;
  path : path;
}

type action = Forward of Sym.t * (Packet.Field.t * Sym.t) list | Drop

type t =
  | Branch of { cond : Sym.t; t_true : t; t_false : t }
  | Call_node of call * t
  | Action_node of { action : action; path : path }

let rec leaves = function
  | Branch { t_true; t_false; _ } -> leaves t_true @ leaves t_false
  | Call_node (_, k) -> leaves k
  | Action_node { action; path } -> [ (action, path) ]

let rec all_calls = function
  | Branch { t_true; t_false; _ } -> all_calls t_true @ all_calls t_false
  | Call_node (c, k) -> c :: all_calls k
  | Action_node _ -> []

let count_paths t = List.length (leaves t)

let rec continuation_of_call t id =
  match t with
  | Branch { t_true; t_false; _ } -> (
      match continuation_of_call t_true id with
      | Some k -> Some k
      | None -> continuation_of_call t_false id)
  | Call_node (c, k) -> if c.id = id then Some k else continuation_of_call k id
  | Action_node _ -> None

let rec find_branch t pred =
  match t with
  | Branch { cond; t_true; t_false } ->
      if pred cond then Some (cond, t_true, t_false)
      else (
        match find_branch t_true pred with
        | Some r -> Some r
        | None -> find_branch t_false pred)
  | Call_node (_, k) -> find_branch k pred
  | Action_node _ -> None

let leaf_action_set t =
  List.map fst (leaves t) |> List.sort_uniq Stdlib.compare

let kind_str = function
  | Dsl.Interp.Op_map_get -> "map_get"
  | Dsl.Interp.Op_map_put -> "map_put"
  | Dsl.Interp.Op_map_erase -> "map_erase"
  | Dsl.Interp.Op_vec_get -> "vec_get"
  | Dsl.Interp.Op_vec_set -> "vec_set"
  | Dsl.Interp.Op_chain_alloc -> "chain_alloc"
  | Dsl.Interp.Op_chain_rejuv -> "chain_rejuvenate"
  | Dsl.Interp.Op_chain_expire -> "expire"
  | Dsl.Interp.Op_sketch_touch -> "sketch_touch"
  | Dsl.Interp.Op_sketch_query -> "sketch_query"

let pp_action fmt = function
  | Drop -> Format.pp_print_string fmt "drop"
  | Forward (port, rewrites) ->
      Format.fprintf fmt "forward(%a)" Sym.pp port;
      List.iter
        (fun (f, v) -> Format.fprintf fmt " [%a := %a]" Packet.Field.pp f Sym.pp v)
        rewrites

let pp_call fmt c =
  Format.fprintf fmt "#%d %s(%s" c.id (kind_str c.kind) c.obj;
  (match c.key with
  | Some key ->
      Format.fprintf fmt ", key=[%a]"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f "; ") Sym.pp)
        key
  | None -> ());
  (match c.index with Some i -> Format.fprintf fmt ", idx=%a" Sym.pp i | None -> ());
  if c.stored <> [] then
    Format.fprintf fmt ", stores {%a}"
      (Format.pp_print_list
         ~pp_sep:(fun f () -> Format.pp_print_string f ", ")
         (fun f (n, v) -> Format.fprintf f "%s=%a" n Sym.pp v))
      c.stored;
  Format.pp_print_string fmt ")"

let rec pp fmt = function
  | Branch { cond; t_true; t_false } ->
      Format.fprintf fmt "@[<v 2>if %a@ %a@]@ @[<v 2>else@ %a@]" Sym.pp cond pp t_true pp
        t_false
  | Call_node (c, k) -> Format.fprintf fmt "%a@ %a" pp_call c pp k
  | Action_node { action; _ } -> pp_action fmt action
