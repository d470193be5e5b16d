type record = int array

type vector = { layout : (string * int) list; stride : int; capacity : int; slots : int array }

type obj =
  | O_map of State.Map_s.t
  | O_vector of vector
  | O_chain of State.Dchain.t
  | O_sketch of State.Sketch.t

type t = { objs : (string, obj) Hashtbl.t; divide : int }

let scaled divide capacity = max 1 (capacity / divide)

let load_init m init = List.iter (fun (k, v) -> ignore (State.Map_s.put m k v)) init

let build divide objs (decl : Ast.state_decl) =
  match decl with
  | Ast.Decl_map { name; capacity; init } ->
      let m = State.Map_s.create ~capacity:(max (scaled divide capacity) (List.length init)) in
      load_init m init;
      Hashtbl.replace objs name (O_map m)
  | Ast.Decl_vector { name; capacity; layout } ->
      let capacity = scaled divide capacity and stride = List.length layout in
      Hashtbl.replace objs name
        (O_vector { layout; stride; capacity; slots = Array.make (capacity * stride) 0 })
  | Ast.Decl_chain { name; capacity } ->
      Hashtbl.replace objs name (O_chain (State.Dchain.create ~capacity:(scaled divide capacity)))
  | Ast.Decl_sketch { name; depth; width } ->
      Hashtbl.replace objs name (O_sketch (State.Sketch.create ~depth ~width ()))

let create ?(divide = 1) (nf : Ast.t) =
  if divide < 1 then invalid_arg "Instance.create: divide";
  let objs = Hashtbl.create 16 in
  List.iter (build divide objs) nf.Ast.state;
  { objs; divide }

let find t name = Hashtbl.find t.objs name

let record v i = Array.sub v.slots (i * v.stride) v.stride

let record_bytes layout =
  (List.fold_left (fun acc (_, w) -> acc + w) 0 layout + 7) / 8

let memory_bytes t name =
  match find t name with
  | O_map m -> State.Map_s.capacity m * 24 (* hi + lo + value *)
  | O_vector v -> v.capacity * record_bytes v.layout
  | O_chain c -> State.Dchain.capacity c * 16
  | O_sketch s -> State.Sketch.memory_bytes s

let total_memory_bytes t = Hashtbl.fold (fun name _ acc -> acc + memory_bytes t name) t.objs 0

let copy t =
  let objs = Hashtbl.create (Hashtbl.length t.objs) in
  Hashtbl.iter
    (fun name obj ->
      let dup =
        match obj with
        | O_map m -> O_map (State.Map_s.copy m)
        | O_vector v -> O_vector { v with slots = Array.copy v.slots }
        | O_chain c -> O_chain (State.Dchain.copy c)
        | O_sketch s -> O_sketch (State.Sketch.copy s)
      in
      Hashtbl.replace objs name dup)
    t.objs;
  { objs; divide = t.divide }

(* Every container is emptied where it lives, so whatever was bound to
   it — compiled runners, SCR replayers — stays bound across the reset,
   and a map keeps the table it grew to. *)
let reset t (nf : Ast.t) =
  List.iter
    (fun (decl : Ast.state_decl) ->
      match (decl, find t (Ast.decl_name decl)) with
      | Ast.Decl_map { init; _ }, O_map m ->
          State.Map_s.clear m;
          load_init m init
      | Ast.Decl_vector _, O_vector v -> Array.fill v.slots 0 (Array.length v.slots) 0
      | Ast.Decl_chain _, O_chain c -> State.Dchain.reset c
      | Ast.Decl_sketch _, O_sketch s -> State.Sketch.clear s
      | _ -> invalid_arg ("Instance.reset: object kind differs for " ^ Ast.decl_name decl))
    nf.Ast.state
