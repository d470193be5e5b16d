type role = Keyed of Symbex.Sym.atom list | Internal | Maintenance

type entry = { call : Symbex.Tree.call; role : role; write : bool }

type cluster = { cid : int; objects : string list; entries : entry list; read_only : bool }

type t = { model : Symbex.Exec.model; clusters : cluster list }

(* --- union-find over object names --------------------------------------- *)

module Uf = struct
  let create () = Hashtbl.create 16

  let rec find t x =
    match Hashtbl.find_opt t x with
    | None | Some "" -> x
    | Some p when String.equal p x -> x
    | Some p ->
        let r = find t p in
        Hashtbl.replace t x r;
        r

  let union t a b =
    let ra = find t a and rb = find t b in
    if not (String.equal ra rb) then Hashtbl.replace t ra rb
end

let call_write (c : Symbex.Tree.call) =
  match c.Symbex.Tree.kind with
  | Dsl.Interp.Op_chain_expire ->
      (* maintenance; its write-ness is dynamic (only when flows expire) and
         handled by the runtimes, not by sharding *)
      false
  | k -> Dsl.Interp.op_is_write k

let build (model : Symbex.Exec.model) =
  let calls = Symbex.Exec.calls model in
  let obj_of_call_id = Hashtbl.create 64 in
  List.iter (fun (c : Symbex.Tree.call) -> Hashtbl.replace obj_of_call_id c.Symbex.Tree.id c.Symbex.Tree.obj) calls;
  let uf = Uf.create () in
  (* Link objects that exchange call results: a vector indexed by a map's
     value, a map storing a chain's index, an expire purging maps/keyvecs. *)
  let link_syms (c : Symbex.Tree.call) syms =
    List.iter
      (fun s ->
        List.iter
          (fun id ->
            match Hashtbl.find_opt obj_of_call_id id with
            | Some other -> Uf.union uf c.Symbex.Tree.obj other
            | None -> ())
          (Symbex.Sym.calls s))
      syms
  in
  List.iter
    (fun (c : Symbex.Tree.call) ->
      (match c.Symbex.Tree.key with Some key -> link_syms c key | None -> ());
      (match c.Symbex.Tree.index with Some i -> link_syms c [ i ] | None -> ());
      match c.Symbex.Tree.kind with
      | Dsl.Interp.Op_chain_expire ->
          List.iter (fun (obj, _) -> Uf.union uf c.Symbex.Tree.obj obj) c.Symbex.Tree.stored
      | _ -> link_syms c (List.map snd c.Symbex.Tree.stored))
    calls;
  (* Classify each call. *)
  let role_of (c : Symbex.Tree.call) =
    match c.Symbex.Tree.kind with
    | Dsl.Interp.Op_chain_expire -> Maintenance
    | Dsl.Interp.Op_chain_alloc -> Internal
    | Dsl.Interp.Op_map_get | Dsl.Interp.Op_map_put | Dsl.Interp.Op_map_erase
    | Dsl.Interp.Op_sketch_touch | Dsl.Interp.Op_sketch_query -> (
        match c.Symbex.Tree.key with
        | Some key -> Keyed (List.map Symbex.Sym.classify key)
        | None -> Internal)
    | Dsl.Interp.Op_vec_get | Dsl.Interp.Op_vec_set | Dsl.Interp.Op_chain_rejuv -> (
        match c.Symbex.Tree.index with
        | None -> Internal
        | Some idx ->
            if Symbex.Sym.calls idx <> [] then Internal
            else Keyed [ Symbex.Sym.classify idx ])
  in
  let entries =
    List.map (fun c -> { call = c; role = role_of c; write = call_write c }) calls
  in
  (* Group by union-find root. *)
  let groups = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let root = Uf.find uf e.call.Symbex.Tree.obj in
      let cur = Option.value ~default:[] (Hashtbl.find_opt groups root) in
      Hashtbl.replace groups root (e :: cur))
    entries;
  let clusters =
    Hashtbl.fold
      (fun _root es acc ->
        let es = List.rev es in
        let objects =
          List.sort_uniq String.compare (List.map (fun e -> e.call.Symbex.Tree.obj) es)
        in
        let read_only = not (List.exists (fun e -> e.write) es) in
        { cid = 0; objects; entries = es; read_only } :: acc)
      groups []
    |> List.sort (fun a b -> compare a.objects b.objects)
    |> List.mapi (fun i c -> { c with cid = i })
  in
  { model; clusters }

let stateless t = t.clusters = []

let writable_clusters t = List.filter (fun c -> not c.read_only) t.clusters

let pp_atom fmt = function
  | Symbex.Sym.A_field f -> Packet.Field.pp fmt f
  | Symbex.Sym.A_prefix (f, bits) -> Format.fprintf fmt "%a[0:%d]" Packet.Field.pp f bits
  | Symbex.Sym.A_const (w, v) -> Format.fprintf fmt "const %d:%d" v w
  | Symbex.Sym.A_opaque s -> Format.fprintf fmt "opaque(%a)" Symbex.Sym.pp s

let pp_entry fmt e =
  let kind =
    match e.call.Symbex.Tree.kind with
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
  in
  Format.fprintf fmt "port %d: %s(%s)%s" e.call.Symbex.Tree.port kind e.call.Symbex.Tree.obj
    (if e.write then " [write]" else "");
  match e.role with
  | Keyed atoms ->
      Format.fprintf fmt " key=<%a>"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f ", ") pp_atom)
        atoms
  | Internal -> Format.pp_print_string fmt " (internal)"
  | Maintenance -> Format.pp_print_string fmt " (maintenance)"

let pp fmt t =
  List.iter
    (fun c ->
      Format.fprintf fmt "@[<v 2>cluster %d {%s}%s:@ %a@]@." c.cid
        (String.concat ", " c.objects)
        (if c.read_only then " (read-only)" else "")
        (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_entry)
        c.entries)
    t.clusters
