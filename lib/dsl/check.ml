open Ast

type kind = Kmap | Kvector | Kchain | Ksketch

type info = {
  widths : (string, int) Hashtbl.t; (* int binding -> width *)
  records : (string, (string * int) list) Hashtbl.t; (* record binding -> layout *)
  key_widths : (string, int) Hashtbl.t; (* map/sketch -> key width *)
  layouts : (string, (string * int) list) Hashtbl.t; (* vector object -> layout *)
}

let record_layout info r = Hashtbl.find info.records r
let layout_of_object info obj = Hashtbl.find info.layouts obj

let rec expr_width info = function
  | Const (w, _) -> w
  | Field f -> Packet.Field.width f
  | In_port -> 16
  | Now -> 48
  | Pkt_len -> 16
  | Var x -> ( match Hashtbl.find_opt info.widths x with Some w -> w | None -> 32)
  | Record_field (r, f) -> (
      match Hashtbl.find_opt info.records r with
      | None -> 32
      | Some layout -> ( match List.assoc_opt f layout with Some w -> w | None -> 32))
  | Cast (w, _) -> w
  | Bin ((Eq | Neq | Lt | Le | Land | Lor), _, _) -> 1
  | Bin ((Add | Sub), a, b) -> max (expr_width info a) (expr_width info b)
  | Bin (Mul, a, b) -> min 62 (expr_width info a + expr_width info b)
  | Bin ((Div | Mod), a, _) -> expr_width info a
  | Not _ -> 1

let check nf =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let info =
    {
      widths = Hashtbl.create 16;
      records = Hashtbl.create 16;
      key_widths = Hashtbl.create 16;
      layouts = Hashtbl.create 16;
    }
  in
  if nf.devices < 1 then err "nf %s: needs at least one device" nf.name;
  (* declarations *)
  let kinds = Hashtbl.create 16 in
  let capacities = Hashtbl.create 16 in
  List.iter
    (fun d ->
      let name = decl_name d in
      if Hashtbl.mem kinds name then err "duplicate state declaration %s" name;
      (match d with
      | Decl_map { capacity; _ } | Decl_chain { capacity; _ } ->
          Hashtbl.replace capacities name capacity
      | Decl_vector { capacity; layout; _ } ->
          Hashtbl.replace capacities name capacity;
          if layout = [] then err "vector %s: empty layout" name;
          let names = List.map fst layout in
          if List.length (List.sort_uniq String.compare names) <> List.length names then
            err "vector %s: duplicate layout field" name;
          List.iter
            (fun (f, w) -> if w < 1 || w > 62 then err "vector %s: field %s width %d" name f w)
            layout;
          Hashtbl.replace info.layouts name layout
      | Decl_sketch { depth; width; _ } ->
          if depth < 1 || width < 1 then err "sketch %s: bad dimensions" name);
      Hashtbl.replace kinds name
        (match d with
        | Decl_map _ -> Kmap
        | Decl_vector _ -> Kvector
        | Decl_chain _ -> Kchain
        | Decl_sketch _ -> Ksketch))
    nf.state;
  let expect_kind obj kind what =
    match Hashtbl.find_opt kinds obj with
    | None -> err "%s: unknown object %s" what obj
    | Some k -> if k <> kind then err "%s: object %s has the wrong kind" what obj
  in
  (* Bindings must be unambiguous so width lookup can be a plain table.  A
     continuation duplicated across branches re-binds the same names with the
     same widths, which is fine; only incompatible reuse is rejected. *)
  let bind_var x w =
    if Hashtbl.mem info.records x then err "binding %s reuses a record binding's name" x
    else
      match Hashtbl.find_opt info.widths x with
      | Some w' when w' <> w ->
          err "binding %s reused with a different width (%d vs %d)" x w w'
      | Some _ -> ()
      | None -> Hashtbl.replace info.widths x w
  in
  let bind_record r layout =
    if Hashtbl.mem info.widths r then err "binding %s reuses an int binding's name" r
    else
      match Hashtbl.find_opt info.records r with
      | Some l when l <> layout -> err "record binding %s reused with a different layout" r
      | Some _ -> ()
      | None -> Hashtbl.replace info.records r layout
  in
  let scope = Hashtbl.create 16 in
  (* names visible on the current path *)
  let with_bound names f =
    List.iter (fun n -> Hashtbl.replace scope n ()) names;
    f ();
    List.iter (Hashtbl.remove scope) names
  in
  let rec check_expr e =
    match e with
    | Const (w, v) ->
        if w < 1 || w > 62 then err "constant width %d out of range" w;
        if v < 0 then err "negative constant %d" v
    | Field _ | In_port | Now | Pkt_len -> ()
    | Var x -> if not (Hashtbl.mem scope x) then err "unbound variable %s" x
    | Record_field (r, f) ->
        if not (Hashtbl.mem scope r) then err "unbound record %s" r
        else (
          match Hashtbl.find_opt info.records r with
          | Some layout -> if not (List.mem_assoc f layout) then err "record %s has no field %s" r f
          | None -> err "%s is not a record binding" r)
    | Bin (op, a, b) ->
        check_expr a;
        check_expr b;
        let wa = expr_width info a and wb = expr_width info b in
        (match op with
        | Eq | Neq | Lt | Le ->
            if wa <> wb then
              err "comparison of values of different widths (%d vs %d) in %a" wa wb
                (fun fmt -> Ast.pp_expr fmt)
                e
        | Land | Lor ->
            if wa <> 1 || wb <> 1 then err "boolean operator on non-boolean operands"
        | Add | Sub | Mul | Div | Mod -> ())
    | Not a ->
        check_expr a;
        if expr_width info a <> 1 then err "negation of a non-boolean"
    | Cast (w, a) ->
        check_expr a;
        if w < 1 || w > 62 then err "cast width %d out of range" w
  in
  let check_key obj key what =
    List.iter check_expr key;
    if key = [] then err "%s: empty key for %s" what obj;
    let w = List.fold_left (fun acc e -> acc + expr_width info e) 0 key in
    match Hashtbl.find_opt info.key_widths obj with
    | None -> Hashtbl.replace info.key_widths obj w
    | Some w' ->
        if w <> w' then err "%s: key width %d for %s differs from earlier width %d" what w obj w'
  in
  let check_bool c what =
    check_expr c;
    if expr_width info c <> 1 then err "%s: condition is not boolean" what
  in
  let rec go = function
    | If (c, t, f) ->
        check_bool c "if";
        go t;
        go f
    | Let (x, e, k) ->
        check_expr e;
        bind_var x (expr_width info e);
        with_bound [ x ] (fun () -> go k)
    | Map_get { obj; key; found; value; k } ->
        expect_kind obj Kmap "map_get";
        check_key obj key "map_get";
        bind_var found 1;
        bind_var value 32;
        with_bound [ found; value ] (fun () -> go k)
    | Map_put { obj; key; value; ok; k } ->
        expect_kind obj Kmap "map_put";
        check_key obj key "map_put";
        check_expr value;
        bind_var ok 1;
        with_bound [ ok ] (fun () -> go k)
    | Map_erase { obj; key; k } ->
        expect_kind obj Kmap "map_erase";
        check_key obj key "map_erase";
        go k
    | Vec_get { obj; index; record; k } ->
        expect_kind obj Kvector "vec_get";
        check_expr index;
        (match Hashtbl.find_opt info.layouts obj with
        | Some layout ->
            bind_record record layout;
            with_bound [ record ] (fun () -> go k)
        | None -> go k)
    | Vec_set { obj; index; fields; k } ->
        expect_kind obj Kvector "vec_set";
        check_expr index;
        (match Hashtbl.find_opt info.layouts obj with
        | Some layout ->
            List.iter
              (fun (f, e) ->
                check_expr e;
                if not (List.mem_assoc f layout) then err "vec_set %s: unknown field %s" obj f)
              fields
        | None -> ());
        go k
    | Chain_alloc { obj; index; k_ok; k_fail } ->
        expect_kind obj Kchain "chain_alloc";
        bind_var index 32;
        with_bound [ index ] (fun () -> go k_ok);
        go k_fail
    | Chain_rejuv { obj; index; k } ->
        expect_kind obj Kchain "chain_rejuvenate";
        check_expr index;
        go k
    | Chain_expire { obj; purges; age_ns; k } ->
        expect_kind obj Kchain "expire";
        if purges = [] then err "expire: no purge pairs";
        if age_ns < 0 then err "expire: negative age";
        List.iter
          (fun (map, keyvec) ->
            expect_kind map Kmap "expire";
            expect_kind keyvec Kvector "expire";
            (match
               (Hashtbl.find_opt info.layouts keyvec, Hashtbl.find_opt info.key_widths map)
             with
            | Some layout, Some kw ->
                let lw = List.fold_left (fun acc (_, w) -> acc + w) 0 layout in
                if lw <> kw then
                  err "expire: key vector %s layout width %d differs from map %s key width %d"
                    keyvec lw map kw
            | _ -> ());
            match (Hashtbl.find_opt capacities obj, Hashtbl.find_opt capacities keyvec) with
            | Some a, Some b when a <> b ->
                err "expire: chain %s and key vector %s capacities differ" obj keyvec
            | _ -> ())
          purges;
        go k
    | Sketch_touch { obj; key; k } ->
        expect_kind obj Ksketch "sketch_touch";
        check_key obj key "sketch_touch";
        go k
    | Sketch_query { obj; key; count; k } ->
        expect_kind obj Ksketch "sketch_query";
        check_key obj key "sketch_query";
        bind_var count 32;
        with_bound [ count ] (fun () -> go k)
    | Set_field (_, e, k) ->
        check_expr e;
        go k
    | Forward e -> (
        check_expr e;
        match e with
        | Const (_, p) when p < 0 || p >= nf.devices -> err "forward to unknown device %d" p
        | _ -> ())
    | Drop -> ()
  in
  (* Chain_expire key-width checks need map key widths, which may only be
     learned later in the traversal; run twice and keep the second pass's
     errors (plus the declaration errors gathered above). *)
  let decl_errors = !errors in
  go nf.process;
  errors := decl_errors;
  Hashtbl.reset scope;
  Hashtbl.reset info.widths;
  Hashtbl.reset info.records;
  go nf.process;
  if !errors = [] then Ok info else Error (List.rev !errors)

let check_exn nf =
  match check nf with
  | Ok info -> info
  | Error errs -> invalid_arg (Printf.sprintf "NF %s: %s" nf.name (String.concat "; " errs))
