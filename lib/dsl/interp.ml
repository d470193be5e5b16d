open Ast

type action = Fwd of int * Packet.Pkt.t | Dropped

type op_kind =
  | Op_map_get
  | Op_map_put
  | Op_map_erase
  | Op_vec_get
  | Op_vec_set
  | Op_chain_alloc
  | Op_chain_rejuv
  | Op_chain_expire
  | Op_sketch_touch
  | Op_sketch_query

type op_event = { obj : string; kind : op_kind; write : bool; expired : int }

let op_is_write = function
  | Op_map_put | Op_map_erase | Op_vec_set | Op_chain_alloc | Op_chain_rejuv | Op_sketch_touch
    ->
      true
  | Op_map_get | Op_vec_get | Op_sketch_query | Op_chain_expire -> false

exception Runtime_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

type env = { vars : (string * int) list; records : (string * Instance.record) list }

let mask width v = if width >= 62 then v else v land ((1 lsl width) - 1)

let set_pkt_field (p : Packet.Pkt.t) f v : Packet.Pkt.t = Packet.Pkt.set_field p f v

let find_field layout r f =
  let rec go i = function
    | [] -> fail "record has no field %s" f
    | (g, _) :: rest -> if String.equal f g then r.(i) else go (i + 1) rest
  in
  go 0 layout

let process ?(on_op = fun _ -> ()) (nf : Ast.t) info instance (pkt0 : Packet.Pkt.t) =
  (* layouts are immutable per program: derive each record's layout once
     per call instead of once per field access *)
  let layout_cache = Hashtbl.create 8 in
  let layout_of r =
    match Hashtbl.find_opt layout_cache r with
    | Some l -> l
    | None ->
        let l = Check.record_layout info r in
        Hashtbl.add layout_cache r l;
        l
  in
  let rec eval env (pkt : Packet.Pkt.t) e =
    match e with
    | Const (w, v) -> mask w v
    | Field f -> Packet.Pkt.field_int pkt f
    | In_port -> pkt.Packet.Pkt.port
    | Now -> pkt.Packet.Pkt.ts_ns
    | Pkt_len -> pkt.Packet.Pkt.size
    | Var x -> (
        match List.assoc_opt x env.vars with
        | Some v -> v
        | None -> fail "unbound variable %s" x)
    | Record_field (r, f) -> (
        match List.assoc_opt r env.records with
        | Some record -> find_field (layout_of r) record f
        | None -> fail "unbound record %s" r)
    | Bin (op, a, b) -> (
        let va = eval env pkt a and vb = eval env pkt b in
        let w = max (Check.expr_width info a) (Check.expr_width info b) in
        match op with
        | Add -> mask w (va + vb)
        | Sub -> mask w (va - vb)
        | Mul -> mask w (va * vb)
        | Div -> if vb = 0 then 0 else mask w (va / vb)
        | Mod -> if vb = 0 then 0 else mask w (va mod vb)
        | Eq -> if va = vb then 1 else 0
        | Neq -> if va <> vb then 1 else 0
        | Lt -> if va < vb then 1 else 0
        | Le -> if va <= vb then 1 else 0
        | Land -> va land vb
        | Lor -> va lor vb)
    | Not a -> 1 - eval env pkt a
    | Cast (w, a) -> mask w (eval env pkt a)
  in
  let eval_key env pkt key =
    key_of_parts (List.map (fun e -> (Check.expr_width info e, eval env pkt e)) key)
  in
  let the_map obj =
    match Instance.find instance obj with O_map m -> m | _ -> fail "%s is not a map" obj
  in
  let the_vector obj =
    match Instance.find instance obj with O_vector v -> v | _ -> fail "%s is not a vector" obj
  in
  let the_chain obj =
    match Instance.find instance obj with O_chain c -> c | _ -> fail "%s is not a chain" obj
  in
  let the_sketch obj =
    match Instance.find instance obj with O_sketch s -> s | _ -> fail "%s is not a sketch" obj
  in
  let emit obj kind ?(expired = 0) () =
    let write = match kind with Op_chain_expire -> expired > 0 | _ -> op_is_write kind in
    on_op { obj; kind; write; expired }
  in
  let rec run env pkt stmt =
    match stmt with
    | If (c, t, f) -> if eval env pkt c = 1 then run env pkt t else run env pkt f
    | Let (x, e, k) -> run { env with vars = (x, eval env pkt e) :: env.vars } pkt k
    | Map_get { obj; key; found; value; k } ->
        emit obj Op_map_get ();
        let m = the_map obj in
        let f, v =
          match State.Map_s.get m (eval_key env pkt key) with
          | Some v -> (1, v)
          | None -> (0, 0)
        in
        run { env with vars = (found, f) :: (value, v) :: env.vars } pkt k
    | Map_put { obj; key; value; ok; k } ->
        emit obj Op_map_put ();
        let m = the_map obj in
        let r = if State.Map_s.put m (eval_key env pkt key) (eval env pkt value) then 1 else 0 in
        run { env with vars = (ok, r) :: env.vars } pkt k
    | Map_erase { obj; key; k } ->
        emit obj Op_map_erase ();
        ignore (State.Map_s.erase (the_map obj) (eval_key env pkt key));
        run env pkt k
    | Vec_get { obj; index; record; k } ->
        emit obj Op_vec_get ();
        let v = the_vector obj in
        let i = eval env pkt index in
        if i < 0 || i >= v.capacity then fail "vec_get %s: index %d out of range" obj i;
        run { env with records = (record, Instance.record v i) :: env.records } pkt k
    | Vec_set { obj; index; fields; k } ->
        emit obj Op_vec_set ();
        let v = the_vector obj in
        let i = eval env pkt index in
        if i < 0 || i >= v.capacity then fail "vec_set %s: index %d out of range" obj i;
        List.iter
          (fun (f, e) ->
            let rec pos j = function
              | [] -> fail "vec_set %s: unknown field %s" obj f
              | (g, _) :: rest -> if String.equal f g then j else pos (j + 1) rest
            in
            v.slots.((i * v.stride) + pos 0 v.layout) <- eval env pkt e)
          fields;
        run env pkt k
    | Chain_alloc { obj; index; k_ok; k_fail } -> (
        emit obj Op_chain_alloc ();
        match State.Dchain.allocate (the_chain obj) ~now:pkt.Packet.Pkt.ts_ns with
        | Some i -> run { env with vars = (index, i) :: env.vars } pkt k_ok
        | None -> run env pkt k_fail)
    | Chain_rejuv { obj; index; k } ->
        emit obj Op_chain_rejuv ();
        ignore
          (State.Dchain.rejuvenate (the_chain obj) (eval env pkt index) ~now:pkt.Packet.Pkt.ts_ns);
        run env pkt k
    | Chain_expire { obj; purges; age_ns; k } ->
        let chain = the_chain obj in
        let threshold = pkt.Packet.Pkt.ts_ns - age_ns in
        let freed = State.Dchain.expire_before chain ~threshold in
        List.iter
          (fun (map, keyvec) ->
            let m = the_map map in
            let v = the_vector keyvec in
            List.iter
              (fun i ->
                let key =
                  key_of_parts
                    (List.mapi (fun j (_, w) -> (w, v.slots.((i * v.stride) + j))) v.layout)
                in
                ignore (State.Map_s.erase m key))
              freed)
          purges;
        emit obj Op_chain_expire ~expired:(List.length freed) ();
        run env pkt k
    | Sketch_touch { obj; key; k } ->
        emit obj Op_sketch_touch ();
        State.Sketch.increment (the_sketch obj) (eval_key env pkt key);
        run env pkt k
    | Sketch_query { obj; key; count; k } ->
        emit obj Op_sketch_query ();
        let c = State.Sketch.count (the_sketch obj) (eval_key env pkt key) in
        run { env with vars = (count, c) :: env.vars } pkt k
    | Set_field (f, e, k) ->
        let v = eval env pkt e in
        run env (set_pkt_field pkt f v) k
    | Forward e ->
        let port = eval env pkt e in
        if port < 0 || port >= nf.devices then fail "forward to unknown device %d" port;
        Fwd (port, pkt)
    | Drop -> Dropped
  in
  run { vars = []; records = [] } pkt0 nf.process
