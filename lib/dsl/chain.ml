(* Service-chain composition (ROADMAP item 2): flatten a list of NF
   instances into ONE composed AST so the whole chain is symbolically
   executed, sharded and staged exactly like a single NF.

   Verdict routing is the NetKAT [Seq]/[Filter] discipline: a packet a
   stage [Forward]s flows into the next stage (the intermediate egress
   port is erased — inside a chain "forward" means "continue"), a [Drop]
   short-circuits the remaining stages, and the final stage's action is
   the chain's verdict.  The flattening substitutes stage [i+1]'s
   statement tree for every [Forward] leaf of stage [i], so the staged
   compiler sees one closure tree: one packet parse, every stage's record
   layouts baked, no allocation and no dispatch between stages.

   Every stage's state objects, int/record bindings and purge pairs are
   renamed under a per-stage prefix ([s<i>_<name>_]) before splicing —
   [Check.check] requires globally unambiguous binding names and unique
   state declarations, and the prefix keeps blocked-sharding reasons
   self-describing: "s2_nat_nat_ports is keyed by ..." names the stage
   that forced the ladder down. *)

open Ast

type stage = { index : int; name : string; prefix : string; nf : Ast.t }

type t = { name : string; devices : int; stages : stage list; composed : Ast.t }

let sanitize name =
  String.map (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c | _ -> '_') name

let stage_prefix i name = Printf.sprintf "s%d_%s_" i (sanitize name)

(* --- per-stage renaming ----------------------------------------------------- *)

let rec rename_expr p = function
  | Var x -> Var (p ^ x)
  | Record_field (r, f) -> Record_field (p ^ r, f)
  | Bin (op, a, b) -> Bin (op, rename_expr p a, rename_expr p b)
  | Not e -> Not (rename_expr p e)
  | Cast (w, e) -> Cast (w, rename_expr p e)
  | (Const _ | Field _ | In_port | Now | Pkt_len) as e -> e

let rename_key p key = List.map (rename_expr p) key

let rec rename_stmt p = function
  | If (c, t, f) -> If (rename_expr p c, rename_stmt p t, rename_stmt p f)
  | Let (x, e, k) -> Let (p ^ x, rename_expr p e, rename_stmt p k)
  | Map_get { obj; key; found; value; k } ->
      Map_get
        {
          obj = p ^ obj;
          key = rename_key p key;
          found = p ^ found;
          value = p ^ value;
          k = rename_stmt p k;
        }
  | Map_put { obj; key; value; ok; k } ->
      Map_put
        {
          obj = p ^ obj;
          key = rename_key p key;
          value = rename_expr p value;
          ok = p ^ ok;
          k = rename_stmt p k;
        }
  | Map_erase { obj; key; k } ->
      Map_erase { obj = p ^ obj; key = rename_key p key; k = rename_stmt p k }
  | Vec_get { obj; index; record; k } ->
      Vec_get
        { obj = p ^ obj; index = rename_expr p index; record = p ^ record; k = rename_stmt p k }
  | Vec_set { obj; index; fields; k } ->
      Vec_set
        {
          obj = p ^ obj;
          index = rename_expr p index;
          fields = List.map (fun (f, e) -> (f, rename_expr p e)) fields;
          k = rename_stmt p k;
        }
  | Chain_alloc { obj; index; k_ok; k_fail } ->
      Chain_alloc
        {
          obj = p ^ obj;
          index = p ^ index;
          k_ok = rename_stmt p k_ok;
          k_fail = rename_stmt p k_fail;
        }
  | Chain_rejuv { obj; index; k } ->
      Chain_rejuv { obj = p ^ obj; index = rename_expr p index; k = rename_stmt p k }
  | Chain_expire { obj; purges; age_ns; k } ->
      Chain_expire
        {
          obj = p ^ obj;
          purges = List.map (fun (m, v) -> (p ^ m, p ^ v)) purges;
          age_ns;
          k = rename_stmt p k;
        }
  | Sketch_touch { obj; key; k } ->
      Sketch_touch { obj = p ^ obj; key = rename_key p key; k = rename_stmt p k }
  | Sketch_query { obj; key; count; k } ->
      Sketch_query
        { obj = p ^ obj; key = rename_key p key; count = p ^ count; k = rename_stmt p k }
  | Set_field (f, e, k) -> Set_field (f, rename_expr p e, rename_stmt p k)
  | Forward e -> Forward (rename_expr p e)
  | Drop -> Drop

let rename_decl p = function
  | Decl_map r -> Decl_map { r with name = p ^ r.name }
  | Decl_vector r -> Decl_vector { r with name = p ^ r.name }
  | Decl_chain r -> Decl_chain { r with name = p ^ r.name }
  | Decl_sketch r -> Decl_sketch { r with name = p ^ r.name }

(* --- verdict splicing ------------------------------------------------------- *)

(* Substitute [next] for every [Forward] leaf of one (already renamed)
   stage tree.  [Drop] leaves stand: a dropped packet never reaches the
   rest of the chain. *)
let rec splice next = function
  | If (c, t, f) -> If (c, splice next t, splice next f)
  | Let (x, e, k) -> Let (x, e, splice next k)
  | Map_get r -> Map_get { r with k = splice next r.k }
  | Map_put r -> Map_put { r with k = splice next r.k }
  | Map_erase r -> Map_erase { r with k = splice next r.k }
  | Vec_get r -> Vec_get { r with k = splice next r.k }
  | Vec_set r -> Vec_set { r with k = splice next r.k }
  | Chain_alloc r -> Chain_alloc { r with k_ok = splice next r.k_ok; k_fail = splice next r.k_fail }
  | Chain_rejuv r -> Chain_rejuv { r with k = splice next r.k }
  | Chain_expire r -> Chain_expire { r with k = splice next r.k }
  | Sketch_touch r -> Sketch_touch { r with k = splice next r.k }
  | Sketch_query r -> Sketch_query { r with k = splice next r.k }
  | Set_field (f, e, k) -> Set_field (f, e, splice next k)
  | Forward _ -> next
  | Drop -> Drop

let rec forward_ports acc = function
  | If (_, t, f) -> forward_ports (forward_ports acc t) f
  | Let (_, _, k)
  | Map_get { k; _ }
  | Map_put { k; _ }
  | Map_erase { k; _ }
  | Vec_get { k; _ }
  | Vec_set { k; _ }
  | Chain_rejuv { k; _ }
  | Chain_expire { k; _ }
  | Sketch_touch { k; _ }
  | Sketch_query { k; _ }
  | Set_field (_, _, k) ->
      forward_ports acc k
  | Chain_alloc { k_ok; k_fail; _ } -> forward_ports (forward_ports acc k_ok) k_fail
  | Forward e -> e :: acc
  | Drop -> acc

(* --- composition ------------------------------------------------------------ *)

let ( let* ) r f = Result.bind r f

let check_stage st =
  match Check.check st.nf with
  | Ok _ -> Ok ()
  | Error errs ->
      Error
        (Printf.sprintf "chain stage %d (%s): %s" st.index st.name (String.concat "; " errs))

(* A non-final stage's [Forward] port is erased by the splice, which is
   only sound when the port expression is pure and the forward itself
   cannot fail at runtime: require a constant port within the stage's own
   device range (every shipped NF forwards via [Topo.fwd]). *)
let check_spliceable st =
  let bad =
    List.filter
      (fun e ->
        match e with Const (_, p) -> p < 0 || p >= st.nf.devices | _ -> true)
      (forward_ports [] st.nf.process)
  in
  match bad with
  | [] -> Ok ()
  | e :: _ ->
      Error
        (Format.asprintf
           "chain stage %d (%s): forward port %a is not a constant in-range port, cannot \
            fuse a later stage after it"
           st.index st.name pp_expr e)

let compose ?name nfs =
  match nfs with
  | [] -> Error "chain: empty stage list"
  | _ ->
      let stages =
        List.mapi
          (fun i (nf : Ast.t) ->
            { index = i; name = nf.Ast.name; prefix = stage_prefix i nf.Ast.name; nf })
          nfs
      in
      let n = List.length stages in
      let rec validate = function
        | [] -> Ok ()
        | st :: rest ->
            let* () = check_stage st in
            let* () = if st.index < n - 1 then check_spliceable st else Ok () in
            validate rest
      in
      let* () = validate stages in
      let devices = (List.hd stages).nf.devices in
      (* the final stage's runtime forward bound is the composed device
         count; keeping them identical keeps the fused chain and the
         per-stage oracle bounds-checking the same range *)
      let* () =
        match List.find_opt (fun (st : stage) -> st.nf.devices <> devices) stages with
        | Some st ->
            Error
              (Printf.sprintf
                 "chain stage %d (%s): %d devices, but stage 0 (%s) has %d — chain stages \
                  must share one device count"
                 st.index st.name st.nf.devices (List.hd stages).name devices)
        | None -> Ok ()
      in
      let name =
        match name with
        | Some n -> n
        | None -> "chain_" ^ String.concat "_" (List.map (fun (st : stage) -> sanitize st.name) stages)
      in
      let state =
        List.concat_map (fun (st : stage) -> List.map (rename_decl st.prefix) st.nf.state) stages
      in
      let rec build = function
        | [] -> assert false
        | [ last ] -> rename_stmt last.prefix last.nf.process
        | st :: rest -> splice (build rest) (rename_stmt st.prefix st.nf.process)
      in
      let composed = { Ast.name; devices; state; process = build stages } in
      (* by construction this holds whenever every stage checks; surface a
         composition bug instead of letting it escape as a later check_exn *)
      let* () =
        match Check.check composed with
        | Ok _ -> Ok ()
        | Error errs ->
            Error (Printf.sprintf "chain %s: composed AST fails check: %s" name
                     (String.concat "; " errs))
      in
      Ok { name; devices; stages; composed }

let compose_exn ?name nfs =
  match compose ?name nfs with Ok t -> t | Error e -> invalid_arg e

let nf t = t.composed

let stage_of_obj t obj =
  List.find_opt
    (fun (st : stage) -> String.length obj > String.length st.prefix && String.starts_with ~prefix:st.prefix obj)
    t.stages

let original_obj t obj =
  Option.map
    (fun (st : stage) ->
      (st, String.sub obj (String.length st.prefix) (String.length obj - String.length st.prefix)))
    (stage_of_obj t obj)

(* --- predicate combinators (the NetKAT Filter / Par shapes) ----------------- *)

let filter ?(devices = 2) ~name pred =
  { Ast.name; devices; state = []; process = If (pred, Forward (const ~width:16 0), Drop) }

let branch ?name pred (a : Ast.t) (b : Ast.t) =
  let mk i (nf : Ast.t) =
    { index = i; name = nf.Ast.name; prefix = stage_prefix i nf.Ast.name; nf }
  in
  let sa = mk 0 a and sb = mk 1 b in
  let* () = check_stage sa in
  let* () = check_stage sb in
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "branch_%s_%s" (sanitize a.Ast.name) (sanitize b.Ast.name)
  in
  let* () =
    if a.Ast.devices = b.Ast.devices then Ok ()
    else
      Error
        (Printf.sprintf "branch: %s has %d devices but %s has %d — branch arms must share \
                         one device count"
           a.Ast.name a.Ast.devices b.Ast.name b.Ast.devices)
  in
  let composed =
    {
      Ast.name;
      devices = a.Ast.devices;
      state =
        List.map (rename_decl sa.prefix) a.Ast.state
        @ List.map (rename_decl sb.prefix) b.Ast.state;
      process = If (pred, rename_stmt sa.prefix a.Ast.process, rename_stmt sb.prefix b.Ast.process);
    }
  in
  match Check.check composed with
  | Ok _ -> Ok composed
  | Error errs ->
      Error
        (Printf.sprintf "branch %s: composed AST fails check: %s" name (String.concat "; " errs))

(* --- the sequential interpreter composition oracle -------------------------- *)

type oracle = { o_stages : (stage * Check.info * Instance.t) list }

let oracle t =
  {
    o_stages =
      List.map (fun (st : stage) -> (st, Check.check_exn st.nf, Instance.create st.nf)) t.stages;
  }

let oracle_process ?(on_op = fun _ -> ()) o pkt =
  let rec go stages pkt =
    match stages with
    | [] -> assert false
    | (st, info, inst) :: rest -> (
        let on_op (e : Interp.op_event) =
          on_op { e with Interp.obj = st.prefix ^ e.Interp.obj }
        in
        match (Interp.process ~on_op st.nf info inst pkt, rest) with
        | Interp.Dropped, _ -> Interp.Dropped
        | Interp.Fwd (_, pkt'), _ :: _ -> go rest pkt'
        | (Interp.Fwd _ as act), [] -> act)
  in
  go o.o_stages pkt

(* --- staging ----------------------------------------------------------------- *)

let stage_compiled t = Compile.stage_runner t.composed (Check.check_exn t.composed)
