(* Policy parsing, migration-plan analysis and the quiesced state handoff.
   See balancer.mli for the design notes. *)

type config = { epoch_pkts : int; threshold : float }

let default_config = { epoch_pkts = 4096; threshold = 1.1 }

(* The shared parser shape for mode flags: "off" | "on" | comma-separated
   key=value tokens (implying "on"), every malformed input a typed Error.
   [--rebalance] and [--adaptive] (see {!Adaptive.parse}) both build on
   it, so the two flags reject garbage identically. *)
module Kv = struct
  let parse ~flag ~grammar ~default ~field spec =
    let spec = String.trim spec in
    if spec = "" then Error (Printf.sprintf "%s: empty specification" flag)
    else if spec = "off" then Ok None
    else if spec = "on" then Ok (Some default)
    else
      let tokens = String.split_on_char ',' spec in
      let rec go cfg = function
        | [] -> Ok (Some cfg)
        | tok :: rest -> (
            match String.index_opt tok '=' with
            | None ->
                Error
                  (Printf.sprintf "%s: unknown token %S (expected %s)" flag tok grammar)
            | Some i -> (
                let k = String.trim (String.sub tok 0 i) in
                let v = String.trim (String.sub tok (i + 1) (String.length tok - i - 1)) in
                match field ~key:k ~value:v cfg with
                | Ok cfg -> go cfg rest
                | Error _ as e -> e))
      in
      go default tokens

  let pos_int ~flag ~key v =
    match int_of_string_opt v with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (Printf.sprintf "%s: %s must be a positive integer, got %S" flag key v)

  let nonneg_int ~flag ~key v =
    match int_of_string_opt v with
    | Some n when n >= 0 -> Ok n
    | _ -> Error (Printf.sprintf "%s: %s must be a non-negative integer, got %S" flag key v)

  let ratio ~flag ~key v =
    match float_of_string_opt v with
    | Some f when f >= 1.0 -> Ok f
    | _ -> Error (Printf.sprintf "%s: %s must be >= 1.0, got %S" flag key v)
end

let parse spec =
  let flag = "--rebalance" in
  let ( let* ) = Result.bind in
  let field ~key ~value cfg =
    match key with
    | "epoch" ->
        let* n = Kv.pos_int ~flag ~key value in
        Ok { cfg with epoch_pkts = n }
    | "threshold" ->
        let* f = Kv.ratio ~flag ~key value in
        Ok { cfg with threshold = f }
    | _ -> Error (Printf.sprintf "%s: unknown key %S" flag key)
  in
  Kv.parse ~flag ~grammar:"off, on, epoch=N or threshold=F" ~default:default_config ~field spec

let to_string = function
  | None -> "off"
  | Some { epoch_pkts; threshold } -> Printf.sprintf "epoch=%d,threshold=%g" epoch_pkts threshold

(* ------------------------------------------------------------------ *)
(* Migration planning                                                  *)
(* ------------------------------------------------------------------ *)

(* One serialized segment of a map key, in [Ast.key_of_parts] order.  A key
   is decodable back into packet fields exactly when every expression in the
   [Map_put] key is a plain header field, the input port, or a constant. *)
type seg =
  | Seg_field of Packet.Field.t
  | Seg_port
  | Seg_const of int * int (* width, value *)

type group = {
  chain : string;
  purges : (string * string) list; (* (map, keyvec) pairs, Chain_expire order *)
  vectors : string list; (* chain-tied vectors, keyvecs included *)
}

type migration_plan = {
  groups : group list;
  lone_maps : (string * seg list list) list; (* written, chain-free, decodable *)
  specs : (string * seg list list) list; (* map -> decodable put-key specs *)
  skipped : string list;
  exact_ : bool;
}

let exact p = p.exact_
let skipped_objects p = p.skipped

let seg_of_expr = function
  | Dsl.Ast.Field f -> Some (Seg_field f)
  | Dsl.Ast.In_port -> Some Seg_port
  | Dsl.Ast.Const (w, v) -> Some (Seg_const (w, v))
  | _ -> None

let spec_of_key key =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | e :: rest -> ( match seg_of_expr e with Some s -> go (s :: acc) rest | None -> None)
  in
  go [] key

let rec expr_vars acc = function
  | Dsl.Ast.Const _ | Dsl.Ast.Field _ | Dsl.Ast.In_port | Dsl.Ast.Now | Dsl.Ast.Pkt_len -> acc
  | Dsl.Ast.Var x -> x :: acc
  | Dsl.Ast.Record_field _ -> acc
  | Dsl.Ast.Bin (_, a, b) -> expr_vars (expr_vars acc a) b
  | Dsl.Ast.Not e | Dsl.Ast.Cast (_, e) -> expr_vars acc e

(* Chains whose index a variable carries, under the environment [env]
   (variable -> chain). *)
let chains_in env e =
  List.filter_map (fun x -> List.assoc_opt x env) (expr_vars [] e)

let migration_plan (nf : Dsl.Ast.t) =
  let purge_pairs : (string, (string * string) list) Hashtbl.t = Hashtbl.create 8 in
  let put_specs : (string, seg list list) Hashtbl.t = Hashtbl.create 8 in
  let written_maps = Hashtbl.create 8 in
  let written_vecs = Hashtbl.create 8 in
  let written_sketches = Hashtbl.create 8 in
  let vec_ties : (string, string) Hashtbl.t = Hashtbl.create 8 in
  (* vector -> chain *)
  let vec_loose = Hashtbl.create 8 in
  (* vectors also indexed by a non-chain expression *)
  let unsupported : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  (* chains the analysis gave up on *)
  let mark_unsupported cs = List.iter (fun c -> Hashtbl.replace unsupported c ()) cs in
  let note_spec obj key =
    match spec_of_key key with
    | None -> ()
    | Some spec ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt put_specs obj) in
        if not (List.mem spec prev) then Hashtbl.replace put_specs obj (spec :: prev)
  in
  let tie_vector env obj index =
    match index with
    | Dsl.Ast.Var x when List.mem_assoc x env ->
        let c = List.assoc x env in
        (match Hashtbl.find_opt vec_ties obj with
        | None -> Hashtbl.replace vec_ties obj c
        | Some c' when c' = c -> ()
        | Some c' ->
            (* one vector indexed by two different chains: give up on both *)
            mark_unsupported [ c; c' ]);
        ()
    | _ ->
        (match chains_in env index with
        | [] -> Hashtbl.replace vec_loose obj ()
        | cs ->
            (* index arithmetic on a chain index defeats slot-for-slot
               migration *)
            mark_unsupported cs);
        ()
  in
  let bind env x = List.remove_assoc x env in
  let rec walk env (s : Dsl.Ast.stmt) =
    match s with
    | Dsl.Ast.If (_, a, b) ->
        walk env a;
        walk env b
    | Dsl.Ast.Let (x, e, k) -> (
        match e with
        | Dsl.Ast.Var y when List.mem_assoc y env ->
            walk ((x, List.assoc y env) :: bind env x) k
        | _ ->
            mark_unsupported (chains_in env e);
            walk (bind env x) k)
    | Dsl.Ast.Map_get { obj; value; k; _ } ->
        let env = bind env value in
        let env =
          match
            Hashtbl.fold
              (fun chain pairs acc ->
                if List.exists (fun (m, _) -> m = obj) pairs then Some chain else acc)
              purge_pairs None
          with
          | Some chain -> (value, chain) :: env
          | None -> env
        in
        walk env k
    | Dsl.Ast.Map_put { obj; key; value; ok; k } ->
        Hashtbl.replace written_maps obj ();
        note_spec obj key;
        (match value with
        | Dsl.Ast.Var x when List.mem_assoc x env ->
            let c = List.assoc x env in
            let paired =
              match Hashtbl.find_opt purge_pairs c with
              | Some pairs -> List.exists (fun (m, _) -> m = obj) pairs
              | None -> false
            in
            (* storing a chain index in a map that Chain_expire does not
               purge would leave a dangling index after migration *)
            if not paired then mark_unsupported [ c ]
        | _ -> mark_unsupported (chains_in env value));
        walk (bind env ok) k
    | Dsl.Ast.Map_erase { obj; k; _ } ->
        Hashtbl.replace written_maps obj ();
        walk env k
    | Dsl.Ast.Vec_get { obj; index; k; _ } ->
        tie_vector env obj index;
        walk env k
    | Dsl.Ast.Vec_set { obj; index; fields; k } ->
        Hashtbl.replace written_vecs obj ();
        tie_vector env obj index;
        List.iter (fun (_, e) -> mark_unsupported (chains_in env e)) fields;
        walk env k
    | Dsl.Ast.Chain_alloc { obj; index; k_ok; k_fail } ->
        walk ((index, obj) :: bind env index) k_ok;
        walk (bind env index) k_fail
    | Dsl.Ast.Chain_rejuv { k; _ } -> walk env k
    | Dsl.Ast.Chain_expire { k; _ } -> walk env k
    | Dsl.Ast.Sketch_touch { obj; k; _ } ->
        Hashtbl.replace written_sketches obj ();
        walk env k
    | Dsl.Ast.Sketch_query { count; k; _ } -> walk (bind env count) k
    | Dsl.Ast.Set_field (_, e, k) ->
        mark_unsupported (chains_in env e);
        walk env k
    | Dsl.Ast.Forward e -> mark_unsupported (chains_in env e)
    | Dsl.Ast.Drop -> ()
  in
  (* Purge pairs first (they inform Map_get index bindings), then the
     variable-flow walk. *)
  let rec collect_purges (s : Dsl.Ast.stmt) =
    match s with
    | Dsl.Ast.If (_, a, b) ->
        collect_purges a;
        collect_purges b
    | Dsl.Ast.Let (_, _, k)
    | Dsl.Ast.Map_get { k; _ }
    | Dsl.Ast.Map_put { k; _ }
    | Dsl.Ast.Map_erase { k; _ }
    | Dsl.Ast.Vec_get { k; _ }
    | Dsl.Ast.Vec_set { k; _ }
    | Dsl.Ast.Chain_rejuv { k; _ }
    | Dsl.Ast.Sketch_touch { k; _ }
    | Dsl.Ast.Sketch_query { k; _ }
    | Dsl.Ast.Set_field (_, _, k) ->
        collect_purges k
    | Dsl.Ast.Chain_expire { obj; purges; k; _ } ->
        (match Hashtbl.find_opt purge_pairs obj with
        | None -> Hashtbl.replace purge_pairs obj purges
        | Some prev when prev = purges -> ()
        | Some _ -> Hashtbl.replace unsupported obj ());
        collect_purges k
    | Dsl.Ast.Chain_alloc { k_ok; k_fail; _ } ->
        collect_purges k_ok;
        collect_purges k_fail
    | Dsl.Ast.Forward _ | Dsl.Ast.Drop -> ()
  in
  collect_purges nf.Dsl.Ast.process;
  walk [] nf.Dsl.Ast.process;
  (* A purge map whose put keys are not all decodable defeats migration of
     its chain (we could not rehash the flows). *)
  Hashtbl.iter
    (fun chain pairs ->
      List.iter
        (fun (m, _) ->
          if Hashtbl.find_opt put_specs m = None then Hashtbl.replace unsupported chain ())
        pairs)
    purge_pairs;
  let decl_names kind =
    List.filter_map kind nf.Dsl.Ast.state
  in
  let chains =
    decl_names (function Dsl.Ast.Decl_chain { name; _ } -> Some name | _ -> None)
  in
  let purge_map_names =
    Hashtbl.fold (fun _ pairs acc -> List.map fst pairs @ acc) purge_pairs []
  in
  let groups =
    List.filter_map
      (fun chain ->
        match Hashtbl.find_opt purge_pairs chain with
        | Some ((_ :: _) as purges) when not (Hashtbl.mem unsupported chain) ->
            let keyvecs = List.map snd purges in
            let tied =
              Hashtbl.fold
                (fun v c acc -> if c = chain && not (List.mem v acc) then v :: acc else acc)
                vec_ties []
            in
            let vectors =
              List.sort_uniq compare (keyvecs @ tied)
            in
            (* a tied vector that is also indexed some other way cannot
               move slot-for-slot *)
            if List.exists (fun v -> Hashtbl.mem vec_loose v) vectors then None
            else Some { chain; purges; vectors }
        | _ -> None)
      chains
  in
  let supported_chains = List.map (fun g -> g.chain) groups in
  let supported_vectors = List.concat_map (fun g -> g.vectors) groups in
  let lone_maps =
    Hashtbl.fold
      (fun m () acc ->
        if List.mem m purge_map_names then acc
        else
          match Hashtbl.find_opt put_specs m with
          | Some specs -> (m, specs) :: acc
          | None -> acc)
      written_maps []
  in
  let lone_map_names = List.map fst lone_maps in
  let skipped =
    let written_chains =
      (* a chain is "written" if the NF declares it and it is not static
         config: every chain that appears in the process tree allocates *)
      List.filter (fun c -> not (List.mem c supported_chains)) chains
    in
    let maps =
      Hashtbl.fold
        (fun m () acc ->
          if List.mem m lone_map_names then acc
          else if
            List.exists
              (fun g -> List.exists (fun (pm, _) -> pm = m) g.purges)
              groups
          then acc
          else m :: acc)
        written_maps []
    in
    let vecs =
      Hashtbl.fold
        (fun v () acc -> if List.mem v supported_vectors then acc else v :: acc)
        written_vecs []
    in
    let sketches = Hashtbl.fold (fun s () acc -> s :: acc) written_sketches [] in
    List.sort_uniq compare (written_chains @ maps @ vecs @ sketches)
  in
  let exact_ =
    (* sketches are estimators: skipping them degrades estimates, not
       exact state *)
    List.for_all (fun o -> Hashtbl.mem written_sketches o) skipped
  in
  {
    groups;
    lone_maps;
    specs = Hashtbl.fold (fun m s acc -> (m, s) :: acc) put_specs [];
    skipped;
    exact_;
  }

(* ------------------------------------------------------------------ *)
(* Key decoding                                                        *)
(* ------------------------------------------------------------------ *)

let seg_bits = function
  | Seg_field f -> Packet.Field.width f
  | Seg_port -> 16
  | Seg_const (w, _) -> w

let seg_bytes s = (seg_bits s + 7) / 8

let mask_width w v = if w >= 63 then v else v land ((1 lsl w) - 1)

let read_be key off bytes =
  let v = ref 0 in
  for i = 0 to bytes - 1 do
    v := (!v lsl 8) lor Char.code key.[off + i]
  done;
  !v

(* Decode a serialized key against one spec: the port (if the key embeds
   [In_port]) and the header fields.  [None] when lengths or embedded
   constants disagree. *)
let try_spec spec key =
  let total = List.fold_left (fun acc s -> acc + seg_bytes s) 0 spec in
  if String.length key <> total then None
  else
    let rec go off port fields = function
      | [] -> Some (port, List.rev fields)
      | s :: rest -> (
          let b = seg_bytes s in
          let v = read_be key off b in
          match s with
          | Seg_field f -> go (off + b) port ((f, v) :: fields) rest
          | Seg_port -> go (off + b) (Some v) fields rest
          | Seg_const (w, c) -> if v = mask_width w c then go (off + b) port fields rest else None)
    in
    go 0 None [] spec

let decode specs key = List.find_map (fun spec -> try_spec spec key) specs

let pkt_of_fields ?port fields =
  let base = Packet.Pkt.make ?port ~ip_src:0 ~ip_dst:0 ~src_port:0 ~dst_port:0 () in
  List.fold_left (fun p (f, v) -> Packet.Pkt.set_field p f v) base fields

(* ------------------------------------------------------------------ *)
(* Migration execution                                                 *)
(* ------------------------------------------------------------------ *)

type outcome = { moved_flows : int; dropped_flows : int }

let find_map inst name =
  match Dsl.Instance.find inst name with
  | Dsl.Instance.O_map m -> m
  | _ -> invalid_arg ("Balancer.migrate: " ^ name ^ " is not a map")

let find_chain inst name =
  match Dsl.Instance.find inst name with
  | Dsl.Instance.O_chain c -> c
  | _ -> invalid_arg ("Balancer.migrate: " ^ name ^ " is not a chain")

let find_vector inst name =
  match Dsl.Instance.find inst name with
  | Dsl.Instance.O_vector v -> v
  | _ -> invalid_arg ("Balancer.migrate: " ^ name ^ " is not a vector")

let rebuild_key inst keyvec i =
  let v = find_vector inst keyvec in
  let base = i * v.Dsl.Instance.stride in
  Dsl.Ast.key_of_parts
    (List.mapi (fun j (_, w) -> (w, v.Dsl.Instance.slots.(base + j))) v.Dsl.Instance.layout)

let clear_slot (v : Dsl.Instance.vector) i = Array.fill v.slots (i * v.stride) v.stride 0

let migrate_group plan g ~hash ~owner ~instances ~moved ~dropped =
  let primary_map = fst (List.hd g.purges) in
  let specs = List.assoc primary_map plan.specs in
  Array.iteri
    (fun s inst ->
      let chain = find_chain inst g.chain in
      let entries = ref [] in
      State.Dchain.iter_allocated chain (fun i touch -> entries := (i, touch) :: !entries);
      List.iter
        (fun (i, touch) ->
          let primary_key = rebuild_key inst (snd (List.hd g.purges)) i in
          match decode specs primary_key with
          | None -> () (* key not produced by a decodable put: leave in place *)
          | Some (port, fields) -> (
              match hash (pkt_of_fields ?port fields) with
              | None -> ()
              | Some h ->
                  let d = owner h in
                  if d <> s then begin
                    let tgt = instances.(d) in
                    (* rebuild every purge key before slots are disturbed *)
                    let purge_keys =
                      List.map (fun (m, kv) -> (m, rebuild_key inst kv i)) g.purges
                    in
                    let drop_from_source () =
                      List.iter
                        (fun (m, key) -> ignore (State.Map_s.erase (find_map inst m) key))
                        purge_keys;
                      List.iter (fun v -> clear_slot (find_vector inst v) i) g.vectors;
                      ignore (State.Dchain.free chain i);
                      incr dropped
                    in
                    let room =
                      List.for_all
                        (fun (m, _) ->
                          let tm = find_map tgt m in
                          State.Map_s.size tm < State.Map_s.capacity tm)
                        purge_keys
                    in
                    if not room then drop_from_source ()
                    else
                      match State.Dchain.allocate_at (find_chain tgt g.chain) ~touched:touch with
                      | None -> drop_from_source ()
                      | Some j ->
                          List.iter
                            (fun v ->
                              let src = find_vector inst v and dst = find_vector tgt v in
                              let stride = src.Dsl.Instance.stride in
                              Array.blit src.Dsl.Instance.slots (i * stride) dst.Dsl.Instance.slots
                                (j * stride) stride;
                              clear_slot src i)
                            g.vectors;
                          List.iter
                            (fun (m, key) ->
                              ignore (State.Map_s.erase (find_map inst m) key);
                              ignore (State.Map_s.put (find_map tgt m) key j))
                            purge_keys;
                          ignore (State.Dchain.free chain i);
                          incr moved
                  end))
        (List.rev !entries))
    instances

(* Keys are walked in key order ({!State.Map_s.entries}): when the
   destination fills up, which keys move and which are dropped must not
   depend on the size the source's table grew to. *)
let migrate_lone_map (name, specs) ~hash ~owner ~instances ~moved ~dropped =
  Array.iteri
    (fun s inst ->
      let m_s = find_map inst name in
      List.iter
        (fun (key, v) ->
          match decode specs key with
          | None -> ()
          | Some (port, fields) -> (
              match hash (pkt_of_fields ?port fields) with
              | None -> ()
              | Some h ->
                  let d = owner h in
                  if d <> s then begin
                    let m_d = find_map instances.(d) name in
                    if State.Map_s.mem m_d key || State.Map_s.size m_d < State.Map_s.capacity m_d
                    then begin
                      ignore (State.Map_s.put m_d key v);
                      ignore (State.Map_s.erase m_s key);
                      incr moved
                    end
                    else begin
                      ignore (State.Map_s.erase m_s key);
                      incr dropped
                    end
                  end))
        (State.Map_s.entries m_s))
    instances

let migrate_by plan ~hash ~owner ~instances =
  let moved = ref 0 and dropped = ref 0 in
  List.iter (fun g -> migrate_group plan g ~hash ~owner ~instances ~moved ~dropped) plan.groups;
  List.iter (fun lm -> migrate_lone_map lm ~hash ~owner ~instances ~moved ~dropped) plan.lone_maps;
  { moved_flows = !moved; dropped_flows = !dropped }

let migrate plan ~hash ~mask ~dest ~instances =
  migrate_by plan ~hash ~owner:(fun h -> dest (h land mask)) ~instances

(* --- dispatch records ------------------------------------------------------- *)

let imbalance_of counts =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 1.0
  else
    let mean = float_of_int total /. float_of_int (Array.length counts) in
    float_of_int (Array.fold_left max 0 counts) /. mean

let epoch_counts ~cores ~epoch_pkts assignment =
  let n = Array.length assignment in
  Array.init ((n + epoch_pkts - 1) / epoch_pkts) (fun e ->
      let counts = Array.make cores 0 in
      for i = e * epoch_pkts to min n ((e + 1) * epoch_pkts) - 1 do
        counts.(assignment.(i)) <- counts.(assignment.(i)) + 1
      done;
      counts)

let ordering_violations ?(exempt = fun _ -> false) ~key ~points assignment =
  let core_of = Hashtbl.create 1024 in
  let points = ref points and viol = ref 0 in
  Array.iteri
    (fun i core ->
      while match !points with p :: _ -> i >= p | [] -> false do
        points := List.tl !points;
        Hashtbl.reset core_of
      done;
      if not (exempt i) then
        let k = key i in
        match Hashtbl.find_opt core_of k with
        | None -> Hashtbl.add core_of k core
        | Some c -> if c <> core then incr viol)
    assignment;
  !viol
