(* Staged compilation of checked NF programs.

   [stage] walks the AST once and emits a tree of closures — the
   "compiled NF" — in which everything the interpreter re-derives per
   packet is already resolved: variable and record bindings are fixed
   slots in a preallocated frame, expression widths are baked-in mask
   constants, record layouts are field indices, and container keys
   of up to 14 bytes are packed ({!State.Key}) into an int pair feeding
   the allocation-free [_packed] container operations.  [bind] then
   resolves the staged program against one {!Instance} and allocates the
   frame; the resulting [bound] value processes packets without touching
   the minor heap on packed-key NFs, which is every corpus NF (keys over
   14 bytes serialize into a per-site key buffer aliased to the
   non-retaining map operations, paying a string copy only on [put]; a
   [Fwd] verdict is itself a block — all measured by
   [bench/nfpath.exe]).

   The staging is semantics-preserving by construction and checked by
   the differential suite: every closure mirrors one [Interp] case,
   including the op-event order, the purge-before-emit behaviour of
   [Chain_expire], and the [Runtime_error] conditions. *)

open Ast

let nop_op (_ : Interp.op_event) = ()

(* The per-bound execution frame.  [ints] holds scalar bindings by slot,
   [recs] one scratch array per record binding (records are snapshots in
   the interpreter, so overwriting the scratch on rebinding matches the
   assoc-shadowing semantics), [scratch] one reusable buffer per
   wide-key site.  A packed key's [hi] half travels through an [ints]
   slot of its own. *)
type ctx = {
  ints : int array;
  recs : int array array;
  maps : State.Map_s.t array;
  vecs : Instance.vector array;
  chains : State.Dchain.t array;
  sketches : State.Sketch.t array;
  scratch : Bytes.t array;
  mutable pkt : Packet.Pkt.t;
  mutable on_op : Interp.op_event -> unit;
}

type t = {
  entry : ctx -> Interp.action;
  n_ints : int;
  rec_lens : int array;
  map_names : string array;
  vec_names : string array;
  chain_names : string array;
  sketch_names : string array;
  scratch_sizes : int array;
}

type bound = { b_ctx : ctx; b_entry : ctx -> Interp.action }

let fail fmt = Format.kasprintf (fun s -> raise (Interp.Runtime_error s)) fmt

(* Stage-time slot registries. *)
type reg = {
  r_vars : (string, int) Hashtbl.t;
  mutable r_n_vars : int;
  r_recs : (string, int) Hashtbl.t;
  mutable r_rec_lens : int list; (* reversed *)
  r_maps : (string, int) Hashtbl.t;
  r_vecs : (string, int) Hashtbl.t;
  r_chains : (string, int) Hashtbl.t;
  r_sketches : (string, int) Hashtbl.t;
  mutable r_scratch : int list; (* reversed *)
}

let intern tbl name ~fresh =
  match Hashtbl.find_opt tbl name with
  | Some i -> i
  | None ->
      let i = fresh () in
      Hashtbl.add tbl name i;
      i

let obj_slot tbl name = intern tbl name ~fresh:(fun () -> Hashtbl.length tbl)

let mask_of w = if w >= 62 then -1 else (1 lsl w) - 1

let stage_span = "compile.stage"

let stage (nf : Ast.t) info =
  Telemetry.Span.with_span stage_span @@ fun () ->
  let reg =
    {
      r_vars = Hashtbl.create 16;
      r_n_vars = 0;
      r_recs = Hashtbl.create 8;
      r_rec_lens = [];
      r_maps = Hashtbl.create 4;
      r_vecs = Hashtbl.create 4;
      r_chains = Hashtbl.create 4;
      r_sketches = Hashtbl.create 4;
      r_scratch = [];
    }
  in
  let fresh_slot () =
    let i = reg.r_n_vars in
    reg.r_n_vars <- i + 1;
    i
  in
  let var_slot x = intern reg.r_vars x ~fresh:fresh_slot in
  let rec_slot r =
    intern reg.r_recs r ~fresh:(fun () ->
        let i = Hashtbl.length reg.r_recs in
        reg.r_rec_lens <- List.length (Check.record_layout info r) :: reg.r_rec_lens;
        i)
  in
  let scratch_slot size =
    let i = List.length reg.r_scratch in
    reg.r_scratch <- size :: reg.r_scratch;
    i
  in
  let field_index layout f =
    let rec go i = function
      | [] -> fail "record has no field %s" f
      | (g, _) :: rest -> if String.equal f g then i else go (i + 1) rest
    in
    go 0 layout
  in
  let rec cexpr e : ctx -> int =
    match e with
    | Const (w, v) ->
        let v = v land mask_of w in
        fun _ -> v
    | Field f -> fun c -> Packet.Pkt.field_int c.pkt f
    | In_port -> fun c -> c.pkt.Packet.Pkt.port
    | Now -> fun c -> c.pkt.Packet.Pkt.ts_ns
    | Pkt_len -> fun c -> c.pkt.Packet.Pkt.size
    | Var x ->
        let s = var_slot x in
        fun c -> Array.unsafe_get c.ints s
    | Record_field (r, f) ->
        let rs = rec_slot r in
        let fi = field_index (Check.record_layout info r) f in
        fun c -> Array.unsafe_get (Array.unsafe_get c.recs rs) fi
    | Bin (op, a, b) -> (
        let ga = cexpr a and gb = cexpr b in
        let m = mask_of (max (Check.expr_width info a) (Check.expr_width info b)) in
        match op with
        | Add -> fun c -> (ga c + gb c) land m
        | Sub -> fun c -> (ga c - gb c) land m
        | Mul -> fun c -> (ga c * gb c) land m
        | Div ->
            fun c ->
              let vb = gb c in
              if vb = 0 then 0 else ga c / vb land m
        | Mod ->
            fun c ->
              let vb = gb c in
              if vb = 0 then 0 else ga c mod vb land m
        | Eq -> fun c -> if ga c = gb c then 1 else 0
        | Neq -> fun c -> if ga c <> gb c then 1 else 0
        | Lt -> fun c -> if ga c < gb c then 1 else 0
        | Le -> fun c -> if ga c <= gb c then 1 else 0
        | Land -> fun c -> ga c land gb c
        | Lor -> fun c -> ga c lor gb c)
    | Not a ->
        let ga = cexpr a in
        fun c -> 1 - ga c
    | Cast (w, a) ->
        let ga = cexpr a in
        let m = mask_of w in
        fun c -> ga c land m
  in
  (* A compiled key.  A packed key writes its [hi] half into its own frame
     slot and returns [lo]; callers read the slot after the call.  A wide
     key (over 14 bytes) serializes into the site's key buffer.  Each
     part is truncated to its byte width, exactly as [Ast.key_of_parts]
     truncates when serializing. *)
  let ckey key =
    let parts =
      List.map
        (fun e ->
          let w = Check.expr_width info e in
          ((w + 7) / 8, cexpr e))
        key
    in
    let total = List.fold_left (fun a (b, _) -> a + b) 0 parts in
    if total <= State.Key.max_packed_bytes then begin
      let hs = fresh_slot () in
      let tag = State.Key.tag ~bytes:total in
      let kc =
        List.fold_left2
          (fun k (bytes, g) shift ->
            let pm = State.Key.part_mask ~bytes in
            if shift + (8 * bytes) <= State.Key.tag_shift then fun c ->
              k c lor ((g c land pm) lsl shift)
            else fun c ->
              let lo = k c in
              let v = g c land pm in
              Array.unsafe_set c.ints hs
                (Array.unsafe_get c.ints hs lor State.Key.hi_bits ~shift v);
              lo lor State.Key.lo_bits ~shift v)
          (fun c ->
            Array.unsafe_set c.ints hs tag;
            0)
          parts
          (State.Key.part_shifts (List.map fst parts))
      in
      `Packed (hs, kc)
    end
    else begin
      let slot = scratch_slot total in
      let _, writers =
        List.fold_left
          (fun (off, acc) (bytes, g) ->
            let w c buf =
              let v = g c in
              for i = 0 to bytes - 1 do
                Bytes.unsafe_set buf (off + i)
                  (Char.unsafe_chr ((v lsr (8 * (bytes - 1 - i))) land 0xff))
              done
            in
            (off + bytes, w :: acc))
          (0, []) parts
      in
      let writers = Array.of_list (List.rev writers) in
      (* Returns the site's scratch buffer itself (sized exactly [total]).
         Call sites alias it with [Bytes.unsafe_to_string] for operations
         that do not retain the key (find/mem/erase/hash) and copy it only
         for [put], which stores the key. *)
      `Wide
        (fun c ->
          let buf = Array.unsafe_get c.scratch slot in
          for i = 0 to Array.length writers - 1 do
            (Array.unsafe_get writers i) c buf
          done;
          buf)
    end
  in
  let event obj kind =
    { Interp.obj; kind; write = Interp.op_is_write kind; expired = 0 }
  in
  let rec crun stmt : ctx -> Interp.action =
    match stmt with
    | If (cond, t, f) ->
        let gc = cexpr cond and kt = crun t and kf = crun f in
        fun c -> if gc c = 1 then kt c else kf c
    | Let (x, e, k) ->
        let ge = cexpr e in
        let s = var_slot x in
        let kk = crun k in
        fun c ->
          Array.unsafe_set c.ints s (ge c);
          kk c
    | Map_get { obj; key; found; value; k } -> (
        let ev = event obj Interp.Op_map_get in
        let ms = obj_slot reg.r_maps obj in
        let fs = var_slot found and vs = var_slot value in
        let kk = crun k in
        match ckey key with
        | `Packed (hs, kc) ->
            fun c ->
              c.on_op ev;
              let lo = kc c in
              let v =
                State.Map_s.find_packed (Array.unsafe_get c.maps ms) (Array.unsafe_get c.ints hs) lo
                  ~absent:min_int
              in
              if v = min_int then begin
                Array.unsafe_set c.ints fs 0;
                Array.unsafe_set c.ints vs 0
              end
              else begin
                Array.unsafe_set c.ints fs 1;
                Array.unsafe_set c.ints vs v
              end;
              kk c
        | `Wide kc ->
            fun c ->
              c.on_op ev;
              let v =
                State.Map_s.find_wide (Array.unsafe_get c.maps ms)
                  (Bytes.unsafe_to_string (kc c))
                  ~absent:min_int
              in
              if v = min_int then begin
                Array.unsafe_set c.ints fs 0;
                Array.unsafe_set c.ints vs 0
              end
              else begin
                Array.unsafe_set c.ints fs 1;
                Array.unsafe_set c.ints vs v
              end;
              kk c)
    | Map_put { obj; key; value; ok; k } -> (
        let ev = event obj Interp.Op_map_put in
        let ms = obj_slot reg.r_maps obj in
        let gv = cexpr value in
        let os = var_slot ok in
        let kk = crun k in
        match ckey key with
        | `Packed (hs, kc) ->
            fun c ->
              c.on_op ev;
              let lo = kc c in
              let r =
                State.Map_s.put_packed (Array.unsafe_get c.maps ms) (Array.unsafe_get c.ints hs) lo
                  (gv c)
              in
              Array.unsafe_set c.ints os (Bool.to_int r);
              kk c
        | `Wide kc ->
            fun c ->
              c.on_op ev;
              let r =
                State.Map_s.put_wide (Array.unsafe_get c.maps ms)
                  (Bytes.to_string (kc c))
                  (gv c)
              in
              Array.unsafe_set c.ints os (Bool.to_int r);
              kk c)
    | Map_erase { obj; key; k } -> (
        let ev = event obj Interp.Op_map_erase in
        let ms = obj_slot reg.r_maps obj in
        let kk = crun k in
        match ckey key with
        | `Packed (hs, kc) ->
            fun c ->
              c.on_op ev;
              let lo = kc c in
              let m = Array.unsafe_get c.maps ms in
              ignore (State.Map_s.erase_packed m (Array.unsafe_get c.ints hs) lo);
              kk c
        | `Wide kc ->
            fun c ->
              c.on_op ev;
              ignore
                (State.Map_s.erase_wide (Array.unsafe_get c.maps ms)
                   (Bytes.unsafe_to_string (kc c)));
              kk c)
    | Vec_get { obj; index; record; k } ->
        let ev = event obj Interp.Op_vec_get in
        let vs = obj_slot reg.r_vecs obj in
        let gi = cexpr index in
        let rs = rec_slot record in
        let len = List.length (Check.record_layout info record) in
        let kk = crun k in
        fun c ->
          c.on_op ev;
          let v = Array.unsafe_get c.vecs vs in
          let i = gi c in
          if i < 0 || i >= v.Instance.capacity then
            fail "vec_get %s: index %d out of range" obj i;
          Array.blit v.Instance.slots (i * v.Instance.stride) (Array.unsafe_get c.recs rs) 0 len;
          kk c
    | Vec_set { obj; index; fields; k } ->
        let ev = event obj Interp.Op_vec_set in
        let vs = obj_slot reg.r_vecs obj in
        let gi = cexpr index in
        let layout = Check.layout_of_object info obj in
        let setters =
          Array.of_list
            (List.map (fun (f, e) -> (field_index layout f, cexpr e)) fields)
        in
        let kk = crun k in
        fun c ->
          c.on_op ev;
          let v = Array.unsafe_get c.vecs vs in
          let i = gi c in
          if i < 0 || i >= v.Instance.capacity then
            fail "vec_set %s: index %d out of range" obj i;
          let base = i * v.Instance.stride in
          for j = 0 to Array.length setters - 1 do
            let p, g = Array.unsafe_get setters j in
            Array.unsafe_set v.Instance.slots (base + p) (g c)
          done;
          kk c
    | Chain_alloc { obj; index; k_ok; k_fail } ->
        let ev = event obj Interp.Op_chain_alloc in
        let cs = obj_slot reg.r_chains obj in
        let is = var_slot index in
        let kok = crun k_ok and kfail = crun k_fail in
        fun c ->
          c.on_op ev;
          let i =
            State.Dchain.allocate_idx (Array.unsafe_get c.chains cs)
              ~now:c.pkt.Packet.Pkt.ts_ns
          in
          if i >= 0 then begin
            Array.unsafe_set c.ints is i;
            kok c
          end
          else kfail c
    | Chain_rejuv { obj; index; k } ->
        let ev = event obj Interp.Op_chain_rejuv in
        let cs = obj_slot reg.r_chains obj in
        let gi = cexpr index in
        let kk = crun k in
        fun c ->
          c.on_op ev;
          ignore
            (State.Dchain.rejuvenate (Array.unsafe_get c.chains cs) (gi c)
               ~now:c.pkt.Packet.Pkt.ts_ns);
          kk c
    | Chain_expire { obj; purges; age_ns; k } ->
        let ev0 =
          { Interp.obj; kind = Interp.Op_chain_expire; write = false; expired = 0 }
        in
        let cs = obj_slot reg.r_chains obj in
        let purgers =
          Array.of_list
            (List.map
               (fun (map, keyvec) ->
                 let ms = obj_slot reg.r_maps map in
                 let vs = obj_slot reg.r_vecs keyvec in
                 let layout = Check.layout_of_object info keyvec in
                 let bytes = List.map (fun (_, w) -> (w + 7) / 8) layout in
                 let total = List.fold_left ( + ) 0 bytes in
                 if total <= State.Key.max_packed_bytes then begin
                   (* rebuild the (hi, lo) pair [ckey] built at put time *)
                   let tag = State.Key.tag ~bytes:total in
                   let shifts = Array.of_list (State.Key.part_shifts bytes) in
                   let masks =
                     Array.of_list (List.map (fun bytes -> State.Key.part_mask ~bytes) bytes)
                   in
                   fun c freed ->
                     let m = Array.unsafe_get c.maps ms in
                     let v = Array.unsafe_get c.vecs vs in
                     List.iter
                       (fun i ->
                         let base = i * v.Instance.stride in
                         let hi = ref tag and lo = ref 0 in
                         for j = 0 to Array.length shifts - 1 do
                           let x =
                             Array.unsafe_get v.Instance.slots (base + j)
                             land Array.unsafe_get masks j
                           in
                           let shift = Array.unsafe_get shifts j in
                           hi := !hi lor State.Key.hi_bits ~shift x;
                           lo := !lo lor State.Key.lo_bits ~shift x
                         done;
                         ignore (State.Map_s.erase_packed m !hi !lo))
                       freed
                 end
                 else
                   fun c freed ->
                     let m = Array.unsafe_get c.maps ms in
                     let v = Array.unsafe_get c.vecs vs in
                     List.iter
                       (fun i ->
                         let base = i * v.Instance.stride in
                         let key =
                           key_of_parts
                             (List.mapi (fun j (_, w) -> (w, v.Instance.slots.(base + j))) layout)
                         in
                         ignore (State.Map_s.erase m key))
                       freed)
               purges)
        in
        let kk = crun k in
        fun c ->
          let chain = Array.unsafe_get c.chains cs in
          let threshold = c.pkt.Packet.Pkt.ts_ns - age_ns in
          let freed = State.Dchain.expire_before chain ~threshold in
          (match freed with
          | [] -> c.on_op ev0
          | _ ->
              for i = 0 to Array.length purgers - 1 do
                (Array.unsafe_get purgers i) c freed
              done;
              c.on_op
                {
                  Interp.obj;
                  kind = Interp.Op_chain_expire;
                  write = true;
                  expired = List.length freed;
                });
          kk c
    | Sketch_touch { obj; key; k } -> (
        let ev = event obj Interp.Op_sketch_touch in
        let ss = obj_slot reg.r_sketches obj in
        let kk = crun k in
        match ckey key with
        | `Packed (hs, kc) ->
            fun c ->
              c.on_op ev;
              let lo = kc c in
              State.Sketch.increment_packed (Array.unsafe_get c.sketches ss)
                (Array.unsafe_get c.ints hs) lo;
              kk c
        | `Wide kc ->
            fun c ->
              c.on_op ev;
              State.Sketch.increment (Array.unsafe_get c.sketches ss)
                (Bytes.unsafe_to_string (kc c));
              kk c)
    | Sketch_query { obj; key; count; k } -> (
        let ev = event obj Interp.Op_sketch_query in
        let ss = obj_slot reg.r_sketches obj in
        let ns = var_slot count in
        let kk = crun k in
        match ckey key with
        | `Packed (hs, kc) ->
            fun c ->
              c.on_op ev;
              let lo = kc c in
              Array.unsafe_set c.ints ns
                (State.Sketch.count_packed (Array.unsafe_get c.sketches ss)
                   (Array.unsafe_get c.ints hs) lo);
              kk c
        | `Wide kc ->
            fun c ->
              c.on_op ev;
              Array.unsafe_set c.ints ns
                (State.Sketch.count (Array.unsafe_get c.sketches ss)
                   (Bytes.unsafe_to_string (kc c)));
              kk c)
    | Set_field (f, e, k) ->
        let ge = cexpr e in
        let kk = crun k in
        fun c ->
          c.pkt <- Interp.set_pkt_field c.pkt f (ge c);
          kk c
    | Forward e ->
        let ge = cexpr e in
        let devices = nf.devices in
        fun c ->
          let port = ge c in
          if port < 0 || port >= devices then fail "forward to unknown device %d" port;
          Interp.Fwd (port, c.pkt)
    | Drop -> fun _ -> Interp.Dropped
  in
  let entry = crun nf.process in
  let names tbl =
    let a = Array.make (Hashtbl.length tbl) "" in
    Hashtbl.iter (fun name i -> a.(i) <- name) tbl;
    a
  in
  {
    entry;
    n_ints = reg.r_n_vars;
    rec_lens = Array.of_list (List.rev reg.r_rec_lens);
    map_names = names reg.r_maps;
    vec_names = names reg.r_vecs;
    chain_names = names reg.r_chains;
    sketch_names = names reg.r_sketches;
    scratch_sizes = Array.of_list (List.rev reg.r_scratch);
  }

let dummy_pkt = Packet.Pkt.make ~ip_src:0 ~ip_dst:0 ~src_port:0 ~dst_port:0 ()

let bind t instance =
  let resolve kind name f =
    match Instance.find instance name with
    | o -> (
        match f o with
        | Some x -> x
        | None -> invalid_arg (Printf.sprintf "Compile.bind: %s is not a %s" name kind))
    | exception Not_found ->
        invalid_arg (Printf.sprintf "Compile.bind: no object named %s" name)
  in
  let b_ctx =
    {
      ints = Array.make (max t.n_ints 1) 0;
      recs = Array.map (fun n -> Array.make (max n 1) 0) t.rec_lens;
      maps =
        Array.map
          (fun n -> resolve "map" n (function Instance.O_map m -> Some m | _ -> None))
          t.map_names;
      vecs =
        Array.map
          (fun n ->
            resolve "vector" n (function Instance.O_vector v -> Some v | _ -> None))
          t.vec_names;
      chains =
        Array.map
          (fun n -> resolve "chain" n (function Instance.O_chain c -> Some c | _ -> None))
          t.chain_names;
      sketches =
        Array.map
          (fun n ->
            resolve "sketch" n (function Instance.O_sketch s -> Some s | _ -> None))
          t.sketch_names;
      scratch = Array.map Bytes.create t.scratch_sizes;
      pkt = dummy_pkt;
      on_op = nop_op;
    }
  in
  { b_ctx; b_entry = t.entry }

let process ?(on_op = nop_op) b pkt =
  let c = b.b_ctx in
  c.pkt <- pkt;
  c.on_op <- on_op;
  let r = b.b_entry c in
  c.on_op <- nop_op;
  r

(* Compiled-vs-interpreter dispatch, so every execution site (pool
   workers, the deterministic runtime, the simulator) selects the path
   from one switch. *)

let enabled = ref true
let set_default b = enabled := b
let default_enabled () = !enabled

type staged = S_compiled of t | S_interp of Ast.t * Check.info

type runner =
  | R_compiled of bound
  | R_interp of Ast.t * Check.info * Instance.t

let stage_runner ?compiled nf info =
  let compiled = match compiled with Some b -> b | None -> !enabled in
  if compiled then S_compiled (stage nf info) else S_interp (nf, info)

let bind_runner s instance =
  match s with
  | S_compiled t -> R_compiled (bind t instance)
  | S_interp (nf, info) -> R_interp (nf, info, instance)

let make_runner ?compiled nf info instance =
  bind_runner (stage_runner ?compiled nf info) instance

let run ?on_op r pkt =
  match r with
  | R_compiled b -> process ?on_op b pkt
  | R_interp (nf, info, instance) -> Interp.process ?on_op nf info instance pkt

let is_compiled = function R_compiled _ -> true | R_interp _ -> false
