(* Staged compilation of checked NF programs.

   [stage_runner] walks the AST once and emits a tree of closures — the
   "compiled NF" — in which everything the interpreter re-derives per
   packet is already resolved: variable and record bindings are fixed
   slots in a preallocated frame, expression widths are baked-in mask
   constants, record layouts are field indices, and operands — constants,
   variables and outer header fields — are read in place rather than
   through a closure or [Packet.Pkt.field_int].  A container key of up to
   14 bytes is read into a run of frame slots and packed into an int pair
   by one loop whose shifts and masks {!State.Key.geometry} worked out at
   stage time, feeding the allocation-free [_packed] container
   operations.  [bind_runner] then resolves the staged program against one
   {!Instance} and allocates the frame.

   Allocation contract: an unobserved call allocates only what the NF
   asks for — the [Fwd] verdict block and one [Pkt.t] copy per header
   rewrite.  Expiry frees and purges one index at a time
   ({!State.Dchain.expire_one}), so it allocates nothing.  A key over 14
   bytes serializes into a per-site key buffer aliased to the
   non-retaining map operations, paying a string only on [put] and per
   purged flow.  [bench/nfpath.exe] measures all of it.

   Observer contract: the frame's [observer] is [Some] only during a call
   made with [on_op].  An unobserved call tests it once per operation and
   never writes it, calls it or builds an event; an observed call sees
   the interpreter's event stream, and [run] clears the observer
   even when the NF raises.

   The staging is semantics-preserving by construction and checked by
   the differential suite: every closure mirrors one [Interp] case,
   including the op-event order, the freed-count of [Chain_expire]
   (whose per-index purge erases the same keys as the interpreter's
   free-then-purge), and the [Runtime_error] conditions. *)

open Ast

(* The per-bound execution frame.  [ints] holds scalar bindings by slot,
   [recs] one scratch array per record binding (records are snapshots in
   the interpreter, so overwriting the scratch on rebinding matches the
   assoc-shadowing semantics), [scratch] one reusable buffer per
   wide-key site.  A packed key's parts and its [hi] half travel through
   [ints] slots of their own. *)
type ctx = {
  ints : int array;
  recs : int array array;
  maps : State.Map_s.t array;
  vecs : Instance.vector array;
  chains : State.Dchain.t array;
  sketches : State.Sketch.t array;
  scratch : Bytes.t array;
  mutable pkt : Packet.Pkt.t;
  mutable observer : (Interp.op_event -> unit) option;
}

type staged = {
  entry : ctx -> Interp.action;
  n_ints : int;
  rec_lens : int array;
  map_names : string array;
  vec_names : string array;
  chain_names : string array;
  sketch_names : string array;
  scratch_sizes : int array;
}

type runner = { b_ctx : ctx; b_entry : ctx -> Interp.action }

let fail fmt = Format.kasprintf (fun s -> raise (Interp.Runtime_error s)) fmt

let[@inline] emit c ev = match c.observer with None -> () | Some f -> f ev

(* An operand resolved at stage time: a constant, a scalar slot, a
   packet field read straight from the record, or any other expression as
   a staged closure. *)
type operand =
  | Imm of int
  | Slot of int
  | Eth_src
  | Eth_dst
  | Eth_type
  | Ip_src
  | Ip_dst
  | Ip_proto
  | Src_port
  | Dst_port
  | Port
  | Ts
  | Len
  | Staged of (ctx -> int)

let[@inline] read c = function
  | Slot s -> Array.unsafe_get c.ints s
  | Imm v -> v
  | Ip_src -> c.pkt.Packet.Pkt.ip_src
  | Ip_dst -> c.pkt.Packet.Pkt.ip_dst
  | Src_port -> c.pkt.Packet.Pkt.src_port
  | Dst_port -> c.pkt.Packet.Pkt.dst_port
  | Ip_proto -> (
      match c.pkt.Packet.Pkt.proto with
      | Packet.Pkt.Tcp -> 6
      | Packet.Pkt.Udp -> 17
      | Packet.Pkt.Other n -> n land 0xff)
  | Eth_src -> c.pkt.Packet.Pkt.eth_src
  | Eth_dst -> c.pkt.Packet.Pkt.eth_dst
  | Eth_type -> c.pkt.Packet.Pkt.eth_type
  | Port -> c.pkt.Packet.Pkt.port
  | Ts -> c.pkt.Packet.Pkt.ts_ns
  | Len -> c.pkt.Packet.Pkt.size
  | Staged g -> g c

(* Pack the parts [src.(base)], [src.(base + 1)], ... of a key laid out by
   [geo] ({!State.Key.geometry}) into a {!State.Key} pair: store [hi] in
   frame slot [hs] and return [lo]. *)
let pack c hs geo tag src base =
  let hi = ref tag and lo = ref 0 in
  for j = 0 to (Array.length geo / 5) - 1 do
    let g = 5 * j in
    let v = Array.unsafe_get src (base + j) land Array.unsafe_get geo g in
    lo := !lo lor ((v lsl Array.unsafe_get geo (g + 1)) land Array.unsafe_get geo (g + 2));
    hi := !hi lor ((v lsr Array.unsafe_get geo (g + 3)) lsl Array.unsafe_get geo (g + 4))
  done;
  Array.unsafe_set c.ints hs !hi;
  !lo

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

let stage_runner (nf : Ast.t) info =
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
  let rec operand e =
    match e with
    | Const (w, v) -> Imm (v land mask_of w)
    | Var x -> Slot (var_slot x)
    | In_port -> Port
    | Now -> Ts
    | Pkt_len -> Len
    | Field Packet.Field.Eth_src -> Eth_src
    | Field Packet.Field.Eth_dst -> Eth_dst
    | Field Packet.Field.Eth_type -> Eth_type
    | Field Packet.Field.Ip_src -> Ip_src
    | Field Packet.Field.Ip_dst -> Ip_dst
    | Field Packet.Field.Ip_proto -> Ip_proto
    | Field Packet.Field.Src_port -> Src_port
    | Field Packet.Field.Dst_port -> Dst_port
    | Field f -> Staged (fun c -> Packet.Pkt.field_int c.pkt f)
    | Record_field (r, f) ->
        let rs = rec_slot r in
        let fi = field_index (Check.record_layout info r) f in
        Staged (fun c -> Array.unsafe_get (Array.unsafe_get c.recs rs) fi)
    | Bin (op, a, b) ->
        let m = mask_of (max (Check.expr_width info a) (Check.expr_width info b)) in
        let a = operand a and b = operand b in
        Staged
          (match op with
          | Add -> fun c -> (read c a + read c b) land m
          | Sub -> fun c -> (read c a - read c b) land m
          | Mul -> fun c -> (read c a * read c b) land m
          | Div ->
              fun c ->
                let vb = read c b in
                if vb = 0 then 0 else read c a / vb land m
          | Mod ->
              fun c ->
                let vb = read c b in
                if vb = 0 then 0 else read c a mod vb land m
          | Eq -> fun c -> if read c a = read c b then 1 else 0
          | Neq -> fun c -> if read c a <> read c b then 1 else 0
          | Lt -> fun c -> if read c a < read c b then 1 else 0
          | Le -> fun c -> if read c a <= read c b then 1 else 0
          | Land -> fun c -> read c a land read c b
          | Lor -> fun c -> read c a lor read c b)
    | Not a ->
        let a = operand a in
        Staged (fun c -> 1 - read c a)
    | Cast (w, a) ->
        let a = operand a and m = mask_of w in
        Staged (fun c -> read c a land m)
  in
  (* A compiled key.  A packed key reads its parts into a run of frame
     slots, packs them, leaves [hi] in slot [hs] and returns [lo].  A wide
     key (over 14 bytes) serializes into the site's key buffer.  Each part
     is truncated to its byte width, exactly as [Ast.key_of_parts]
     truncates when serializing. *)
  let ckey key =
    let ops = Array.of_list (List.map operand key) in
    let bytes = List.map (fun e -> (Check.expr_width info e + 7) / 8) key in
    let total = List.fold_left ( + ) 0 bytes in
    if total <= State.Key.max_packed_bytes then begin
      let hs = fresh_slot () in
      let ks = reg.r_n_vars in
      reg.r_n_vars <- ks + Array.length ops;
      let geo = State.Key.geometry bytes and tag = State.Key.tag ~bytes:total in
      `Packed
        ( hs,
          fun c ->
            for j = 0 to Array.length ops - 1 do
              Array.unsafe_set c.ints (ks + j) (read c (Array.unsafe_get ops j))
            done;
            pack c hs geo tag c.ints ks )
    end
    else begin
      let slot = scratch_slot total in
      let widths = Array.of_list bytes in
      (* Returns the site's scratch buffer itself (sized exactly [total]).
         Call sites alias it with [Bytes.unsafe_to_string] for operations
         that do not retain the key (find/mem/erase/hash) and copy it only
         for [put], which stores the key. *)
      `Wide
        (fun c ->
          let buf = Array.unsafe_get c.scratch slot in
          let off = ref 0 in
          for j = 0 to Array.length ops - 1 do
            let v = read c (Array.unsafe_get ops j) and n = Array.unsafe_get widths j in
            for i = 0 to n - 1 do
              Bytes.unsafe_set buf (!off + i)
                (Char.unsafe_chr ((v lsr (8 * (n - 1 - i))) land 0xff))
            done;
            off := !off + n
          done;
          buf)
    end
  in
  let event obj kind =
    { Interp.obj; kind; write = Interp.op_is_write kind; expired = 0 }
  in
  let rec crun stmt : ctx -> Interp.action =
    match stmt with
    | If (cond, t, f) -> (
        let kt = crun t and kf = crun f in
        match cond with
        | Bin (Eq, a, b) ->
            let a = operand a and b = operand b in
            fun c -> if read c a = read c b then kt c else kf c
        | Bin (Neq, a, b) ->
            let a = operand a and b = operand b in
            fun c -> if read c a <> read c b then kt c else kf c
        | _ ->
            let g = operand cond in
            fun c -> if read c g = 1 then kt c else kf c)
    | Let (x, e, k) ->
        let o = operand e in
        let s = var_slot x in
        let kk = crun k in
        fun c ->
          Array.unsafe_set c.ints s (read c o);
          kk c
    | Map_get { obj; key; found; value; k } -> (
        let ev = event obj Interp.Op_map_get in
        let ms = obj_slot reg.r_maps obj in
        let fs = var_slot found and vs = var_slot value in
        let kk = crun k in
        match ckey key with
        | `Packed (hs, kc) ->
            fun c ->
              emit c ev;
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
              emit c ev;
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
        let ov = operand value in
        let os = var_slot ok in
        let kk = crun k in
        match ckey key with
        | `Packed (hs, kc) ->
            fun c ->
              emit c ev;
              let lo = kc c in
              let r =
                State.Map_s.put_packed (Array.unsafe_get c.maps ms) (Array.unsafe_get c.ints hs) lo
                  (read c ov)
              in
              Array.unsafe_set c.ints os (Bool.to_int r);
              kk c
        | `Wide kc ->
            fun c ->
              emit c ev;
              let r =
                State.Map_s.put_wide (Array.unsafe_get c.maps ms)
                  (Bytes.to_string (kc c))
                  (read c ov)
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
              emit c ev;
              let lo = kc c in
              let m = Array.unsafe_get c.maps ms in
              ignore (State.Map_s.erase_packed m (Array.unsafe_get c.ints hs) lo);
              kk c
        | `Wide kc ->
            fun c ->
              emit c ev;
              ignore
                (State.Map_s.erase_wide (Array.unsafe_get c.maps ms)
                   (Bytes.unsafe_to_string (kc c)));
              kk c)
    | Vec_get { obj; index; record; k } ->
        let ev = event obj Interp.Op_vec_get in
        let vs = obj_slot reg.r_vecs obj in
        let oi = operand index in
        let rs = rec_slot record in
        let len = List.length (Check.record_layout info record) in
        let kk = crun k in
        fun c ->
          emit c ev;
          let v = Array.unsafe_get c.vecs vs in
          let i = read c oi in
          if i < 0 || i >= v.Instance.capacity then
            fail "vec_get %s: index %d out of range" obj i;
          Array.blit v.Instance.slots (i * v.Instance.stride) (Array.unsafe_get c.recs rs) 0 len;
          kk c
    | Vec_set { obj; index; fields; k } ->
        let ev = event obj Interp.Op_vec_set in
        let vs = obj_slot reg.r_vecs obj in
        let oi = operand index in
        let layout = Check.layout_of_object info obj in
        let pos = Array.of_list (List.map (fun (f, _) -> field_index layout f) fields) in
        let ops = Array.of_list (List.map (fun (_, e) -> operand e) fields) in
        let kk = crun k in
        fun c ->
          emit c ev;
          let v = Array.unsafe_get c.vecs vs in
          let i = read c oi in
          if i < 0 || i >= v.Instance.capacity then
            fail "vec_set %s: index %d out of range" obj i;
          let base = i * v.Instance.stride in
          for j = 0 to Array.length pos - 1 do
            Array.unsafe_set v.Instance.slots
              (base + Array.unsafe_get pos j)
              (read c (Array.unsafe_get ops j))
          done;
          kk c
    | Chain_alloc { obj; index; k_ok; k_fail } ->
        let ev = event obj Interp.Op_chain_alloc in
        let cs = obj_slot reg.r_chains obj in
        let is = var_slot index in
        let kok = crun k_ok and kfail = crun k_fail in
        fun c ->
          emit c ev;
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
        let oi = operand index in
        let kk = crun k in
        fun c ->
          emit c ev;
          ignore
            (State.Dchain.rejuvenate (Array.unsafe_get c.chains cs) (read c oi)
               ~now:c.pkt.Packet.Pkt.ts_ns);
          kk c
    | Chain_expire { obj; purges; age_ns; k } ->
        let ev0 =
          { Interp.obj; kind = Interp.Op_chain_expire; write = false; expired = 0 }
        in
        let cs = obj_slot reg.r_chains obj in
        (* one purger per (map, key vector) pair erases the key of one
           freed index *)
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
                   let hs = fresh_slot () and geo = State.Key.geometry bytes in
                   let tag = State.Key.tag ~bytes:total in
                   fun c i ->
                     let v = Array.unsafe_get c.vecs vs in
                     let lo = pack c hs geo tag v.Instance.slots (i * v.Instance.stride) in
                     ignore
                       (State.Map_s.erase_packed (Array.unsafe_get c.maps ms)
                          (Array.unsafe_get c.ints hs) lo)
                 end
                 else fun c i ->
                   let v = Array.unsafe_get c.vecs vs in
                   let base = i * v.Instance.stride in
                   let key =
                     key_of_parts
                       (List.mapi (fun j (_, w) -> (w, v.Instance.slots.(base + j))) layout)
                   in
                   ignore (State.Map_s.erase (Array.unsafe_get c.maps ms) key))
               purges)
        in
        let kk = crun k in
        fun c ->
          let chain = Array.unsafe_get c.chains cs in
          let threshold = c.pkt.Packet.Pkt.ts_ns - age_ns in
          let expired = ref 0 and i = ref (State.Dchain.expire_one chain ~threshold) in
          while !i >= 0 do
            for p = 0 to Array.length purgers - 1 do
              (Array.unsafe_get purgers p) c !i
            done;
            incr expired;
            i := State.Dchain.expire_one chain ~threshold
          done;
          (match c.observer with
          | None -> ()
          | Some f ->
              f
                (if !expired = 0 then ev0
                 else
                   { Interp.obj; kind = Interp.Op_chain_expire; write = true; expired = !expired }));
          kk c
    | Sketch_touch { obj; key; k } -> (
        let ev = event obj Interp.Op_sketch_touch in
        let ss = obj_slot reg.r_sketches obj in
        let kk = crun k in
        match ckey key with
        | `Packed (hs, kc) ->
            fun c ->
              emit c ev;
              let lo = kc c in
              State.Sketch.increment_packed (Array.unsafe_get c.sketches ss)
                (Array.unsafe_get c.ints hs) lo;
              kk c
        | `Wide kc ->
            fun c ->
              emit c ev;
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
              emit c ev;
              let lo = kc c in
              Array.unsafe_set c.ints ns
                (State.Sketch.count_packed (Array.unsafe_get c.sketches ss)
                   (Array.unsafe_get c.ints hs) lo);
              kk c
        | `Wide kc ->
            fun c ->
              emit c ev;
              Array.unsafe_set c.ints ns
                (State.Sketch.count (Array.unsafe_get c.sketches ss)
                   (Bytes.unsafe_to_string (kc c)));
              kk c)
    | Set_field (f, e, k) ->
        let o = operand e in
        let kk = crun k in
        fun c ->
          c.pkt <- Interp.set_pkt_field c.pkt f (read c o);
          kk c
    | Forward e -> (
        let devices = nf.devices in
        match operand e with
        | Imm port when port >= 0 && port < devices -> fun c -> Interp.Fwd (port, c.pkt)
        | o ->
            fun c ->
              let port = read c o in
              if port < 0 || port >= devices then fail "forward to unknown device %d" port;
              Interp.Fwd (port, c.pkt))
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

let bind_runner t instance =
  let resolve kind name f =
    match Instance.find instance name with
    | o -> (
        match f o with
        | Some x -> x
        | None -> invalid_arg (Printf.sprintf "Compile.bind_runner: %s is not a %s" name kind))
    | exception Not_found ->
        invalid_arg (Printf.sprintf "Compile.bind_runner: no object named %s" name)
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
      observer = None;
    }
  in
  { b_ctx; b_entry = t.entry }

let run ?on_op b pkt =
  let c = b.b_ctx in
  c.pkt <- pkt;
  match on_op with
  | None -> b.b_entry c
  | Some _ -> (
      c.observer <- on_op;
      match b.b_entry c with
      | r ->
          c.observer <- None;
          r
      | exception e ->
          c.observer <- None;
          raise e)

let make_runner nf info instance = bind_runner (stage_runner nf info) instance
