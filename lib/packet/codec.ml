(* Stage a Spec.t into zero-copy accessors over raw frames.

   [stage] walks the spec once and produces:
   - a decision [tree] closure classifying a frame into a *shape* — one
     root-to-leaf path through the tagged unions — with all offsets,
     tag locations and bounds baked in (dynamic offsets, e.g. past an
     IPv4 IHL, are themselves staged closures);
   - per shape, the *fixed layout* the shape has when every header on
     its path is option-free: static record offsets, a minimum length
     and a flat array of guards (option-free header lengths, the switch
     tags the path takes, the arm tags a default exit avoids).
     [shape_of] checks the layouts first and runs the tree only for
     frames that meet none of them (codec.mli states why the answer is
     the tree's);
   - per-field get/set closure arrays indexed by shape id, so a hot
     loop does [shape_of] once and then raw offset/width reads with no
     intermediate record and no allocation;
   - a derived encoder per shape: plain values come from the caller,
     constants / forced switch tags / header lengths / computed lengths
     / checksums are fixed up by the encoder, which is what makes
     encode ∘ decode = id hold by construction.

   Hot-path discipline: [shape_of] returns an int (>= 0 shape id,
   [err_truncated] or [err_unsupported]) rather than a result, so the
   classify-then-access path allocates nothing.  The typed [error] is
   recovered by a slow safe re-walk ([error_of]) only when the caller
   asks. *)

type error =
  | Truncated of { record : string; need : int; have : int }
  | Unsupported of { record : string; tag_field : string; tag : int }

let err_truncated = -1
let err_unsupported = -2

let error_to_string = function
  | Truncated { record; need; have } ->
      Printf.sprintf "truncated inside %s header: need %d bytes, have %d" record need have
  | Unsupported { record; tag_field; tag } ->
      Printf.sprintf "unsupported %s.%s value 0x%x" record tag_field tag

(* RFC 1071 ones-complement checksum, allocation-free including the
   odd-length tail (the last byte is folded as the high half of a final
   16-bit word — no padded copy). *)
module Checksum = struct
  let sum_region b ~off ~len init =
    if off < 0 || len < 0 || off + len > Bytes.length b then
      invalid_arg "Codec.Checksum.sum_region: region out of bounds";
    let sum = ref init in
    let i = ref off in
    let stop = off + len in
    while !i + 1 < stop do
      sum :=
        !sum
        + (Char.code (Bytes.unsafe_get b !i) lsl 8)
        + Char.code (Bytes.unsafe_get b (!i + 1));
      i := !i + 2
    done;
    if len land 1 = 1 then sum := !sum + (Char.code (Bytes.unsafe_get b (stop - 1)) lsl 8);
    !sum

  (* fold an int into the running sum as big-endian 16-bit words *)
  let fold_value v sum =
    let s = ref sum in
    let v = ref v in
    while !v <> 0 do
      s := !s + (!v land 0xffff);
      v := !v lsr 16
    done;
    !s

  let finish sum =
    let s = ref sum in
    while !s > 0xffff do
      s := (!s land 0xffff) + (!s lsr 16)
    done;
    lnot !s land 0xffff
end

(* ---- staged field locations ---------------------------------------- *)

(* A field within its record: first covered byte, covered byte count,
   right shift and mask extracting the value from those bytes read
   big-endian.  Spec.validate caps nbytes at 7, so the read fits an
   OCaml int. *)
type loc = { byte0 : int; nbytes : int; shift : int; mask : int }

let loc_of ~bitoff ~bits =
  let byte0 = bitoff / 8 in
  let bit_in = bitoff mod 8 in
  let nbytes = (bit_in + bits + 7) / 8 in
  { byte0; nbytes; shift = (nbytes * 8) - bit_in - bits; mask = (1 lsl bits) - 1 }

(* Record offsets are known ints when every preceding header is fixed
   size, staged closures once a variable-length header (IHL) intervenes. *)
type ofs = Kn of int | Dyn of (bytes -> int)

let ofs_fn = function Kn k -> fun _ -> k | Dyn f -> f
let ofs_add o n = match o with Kn k -> Kn (k + n) | Dyn f -> Dyn (fun b -> f b + n)

(* Generic extract; only safe after the enclosing record's bounds check. *)
let read_at b o l =
  let v = ref 0 in
  for i = 0 to l.nbytes - 1 do
    v := (!v lsl 8) lor Char.code (Bytes.unsafe_get b (o + l.byte0 + i))
  done;
  (!v lsr l.shift) land l.mask

let read_at_safe b o l =
  let v = ref 0 in
  for i = 0 to l.nbytes - 1 do
    v := (!v lsl 8) lor Char.code (Bytes.get b (o + l.byte0 + i))
  done;
  (!v lsr l.shift) land l.mask

let write_at b o l v =
  let cur = ref 0 in
  for i = 0 to l.nbytes - 1 do
    cur := (!cur lsl 8) lor Char.code (Bytes.get b (o + l.byte0 + i))
  done;
  let nv = !cur land lnot (l.mask lsl l.shift) lor ((v land l.mask) lsl l.shift) in
  for i = 0 to l.nbytes - 1 do
    Bytes.set b (o + l.byte0 + i) (Char.chr ((nv lsr (8 * (l.nbytes - 1 - i))) land 0xff))
  done

(* Specialized getters for byte-aligned full-mask widths — the common
   case (ports, addresses, MACs) compiles to straight-line reads. *)
let getter_at off l =
  let aligned = l.shift = 0 && l.mask = (1 lsl (l.nbytes * 8)) - 1 in
  match off with
  | Kn k -> (
      let o = k + l.byte0 in
      match l.nbytes with
      | 1 when aligned -> fun b -> Char.code (Bytes.unsafe_get b o)
      | 2 when aligned ->
          fun b ->
            (Char.code (Bytes.unsafe_get b o) lsl 8) lor Char.code (Bytes.unsafe_get b (o + 1))
      | 4 when aligned ->
          fun b ->
            (Char.code (Bytes.unsafe_get b o) lsl 24)
            lor (Char.code (Bytes.unsafe_get b (o + 1)) lsl 16)
            lor (Char.code (Bytes.unsafe_get b (o + 2)) lsl 8)
            lor Char.code (Bytes.unsafe_get b (o + 3))
      | _ ->
          let l = { l with byte0 = 0 } in
          fun b -> read_at b o l)
  | Dyn f -> (
      match l.nbytes with
      | 1 when aligned ->
          let d = l.byte0 in
          fun b -> Char.code (Bytes.unsafe_get b (f b + d))
      | 2 when aligned ->
          let d = l.byte0 in
          fun b ->
            let o = f b + d in
            (Char.code (Bytes.unsafe_get b o) lsl 8) lor Char.code (Bytes.unsafe_get b (o + 1))
      | 4 when aligned ->
          let d = l.byte0 in
          fun b ->
            let o = f b + d in
            (Char.code (Bytes.unsafe_get b o) lsl 24)
            lor (Char.code (Bytes.unsafe_get b (o + 1)) lsl 16)
            lor (Char.code (Bytes.unsafe_get b (o + 2)) lsl 8)
            lor Char.code (Bytes.unsafe_get b (o + 3))
      | _ -> fun b -> read_at b (f b) l)

let setter_at off l =
  match off with
  | Kn k -> fun b v -> write_at b k l v
  | Dyn f -> fun b v -> write_at b (f b) l v

(* ---- shapes --------------------------------------------------------- *)

type srec = {
  rname : string;
  roff : ofs;
  rfixed : int;  (* fixed part, bytes *)
  flocs : (string * loc * Spec.kind * int) list;  (* name, loc, kind, bits *)
  rhdr : (loc * int) option;  (* header-length field loc, unit bytes *)
  rend : ofs;  (* just past this record (its actual length) *)
}

(* A layout guard: a field at its static frame position [gat] (byte0 is
   absolute) that must equal [gvalue] ([gequal]) or differ from it. *)
type guard = { gat : loc; gvalue : int; gequal : bool }

(* A guard as it runs: the frame's big-endian 32-bit word at [wstart],
   whose guarded field bits are [wmask] and must hold [wvalue] (or not).
   One load, a mask and a compare, whatever the field's width and bit
   position. *)
type window = { wstart : int; wmask : int; wvalue : int; wequal : bool }

(* The window of a guard in a layout of [lmin] bytes: it starts at the
   field's first byte, or earlier so that it ends within [lmin], where
   the field's record ends.  None for a field wider than 4 bytes. *)
let window_of ~lmin g =
  let l = g.gat in
  if l.nbytes > 4 || lmin < 4 then None
  else
    let wstart = min l.byte0 (lmin - 4) in
    let shift = (8 * (wstart + 4 - l.byte0 - l.nbytes)) + l.shift in
    Some { wstart; wmask = l.mask lsl shift; wvalue = g.gvalue lsl shift; wequal = g.gequal }

type shape = {
  sid : int;
  sname : string;
  srecs : srec list;
  smin : int;  (* minimum frame bytes (sum of fixed parts) *)
  send : ofs;  (* past the last record: payload start *)
  sforced : (string * int) list;  (* switch tags forced along this path *)
  slayout : window list option;
      (* the fixed layout's guards, deepest record first (its minimum
         length is [smin]); None when a header on the path has no
         option-free length or a guarded field is wider than 4 bytes *)
}

type accessor = { get : (bytes -> int) array; set : (bytes -> int -> unit) array }

type fixup =
  | Fx_const of loc * int
  | Fx_len of loc * [ `From of int | `After of int ]
  | Fx_ck_hdr of { region : int; rlen : int; at : loc }
  | Fx_ck_pseudo of {
      l4 : int;
      addrs : loc list;
      proto : loc;
      at : loc;
      zero_is_ffff : bool;
    }

type eplan = {
  e_fixed : int;  (* total header bytes, all offsets static *)
  e_values : (string * loc) list;  (* caller-supplied fields *)
  e_fixups : fixup list;  (* consts+tags+hdr_len, then lengths, then checksums *)
}

type t = {
  spec : Spec.t;
  shapes : shape array;
  layouts : int array;  (* the fixed layouts as one flat program, see [layout_of] *)
  tree : bytes -> int;
  acc : (string, accessor) Hashtbl.t;
  eplans : eplan array;
}

let mk_srec roff (r : Spec.t) =
  let bit = ref 0 in
  let hdr = ref None in
  let flocs =
    List.map
      (fun (f : Spec.field) ->
        let l = loc_of ~bitoff:!bit ~bits:f.bits in
        (match f.fkind with
        | Spec.Hdr_len { unit_bytes } -> hdr := Some (l, unit_bytes)
        | _ -> ());
        bit := !bit + f.bits;
        (f.fname, l, f.fkind, f.bits))
      r.fields
  in
  let rfixed = !bit / 8 in
  let rend =
    match !hdr with
    | None -> ofs_add roff rfixed
    | Some (hl, u) when hl.nbytes = 1 ->
        (* IPv4 IHL / TCP data offset: a single-byte nibble read *)
        let b0 = hl.byte0 and sh = hl.shift and m = hl.mask in
        (match roff with
        | Kn k ->
            let at = k + b0 in
            Dyn (fun b -> k + ((Char.code (Bytes.unsafe_get b at) lsr sh) land m * u))
        | Dyn base ->
            Dyn
              (fun b ->
                let o = base b in
                o + ((Char.code (Bytes.unsafe_get b (o + b0)) lsr sh) land m * u)))
    | Some (hl, u) ->
        let base = ofs_fn roff in
        Dyn
          (fun b ->
            let o = base b in
            o + (read_at b o hl * u))
  in
  { rname = r.name; roff; rfixed; flocs; rhdr = !hdr; rend }

let stage spec =
  (match Spec.validate spec with
  | Ok () -> ()
  | Error e -> invalid_arg ("Codec.stage: invalid spec: " ^ e));
  let shapes = ref [] in
  let next_sid = ref 0 in
  (* [guards] (reversed) and [soff] describe the option-free path so far:
     the guards it has collected and this record's static offset.
     [guards] is None once a header on the path has no option-free
     length (its fixed part is no whole number of units, or too long for
     its length field). *)
  let rec go (racc : srec list) (forced : (string * int) list) guards soff roff (r : Spec.t) :
      bytes -> int =
    let sr = mk_srec roff r in
    let racc = sr :: racc in
    let guard l v equal = { gat = { l with byte0 = soff + l.byte0 }; gvalue = v; gequal = equal } in
    let guards =
      match (guards, sr.rhdr) with
      | Some gs, Some (hl, u) ->
          let v = sr.rfixed / u in
          if v * u = sr.rfixed && v <= hl.mask then Some (guard hl v true :: gs) else None
      | gs, _ -> gs
    in
    let soff_next = soff + sr.rfixed in
    let finish_shape guards =
      let sid = !next_sid in
      incr next_sid;
      let srecs = List.rev racc in
      shapes :=
        {
          sid;
          sname = String.concat "/" (List.map (fun s -> s.rname) srecs);
          srecs;
          smin = soff_next;
          send = sr.rend;
          sforced = List.rev forced;
          slayout =
            Option.bind guards (fun gs ->
                let ws = List.filter_map (window_of ~lmin:soff_next) gs in
                if List.compare_lengths ws gs = 0 then Some ws else None);
        }
        :: !shapes;
      sid
    in
    let k =
      match r.next with
      | Spec.Stop ->
          let sid = finish_shape guards in
          fun _ -> sid
      | Spec.Then t -> go racc forced guards soff_next sr.rend t
      | Spec.Switch { on; arms; default } ->
          let tl =
            match List.find_opt (fun (n, _, _, _) -> n = on) sr.flocs with
            | Some (_, l, _, _) -> l
            | None -> invalid_arg "Codec.stage: switch field missing"  (* validated *)
          in
          let tag_get = getter_at roff tl in
          (* shapes are numbered in the order the chain below tries them:
             each arm's subtree in declared order, then the default *)
          let karms =
            List.map
              (fun (v, t) ->
                let arm_guards = Option.map (fun gs -> guard tl v true :: gs) guards in
                (v, go racc ((r.name ^ "." ^ on, v) :: forced) arm_guards soff_next sr.rend t))
              arms
          in
          let kdef =
            match default with
            | Spec.Accept ->
                (* the default exit: the tag is none of the arms' *)
                let avoid gs = List.fold_left (fun gs (v, _) -> guard tl v false :: gs) gs arms in
                let sid = finish_shape (Option.map avoid guards) in
                fun _ -> sid
            | Spec.Reject -> fun _ -> err_unsupported
          in
          let rec chain = function
            | [] -> kdef
            | (v, karm) :: rest ->
                let krest = chain rest in
                fun b -> if tag_get b = v then karm b else krest b
          in
          chain karms
    in
    (* wrap with this record's bounds check; header-length nibbles get a
       specialized single-byte read *)
    let hdr_read (hl : loc) u =
      if hl.nbytes = 1 then (
        let b0 = hl.byte0 and sh = hl.shift and m = hl.mask in
        fun b o -> (Char.code (Bytes.unsafe_get b (o + b0)) lsr sh) land m * u)
      else fun b o -> read_at b o hl * u
    in
    match (sr.roff, sr.rhdr) with
    | Kn o, None ->
        let need = o + sr.rfixed in
        fun b -> if Bytes.length b >= need then k b else err_truncated
    | Dyn base, None ->
        let fixed = sr.rfixed in
        fun b -> if Bytes.length b >= base b + fixed then k b else err_truncated
    | Kn o, Some (hl, u) ->
        let fixed = sr.rfixed in
        let need = o + fixed in
        let rd = hdr_read hl u in
        fun b ->
          let blen = Bytes.length b in
          if blen < need then err_truncated
          else
            let actual = rd b o in
            if actual < fixed || blen < o + actual then err_truncated else k b
    | Dyn base, Some (hl, u) ->
        let fixed = sr.rfixed in
        let rd = hdr_read hl u in
        fun b ->
          let o = base b in
          let blen = Bytes.length b in
          if blen < o + fixed then err_truncated
          else
            let actual = rd b o in
            if actual < fixed || blen < o + actual then err_truncated else k b
  in
  let tree = go [] [] (Some []) 0 (Kn 0) spec in
  let nshapes = !next_sid in
  let shapes =
    let a = Array.make nshapes (List.hd !shapes) in
    List.iter (fun sh -> a.(sh.sid) <- sh) !shapes;
    a
  in
  let layouts =
    Array.to_list shapes
    |> List.concat_map (fun sh ->
           match sh.slayout with
           | None -> []
           | Some gs ->
               sh.sid :: sh.smin :: List.length gs
               :: List.concat_map
                    (fun w -> [ w.wstart; w.wmask; w.wvalue; Bool.to_int w.wequal ])
                    gs)
    |> Array.of_list
  in
  (* accessor table: one entry per qualified path, arrays indexed by sid *)
  let acc : (string, accessor) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun sh ->
      List.iter
        (fun sr ->
          List.iter
            (fun (fn, l, _, _) ->
              let path = sr.rname ^ "." ^ fn in
              let a =
                match Hashtbl.find_opt acc path with
                | Some a -> a
                | None ->
                    let missing _ =
                      invalid_arg ("Codec: field " ^ path ^ " is absent from this shape")
                    in
                    let a =
                      {
                        get = Array.make nshapes missing;
                        set = Array.make nshapes (fun _ _ -> missing ());
                      }
                    in
                    Hashtbl.add acc path a;
                    a
              in
              a.get.(sh.sid) <- getter_at sr.roff l;
              a.set.(sh.sid) <- setter_at sr.roff l)
            sr.flocs)
        sh.srecs)
    shapes;
  (* derived encoder plans: offsets are static because the encoder always
     emits minimal (option-free) headers *)
  let eplans =
    Array.map
      (fun sh ->
        let offs =
          let o = ref 0 in
          List.map
            (fun sr ->
              let here = !o in
              o := here + sr.rfixed;
              (sr, here))
            sh.srecs
        in
        let e_fixed = sh.smin in
        let values = ref [] in
        let consts = ref [] in
        let lens = ref [] in
        let cks = ref [] in
        let abs o l = { l with byte0 = o + l.byte0 } in
        List.iter
          (fun (sr, o) ->
            List.iter
              (fun (fn, l, kind, _) ->
                let al = abs o l in
                let path = sr.rname ^ "." ^ fn in
                match (kind : Spec.kind) with
                | Spec.Value -> (
                    match List.assoc_opt path sh.sforced with
                    | Some v -> consts := Fx_const (al, v) :: !consts
                    | None -> values := (path, al) :: !values)
                | Spec.Const v -> consts := Fx_const (al, v) :: !consts
                | Spec.Hdr_len { unit_bytes } ->
                    consts := Fx_const (al, sr.rfixed / unit_bytes) :: !consts
                | Spec.Length Spec.From_this_header -> lens := Fx_len (al, `From o) :: !lens
                | Spec.Length Spec.After_this_header ->
                    lens := Fx_len (al, `After (o + sr.rfixed)) :: !lens
                | Spec.Checksum Spec.Ipv4_header ->
                    cks := Fx_ck_hdr { region = o; rlen = sr.rfixed; at = al } :: !cks
                | Spec.Checksum (Spec.L4_pseudo { ip; addrs; proto_field; zero_is_ffff }) ->
                    let ipr, ipo =
                      match List.find_opt (fun (s, _) -> s.rname = ip) offs with
                      | Some x -> x
                      | None ->
                          invalid_arg
                            ("Codec.stage: pseudo-header record " ^ ip ^ " not in shape "
                           ^ sh.sname)
                    in
                    let fl name =
                      match List.find_opt (fun (n, _, _, _) -> n = name) ipr.flocs with
                      | Some (_, l, _, _) -> abs ipo l
                      | None ->
                          invalid_arg
                            ("Codec.stage: pseudo-header field " ^ ip ^ "." ^ name
                           ^ " not declared")
                    in
                    cks :=
                      Fx_ck_pseudo
                        {
                          l4 = o;
                          addrs = List.map fl addrs;
                          proto = fl proto_field;
                          at = al;
                          zero_is_ffff;
                        }
                      :: !cks)
              sr.flocs)
          offs;
        (* fixup order: consts/tags first, then lengths, then checksums in
           reverse record order — an outer pseudo-checksum covers the inner
           headers, so the innermost checksum must settle first *)
        {
          e_fixed;
          e_values = List.rev !values;
          e_fixups = List.rev !consts @ List.rev !lens @ !cks;
        })
      shapes
  in
  { spec; shapes; layouts; tree; acc; eplans }

(* ---- classification ------------------------------------------------- *)

let layout_fallback =
  Telemetry.Counter.make "codec.layout_fallback"
    ~doc:"frames that met no fixed layout and were classified by the closure tree"

(* The fixed layouts run as one flat int program, in shape order: per
   layout its shape id, minimum length and guard count, then per guard
   its window's start, mask and value, and 1 for "equal" (0 for
   "differs").  Guards come deepest record first: a conjunction's order
   is free, and the deepest tags are the ones that tell sibling shapes
   apart, so a layout that does not match usually fails on its first
   guard.  The two loops are tail calls over the array, so a frame costs
   loads and compares, no call per guard and no allocation (a local
   closure capturing the frame would allocate).  The loads are
   unchecked: every window ends within the layout's minimum length,
   checked first. *)
let layout_stride = 4

external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

(* the big-endian word at [at], sign-extended: callers mask it *)
let word b at =
  if Sys.big_endian then Int32.to_int (get32u b at) else Int32.to_int (swap32 (get32u b at))

(* layout [i]'s guards from [j] on ([stop] past the last) *)
let rec guards_from b n p i j stop =
  if j = stop then Array.unsafe_get p i
  else if
    word b (Array.unsafe_get p j) land Array.unsafe_get p (j + 1) = Array.unsafe_get p (j + 2)
    = (Array.unsafe_get p (j + 3) = 1)
  then guards_from b n p i (j + layout_stride) stop
  else first_layout b n p stop

and first_layout b n p i =
  if i = Array.length p then -1
  else
    let stop = i + 3 + (layout_stride * Array.unsafe_get p (i + 2)) in
    if n >= Array.unsafe_get p (i + 1) then guards_from b n p i (i + 3) stop
    else first_layout b n p stop

let layout_of t b = first_layout b (Bytes.length b) t.layouts 0
let tree_shape_of t b = t.tree b

let shape_of t b =
  let sid = layout_of t b in
  if sid >= 0 then sid
  else begin
    Telemetry.Counter.incr layout_fallback;
    t.tree b
  end

let layout_offset t sid path ~bits =
  let sh = t.shapes.(sid) in
  let fail why = invalid_arg (Printf.sprintf "Codec.layout_offset: %s %s" path why) in
  if Option.is_none sh.slayout then fail ("in " ^ sh.sname ^ ", a shape with no fixed layout");
  let rec find o = function
    | [] -> fail ("is not a field of " ^ sh.sname)
    | sr :: rest -> (
        match List.find_opt (fun (fn, _, _, _) -> sr.rname ^ "." ^ fn = path) sr.flocs with
        | Some (_, l, _, fbits) ->
            if fbits <> bits || l.shift <> 0 || l.nbytes * 8 <> bits then
              fail (Printf.sprintf "is not a byte-aligned %d-bit field" bits);
            o + l.byte0
        | None -> find (o + sr.rfixed) rest)
  in
  find 0 sh.srecs

let shape_count t = Array.length t.shapes
let shape_name t sid = t.shapes.(sid).sname

let shape_named t name =
  let found = ref (-1) in
  Array.iter (fun sh -> if sh.sname = name then found := sh.sid) t.shapes;
  if !found < 0 then invalid_arg ("Codec.shape_named: no shape " ^ name);
  !found

let shape_min_len t sid = t.shapes.(sid).smin
let shape_fields t sid =
  List.concat_map
    (fun sr -> List.map (fun (fn, _, _, _) -> sr.rname ^ "." ^ fn) sr.flocs)
    t.shapes.(sid).srecs

let shape_records t sid = List.map (fun sr -> sr.rname) t.shapes.(sid).srecs
let payload_start t sid b = ofs_fn t.shapes.(sid).send b

let paths t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.acc [] |> List.sort compare

(* ---- field access --------------------------------------------------- *)

let accessor t path =
  match Hashtbl.find_opt t.acc path with
  | Some a -> a
  | None -> invalid_arg ("Codec.accessor: unknown field path " ^ path)

let getter t path = (accessor t path).get
(* ---- typed errors (slow path) --------------------------------------- *)

let error_of t b =
  let n = Bytes.length b in
  let get o (r : Spec.t) name =
    let bit = ref 0 in
    let found = ref None in
    List.iter
      (fun (f : Spec.field) ->
        if f.fname = name then found := Some (loc_of ~bitoff:!bit ~bits:f.bits);
        bit := !bit + f.bits)
      r.fields;
    match !found with
    | Some l -> read_at_safe b o l
    | None -> invalid_arg "Codec.error_of: missing field"
  in
  let rec walk o (r : Spec.t) =
    let fixed = Spec.fixed_bytes r in
    if n < o + fixed then Truncated { record = r.name; need = o + fixed; have = n }
    else
      let actual =
        match Spec.hdr_len_field r with
        | Some f -> (
            match f.fkind with
            | Spec.Hdr_len { unit_bytes } -> get o r f.fname * unit_bytes
            | _ -> fixed)
        | None -> fixed
      in
      if actual < fixed || n < o + actual then
        Truncated { record = r.name; need = o + max fixed actual; have = n }
      else
        match r.next with
        | Spec.Stop -> invalid_arg "Codec.error_of: frame parses cleanly"
        | Spec.Then t -> walk (o + actual) t
        | Spec.Switch { on; arms; default } -> (
            let tag = get o r on in
            match List.assoc_opt tag arms with
            | Some t -> walk (o + actual) t
            | None -> (
                match default with
                | Spec.Reject -> Unsupported { record = r.name; tag_field = on; tag }
                | Spec.Accept -> invalid_arg "Codec.error_of: frame parses cleanly"))
  in
  walk 0 t.spec

(* ---- decode / encode ------------------------------------------------ *)

let decode t b =
  let sid = shape_of t b in
  if sid < 0 then Error (error_of t b)
  else
    let sh = t.shapes.(sid) in
    let fields =
      List.concat_map
        (fun sr ->
          let o = ofs_fn sr.roff b in
          List.map (fun (fn, l, _, _) -> (sr.rname ^ "." ^ fn, read_at b o l)) sr.flocs)
        sh.srecs
    in
    let payload = Bytes.length b - ofs_fn sh.send b in
    Ok (sid, fields, payload)

let write_abs b l v = write_at b 0 l v
let read_abs b l = read_at_safe b 0 l

let encode t ~shape ?(payload_len = 0) fields =
  if shape < 0 || shape >= Array.length t.shapes then
    invalid_arg "Codec.encode: bad shape id";
  if payload_len < 0 then invalid_arg "Codec.encode: negative payload length";
  let ep = t.eplans.(shape) in
  let n = ep.e_fixed + payload_len in
  let b = Bytes.make n '\000' in
  List.iter
    (fun (path, al) ->
      match List.assoc_opt path fields with
      | Some v -> write_abs b al v
      | None -> ())
    ep.e_values;
  List.iter
    (fun fx ->
      match fx with
      | Fx_const (al, v) -> write_abs b al v
      | Fx_len (al, `From o) -> write_abs b al (n - o)
      | Fx_len (al, `After o) -> write_abs b al (n - o)
      | Fx_ck_hdr { region; rlen; at } ->
          write_abs b at (Checksum.finish (Checksum.sum_region b ~off:region ~len:rlen 0))
      | Fx_ck_pseudo { l4; addrs; proto; at; zero_is_ffff } ->
          let l4len = n - l4 in
          let sum = Checksum.sum_region b ~off:l4 ~len:l4len 0 in
          let sum =
            List.fold_left (fun s al -> Checksum.fold_value (read_abs b al) s) sum addrs
          in
          let sum = Checksum.fold_value (read_abs b proto) sum in
          let sum = Checksum.fold_value l4len sum in
          let c = Checksum.finish sum in
          write_abs b at (if c = 0 && zero_is_ffff then 0xffff else c))
    ep.e_fixups;
  b

let encode_fixed_len t ~shape =
  if shape < 0 || shape >= Array.length t.eplans then
    invalid_arg "Codec.encode_fixed_len: bad shape id";
  t.eplans.(shape).e_fixed
