(* A combinator DSL for binary header formats (the Narcissus idea: one
   declarative format from which both the parser and the encoder are
   derived).  A spec is a chain of records; each record is a list of
   fixed-width bit fields plus a rule for what follows it — nothing, a
   nested record, or a tagged union switching on one of its own fields
   (ethertype, IP protocol, UDP destination port).  Fields can carry
   derived kinds — constants, computed lengths, header-length words,
   checksums — which the parser ignores and the encoder fixes up, so
   encode ∘ decode = id holds by construction.  Codec.stage compiles a
   spec into allocation-free offset/width accessors over the raw frame. *)

type lscope = From_this_header | After_this_header

type ckind =
  | Ipv4_header
  | L4_pseudo of {
      ip : string;  (** record name of the enclosing IP header *)
      addrs : string list;  (** its address fields, in pseudo-header order *)
      proto_field : string;  (** its protocol / next-header field *)
      zero_is_ffff : bool;  (** transmit 0xffff when the sum comes out 0 *)
    }

type kind =
  | Value
  | Const of int
  | Length of lscope
  | Hdr_len of { unit_bytes : int }
  | Checksum of ckind

type field = { fname : string; bits : int; fkind : kind }

type default = Accept | Reject

type t = { name : string; fields : field list; next : next }

and next =
  | Stop
  | Then of t
  | Switch of { on : string; arms : (int * t) list; default : default }

let field ?(kind = Value) fname bits = { fname; bits; fkind = kind }
let const fname bits v = { fname; bits; fkind = Const v }
let value = field
let record name fields next = { name; fields; next }

let fixed_bits r = List.fold_left (fun acc f -> acc + f.bits) 0 r.fields
let fixed_bytes r = fixed_bits r / 8

let find_field r fname = List.find_opt (fun f -> f.fname = fname) r.fields

let hdr_len_field r =
  List.find_opt (fun f -> match f.fkind with Hdr_len _ -> true | _ -> false) r.fields

(* Structural validation.  Offset/width legality is per record; cross-record
   rules (unique names along a path, pseudo-checksums referencing an
   enclosing IP record) depend on the path and are rechecked shape by shape
   in Codec.stage. *)
let validate spec =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let rec walk path (r : t) =
    let path = path @ [ r.name ] in
    let where = String.concat "/" path in
    if fixed_bits r mod 8 <> 0 then
      err "%s: %d bits is not a whole number of bytes" where (fixed_bits r);
    let names = List.map (fun f -> f.fname) r.fields in
    if List.length (List.sort_uniq compare names) <> List.length names then
      err "%s: duplicate field name" where;
    let bit = ref 0 in
    List.iter
      (fun f ->
        let span = (!bit mod 8) + f.bits in
        if f.bits < 1 || span > 56 then
          err "%s.%s: %d bits at bit offset %d exceeds the int-safe window" where f.fname
            f.bits !bit;
        (match f.fkind with
        | Hdr_len { unit_bytes } when unit_bytes < 1 ->
            err "%s.%s: header-length unit must be positive" where f.fname
        | Const v when v lsr f.bits <> 0 && f.bits < 62 ->
            err "%s.%s: constant 0x%x exceeds %d bits" where f.fname v f.bits
        | _ -> ());
        bit := !bit + f.bits)
      r.fields;
    if
      List.length
        (List.filter (fun f -> match f.fkind with Hdr_len _ -> true | _ -> false) r.fields)
      > 1
    then err "%s: more than one header-length field" where;
    List.iter
      (fun f ->
        match f.fkind with
        | Checksum (L4_pseudo { ip; addrs; proto_field; _ }) ->
            if not (List.exists (fun anc -> anc = ip) path) then
              err "%s.%s: pseudo-header record %s is not an ancestor" where f.fname ip;
            ignore addrs;
            ignore proto_field
        | _ -> ())
      r.fields;
    match r.next with
    | Stop -> ()
    | Then t ->
        if List.mem t.name path then err "%s: record %s repeats along the path" where t.name;
        walk path t
    | Switch { on; arms; default = _ } ->
        (match find_field r on with
        | None -> err "%s: switch field %s is not declared" where on
        | Some f -> (
            match f.fkind with
            | Value | Const _ -> ()
            | _ -> err "%s: switch field %s must be a plain value" where on));
        let tags = List.map fst arms in
        if List.length (List.sort_uniq compare tags) <> List.length tags then
          err "%s: duplicate switch arm" where;
        (match find_field r on with
        | Some f ->
            List.iter
              (fun v ->
                if v < 0 || v lsr f.bits <> 0 then
                  err "%s: arm tag 0x%x does not fit the %d-bit switch field %s" where v f.bits on)
              tags
        | None -> ());
        List.iter
          (fun (_, t) ->
            if List.mem t.name path then
              err "%s: record %s repeats along the path" where t.name;
            walk path t)
          arms
  in
  walk [] spec;
  match !errs with [] -> Ok () | es -> Error (String.concat "; " (List.rev es))

let rec pp fmt (r : t) =
  Format.fprintf fmt "@[<v 2>%s {" r.name;
  List.iter
    (fun f ->
      let k =
        match f.fkind with
        | Value -> ""
        | Const v -> Printf.sprintf " = 0x%x" v
        | Length From_this_header -> " = len(here..)"
        | Length After_this_header -> " = len(after..)"
        | Hdr_len { unit_bytes } -> Printf.sprintf " = hdrlen/%d" unit_bytes
        | Checksum Ipv4_header -> " = cksum(header)"
        | Checksum (L4_pseudo { ip; _ }) -> Printf.sprintf " = cksum(pseudo %s)" ip
      in
      Format.fprintf fmt "@ %s:%d%s" f.fname f.bits k)
    r.fields;
  (match r.next with
  | Stop -> ()
  | Then t -> Format.fprintf fmt "@ -> %a" pp t
  | Switch { on; arms; default } ->
      Format.fprintf fmt "@ switch %s {" on;
      List.iter (fun (v, t) -> Format.fprintf fmt "@ 0x%x -> %a" v pp t) arms;
      Format.fprintf fmt "@ _ -> %s }"
        (match default with Accept -> "accept" | Reject -> "reject"));
  Format.fprintf fmt "@]@ }"
