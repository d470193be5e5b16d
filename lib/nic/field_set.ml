open Packet

(* Each selected field contributes its leading [bits] to the hash input; a
   slice shorter than the field models flexible protocol extraction (ice
   RXDID / i40e flex words), which is what prefix-sharded NFs need: hashing
   a full field and cancelling its tail out of the key is not equivalent —
   the zero-windows would confine all hash variability to the top hash bits,
   which the low-bit-indexed indirection table never sees.

   What a packet must carry for the set to match is worked out once, at
   construction: [matches] runs per packet on the RSS hash path, so it
   reads three booleans instead of scanning the field list. *)
type t = {
  ordered : (Field.t * int) list;
  ports : bool;  (** hashes an outer L4 port: needs TCP or UDP *)
  inner : bool;  (** hashes an inner field: needs an encapsulated packet *)
  inner_ports : bool;  (** hashes an inner L4 port: needs inner TCP or UDP *)
}

(* Canonical Microsoft concatenation order; inner (encapsulated) headers
   follow the outer ones in the same address/port/proto order — the
   "inner header RSS" extraction of tunnel-aware NICs. *)
let canonical_order =
  [
    Field.Ip_src;
    Field.Ip_dst;
    Field.Src_port;
    Field.Dst_port;
    Field.Ip_proto;
    Field.Inner_ip_src;
    Field.Inner_ip_dst;
    Field.Inner_src_port;
    Field.Inner_dst_port;
    Field.Inner_ip_proto;
  ]

let is_inner_field = function
  | Field.Inner_ip_src | Field.Inner_ip_dst | Field.Inner_ip_proto | Field.Inner_src_port
  | Field.Inner_dst_port ->
      true
  | _ -> false

let make_sliced slices =
  List.iter
    (fun (f, bits) ->
      if not (Field.rss_capable f) then
        invalid_arg
          (Printf.sprintf "Field_set.make: %s cannot be hashed by RSS" (Field.to_string f));
      if bits < 1 || bits > Field.width f then
        invalid_arg
          (Printf.sprintf "Field_set.make: %d bits out of range for %s" bits (Field.to_string f)))
    slices;
  let sorted =
    List.filter_map
      (fun f -> Option.map (fun bits -> (f, bits)) (List.assoc_opt f slices))
      canonical_order
  in
  if List.length sorted <> List.length slices then
    invalid_arg "Field_set.make: duplicate or unsupported field";
  let has p = List.exists (fun (f, _) -> p f) sorted in
  {
    ordered = sorted;
    ports = has (function Field.Src_port | Field.Dst_port -> true | _ -> false);
    inner = has is_inner_field;
    inner_ports = has (function Field.Inner_src_port | Field.Inner_dst_port -> true | _ -> false);
  }

let make fields = make_sliced (List.map (fun f -> (f, Field.width f)) fields)

let ipv4 = make [ Field.Ip_src; Field.Ip_dst ]
let ipv4_tcp = make [ Field.Ip_src; Field.Ip_dst; Field.Src_port; Field.Dst_port ]
let ipv4_udp = ipv4_tcp

let inner_ipv4_tcp =
  make
    [
      Field.Inner_ip_src; Field.Inner_ip_dst; Field.Inner_src_port; Field.Inner_dst_port;
    ]

let fields t = List.map fst t.ordered
let slices t = t.ordered

let input_bits t = List.fold_left (fun acc (_, bits) -> acc + bits) 0 t.ordered

let offset t f =
  let rec go acc = function
    | [] -> None
    | (g, bits) :: rest -> if Field.equal f g then Some acc else go (acc + bits) rest
  in
  go 0 t.ordered

let slice_bits t f = List.assoc_opt f t.ordered

let matches t (p : Pkt.t) =
  p.Pkt.eth_type = Pkt.ipv4_ethertype
  && ((not t.ports) || match p.Pkt.proto with Pkt.Tcp | Pkt.Udp -> true | Pkt.Other _ -> false)
  && ((not t.inner) || match p.Pkt.encap with Some _ -> true | None -> false)
  && ((not t.inner_ports)
     ||
     match p.Pkt.encap with
     | Some { Pkt.in_proto = Pkt.Tcp | Pkt.Udp; _ } -> true
     | _ -> false)

let hash_input t p =
  if not (matches t p) then None
  else
    Some
      (Bitvec.concat
         (List.map
            (fun (f, bits) -> Bitvec.sub (Pkt.get_field p f) ~pos:0 ~len:bits)
            t.ordered))

(* Field-wise extraction plan for the per-packet fast path: the hash input
   is, piece after piece, the [bytes] big-endian bytes of
   [field_int p f lsr drop] — a slice's leading bits are its field value
   shifted right by the bits it leaves out.  Only exists when every slice
   is a whole number of bytes, so every piece starts on a byte boundary;
   other sets keep the Bitvec path. *)
let field_plan t =
  if List.exists (fun (_, bits) -> bits mod 8 <> 0) t.ordered then None
  else
    Some
      (Array.of_list
         (List.map (fun (f, bits) -> (f, bits / 8, Field.width f - bits)) t.ordered))

let equal a b = a.ordered = b.ordered
let compare a b = Stdlib.compare a.ordered b.ordered

let pp fmt t =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.pp_print_string f ",")
       (fun fmt (f, bits) ->
         if bits = Field.width f then Field.pp fmt f
         else Format.fprintf fmt "%a[0:%d]" Field.pp f bits))
    t.ordered
