open Packet

type t = {
  nic : Model.t;
  key : Bitvec.t;
  ckey : Toeplitz.Key.t Lazy.t;
  compiled : bool;
  sets : Field_set.t list;
  hash : (Packet.Pkt.t -> int) Lazy.t;
      (* the hash of the first set that matches the packet, or -1.  Built
         on first use, so engines configured but never used for software
         dispatch pay nothing; [with_reta] copies share it. *)
  reta : Reta.t;
}

(* The RSS-capable fields, in the order a staged hasher's descriptor
   keeps them: three ints at [3 * k] for [slots.(k)], the bytes it feeds
   the hash input (0 when the set leaves it out), the low bits dropped
   before them, and 256 × the input byte they start at, which is where
   their tables start. *)
let slots =
  Field.
    [|
      Ip_src; Ip_dst; Ip_proto; Src_port; Dst_port;
      Inner_ip_src; Inner_ip_dst; Inner_ip_proto; Inner_src_port; Inner_dst_port;
    |]

let rec slot_from k (f : Field.t) = if slots.(k) = f then k else slot_from (k + 1) f

(* Field value [v]'s contribution to the hash: its bytes, big-endian, each
   looked up in its input byte's table.  A field is at most 32 bits, so
   at most 4 bytes. *)
let[@inline] piece tb desc k v =
  let w = Array.unsafe_get desc (3 * k) in
  if w = 0 then 0
  else
    let v = v lsr Array.unsafe_get desc ((3 * k) + 1) and b = Array.unsafe_get desc ((3 * k) + 2) in
    match w with
    | 1 -> Array.unsafe_get tb (b + (v land 0xff))
    | 2 ->
        Array.unsafe_get tb (b + ((v lsr 8) land 0xff))
        lxor Array.unsafe_get tb (b + 256 + (v land 0xff))
    | 3 ->
        Array.unsafe_get tb (b + ((v lsr 16) land 0xff))
        lxor Array.unsafe_get tb (b + 256 + ((v lsr 8) land 0xff))
        lxor Array.unsafe_get tb (b + 512 + (v land 0xff))
    | _ ->
        Array.unsafe_get tb (b + ((v lsr 24) land 0xff))
        lxor Array.unsafe_get tb (b + 256 + ((v lsr 16) land 0xff))
        lxor Array.unsafe_get tb (b + 512 + ((v lsr 8) land 0xff))
        lxor Array.unsafe_get tb (b + 768 + (v land 0xff))

let[@inline] number = function Pkt.Tcp -> 6 | Pkt.Udp -> 17 | Pkt.Other n -> n land 0xff
let[@inline] l4 = function Pkt.Tcp | Pkt.Udp -> true | Pkt.Other _ -> false

(* The staged hasher of a byte-aligned set, from its
   [Field_set.field_plan]: straight-line code over every RSS-capable
   field, XORing in the bytes of those the set holds.  It tests what
   [Field_set.matches] does, as far as the set needs it: IPv4, an outer
   TCP or UDP header for outer ports, an encapsulation for inner fields,
   an inner TCP or UDP header for inner ports.  The field reads and
   table lookups stay in this module: under [-opaque], a helper in
   another module would cost a call per field or per byte. *)
let staged ck plan =
  let tb = Toeplitz.Key.tables ck and ipv4 = Pkt.ipv4_ethertype in
  let desc = Array.make 30 0 and pos = ref 0 in
  for j = 0 to Array.length plan - 1 do
    let f, bytes, drop = plan.(j) in
    let k = 3 * slot_from 0 f in
    desc.(k) <- bytes;
    desc.(k + 1) <- drop;
    desc.(k + 2) <- 256 * !pos;
    pos := !pos + bytes
  done;
  let ports = desc.(3 * 3) + desc.(3 * 4) > 0 and inner_ports = desc.(3 * 8) + desc.(3 * 9) > 0 in
  let inner = inner_ports || desc.(3 * 5) + desc.(3 * 6) + desc.(3 * 7) > 0 in
  fun (p : Pkt.t) ->
    if p.Pkt.eth_type <> ipv4 || (ports && not (l4 p.Pkt.proto)) then -1
    else
      let h =
        piece tb desc 0 p.Pkt.ip_src
        lxor piece tb desc 1 p.Pkt.ip_dst
        lxor piece tb desc 2 (number p.Pkt.proto)
        lxor piece tb desc 3 p.Pkt.src_port
        lxor piece tb desc 4 p.Pkt.dst_port
      in
      if not inner then begin
        Telemetry.Counter.incr Toeplitz.hashes;
        h
      end
      else
        match p.Pkt.encap with
        | Some e when (not inner_ports) || l4 e.Pkt.in_proto ->
            Telemetry.Counter.incr Toeplitz.hashes;
            h
            lxor piece tb desc 5 e.Pkt.in_ip_src
            lxor piece tb desc 6 e.Pkt.in_ip_dst
            lxor piece tb desc 7 (number e.Pkt.in_proto)
            lxor piece tb desc 8 e.Pkt.in_src_port
            lxor piece tb desc 9 e.Pkt.in_dst_port
        | _ -> -1

(* Per-set hasher over compiled tables, returning -1 when the set does not
   match.  The set's width is checked against the key here, once, which
   keeps [staged]'s unchecked table reads inside the tables.  Sets whose
   slices are whole bytes are staged; the others serialize
   [Field_set.hash_input].  RS3's key validation hashes its probe packets
   with this too. *)
let hasher ck s =
  if Field_set.input_bits s > Toeplitz.Key.max_input_bits ck then
    invalid_arg "Rss.hasher: field set wider than the key";
  match Field_set.field_plan s with
  | Some plan -> staged ck plan
  | None -> (
      fun p ->
        match Field_set.hash_input s p with Some d -> Toeplitz.Key.hash_int ck d | None -> -1)

(* What [configure] hashes one set with: [hasher], or the bit-by-bit
   reference, the oracle the fast path is tested against. *)
let set_hasher ~compiled ~key ~ckey s =
  if compiled then hasher (Lazy.force ckey) s
  else fun p ->
    match Field_set.hash_input s p with Some d -> Toeplitz.hash_int ~key d | None -> -1

let configure ?(nic = Model.E810) ?(compiled = true) ~key ~sets ~queues () =
  if Bitvec.length key <> 8 * Model.key_bytes nic then
    invalid_arg
      (Printf.sprintf "Rss.configure: key must be %d bytes for %s" (Model.key_bytes nic)
         (Model.name nic));
  List.iter
    (fun s ->
      if not (Model.supports nic s) then
        invalid_arg
          (Format.asprintf "Rss.configure: %s does not support field set %a" (Model.name nic)
             Field_set.pp s))
    sets;
  if queues < 1 || queues > Model.max_queues nic then invalid_arg "Rss.configure: queues";
  let reta = Reta.create ~size:(Model.reta_size nic) ~queues () in
  let ckey = lazy (Toeplitz.Key.compile key) in
  let hash =
    lazy
      (match List.map (set_hasher ~compiled ~key ~ckey) sets with
      | [ h ] -> h
      | hs ->
          let hs = Array.of_list hs in
          let rec first p i =
            if i = Array.length hs then -1
            else
              let h = hs.(i) p in
              if h >= 0 then h else first p (i + 1)
          in
          fun p -> first p 0)
  in
  { nic; key; ckey; compiled; sets; hash; reta }

let random_key rng nic = Bitvec.random rng (8 * Model.key_bytes nic)

let key t = t.key
let uses_compiled t = t.compiled
let nic t = t.nic
let sets t = t.sets
let reta t = t.reta
let with_reta t reta = { t with reta }

let hash t = Lazy.force t.hash

let hash_of t p =
  let h = hash t p in
  if h < 0 then None else Some h

let dispatch t p =
  let h = hash t p in
  if h < 0 then 0 else Reta.lookup t.reta h

let pp fmt t =
  Format.fprintf fmt "@[<v>nic: %s@ key: %s@ sets: %a@ %a@]" (Model.name t.nic)
    (Bitvec.to_hex t.key)
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Field_set.pp)
    t.sets Reta.pp t.reta
