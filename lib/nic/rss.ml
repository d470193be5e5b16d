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

(* Per-set hasher over compiled tables, returning -1 when the set does not
   match.  Sets whose slices are whole bytes take the allocation-free path:
   each field is read once and its bytes feed the Toeplitz tables directly,
   skipping the per-packet Bitvec serialization of [Field_set.hash_input]
   (which dominated software dispatch cost).  Other sets keep the Bitvec
   path.  RS3's key validation hashes its probe packets with this too. *)
let hasher ck s =
  match Field_set.field_plan s with
  | Some plan ->
      let widths = Array.map (fun (_, w, _) -> w) plan in
      let get =
        Array.map
          (fun (f, _, drop) ->
            let read = Packet.Pkt.field_reader f in
            if drop = 0 then read else fun p -> read p lsr drop)
          plan
      in
      fun p -> if Field_set.matches s p then Toeplitz.Key.hash_pieces ck ~widths get p else -1
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
