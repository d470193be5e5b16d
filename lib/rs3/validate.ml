(* full 32-bit draws: Random.int caps at 2^30, which would starve the top
   address bits that prefix-sharded keys hash *)
let rand32 rng = (Random.State.bits rng lsl 2) lxor Random.State.bits rng land 0xffffffff

(* Random packets carry a random tunnel view so that inner-header field
   sets see spread bits too: without it, every probe packet would hash the
   same zeroed inner 5-tuple and the solver's spread check could never
   pass for inner sets. *)
let probe rng ~port =
  Packet.Pkt.make ~port ~ip_src:(rand32 rng) ~ip_dst:(rand32 rng)
    ~src_port:(Random.State.int rng 0x10000)
    ~dst_port:(Random.State.int rng 0x10000)
    ~encap:
      {
        Packet.Pkt.default_encap with
        tunnel_id = Random.State.int rng 0xffffff;
        in_ip_src = rand32 rng;
        in_ip_dst = rand32 rng;
        in_src_port = Random.State.int rng 0x10000;
        in_dst_port = Random.State.int rng 0x10000;
      }
    ()

let probe_pair rng (c : Cstr.t) =
  let d_b = probe rng ~port:c.Cstr.port_b in
  let d_a =
    List.fold_left
      (fun acc { Cstr.fa; fb; bits } ->
        (* copy the matched prefix, keep the low bits random *)
        let w = Packet.Field.width fa in
        let mask_hi = ((1 lsl bits) - 1) lsl (w - bits) in
        let v =
          Packet.Pkt.field_int d_b fb land mask_hi
          lor (Packet.Pkt.field_int acc fa land lnot mask_hi)
        in
        Packet.Pkt.set_field acc fa v)
      (probe rng ~port:c.Cstr.port_a)
      c.Cstr.pairs
  in
  (d_a, d_b)

(* Probes are hashed the way the datapath hashes packets: through compiled
   Toeplitz tables, fields read straight from the packet, -1 when the set
   does not match.  Bit-exact with [Field_set.hash_input] + [Toeplitz.hash]. *)
let hasher key field_set = Nic.Rss.hasher (Nic.Toeplitz.Key.compile key) field_set

let check_constraints (p : Problem.t) ~keys ~rng ~trials =
  let hash = Array.mapi (fun port key -> hasher key p.Problem.field_sets.(port)) keys in
  let violation = ref None in
  List.iter
    (fun (c : Cstr.t) ->
      for _ = 1 to trials do
        if !violation = None then begin
          let d_a, d_b = probe_pair rng c in
          let ha = hash.(c.Cstr.port_a) d_a and hb = hash.(c.Cstr.port_b) d_b in
          if ha >= 0 && hb >= 0 && ha <> hb then
            violation :=
              Some (Format.asprintf "constraint %a violated: %08x vs %08x" Cstr.pp c ha hb)
        end
      done)
    p.Problem.constraints;
  match !violation with Some msg -> Error msg | None -> Ok ()

type spread = {
  distinct_hashes : int;
  bucket_imbalance : float;
  nonempty_buckets : int;
  constant_hash : bool;
}

(* Buckets are measured at queue scale (64 >= any realistic core count), not
   at indirection-table scale: a legitimately coarse sharding key — a /8
   subnet prefix gives at most 256 hash values — must still count as healthy
   as long as it can feed every queue. *)
let spread_buckets = 64

let spread_of_key ~key ~field_set ~rng ~trials =
  let hash = hasher key field_set in
  let buckets = Array.make spread_buckets 0 in
  let seen = Hashtbl.create trials in
  for _ = 1 to trials do
    let h = hash (probe rng ~port:0) in
    if h >= 0 then begin
      Hashtbl.replace seen h ();
      buckets.(h land (spread_buckets - 1)) <- buckets.(h land (spread_buckets - 1)) + 1
    end
  done;
  let total = Array.fold_left ( + ) 0 buckets in
  let mean = float_of_int total /. float_of_int spread_buckets in
  let worst = Array.fold_left max 0 buckets in
  {
    distinct_hashes = Hashtbl.length seen;
    bucket_imbalance = (if total = 0 then 1. else float_of_int worst /. mean);
    nonempty_buckets = Array.fold_left (fun a c -> if c > 0 then a + 1 else a) 0 buckets;
    constant_hash = Hashtbl.length seen <= 1;
  }

let quality_ok (p : Problem.t) ~keys ~rng =
  let trials = 4096 in
  Array.to_list (Array.mapi (fun port key -> (port, key)) keys)
  |> List.for_all (fun (port, key) ->
         let s = spread_of_key ~key ~field_set:p.Problem.field_sets.(port) ~rng ~trials in
         (* degenerate keys collapse to a handful of hash values or leave
            the low (table-indexing) hash bits dead; healthy ones — even
            legitimately coarse prefix-sharded ones — can feed every queue *)
         (not s.constant_hash)
         && s.distinct_hashes >= spread_buckets
         && s.nonempty_buckets >= spread_buckets / 2)
