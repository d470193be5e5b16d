let set_field (p : Packet.Pkt.t) f v = Packet.Pkt.set_field p f v

(* Packet whose hash-input bits equal [d]; header bits outside the selected
   slices are drawn randomly.  The base packet carries a random tunnel view
   so inner-header field sets have bits to overwrite. *)
let packet_of_input rng field_set d =
  let base =
    Packet.Pkt.make
      ~ip_src:(Random.State.int rng 0x3fffffff)
      ~ip_dst:(Random.State.int rng 0x3fffffff)
      ~src_port:(Random.State.int rng 0x10000)
      ~dst_port:(Random.State.int rng 0x10000)
      ~encap:
        {
          Packet.Pkt.default_encap with
          tunnel_id = Random.State.int rng 0xffffff;
          in_ip_src = Random.State.int rng 0x3fffffff;
          in_ip_dst = Random.State.int rng 0x3fffffff;
          in_src_port = Random.State.int rng 0x10000;
          in_dst_port = Random.State.int rng 0x10000;
        }
      ()
  in
  List.fold_left
    (fun (pkt, off) (f, bits) ->
      let w = Packet.Field.width f in
      let top = Bitvec.to_int (Bitvec.sub d ~pos:off ~len:bits) in
      let low_mask = (1 lsl (w - bits)) - 1 in
      let v = (top lsl (w - bits)) lor (Packet.Pkt.field_int base f land low_mask) in
      (set_field pkt f v, off + bits))
    (base, 0) (Nic.Field_set.slices field_set)
  |> fst

let colliding_packets ~key ~field_set ~target_hash ~rng ~n =
  let input_bits = Nic.Field_set.input_bits field_set in
  (* h_b(d) = ⊕_x d(x)·k(x+b): 32 linear equations over the input bits *)
  let sys = Gf2.System.create ~cols:input_bits in
  for b = 0 to 31 do
    let coeffs =
      List.filter (fun x -> Bitvec.get key (x + b)) (List.init input_bits Fun.id)
    in
    Gf2.System.add_equation sys ~coeffs ~rhs:((target_hash lsr (31 - b)) land 1 = 1)
  done;
  match Gf2.System.eliminate sys with
  | None -> invalid_arg "Attack.colliding_packets: no input hashes to the target"
  | Some solved ->
      let seen = Hashtbl.create n in
      let rec draw acc remaining budget =
        if remaining = 0 || budget = 0 then List.rev acc
        else
          let x = Gf2.System.sample solved ~rng ~one_bias:0.5 in
          let d = Bitvec.init input_bits (fun i -> x.(i)) in
          if Hashtbl.mem seen d then draw acc remaining (budget - 1)
          else begin
            Hashtbl.replace seen d ();
            draw (packet_of_input rng field_set d :: acc) (remaining - 1) (budget - 1)
          end
      in
      let pkts = draw [] n (20 * n) in
      if pkts = [] then invalid_arg "Attack.colliding_packets: empty solution space"
      else pkts

let collision_rate ~key ~field_set pkts =
  let hash = Nic.Rss.hasher (Nic.Toeplitz.Key.compile key) field_set in
  let counts = Hashtbl.create 64 in
  let total = ref 0 in
  List.iter
    (fun p ->
      let h = hash p in
      if h >= 0 then begin
        incr total;
        Hashtbl.replace counts h (1 + Option.value ~default:0 (Hashtbl.find_opt counts h))
      end)
    pkts;
  if !total = 0 then 0.0
  else
    float_of_int (Hashtbl.fold (fun _ c acc -> max c acc) counts 0) /. float_of_int !total
