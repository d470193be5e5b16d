(* State-compute replication, dynamic half (the static analysis lives in
   {!Maestro.Scrspec}).  A prepared program stages the NF's write-slice
   once; each core binds it to its own full replica and replays foreign
   packets from their update digests, reconstructed as pseudo-packets.

   Digests travel as flat [int] segments — one slot per header field the
   slice reads, plus optional port / frame-length / timestamp slots — so
   a batch's digest is a single [int array] pushed over the existing SPSC
   rings with no per-packet boxing. *)

type t = {
  spec : Maestro.Scrspec.t;
  staged : Dsl.Compile.staged;
  ints_per_pkt : int;
}

let spec t = t.spec
let ints_per_pkt t = t.ints_per_pkt
let digest_wire_bytes t = t.spec.Maestro.Scrspec.digest_bytes

let prepare (spec : Maestro.Scrspec.t) =
  let slice = spec.Maestro.Scrspec.slice in
  let info =
    match Dsl.Check.check slice with
    | Ok info -> info
    | Error errs ->
        invalid_arg
          (Printf.sprintf "Scr.prepare: write-slice of %s fails validation: %s"
             spec.Maestro.Scrspec.nf.Dsl.Ast.name
             (String.concat "; " errs))
  in
  let ints_per_pkt =
    List.length spec.Maestro.Scrspec.fields
    + (if spec.Maestro.Scrspec.needs_port then 1 else 0)
    + (if spec.Maestro.Scrspec.needs_len then 1 else 0)
    + if spec.Maestro.Scrspec.needs_ts then 1 else 0
  in
  { spec; staged = Dsl.Compile.stage_runner slice info; ints_per_pkt }

(* --- encoding ---------------------------------------------------------------- *)

let encode t pkt buf off =
  let i = ref off in
  let push v =
    buf.(!i) <- v;
    incr i
  in
  List.iter (fun f -> push (Packet.Pkt.field_int pkt f)) t.spec.Maestro.Scrspec.fields;
  if t.spec.Maestro.Scrspec.needs_port then push pkt.Packet.Pkt.port;
  if t.spec.Maestro.Scrspec.needs_len then push pkt.Packet.Pkt.size;
  if t.spec.Maestro.Scrspec.needs_ts then push pkt.Packet.Pkt.ts_ns

let encode_batch t pkts ~lo ~len =
  let buf = Array.make (max 1 (len * t.ints_per_pkt)) 0 in
  for j = 0 to len - 1 do
    encode t pkts.(lo + j) buf (j * t.ints_per_pkt)
  done;
  buf

(* --- replay ------------------------------------------------------------------ *)

type replayer = { prog : t; runner : Dsl.Compile.runner }

let bind prog instance = { prog; runner = Dsl.Compile.bind_runner prog.staged instance }

(* Reconstruct a pseudo-packet from one digest segment.  Fields absent
   from the digest are never read by the slice, so their defaults are
   irrelevant to the replayed state trajectory. *)
let decode t buf off =
  let i = ref off in
  let next () =
    let v = buf.(!i) in
    incr i;
    v
  in
  let port = ref 0
  and eth_src = ref 0
  and eth_dst = ref 0
  and eth_type = ref Packet.Pkt.ipv4_ethertype
  and ip_src = ref 0
  and ip_dst = ref 0
  and proto = ref 6 (* TCP *)
  and src_port = ref 0
  and dst_port = ref 0
  and has_inner = ref false
  and tunnel_id = ref 0
  and in_ip_src = ref 0
  and in_ip_dst = ref 0
  and in_proto = ref 6
  and in_src_port = ref 0
  and in_dst_port = ref 0
  and size = ref 64
  and ts_ns = ref 0 in
  let inner r v =
    has_inner := true;
    r := v
  in
  List.iter
    (fun f ->
      let v = next () in
      match (f : Packet.Field.t) with
      | Packet.Field.Eth_src -> eth_src := v
      | Packet.Field.Eth_dst -> eth_dst := v
      | Packet.Field.Eth_type -> eth_type := v
      | Packet.Field.Ip_src -> ip_src := v
      | Packet.Field.Ip_dst -> ip_dst := v
      | Packet.Field.Ip_proto -> proto := v
      | Packet.Field.Src_port -> src_port := v
      | Packet.Field.Dst_port -> dst_port := v
      | Packet.Field.Tunnel_id -> inner tunnel_id v
      | Packet.Field.Inner_ip_src -> inner in_ip_src v
      | Packet.Field.Inner_ip_dst -> inner in_ip_dst v
      | Packet.Field.Inner_ip_proto -> inner in_proto v
      | Packet.Field.Inner_src_port -> inner in_src_port v
      | Packet.Field.Inner_dst_port -> inner in_dst_port v)
    t.spec.Maestro.Scrspec.fields;
  if t.spec.Maestro.Scrspec.needs_port then port := next ();
  if t.spec.Maestro.Scrspec.needs_len then size := next ();
  if t.spec.Maestro.Scrspec.needs_ts then ts_ns := next ();
  {
    Packet.Pkt.port = !port;
    eth_src = !eth_src;
    eth_dst = !eth_dst;
    eth_type = !eth_type;
    ip_src = !ip_src;
    ip_dst = !ip_dst;
    proto = Packet.Pkt.proto_of_number !proto;
    src_port = !src_port;
    dst_port = !dst_port;
    encap =
      (if !has_inner then
         Some
           {
             Packet.Pkt.default_encap with
             tunnel_id = !tunnel_id;
             in_ip_src = !in_ip_src;
             in_ip_dst = !in_ip_dst;
             in_proto = Packet.Pkt.proto_of_number !in_proto;
             in_src_port = !in_src_port;
             in_dst_port = !in_dst_port;
           }
       else None);
    size = !size;
    ts_ns = !ts_ns;
  }

let apply r buf off =
  let pkt = decode r.prog buf off in
  ignore (Dsl.Compile.run r.runner pkt)

let apply_batch r buf ~npkts =
  let stride = r.prog.ints_per_pkt in
  for j = 0 to npkts - 1 do
    apply r buf (j * stride)
  done

(* --- replica comparison ------------------------------------------------------ *)

let chain_dump c =
  let acc = ref [] in
  State.Dchain.iter_allocated c (fun idx touch -> acc := (idx, touch) :: !acc);
  List.rev !acc

let obj_equal a b =
  match (a, b) with
  | Dsl.Instance.O_map ma, Dsl.Instance.O_map mb ->
      List.sort compare (State.Map_s.entries ma)
      = List.sort compare (State.Map_s.entries mb)
  | Dsl.Instance.O_vector va, Dsl.Instance.O_vector vb ->
      va.Dsl.Instance.slots = vb.Dsl.Instance.slots
  | Dsl.Instance.O_chain ca, Dsl.Instance.O_chain cb -> chain_dump ca = chain_dump cb
  | Dsl.Instance.O_sketch sa, Dsl.Instance.O_sketch sb -> State.Sketch.equal sa sb
  | _ -> false

let replica_equal (spec : Maestro.Scrspec.t) a b =
  List.for_all
    (fun obj -> obj_equal (Dsl.Instance.find a obj) (Dsl.Instance.find b obj))
    spec.Maestro.Scrspec.written_objects
