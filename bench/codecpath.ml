(* Codec-path benchmark: derived zero-copy parse vs the legacy hand-written
   parser.

   A steady mix of plain TCP/UDP frames is replayed through (a) the legacy
   parser (build a Pkt.t per frame) and (b) the staged zero-copy path
   (shape_of + five-tuple getters straight off the bytes — the per-frame
   work of a sharding datapath, no record built), and the same discipline
   is applied to VXLAN frames read through the inner-header getters.  The
   results go to BENCH_codec.json (maestro-telemetry/1, diffable with
   `check_regression` against bench/baseline/).

   Gated counters (deterministic, compared by default):
     codec.frames            frames per timing pass (floor-gated: the
                             differential must keep covering the trace)
     codec.roundtrips        serialize→parse_typed→equal successes over
                             plain + VXLAN + GRE packets
     codec.parse_agreement   staged parse = legacy parse (Pkt.equal)
     codec.parse_alloc_free  1 when the zero-copy path allocated nothing
                             (floor-gated: dropping to 0 fails CI; the
                             binary also exits non-zero itself)
     codec.inner_alloc_free  same for the inner-header (VXLAN) path
     codec.options_agreement staged parse = legacy parse on the frames
                             with IPv4 options
   Fixed-layout fallbacks (reported, self-checked by the binary):
     codec.layout_fallback   frames that met no fixed layout.  One
                             parse of every plain and VXLAN frame must
                             add none (the binary exits non-zero
                             otherwise); the IPv4-options trace adds
                             one per frame, so the counter reads its
                             frame count
   Ratio counter (gated with a relaxed threshold, machine speed cancels):
     codec.parse_rel_cost_x100  100 * t_zerocopy / t_legacy — growth
                             means the staged path lost ground
   Timing counters (_ns names, skipped by the default gate policy):
     codec.shape_ns_x100, codec.zerocopy_ns_x100, codec.legacy_ns_x100,
     codec.typed_ns_x100, codec.inner_ns_x100, codec.options_ns_x100
     (typed parse of the IPv4-options trace, which takes the closure
     tree) *)

open Packet

let iters_scale () =
  match Sys.getenv_opt "MAESTRO_BENCH_ITERS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> float_of_int n /. 100.0
      | _ -> 1.0)
  | None -> 1.0

let scaled base = max 100 (int_of_float (float_of_int base *. iters_scale ()))
let x100 v = int_of_float (Float.round (100.0 *. v))
let counter suffix doc = Telemetry.Counter.make ("codec." ^ suffix) ~doc
let passes = 3

let time_pass f =
  let best = ref infinity in
  for _ = 1 to passes do
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

(* The frame with one 4-byte word of IPv4 options after its 20-byte
   header (IHL 6): Ethernet is 14 bytes and the version/IHL byte leads
   the IPv4 header.  No fixed layout covers it. *)
let with_ip_options b =
  let l3 = 14 and l4 = 34 in
  let o = Bytes.make (Bytes.length b + 4) '\x01' in
  Bytes.blit b 0 o 0 l4;
  Bytes.blit b l4 o (l4 + 4) (Bytes.length b - l4);
  Bytes.set o l3 (Char.chr (0x40 lor 6));
  o

let () =
  Format.printf "@.=== Codec-path benchmarks (BENCH_codec.json) ===@.";
  Telemetry.reset ();
  Telemetry.disable ();
  let rng = Random.State.make [| 11 |] in
  let fs = Traffic.Gen.flows rng 512 in
  let spec = { Traffic.Gen.default_spec with pkts = scaled 20_000; reply_fraction = 0.4 } in
  let plain = Traffic.Gen.uniform ~spec rng ~flows:fs in
  let vxlan = Traffic.Gen.encapsulate Pkt.Vxlan plain in
  let gre = Traffic.Gen.encapsulate Pkt.Gre plain in
  let frames = Array.map Wire.serialize plain in
  let vx_frames = Array.map Wire.serialize vxlan in
  let opt_frames = Array.map with_ip_options frames in
  let n = Array.length frames in
  let npf = float_of_int n in
  let c = Stacks.pkt in
  let g_src = Codec.getter c "ipv4.src"
  and g_dst = Codec.getter c "ipv4.dst"
  and g_proto = Codec.getter c "ipv4.proto"
  and g_tsp = Codec.getter c "tcp.sport"
  and g_tdp = Codec.getter c "tcp.dport"
  and g_usp = Codec.getter c "udp.sport"
  and g_udp = Codec.getter c "udp.dport"
  and g_isrc = Codec.getter c "iipv4.src"
  and g_idst = Codec.getter c "iipv4.dst"
  and g_iproto = Codec.getter c "iipv4.proto"
  and g_itsp = Codec.getter c "itcp.sport"
  and g_itdp = Codec.getter c "itcp.dport" in
  let sink = ref 0 in
  (* classification alone *)
  let shape_pass () =
    for i = 0 to n - 1 do
      sink := !sink lxor Codec.shape_of c (Array.unsafe_get frames i)
    done
  in
  (* the sharding datapath's per-frame work: classify + read the 5-tuple *)
  let zero_pass () =
    for i = 0 to n - 1 do
      let b = Array.unsafe_get frames i in
      let sid = Codec.shape_of c b in
      let s =
        g_src.(sid) b + g_dst.(sid) b + g_proto.(sid) b
        +
        if sid = Stacks.Sid.tcp then g_tsp.(sid) b + g_tdp.(sid) b
        else g_usp.(sid) b + g_udp.(sid) b
      in
      sink := !sink lxor s
    done
  in
  (* the same 5-tuple out of the encapsulated inner headers *)
  let inner_pass () =
    for i = 0 to n - 1 do
      let b = Array.unsafe_get vx_frames i in
      let sid = Codec.shape_of c b in
      let s =
        g_isrc.(sid) b + g_idst.(sid) b + g_iproto.(sid) b + g_itsp.(sid) b + g_itdp.(sid) b
      in
      sink := !sink lxor s
    done
  in
  let legacy_pass () =
    for i = 0 to n - 1 do
      match Wire.Legacy.parse (Array.unsafe_get frames i) with
      | Ok p -> sink := !sink lxor p.Pkt.ip_src
      | Error _ -> ()
    done
  in
  let typed_pass_of frames () =
    for i = 0 to n - 1 do
      match Wire.parse_typed ~port:0 ~ts_ns:0 (Array.unsafe_get frames i) with
      | Ok p -> sink := !sink lxor p.Pkt.ip_src
      | Error _ -> ()
    done
  in
  let typed_pass = typed_pass_of frames and options_pass = typed_pass_of opt_frames in
  shape_pass ();
  zero_pass ();
  inner_pass ();
  legacy_pass ();
  typed_pass ();
  options_pass ();
  let t_shape = time_pass shape_pass /. npf *. 1e9 in
  let t_zero = time_pass zero_pass /. npf *. 1e9 in
  let t_inner = time_pass inner_pass /. npf *. 1e9 in
  let t_legacy = time_pass legacy_pass /. npf *. 1e9 in
  let t_typed = time_pass typed_pass /. npf *. 1e9 in
  let t_options = time_pass options_pass /. npf *. 1e9 in
  (* fallbacks, counted while telemetry is on: none for the generated
     plain and VXLAN frames, one per frame with IPv4 options *)
  Telemetry.enable ();
  typed_pass ();
  typed_pass_of vx_frames ();
  let plain_fallbacks = Telemetry.Counter.value Codec.layout_fallback in
  options_pass ();
  let options_fallbacks = Telemetry.Counter.value Codec.layout_fallback - plain_fallbacks in
  Telemetry.disable ();
  let w0 = Gc.minor_words () in
  zero_pass ();
  let words = (Gc.minor_words () -. w0) /. npf in
  let w1 = Gc.minor_words () in
  inner_pass ();
  let inner_words = (Gc.minor_words () -. w1) /. npf in
  (* differential coverage: every frame parses identically on both paths,
     every packet (plain and both tunnel kinds) round-trips *)
  let agreement = ref 0 in
  Array.iteri
    (fun i b ->
      match (Wire.parse b, Wire.Legacy.parse b) with
      | Ok a, Ok l when Pkt.equal a l -> incr agreement
      | _ -> ignore i)
    frames;
  let options_agreement = ref 0 in
  Array.iter
    (fun b ->
      match (Wire.parse b, Wire.Legacy.parse b) with
      | Ok a, Ok l when Pkt.equal a l -> incr options_agreement
      | _ -> ())
    opt_frames;
  let roundtrips = ref 0 in
  Array.iter
    (fun p ->
      match Wire.parse_typed ~port:p.Pkt.port ~ts_ns:0 (Wire.serialize p) with
      | Ok q when Pkt.equal { p with Pkt.ts_ns = 0 } { q with Pkt.ts_ns = 0 } -> incr roundtrips
      | _ -> ())
    (Array.concat [ plain; vxlan; gre ]);
  let rel = t_zero /. t_legacy in
  Format.printf
    "frames %d  shape %5.1f ns  zerocopy %5.1f ns  legacy %5.1f ns  typed %5.1f ns  inner %5.1f ns@."
    n t_shape t_zero t_legacy t_typed t_inner;
  Format.printf
    "zerocopy/legacy %4.2fx  words/frame %6.4f (outer) %6.4f (inner)  agreement %d/%d  roundtrips %d/%d@."
    rel words inner_words !agreement n !roundtrips (3 * n);
  Format.printf
    "IPv4 options: typed %5.1f ns (closure-tree fallback)  agreement %d/%d  layout fallbacks: %d plain+VXLAN, %d options@."
    t_options !options_agreement n plain_fallbacks options_fallbacks;
  ignore !sink;
  Telemetry.enable ();
  Telemetry.Counter.add (counter "frames" "frames per timing pass") n;
  Telemetry.Counter.add (counter "roundtrips" "serialize/parse_typed roundtrip successes")
    !roundtrips;
  Telemetry.Counter.add (counter "parse_agreement" "staged = legacy parse agreements") !agreement;
  Telemetry.Counter.add
    (counter "options_agreement" "staged = legacy parse agreements, IPv4 options")
    !options_agreement;
  Telemetry.Counter.add
    (counter "parse_rel_cost_x100" "zerocopy/legacy cost ratio, x100 (lower is better)")
    (x100 rel);
  Telemetry.Counter.add
    (counter "parse_alloc_free" "1 when the zero-copy path allocated no minor words")
    (if words = 0.0 then 1 else 0);
  Telemetry.Counter.add
    (counter "inner_alloc_free" "1 when the inner-header path allocated no minor words")
    (if inner_words = 0.0 then 1 else 0);
  Telemetry.Counter.add (counter "shape_ns_x100" "classification cost, 1/100 ns per frame")
    (x100 t_shape);
  Telemetry.Counter.add (counter "zerocopy_ns_x100" "zero-copy 5-tuple cost, 1/100 ns per frame")
    (x100 t_zero);
  Telemetry.Counter.add (counter "legacy_ns_x100" "legacy parse cost, 1/100 ns per frame")
    (x100 t_legacy);
  Telemetry.Counter.add (counter "typed_ns_x100" "staged Pkt.t parse cost, 1/100 ns per frame")
    (x100 t_typed);
  Telemetry.Counter.add (counter "inner_ns_x100" "inner 5-tuple cost, 1/100 ns per frame")
    (x100 t_inner);
  Telemetry.Counter.add
    (counter "options_ns_x100" "typed parse cost with IPv4 options, 1/100 ns per frame")
    (x100 t_options);
  let snap = Telemetry.snapshot () in
  Telemetry.disable ();
  Telemetry.reset ();
  let file = "BENCH_codec.json" in
  let oc = open_out file in
  output_string oc (Telemetry.to_json ~name:"codec" snap);
  close_out oc;
  Format.printf "wrote %s@." file;
  (* self-gate: the staged path must stay allocation-free and fully
     agree with the legacy oracle *)
  let fail = ref 0 in
  let check cond msg = if not cond then (incr fail; Format.printf "VIOLATION: %s@." msg) in
  check (words = 0.0) "zero-copy path allocated minor words";
  check (inner_words = 0.0) "inner-header path allocated minor words";
  check (!agreement = n) "staged parse disagrees with legacy parse";
  check (!roundtrips = 3 * n) "serialize/parse_typed roundtrip failures";
  check (plain_fallbacks = 0) "plain or VXLAN frames missed every fixed layout";
  check (options_fallbacks = n) "frames with IPv4 options met a fixed layout";
  check (!options_agreement = n) "staged parse disagrees with legacy parse on IPv4 options";
  if !fail > 0 then exit 1
