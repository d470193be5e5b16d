(* Fast-path benchmark: table-driven vs bit-by-bit Toeplitz, and the
   staged per-packet RSS hash the pool's producer runs.  Timings are
   recorded as [_ns]-suffixed telemetry counters (machine-dependent,
   skipped by the regression gate's default policy) together with the
   speedup ratio, and written to BENCH_fastpath.json in the same schema as
   the per-NF documents so `check_regression` can diff them. *)

let c_ref_ns =
  Telemetry.Counter.make "fastpath.toeplitz_ref_ns_x100"
    ~doc:"bit-by-bit Toeplitz, 1/100 ns per 12B hash"

let c_compiled_ns =
  Telemetry.Counter.make "fastpath.toeplitz_compiled_ns_x100"
    ~doc:"table-driven Toeplitz, 1/100 ns per 12B hash"

let c_toeplitz_speedup =
  Telemetry.Counter.make "fastpath.toeplitz_speedup_x100"
    ~doc:"compiled-over-reference Toeplitz speedup, x100"

let c_rss_ns =
  Telemetry.Counter.make "fastpath.rss_hash_ns_x100"
    ~doc:"Rss.hash on an ipv4_tcp engine, 1/100 ns per packet"

let iters_scale () =
  match Sys.getenv_opt "MAESTRO_BENCH_ITERS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> float_of_int n /. 100.0
      | _ -> 1.0)
  | None -> 1.0

let scaled base = max 1 (int_of_float (float_of_int base *. iters_scale ()))

let time_ns iters f =
  for _ = 1 to max 1 (iters / 10) do
    f ()
  done;
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    f ()
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters

let bench_toeplitz () =
  let key = Nic.Toeplitz.microsoft_test_key in
  let ckey = Nic.Toeplitz.Key.compile key in
  let pkt =
    Packet.Pkt.make ~ip_src:0x0a000001 ~ip_dst:0x60000002 ~src_port:1234 ~dst_port:80 ()
  in
  let input = Option.get (Nic.Field_set.hash_input Nic.Field_set.ipv4_tcp pkt) in
  assert (Nic.Toeplitz.hash_int ~key input = Nic.Toeplitz.Key.hash_int ckey input);
  let sink = ref 0 in
  let iters = scaled 200_000 in
  let t_ref = time_ns iters (fun () -> sink := !sink + Nic.Toeplitz.hash_int ~key input) in
  let t_compiled =
    time_ns iters (fun () -> sink := !sink + Nic.Toeplitz.Key.hash_int ckey input)
  in
  ignore !sink;
  let speedup = t_ref /. t_compiled in
  Format.printf "toeplitz 12B hash:     reference %8.1f ns   compiled %8.1f ns   %.1fx@." t_ref
    t_compiled speedup;
  (t_ref, t_compiled, speedup)

(* The hash the pool's producer runs per packet: [Rss.hash] of an
   [ipv4_tcp] engine, the staged 12-byte 5-tuple, over 4096 distinct
   flows so that no input is hashed twice in a row. *)
let bench_rss () =
  let rng = Random.State.make [| 0x7055 |] in
  let rss =
    Nic.Rss.configure ~key:(Nic.Rss.random_key rng Nic.Model.E810)
      ~sets:[ Nic.Field_set.ipv4_tcp ] ~queues:4 ()
  in
  let pkts =
    Array.init 4096 (fun _ ->
        Packet.Pkt.make
          ~ip_src:(Random.State.full_int rng 0x1_0000_0000)
          ~ip_dst:(Random.State.full_int rng 0x1_0000_0000)
          ~src_port:(Random.State.int rng 0x10000)
          ~dst_port:(Random.State.int rng 0x10000)
          ())
  in
  let hash = Nic.Rss.hash rss in
  let sink = ref 0 in
  let rounds = scaled 50 in
  let t =
    time_ns rounds (fun () ->
        for i = 0 to Array.length pkts - 1 do
          sink := !sink lxor hash (Array.unsafe_get pkts i)
        done)
    /. float_of_int (Array.length pkts)
  in
  ignore (Sys.opaque_identity !sink);
  Format.printf "rss 5-tuple hash:      %8.1f ns/pkt (Rss.hash, ipv4_tcp, %d flows)@." t
    (Array.length pkts);
  t

let x100 v = int_of_float (Float.round (100.0 *. v))

let run () =
  Format.printf "@.=== Fast-path benchmarks (BENCH_fastpath.json) ===@.";
  (* measure with telemetry off so the numbers are the uninstrumented cost *)
  Telemetry.reset ();
  Telemetry.disable ();
  let t_ref, t_compiled, toeplitz_speedup = bench_toeplitz () in
  let t_rss = bench_rss () in
  Telemetry.enable ();
  Telemetry.Counter.add c_rss_ns (x100 t_rss);
  Telemetry.Counter.add c_ref_ns (x100 t_ref);
  Telemetry.Counter.add c_compiled_ns (x100 t_compiled);
  Telemetry.Counter.add c_toeplitz_speedup (x100 toeplitz_speedup);
  let snap = Telemetry.snapshot () in
  Telemetry.disable ();
  Telemetry.reset ();
  let file = "BENCH_fastpath.json" in
  let oc = open_out file in
  output_string oc (Telemetry.to_json ~name:"fastpath" snap);
  close_out oc;
  Format.printf "wrote %s@." file
