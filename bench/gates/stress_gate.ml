(* Flow-scale stress harness — nightly at one million concurrent flows
   (entry point bench/stress.ml; the PR-CI matrix runs it scaled down via
   MAESTRO_STRESS_FLOWS=50000 so every PR still exercises the same code
   paths).

   The paper's NFs are evaluated at data-center flow counts; this gate
   holds the state layer to that scale and pins the structural behaviour
   that only shows up there:

   - {e flow-table fill}: establish N concurrent flows through the
     firewall and inspect the live {!State.Map_s} — every flow's 12-byte
     key must live in the packed int-pair table, open-addressing probe
     lengths must stay short (the hybrid map's reason to exist) and the
     backing table must stay within the rebuild law's bound (slots <=
     smallest power of two >= 4*(size+1), so < 8*size).
   - {e tombstone churn}: a rotating insert/erase window over
     {!State.Intmap} must NOT grow the table — erase pressure is
     reclaimed by same-size rebuilds, not by doubling.  Before that fix
     a few hundred thousand erases ballooned the table without bound.
   - {e expiry at scale}: one far-future packet sweeps the full chain;
     {!State.Dchain.allocate_at} bulk re-insertion (the migration path)
     must be O(1) amortized for recency-ordered streams — the
     tail-backward scan fix; head-forward scanning is quadratic and
     visibly hangs at this scale.
   - {e live pool}: the whole trace runs through the persistent domain
     pool under the derived plan, and verdicts must match the sequential
     oracle — semantics preservation does not decay with state size.
   - {e GC pressure}: allocated words per packet on the sequential leg
     (deterministic for a fixed seed) are reported and gated, so a
     fastpath change that starts boxing per packet fails loudly.

   Wall-clock phases are reported under [_ms] names (excluded from
   cross-machine diffs); the structural counters are deterministic at a
   given MAESTRO_STRESS_FLOWS, so each scale diffs against its own
   committed baseline (bench/baseline/BENCH_stress_pr.json at 50k,
   BENCH_stress.json at the nightly million). *)

let default_flows = 1_000_000

let flows_target =
  match Sys.getenv_opt "MAESTRO_STRESS_FLOWS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> n
      | _ -> default_flows)
  | None -> default_flows

let cores = 4
let churn_window = 4_096

let c_counter name doc v =
  let c = Telemetry.Counter.make name ~doc in
  Telemetry.Counter.add c v

let ms_since t0 = int_of_float (Float.round ((Unix.gettimeofday () -. t0) *. 1e3))

let find_map inst name =
  match Dsl.Instance.find inst name with
  | Dsl.Instance.O_map m -> m
  | _ -> failwith (name ^ " is not a map")

let find_chain inst name =
  match Dsl.Instance.find inst name with
  | Dsl.Instance.O_chain c -> c
  | _ -> failwith (name ^ " is not a chain")

let run ?(out = "BENCH_stress.json") () =
  let nflows = flows_target in
  let body_pkts = max (nflows / 4) 16_384 in
  let capacity = 2 * nflows in
  let failures = ref 0 in
  let check name ok =
    Printf.printf "%-58s %s\n%!" name (if ok then "ok" else "FAIL");
    if not ok then incr failures
  in
  Telemetry.reset ();
  Telemetry.enable ();
  Printf.printf "stress scale: %d concurrent flows (+%d body packets)\n%!" nflows body_pkts;
  let nf = Nfs.Fw.make ~capacity () in
  let info = Dsl.Check.check_exn nf in
  let rng = Random.State.make [| 0x57e55 |] in
  let flows = Traffic.Gen.flows rng nflows in
  let spec =
    { Traffic.Gen.default_spec with pkts = body_pkts; fresh_fraction = 0.0; gap_ns = 100 }
  in
  let trace, _warmup = Traffic.Gen.steady_uniform ~spec rng ~flows in

  (* sequential leg: verdict oracle + a live instance to inspect, with
     allocation accounting *)
  let inst = Dsl.Instance.create nf in
  let runner = Dsl.Compile.make_runner nf info inst in
  let t0 = Unix.gettimeofday () in
  let alloc0 = Gc.allocated_bytes () in
  let seq = Array.map (fun p -> Dsl.Compile.run runner p) trace in
  let alloc_bytes = Gc.allocated_bytes () -. alloc0 in
  let seq_ms = ms_since t0 in
  let alloc_words_per_pkt =
    alloc_bytes /. 8.0 /. float_of_int (Array.length trace)
  in

  let chain = find_chain inst "fw_chain" in
  let fw_map = find_map inst "fw_flows" in
  let peak = State.Dchain.allocated chain in
  let max_probe, mean_probe_x100, table_slots, tombs = State.Map_s.packed_stats fw_map in
  check "fill: every flow concurrently resident" (peak = nflows);
  check "fill: every established flow is in the packed table"
    (State.Map_s.packed_size fw_map = nflows);
  check "fill: packed-map max probe <= 64" (max_probe <= 64);
  check "fill: packed-map table within the rebuild bound (< 8x size)"
    (table_slots < 8 * max 1 (State.Map_s.size fw_map));
  check "fill: sequential leg allocates < 256 words/pkt" (alloc_words_per_pkt < 256.0);

  (* expiry sweep: one packet 2x the expiry window past the last arrival
     retires every idle flow in a single Chain_expire *)
  let last_ts = trace.(Array.length trace - 1).Packet.Pkt.ts_ns in
  let sweeper =
    { trace.(0) with Packet.Pkt.ts_ns = last_ts + (2 * Nfs.Fw.default_expiry_ns) }
  in
  let t0 = Unix.gettimeofday () in
  ignore (Dsl.Compile.run runner sweeper);
  let sweep_ms = ms_since t0 in
  let after_sweep = State.Dchain.allocated chain in
  let expired = peak - after_sweep in
  check "sweep: expiry drained the chain (sweeper flow remains)" (after_sweep = 1);
  check "sweep: full-chain expiry under 30s" (sweep_ms < 30_000);

  (* dchain bulk re-insertion, recency order — the migration stream shape;
     quadratic scanning does not finish this phase at the nightly scale *)
  let mig = State.Dchain.create ~capacity:nflows in
  let t0 = Unix.gettimeofday () in
  let mig_ok = ref 0 in
  for i = 0 to nflows - 1 do
    match State.Dchain.allocate_at mig ~touched:(1000 + i) with
    | Some _ -> incr mig_ok
    | None -> ()
  done;
  let dchain_fill_ms = ms_since t0 in
  check "dchain: recency-ordered bulk insert fills to capacity" (!mig_ok = nflows);
  check "dchain: bulk insert is linear (under 30s)" (dchain_fill_ms < 30_000);
  let t0 = Unix.gettimeofday () in
  let swept = State.Dchain.expire_before mig ~threshold:(1000 + nflows) in
  let expire_scan_ms = ms_since t0 in
  check "dchain: full-chain expire_before returns every flow"
    (List.length swept = nflows);

  (* intmap tombstone churn: rotating window of 12-byte keys sharing
     their hi half, table must not grow *)
  let churn_ops = max (2 * nflows) 1_000_000 in
  let im = State.Intmap.create ~capacity:(churn_window + 1) in
  let hi = State.Key.tag ~bytes:12 in
  for i = 0 to churn_window - 1 do
    ignore (State.Intmap.put im hi i i)
  done;
  let t0 = Unix.gettimeofday () in
  let churn_fail = ref 0 in
  for i = 0 to churn_ops - 1 do
    if not (State.Intmap.erase im hi i) then incr churn_fail;
    if not (State.Intmap.put im hi (i + churn_window) i) then incr churn_fail
  done;
  let churn_ms = ms_since t0 in
  let churn_slots = State.Intmap.table_slots im in
  let churn_tombs = State.Intmap.tombstones im in
  let churn_max_probe, churn_mean_x100 = State.Intmap.probe_stats im in
  check "churn: every erase/insert of the rotating window landed" (!churn_fail = 0);
  check "churn: table stayed bounded under tombstone pressure"
    (churn_slots <= 32_768);
  check "churn: tombstones reclaimed by same-size rebuilds" (churn_tombs < churn_slots);
  check "churn: probe lengths stay short" (churn_max_probe <= 64);

  (* the live pool at full scale, against the sequential oracle *)
  let outcome =
    Maestro.Pipeline.parallelize_exn
      ~request:{ Maestro.Pipeline.default_request with cores }
      nf
  in
  let pool = Runtime.Pool.create ~cores () in
  let t0 = Unix.gettimeofday () in
  let pooled = Runtime.Pool.run pool outcome.Maestro.Pipeline.plan trace in
  let pool_ms = ms_since t0 in
  Runtime.Pool.shutdown pool;
  check "pool: verdicts at scale identical to sequential" (seq = pooled);

  c_counter "stress.flows" "concurrent flows established" nflows;
  c_counter "stress.trace_pkts" "packets in the stress trace" (Array.length trace);
  c_counter "stress.peak_concurrent_flows" "chain entries live after establishment (gated)"
    peak;
  c_counter "stress.map_table_slots" "packed-map backing slots at peak" table_slots;
  c_counter "stress.map_tombstones" "packed-map tombstones at peak" tombs;
  c_counter "stress.map_max_probe" "packed-map max probe length at peak" max_probe;
  c_counter "stress.map_mean_probe_x100" "packed-map mean probe length at peak, x100"
    mean_probe_x100;
  c_counter "stress.expired_flows" "flows retired by the single expiry sweep" expired;
  c_counter "stress.intmap_churn_ops" "erase+insert pairs over the rotating window"
    churn_ops;
  c_counter "stress.intmap_churn_slots" "intmap backing slots after churn (bounded)"
    churn_slots;
  c_counter "stress.intmap_churn_tombstones" "intmap tombstones after churn" churn_tombs;
  c_counter "stress.intmap_churn_max_probe" "intmap max probe after churn" churn_max_probe;
  c_counter "stress.intmap_churn_mean_probe_x100" "intmap mean probe after churn, x100"
    churn_mean_x100;
  c_counter "stress.dchain_bulk_inserts" "recency-ordered allocate_at calls" !mig_ok;
  c_counter "stress.pool_agreement_pkts" "pool verdicts matching sequential (gated)"
    (if seq = pooled then Array.length trace else 0);
  c_counter "stress.alloc_words_per_pkt_x100" "sequential-leg GC allocation per packet, x100"
    (int_of_float (Float.round (alloc_words_per_pkt *. 100.0)));
  c_counter "stress.seq_ms" "sequential leg wall clock, ms" seq_ms;
  c_counter "stress.expire_sweep_ms" "full-chain expiry sweep wall clock, ms" sweep_ms;
  c_counter "stress.dchain_fill_ms" "bulk re-insertion wall clock, ms" dchain_fill_ms;
  c_counter "stress.dchain_expire_scan_ms" "full-chain expire_before wall clock, ms"
    expire_scan_ms;
  c_counter "stress.intmap_churn_ms" "rotating-window churn wall clock, ms" churn_ms;
  c_counter "stress.pool_run_ms" "pool leg wall clock, ms" pool_ms;

  Telemetry.disable ();
  (* drop the timing-dependent pool counters so the committed baseline
     diffs cleanly across machines (same policy as churn) *)
  let snap = Telemetry.snapshot () in
  let timing_dependent =
    [
      "pool.ring_full_stalls";
      "pool.producer_naps";
      "pool.producer_nap_us";
      "supervisor.stuck_detected";
    ]
  in
  let snap =
    {
      snap with
      Telemetry.counters =
        List.filter
          (fun c -> not (List.mem c.Telemetry.counter_name timing_dependent))
          snap.Telemetry.counters;
    }
  in
  let oc = open_out out in
  output_string oc (Telemetry.to_json ~name:"stress" snap);
  close_out oc;
  Printf.printf "telemetry written to %s\n" out;
  if !failures > 0 then Printf.printf "%d violation(s)\n" !failures
  else
    Printf.printf "stress smoke: %d flows live, state layer holds at scale\n" nflows;
  !failures
