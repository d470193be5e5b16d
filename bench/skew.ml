(* Skew smoke benchmark — the CI [skew-smoke] job.

   Replays a Zipf(1.1) "mice and elephants" trace (the Fig. 5 workload
   family) through the persistent domain pool twice — once with the
   static RSS dispatch and once with online RSS++ rebalancing
   (epoch 4096, threshold 1.1) — and checks the dynamic-balancing
   contract end to end on real domains:

   - both runs' verdicts are identical to sequential execution (the
     quiesced state migration is invisible to the NF);
   - zero flow-ordering violations: between two consecutive rebalance
     points every flow's packets land on exactly one core;
   - the balancer actually helps: averaged over the epochs after the
     first boundary, the dynamic run's excess imbalance
     (max/mean - 1) is at most [imbalance_gate] of the static run's.

   Exits non-zero on any violation and writes the run's telemetry as
   BENCH_skew.json (first argv overrides the path) for the
   check_regression gate.  Every skew.* counter is producer-side and
   deterministic for a fixed seed; the one timing-dependent pool
   counter (pool.ring_full_stalls) is filtered out of the document so
   the committed baseline diffs cleanly across machines. *)

let cores = 8
let epoch_pkts = 4096
let epochs = 8
let npkts = epochs * epoch_pkts
let nflows = 1_000
let zipf_exponent = 1.1
let threshold = 1.1

let imbalance_gate = 0.6
(* dynamic excess imbalance must be <= gate * static excess imbalance *)

let failures = ref 0

let check name ok =
  Printf.printf "%-58s %s\n%!" name (if ok then "ok" else "FAIL");
  if not ok then incr failures

let verdicts_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | Dsl.Interp.Dropped, Dsl.Interp.Dropped -> true
         | Dsl.Interp.Fwd (pa, oa), Dsl.Interp.Fwd (pb, ob) -> pa = pb && Packet.Pkt.equal oa ob
         | _ -> false)
       a b

(* flow-ordering violations: within each segment between consecutive
   rebalance points, a (normalized) flow dispatched to two different
   cores could be reordered *)
let ordering_violations trace (s : Runtime.Pool.stats) =
  let points = Array.of_list s.Runtime.Pool.last_rebalance_points in
  let flow_core = Hashtbl.create 4096 in
  let seg = ref 0 and viol = ref 0 in
  Array.iteri
    (fun i pkt ->
      while !seg < Array.length points && i >= points.(!seg) do
        incr seg;
        Hashtbl.reset flow_core
      done;
      let flow = Packet.Flow.normalize (Packet.Flow.of_pkt pkt) in
      let core = s.Runtime.Pool.last_assignment.(i) in
      match Hashtbl.find_opt flow_core flow with
      | None -> Hashtbl.add flow_core flow core
      | Some c -> if c <> core then incr viol)
    trace;
  !viol

let epoch_imbalances (s : Runtime.Pool.stats) =
  Array.init epochs (fun e ->
      let counts = Array.make cores 0 in
      for i = e * epoch_pkts to ((e + 1) * epoch_pkts) - 1 do
        let c = s.Runtime.Pool.last_assignment.(i) in
        counts.(c) <- counts.(c) + 1
      done;
      Runtime.Rebalance.imbalance_of counts)

(* mean excess imbalance (max/mean - 1) over the epochs where the
   balancer has had a chance to act (after the first boundary) *)
let mean_excess imbalances =
  let n = Array.length imbalances - 1 in
  let sum = ref 0.0 in
  for e = 1 to n do
    sum := !sum +. (imbalances.(e) -. 1.0)
  done;
  !sum /. float_of_int n

let c_counter name doc v =
  let c = Telemetry.Counter.make name ~doc in
  Telemetry.Counter.add c v

let () =
  let out = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_skew.json" in
  Telemetry.reset ();
  Telemetry.enable ();
  let nf = Nfs.Registry.find_exn "fw" in
  let request = { Maestro.Pipeline.default_request with cores } in
  let plan = (Maestro.Pipeline.parallelize_exn ~request nf).Maestro.Pipeline.plan in
  let rng = Random.State.make [| 0x5ca1e |] in
  let z = Traffic.Zipf.make ~exponent:zipf_exponent ~nflows () in
  let flows = Traffic.Gen.flows rng nflows in
  let spec = { Traffic.Gen.default_spec with pkts = npkts; reply_fraction = 0.3 } in
  let trace = Traffic.Zipf.trace ~spec rng z ~flows in
  let seq = Runtime.Parallel.run_sequential nf trace in

  (* static dispatch: the baseline the balancer must beat *)
  let pool = Runtime.Pool.create ~cores () in
  let v_static = Runtime.Pool.run pool plan trace in
  let s_static = Runtime.Pool.stats pool in
  Runtime.Pool.shutdown pool;
  check "static: verdicts identical to sequential" (verdicts_equal seq v_static);
  check "static: every packet dispatched"
    (Array.fold_left ( + ) 0 s_static.Runtime.Pool.last_per_core_pkts = npkts);

  (* dynamic dispatch: online rebalancing with quiesced state migration *)
  let pool = Runtime.Pool.create ~cores () in
  let mode = Runtime.Balancer.On { Runtime.Balancer.epoch_pkts; threshold } in
  let v_dyn = Runtime.Pool.run ~rebalance:mode pool plan trace in
  let s_dyn = Runtime.Pool.stats pool in
  Runtime.Pool.shutdown pool;
  check "dynamic: verdicts identical to sequential" (verdicts_equal seq v_dyn);
  check "dynamic: every packet dispatched"
    (Array.fold_left ( + ) 0 s_dyn.Runtime.Pool.last_per_core_pkts = npkts);
  check "dynamic: balancer engaged" (s_dyn.Runtime.Pool.rebalances >= 1);
  check "dynamic: state actually migrated" (s_dyn.Runtime.Pool.migrated_flows >= 1);
  check "dynamic: no migration evictions" (s_dyn.Runtime.Pool.migration_drops = 0);

  let viol_static = ordering_violations trace s_static in
  let viol_dyn = ordering_violations trace s_dyn in
  check "static: zero flow-ordering violations" (viol_static = 0);
  check "dynamic: zero flow-ordering violations" (viol_dyn = 0);

  let imb_static = mean_excess (epoch_imbalances s_static) in
  let imb_dyn = mean_excess (epoch_imbalances s_dyn) in
  Printf.printf "mean excess imbalance (epochs 1..%d): static %.3f, dynamic %.3f (gate %.2fx)\n%!"
    (epochs - 1) imb_static imb_dyn imbalance_gate;
  check "dynamic imbalance within gate" (imb_dyn <= imbalance_gate *. imb_static);

  c_counter "skew.pkts" "packets replayed per run" npkts;
  c_counter "skew.flows" "distinct flows in the workload" nflows;
  c_counter "skew.static_imbalance_x100" "mean static excess imbalance, percent"
    (int_of_float (Float.round (imb_static *. 100.0)));
  c_counter "skew.dynamic_imbalance_x100" "mean dynamic excess imbalance, percent"
    (int_of_float (Float.round (imb_dyn *. 100.0)));
  c_counter "skew.imbalance_ratio_x100" "dynamic/static excess imbalance, percent"
    (int_of_float (Float.round (imb_dyn /. Float.max 1e-9 imb_static *. 100.0)));
  c_counter "skew.rebalances" "rebalances applied by the dynamic run"
    s_dyn.Runtime.Pool.rebalances;
  c_counter "skew.migrated_buckets" "indirection buckets moved" s_dyn.Runtime.Pool.migrated_buckets;
  c_counter "skew.migrated_flows" "flow states handed between cores"
    s_dyn.Runtime.Pool.migrated_flows;
  c_counter "skew.ordering_violations" "flow-ordering violations across both runs"
    (viol_static + viol_dyn);

  Telemetry.disable ();
  let snap = Telemetry.snapshot () in
  (* ring-full stalls and stuck-worker detections depend on
     producer/consumer timing, never on the workload — drop them so the
     committed baseline is machine-independent *)
  let timing_dependent = [ "pool.ring_full_stalls"; "supervisor.stuck_detected" ] in
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
  output_string oc (Telemetry.to_json ~name:"skew" snap);
  close_out oc;
  Printf.printf "telemetry written to %s\n" out;
  if !failures > 0 then begin
    Printf.printf "%d violation(s)\n" !failures;
    exit 1
  end;
  print_endline "skew smoke: dynamic rebalancing green"
