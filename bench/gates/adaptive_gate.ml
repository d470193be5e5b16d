(* Adaptive discipline-switching smoke benchmark — the CI [adaptive-smoke]
   job (entry point bench/adaptive.ml; also runnable inside the bench tour
   as `ext-adaptive`).

   The workload alternates calm and skewed phases over one flow
   population: calm traffic spreads uniformly over 1 024 flows (the
   shared-nothing rung's best case), skewed traffic concentrates
   Zipf(3.5) on the heaviest flows so one RSS bucket owns ~90 % of the
   packets and a sharded pool collapses onto a single hot core.  The
   phase schedule is declared as a fault-plan [phase@E:PROFILE] string
   and read back through {!Faults.phases} — the same plan syntax that
   injects the crashes drives the traffic they land on.

   The gate replays the trace four ways on real domains — sequential
   oracle, static shared-nothing, static lock, adaptive — and checks:

   - the adaptive controller switches (down to SCR when each skew phase
     hits, back to shared-nothing when calm returns) and the residency
     split lands where the phases are;
   - adaptive verdicts are identical to sequential execution, across
     shard merges, replica seedings and SCR collapses;
   - per-flow ordering holds between consecutive switch boundaries on
     every non-SCR segment (SCR moves batch OWNERSHIP round-robin by
     design while each replica still applies the global stream in order);
   - verdicts stay sequential under a fault plan that crashes workers in
     the switch epoch: the old rung's recovery path runs first, the
     switch defers, SCR replicas rebuild from snapshot + digest log;
   - throughput: adaptive beats BOTH static rungs on the mixed trace —
     the whole point of switching (gate 1.0x: reject regressing to
     either static behaviour; the modeled margin is larger, ~1.3x).

   Throughput is priced by {!Sim.Throughput.evaluate}, the same cycle
   model every paper figure uses, fed the per-epoch per-core shares each
   REAL pool run actually dispatched ([measured_shares]) and the rung
   each epoch actually ran under; the adaptive run is additionally
   charged {!Sim.Cost.discipline_switch_cycles} per committed switch.
   CI machines expose too few hardware threads for OCaml domains to run
   in parallel, so wall clock measures scheduler overhead, not the
   discipline physics — the model makes the gate deterministic and
   machine-independent while staying anchored to the measured dispatch
   of the real runs.  Wall-clock numbers are still reported under [_ms]
   names that the benchdiff timing policy excludes from diffs.

   Returns the number of violations and writes telemetry as
   BENCH_adaptive.json ([out] overrides) for the check_regression gate;
   the timing-dependent pool counters are filtered from the document. *)

let cores = 4
let epoch_pkts = 4_096
let nflows = 1_024
let zipf_exponent = 3.5
let speed_gate = 1.0

(* calm 4 | skew 8 | calm 4 | skew 8 epochs = 24 epochs.  Skew phases are
   twice the calm ones: a switch only pays for itself over enough epochs
   of the regime it bought (the amortization argument priced out in
   {!Sim.Cost.discipline_switch_cycles}), and the controller's hysteresis
   exists precisely because short-lived disturbances are not worth
   chasing. *)
let phase_plan = "phase@0:calm;phase@4:skew;phase@12:calm;phase@16:skew"
let total_epochs = 24
let npkts = total_epochs * epoch_pkts

let adaptive =
  Runtime.Pool.Adaptive { Runtime.Adaptive.epoch_pkts; up = 2.0; down = 1.3; cooldown = 1 }

(* Build the trace from the installed plan's phase schedule.  The traffic
   is steady-state (established sessions, mostly LAN→WAN with a 15 %
   reply share): load churn comes from WHERE the packets concentrate,
   not from session churn — the RSS++ regime, where the flow population
   is stable but its load distribution shifts under the dispatcher.  A
   mostly one-directional hot flow matters for the lock baseline: locks
   need no flow affinity, so their random RSS key splits a session's two
   directions over two cores and a reply-heavy elephant would be half
   hidden from the imbalance term. *)
let trace_of_phases rng ~flows phases =
  let spec pkts =
    { Traffic.Gen.default_spec with pkts; reply_fraction = 0.15; fresh_fraction = 0.0 }
  in
  let zipf = Traffic.Zipf.make ~exponent:zipf_exponent ~nflows () in
  let rec go = function
    | [] -> []
    | (epoch, profile) :: rest ->
        let until = match rest with (e, _) :: _ -> e | [] -> total_epochs in
        let pkts = (until - epoch) * epoch_pkts in
        let seg =
          match profile with
          | "calm" -> Traffic.Gen.uniform ~spec:(spec pkts) rng ~flows
          | "skew" -> Traffic.Zipf.trace ~spec:(spec pkts) rng zipf ~flows
          | p -> failwith ("adaptive gate: unknown phase profile " ^ p)
        in
        seg :: go rest
  in
  Array.concat (go phases)

(* per-flow ordering between consecutive rebalance points, skipping SCR
   epochs (round-robin ownership is the mechanism there, not a bug) *)
let ordering_violations trace (s : Runtime.Pool.stats) ~initial =
  Runtime.Balancer.ordering_violations
    ~exempt:(fun i ->
      Runtime.Adaptive.rung_of_epoch ~initial s.Runtime.Pool.switch_epochs (1 + (i / epoch_pkts))
      = Maestro.Ladder.Scr)
    ~key:(fun i -> Packet.Flow.normalize (Packet.Flow.of_pkt trace.(i)))
    ~points:s.Runtime.Pool.last_rebalance_points s.Runtime.Pool.last_assignment

(* Per-epoch NF profiles: epoch [e] is profiled with the preceding epochs
   executed as warm-up, so a calm epoch late in the trace sees the
   established sessions and not spurious re-establishment writes.  The
   phase structure is what makes the epochs differ — a skewed epoch's
   effective flow count collapses (hot flows cache well) while its
   dispatch shares pile up, and the contention laws react to both. *)
let epoch_profiles nf trace =
  let total_epochs = Array.length trace / epoch_pkts in
  Array.init total_epochs (fun e ->
      Sim.Profile.of_trace ~skip:(e * epoch_pkts) nf
        (Array.sub trace 0 ((e + 1) * epoch_pkts)))

(* Modeled time to serve the trace, epoch by epoch: each epoch is priced
   under the rung it actually ran on, with the per-core shares the run
   actually dispatched, through the discipline's contention law.  The
   adaptive run additionally pays the quiesce stall + state conversion
   for every committed switch ([flows] is the converted table population,
   so the trace's full session count). *)
let model_time ~plan_for ~profiles ~table_flows trace (s : Runtime.Pool.stats) ~initial =
  let total_epochs = Array.length trace / epoch_pkts in
  let counts = Runtime.Balancer.epoch_counts ~cores ~epoch_pkts s.Runtime.Pool.last_assignment in
  let seconds = ref 0.0 in
  for e = 0 to total_epochs - 1 do
    let rung = Runtime.Adaptive.rung_of_epoch ~initial s.Runtime.Pool.switch_epochs (e + 1) in
    let shares = Sim.Throughput.shares_of_counts counts.(e) in
    let slice = Array.sub trace (e * epoch_pkts) epoch_pkts in
    let ev =
      Sim.Throughput.evaluate ~measured_shares:shares (plan_for rung) profiles.(e) slice
    in
    seconds := !seconds +. (float_of_int epoch_pkts /. (ev.Sim.Throughput.mpps *. 1e6))
  done;
  let switch_cost =
    List.fold_left
      (fun acc (_, target) ->
        let replicas = match target with Maestro.Ladder.Scr -> cores | _ -> 1 in
        acc
        +. Sim.Cost.discipline_switch_cycles ~flows:table_flows ~replicas ()
           /. Sim.Machine.xeon_6226r.Sim.Machine.freq_hz)
      0.0 s.Runtime.Pool.switch_epochs
  in
  !seconds +. switch_cost

(* wall clock of one run, reported for local reading but never gated on:
   CI hosts give the domains a single hardware thread *)
let timed ?policy pool plan trace =
  let t0 = Unix.gettimeofday () in
  let v = Runtime.Pool.run ?policy pool plan trace in
  (v, Unix.gettimeofday () -. t0)

let c_counter name doc v =
  let c = Telemetry.Counter.make name ~doc in
  Telemetry.Counter.add c v

let run ?(out = "BENCH_adaptive.json") () =
  let failures = ref 0 in
  let check name ok =
    Printf.printf "%-58s %s\n%!" name (if ok then "ok" else "FAIL");
    if not ok then incr failures
  in
  Telemetry.reset ();
  Telemetry.enable ();
  let nf = Nfs.Registry.find_exn "fw" in
  let request = { Maestro.Pipeline.default_request with cores } in
  let plan_of strategy =
    (Maestro.Pipeline.parallelize_exn ~request:{ request with strategy } nf)
      .Maestro.Pipeline.plan
  in
  let sn_plan = plan_of `Auto in
  let lock_plan = plan_of `Force_locks in
  let scr_plan = plan_of `Force_scr in
  check "auto plan lands on the shared-nothing rung"
    (sn_plan.Maestro.Plan.strategy = Maestro.Plan.Shared_nothing);
  let plan_for = function
    | Maestro.Ladder.Shared_nothing -> sn_plan
    | Maestro.Ladder.Scr -> scr_plan
    | Maestro.Ladder.Lock_based | Maestro.Ladder.Serial -> lock_plan
  in

  (* the phase schedule comes from the fault-plan syntax *)
  let phases =
    match Faults.parse phase_plan with
    | Error e -> failwith e
    | Ok p ->
        Faults.install p;
        let ph = Faults.phases () in
        Faults.clear ();
        ph
  in
  check "phase schedule parsed" (List.length phases = 4);
  let rng = Random.State.make [| 0xada9 |] in
  let flows = Traffic.Gen.flows rng nflows in
  let trace = trace_of_phases rng ~flows phases in
  check "trace covers every epoch" (Array.length trace = npkts);
  let seq = Runtime.Parallel.run_sequential nf trace in

  (* correctness first: one adaptive run on a fresh pool *)
  let pool = Runtime.Pool.create ~cores () in
  let v_ad, t_ad = timed ~policy:adaptive pool sn_plan trace in
  let s = Runtime.Pool.stats pool in
  check "adaptive: verdicts identical to sequential" (seq = v_ad);
  check "adaptive: switched down and back at least twice" (s.Runtime.Pool.switches >= 3);
  let res r = Option.value ~default:0 (List.assoc_opt r s.Runtime.Pool.rung_residency) in
  check "adaptive: calm phases ran sharded"
    (res Maestro.Ladder.Shared_nothing >= total_epochs / 3);
  check "adaptive: skew phases ran on SCR" (res Maestro.Ladder.Scr >= total_epochs / 3);
  check "adaptive: first switch adopts SCR"
    (match s.Runtime.Pool.switch_epochs with
    | (_, Maestro.Ladder.Scr) :: _ -> true
    | _ -> false);
  check "adaptive: shard merges handed state over" (s.Runtime.Pool.migrated_flows > 0);
  check "adaptive: nothing dropped, nothing evicted"
    (s.Runtime.Pool.dropped_batches = 0 && s.Runtime.Pool.migration_drops = 0);
  check "adaptive: zero flow-ordering violations"
    (ordering_violations trace s ~initial:Maestro.Ladder.Shared_nothing = 0);
  let switches = s.Runtime.Pool.switches in
  let flaps = s.Runtime.Pool.flap_suppressed in
  let sn_epochs = res Maestro.Ladder.Shared_nothing in
  let scr_epochs = res Maestro.Ladder.Scr in
  let migrated_flows = s.Runtime.Pool.migrated_flows in
  Runtime.Pool.shutdown pool;

  (* crash workers around the first switch: the calm opening feeds every
     core ~32 batches per epoch (4 096 pkts over 4 cores, 32-pkt batches),
     so by batch ~130 the opening's 128 are done and the first skew epoch
     — whose barrier decides the first switch — is in flight.  The hot
     core races through its skewed backlog and crashes in that epoch, so
     its recovery and the switch collide at the same barrier (the switch
     must defer); the cold cores accumulate batches slowly under skew and
     crash only after the switch, on the SCR rung, rebuilding their
     replicas from snapshot + digest log *)
  (match Faults.parse "crash@0:130;crash@1:131;crash@2:132;crash@3:133" with
  | Error e -> failwith e
  | Ok p -> Faults.install p);
  let pool = Runtime.Pool.create ~cores () in
  let v_fault = Runtime.Pool.run ~policy:adaptive pool sn_plan trace in
  let sf = Runtime.Pool.stats pool in
  Faults.clear ();
  check "fault plan: workers crashed and recovered" (sf.Runtime.Pool.restarts >= 1);
  check "fault plan: still switched" (sf.Runtime.Pool.switches >= 1);
  check "fault plan: verdicts identical to sequential despite mid-switch crashes"
    (seq = v_fault);
  let fault_restarts = sf.Runtime.Pool.restarts in
  let fault_rebuilds = sf.Runtime.Pool.scr_rebuilds in
  Runtime.Pool.shutdown pool;

  (* static rungs, one run each: their verdicts must match the oracle too,
     and their recorded dispatch feeds the throughput model *)
  let pool = Runtime.Pool.create ~cores () in
  let v_sn, t_sn = timed pool sn_plan trace in
  let s_sn = Runtime.Pool.stats pool in
  Runtime.Pool.shutdown pool;
  check "static shared-nothing: verdicts identical to sequential" (seq = v_sn);
  (* no verdict check for the lock baseline: its random-key RSS does not
     keep a session's two directions on one core, so cross-direction
     arrival order — which the sequential oracle fixes — is not preserved
     on real domains.  It is here as the throughput baseline. *)
  let pool = Runtime.Pool.create ~cores () in
  let v_lock, t_lock = timed pool lock_plan trace in
  let s_lock = Runtime.Pool.stats pool in
  Runtime.Pool.shutdown pool;
  check "static lock: every packet got a verdict"
    (Array.length v_lock = Array.length seq);

  (* throughput: adaptive must beat BOTH static rungs on the mixed trace.
     Each run is priced per epoch by the paper's cycle model on the shares
     it actually dispatched; adaptive also pays for every switch. *)
  let profiles = epoch_profiles nf trace in
  let table_flows =
    (Sim.Profile.of_trace nf trace).Sim.Profile.distinct_flows
  in
  let m_ad =
    model_time ~plan_for ~profiles ~table_flows trace s
      ~initial:Maestro.Ladder.Shared_nothing
  in
  let m_sn =
    model_time ~plan_for ~profiles ~table_flows trace s_sn
      ~initial:Maestro.Ladder.Shared_nothing
  in
  let m_lock =
    model_time ~plan_for ~profiles ~table_flows trace s_lock
      ~initial:Maestro.Ladder.Lock_based
  in
  let vs_sn = m_sn /. m_ad and vs_lock = m_lock /. m_ad in
  Printf.printf
    "modeled serve time: adaptive %.0f us, static shared-nothing %.0f us, static lock %.0f us\n\
     \                    (vs sn %.2fx, vs lock %.2fx, gate %.2fx)\n%!"
    (m_ad *. 1e6) (m_sn *. 1e6) (m_lock *. 1e6) vs_sn vs_lock speed_gate;
  Printf.printf
    "wall clock (1 run, informational): adaptive %.1f ms, static sn %.1f ms, static lock %.1f ms\n%!"
    (t_ad *. 1e3) (t_sn *. 1e3) (t_lock *. 1e3);
  check "adaptive beats static shared-nothing on the mixed trace" (vs_sn >= speed_gate);
  check "adaptive beats static lock on the mixed trace" (vs_lock >= speed_gate);

  c_counter "adaptive.pkts" "packets replayed per run" npkts;
  c_counter "adaptive.epoch_pkts" "packets per controller epoch" epoch_pkts;
  c_counter "adaptive.phases" "traffic phases in the schedule" (List.length phases);
  c_counter "adaptive.switches" "discipline switches committed (one run)" switches;
  c_counter "adaptive.flap_suppressed" "switches suppressed by the cooldown (one run)" flaps;
  c_counter "adaptive.sn_epochs" "epochs on the shared-nothing rung (one run)" sn_epochs;
  c_counter "adaptive.scr_epochs" "epochs on the SCR rung (one run)" scr_epochs;
  c_counter "adaptive.migrated_flows" "flow states handed over by shard merges/splits (one run)"
    migrated_flows;
  c_counter "adaptive.fault_restarts" "worker restarts under the mid-switch crash plan"
    fault_restarts;
  c_counter "adaptive.fault_scr_rebuilds" "SCR replicas rebuilt under the crash plan"
    fault_rebuilds;
  (* deterministic model outputs: diffed against the committed baseline *)
  c_counter "adaptive.model_vs_sn_x100" "modeled static-sn/adaptive serve time, percent"
    (int_of_float (Float.round (vs_sn *. 100.0)));
  c_counter "adaptive.model_vs_lock_x100" "modeled static-lock/adaptive serve time, percent"
    (int_of_float (Float.round (vs_lock *. 100.0)));
  c_counter "adaptive.model_adaptive_us" "modeled adaptive serve time, microseconds"
    (int_of_float (Float.round (m_ad *. 1e6)));
  c_counter "adaptive.model_static_sn_us" "modeled static shared-nothing serve time, microseconds"
    (int_of_float (Float.round (m_sn *. 1e6)));
  c_counter "adaptive.model_static_lock_us" "modeled static lock serve time, microseconds"
    (int_of_float (Float.round (m_lock *. 1e6)));
  (* timing-suffixed names: reported, never diffed *)
  c_counter "adaptive.adaptive_wall_ms" "adaptive wall clock, milliseconds"
    (int_of_float (Float.round (t_ad *. 1e3)));
  c_counter "adaptive.static_sn_wall_ms" "static shared-nothing wall clock, milliseconds"
    (int_of_float (Float.round (t_sn *. 1e3)));
  c_counter "adaptive.static_lock_wall_ms" "static lock wall clock, milliseconds"
    (int_of_float (Float.round (t_lock *. 1e3)));

  Telemetry.disable ();
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
  output_string oc (Telemetry.to_json ~name:"adaptive" snap);
  close_out oc;
  Printf.printf "telemetry written to %s\n" out;
  if !failures > 0 then Printf.printf "%d violation(s)\n" !failures
  else print_endline "adaptive smoke: switching beats both static rungs";
  !failures
