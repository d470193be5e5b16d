(* Adaptive discipline switching: the hysteresis controller must never
   flap, admissibility must stay pinned to what compile time derived, a
   live pool steps down under skew and back on calm traffic, never
   switches on calm traffic alone, and a crash in a switch epoch defers
   the switch.  That every adaptive run, crashing or not, agrees with the
   sequential interpreter is the differential harness's check; the
   stats-pinned table pins the switch schedules. *)

open Runtime.Adaptive

let rng seed = Random.State.make [| seed |]

let plan_of ?(cores = 4) ?(strategy = `Auto) name =
  let request = { Maestro.Pipeline.default_request with cores; strategy } in
  (Maestro.Pipeline.parallelize_exn ~request (Nfs.Registry.find_exn name)).Maestro.Pipeline.plan

(* deterministic phase traces over ONE flow population: calm spreads the
   packets uniformly, skew concentrates them Zipf(2.5) on the heaviest
   flows — the imbalance signal flips while the state stays shared *)
let spec pkts = { Traffic.Gen.default_spec with pkts; reply_fraction = 0.0; fresh_fraction = 0.0 }

let calm_trace st ~flows ~pkts = Traffic.Gen.uniform ~spec:(spec pkts) st ~flows

let skew_trace st ~flows ~pkts =
  let z = Traffic.Zipf.make ~exponent:2.5 ~nflows:(List.length flows) () in
  Traffic.Zipf.trace ~spec:(spec pkts) st z ~flows

(* --- spec parsing ---------------------------------------------------------- *)

let spec_t =
  Alcotest.testable (fun fmt m -> Format.pp_print_string fmt (to_string m)) ( = )

let test_parse () =
  Alcotest.(check (result spec_t string)) "off" (Ok None) (parse "off");
  Alcotest.(check (result spec_t string)) "on" (Ok (Some default_config)) (parse "on");
  Alcotest.(check (result spec_t string)) "full spec"
    (Ok (Some { epoch_pkts = 512; up = 2.0; down = 1.2; cooldown = 3 }))
    (parse "epochs=512,up=2,down=1.2,cooldown=3");
  Alcotest.(check (result spec_t string)) "partial spec keeps defaults"
    (Ok (Some { default_config with up = 1.6 }))
    (parse "up=1.6");
  List.iter
    (fun bad ->
      match parse bad with
      | Error _ -> ()
      | Ok m -> Alcotest.failf "parse %S should fail, got %s" bad (to_string m))
    [ ""; "bogus"; "epochs=0"; "epochs=abc"; "up=0.5"; "cooldown=-1"; "up=1.2,down=1.3"; "foo=1" ];
  (* to_string round-trips through parse *)
  List.iter
    (fun m ->
      Alcotest.(check (result spec_t string))
        (Printf.sprintf "round-trip %s" (to_string m))
        (Ok m)
        (parse (to_string m)))
    [ None; Some default_config; Some { epoch_pkts = 64; up = 3.0; down = 1.05; cooldown = 0 } ]

(* --- admissibility --------------------------------------------------------- *)

let rung_t = Alcotest.testable (Fmt.of_to_string Maestro.Ladder.rung_name) ( = )
let rungs_t = Alcotest.(result (list rung_t) string)

let test_ladder () =
  let open Maestro.Ladder in
  let l = ladder in
  Alcotest.check rungs_t "full descent"
    (Ok [ Shared_nothing; Scr; Lock_based; Serial ])
    (l ~strategy:Maestro.Plan.Shared_nothing ~scr_ok:true ~exact_migration:true);
  Alcotest.check rungs_t "no digest: SCR absent, step-down skips to lock"
    (Ok [ Shared_nothing; Lock_based; Serial ])
    (l ~strategy:Maestro.Plan.Shared_nothing ~scr_ok:false ~exact_migration:true);
  Alcotest.check rungs_t "lossy migration: shared-nothing absent even as the plan's rung"
    (Ok [ Scr; Lock_based; Serial ])
    (l ~strategy:Maestro.Plan.Shared_nothing ~scr_ok:true ~exact_migration:false);
  Alcotest.check rungs_t "SCR plan never climbs to shared-nothing"
    (Ok [ Scr; Lock_based; Serial ])
    (l ~strategy:Maestro.Plan.Scr ~scr_ok:true ~exact_migration:true);
  Alcotest.check rungs_t "lock plan"
    (Ok [ Lock_based; Serial ])
    (l ~strategy:Maestro.Plan.Lock_based ~scr_ok:true ~exact_migration:true);
  (match l ~strategy:Maestro.Plan.Load_balance ~scr_ok:true ~exact_migration:true with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "load-balance plans must be rejected")

(* --- controller hysteresis ------------------------------------------------- *)

let decision_t =
  let pp fmt = function
    | Stay -> Format.pp_print_string fmt "stay"
    | Switch r -> Format.fprintf fmt "switch %s" (Maestro.Ladder.rung_name r)
    | Suppressed r -> Format.fprintf fmt "suppressed %s" (Maestro.Ladder.rung_name r)
  in
  Alcotest.testable pp ( = )

let cfg = { epoch_pkts = 1024; up = 1.5; down = 1.15; cooldown = 2 }
let full_ladder = Maestro.Ladder.[ Shared_nothing; Scr; Lock_based; Serial ]
let calm_obs = { imbalance = 1.0; drops = 0; restarts = 0; digest_bytes = 0 }
let skew_obs = { calm_obs with imbalance = 3.0 }
let droppy_obs = { calm_obs with drops = 1 }

let check_obs ctl name expected o =
  Alcotest.check decision_t name expected (observe ctl o)

let test_skew_steps_down_then_streak_up () =
  let ctl = create cfg ~ladder:full_ladder in
  Alcotest.(check string) "starts on the fastest admissible rung" "shared-nothing"
    (Maestro.Ladder.rung_name (rung ctl));
  check_obs ctl "calm holds the top rung" Stay calm_obs;
  check_obs ctl "calm again" Stay calm_obs;
  check_obs ctl "skew steps down one rung" (Switch Maestro.Ladder.Scr) skew_obs;
  commit ctl Maestro.Ladder.Scr;
  (* imbalance only pressures shared-nothing: SCR is skew-immune, so
     sustained skew settles here instead of ratcheting down to serial *)
  check_obs ctl "skew on SCR: cooldown tick, stay" Stay skew_obs;
  check_obs ctl "skew on SCR: stay" Stay skew_obs;
  check_obs ctl "skew on SCR past cooldown: still stay" Stay skew_obs;
  (* ...but it also blocks the climb back up until the trace calms *)
  check_obs ctl "calm streak 1 of 3" Stay calm_obs;
  check_obs ctl "calm streak 2 of 3" Stay calm_obs;
  check_obs ctl "cooldown+1 calm epochs step back up" (Switch Maestro.Ladder.Shared_nothing)
    calm_obs;
  commit ctl Maestro.Ladder.Shared_nothing;
  Alcotest.(check int) "two switches" 2 (switches ctl);
  Alcotest.(check int) "nothing suppressed" 0 (flap_suppressed ctl);
  Alcotest.(check (list (pair int rung_t)))
    "switch epochs in order"
    [ (3, Maestro.Ladder.Scr); (9, Maestro.Ladder.Shared_nothing) ]
    (switch_epochs ctl);
  (* residency counts the rung each epoch ran on: 1-3 shared-nothing,
     4-9 SCR (the epoch-9 observation still ran on SCR) *)
  List.iter
    (fun (r, expect) ->
      Alcotest.(check (option int))
        (Maestro.Ladder.rung_name r) (Some expect)
        (List.assoc_opt r (residency ctl)))
    Maestro.Ladder.[ (Shared_nothing, 3); (Scr, 6); (Lock_based, 0); (Serial, 0) ]

let test_cooldown_suppresses_flap () =
  let ctl = create cfg ~ladder:full_ladder in
  (* drops pressure every rung; oscillate pressure/calm and count what the
     cooldown window swallows *)
  check_obs ctl "drops step down" (Switch Maestro.Ladder.Scr) droppy_obs;
  commit ctl Maestro.Ladder.Scr;
  check_obs ctl "calm inside cooldown" Stay calm_obs;
  check_obs ctl "pressure inside cooldown is suppressed"
    (Suppressed Maestro.Ladder.Lock_based) droppy_obs;
  Alcotest.(check int) "suppression counted" 1 (flap_suppressed ctl);
  check_obs ctl "cooldown over: pressure switches" (Switch Maestro.Ladder.Lock_based) droppy_obs;
  commit ctl Maestro.Ladder.Lock_based;
  Alcotest.(check int) "two switches despite four pressured epochs" 2 (switches ctl);
  (* a long oscillation never commits more than one switch per cooldown
     window *)
  for i = 0 to 19 do
    match observe ctl (if i mod 2 = 0 then droppy_obs else calm_obs) with
    | Switch r -> commit ctl r
    | Stay | Suppressed _ -> ()
  done;
  Alcotest.(check bool) "oscillation is rate-limited" true
    (switches ctl <= 2 + (20 / (cfg.cooldown + 1)));
  Alcotest.(check bool) "and the window did suppress" true (flap_suppressed ctl >= 2)

let test_deferred_switch_retries () =
  let ctl = create cfg ~ladder:full_ladder in
  check_obs ctl "pressure asks for SCR" (Switch Maestro.Ladder.Scr) droppy_obs;
  (* the pool declined (crash recovery ran this barrier) *)
  defer ctl Maestro.Ladder.Scr;
  check_obs ctl "deferred switch retries before fresh analysis"
    (Switch Maestro.Ladder.Scr) calm_obs;
  commit ctl Maestro.Ladder.Scr;
  Alcotest.(check string) "committed after retry" "state-compute-replication"
    (Maestro.Ladder.rung_name (rung ctl));
  Alcotest.(check int) "one switch" 1 (switches ctl)

let test_commit_rejects_inadmissible () =
  let ctl = create cfg ~ladder:Maestro.Ladder.[ Shared_nothing; Lock_based; Serial ] in
  Alcotest.check_raises "SCR is not on this ladder"
    (Invalid_argument "Adaptive.commit: rung not admissible") (fun () ->
      commit ctl Maestro.Ladder.Scr)

(* --- live pool ---------------------------------------------------------------- *)

let pool_policy = Runtime.Pool.Adaptive { epoch_pkts = 1024; up = 2.0; down = 1.3; cooldown = 1 }

(* The calm|skew trace at scale: 24 epochs of 4,096 packets over one
   population of 1,024 flows, calm 4 | skew 8 | calm 4 | skew 8, the skew
   Zipf(3.5) so that one RSS bucket owns ~90% of a skewed epoch.  Skew
   phases are twice the calm ones, as a switch pays for itself only over
   enough epochs of the regime it bought.  The schedule is a fault-plan
   [phase@E:PROFILE] string read back through [Faults.phases].  Sessions
   are established (15% replies, no fresh flows): load moves, the flow
   population does not. *)
let phase_plan = "phase@0:calm;phase@4:skew;phase@12:calm;phase@16:skew"
let phase_epochs = 24
let phase_epoch_pkts = 4_096

let phase_trace () =
  let phases =
    match Faults.parse phase_plan with
    | Error e -> Alcotest.fail e
    | Ok p ->
        Faults.install p;
        Fun.protect ~finally:Faults.clear Faults.phases
  in
  Alcotest.(check int) "phase schedule parsed" 4 (List.length phases);
  let st = rng 0xada9 in
  let flows = Traffic.Gen.flows st 1_024 in
  let zipf = Traffic.Zipf.make ~exponent:3.5 ~nflows:1_024 () in
  let rec go = function
    | [] -> []
    | (epoch, profile) :: rest ->
        let until = match rest with (e, _) :: _ -> e | [] -> phase_epochs in
        let spec =
          {
            Traffic.Gen.default_spec with
            pkts = (until - epoch) * phase_epoch_pkts;
            reply_fraction = 0.15;
            fresh_fraction = 0.0;
          }
        in
        let seg =
          match profile with
          | "calm" -> Traffic.Gen.uniform ~spec st ~flows
          | "skew" -> Traffic.Zipf.trace ~spec st zipf ~flows
          | p -> Alcotest.failf "unknown phase profile %s" p
        in
        seg :: go rest
  in
  Array.concat (go phases)

(* Modelled time to serve [trace]: each epoch priced by the throughput
   model under the rung the run ran it on (starting on [initial]), with
   the per-core shares the run dispatched, plus the quiesce stall and
   state conversion of every committed switch.  [profiles.(e)] profiles
   epoch [e] after the epochs before it; [flows] is the table population
   a switch converts. *)
let model_seconds ~plan_for ~profiles ~flows trace ~initial (s : Runtime.Pool.stats) =
  let counts =
    Runtime.Balancer.epoch_counts ~cores:4 ~epoch_pkts:phase_epoch_pkts
      s.Runtime.Pool.last_assignment
  in
  let serve = ref 0.0 in
  Array.iteri
    (fun e c ->
      let rung = rung_of_epoch ~initial s.Runtime.Pool.switch_epochs (e + 1) in
      let ev =
        Sim.Throughput.evaluate ~measured_shares:(Sim.Throughput.shares_of_counts c)
          (plan_for rung) profiles.(e)
          (Array.sub trace (e * phase_epoch_pkts) phase_epoch_pkts)
      in
      serve := !serve +. (float_of_int phase_epoch_pkts /. (ev.Sim.Throughput.mpps *. 1e6)))
    counts;
  List.fold_left
    (fun acc (_, target) ->
      let replicas = if target = Maestro.Ladder.Scr then 4 else 1 in
      acc
      +. Sim.Cost.discipline_switch_cycles ~flows ~replicas ()
         /. Sim.Machine.xeon_6226r.Sim.Machine.freq_hz)
    !serve s.Runtime.Pool.switch_epochs

(* calm → skew → calm: the pool steps down to SCR under the skew and
   climbs back; the differential harness checks the verdicts and the
   per-bucket order across the switches.  Two inputs: 14 epochs of 1,024
   packets, and the 24-epoch calm|skew trace, run adaptive, adaptive under
   crashes in its first switch epoch, and static on the shared-nothing and
   lock rungs, where the model prices adaptive above both static rungs. *)
let test_pool_switches_with_traffic () =
  let plan = plan_of ~cores:4 "fw" in
  let flows = Traffic.Gen.flows (rng 7) 1024 in
  let trace =
    Array.concat
      [
        calm_trace (rng 11) ~flows ~pkts:4096;
        skew_trace (rng 12) ~flows ~pkts:4096;
        calm_trace (rng 13) ~flows ~pkts:6144;
      ]
  in
  let shape = Test_differential.shape 4 in
  let s =
    Test_differential.with_pool shape @@ fun pool ->
    Test_differential.check_run ~policy:Test_differential.Adaptive shape pool "fw" plan trace
  in
  Alcotest.(check bool) "switched down and back" true (s.Runtime.Pool.switches >= 2);
  (match s.Runtime.Pool.switch_epochs with
  | (_, Maestro.Ladder.Scr) :: _ -> ()
  | other ->
      Alcotest.failf "first switch should adopt SCR, got [%s]"
        (String.concat "; "
           (List.map
              (fun (e, r) -> Printf.sprintf "%d:%s" e (Maestro.Ladder.rung_name r))
              other)));
  let res r = Option.value ~default:0 (List.assoc_opt r s.Runtime.Pool.rung_residency) in
  Alcotest.(check bool) "skew phase ran on SCR" true (res Maestro.Ladder.Scr >= 3);
  Alcotest.(check bool) "calm phases ran sharded" true (res Maestro.Ladder.Shared_nothing >= 6);
  Alcotest.(check bool) "switch epochs strictly ascending" true
    (let rec asc = function
       | (a, _) :: ((b, _) :: _ as rest) -> a < b && asc rest
       | _ -> true
     in
     asc s.Runtime.Pool.switch_epochs);
  Alcotest.(check int) "one rebalance point per switch" s.Runtime.Pool.switches
    (List.length s.Runtime.Pool.last_rebalance_points);
  let nf = Nfs.Registry.find_exn "fw" in
  Alcotest.(check bool) "auto plan is shared-nothing" true
    (plan.Maestro.Plan.strategy = Maestro.Plan.Shared_nothing);
  let scr_plan = plan_of ~cores:4 ~strategy:`Force_scr "fw" in
  let lock_plan = plan_of ~cores:4 ~strategy:`Force_locks "fw" in
  let trace = phase_trace () in
  Alcotest.(check int) "trace covers every epoch" (phase_epochs * phase_epoch_pkts)
    (Array.length trace);
  let shape = Test_differential.shape ~epoch:phase_epoch_pkts 4 in
  let run ?(policy = Test_differential.Static) ?(fault = Test_differential.No_fault) plan =
    Test_differential.with_pool ~fault shape @@ fun pool ->
    Test_differential.check_run ~policy ~fault shape pool "fw" plan trace
  in
  let switches = Alcotest.(list (pair int rung_t)) in
  let counts (s : Runtime.Pool.stats) =
    Runtime.Pool.
      [ s.batches; s.scr_replays; s.scr_digest_bytes; s.migrated_flows; s.migration_drops;
        s.dropped_batches; s.flap_suppressed; s.restarts; s.scr_rebuilds; s.inline_batches ]
  in
  let counted =
    "batches, replays, digest bytes, migrated, evicted, dropped, suppressed, restarts, rebuilds, \
     inline"
  in
  let s = run ~policy:Test_differential.Adaptive plan in
  Alcotest.check switches "adaptive: down to SCR, back, down again"
    Maestro.Ladder.[ (5, Scr); (14, Shared_nothing); (17, Scr) ]
    s.Runtime.Pool.switch_epochs;
  Alcotest.(check (list (pair rung_t int))) "adaptive: calm sharded, skew on SCR"
    Maestro.Ladder.[ (Shared_nothing, 8); (Scr, 16); (Lock_based, 0); (Serial, 0) ]
    s.Runtime.Pool.rung_residency;
  Alcotest.(check (list int)) ("adaptive: " ^ counted)
    [ 9_232; 6_144; 1_310_720; 2_812; 0; 0; 0; 0; 0; 0 ] (counts s);
  let ordering =
    Runtime.Balancer.ordering_violations
      ~exempt:(fun i ->
        rung_of_epoch ~initial:Maestro.Ladder.Shared_nothing s.Runtime.Pool.switch_epochs
          (1 + (i / phase_epoch_pkts))
        = Maestro.Ladder.Scr)
      ~key:(fun i -> Packet.Flow.normalize (Packet.Flow.of_pkt trace.(i)))
      ~points:s.Runtime.Pool.last_rebalance_points s.Runtime.Pool.last_assignment
  in
  Alcotest.(check int) "adaptive: zero flow-ordering violations off SCR" 0 ordering;
  (* the calm opening feeds each core ~32 batches an epoch, so batch ~130
     falls in the first skew epoch, whose barrier decides the first
     switch: the hot core's crash and the switch meet at one barrier, and
     the switch waits one epoch *)
  (match Faults.parse "crash@0:130;crash@1:131;crash@2:132;crash@3:133" with
  | Error e -> Alcotest.fail e
  | Ok p -> Faults.install p);
  let telemetry = [ "faults.injected_crashes"; "pool.domain_spawns"; "pool.adaptive.deferred" ] in
  Telemetry.reset ();
  Telemetry.enable ();
  let sf =
    Fun.protect ~finally:(fun () -> Telemetry.disable (); Faults.clear ()) @@ fun () ->
    run ~policy:Test_differential.Adaptive ~fault:Test_differential.Crash plan
  in
  Alcotest.check switches "crashes: first switch deferred one epoch"
    Maestro.Ladder.[ (6, Scr); (14, Shared_nothing); (17, Scr) ]
    sf.Runtime.Pool.switch_epochs;
  Alcotest.(check (list int)) ("crashes: " ^ counted)
    [ 8_851; 5_760; 1_228_800; 2_812; 0; 0; 0; 4; 0; 4 ] (counts sf);
  Alcotest.(check (list int)) ("crashes: " ^ String.concat ", " telemetry) [ 4; 8; 2 ]
    (List.map (fun c -> Telemetry.Counter.value (Telemetry.Counter.make c)) telemetry);
  let s_sn = run plan and s_lock = run lock_plan in
  Alcotest.(check (pair int int)) "static batches: shared-nothing, lock" (3_073, 3_074)
    (s_sn.Runtime.Pool.batches, s_lock.Runtime.Pool.batches);
  let plan_for = function
    | Maestro.Ladder.Shared_nothing -> plan
    | Maestro.Ladder.Scr -> scr_plan
    | Maestro.Ladder.Lock_based | Maestro.Ladder.Serial -> lock_plan
  in
  let profiles =
    Array.init phase_epochs (fun e ->
        Sim.Profile.of_trace ~skip:(e * phase_epoch_pkts) nf
          (Array.sub trace 0 ((e + 1) * phase_epoch_pkts)))
  in
  let flows = (Sim.Profile.of_trace nf trace).Sim.Profile.distinct_flows in
  let model = model_seconds ~plan_for ~profiles ~flows trace in
  let m_ad = model ~initial:Maestro.Ladder.Shared_nothing s in
  let m_sn = model ~initial:Maestro.Ladder.Shared_nothing s_sn in
  let m_lock = model ~initial:Maestro.Ladder.Lock_based s_lock in
  Alcotest.(check (list (float 0.1))) "model: adaptive, static sn, static lock serve time (us)"
    [ 5_865.4; 6_919.5; 6_960.1 ]
    (List.map (fun m -> m *. 1e6) [ m_ad; m_sn; m_lock ]);
  Alcotest.(check bool) "model: adaptive >= static shared-nothing" true (m_sn >= m_ad);
  Alcotest.(check bool) "model: adaptive >= static lock" true (m_lock >= m_ad)

let test_pool_calm_never_switches () =
  let plan = plan_of ~cores:4 "fw" in
  let flows = Traffic.Gen.flows (rng 8) 1024 in
  let trace = calm_trace (rng 21) ~flows ~pkts:4096 in
  let seq = Runtime.Parallel.run_sequential (Nfs.Registry.find_exn "fw") trace in
  let pool = Runtime.Pool.create ~cores:4 () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
  let v = Runtime.Pool.run ~policy:pool_policy pool plan trace in
  let s = Runtime.Pool.stats pool in
  Alcotest.(check int) "no switches" 0 s.Runtime.Pool.switches;
  Alcotest.(check (list (pair rung_t int)))
    "whole run on the plan's rung"
    Maestro.Ladder.[ (Shared_nothing, 4); (Scr, 0); (Lock_based, 0); (Serial, 0) ]
    s.Runtime.Pool.rung_residency;
  Alcotest.(check bool) "verdicts == sequential" true (seq = v)

(* The crash is recovered FIRST (old rung's replay path), the switch is
   deferred to the next barrier.  Skew from packet zero makes
   the very first barrier decide a switch, and every core's first batch
   crashes, so the switch epoch is guaranteed to also be a crash epoch. *)
let test_pool_crash_defers_switch () =
  let plan = plan_of ~cores:4 "fw" in
  let flows = Traffic.Gen.flows (rng 9) 1024 in
  let trace = skew_trace (rng 31) ~flows ~pkts:8192 in
  let seq = Runtime.Parallel.run_sequential (Nfs.Registry.find_exn "fw") trace in
  (match Faults.parse "crash@0:0;crash@1:0;crash@2:0;crash@3:0" with
  | Error e -> Alcotest.fail e
  | Ok p -> Faults.install p);
  Fun.protect ~finally:Faults.clear @@ fun () ->
  let pool = Runtime.Pool.create ~cores:4 () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
  let v = Runtime.Pool.run ~policy:pool_policy pool plan trace in
  let s = Runtime.Pool.stats pool in
  Alcotest.(check bool) "workers crashed and restarted" true (s.Runtime.Pool.restarts >= 1);
  Alcotest.(check bool) "the switch still happened" true (s.Runtime.Pool.switches >= 1);
  (match s.Runtime.Pool.switch_epochs with
  | (e, _) :: _ ->
      Alcotest.(check bool) "switch deferred past the crash epoch" true (e >= 2)
  | [] -> Alcotest.fail "no switch committed");
  Alcotest.(check bool) "verdicts == sequential despite crash + deferred switch" true
    (seq = v)

let suite =
  [
    Alcotest.test_case "parse/to_string --adaptive" `Quick test_parse;
    Alcotest.test_case "admissible ladder pinned to compile time" `Quick test_ladder;
    Alcotest.test_case "skew steps down, calm streak steps up" `Quick
      test_skew_steps_down_then_streak_up;
    Alcotest.test_case "cooldown suppresses flapping" `Quick test_cooldown_suppresses_flap;
    Alcotest.test_case "deferred switch retries at the next barrier" `Quick
      test_deferred_switch_retries;
    Alcotest.test_case "commit rejects inadmissible rungs" `Quick test_commit_rejects_inadmissible;
    Alcotest.test_case "pool: calm→skew→calm switches and stays sequential" `Slow
      test_pool_switches_with_traffic;
    Alcotest.test_case "pool: calm traffic never switches" `Slow test_pool_calm_never_switches;
    Alcotest.test_case "pool: crash in the switch epoch defers the switch" `Slow
      test_pool_crash_defers_switch;
  ]
