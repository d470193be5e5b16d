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

let rungs_t =
  Alcotest.(result (list (testable (Fmt.of_to_string Maestro.Ladder.rung_name) ( = ))) string)

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
  Alcotest.(check (list (pair int (testable (Fmt.of_to_string Maestro.Ladder.rung_name) ( = )))))
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

(* calm → skew → calm: the pool steps down to SCR under the skew and
   climbs back; the differential harness checks the verdicts and the
   per-bucket order across the switches *)
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
  Test_differential.with_pool shape @@ fun pool ->
  let s =
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
    (List.length s.Runtime.Pool.last_rebalance_points)

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
  Alcotest.(check (list (pair (testable (Fmt.of_to_string Maestro.Ladder.rung_name) ( = )) int)))
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
