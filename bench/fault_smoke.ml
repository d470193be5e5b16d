(* Fault-injection smoke run — the CI [fault-smoke] job.

   Drives the full recovery story end to end on real domains: a seeded
   worker crash with supervisor restart, a permanent core failure with
   indirection-table remap (no flow may land on the dead core, none may
   be lost), and full-ring backpressure under every policy.  Exits
   non-zero on any violation and writes the run's telemetry snapshot as
   JSON (first argv, default [FAULT_SMOKE.json]) so CI can archive the
   recovery counters. *)

let failures = ref 0

let check name ok =
  Printf.printf "%-58s %s\n%!" name (if ok then "ok" else "FAIL");
  if not ok then incr failures

let install spec =
  match Faults.parse spec with
  | Ok plan -> Faults.install plan
  | Error e ->
      prerr_endline e;
      exit 2

let () =
  let out = if Array.length Sys.argv > 1 then Sys.argv.(1) else "FAULT_SMOKE.json" in
  Telemetry.reset ();
  Telemetry.enable ();
  let nf = Nfs.Registry.find_exn "fw" in
  let request = { Maestro.Pipeline.default_request with cores = 4 } in
  let plan = (Maestro.Pipeline.parallelize_exn ~request nf).Maestro.Pipeline.plan in
  let st = Random.State.make [| 0x5eed |] in
  let flows = Traffic.Gen.flows st 200 in
  let trace =
    Traffic.Gen.uniform ~spec:{ Traffic.Gen.default_spec with pkts = 4000 } st ~flows
  in
  let seq = Runtime.Parallel.run_sequential nf trace in

  (* 1. crash + supervisor restart: lossless, order-preserving *)
  let pool = Runtime.Pool.create ~cores:4 () in
  install "crash@1:2";
  let v = Runtime.Pool.run pool plan trace in
  Faults.clear ();
  let s = Runtime.Pool.stats pool in
  check "crash: verdicts identical to sequential" (seq = v);
  check "crash: worker restarted" (s.Runtime.Pool.restarts >= 1);
  check "crash: no permanent failure" (s.Runtime.Pool.failed_cores = []);
  Runtime.Pool.shutdown pool;

  (* 2. permanent failure: restart budget exhausted, producer drains inline *)
  let supervisor = { Runtime.Supervisor.default_config with max_restarts = 0 } in
  let pool = Runtime.Pool.create ~cores:4 ~supervisor () in
  install "crash@1:0x1000000";
  let v = Runtime.Pool.run pool plan trace in
  Faults.clear ();
  check "give-up: verdicts identical to sequential" (seq = v);
  check "give-up: core 1 written off" (Runtime.Pool.failed_cores pool = [ 1 ]);

  (* 3. failover remap: rerun on the degraded pool — the dead core's RSS
     buckets migrated, every flow lands on exactly one live core *)
  let v = Runtime.Pool.run pool plan trace in
  let s = Runtime.Pool.stats pool in
  check "remap: dead core serves zero packets" (s.Runtime.Pool.last_per_core_pkts.(1) = 0);
  check "remap: zero lost flows"
    (Array.fold_left ( + ) 0 s.Runtime.Pool.last_per_core_pkts = Array.length trace);
  check "remap: verdicts identical to sequential" (seq = v);
  Runtime.Pool.shutdown pool;

  (* 4. backpressure: a frozen consumer with a tiny ring must terminate
     under every policy; block stays lossless *)
  List.iter
    (fun (name, bp) ->
      install "stall@1:0:2000000";
      let pool =
        Runtime.Pool.create ~cores:4 ~ring_capacity:2 ~batch_size:8 ~backpressure:bp ()
      in
      let v = Runtime.Pool.run pool plan trace in
      Faults.clear ();
      let s = Runtime.Pool.stats pool in
      check (Printf.sprintf "backpressure %s: run terminated" name) true;
      check
        (Printf.sprintf "backpressure %s: ring-full stall observed" name)
        (s.Runtime.Pool.ring_full_stalls >= 1);
      (match bp with
      | Runtime.Pool.Block ->
          check "backpressure block: lossless" (seq = v);
          check "backpressure block: nothing dropped" (s.Runtime.Pool.dropped_batches = 0)
      | Runtime.Pool.Drop _ | Runtime.Pool.Shed ->
          check
            (Printf.sprintf "backpressure %s: drops accounted" name)
            (s.Runtime.Pool.dropped_batches > 0
            && s.Runtime.Pool.dropped_pkts >= s.Runtime.Pool.dropped_batches));
      Runtime.Pool.shutdown pool)
    [
      ("block", Runtime.Pool.Block);
      ("drop", Runtime.Pool.Drop { max_spins = 200 });
      ("shed", Runtime.Pool.Shed);
    ];

  Telemetry.disable ();
  let oc = open_out out in
  output_string oc (Telemetry.to_json ~name:"fault-smoke" (Telemetry.snapshot ()));
  close_out oc;
  Printf.printf "telemetry written to %s\n" out;
  if !failures > 0 then begin
    Printf.printf "%d violation(s)\n" !failures;
    exit 1
  end;
  print_endline "fault smoke: all recovery paths green"
