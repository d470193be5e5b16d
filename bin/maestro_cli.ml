(* The Maestro command line: analyze, parallelize and run the bundled NFs.

     maestro list
     maestro analyze fw
     maestro parallelize fw --cores 16 --emit-c
     maestro run fw --cores 8 --pkts 20000
*)

open Cmdliner

let chain_scenarios = Nfs.Scenarios.chains ()

let nf_names =
  Nfs.Registry.names
  @ List.map (fun nf -> nf.Dsl.Ast.name) (Nfs.Scenarios.all ())
  @ List.map (fun c -> c.Dsl.Chain.name) chain_scenarios

let find_nf name =
  match Nfs.Registry.find name with
  | Some nf -> Ok nf
  | None -> (
      match List.find_opt (fun nf -> nf.Dsl.Ast.name = name) (Nfs.Scenarios.all ()) with
      | Some nf -> Ok nf
      | None -> (
          match List.find_opt (fun c -> c.Dsl.Chain.name = name) chain_scenarios with
          | Some c -> Ok (Dsl.Chain.nf c)
          | None ->
              Error
                (Printf.sprintf "unknown NF %s (known: %s)" name (String.concat ", " nf_names))))

(* --chain NF,NF,...: compose registry NFs into one fused service chain and
   operate on the composed AST exactly as on a single NF. *)
type target = Single of Dsl.Ast.t | Chain of Dsl.Chain.t

let find_target name chain =
  match (name, chain) with
  | Some _, Some _ -> Error "give either a positional NF or --chain, not both"
  | None, None -> Error "no NF given: name a positional NF or pass --chain NF,NF,..."
  | Some n, None -> Result.map (fun nf -> Single nf) (find_nf n)
  | None, Some spec ->
      let names =
        String.split_on_char ',' spec |> List.map String.trim
        |> List.filter (fun s -> s <> "")
      in
      Result.map (fun c -> Chain c) (Nfs.Registry.compose_chain names)

let target_nf = function Single nf -> nf | Chain c -> Dsl.Chain.nf c

(* Each stage analyzed on its own, so the report shows what every NF demands
   before the chain's union is solved. *)
let print_chain_stages (c : Dsl.Chain.t) =
  Format.printf "chain %s: %d stages fused@." c.Dsl.Chain.name (List.length c.Dsl.Chain.stages);
  List.iter
    (fun (st : Dsl.Chain.stage) ->
      let decision =
        Maestro.Sharding.decide (Maestro.Report.build (Symbex.Exec.run st.Dsl.Chain.nf))
      in
      let summary =
        match decision with
        | Maestro.Sharding.No_state -> "stateless, 0 constraints"
        | Maestro.Sharding.Read_only -> "read-only state, 0 constraints"
        | Maestro.Sharding.Shard cs ->
            Printf.sprintf "shardable alone, %d constraints" (List.length cs)
        | Maestro.Sharding.Blocked rs ->
            Printf.sprintf "blocked alone, %d reasons" (List.length rs)
      in
      Format.printf "stage %d (%s, prefix %s): %s@." st.Dsl.Chain.index st.Dsl.Chain.name
        st.Dsl.Chain.prefix summary)
    c.Dsl.Chain.stages

let nf_arg =
  let doc = "Network function to operate on (omit when passing $(b,--chain))." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"NF" ~doc)

let chain_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chain" ] ~docv:"NF,NF,..."
      ~doc:
        "Compose a service chain of the named NFs (in order) and operate on the fused \
         single-pass NF: one flattened AST, jointly sharded, one RSS key for the union of \
         every stage's constraints.")

let cores_arg =
  Arg.(value & opt int 16 & info [ "cores" ] ~docv:"N" ~doc:"Worker cores to generate for.")

let seed_arg = Arg.(value & opt int 0xbeef & info [ "seed" ] ~doc:"RNG seed for key search.")

let strategy_arg =
  let strategies =
    [
      ("auto", `Auto);
      ("shared-nothing", `Auto);
      ("locks", `Force_locks);
      ("lock", `Force_locks);
      ("tm", `Force_tm);
      ("scr", `Force_scr);
    ]
  in
  Arg.(
    value
    & opt (enum strategies) `Auto
    & info [ "strategy"; "discipline" ]
        ~doc:
          "Parallelization discipline: $(b,auto) (shared-nothing when possible, degrading \
           down the ladder), $(b,scr) (state-compute replication: full replica per core, \
           digest replay), $(b,locks) or $(b,tm).")

let solver_arg =
  Arg.(
    value
    & opt (enum [ ("gauss", `Gauss); ("sat", `Sat) ]) `Gauss
    & info [ "solver" ] ~doc:"RS3 backend: GF(2) elimination or SAT MaxSAT.")

let nic_arg =
  Arg.(
    value
    & opt (enum [ ("e810", Nic.Model.E810); ("x710", Nic.Model.X710) ]) Nic.Model.E810
    & info [ "nic" ] ~doc:"NIC capability model.")

let emit_c_arg =
  Arg.(value & flag & info [ "emit-c" ] ~doc:"Print the generated DPDK-style C source.")

let sat_budget_arg =
  Arg.(
    value
    & opt (some (pair ~sep:':' int int)) None
    & info [ "sat-budget" ] ~docv:"CONFLICTS:PROPS"
        ~doc:
          "Conflict/propagation budget for the SAT key search; on exhaustion the plan \
           degrades down the ladder instead of failing (negative component = unlimited).")

let rebalance_conv =
  let parse s =
    match Runtime.Balancer.parse s with Ok m -> Ok m | Error e -> Error (`Msg e)
  in
  let print fmt m = Format.pp_print_string fmt (Runtime.Balancer.to_string m) in
  Arg.conv ~docv:"SPEC" (parse, print)

let rebalance_arg =
  Arg.(
    value
    & opt rebalance_conv Runtime.Balancer.Off
    & info [ "rebalance" ] ~docv:"SPEC"
        ~doc:
          "Online RSS++ rebalancing on the domain pool: $(b,off) (default), $(b,on), or a \
           comma-separated $(b,epoch=N),$(b,threshold=F) — check max/mean core imbalance \
           every N packets and move hot indirection buckets (with a quiesced state \
           migration on shared-nothing plans) when it exceeds F.")

let adaptive_conv =
  let parse s =
    match Runtime.Adaptive.parse s with Ok m -> Ok m | Error e -> Error (`Msg e)
  in
  let print fmt m = Format.pp_print_string fmt (Runtime.Adaptive.to_string m) in
  Arg.conv ~docv:"SPEC" (parse, print)

let adaptive_arg =
  Arg.(
    value
    & opt adaptive_conv Runtime.Adaptive.Off
    & info [ "adaptive" ] ~docv:"SPEC"
        ~doc:
          "Online discipline switching on the domain pool: $(b,off) (default), $(b,on), or a \
           comma-separated $(b,epochs=N),$(b,up=F),$(b,down=F),$(b,cooldown=N) — every N \
           packets the hysteresis controller may switch the live pool between admissible \
           ladder rungs (shared-nothing, SCR, lock, serial) at the quiesce barrier: \
           imbalance above F$(i,up) steps down, a cooldown+1-epoch calm streak below \
           F$(i,down) steps back up.  Mutually exclusive with $(b,--rebalance).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Collect telemetry and print a per-phase summary (spans, counters, histograms).")

let trace_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-json" ] ~docv:"FILE"
        ~doc:
          "Collect telemetry and write the chronological span log to $(docv) in Chrome \
           trace-event format (view in about:tracing or ui.perfetto.dev).")

(* Run [f] inside a telemetry collection window when either flag asks for
   one, then emit whatever was requested. *)
let with_telemetry stats trace_json f =
  let wanted = stats || trace_json <> None in
  if wanted then begin
    Telemetry.reset ();
    Telemetry.enable ()
  end;
  let r = f () in
  if wanted then begin
    Telemetry.disable ();
    if stats then Format.printf "%a@." Telemetry.pp_summary (Telemetry.snapshot ());
    Option.iter
      (fun file ->
        match open_out file with
        | oc ->
            output_string oc (Telemetry.trace_events_json ());
            close_out oc;
            Format.printf "wrote span trace to %s@." file
        | exception Sys_error msg ->
            Format.eprintf "cannot write span trace: %s@." msg;
            exit 1)
      trace_json
  end;
  r

(* --- list ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    List.iter
      (fun name ->
        let tag =
          match Nfs.Registry.expected_strategy name with
          | `Shared_nothing -> "shared-nothing"
          | `Locks -> "lock-based"
          | `Read_only_lb -> "load-balance"
          | exception Not_found -> "scenario"
        in
        Format.printf "%-22s %s@." name tag)
      nf_names
  in
  Cmd.v (Cmd.info "list" ~doc:"List the bundled network functions.") Term.(const run $ const ())

(* --- analyze ---------------------------------------------------------------- *)

let analyze_cmd =
  let run name chain verbose stats trace_json =
    match find_target name chain with
    | Error e ->
        Format.eprintf "%s@." e;
        exit 1
    | Ok target ->
        let nf = target_nf target in
        with_telemetry stats trace_json @@ fun () ->
        (match target with Chain c -> print_chain_stages c | Single _ -> ());
        let model = Symbex.Exec.run nf in
        if verbose then Format.printf "%a@." Symbex.Exec.pp model;
        let report = Maestro.Report.build model in
        Format.printf "--- stateful report ---@.%a@." Maestro.Report.pp report;
        Format.printf "--- decision ---@.%a@." Maestro.Sharding.pp_decision
          (Maestro.Sharding.decide report)
  in
  let verbose = Arg.(value & flag & info [ "tree" ] ~doc:"Also print the execution trees.") in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Symbolically execute an NF and show the sharding analysis.")
    Term.(const run $ nf_arg $ chain_arg $ verbose $ stats_arg $ trace_json_arg)

(* --- parallelize ------------------------------------------------------------ *)

let parallelize_cmd =
  let run name chain cores seed strategy solver nic sat_budget emit_c stats trace_json =
    match find_target name chain with
    | Error e ->
        Format.eprintf "%s@." e;
        exit 1
    | Ok target -> (
        let nf = target_nf target in
        with_telemetry stats trace_json @@ fun () ->
        (match target with Chain c -> print_chain_stages c | Single _ -> ());
        let request =
          { Maestro.Pipeline.cores; nic; strategy; solver; seed; sat_budget }
        in
        match Maestro.Pipeline.parallelize ~request nf with
        | Error e ->
            Format.eprintf "error: %s@." e;
            exit 1
        | Ok outcome ->
            Format.printf "%a@." Maestro.Plan.pp outcome.Maestro.Pipeline.plan;
            Format.printf "--- degradation ladder ---@.%a@." Maestro.Ladder.pp
              outcome.Maestro.Pipeline.ladder;
            (match target with
            | Chain _ ->
                Format.printf "unified ladder rung: %s@."
                  (Maestro.Ladder.rung_name
                     outcome.Maestro.Pipeline.ladder.Maestro.Ladder.chosen)
            | Single _ -> ());
            Format.printf "generation took %.2f ms@."
              (1000.0 *. Maestro.Pipeline.total_s outcome.Maestro.Pipeline.timing);
            if emit_c then
              Format.printf "@.%s@." (Maestro.Codegen.emit_c outcome.Maestro.Pipeline.plan))
  in
  Cmd.v
    (Cmd.info "parallelize" ~doc:"Generate a parallel implementation of an NF or service chain.")
    Term.(
      const run $ nf_arg $ chain_arg $ cores_arg $ seed_arg $ strategy_arg $ solver_arg
      $ nic_arg $ sat_budget_arg $ emit_c_arg $ stats_arg $ trace_json_arg)

(* --- run --------------------------------------------------------------------- *)

let run_cmd =
  let run name chain cores seed strategy pkts flows batch_size backpressure fault_plan rebalance
      adaptive stats trace_json =
    match find_target name chain with
    | Error e ->
        Format.eprintf "%s@." e;
        exit 1
    | Ok target ->
        if rebalance <> Runtime.Balancer.Off && adaptive <> Runtime.Adaptive.Off then begin
          Format.eprintf "--adaptive and --rebalance are mutually exclusive@.";
          exit 1
        end;
        let nf = target_nf target in
        (match fault_plan with
        | None -> Faults.clear ()
        | Some spec -> (
            match Faults.parse spec with
            | Ok plan -> Faults.install plan
            | Error e ->
                Format.eprintf "%s@." e;
                exit 1));
        Fun.protect ~finally:Faults.clear @@ fun () ->
        with_telemetry stats trace_json @@ fun () ->
        let request = { Maestro.Pipeline.default_request with cores; seed; strategy } in
        let outcome = Maestro.Pipeline.parallelize_exn ~request nf in
        let plan = outcome.Maestro.Pipeline.plan in
        let rng = Random.State.make [| seed |] in
        let fs = Traffic.Gen.flows rng flows in
        let spec = { Traffic.Gen.default_spec with pkts; reply_fraction = 0.4 } in
        let trace = Traffic.Gen.uniform ~spec rng ~flows:fs in
        (* tunnel-terminating NFs key on inner headers: give them the same
           flows, wrapped in the matching underlay *)
        let trace =
          match name with
          | Some "vxlan_fw" -> Traffic.Gen.encapsulate Packet.Pkt.Vxlan trace
          | Some "gre_peer" -> Traffic.Gen.encapsulate Packet.Pkt.Gre trace
          | _ -> trace
        in
        let seq = Runtime.Parallel.run_sequential nf trace in
        let par = Runtime.Parallel.run plan trace in
        let agree = ref 0 and fwd = ref 0 and dropped = ref 0 in
        Array.iteri
          (fun i v ->
            (match v with
            | Dsl.Interp.Fwd _ -> incr fwd
            | Dsl.Interp.Dropped -> incr dropped);
            if v = seq.(i) then incr agree)
          par.Runtime.Parallel.verdicts;
        let s = par.Runtime.Parallel.stats in
        (match target with
        | Chain c ->
            Format.printf "chain: %s (%d stages fused)@." c.Dsl.Chain.name
              (List.length c.Dsl.Chain.stages)
        | Single _ -> ());
        Format.printf "strategy: %s on %d cores@."
          (Maestro.Plan.strategy_name plan.Maestro.Plan.strategy)
          cores;
        Format.printf "ladder rung: %s@."
          (Maestro.Ladder.rung_name outcome.Maestro.Pipeline.ladder.Maestro.Ladder.chosen);
        Format.printf "packets: %d forwarded, %d dropped@." !fwd !dropped;
        Format.printf "sequential agreement: %d/%d@." !agree (Array.length trace);
        Format.printf "per-core packets: %s (imbalance %.2f)@."
          (String.concat ", "
             (Array.to_list (Array.map string_of_int s.Runtime.Parallel.per_core_pkts)))
          (Runtime.Parallel.imbalance s);
        Format.printf "state ops: %d reads, %d writes; %d read-pkts, %d write-pkts@."
          s.Runtime.Parallel.reads s.Runtime.Parallel.writes s.Runtime.Parallel.read_pkts
          s.Runtime.Parallel.write_pkts;
        (* the same plan on real OCaml domains, fed through the persistent pool *)
        Runtime.Pool.with_global ~batch_size ~backpressure ~cores:plan.Maestro.Plan.cores
        @@ fun pool ->
        let dv = Runtime.Pool.run ~rebalance ~adaptive pool plan trace in
        let ps = Runtime.Pool.stats pool in
        let dagree = ref 0 in
        Array.iteri (fun i v -> if v = seq.(i) then incr dagree) dv;
        Format.printf "pool: %d domains, batch %d, backpressure %s: %d batches, %d ring-full stalls@."
          (Runtime.Pool.cores pool) (Runtime.Pool.batch_size pool)
          (Runtime.Pool.backpressure_name (Runtime.Pool.backpressure pool))
          ps.Runtime.Pool.batches ps.Runtime.Pool.ring_full_stalls;
        if ps.Runtime.Pool.dropped_batches > 0 then
          Format.printf "pool drops: %d batches (%d packets); per-core %s@."
            ps.Runtime.Pool.dropped_batches ps.Runtime.Pool.dropped_pkts
            (String.concat ", "
               (Array.to_list (Array.map string_of_int ps.Runtime.Pool.per_core_drops)));
        if ps.Runtime.Pool.restarts > 0 || ps.Runtime.Pool.failed_cores <> [] then begin
          Format.printf "pool recovery: %d restarts, %d inline batches; failed cores: %s@."
            ps.Runtime.Pool.restarts ps.Runtime.Pool.inline_batches
            (match ps.Runtime.Pool.failed_cores with
            | [] -> "none"
            | cs -> String.concat ", " (List.map string_of_int cs));
          List.iter
            (fun ev -> Format.printf "  supervisor: %a@." Runtime.Supervisor.pp_event ev)
            (Runtime.Supervisor.events (Runtime.Pool.supervisor pool))
        end;
        (match rebalance with
        | Runtime.Balancer.Off -> ()
        | Runtime.Balancer.On _ ->
            Format.printf
              "pool rebalancing (%s): %d rebalances (%d forced), %d buckets, %d flow states \
               moved, %d evicted@."
              (Runtime.Balancer.to_string rebalance)
              ps.Runtime.Pool.rebalances ps.Runtime.Pool.forced_rebalances
              ps.Runtime.Pool.migrated_buckets ps.Runtime.Pool.migrated_flows
              ps.Runtime.Pool.migration_drops;
            Format.printf "pool core shares: %s@."
              (String.concat ", "
                 (Array.to_list
                    (Array.map
                       (fun s -> Printf.sprintf "%.3f" s)
                       ps.Runtime.Pool.last_core_share))));
        (match adaptive with
        | Runtime.Adaptive.Off -> ()
        | Runtime.Adaptive.On _ ->
            Format.printf "pool adaptive (%s): %d switches, %d flap-suppressed@."
              (Runtime.Adaptive.to_string adaptive)
              ps.Runtime.Pool.switches ps.Runtime.Pool.flap_suppressed;
            Format.printf "  switch epochs: %s@."
              (match ps.Runtime.Pool.switch_epochs with
              | [] -> "none"
              | es ->
                  String.concat ", "
                    (List.map
                       (fun (e, r) -> Printf.sprintf "%d→%s" e (Maestro.Ladder.rung_name r))
                       es));
            Format.printf "  rung residency: %s@."
              (String.concat ", "
                 (List.map
                    (fun (r, n) -> Printf.sprintf "%s=%d" (Maestro.Ladder.rung_name r) n)
                    ps.Runtime.Pool.rung_residency)));
        if plan.Maestro.Plan.strategy = Maestro.Plan.Scr then
          Format.printf
            "pool scr: %d digest replays, %d replica rebuilds, %d digest bytes broadcast@."
            ps.Runtime.Pool.scr_replays ps.Runtime.Pool.scr_rebuilds
            ps.Runtime.Pool.scr_digest_bytes;
        Format.printf "pool sequential agreement: %d/%d@." !dagree (Array.length trace)
  in
  let pkts = Arg.(value & opt int 20_000 & info [ "pkts" ] ~doc:"Packets to replay.") in
  let flows = Arg.(value & opt int 1_000 & info [ "flows" ] ~doc:"Flows in the workload.") in
  let batch_size =
    Arg.(
      value
      & opt int Runtime.Pool.default_batch_size
      & info [ "batch-size" ] ~docv:"N"
          ~doc:"Packets per batch pushed to the worker-domain rings (DPDK burst style).")
  in
  let backpressure =
    let policies =
      [
        ("block", Runtime.Pool.Block);
        ("drop", Runtime.Pool.Drop { max_spins = Runtime.Pool.default_drop_spins });
        ("shed", Runtime.Pool.Shed);
      ]
    in
    Arg.(
      value
      & opt (enum policies) Runtime.Pool.Block
      & info [ "backpressure" ] ~docv:"POLICY"
          ~doc:
            "What the producer does on a full worker ring: $(b,block) (lossless spin with \
             liveness checks), $(b,drop) (bounded spin, then drop the batch) or $(b,shed) \
             (drop immediately).")
  in
  let fault_plan =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault-plan" ] ~docv:"SPEC"
          ~doc:
            "Install a deterministic fault plan before running, e.g. \
             $(b,crash\\@1:3;stall\\@2:0:100000).  Events: crash\\@CORE:BATCH[xTIMES], \
             slow\\@CORE:FROM:SPINS, stall\\@CORE:BATCH:SPINS, satbudget\\@CONFLICTS:PROPS.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Execute the generated parallel NF over a workload and compare it against the \
          sequential version.")
    Term.(
      const run $ nf_arg $ chain_arg $ cores_arg $ seed_arg $ strategy_arg $ pkts $ flows
      $ batch_size $ backpressure $ fault_plan $ rebalance_arg $ adaptive_arg $ stats_arg
      $ trace_json_arg)

(* --- rebalance (offline study) ---------------------------------------------- *)

let rebalance_cmd =
  let run name chain cores seed pkts flows epoch threshold exponent stats trace_json =
    match find_target name chain with
    | Error e ->
        Format.eprintf "%s@." e;
        exit 1
    | Ok target ->
        let nf = target_nf target in
        with_telemetry stats trace_json @@ fun () ->
        let request = { Maestro.Pipeline.default_request with cores; seed } in
        let plan = (Maestro.Pipeline.parallelize_exn ~request nf).Maestro.Pipeline.plan in
        let rng = Random.State.make [| seed |] in
        let z = Traffic.Zipf.make ~exponent ~nflows:flows () in
        let fs = Traffic.Gen.flows rng flows in
        let spec = { Traffic.Gen.default_spec with Traffic.Gen.pkts } in
        let trace = Traffic.Zipf.trace ~spec rng z ~flows:fs in
        (match Runtime.Rebalance.study ~threshold plan trace ~epoch_pkts:epoch with
        | Error e ->
            Format.eprintf "error: %s@." e;
            exit 1
        | Ok r ->
            Format.printf "strategy: %s on %d cores; Zipf(%.2f), %d flows, epoch %d@."
              (Maestro.Plan.strategy_name plan.Maestro.Plan.strategy)
              cores exponent flows epoch;
            Format.printf "epoch | static imbalance | dynamic imbalance@.";
            Array.iteri
              (fun e s ->
                Format.printf "%5d | %16.2f | %17.2f@." e s
                  r.Runtime.Rebalance.dynamic_imbalance.(e))
              r.Runtime.Rebalance.static_imbalance;
            Format.printf "rebalances: %d (threshold %.2f); %d buckets, %d flow states moved@."
              r.Runtime.Rebalance.rebalances threshold r.Runtime.Rebalance.migrated_buckets
              r.Runtime.Rebalance.migrated_flows)
  in
  let pkts = Arg.(value & opt int 24_000 & info [ "pkts" ] ~doc:"Packets to study.") in
  let flows = Arg.(value & opt int 1_000 & info [ "flows" ] ~doc:"Flows in the workload.") in
  let epoch =
    Arg.(value & opt int 4096 & info [ "epoch" ] ~docv:"N" ~doc:"Packets per rebalance epoch.")
  in
  let threshold =
    Arg.(
      value & opt float 0.0
      & info [ "threshold" ] ~docv:"F"
          ~doc:
            "Max/mean imbalance above which an epoch boundary rebalances (0 = always; pass \
             the live balancer's threshold to reproduce its decisions).")
  in
  let exponent =
    Arg.(value & opt float 1.1 & info [ "zipf" ] ~docv:"S" ~doc:"Zipf exponent of the workload.")
  in
  Cmd.v
    (Cmd.info "rebalance"
       ~doc:
         "Offline study of dynamic RSS++ rebalancing: replay a Zipfian trace through static \
          and dynamically rebalanced indirection tables and report per-epoch imbalance and \
          migration costs.")
    Term.(
      const run $ nf_arg $ chain_arg $ cores_arg $ seed_arg $ pkts $ flows $ epoch $ threshold
      $ exponent $ stats_arg $ trace_json_arg)

(* --- cluster (front-tier study) --------------------------------------------- *)

let cluster_cmd =
  let run name chain machines cores seed pkts flows fault_plan stats trace_json =
    match find_target name chain with
    | Error e ->
        Format.eprintf "%s@." e;
        exit 1
    | Ok target ->
        let nf = target_nf target in
        with_telemetry stats trace_json @@ fun () ->
        (match fault_plan with
        | None -> Faults.clear ()
        | Some spec -> (
            match Faults.parse spec with
            | Ok plan -> Faults.install plan
            | Error e ->
                Format.eprintf "error: %s@." e;
                exit 1));
        let config =
          {
            Cluster.Tier.default_config with
            Cluster.Tier.machines;
            seed;
            request = { Maestro.Pipeline.default_request with cores; seed };
          }
        in
        (match Cluster.Tier.build ~config nf with
        | Error e ->
            Format.eprintf "error: %s@." e;
            exit 1
        | Ok tier ->
            let plan = Cluster.Tier.plan tier in
            let rng = Random.State.make [| seed |] in
            let fs = Traffic.Gen.flows rng flows in
            let spec = { Traffic.Gen.default_spec with Traffic.Gen.pkts } in
            let trace, _warmup = Traffic.Gen.steady_uniform ~spec rng ~flows:fs in
            let seq = Runtime.Parallel.run_sequential nf trace in
            let verdicts, s = Cluster.Tier.run tier trace in
            let agree = ref 0 in
            Array.iteri
              (fun i v ->
                let same =
                  match (v, seq.(i)) with
                  | Dsl.Interp.Dropped, Dsl.Interp.Dropped -> true
                  | Dsl.Interp.Fwd (pa, oa), Dsl.Interp.Fwd (pb, ob) ->
                      pa = pb && Packet.Pkt.equal oa ob
                  | _ -> false
                in
                if same then incr agree)
              verdicts;
            Format.printf "strategy: %s on %d cores x %d machines@."
              (Maestro.Plan.strategy_name plan.Maestro.Plan.strategy)
              cores machines;
            Format.printf "front tier: %a@." Cluster.Maglev.pp (Cluster.Tier.table tier);
            Format.printf
              "front key: %d sampling rounds, %d free bits; digest rebuild %s@."
              (Cluster.Tier.key_attempts tier)
              (Cluster.Tier.key_free_bits tier)
              (if Cluster.Tier.scr_admissible tier then "available" else "unavailable");
            Format.printf "machine | packets@.";
            List.iter
              (fun (id, n) -> Format.printf "%7d | %d@." id n)
              s.Cluster.Tier.machine_pkts;
            List.iter
              (fun (e : Cluster.Tier.event_log) ->
                Format.printf
                  "%s@%d machine %d: %.1f%% slots reassigned, %d flows moved, %d rebuilt, \
                   %d dropped, %d lost@."
                  (match e.Cluster.Tier.action with
                  | Faults.Join -> "join"
                  | Faults.Leave -> "leave"
                  | Faults.Fail -> "fail")
                  e.Cluster.Tier.at_epoch e.Cluster.Tier.machine
                  (100.0 *. e.Cluster.Tier.disruption)
                  e.Cluster.Tier.moved e.Cluster.Tier.rebuilt e.Cluster.Tier.dropped
                  e.Cluster.Tier.lost)
              s.Cluster.Tier.events;
            Format.printf
              "verdicts: %d/%d agree with sequential; %d dead hits, %d affinity violations@."
              !agree (Array.length trace) s.Cluster.Tier.dead_hits
              s.Cluster.Tier.affinity_violations;
            let counts =
              s.Cluster.Tier.machine_pkts |> List.map snd |> Array.of_list
            in
            let profile = Sim.Profile.of_trace nf trace in
            let ce =
              Sim.Throughput.evaluate_cluster
                ~machine_shares:(Sim.Throughput.shares_of_counts counts)
                plan profile trace
            in
            Format.printf
              "model: %.2f mpps per machine, %.2f mpps (%.2f gbps) across the fleet — x%.2f \
               scale-out, machine imbalance %.2f@."
              ce.Sim.Throughput.per_machine.Sim.Throughput.mpps ce.Sim.Throughput.cluster_mpps
              ce.Sim.Throughput.cluster_gbps ce.Sim.Throughput.scaleout
              ce.Sim.Throughput.machine_imbalance;
            Faults.clear ())
  in
  let machines_arg =
    Arg.(
      value & opt int 4
      & info [ "machines" ] ~docv:"N" ~doc:"Machines behind the front tier.")
  in
  let pkts = Arg.(value & opt int 24_000 & info [ "pkts" ] ~doc:"Packets to replay.") in
  let flows = Arg.(value & opt int 1_000 & info [ "flows" ] ~doc:"Flows in the workload.") in
  let fault_plan =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault-plan" ] ~docv:"SPEC"
          ~doc:
            "Machine churn schedule, e.g. $(b,join\\@4:4;leave\\@8:1;fail\\@6:2) — \
             join\\@EPOCH:MACHINE, leave\\@EPOCH:MACHINE (graceful, state migrated), \
             fail\\@EPOCH:MACHINE (abrupt, state rebuilt from SCR digests).")
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Scale an NF past one machine: maglev front tier over N machines, each running the \
          derived per-machine plan, with state-sharing flow groups pinned to one machine by \
          a second-level RS3 key.  Replays a trace (optionally under machine churn), checks \
          verdicts against the sequential NF and prices fleet throughput.")
    Term.(
      const run $ nf_arg $ chain_arg $ machines_arg $ cores_arg $ seed_arg $ pkts $ flows
      $ fault_plan $ stats_arg $ trace_json_arg)

let () =
  let doc = "Automatic parallelization of software network functions (NSDI'24 reproduction)" in
  let info = Cmd.info "maestro" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; analyze_cmd; parallelize_cmd; run_cmd; rebalance_cmd; cluster_cmd ]))
