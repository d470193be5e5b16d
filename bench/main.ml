(* The benchmark harness: `dune exec bench/main.exe [targets...]`.

   With no arguments every figure and table of the paper is regenerated in
   order (see DESIGN.md's per-experiment index and EXPERIMENTS.md for the
   expected shapes). *)

let targets : (string * (unit -> unit)) list =
  [
    ("bench-json", Bench_json.run);
    ("fig2", Figures.fig2);
    ("fig3", Figures.fig3);
    ("fig5", Figures.fig5);
    ("fig6", Figures.fig6);
    ("table1", Figures.table1);
    ("fig8", Figures.fig8);
    ("fig9", Figures.fig9);
    ("fig10", Figures.fig10);
    ("fig11", Figures.fig11);
    ("fig14", Figures.fig14);
    ("latency", Figures.latency);
    ("ext-hhh", Figures.ext_hhh);
    ("ext-attack", Figures.ext_attack);
    ("ext-rsspp", Figures.ext_rsspp);
    ("ext-chain", Figures.ext_chain);
    ("ablation-nic", Figures.ablation_nic);
    ("ablation-rs3", Figures.ablation_rs3);
    ("ablation-rejuv", Figures.ablation_rejuv);
    ("ablation-shard", Figures.ablation_shard);
    ("ablation-spec", Figures.ablation_spec);
    ("micro", Micro.run);
    ("fastpath", Fastpath.run);
  ]

let () =
  let requested = List.tl (Array.to_list Sys.argv) in
  let requested = if requested = [] then List.map fst targets else requested in
  List.iter
    (fun name ->
      match List.assoc_opt name targets with
      | Some f -> f ()
      | None ->
          Format.eprintf "unknown target %s (known: %s)@." name
            (String.concat ", " (List.map fst targets));
          exit 1)
    requested
