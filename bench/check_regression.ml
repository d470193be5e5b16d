(* Perf regression gate: diff two BENCH_<name>.json telemetry documents and
   fail (exit 1) when any compared counter grew beyond the threshold.

     check_regression [options] BASELINE.json CURRENT.json
       --threshold PCT     allowed growth, percent (default 15)
       --counters a,b,c    compare only the named counters
       --min-counters a,b  floor-gated counters: fail when one shrinks
                           below baseline * (1 - threshold) — for
                           counters that measure work which must keep
                           happening (rebalances, migrated flows)
       --include-timings   also compare machine-dependent counters
                           (_ns/_ms timings and speedup ratios)

   A counter absent from CURRENT counted no work (telemetry snapshots
   drop zero counters) and compares as 0.

   By default only deterministic work counters are compared (symbex paths,
   GF(2) equations, Toeplitz hashes, per-core packet counts, ...), so the
   gate is meaningful across machines; timing counters need a baseline
   recorded on the same hardware. *)

let usage () =
  prerr_endline
    "usage: check_regression [--threshold PCT] [--counters a,b,c] [--min-counters a,b]\n\
    \       [--include-timings] BASELINE.json CURRENT.json";
  exit 2

let () =
  let threshold = ref 15.0 in
  let only = ref None in
  let min_counters = ref [] in
  let include_timings = ref false in
  let files = ref [] in
  let rec parse = function
    | [] -> ()
    | "--threshold" :: v :: rest ->
        (match float_of_string_opt v with
        | Some t when t > 0.0 -> threshold := t
        | _ -> usage ());
        parse rest
    | "--counters" :: v :: rest ->
        only := Some (String.split_on_char ',' v |> List.filter (fun s -> s <> ""));
        parse rest
    | "--min-counters" :: v :: rest ->
        min_counters := String.split_on_char ',' v |> List.filter (fun s -> s <> "");
        parse rest
    | "--include-timings" :: rest ->
        include_timings := true;
        parse rest
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
        Printf.eprintf "unknown option %s\n" arg;
        usage ()
    | file :: rest ->
        files := file :: !files;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  match List.rev !files with
  | [ base_file; cur_file ] -> (
      match (Benchdiff.load base_file, Benchdiff.load cur_file) with
      | Error e, _ | _, Error e ->
          Printf.eprintf "check_regression: %s\n" e;
          exit 2
      | Ok base, Ok cur ->
          let report =
            Benchdiff.diff ~threshold:(!threshold /. 100.0) ?only:!only
              ~min_counters:!min_counters ~include_timings:!include_timings base cur
          in
          Format.printf "%s (%s) vs %s (%s)@." base_file base.Benchdiff.doc_name cur_file
            cur.Benchdiff.doc_name;
          Format.printf "%a@." Benchdiff.pp_report report;
          if Benchdiff.ok report then begin
            print_endline "OK";
            exit 0
          end
          else begin
            (* one GitHub Actions annotation per failed gate, so the PR
               checks tab names the counter without opening the log *)
            let annotate what (c : Benchdiff.change) =
              Printf.printf "::error title=bench gate: %s::%s %s: %d -> %d (%+.1f%%, threshold %.0f%%)\n"
                c.Benchdiff.counter_name c.Benchdiff.counter_name what c.Benchdiff.base
                c.Benchdiff.current
                (100.0 *. (c.Benchdiff.ratio -. 1.0))
                !threshold
            in
            List.iter (annotate "regressed") report.Benchdiff.regressions;
            List.iter (annotate "shrank below its floor") report.Benchdiff.shrunk;
            List.iter
              (fun name ->
                Printf.printf
                  "::error title=bench gate: %s::counter %s is gated but missing from the baseline\n"
                  name name)
              report.Benchdiff.missing;
            exit 1
          end)
  | _ -> usage ()
