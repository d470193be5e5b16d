(* The regression gate must read back exactly what Telemetry.to_json wrote,
   and its verdicts drive CI — test both the parser and the diff policy. *)

let ok = function Ok v -> v | Error e -> Alcotest.fail e

(* --- JSON parser ------------------------------------------------------------ *)

let test_json_atoms () =
  let p s = ok (Benchdiff.Json.parse s) in
  Alcotest.(check bool) "null" true (p "null" = Benchdiff.Json.Null);
  Alcotest.(check bool) "true" true (p " true " = Benchdiff.Json.Bool true);
  Alcotest.(check bool) "false" true (p "false" = Benchdiff.Json.Bool false);
  Alcotest.(check bool) "int" true (p "42" = Benchdiff.Json.Num 42.0);
  Alcotest.(check bool) "negative float" true (p "-2.5" = Benchdiff.Json.Num (-2.5));
  Alcotest.(check bool) "exponent" true (p "1e3" = Benchdiff.Json.Num 1000.0);
  Alcotest.(check bool) "string" true (p {|"hi"|} = Benchdiff.Json.Str "hi");
  Alcotest.(check bool) "escapes" true
    (p {|"a\"b\\c\nd\te"|} = Benchdiff.Json.Str "a\"b\\c\nd\te");
  Alcotest.(check bool) "unicode escape" true (p {|"A"|} = Benchdiff.Json.Str "A")

let test_json_structures () =
  let p s = ok (Benchdiff.Json.parse s) in
  Alcotest.(check bool) "empty array" true (p "[]" = Benchdiff.Json.Arr []);
  Alcotest.(check bool) "empty object" true (p "{}" = Benchdiff.Json.Obj []);
  let v = p {| {"a": [1, 2, {"b": "c"}], "d": null} |} in
  (match Benchdiff.Json.member "a" v with
  | Some (Benchdiff.Json.Arr [ _; _; inner ]) ->
      Alcotest.(check (option string)) "nested member" (Some "c")
        (Option.bind (Benchdiff.Json.member "b" inner) Benchdiff.Json.to_string_opt)
  | _ -> Alcotest.fail "bad array shape");
  Alcotest.(check bool) "null member" true (Benchdiff.Json.member "d" v = Some Benchdiff.Json.Null)

let test_json_errors () =
  let bad s =
    match Benchdiff.Json.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted invalid json %S" s)
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\" 1}";
  bad "\"unterminated";
  bad "tru";
  bad "1 2";
  bad "{\"a\": 1,}"

(* --- telemetry document roundtrip ------------------------------------------- *)

let with_telemetry f =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
    f

let test_roundtrip_telemetry_doc () =
  let text =
    with_telemetry (fun () ->
        let c = Telemetry.Counter.make "bd.test_counter" ~doc:"x" in
        let c2 = Telemetry.Counter.make "bd.other \"quoted\"" ~doc:"y" in
        Telemetry.Counter.add c 42;
        Telemetry.Counter.add c2 7;
        Telemetry.Span.with_span "bd/span" (fun () -> ());
        Telemetry.to_json ~name:"roundtrip" (Telemetry.snapshot ()))
  in
  let doc = ok (Benchdiff.doc_of_string text) in
  Alcotest.(check string) "schema" Telemetry.schema_version doc.Benchdiff.schema;
  Alcotest.(check string) "name" "roundtrip" doc.Benchdiff.doc_name;
  Alcotest.(check (option int)) "counter" (Some 42) (Benchdiff.counter doc "bd.test_counter");
  Alcotest.(check (option int)) "escaped counter name" (Some 7)
    (Benchdiff.counter doc "bd.other \"quoted\"")

let test_rejects_foreign_schema () =
  (match Benchdiff.doc_of_string {|{"name": "x", "counters": []}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted document without schema");
  match Benchdiff.doc_of_string {|{"schema": "other/1", "counters": []}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted foreign schema"

(* --- diff policy ------------------------------------------------------------ *)

let doc counters =
  { Benchdiff.schema = "maestro-telemetry/1"; doc_name = "t"; counters = List.sort compare counters }

let names = List.map (fun c -> c.Benchdiff.counter_name)

let test_diff_thresholds () =
  let base = doc [ ("a", 100); ("b", 100); ("c", 100); ("d", 0); ("e", 0) ] in
  let cur = doc [ ("a", 116); ("b", 114); ("c", 80); ("d", 5); ("e", 0) ] in
  let r = Benchdiff.diff ~threshold:0.15 base cur in
  Alcotest.(check (list string)) "regressions" [ "a"; "d" ] (names r.Benchdiff.regressions);
  Alcotest.(check (list string)) "improvements" [ "c" ] (names r.Benchdiff.improvements);
  Alcotest.(check int) "unchanged" 2 r.Benchdiff.unchanged;
  Alcotest.(check bool) "not ok" false (Benchdiff.ok r);
  Alcotest.(check bool) "zero-base regression is infinite" true
    ((List.hd (List.filter (fun c -> c.Benchdiff.counter_name = "d") r.Benchdiff.regressions))
       .Benchdiff.ratio
    = infinity);
  let r_ok =
    Benchdiff.diff ~threshold:0.15 base
      (doc [ ("a", 110); ("b", 100); ("c", 100); ("d", 0); ("e", 0) ])
  in
  Alcotest.(check (list string)) "within threshold: no missing" [] r_ok.Benchdiff.missing;
  Alcotest.(check bool) "ok" true (Benchdiff.ok r_ok)

let test_diff_missing_and_only () =
  let base = doc [ ("a", 10); ("b", 20); ("t_ns", 500) ] in
  let cur = doc [ ("a", 10); ("new", 3) ] in
  let r = Benchdiff.diff base cur in
  Alcotest.(check (list string)) "nothing missing" [] r.Benchdiff.missing;
  Alcotest.(check (list string)) "added" [ "new" ] r.Benchdiff.added;
  let r_floor = Benchdiff.diff ~min_counters:[ "nope" ] base cur in
  Alcotest.(check (list string)) "unknown floor counter missing" [ "nope" ]
    r_floor.Benchdiff.missing;
  Alcotest.(check bool) "missing fails gate" false (Benchdiff.ok r_floor);
  let r_only = Benchdiff.diff ~only:[ "a" ] base cur in
  Alcotest.(check bool) "only-a passes" true (Benchdiff.ok r_only);
  Alcotest.(check int) "only-a compared" 1 r_only.Benchdiff.unchanged;
  let r_unknown = Benchdiff.diff ~only:[ "nope" ] base cur in
  Alcotest.(check (list string)) "unknown only-counter missing" [ "nope" ]
    r_unknown.Benchdiff.missing

(* Telemetry.snapshot drops zero counters: a counter whose work fell to
   zero is absent from the run, and reads as 0, not as renamed *)
let test_diff_absent_reads_zero () =
  let base = doc [ ("a", 10); ("gone", 20) ] in
  let cur = doc [ ("a", 10) ] in
  let r = Benchdiff.diff base cur in
  Alcotest.(check (list string)) "growth gate: an improvement" [ "gone" ]
    (names r.Benchdiff.improvements);
  Alcotest.(check int) "read as 0" 0 (List.hd r.Benchdiff.improvements).Benchdiff.current;
  Alcotest.(check bool) "growth gate passes" true (Benchdiff.ok r);
  let r_floor = Benchdiff.diff ~min_counters:[ "gone" ] base cur in
  Alcotest.(check (list string)) "floor gate: shrunk" [ "gone" ]
    (names r_floor.Benchdiff.shrunk);
  Alcotest.(check (list string)) "floor gate: not missing" [] r_floor.Benchdiff.missing;
  Alcotest.(check bool) "floor gate fails" false (Benchdiff.ok r_floor)

let test_diff_timing_policy () =
  let base = doc [ ("work", 10); ("lat_ns", 100); ("phase_ms", 50); ("t_ns_x100", 70) ] in
  let cur = doc [ ("work", 10); ("lat_ns", 500); ("phase_ms", 500); ("t_ns_x100", 700) ] in
  Alcotest.(check bool) "timings skipped by default" true (Benchdiff.ok (Benchdiff.diff base cur));
  let r = Benchdiff.diff ~include_timings:true base cur in
  Alcotest.(check (list string)) "timings compared on demand"
    [ "lat_ns"; "phase_ms"; "t_ns_x100" ]
    (names r.Benchdiff.regressions)

let test_is_timing_counter () =
  List.iter
    (fun (name, want) ->
      Alcotest.(check bool) name want (Benchdiff.is_timing_counter name))
    [
      ("fastpath.toeplitz_ref_ns_x100", true);
      ("fastpath.pool_speedup_x100", true);
      ("span.total_ms", true);
      ("x_ns", true);
      ("nic.toeplitz_hashes", false);
      ("symbex.paths", false);
      ("pool.batches", false);
      ("nsomething", false);
    ]

let suite =
  [
    Alcotest.test_case "json atoms" `Quick test_json_atoms;
    Alcotest.test_case "json structures" `Quick test_json_structures;
    Alcotest.test_case "json rejects malformed input" `Quick test_json_errors;
    Alcotest.test_case "telemetry document roundtrip" `Quick test_roundtrip_telemetry_doc;
    Alcotest.test_case "foreign schema rejected" `Quick test_rejects_foreign_schema;
    Alcotest.test_case "diff thresholds" `Quick test_diff_thresholds;
    Alcotest.test_case "diff missing/added/only" `Quick test_diff_missing_and_only;
    Alcotest.test_case "diff reads a counter absent from the run as 0" `Quick
      test_diff_absent_reads_zero;
    Alcotest.test_case "diff timing policy" `Quick test_diff_timing_policy;
    Alcotest.test_case "timing-counter classification" `Quick test_is_timing_counter;
  ]
