(* Regression gating over BENCH_<name>.json telemetry documents.  See the
   interface for the contract; the JSON parser below covers exactly the
   subset Telemetry.to_json emits (plus the usual atoms, so hand-written
   baselines parse too). *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Syntax of int * string

  let parse_exn s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Syntax (!pos, msg)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some x when x = c -> advance ()
      | Some x -> fail (Printf.sprintf "expected %c, found %c" c x)
      | None -> fail (Printf.sprintf "expected %c, found end of input" c)
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
        pos := !pos + String.length word;
        v
      end
      else fail (Printf.sprintf "invalid literal (expected %s)" word)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents b
        | '\\' -> (
            if !pos >= n then fail "unterminated escape";
            let e = s.[!pos] in
            advance ();
            match e with
            | '"' | '\\' | '/' ->
                Buffer.add_char b e;
                go ()
            | 'n' ->
                Buffer.add_char b '\n';
                go ()
            | 't' ->
                Buffer.add_char b '\t';
                go ()
            | 'r' ->
                Buffer.add_char b '\r';
                go ()
            | 'b' ->
                Buffer.add_char b '\b';
                go ()
            | 'f' ->
                Buffer.add_char b '\012';
                go ()
            | 'u' ->
                if !pos + 4 > n then fail "truncated \\u escape";
                let hex = String.sub s !pos 4 in
                pos := !pos + 4;
                let code =
                  try int_of_string ("0x" ^ hex) with _ -> fail "invalid \\u escape"
                in
                (* telemetry only escapes control chars; keep it byte-simple *)
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else Buffer.add_string b (Printf.sprintf "\\u%04x" code);
                go ()
            | _ -> fail "unknown escape")
        | c when Char.code c < 0x20 -> fail "raw control character in string"
        | c ->
            Buffer.add_char b c;
            go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      let tok = String.sub s start (!pos - start) in
      match float_of_string_opt tok with
      | Some f -> Num f
      | None -> fail (Printf.sprintf "invalid number %S" tok)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec fields acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  fields ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected , or } in object"
            in
            Obj (fields [])
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elems (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected , or ] in array"
            in
            Arr (elems [])
          end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected character %c" c)
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after document";
    v

  let parse s =
    match parse_exn s with
    | v -> Ok v
    | exception Syntax (at, msg) -> Error (Printf.sprintf "json syntax error at byte %d: %s" at msg)

  let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
  let to_string_opt = function Str s -> Some s | _ -> None
  let to_float_opt = function Num f -> Some f | _ -> None
end

type doc = { schema : string; doc_name : string; counters : (string * int) list }

let schema_prefix = "maestro-telemetry/"

let doc_of_string text =
  match Json.parse text with
  | Error _ as e -> e
  | Ok j -> (
      let schema = Option.bind (Json.member "schema" j) Json.to_string_opt in
      match schema with
      | None -> Error "not a telemetry document: no \"schema\" field"
      | Some schema when not (String.starts_with ~prefix:schema_prefix schema) ->
          Error (Printf.sprintf "unsupported schema %S (want %s*)" schema schema_prefix)
      | Some schema -> (
          let doc_name =
            Option.value ~default:"?" (Option.bind (Json.member "name" j) Json.to_string_opt)
          in
          (* strict counter validation: a malformed entry silently dropped
             here would silently pass the CI gate forever after, so every
             entry must carry a string name and a finite numeric value *)
          let counters =
            match Json.member "counters" j with
            | None -> Error "invalid telemetry document: no \"counters\" array"
            | Some (Json.Arr items) ->
                let rec go acc i = function
                  | [] -> Ok (List.rev acc)
                  | item :: rest -> (
                      let name = Option.bind (Json.member "name" item) Json.to_string_opt in
                      let value = Option.bind (Json.member "value" item) Json.to_float_opt in
                      match (name, value) with
                      | None, _ ->
                          Error (Printf.sprintf "counter #%d: missing or non-string \"name\"" i)
                      | Some name, None ->
                          Error
                            (Printf.sprintf "counter %S: missing or non-numeric \"value\"" name)
                      | Some name, Some v when Float.is_nan v ->
                          Error (Printf.sprintf "counter %S: value is NaN" name)
                      | Some name, Some v when not (Float.is_finite v) ->
                          Error (Printf.sprintf "counter %S: value is infinite" name)
                      | Some name, Some v -> go ((name, int_of_float v) :: acc) (i + 1) rest)
                in
                go [] 0 items
            | Some _ -> Error "invalid telemetry document: \"counters\" is not an array"
          in
          match counters with
          | Error e -> Error e
          | Ok counters -> Ok { schema; doc_name; counters = List.sort compare counters }))

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | text -> (
      match doc_of_string text with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok _ as ok -> ok)

let counter doc name = List.assoc_opt name doc.counters

let contains_sub name sub =
  let sn = String.length sub and nn = String.length name in
  let rec scan i = i + sn <= nn && (String.sub name i sn = sub || scan (i + 1)) in
  scan 0

let is_timing_counter name =
  let has_part part = String.ends_with ~suffix:part name || contains_sub name (part ^ "_") in
  has_part "_ns" || has_part "_ms" || contains_sub name "speedup"

(* counter-name globs: '*' matches any (possibly empty) substring *)
let glob_matches pat name =
  let np = String.length pat and nn = String.length name in
  let rec go i j =
    if i = np then j = nn
    else if pat.[i] = '*' then
      let rec try_split k = k <= nn && (go (i + 1) k || try_split (k + 1)) in
      try_split j
    else j < nn && pat.[i] = name.[j] && go (i + 1) (j + 1)
  in
  go 0 0

let expand_patterns patterns names =
  List.concat_map
    (fun pat ->
      if String.contains pat '*' then
        (* a pattern matching nothing stays in the list verbatim, so it
           surfaces as [missing] instead of silently gating nothing *)
        match List.filter (glob_matches pat) names with [] -> [ pat ] | hits -> hits
      else [ pat ])
    patterns

type change = { counter_name : string; base : int; current : int; ratio : float }

type report = {
  threshold : float;
  regressions : change list;
  improvements : change list;
  shrunk : change list;
  unchanged : int;
  missing : string list;
  added : string list;
}

let diff ?(threshold = 0.15) ?only ?(include_timings = false) ?(min_counters = []) base_doc
    cur_doc =
  let known =
    List.sort_uniq compare (List.map fst base_doc.counters @ List.map fst cur_doc.counters)
  in
  let only = Option.map (fun pats -> expand_patterns pats known) only in
  let min_counters = expand_patterns min_counters known in
  let wanted name =
    (include_timings || not (is_timing_counter name))
    && (List.mem name min_counters
       || match only with None -> true | Some names -> List.mem name names)
  in
  let regressions = ref [] and improvements = ref [] and shrunk = ref [] in
  let unchanged = ref 0 in
  let missing = ref [] and added = ref [] in
  List.iter
    (fun (name, base) ->
      if wanted name then begin
        (* Telemetry.snapshot drops zero-valued counters, so a counter
           absent from the current run counted no work *)
        let current = Option.value ~default:0 (counter cur_doc name) in
        let ratio =
          if base = 0 then if current = 0 then 1.0 else infinity
          else float_of_int current /. float_of_int base
        in
        let ch = { counter_name = name; base; current; ratio } in
        if ratio > 1.0 +. threshold then regressions := ch :: !regressions
        else if ratio < 1.0 -. threshold then
          if List.mem name min_counters then shrunk := ch :: !shrunk
          else improvements := ch :: !improvements
        else incr unchanged
      end)
    base_doc.counters;
  List.iter
    (fun (name, _) ->
      if wanted name && counter base_doc name = None then added := name :: !added)
    cur_doc.counters;
  (* [only] / [min_counters] names absent from the baseline are
     misconfigurations, not noise *)
  List.iter
    (fun name -> if counter base_doc name = None then missing := name :: !missing)
    (Option.value ~default:[] only @ min_counters);
  {
    threshold;
    regressions = List.rev !regressions;
    improvements = List.rev !improvements;
    shrunk = List.rev !shrunk;
    unchanged = !unchanged;
    missing = List.sort_uniq compare !missing;
    added = List.rev !added;
  }

let ok r = r.regressions = [] && r.shrunk = [] && r.missing = []

let pp_change fmt c =
  Format.fprintf fmt "%-44s %12d -> %12d  (%+.1f%%)" c.counter_name c.base c.current
    (100.0 *. (c.ratio -. 1.0))

let pp_report fmt r =
  Format.fprintf fmt "@[<v>";
  if r.regressions <> [] then begin
    Format.fprintf fmt "REGRESSIONS (> +%.0f%%):@," (100.0 *. r.threshold);
    List.iter (fun c -> Format.fprintf fmt "  %a@," pp_change c) r.regressions
  end;
  if r.shrunk <> [] then begin
    Format.fprintf fmt "SHRUNK below floor (> -%.0f%%):@," (100.0 *. r.threshold);
    List.iter (fun c -> Format.fprintf fmt "  %a@," pp_change c) r.shrunk
  end;
  if r.improvements <> [] then begin
    Format.fprintf fmt "improvements (> -%.0f%%):@," (100.0 *. r.threshold);
    List.iter (fun c -> Format.fprintf fmt "  %a@," pp_change c) r.improvements
  end;
  List.iter (fun n -> Format.fprintf fmt "  missing from baseline: %s@," n) r.missing;
  List.iter (fun n -> Format.fprintf fmt "  new counter (no baseline): %s@," n) r.added;
  Format.fprintf fmt "%d compared within threshold, %d regressed, %d shrunk, %d improved@]"
    r.unchanged
    (List.length r.regressions)
    (List.length r.shrunk)
    (List.length r.improvements)
