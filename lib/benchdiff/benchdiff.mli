(** Regression gating over [BENCH_<name>.json] telemetry documents.

    The benchmark harness ([bench/main.exe bench-json fastpath]) writes
    versioned {!Telemetry.to_json} snapshots; this library reads two of
    them back — a committed baseline and a fresh run — and reports which
    counters regressed beyond a threshold.  Counters are oriented
    "higher is worse": both the deterministic work counters (symbex
    paths, GF(2) equations, Toeplitz hashes, …) and the [_ns]-suffixed
    timing counters of the fastpath benchmark regress by {e growing}.

    Timing counters are machine-dependent, so {!diff} skips them by
    default ({!is_timing_counter}) — CI gates on the deterministic work
    counters and a human compares timings locally.

    No JSON library ships with the toolchain, so a minimal parser for
    the telemetry subset (objects, arrays, strings with escapes,
    numbers, booleans, null) lives here. *)

(** A minimal JSON tree, sufficient for telemetry documents. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val parse : string -> (t, string) result
  (** [Error msg] carries the byte offset of the first syntax error. *)

  val member : string -> t -> t option
  (** Field lookup on an [Obj]; [None] on anything else. *)

  val to_string_opt : t -> string option
end

(** One parsed benchmark document: its identity and its counters. *)
type doc = {
  schema : string;
  doc_name : string;
  counters : (string * int) list;  (** sorted by name *)
}

val doc_of_string : string -> (doc, string) result
(** Rejects documents whose ["schema"] is not
    {!Telemetry.schema_version}-compatible (prefix ["maestro-telemetry/"]),
    that carry no ["counters"] array, or whose counter entries are
    malformed — missing/non-string name, missing/non-numeric value, NaN
    or infinite value.  Each rejection names the offending counter: a
    malformed entry silently dropped would silently pass every CI gate
    that references it. *)

val load : string -> (doc, string) result
(** Read and parse a file. *)

val counter : doc -> string -> int option

val is_timing_counter : string -> bool
(** [true] for machine-dependent counters: wall-clock values — names
    ending in [_ns] or [_ms] or containing [_ns_]/[_ms_] — and speedup
    ratios (names containing [speedup], which are both machine-dependent
    and higher-is-{e better}, the opposite of the gate's orientation). *)

type change = {
  counter_name : string;
  base : int;
  current : int;
  ratio : float;  (** current /. base; [infinity] when base = 0 *)
}

type report = {
  threshold : float;
  regressions : change list;  (** grew beyond the threshold *)
  improvements : change list;  (** shrank beyond the threshold *)
  shrunk : change list;
      (** floor-gated counters ([min_counters]) that shrank beyond the
          threshold — a {e failure}, unlike {!field-improvements}: these
          counters measure work that must keep happening (rebalances
          applied, flow states migrated), so a collapse towards zero
          means the machinery silently stopped running *)
  unchanged : int;  (** compared counters within the threshold *)
  missing : string list;
      (** names given in [only] or [min_counters] that the baseline does
          not have: a misconfigured gate *)
  added : string list;  (** in current but not in baseline *)
}

val diff :
  ?threshold:float ->
  ?only:string list ->
  ?include_timings:bool ->
  ?min_counters:string list ->
  doc ->
  doc ->
  report
(** [diff baseline current] compares every counter of the baseline.  A
    counter absent from [current] reads as 0, since {!Telemetry.snapshot}
    drops zero-valued counters: work that stopped is an improvement for a
    growth-gated counter and {!report.shrunk} for a floor-gated one.
    [threshold] defaults to [0.15] (a counter regresses when
    [current > base *. (1. +. threshold)]).  [only] restricts the
    comparison to the named counters ([missing] then lists requested
    names absent from the baseline); names in [only] and [min_counters]
    may be ['*'] globs, expanded against the union of both documents'
    counter names; a pattern matching nothing is kept verbatim, so it is
    reported [missing] rather than silently gating nothing.
    [include_timings] (default
    [false]) also compares {!is_timing_counter} counters.
    [min_counters] names counters with a {e floor}: they are always
    compared (even under [only]), shrinking below
    [base *. (1. -. threshold)] lands them in {!report.shrunk} instead
    of [improvements], and a name absent from the baseline is reported
    [missing]. *)

val ok : report -> bool
(** [true] when the report carries no regressions, no shrunk
    floor-gated counters and no missing counters. *)

val pp_report : Format.formatter -> report -> unit
