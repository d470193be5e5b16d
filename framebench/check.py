#!/usr/bin/env python3
"""Tooling around the frame-replay benchmark, run from the repository root.

  python3 framebench/check.py selftest
      Runs every workload on a small trace, untraced and traced, twice
      with one seed.  Asserts that every metric BENCHMARK.json names is
      emitted and finite, that nothing failed (failed = 0 and
      failed_frac = 0), and that the count metrics (*_words, dsl.state_*,
      runtime.batches) repeat exactly.  Exits non-zero on any violation.

  python3 framebench/check.py spread [--runs N] [--workload W ...] [--save FILE]
      Runs each workload N times (default 10) with seeds 1..N at the
      BENCHMARK.json run length and prints, per end-to-end metric, the
      median and the interquartile range as a share of the median,
      against the metric's bound.  --save appends every run's output to
      FILE, for `compare`.

  python3 framebench/check.py compare BASE NEW
      BASE and NEW hold benchmark standard output (any number of runs,
      concatenated).  Prints, per workload and metric, both medians and
      the change.  Refuses (exit 2) when the two sides' host blocks
      differ in nproc, OCaml version, worker count, packets per trace or
      seed: such results are not comparable.  Passes are listed but not
      compared, being an outcome of the run length.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys

SPEC_FILE = "BENCHMARK.json"
SCHEMA = '"schema": "framebench/1"'
IDENTITY = ("nproc", "ocaml", "workers", "pkts", "seed")


def load_spec():
    with open(SPEC_FILE) as f:
        return json.load(f)


def run_bench(spec, workload, seed, seconds, trace, extra=()):
    """Run the benchmark command once; returns (exit code, result object, stdout)."""
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = [l for l in p.stdout.splitlines() if l.startswith("{")]
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stdout


def is_count(name):
    return name.endswith("_words") or name.startswith("dsl.state_") or name == "runtime.batches"


def selftest(_args):
    spec = load_spec()
    names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (0, 1):
            before = len(problems)
            seen = []
            for attempt in (1, 2):
                code, result, _ = run_bench(spec, w, 7, 1, trace, ("--pkts", "4096"))
                tag = f"{w} trace={trace} run={attempt}"
                if code != 0 or result is None:
                    problems.append(f"{tag}: exit {code}")
                    continue
                ms = result["metrics"]
                if not result["correct"] or result["failed"] != 0:
                    problems.append(f"{tag}: correct={result['correct']} failed={result['failed']}")
                if sorted(ms) != sorted(names[trace]):
                    problems.append(f"{tag}: metrics {sorted(ms)} != BENCHMARK.json {sorted(names[trace])}")
                for n, m in ms.items():
                    v = m["value"]
                    if not isinstance(v, (int, float)) or not math.isfinite(v):
                        problems.append(f"{tag}: {n} = {v!r} is not finite")
                if "failed_frac" in ms and ms["failed_frac"]["value"] != 0:
                    problems.append(f"{tag}: failed_frac = {ms['failed_frac']['value']}")
                seen.append(ms)
            if len(seen) == 2:
                for n in names[trace]:
                    if is_count(n) and seen[0][n]["value"] != seen[1][n]["value"]:
                        problems.append(
                            f"{w} trace={trace}: count {n} did not repeat: "
                            f"{seen[0][n]['value']} vs {seen[1][n]['value']}")
            print(f"{w} trace={trace}: {'ok' if len(problems) == before else 'FAIL'}", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


def spread(args):
    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    out = open(args.save, "a") if args.save else None
    status = 0
    for w in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(1, args.runs + 1):
            code, result, stdout = run_bench(spec, w, seed, spec["run_seconds"], 0)
            if out:
                out.write(stdout)
                out.flush()
            if code != 0 or result is None or not result["correct"]:
                print(f"{w} seed {seed}: run failed (exit {code})")
                status = 1
                continue
            for n in values:
                values[n].append(result["metrics"][n]["value"])
            print(f"{w} seed {seed}: " + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()),
                  flush=True)
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q = statistics.quantiles(v, n=4)
            s = (q[2] - q[0]) / statistics.median(v)
            flag = "ok" if s < m["bound"] / 3 else ("within bound" if s <= m["bound"] else "ABOVE BOUND")
            print(f"{w} {m['name']}: median {statistics.median(v):.6g} {m['unit']}, "
                  f"IQR/median {s:.3f} (bound {m['bound']}) {flag}", flush=True)
    return status


def documents(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.startswith("{") and SCHEMA in l]


def compare(args):
    base, new = documents(args.base), documents(args.new)
    if not base or not new:
        sys.exit("compare: no framebench/1 documents found")
    for field in IDENTITY:
        vb = sorted({json.dumps(d["host"][field]) for d in base})
        vn = sorted({json.dumps(d["host"][field]) for d in new})
        if vb != vn:
            print(f"compare: refusing, host blocks differ in {field}: {vb} vs {vn}")
            return 2
    for wl, trace in sorted({(d["workload"], d["trace"]) for d in base + new}):
        b = [d for d in base if (d["workload"], d["trace"]) == (wl, trace)]
        n = [d for d in new if (d["workload"], d["trace"]) == (wl, trace)]
        print(f"{wl} trace={trace}: {len(b)} vs {len(n)} run(s), passes "
              f"{[d['host']['passes'] for d in b]} vs {[d['host']['passes'] for d in n]}")
        if not b or not n:
            continue
        for name in sorted({m for d in b + n for m in d["metrics"]}):
            vb = [d["metrics"][name]["value"] for d in b if name in d["metrics"]]
            vn = [d["metrics"][name]["value"] for d in n if name in d["metrics"]]
            if not vb or not vn:
                continue
            mb, mn = statistics.median(vb), statistics.median(vn)
            rel = f"{(mn - mb) / abs(mb):+.1%}" if mb else "n/a"
            print(f"  {name:28s} {mb:14.6g} -> {mn:14.6g}  {rel}")
        print(f"  {'model_mpps (model output)':28s} "
              f"{statistics.median(d['model_mpps'] for d in b):14.6g} -> "
              f"{statistics.median(d['model_mpps'] for d in n):14.6g}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("selftest").set_defaults(fn=selftest)
    p = sub.add_parser("spread")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append")
    p.add_argument("--save")
    p.set_defaults(fn=spread)
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(fn=compare)
    args = parser.parse_args()
    sys.exit(args.fn(args))


if __name__ == "__main__":
    main()
