#!/usr/bin/env python3
"""Alternating parent/change pairs of the frame-replay benchmark.

Run from the repository root:

  python3 bench/pairs.py --parent DIR --change DIR [--pairs N] [--seconds S]
      [--pkts N] [--workload W ...] [--seed0 K] [--claim W:METRIC ...]
      [--traced] [--save FILE]

PARENT and CHANGE are two built checkouts (they may be the same one).
Every workload, end-to-end metric and bound comes from BENCHMARK.json;
each run is its `command` started in the checkout's directory.  Pair k
(1..N, default 10) runs both sides on seed K+k (default K = 100), and
the side that runs first alternates, the parent on odd k, so both sides
see the same drift in host speed.  --seconds defaults to the
BENCHMARK.json run length; --pkts is passed on when given.

It prints each run's metrics as it ends, with the run's steal share:
the host's steal jiffies over all its jiffies, from the aggregate `cpu`
line of /proc/stat read before and after the run (`n/a` when /proc/stat
cannot be read).  A slow run with a high steal share was a slow host,
not a slow program.  Then one table row per workload and end-to-end
metric: each side's median with its quartiles [q1, q3], the
change/parent ratio of the medians, the pairs the change won, the two
sides' `failed` counts and the two sides' median steal share; then every
run's value in seed order.
--save appends every run's standard output to FILE, which
`framebench/check.py compare` reads.

--traced adds, after the pairs, one traced run (`--trace 1`) per side
per workload, on seed K+N+1 (a seed no pair used), the parent first and
for the same --seconds and --pkts.  It prints one table row per
workload and BENCHMARK.json per-layer metric: the parent's value, the
change's and their ratio, which is the "counts named in advance" table
of a proof.  A single traced run is a reading, not a judged result:
its timings move with the host like any one run, while the word and
batch counts repeat exactly.  A failed traced run fails the runner.

Exit status 1 when a run failed (non-zero exit, correct = false or
failed > 0), when a metric's change median is worse than the parent's
by more than its bound, or when a --claim misses: the change must win
at least 9 in 10 of the pairs and beat the parent's median by more than
the parent's interquartile range.  Bounds and claims are judged from
3 pairs up, because one run per side cannot tell a change from noise:
two 1 s runs of one build differed by 38% in nop-64's setup_s on a
2-vCPU VM.  With fewer pairs the runner only checks that every run
succeeds, and a claim fails.
"""

import argparse
import json
import statistics
import subprocess
import sys

SPEC_FILE = "BENCHMARK.json"
MIN_JUDGED_PAIRS = 3


def cpu_jiffies():
    """(steal, all) jiffies of the aggregate `cpu` line of /proc/stat, or
    None when it cannot be read.  `all` sums user, nice, system, idle,
    iowait, irq, softirq and steal; guest time is already counted in user
    and nice."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        if fields[:1] != ["cpu"] or len(fields) < 9:
            return None
        ticks = [int(x) for x in fields[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def steal_share(before, after):
    """Steal jiffies over all jiffies between two cpu_jiffies() readings."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def fmt_steal(v):
    return "n/a" if v is None else f"{100 * v:.1f}%"


def run_once(spec, cwd, workload, seed, seconds, pkts, trace=0):
    """One benchmark run; returns (result object or None, stdout, steal
    share of the run or None)."""
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if pkts:
        cmd += ["--pkts", str(pkts)]
    before = cpu_jiffies()
    p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                       timeout=max(600, 20 * seconds))
    steal = steal_share(before, cpu_jiffies())
    lines = [l for l in p.stdout.splitlines() if l.startswith("{")]
    result = json.loads(lines[-1]) if p.returncode == 0 and lines else None
    return result, p.stdout, steal


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def better(metric, a, b):
    """True when value a is better than value b for this metric."""
    return a > b if metric["better"] == "higher" else a < b


def summary(v):
    q1, q3 = quartiles(v)
    return f"{statistics.median(v):.4g} [{q1:.4g}, {q3:.4g}]"


def traced_table(spec, args, workloads, seconds, out):
    """One traced run per side per workload, per-layer metrics side by
    side; returns the problems (failed runs)."""
    seed = args.seed0 + args.pairs + 1
    problems, rows = [], []
    for w in workloads:
        ms = {}
        for side in ("parent", "change"):
            result, stdout, _ = run_once(spec, getattr(args, side), w, seed, seconds,
                                         args.pkts, trace=1)
            if out:
                out.write(stdout)
                out.flush()
            if result is None or not result["correct"] or result["failed"] != 0:
                problems.append(f"{w} seed {seed} {side}: traced run failed")
                print(f"{w} seed {seed} {side} (traced): FAILED", flush=True)
            else:
                ms[side] = result["metrics"]
        if len(ms) < 2:
            continue
        for m in spec["per_layer"]:
            p = ms["parent"].get(m["name"], {}).get("value")
            c = ms["change"].get(m["name"], {}).get("value")
            if p is None or c is None:
                continue
            ratio = f"{c / p:.3f}x" if p else "n/a"
            rows.append(f"| {w} | {m['name']} | {m['unit']} | {p:.4g} | {c:.4g} | {ratio} |")
    print()
    print(f"Traced runs (--trace 1), seed {seed}, the parent first:")
    print("| workload | metric | unit | parent | change | change / parent |")
    print("|---|---|---|---|---|---|")
    print("\n".join(rows))
    return problems


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--pkts", type=int)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed0", type=int, default=100)
    parser.add_argument("--claim", action="append", default=[],
                        help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--traced", action="store_true",
                        help="then one --trace 1 run per side per workload")
    parser.add_argument("--save")
    args = parser.parse_args()

    with open(SPEC_FILE) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    claims = set()
    for c in args.claim:
        w, _, m = c.partition(":")
        if w not in workloads or m not in [x["name"] for x in metrics]:
            sys.exit(f"pairs: --claim {c} names no benchmarked workload:metric")
        claims.add((w, m))
    out = open(args.save, "a") if args.save else None
    problems = []

    print(f"{args.pairs} pair(s) of {seconds} s per workload, seeds "
          f"{args.seed0 + 1}..{args.seed0 + args.pairs}, parent {args.parent}, "
          f"change {args.change}", flush=True)
    rows, values = [], []
    for w in workloads:
        runs = {"parent": [], "change": []}
        failed = {"parent": 0, "change": 0}
        steals = {"parent": [], "change": []}
        for k in range(1, args.pairs + 1):
            seed = args.seed0 + k
            order = ("parent", "change") if k % 2 == 1 else ("change", "parent")
            for side in order:
                result, stdout, steal = run_once(spec, getattr(args, side), w, seed, seconds,
                                                 args.pkts)
                if steal is not None:
                    steals[side].append(steal)
                if out:
                    out.write(stdout)
                    out.flush()
                if result is None or not result["correct"] or result["failed"] != 0:
                    failed[side] += 1 if result is None else max(1, result["failed"])
                    problems.append(f"{w} seed {seed} {side}: run failed")
                    runs[side].append(None)
                    print(f"{w} seed {seed} {side}: FAILED steal={fmt_steal(steal)}", flush=True)
                else:
                    ms = {n: m["value"] for n, m in result["metrics"].items()}
                    runs[side].append(ms)
                    print(f"{w} seed {seed} {side}: "
                          + " ".join(f"{m['name']}={ms[m['name']]:.4g}" for m in metrics)
                          + f" steal={fmt_steal(steal)}",
                          flush=True)
        for m in metrics:
            name = m["name"]
            pairs = [(p[name], c[name]) for p, c in zip(runs["parent"], runs["change"])
                     if p is not None and c is not None]
            fails = f"{failed['parent']}, {failed['change']}"
            steal = ", ".join(fmt_steal(statistics.median(v) if v else None)
                              for v in (steals["parent"], steals["change"]))
            fmt = lambda vs: " ".join("-" if r is None else f"{r[name]:.4g}" for r in vs)
            values.append(f"- {w} {name}: {fmt(runs['parent'])} | {fmt(runs['change'])}")
            if not pairs:
                rows.append(f"| {w} | {name} | - | - | - | - | {fails} | {steal} |")
                continue
            pv = [p for p, _ in pairs]
            cv = [c for _, c in pairs]
            mp, mc = statistics.median(pv), statistics.median(cv)
            wins = sum(1 for p, c in pairs if better(m, c, p))
            ratio = f"{mc / mp:.3f}x" if mp else "n/a"
            rows.append(f"| {w} | {name} | {summary(pv)} | {summary(cv)} | {ratio} "
                        f"| {wins}/{len(pairs)} | {fails} | {steal} |")
            worse = (mp - mc) if m["better"] == "higher" else (mc - mp)
            judged = len(pairs) >= MIN_JUDGED_PAIRS
            if judged and mp and worse / abs(mp) > m["bound"]:
                problems.append(f"{w} {name}: change median {mc:.4g} is worse than the parent's "
                                f"{mp:.4g} by more than the {m['bound']} bound")
            if (w, name) in claims:
                q1, q3 = quartiles(pv)
                if not judged or wins * 10 < 9 * args.pairs or not -worse > q3 - q1:
                    problems.append(f"{w} {name}: claim missed: {wins}/{args.pairs} wins, "
                                    f"median gap {-worse:.4g} against a parent IQR of {q3 - q1:.4g}"
                                    + ("" if judged else f", fewer than {MIN_JUDGED_PAIRS} pairs"))
    print()
    print("| workload | metric | parent median [q1, q3] | change median [q1, q3] "
          "| change / parent | change wins | failed (parent, change) "
          "| median steal (parent, change) |")
    print("|---|---|---|---|---|---|---|---|")
    print("\n".join(rows))
    print()
    print("Per-run values, parent | change, in seed order:")
    print("\n".join(values))
    if args.traced:
        problems += traced_table(spec, args, workloads, seconds, out)
    if args.pairs < MIN_JUDGED_PAIRS:
        print(f"bounds and claims not judged: fewer than {MIN_JUDGED_PAIRS} pairs")
    for p in problems:
        print("FAIL", p)
    print("pairs:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
