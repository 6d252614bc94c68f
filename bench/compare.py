"""Compare two sets of benchmark result files, or summarize one set.

    python3 bench/compare.py --base PATH... [--change PATH...]

PATHs are result files written by bench/run.py (``.bench_results/*.json``,
span files are skipped) or directories holding them.  Runs are grouped by
workload.  For every (metric, workload) the table gives each side's median
and quartiles, the spread (quartile distance over median) and, with
``--change``, the ratio change/base, the share of pairs won by the change
(runs paired in time order, so alternate the two sides when running them)
and a verdict from the bounds in BENCHMARK.json:

- worse: the change's median is worse than the base's by more than the bound;
- unresolved: a side's spread exceeds the bound, unless every change run
  beats every base run, which counts as better;
- better: the change wins at least 9 of 10 pairs and the medians differ by
  more than the base's quartile distance;
- no worse: otherwise.

Per-layer metrics (traced runs) get no verdict.  The tracing overhead is the
median traced ``trace.wall_s`` minus the median untraced ``wall_s``.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    runs = []
    for p in map(Path, paths):
        files = sorted(p.glob("*.json")) if p.is_dir() else [p]
        for f in files:
            if not f.name.endswith(".spans.json"):
                runs.append(json.loads(f.read_text()))
    return sorted(runs, key=lambda r: r["unix_time"])


def series(runs):
    """{(workload, metric): [values in time order]}"""
    out = {}
    for r in runs:
        for name, m in r["result"]["metrics"].items():
            out.setdefault((r["workload"], name), []).append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(base, change, bound, lower_is_better):
    sign = 1 if lower_is_better else -1

    def better(a, b):  # a better than b
        return sign * (a - b) < 0

    pairs = list(zip(base, change))
    won = sum(better(c, b) for b, c in pairs) / len(pairs)
    mb, mc = statistics.median(base), statistics.median(change)
    q1, _, q3 = quartiles(base)
    if max(spread(base), spread(change)) > bound:
        return ("better" if all(better(c, b) for c in change for b in base)
                else "unresolved"), won
    if sign * (mc - mb) > bound * abs(mb):
        return "worse", won
    if won >= 0.9 and abs(mc - mb) > q3 - q1 and better(mc, mb):
        return "better", won
    return "no worse", won


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+")
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args(argv)
    spec = json.loads(Path(args.benchmark).read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base_runs = load(args.base)
    base = series(base_runs)
    change = series(load(args.change)) if args.change else {}

    header = f"{'workload':9} {'metric':30} {'n':>3} {'q1':>11} {'median':>11} {'q3':>11} {'spread':>7}"
    if args.change:
        header += f" {'chg median':>11} {'ratio':>7} {'won':>5}  verdict"
    print(header)
    for (workload, name), values in sorted(base.items()):
        q1, q2, q3 = quartiles(values)
        line = (f"{workload:9} {name:30} {len(values):3d} {q1:11.5g} {q2:11.5g} "
                f"{q3:11.5g} {spread(values):7.3f}")
        other = change.get((workload, name))
        if other:
            mc = statistics.median(other)
            line += f" {mc:11.5g} {mc / q2 if q2 else float('nan'):7.3f}"
            if name in bounds:
                m = bounds[name]
                v, won = verdict(values, other, m["bound"], m["better"] == "lower")
                line += f" {won:5.2f}  {v}"
        print(line)

    failed = [(r["workload"], r["seed"], r["result"]["failed"], r["result"]["attempted"])
              for r in base_runs if not r["result"]["correct"] or r["result"]["failed"]]
    for w, s, f, a in failed:
        print(f"{w} seed {s}: failed {f} of {a} or incorrect", file=sys.stderr)
    for workload in sorted({w for w, _ in base}):
        traced, plain = base.get((workload, "trace.wall_s")), base.get((workload, "wall_s"))
        if traced and plain:
            mt, mp = statistics.median(traced), statistics.median(plain)
            print(f"{workload}: tracing overhead {mt - mp:+.4g} s on wall_s {mp:.4g} s "
                  f"({(mt - mp) / mp:+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
