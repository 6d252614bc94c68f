"""Benchmark of polyaccess.

    python3 bench/run.py --workload {cartpole,sweep,demos} --seed N \\
        --seconds S --trace {0,1} [--sweep-seed K]

Run from the root of a source checkout; the package is imported from
``src``.  A run times the set-up several times, then runs whole rounds of the
workload until ``--seconds`` have passed (at least ``min_rounds`` rounds),
checks the answers, writes a result file under ``.bench_results/`` and prints
one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
"""

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SETUP_REPEATS = 11


def import_fresh():
    """Import polyaccess and its command line from scratch, as a new
    process would."""
    for name in [m for m in sys.modules if m == "polyaccess" or m.startswith("polyaccess.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("polyaccess.cli")
    return sys.modules["polyaccess"]


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def git_rev():
    """Commit of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sweep-seed", type=int, default=0,
                    help="the sweep analyses random systems 400*K .. 400*K+399")
    return ap.parse_args(argv)


def main(argv=None):
    if not (SRC / "polyaccess" / "__init__.py").is_file():
        print(f"error: no polyaccess sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.sweep_seed)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pa = import_fresh()
        workload.setup(pa)
        setup_times.append(time.perf_counter() - start)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        workload.setup(pa)
        setup_layers, setup_spans = tracer.take()

    outcomes = []
    round_times = []
    start = time.perf_counter()
    while len(round_times) < workload.min_rounds or time.perf_counter() - start < args.seconds:
        done, wall = workload.run_round(tracer)
        outcomes.extend(done)
        round_times.append(wall)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        tracer.uninstall()
        round_layers, round_spans = tracer.take()

    checked = time.perf_counter()
    problems = workload.check()
    check_s = time.perf_counter() - checked
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    op_times = [t for t, _ in outcomes]
    wall_s = statistics.median(round_times)
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall_s, "s"),
            "analysis_p50_s": (statistics.median(op_times), "s"),
            "analysis_p97.5_s": (percentile(op_times, 0.975), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
            "certified_answers": (workload.certified(), "count"),
        }
    else:
        layers = tracing.combine(setup_layers, round_layers, len(round_times))
        metrics = {k: (v, "count" if not k.endswith("_s") else "s") for k, v in layers.items()}
        metrics["trace.wall_s"] = (wall_s, "s")
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(1 for _, ok in outcomes if not ok),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sweep_seed": args.sweep_seed,
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "rationals": f"{pa.rationals.Q.__module__}.{pa.rationals.Q.__name__}",
        "cpu_count": os.cpu_count(),
        "unix_time": time.time(),
    }
    RESULTS.mkdir(exist_ok=True)
    base = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    record = {**stamp, "result": result, "problems": problems, "check_s": check_s,
              "setup_times": setup_times, "round_times": round_times, "op_times": op_times}
    base.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        Path(f"{base}.spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op", "size"],
             "setup": setup_spans, "rounds": round_spans}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
