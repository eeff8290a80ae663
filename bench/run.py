"""perspectra benchmark: three workloads, every answer checked.

    python3 bench/run.py --workload census-n4 --seed 1 --seconds 45 --trace 0

Run it from the repository root; it imports the library from ./src.  Each
pass of a workload runs in a fresh interpreter (bench/worker.py), one at a
time, because the library's caches are process-wide.  Before the first pass
an untimed import compiles the library's bytecode.  The run then starts
passes while the next one, taking as long as the longest so far, still ends
within --seconds, and makes at least MIN_PASSES of them.

--trace 0 reports the end-to-end metrics, as medians over the passes:
  setup_s      import plus lazy set-up (the cold census index on identify-stream)
  wall_s       time spent in the timed library calls of one pass
  peak_rss_mb  peak RSS of a pass's process
  req_p50_ms, req_p99_ms, req_per_s
               over the timed library calls of a pass (each call's latency
               being its median over the passes), and calls per second
Every pass of a run makes the same calls, so wall_s is the sum of the
per-call medians.
error_rate is printed as failed/attempted; the JSON line carries both counts.

--trace 1 alternates untraced and traced passes (at least one pair) and
reports the per-layer figures of the traced passes (medians), plus
trace.overhead_ratio: traced wall_s over untraced wall_s.  Spans go to
bench/out/.

The last stdout line is the JSON result.  The exit code is 1, with no
result, when a pass cannot run at all, e.g. when ./src is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("census-n4", "pg-embed", "identify-stream")
MIN_PASSES = 2
DEADLINE_S = 170

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "req_p50_ms": "ms", "req_p99_ms": "ms", "req_per_s": "1/s"}


class PassFailed(Exception):
    pass


def run_pass(workload, seed, index, trace, deadline):
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise PassFailed(f"no time left for pass {index}")
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
           str(index), "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass {index} did not finish in time") from None
    if proc.returncode != 0:
        raise PassFailed(f"pass {index} exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for message in result["errors"]:
        print(f"pass {index}: failed check: {message}", file=sys.stderr)
    return result


def warm_up(deadline):
    """Import the library once, untimed, so that every timed pass finds its
    bytecode compiled and its files in the page cache."""
    cmd = [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import perspectra"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=deadline - perf_counter())
    except subprocess.TimeoutExpired:
        raise PassFailed("the warm-up import did not finish in time") from None
    if proc.returncode != 0:
        raise PassFailed(f"the warm-up import failed:\n{proc.stderr.strip()[-3000:]}")


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(passes):
    # every pass makes the same calls, so each call's latency is its median
    # over the passes; that damps a slow spell of the machine within a pass
    latencies = [statistics.median(call)
                 for call in zip(*(p["latencies_s"] for p in passes), strict=True)]
    wall = sum(latencies)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": wall,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "req_p50_ms": statistics.median(latencies) * 1000,
        "req_p99_ms": percentile(latencies, 99) * 1000,
        "req_per_s": len(latencies) / wall,
    }, len(latencies)


def per_layer(untraced, traced):
    names = traced[0]["layers"]
    layers = {name: statistics.median(p["layers"][name] for p in traced)
              for name in names}
    layers["trace.overhead_ratio"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced))
    return layers


def layer_unit(name):
    if name.endswith(("calls", "nodes")):
        return "count"
    if name.endswith("ratio"):
        return "ratio"
    if ".nodes_per_s." in name:
        return "1/s"
    return "s"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = perf_counter()
    deadline = start + DEADLINE_S
    untraced, traced = [], []
    fewest = 1 if args.trace else MIN_PASSES
    longest = 0.0  # of the passes (or traced pairs) so far
    try:
        warm_up(deadline)
        while len(untraced) < fewest or perf_counter() - start + longest <= args.seconds:
            began = perf_counter()
            index = len(untraced)
            untraced.append(run_pass(args.workload, args.seed, index, False, deadline))
            if args.trace:
                traced.append(run_pass(args.workload, args.seed, index, True, deadline))
            longest = max(longest, perf_counter() - began)
    except PassFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        metrics = {name: (value, layer_unit(name))
                   for name, value in per_layer(untraced, traced).items()}
    else:
        values, samples = end_to_end(untraced)
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
        print(f"{args.workload}: {len(untraced)} passes, {samples} timed calls")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    print(f"  {'error_rate':42s} {failed / attempted:14.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
