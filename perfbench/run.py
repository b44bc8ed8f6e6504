"""Run one workload of the lschains benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep-chains --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it measures the package under `src/`.
Every repetition is a fresh Python process (worker.py), so every cache of the
program starts cold, as it does for a user.  Repetitions start until
--seconds have passed, at least three, and each one checks its outputs after
its timed phase.  Before each repetition, set-up time is also sampled in a
few processes that stop after set-up, so its samples span the whole run.
End-to-end metrics are medians over the repetitions.  query_p50_ms and
query_p95_ms are nearest-rank percentiles over the queries of one
repetition.  For p50 a query's latency is its median over the first three
repetitions: a fixed number, so that a faster program, which fits more
repetitions into --seconds, gets the same estimator.  For p95 it is its mean
over all repetitions.

With --trace 1 the run alternates plain and traced repetitions.  It prints the
per-layer metrics of BENCHMARK.json as medians over the traced ones, and the
tracing overhead as the traced minus the plain median `wall_s`.  The spans of
the last traced repetition go to perfbench/out/.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines above it give every
metric with its unit, the query count and `fail_ratio` (failed / attempted).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
SPANS_DIR = HERE / "out"
SETUP_PER_REP = {"full": 4, "tiny": 1}  # set-up-only processes before each repetition
MIN_REPS = {"full": 3, "tiny": 1}
P50_REPS = 3  # query_p50_ms takes each query's median latency over these first repetitions
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill the worker and any pool processes it forked, and wait for them."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def spawn(args: list[str], deadline: float) -> dict:
    """One worker process; returns the JSON object it prints last."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("LSCHAINS_MAX_WORKERS", None)
    env["PERFBENCH_T0"] = repr(time.time())
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], cwd=ROOT, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop_group(proc)
        raise BenchError("worker did not finish before the run's deadline")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    """Nearest rank: the latency of the query at rank ceil(q% of n)."""
    ranked = sorted(values)
    return ranked[math.ceil(q * len(ranked) / 100) - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed), "--size", size]
    # the first process compiles bytecode and warms the file cache; discarded
    spawn(base + ["--setup-only"], deadline)
    setups, plain, traced = [], [], []
    spans = SPANS_DIR / f"spans-{workload}-seed{seed}.json"
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
    start = time.monotonic()
    while len(plain) < MIN_REPS[size] or time.monotonic() - start < seconds:
        setups += [spawn(base + ["--setup-only"], deadline)["setup_s"]
                   for _ in range(SETUP_PER_REP[size])]
        plain.append(spawn(base, deadline))
        if trace:
            traced.append(spawn(base + ["--trace", "--spans", str(spans)], deadline))
    reps = plain + traced
    # every repetition asks the same queries in the same cache state
    per_query = list(zip(*(r["latencies_ms"] for r in plain)))
    first = [ms[:P50_REPS] for ms in per_query]
    return {
        "reps": len(plain),
        "queries": len(per_query),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "end_to_end": {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in plain]),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "query_p50_ms": percentile([statistics.median(ms) for ms in first], 50),
            "query_p95_ms": percentile([statistics.mean(ms) for ms in per_query], 95),
        },
        "per_layer": _per_layer(plain, traced) if trace else {},
    }


def _per_layer(plain: list[dict], traced: list[dict]) -> dict:
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    out["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(r["wall_s"] for r in plain)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=SIZES, default="full",
                   help="tiny: small inputs for the benchmark's own tests")
    args = p.parse_args(argv)

    bench = ROOT / "BENCHMARK.json"
    if not (SRC / "lschains" / "__init__.py").is_file() or not bench.is_file():
        print(f"error: run from a checkout with src/lschains and {bench.name}", file=sys.stderr)
        return 2
    spec = json.loads(bench.read_text())
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    values = {**m["end_to_end"], **m["per_layer"]}
    shown = spec["end_to_end"] + (spec["per_layer"] if args.trace else [])
    missing = [d["name"] for d in shown if d["name"] not in values]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in wanted}

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"repetitions {m['reps']}  queries per repetition {m['queries']}")
    if args.workload == "accept-cli":
        print("the seed is unused: accept-cli has no generated inputs")
    for d in shown:
        print(f"{d['name']:52s} {values[d['name']]:.6g} {d['unit']}")
    print(f"{'fail_ratio':52s} {m['failed'] / m['attempted']:.6g} ratio")
    print(json.dumps({
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
