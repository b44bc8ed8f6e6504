"""One repetition of a workload in a fresh process, as a user would start it.

Run by run.py with `src` on PYTHONPATH and PERFBENCH_T0 set to the wall-clock
time just before the process was started.  Prints one JSON object:

- `setup_s`: process start until lschains (through `lschains.cli`) is
  imported and the workload's root systems and renormalizations are built;
- `wall_s`, `cpu_s`, `latencies_ms` (one per query): the timed phase; CPU
  counts this process and every worker it reaped (the fork pools);
- `peak_rss_mb`: the largest peak resident set of the process or a worker;
- `attempted`, `failed`: operations, and those whose output disagrees with
  the reference, checked after the timed phase;
- `layers`: per-layer numbers, with --trace.

With --setup-only it stops after set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import tracing
import workloads


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def main(argv=None) -> int:
    t0 = float(os.environ["PERFBENCH_T0"])
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="file to write the trace's spans to")
    args = p.parse_args(argv)

    start = time.perf_counter()
    import lschains.cli  # noqa: F401  (the package through its entry point)
    import_s = time.perf_counter() - start

    wl = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    ctx = wl.setup()
    setup_s = time.time() - t0
    result = {"setup_s": setup_s, "import_s": import_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    ops = wl.inputs(args.seed, args.size)
    cpu0 = _cpu_s()
    w0 = time.perf_counter()
    outputs, latencies, reported = wl.run(ops, ctx)
    wall_s = time.perf_counter() - w0
    cpu_s = _cpu_s() - cpu0
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    if tracer:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        layers["cli.import_s"] = import_s
        for name in workloads.accept_reference_table()["full"]:
            layers[f"acceptance.{name}.s"] = 0.0
        layers.update(reported)
        result["layers"] = layers
        if args.spans:
            tracer.dump(args.spans)

    expected = wl.reference(ops)
    failed = sum(not wl.agrees(o, e) for o, e in zip(outputs, expected))
    result.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=peak_kb / 1024,
        latencies_ms=[x * 1000 for x in latencies],
        attempted=len(ops),
        failed=failed,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
