"""One workload process, started by ``run.py``.

Builds the workload (its set-up), prints ``{"ready": <wall time>}``, then
either stops (``--setup-only``), runs passes over the ops until
``--seconds`` have elapsed (``--trace 0``), or runs each op once untraced
and once traced (``--trace 1``).  The last line of its output is a JSON
object with the measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / "bench" / "out"


class Attempt(NamedTuple):
    seconds: float
    #: ``repr`` of the output, which round-trips floats exactly; None on failure
    result: str | None
    deviation: float
    error: str | None


def attempt(op, tracer=None) -> Attempt:
    """Run one op, timed, then its check."""
    start = time.perf_counter()
    try:
        result = op.call() if tracer is None else tracer.run(op.label, op.call)
    except Exception as exc:  # a failed op is counted and the run goes on
        return Attempt(time.perf_counter() - start, None, 0.0, f"{op.label} raised {exc!r}")
    elapsed = time.perf_counter() - start
    try:
        deviation = op.check(result)
    except Exception as exc:
        return Attempt(elapsed, None, 0.0, f"{op.label} check failed: {exc}")
    return Attempt(elapsed, repr(result), deviation, None)


def timed_passes(ops, seconds: float) -> dict:
    """Passes over the ops until ``seconds`` have elapsed, the first pass
    always whole.

    Each op's time is the best over every run of it: over the passes, and
    over the repeats of one ``Op`` object within a pass.  Load from outside
    the process comes in spells that can slow a call twofold; runs seconds
    apart rarely all meet one, so the best time is what the code costs.
    The figures are taken over one pass of best times, which keeps the
    workload's mix exact however the last pass ends.
    """
    best: dict[int, float] = {}
    errors = []
    attempted = 0
    start = time.perf_counter()
    while attempted < len(ops) or time.perf_counter() - start < seconds:
        op = ops[attempted % len(ops)]
        a = attempt(op)
        best[id(op)] = min(best.get(id(op), a.seconds), a.seconds)
        attempted += 1
        if a.error is not None:
            errors.append(a.error)
    times = [best[id(op)] for op in ops]
    return {
        "attempted": attempted,
        "errors": errors,
        "passes": attempted / len(ops),
        "metrics": {
            "ops_per_s": (1 - len(errors) / attempted) * len(ops) / sum(times),
            "op_p50_ms": 1e3 * statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


def traced_pass(ops, trace_path: Path) -> dict:
    """Each op untraced and then traced, back to back.

    The traced call must reproduce the untraced result exactly; its call
    counts depend only on the inputs.  Running the pair together keeps
    load from outside the process out of the overhead ratio.  The wrappers
    are installed for the traced call only.
    """
    from tracer import Tracer

    tracer = Tracer()
    plain = []
    traced = []
    for op in ops:
        plain.append(attempt(op))
        with tracer:
            traced.append(attempt(op, tracer))
    errors = [a.error for a in plain + traced if a.error is not None]
    errors += [
        f"{op.label}: traced result differs from untraced"
        for op, a, b in zip(ops, plain, traced)
        if a.result is not None and b.result is not None and a.result != b.result
    ]
    metrics = tracer.layer_metrics()
    metrics["interferometer.max_closed_form_dev"] = max(a.deviation for a in plain + traced)
    metrics["trace.overhead_ratio"] = sum(a.seconds for a in traced) / sum(a.seconds for a in plain)
    tracer.write(trace_path)
    return {"attempted": 2 * len(ops), "errors": errors, "passes": 2, "metrics": metrics}


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        blas_build = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    ops = workloads.BY_NAME[args.workload](args.seed)
    print(json.dumps({"ready": time.time()}), flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        trace_path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
        result = traced_pass(ops, trace_path)
    else:
        result = timed_passes(ops, args.seconds)
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
