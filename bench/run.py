"""gptifer benchmark: one workload, measured end to end or traced per layer.

    python3 bench/run.py --workload dj --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` it reports the end-to-end metrics: set-up
time (median over several fresh processes), then throughput, per-op
latency and peak memory of one measuring process.  With ``--trace 1`` it
runs each op once untraced and once traced and reports the per-layer
metrics.  Every op's output is checked.  The last line of output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Workload processes run with BLAS and OpenMP pinned to one thread; see
``bench/README.md`` for why.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("dj", "search", "suite")
#: Set-up-only processes per run; the measuring process adds one sample.
SETUP_REPEATS = 4
#: Whole run, so the benchmark ends well inside its 180 s limit.
DEADLINE_S = 170.0
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith((".calls", ".rows")):
        return "count"
    if name.endswith("max_closed_form_dev"):
        return "prob"
    return "ratio"


class WorkerFailed(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker; return its set-up time and its last output line."""
    env = dict(os.environ, **PINNED_THREADS)
    start = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed("worker ran past the deadline and was stopped") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    setup_s = json.loads(lines[0])["ready"] - start
    return setup_s, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "gptifer" / "__init__.py").is_file():
        print(f"error: no gptifer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup_samples = []
    try:
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                setup_samples.append(spawn(common + ["--setup-only"], deadline)[0])
        setup_s, result = spawn(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {
            name: {"value": value, "unit": per_layer_unit(name)}
            for name, value in result["metrics"].items()
        }
    else:
        setup_samples.append(setup_s)
        values = dict(result["metrics"], setup_s=statistics.median(setup_samples))
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }

    attempted = result["attempted"]
    failed = len(result["errors"])
    print("env " + json.dumps(dict(result["env"], seed=args.seed), sort_keys=True))
    print(
        f"workload {args.workload}: seed {args.seed}, {result['passes']:.3g} passes, "
        f"{attempted} ops attempted, {failed} failed, fail_ratio {failed / attempted:.6g}"
    )
    if setup_samples:
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup_samples)}")
    for error in result["errors"][:10]:
        print(f"failed op: {error}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
