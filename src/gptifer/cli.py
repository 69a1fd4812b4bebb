"""Command-line entry point for running named experiments.

``gptifer run <experiment> [options]`` executes one experiment, prints its
canonical JSON report, optionally writes it to a file, and exits 0 exactly
when the experiment's acceptance predicate holds.  ``gptifer list`` prints
the registry.  The seed defaults to the ``GPT_IFER_SEED`` environment
variable, then to 0.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .experiments import REGISTRY, emit_report, run_experiment
from .theories import THEORY_NAMES


def _default_seed(parser: argparse.ArgumentParser) -> int:
    raw = os.environ.get("GPT_IFER_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        parser.error(f"GPT_IFER_SEED must be an integer, got {raw!r}")  # exits 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gptifer",
        description="Interferometric computation experiments across operational theories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one named experiment")
    run_p.add_argument("experiment", choices=sorted(REGISTRY), metavar="experiment")
    run_parameters = [
        run_p.add_argument("--theory", help=f"theory name ({', '.join(THEORY_NAMES)})"),
        run_p.add_argument("--n", type=int, help="input bits for quantum runs"),
        run_p.add_argument("--N", type=int, help="branch count for classical, quaternionic and search runs"),
        run_p.add_argument("--marked", type=int, help="marked branch for the search run"),
        run_p.add_argument("--iterations", type=int, help="search repetitions"),
        run_p.add_argument("--samples", type=int, help="sample count for sampled experiments"),
    ]
    # the options that are handed to the run as its parameters
    run_p.set_defaults(run_parameters=tuple(a.dest for a in run_parameters))
    run_p.add_argument("--seed", type=int, default=None, help="random seed (default: GPT_IFER_SEED or 0)")
    run_p.add_argument("--out", help="write the report to this path")
    run_p.add_argument("--format", choices=("json", "csv"), help="format of the --out file (default: json)")

    sub.add_parser("list", help="print the experiment registry")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # the parser main reads, built on its first call: parsing keeps no state
    # between calls, so one parser serves every call in a process
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for name in sorted(REGISTRY):
            print(name)
        return 0

    params = {}
    for key in args.run_parameters:
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    params["seed"] = args.seed if args.seed is not None else _default_seed(parser)
    if args.format and not args.out:
        parser.error("--format applies only to the report written with --out")  # exits 2

    try:
        report = run_experiment(args.experiment, params)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2

    print(report.to_canonical_json())
    if args.out:
        emit_report(report, args.out, fmt=args.format or "json")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
