"""Seeded benchmark workloads: inputs, the op each input drives, its check.

Building a workload is its set-up: theories and instruments are made once
and shared by its ops.  Every op calls the library through a module
attribute looked up at call time, so a tracer installed later sees it.
The library receives only the generated inputs; the seed stays here.

- ``dj``: validation-heavy, evolution-light.  Each op is one ``run_dj``
  call, which re-validates the whole encoding (16 locality checks, 120
  commutation checks) and then applies one oracle.
- ``search``: evolution-heavy, validation-light.  Each op is one
  ``grover_success_curve`` of thousands of rounds; only two oracles are
  built per op.
- ``suite``: breadth through the user's command-line path.  Each op is one
  in-process ``gptifer run`` of a ``SUITE`` entry.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import gptifer.cli as cli
import gptifer.interferometer as ifr
import gptifer.theories as th
from gptifer.experiments import SUITE

DJ_BITS = 4
DJ_TOL = {"quantum": 1e-12, "quaternionic": 1e-9}
SEARCH_ROUNDS = 4000
SEARCH_TOL = 1e-9


class CheckFailed(Exception):
    """An op's output disagrees with its reference."""


@dataclass(frozen=True)
class Op:
    """One user-visible call and the check of its output.

    ``check`` returns the deviation from the reference value (0.0 where the
    reference is exact) and raises :class:`CheckFailed` on a wrong output.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], float]


# ---------------------------------------------------------------------------
# dj: constant-vs-balanced queries
# ---------------------------------------------------------------------------


def _promise_table(rng: random.Random, N: int, constant: bool) -> tuple[int, ...]:
    if constant:
        return (rng.randrange(2),) * N
    ones = set(rng.sample(range(N), N // 2))
    return tuple(int(x in ones) for x in range(N))


def _dj_op(kind: str, instruments, spec) -> Op:
    m, enc, s_in, e_C = instruments
    N = len(spec.table)
    closed = abs(sum((-1.0) ** b for b in spec.table)) ** 2 / N**2
    expected = ifr.classify(spec)

    def call():
        out = ifr.run_dj(m, spec, enc, s_in, e_C)
        return out.verdict, out.p_constant_effect

    def check(result) -> float:
        verdict, p = result
        if verdict != expected:
            raise CheckFailed(f"verdict {verdict!r}, expected {expected!r}")
        deviation = abs(p - closed)
        if deviation > DJ_TOL[kind]:
            raise CheckFailed(f"p={p!r} is {deviation:.3e} from {closed!r}")
        return deviation

    return Op(f"dj.{kind}", call, check)


def dj(seed: int, quantum: int = 200, quaternionic: int = 40) -> list[Op]:
    """Promise tables on 16 branches, quantum n=4 and quaternionic N=16.

    One table in ten is constant; the op order is shuffled.
    """
    rng = random.Random(seed)
    instruments = {
        "quantum": ifr.quantum_dj_instruments(DJ_BITS),
        "quaternionic": ifr.quaternionic_dj_instruments(2**DJ_BITS),
    }
    ops = []
    for kind, count in (("quantum", quantum), ("quaternionic", quaternionic)):
        for i in range(count):
            table = _promise_table(rng, 2**DJ_BITS, constant=i % 10 == 0)
            ops.append(_dj_op(kind, instruments[kind], ifr.OracleSpec(DJ_BITS, table)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# search: long success curves
# ---------------------------------------------------------------------------


def _search_op(m, marked: int, rounds: int) -> Op:
    N = m.n_branches

    def call():
        return ifr.grover_success_curve(m, marked, rounds)

    def check(curve) -> float:
        if len(curve) != rounds + 1:
            raise CheckFailed(f"{len(curve)} points, expected {rounds + 1}")
        deviation = max(abs(p - ifr.grover_closed_form(N, k)) for k, p in enumerate(curve))
        if deviation > SEARCH_TOL:
            raise CheckFailed(f"curve is {deviation:.3e} from the closed form")
        return deviation

    return Op(f"search.{m.name}", call, check)


def search(seed: int, rounds: int = SEARCH_ROUNDS) -> list[Op]:
    """One quantum N=64 and one quaternionic N=16 curve, run alternately.

    Two ops per pass let each op's best time draw on many passes.
    """
    rng = random.Random(seed)
    models = (th.quantum_theory(6), th.quaternionic_theory(16))
    return [_search_op(m, rng.randrange(m.n_branches), rounds) for m in models]


# ---------------------------------------------------------------------------
# suite: the command-line reproduction path
# ---------------------------------------------------------------------------


def _suite_argv(name: str, params: dict, seed: int) -> list[str]:
    argv = ["run", name]
    for key in sorted(params):
        argv += [f"--{key}", str(params[key])]
    return argv + ["--seed", str(seed)]


def _suite_op(argv: list[str], first: dict) -> Op:
    key = " ".join(argv)

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # parser.error on rejected input
                code = exc.code
        return code, out.getvalue()

    def check(result) -> float:
        code, text = result
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"output is not JSON: {exc}") from None
        if first.setdefault(key, text) != text:
            raise CheckFailed("output differs from an earlier run at the same seed")
        return float(report["results"].get("max_closed_form_deviation", 0.0))

    return Op(f"suite.{argv[1]}", call, check)


def suite(seed: int, reps: int = 6) -> list[Op]:
    """Every ``SUITE`` entry ``reps`` times at one seed drawn per entry."""
    rng = random.Random(seed)
    first: dict[str, str] = {}
    ops = []
    for name, params in SUITE:
        argv = _suite_argv(name, params, rng.randrange(2**31))
        ops += [_suite_op(argv, first)] * reps
    rng.shuffle(ops)
    return ops


BY_NAME = {"dj": dj, "search": search, "suite": suite}
