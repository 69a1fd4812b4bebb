"""Interferometric protocols: oracle construction, constant-vs-balanced
discrimination, distinguishing-effect search, and unordered search.

An oracle is assembled from per-branch transformations chosen by independent
agents; each choice must be localizable to its own branch (criterion i), and
the assembled transformations must pairwise commute so the composition order
carries no physics.  The constant-vs-balanced run then asks for one fixed
effect that separates the two output classes (criterion ii), either exactly
or, in the weak variant, by a majority: one homogeneous linear system in the
effect e and its bound s, checked exactly in (e, s), of which e/s is the
float image.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Effect, GptState, TheoryModel, VectorTheory, _exact_int, near_zero
from .lp import linprog
from .phase import is_branch_local, localizable_union
from .theories import (
    MatrixTheory,
    embed_rotation,
    gbit_theory,
    quantum_theory,
    quaternionic_theory,
    spekkens_epistemic_statistics,
    spekkens_epistemic_theory,
    spekkens_ontic_statistics,
    spekkens_ontic_theory,
)


class BranchLocalityError(ValueError):
    """An encoding member cannot be localized to its branch (criterion i)."""

    def __init__(self, failures):
        self.failures = tuple(failures)
        detail = "; ".join(
            f"branch {branch}: choice for f(x)={bit} is not branch-local"
            for branch, bit in self.failures
        )
        super().__init__(f"encoding violates branch locality: {detail}")


class NonCommutingEncodingError(ValueError):
    """Encoding members do not pairwise commute, so agent order would matter."""


class UnsupportedTheoryError(ValueError):
    """The theory lacks the machinery a protocol needs."""


# ---------------------------------------------------------------------------
# Oracle specifications
# ---------------------------------------------------------------------------


def _json_fields(cls, text: str, keys: tuple[str, ...]) -> list:
    # the values of exactly these keys of a JSON object, in this order; a
    # missing or an extra key, or another JSON value, is refused by name
    data = json.loads(text)
    if not isinstance(data, dict) or set(data) != set(keys):
        got = sorted(data) if isinstance(data, dict) else type(data).__name__
        raise ValueError(f"{cls.__name__} JSON must be an object with exactly the keys {sorted(keys)}, got {got}")
    return [data[key] for key in keys]


@dataclass(frozen=True)
class OracleSpec:
    """Truth table of f: n-bit strings -> {0, 1}, indexed by branch."""

    n: int
    table: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _exact_int(self.n, "n", low=1, owner="OracleSpec"))
        if isinstance(self.table, (str, bytes)) or not isinstance(self.table, (Sequence, np.ndarray)):
            raise ValueError(f"table must be a sequence of bits, got {self.table!r}")
        object.__setattr__(self, "table", tuple(_exact_int(b, "table entry") for b in self.table))
        size = len(self.table)
        if size & (size - 1) or size.bit_length() != self.n + 1:  # 2**n, never formed
            raise ValueError(f"table must have 2**{self.n} entries")
        if any(b not in (0, 1) for b in self.table):
            raise ValueError("table entries must be bits")

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "table": list(self.table)}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "OracleSpec":
        return cls(*_json_fields(cls, text, ("n", "table")))

    @classmethod
    def from_file(cls, path) -> "OracleSpec":
        return cls.from_json(Path(path).read_text())

    def to_file(self, path) -> None:
        Path(path).write_text(self.to_json())


def classify(spec: OracleSpec) -> str:
    """'constant', 'balanced', or 'neither' by counting ones."""
    ones = sum(spec.table)
    if ones in (0, len(spec.table)):
        return "constant"
    if 2 * ones == len(spec.table):
        return "balanced"
    return "neither"


#: Largest n whose promise tables are enumerated: 12,872 tables at n = 4,
#: C(32, 16) + 2 = 601,080,392 at n = 5.
MAX_PROMISE_BITS = 4


def check_promise_bits(n: int) -> None:
    """Raise ValueError if n is above :data:`MAX_PROMISE_BITS`; a sweep calls
    this before it builds its instruments."""
    _exact_int(n, "n", high=MAX_PROMISE_BITS, owner="constant_balanced_specs", bound="MAX_PROMISE_BITS")


def constant_balanced_specs(n: int) -> tuple[OracleSpec, ...]:
    """All constant then all balanced tables, in lexicographic order; n above
    :data:`MAX_PROMISE_BITS` raises ValueError before any table is built."""
    check_promise_bits(n)
    N = 2**n
    specs = [OracleSpec(n, (0,) * N), OracleSpec(n, (1,) * N)]
    for ones in itertools.combinations(range(N), N // 2):
        table = [0] * N
        for idx in ones:
            table[idx] = 1
        specs.append(OracleSpec(n, tuple(table)))
    return tuple(specs)


@dataclass(frozen=True)
class BranchEncoding:
    """Per-branch transformation pair (choice for f(x)=0, choice for f(x)=1)."""

    pairs: tuple[tuple[object, object], ...]

    @property
    def n_branches(self) -> int:
        return len(self.pairs)

    def choice(self, branch: int, bit: int):
        return self.pairs[branch][bit]

    def members(self):
        for branch, (t0, t1) in enumerate(self.pairs):
            yield branch, 0, t0
            yield branch, 1, t1


@dataclass(frozen=True)
class DJOutcome:
    """Result of one constant-vs-balanced run."""

    p_constant_effect: float
    verdict: str
    output_state: object


#: Largest number of search rounds: a curve keeps one probability per round, and
#: its closed form another, about 64 MB at 10**6 rounds.
MAX_GROVER_ITERATIONS = 10**6


@dataclass(frozen=True)
class GroverConfig:
    """Unordered-search setup: N branches, one marked, k repetitions."""

    N: int
    marked: int
    iterations: int

    def __post_init__(self):
        object.__setattr__(self, "N", _exact_int(self.N, "N"))
        if self.N < 2 or self.N & (self.N - 1):
            raise ValueError("N must be a power of two, at least 2")
        object.__setattr__(self, "marked", _exact_int(self.marked, "marked", 0, self.N - 1, "GroverConfig"))
        iterations = _exact_int(self.iterations, "iterations", 0, MAX_GROVER_ITERATIONS, "GroverConfig", "MAX_GROVER_ITERATIONS")
        object.__setattr__(self, "iterations", iterations)

    def to_json(self) -> str:
        return json.dumps(
            {"N": self.N, "marked": self.marked, "iterations": self.iterations},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "GroverConfig":
        return cls(*_json_fields(cls, text, ("N", "marked", "iterations")))


# ---------------------------------------------------------------------------
# Oracle assembly and the constant-vs-balanced run
# ---------------------------------------------------------------------------

VERDICT_ATOL = 1e-9


def validate_encoding(m: TheoryModel, enc: BranchEncoding) -> None:
    """Check an encoding once, for every table it serves: each member must be
    localizable to its own branch, and members must pairwise commute so that
    the ascending-index composition order is physically irrelevant.  Identity
    members are exempt (the identity fixes every state and commutes with all)."""
    if enc.n_branches != m.n_branches:
        raise ValueError(f"encoding covers {enc.n_branches} branches, theory {m.name!r} has {m.n_branches}")
    nontrivial = []
    failures = []
    for branch, bit, T in enc.members():
        if m.is_identity_map(T):
            continue
        nontrivial.append((branch, bit, T))
        if not is_branch_local(m, T, branch):
            failures.append((branch, bit))
    if failures:
        raise BranchLocalityError(failures)
    for (b1, _, T1), (b2, _, T2) in itertools.combinations(nontrivial, 2):
        if not m.maps_commute(T1, T2):
            raise NonCommutingEncodingError(
                f"choices on branches {b1} and {b2} do not commute"
            )


def _compose(m: TheoryModel, table, enc: BranchEncoding):
    # the choices a table selects, composed in ascending branch order
    oracle = m.identity_map()
    for branch, bit in enumerate(table):
        oracle = m.compose(enc.choice(branch, bit), oracle)
    return oracle


def build_oracle(m: TheoryModel, spec: OracleSpec, enc: BranchEncoding):
    """Validate the encoding, then compose the choices the truth table selects."""
    if len(spec.table) != m.n_branches:
        raise ValueError(f"truth table covers {len(spec.table)} branches, theory {m.name!r} has {m.n_branches}")
    validate_encoding(m, enc)
    return _compose(m, spec.table, enc)


def dj_outcome(m: TheoryModel, s_out, e_C) -> DJOutcome:
    """Read an output state with the closing effect: p and the verdict."""
    p = m.probability(e_C, s_out)
    verdict = "constant" if near_zero(p - 1.0, VERDICT_ATOL) else "balanced" if near_zero(p, VERDICT_ATOL) else "indeterminate"
    return DJOutcome(p, verdict, s_out)


def _query(m: TheoryModel, spec: OracleSpec, oracle, s_in, e_C) -> DJOutcome:
    """The tail every constant-vs-balanced query shares: the promise check,
    then ``oracle(promise)`` applied to ``s_in`` and read out with ``e_C``."""
    promise = classify(spec)
    if promise == "neither":
        raise ValueError("the constant-vs-balanced run requires a promise-abiding table")
    return dj_outcome(m, m.apply(oracle(promise), s_in), e_C)


def run_dj(m: TheoryModel, spec: OracleSpec, enc: BranchEncoding, s_in, e_C) -> DJOutcome:
    """One constant-vs-balanced query.

    ``s_in`` and ``e_C`` are fixed by the caller before the truth table is
    consulted, keeping the instruments independent of the oracle's content.
    """
    return _query(m, spec, lambda _: build_oracle(m, spec, enc), s_in, e_C)


def promise_sweep(m: TheoryModel, enc: BranchEncoding, s_in):
    """(spec, output state) per promise table on log2 N bits, in the order of
    :func:`constant_balanced_specs`, each state bit for bit as :func:`run_dj`
    forms it.  The encoding is validated once, before any table is composed."""
    N = m.n_branches
    if N & (N - 1):
        raise ValueError(f"promise tables cover 2**n branches, theory {m.name!r} has {N}, no power of two")
    specs = constant_balanced_specs(N.bit_length() - 1)
    validate_encoding(m, enc)
    return ((spec, m.apply(_compose(m, spec.table, enc), s_in)) for spec in specs)


def run_dj_with_global_oracle(m: TheoryModel, spec: OracleSpec, balanced_op, s_in, e_C) -> DJOutcome:
    """Degenerate protocol with one agent who inspects f as a whole.

    Applies the identity when f is constant and ``balanced_op`` when it is
    balanced: a trivial oracle that answers the question directly, with no
    distributed structure left.
    """
    return _query(m, spec, lambda promise: m.identity_map() if promise == "constant" else balanced_op, s_in, e_C)


# ---------------------------------------------------------------------------
# Criterion ii: searching for a distinguishing effect
# ---------------------------------------------------------------------------


def find_distinguishing_effect(
    m: TheoryModel,
    enc: BranchEncoding,
    s_in,
    strict: bool = True,
):
    """Search for one effect satisfying criterion ii over all promise tables.

    For polytope theories the search is a linear feasibility problem in
    (e, s), homogeneous, with s standing for the bound 1: every vertex v
    gives 0 <= v.e <= s.  Strict mode sets s = 1 and demands pairing 1 with
    every constant output and 0 with every balanced one.  Weak mode demands
    out.e - s/2 >= 1 on every constant output, <= -1 on every balanced one,
    and s >= 1: any strict majority scales to this, so no margin is chosen
    and every coefficient is a statistic, 0, +-1 or +-1/2.  Round and
    matrix-backed theories raise :class:`UnsupportedTheoryError`.  Returns
    a witness effect, checked exactly against every row (weak mode checks
    (e, s) and returns its float image e/s), or None only with a checked
    Farkas certificate: multipliers that prove the rows infeasible in exact
    arithmetic (see :mod:`gptifer.lp`).  A failed exact check raises
    :class:`NumericConsistencyError`, any other outcome RuntimeError, not a no-go.
    """
    if not isinstance(m, VectorTheory) or m.extremal_states is None:
        raise UnsupportedTheoryError("effect search needs a polytope theory")
    a_ub, a_eq = [], []
    for v in m.extremal_states:  # v.e - s <= 0 and -v.e <= 0
        a_ub += [np.append(v.probs, -1.0), np.append(-v.probs, 0.0)]
    b_ub = [0.0] * len(a_ub)
    for spec, out in promise_sweep(m, enc, s_in):
        constant = classify(spec) == "constant"
        if strict:  # out.e - s = 0 or out.e = 0
            a_eq.append(np.append(out.probs, -1.0 if constant else 0.0))
        else:  # -(out.e - s/2) <= -1 or out.e - s/2 <= -1
            a_ub.append((-1.0 if constant else 1.0) * np.append(out.probs, -0.5))
            b_ub.append(-1.0)
    if strict:  # s = 1 moves the last column to the right-hand sides, as 0.0 - x: never -0.0
        a_ub, a_eq = np.array(a_ub), np.array(a_eq)
        kw = dict(A_ub=a_ub[:, :-1], b_ub=np.array(b_ub) - a_ub[:, -1], A_eq=a_eq[:, :-1], b_eq=0.0 - a_eq[:, -1])
    else:  # and -s <= -1
        a_ub.append(np.append(np.zeros_like(v.probs), -1.0))
        kw = dict(A_ub=np.array(a_ub), b_ub=np.array(b_ub + [-1.0]), A_eq=None, b_eq=None)
    result = linprog(**kw)
    if result.status == 2:
        return None
    if not result.success:
        raise RuntimeError(
            f"effect search LP ended with status {result.status}: {result.message}"
        )
    return Effect(result.x if strict else result.x[:-1] / result.x[-1])


# ---------------------------------------------------------------------------
# Unordered search
# ---------------------------------------------------------------------------


def grover_closed_form(N: int, iterations: int) -> float:
    """Success probability sin^2((2k+1) arcsin(1/sqrt(N)))."""
    theta = math.asin(1.0 / math.sqrt(N))
    return math.sin((2 * iterations + 1) * theta) ** 2


def grover_iteration_budget(N: int) -> int:
    """Standard repetition count floor(pi/4 * sqrt(N))."""
    return int(math.floor(math.pi / 4.0 * math.sqrt(N)))


def grover_success_curve(m: TheoryModel, marked: int, max_iterations: int):
    """Marked-branch probability after 0..max_iterations rounds.

    Each round applies the marked-branch phase flip, the beamsplitter, a
    phase flip on branch 0, and the beamsplitter again, starting from the
    uniform superposition the beamsplitter prepares out of branch 0.  The
    state stays pure, so it is evolved as a ket, O(N^2) per round, and read
    through the marked branch's diagonal effect in O(N).
    """
    marked = _exact_int(marked, "marked", 0, m.n_branches - 1, "grover_success_curve")
    max_iterations = _exact_int(
        max_iterations, "max_iterations", 0, MAX_GROVER_ITERATIONS, "grover_success_curve", "MAX_GROVER_ITERATIONS"
    )
    if m.beamsplitter is None:
        diagnosis = ""
        try:
            union = localizable_union(m)
            names = sorted(e.name for e in union)
            diagnosis = f"; its localizable phase operations are only {names}"
        except ValueError:
            pass
        raise UnsupportedTheoryError(
            f"theory {m.name!r} has no beamsplitter transform{diagnosis}"
        )
    N = m.n_branches
    n = int(round(math.log2(N)))  # exact: only a power-of-two N has a beamsplitter
    enc = sign_encoding(m)
    oracle = build_oracle(m, OracleSpec(n, tuple(1 if x == marked else 0 for x in range(N))), enc)
    flip0 = build_oracle(m, OracleSpec(n, tuple(1 if x == 0 else 0 for x in range(N))), enc)
    B = m.beamsplitter
    step = m.compose(B, m.compose(flip0, m.compose(B, oracle)))
    state = m.apply(B, m.branch_ket(0))
    z_marked = m.diagonal_map(np.arange(N) == marked)
    curve = [m.probability(z_marked, state)]
    for _ in range(max_iterations):
        state = m.apply(step, state)
        curve.append(m.probability(z_marked, state))
    return curve


def run_grover(m: TheoryModel, cfg: GroverConfig) -> float:
    """Probability of finding the marked branch after cfg.iterations rounds."""
    if cfg.N != m.n_branches:
        raise ValueError("configured branch count does not match the theory")
    return grover_success_curve(m, cfg.marked, cfg.iterations)[-1]


# ---------------------------------------------------------------------------
# Canonical per-theory instruments (fixed before any truth table is read)
# ---------------------------------------------------------------------------


def sign_encoding(m: TheoryModel) -> BranchEncoding:
    """Identity / phase-flip pair on every branch of a matrix theory."""
    if not isinstance(m, MatrixTheory):
        raise UnsupportedTheoryError(f"no sign encoding for theory {m.name!r}")
    # row x of 1 - 2 I flips the sign of branch x alone; every branch shares
    # one read-only identity
    identity = m.identity_map()
    return BranchEncoding(tuple((identity, m.diagonal_map(row)) for row in 1.0 - 2.0 * np.eye(m.dim)))


def _matrix_dj_instruments(m: MatrixTheory):
    """Model, sign encoding, uniform input state and closing effect."""
    if m.beamsplitter is None:
        raise ValueError("branch count must be a power of two")
    B = m.beamsplitter
    return m, sign_encoding(m), m.uniform_superposition(), m.compose(m.compose(B, m.branch_state(0)), B)


def quantum_dj_instruments(n: int):
    """Instruments for 2**n branches."""
    return _matrix_dj_instruments(quantum_theory(n))


def quaternionic_dj_instruments(N: int):
    """Instruments for N branches; N must be a power of two."""
    return _matrix_dj_instruments(quaternionic_theory(N))


def spekkens_epistemic_dj_instruments():
    """Both agents swap within both outcome pairs when their bit is 1.

    Input is the X=+1 state; the closing effect is the X=+1 functional.
    """
    m = spekkens_epistemic_theory()
    swap_both = m.group.by_name("2143")
    enc = BranchEncoding(((m.identity_map(), swap_both), (m.identity_map(), swap_both)))
    s_in = spekkens_epistemic_statistics(frozenset({1, 3}))
    e_C = Effect(np.eye(6)[0])  # X=+1 coordinate effect
    return m, enc, s_in, e_C


def spekkens_ontic_dj_instruments():
    """Each agent swaps the two points resident on its own branch.

    The encoding passes criterion i, yet the two actions are disjoint
    permutations that cannot cancel, which is what defeats criterion ii.
    """
    m = spekkens_ontic_theory()
    upper = m.group.by_name("2134")
    lower = m.group.by_name("1243")
    enc = BranchEncoding(((m.identity_map(), upper), (m.identity_map(), lower)))
    mix = 0.5 * (
        spekkens_ontic_statistics(1).probs + spekkens_ontic_statistics(3).probs
    )
    s_in = GptState(mix)
    e_C = Effect(np.eye(6)[0])
    return m, enc, s_in, e_C


def ball_dj_instruments(m: TheoryModel):
    """Half-turn encoding for a ball theory (single-bit problem only).

    Both branches get the rotation by pi in the first two non-branch
    coordinates; the input is the first-measurement +1 surface state and the
    closing effect its functional.  Needs at least three measurements, since
    the two-measurement ball has no orientation-preserving phase dynamics.
    """
    d = len(m.fiducial_layout)
    if d < 3:
        raise UnsupportedTheoryError(
            "the two-measurement ball has a trivial phase group; no encoding exists"
        )
    R = np.eye(d)
    R[0, 0] = -1.0
    R[1, 1] = -1.0
    half_turn = embed_rotation(R, "half-turn(12)")
    enc = BranchEncoding(((m.identity_map(), half_turn), (m.identity_map(), half_turn)))
    vec = np.full(2 * d, 0.5)
    vec[0] = 1.0
    vec[1] = 0.0
    s_in = GptState(vec)
    e_C = Effect(np.eye(2 * d)[0])
    return m, enc, s_in, e_C


def gbit_global_instruments():
    """Square-bit setup for the global (non-distributed) protocol."""
    m = gbit_theory(2)
    x_flip = m.group.by_name("X-flip")
    vec = np.array([0.5, 0.5, 1.0, 0.0])
    s_in = GptState(vec)
    e_C = Effect(np.eye(4)[2])  # X=+1
    return m, x_flip, s_in, e_C
