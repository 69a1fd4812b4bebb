"""Linear feasibility with exactly checked verdicts.

:func:`linprog` decides whether some x satisfies A_ub x <= b_ub and
A_eq x = b_eq, with x free.  A dense phase-1 simplex in floats finds a
basis; exact integer arithmetic then turns that basis into the answer and
checks it, so no verdict rests on a float comparison.

- Feasible: the basis fixes x through its r tight rows (the rows whose own
  slack, or artificial, is not basic) over the r free variables it pivoted
  in.  x is solved exactly from that square system, the other coordinates
  fixed at 0 (the constraints do not see them), and checked against every
  row.
- Infeasible: the phase-1 multipliers y are read off the same basis.  Each
  row whose slack or artificial is basic has y_i in {-1, 0, 1}; the tight
  rows' y solves the transposed square system exactly.  y is a Farkas
  certificate once y_ub >= 0, y^T A = 0 and y^T b < 0 hold exactly.

Every float is a dyadic rational, so the exact stage runs in Python ints
over one common power-of-two denominator.  A check that fails raises
:class:`NumericConsistencyError` naming it; there is no fallback solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NumericConsistencyError

#: Below this a float tableau entry, reduced cost or phase-1 objective counts
#: as zero.  It steers the float search only; the exact stage decides.
PIVOT_TOL = 1e-9


@dataclass(frozen=True)
class LPResult:
    """A checked verdict: ``status`` 0 (feasible, witness ``x``) or 2
    (infeasible, Farkas ``certificate``: integer row multipliers y, one per
    inequality row then one per equality row, with y_ub >= 0, y^T A = 0 and
    y^T b < 0 exactly on the given floats)."""

    status: int
    message: str
    x: np.ndarray | None = None
    certificate: tuple[int, ...] | None = None

    @property
    def success(self) -> bool:
        return self.status == 0


def linprog(*, A_ub=None, b_ub=None, A_eq=None, b_eq=None) -> LPResult:
    """Decide A_ub x <= b_ub, A_eq x = b_eq over free x, checked exactly.

    Returns status 0 with a witness, or status 2 (infeasible) only with a
    Farkas certificate checked in exact arithmetic.  A basis whose exact
    check fails raises :class:`NumericConsistencyError`; malformed input
    (mismatched shapes, a NaN or infinite entry, no rows) raises ValueError.
    """
    a, b, n_ub = _rows(A_ub, b_ub, A_eq, b_eq)
    feasible, basis = _phase_one(a, b, n_ub)
    return _exact_verdict(a, b, n_ub, feasible, basis)


def _rows(A_ub, b_ub, A_eq, b_eq):
    # one (m, n) system, inequality rows first
    blocks = []
    for label, A, b in (("ub", A_ub, b_ub), ("eq", A_eq, b_eq)):
        if (A is None) != (b is None):
            raise ValueError(f"A_{label} and b_{label} must be given together")
        if A is None:
            blocks.append((np.zeros((0, 0)), np.zeros(0)))
            continue
        A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
        if A.ndim != 2 or b.shape != (A.shape[0],):
            raise ValueError(f"A_{label} must be (rows, variables) and b_{label} one entry per row, "
                             f"got {A.shape} and {b.shape}")
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError(f"A_{label} and b_{label} must be finite")
        blocks.append((A, b))
    (a_ub, b_ub), (a_eq, b_eq) = blocks
    n = max(a_ub.shape[1], a_eq.shape[1])
    if len(a_ub) + len(a_eq) == 0 or n == 0:
        raise ValueError("a feasibility problem needs at least one row and one variable")
    if len(a_ub) and len(a_eq) and a_ub.shape[1] != a_eq.shape[1]:
        raise ValueError(f"A_ub and A_eq must have the same variables, got {a_ub.shape[1]} and {a_eq.shape[1]}")
    a = np.vstack([a_ub.reshape(-1, n), a_eq.reshape(-1, n)])
    return a, np.concatenate([b_ub, b_eq]), len(a_ub)


def _pivot(t, r, j):
    t[r] /= t[r, j]
    col = t[:, j].copy()
    col[r] = 0.0
    t -= np.outer(col, t[r])


def _phase_one(a, b, n_ub):
    """Float phase 1: whether the system looks feasible, and the final basis.

    Column ids: x_j is j, row i's own variable (its slack, or for an
    equality row an artificial fixed at 0) is n + i, and the artificial of a
    row negated for a negative right-hand side is n + m + i.  The basis
    lists one column id per row.
    """
    m, n = a.shape
    t = np.zeros((m + 1, n + 2 * m + 1))
    t[:m, :n] = a
    t[:m, n:n + m] = np.eye(m)
    t[:m, -1] = b
    basis = np.arange(n, n + m)
    held = np.zeros(m, bool)  # rows whose basic variable is a free x_j: they never leave
    is_eq = np.arange(m) >= n_ub
    # free variables go in first, an equality row preferred; one that no row
    # reads (a lineality direction) stays out, at 0
    for j in range(n):
        size = np.where(held, 0.0, np.abs(t[:m, j]))
        eq_size = np.where(is_eq, size, 0.0)
        r = int(np.argmax(eq_size if eq_size.max() > PIVOT_TOL else size))
        if size[r] > PIVOT_TOL:
            _pivot(t, r, j)
            basis[r], held[r] = j, True
    negative = np.flatnonzero(~held & (t[:m, -1] < 0.0))
    t[negative] *= -1.0
    t[negative, n + m + negative] = 1.0
    basis[negative] = n + m + negative
    cost = np.zeros(n + 2 * m)
    cost[n + n_ub:] = 1.0  # equality rows' own variables and every artificial
    t[m, :-1] = cost
    t[m] -= cost[basis] @ t[:m]
    enters = np.zeros(n + 2 * m, bool)
    enters[n:n + n_ub] = True  # only slacks may enter: x is in, artificials stay out
    # Bland's rule: the least eligible column with negative reduced cost and a
    # pivot row enters, and of the rows with the least ratio, the one with the
    # least basic id leaves
    while True:
        for j in np.flatnonzero(enters & (t[m, :-1] < -PIVOT_TOL)):
            rows = np.flatnonzero(~held & (t[:m, j] > PIVOT_TOL))
            if rows.size:
                break
        else:
            break
        ratios = t[rows, -1] / t[rows, j]
        ties = rows[ratios <= ratios.min() + PIVOT_TOL]
        r = ties[np.argmin(basis[ties])]
        _pivot(t, r, j)
        basis[r] = j
    return bool(-t[m, -1] <= PIVOT_TOL), tuple(basis.tolist())


def _integers(a, b):
    # rows [A_i | b_i] scaled by one common power of two, as Python ints
    ratios = [[v.as_integer_ratio() for v in row] for row in np.column_stack([a, b]).tolist()]
    scale = max(den for row in ratios for _, den in row)
    return [[num * (scale // den) for num, den in row] for row in ratios]


def _solve_exact(matrix, rhs):
    """Integer numerators and one positive denominator of the solution of the
    square integer system, by fraction-free elimination; None if singular."""
    k = len(matrix)
    a = [list(row) + [v] for row, v in zip(matrix, rhs)]
    det = 1
    for c in range(k):
        p = next((i for i in range(c, k) if a[i][c]), None)
        if p is None:
            return None
        a[c], a[p] = a[p], a[c]
        for i in range(c + 1, k):
            a[i] = [(a[i][j] * a[c][c] - a[i][c] * a[c][j]) // det for j in range(k + 1)]
        det = a[c][c]
    num = [0] * k
    for i in reversed(range(k)):
        num[i] = (det * a[i][k] - sum(a[i][j] * num[j] for j in range(i + 1, k))) // a[i][i]
    return (num, det) if det > 0 else ([-v for v in num], -det)


def _exact_verdict(a, b, n_ub, feasible, basis):
    m, n = a.shape
    rows = _integers(a, b)
    pivots = sorted(c for c in basis if c < n)
    owner = {}  # row -> its basic slack or artificial
    for c in basis:
        if c >= n:
            owner.setdefault((c - n) % m, []).append(c)
    tight = [i for i in range(m) if i not in owner]
    if (len(basis) != m or len(set(basis)) != m or not all(0 <= c < n + 2 * m for c in basis)
            or any(len(cs) > 1 for cs in owner.values()) or len(tight) != len(pivots)):
        raise NumericConsistencyError(f"basis check: {basis} is not a basis of the {m} rows")
    square = [[rows[i][j] for j in pivots] for i in tight]
    if feasible:
        solved = _solve_exact(square, [rows[i][n] for i in tight])
        if solved is None:
            raise NumericConsistencyError("witness check: the tight rows are singular")
        x = [0] * n
        for j, v in zip(pivots, solved[0]):
            x[j] = v
        den = solved[1]
        for i, row in enumerate(rows):
            lhs, rhs = sum(map(int.__mul__, row, x)), row[n] * den
            if lhs > rhs or (i >= n_ub and lhs != rhs):
                kind = "inequality" if i < n_ub else "equality"
                raise NumericConsistencyError(f"witness check: the exact witness violates {kind} row {i}")
        return LPResult(0, "feasible: witness checked exactly against every row",
                        x=np.array([v / den for v in x]))
    # y_i = -sigma * cost of row i's basic variable: 0 for a slack, -1 for an
    # equality row's own variable, +1 for an artificial of a negated row
    y = [0] * m
    for i, (c,) in owner.items():
        y[i] = 1 if c >= n + m else (-1 if i >= n_ub else 0)
    rest = [-sum(y[i] * rows[i][j] for i in owner) for j in pivots]
    solved = _solve_exact([list(col) for col in zip(*square)], rest)
    if solved is None:
        raise NumericConsistencyError("Farkas check: the tight rows are singular")
    y = [v * solved[1] for v in y]
    for i, v in zip(tight, solved[0]):
        y[i] = v
    if any(v < 0 for v in y[:n_ub]):
        raise NumericConsistencyError("Farkas check: y_ub >= 0 fails, a negative multiplier on an inequality row")
    if any(sum(v * row[j] for v, row in zip(y, rows)) for j in range(n)):
        raise NumericConsistencyError("Farkas check: y^T A = 0 fails")
    if sum(v * row[n] for v, row in zip(y, rows)) >= 0:
        raise NumericConsistencyError("Farkas check: y^T b < 0 fails")
    g = math.gcd(*y)
    return LPResult(2, "infeasible: Farkas certificate checked exactly", certificate=tuple(v // g for v in y))
