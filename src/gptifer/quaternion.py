"""Quaternion scalars, vectors and matrices with symplectic operations.

Quaternions are stored component-wise (1, i, j, k); matrices keep a single
``(4, rows, cols)`` float array so products reduce to real matrix products.
The symplectic dagger is transpose plus entrywise conjugation, and a square
matrix is symplectic when ``S @ S.dagger()`` is the identity.  Probabilities
are always extracted through :func:`real_trace_prob`, never read off ket
amplitudes, so the unobservability of the {+1, -1} global phase holds by
construction of the probability rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_ATOL


class NumericConsistencyError(ArithmeticError):
    """A quantity that must be numerically real carries imaginary residue."""


@dataclass(frozen=True)
class Quaternion:
    """Scalar a + ib + jc + kd with ii = jj = kk = ijk = -1."""

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return qmul(self, other)
        if isinstance(other, (int, float)):
            return Quaternion(self.a * other, self.b * other, self.c * other, self.d * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.a * other, self.b * other, self.c * other, self.d * other)
        return NotImplemented

    def __add__(self, other):
        return Quaternion(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other):
        return Quaternion(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __neg__(self):
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def norm(self) -> float:
        return float(np.sqrt(self.a**2 + self.b**2 + self.c**2 + self.d**2))

    def components(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def isclose(self, other: "Quaternion", atol: float = DEFAULT_ATOL) -> bool:
        return (
            abs(self.a - other.a) <= atol
            and abs(self.b - other.b) <= atol
            and abs(self.c - other.c) <= atol
            and abs(self.d - other.d) <= atol
        )

    def __repr__(self):
        return f"Quaternion({self.a:g}, {self.b:g}, {self.c:g}, {self.d:g})"


ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def qmul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product (non-commutative: ij = k but ji = -k)."""
    return Quaternion(
        p.a * q.a - p.b * q.b - p.c * q.c - p.d * q.d,
        p.a * q.b + p.b * q.a + p.c * q.d - p.d * q.c,
        p.a * q.c - p.b * q.d + p.c * q.a + p.d * q.b,
        p.a * q.d + p.b * q.c - p.c * q.b + p.d * q.a,
    )


def _hamilton_sign_tensor() -> np.ndarray:
    # _HAMILTON[p, q, r] is the coefficient of unit r in (unit p)(unit q)
    table = np.zeros((4, 4, 4))
    for p, x in enumerate(np.eye(4)):
        for q, y in enumerate(np.eye(4)):
            table[p, q] = qmul(Quaternion(*x), Quaternion(*y)).components()
    table.setflags(write=False)
    return table


# (r, pq) layout, so the contraction over component pairs is one matmul
_HAMILTON = _hamilton_sign_tensor().reshape(16, 4).T


def _hamilton_contract(pairs: np.ndarray) -> np.ndarray:
    """Components of a Hamilton product from its (4, 4, ...) component pairs."""
    return (_HAMILTON @ pairs.reshape(16, -1)).reshape((4,) + pairs.shape[2:])


def _hamilton_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # real matrices commute with the unit symbols, so every pair of
    # components contributes one real matrix product; one batched matmul
    # forms all sixteen and the sign tensor sums them into four components
    return _hamilton_contract(np.matmul(a[:, None], b[None, :]))


def _hamilton_entrywise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise Hamilton product of two (4, ...) component arrays."""
    return _hamilton_contract(a[:, None] * b[None, :])


def _conj(comps: np.ndarray) -> np.ndarray:
    """Entrywise conjugate of a (4, ...) component array, as a new array."""
    out = comps.copy()
    out[1:] *= -1.0
    return out


def _product_trace(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Components of tr(a @ b) in O(rows * cols), without forming a @ b."""
    return _hamilton_contract(np.einsum("pij,qji->pq", a, b))


class QuatMatrix:
    """Matrix of quaternions stored as a (4, rows, cols) component array."""

    __slots__ = ("comps",)

    def __init__(self, comps):
        arr = np.array(comps, dtype=float)
        if arr.ndim != 3 or arr.shape[0] != 4:
            raise ValueError("component array must have shape (4, rows, cols)")
        arr.setflags(write=False)
        object.__setattr__(self, "comps", arr)

    def __setattr__(self, name, value):
        raise AttributeError("QuatMatrix is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_real(cls, matrix) -> "QuatMatrix":
        real = np.asarray(matrix, dtype=float)
        comps = np.zeros((4,) + real.shape)
        comps[0] = real
        return cls(comps)

    @classmethod
    def identity(cls, n: int) -> "QuatMatrix":
        return cls.from_real(np.eye(n))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QuatMatrix":
        return cls(np.zeros((4, rows, cols)))

    @classmethod
    def diag(cls, entries) -> "QuatMatrix":
        n = len(entries)
        comps = np.zeros((4, n, n))
        for idx, q in enumerate(entries):
            comps[:, idx, idx] = q.components()
        return cls(comps)

    # -- structure ----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.comps.shape[1], self.comps.shape[2]

    # -- algebra -------------------------------------------------------------

    def __matmul__(self, other):
        if isinstance(other, QuatMatrix):
            return QuatMatrix(_hamilton_matmul(self.comps, other.comps))
        if isinstance(other, QuatKet):
            col = other.comps[:, :, None]
            return QuatKet(_hamilton_matmul(self.comps, col)[:, :, 0])
        return NotImplemented

    def __add__(self, other):
        return QuatMatrix(self.comps + other.comps)

    def __sub__(self, other):
        return QuatMatrix(self.comps - other.comps)

    def __neg__(self):
        return QuatMatrix(-self.comps)

    def dagger(self) -> "QuatMatrix":
        return QuatMatrix(_conj(np.transpose(self.comps, (0, 2, 1))))

    def isclose(self, other: "QuatMatrix", atol: float = DEFAULT_ATOL) -> bool:
        return bool(np.allclose(self.comps, other.comps, rtol=0.0, atol=atol))

    def complex_adjoint(self) -> np.ndarray:
        """Complex 2N x 2M matrix representing this matrix faithfully.

        Writing M = C1 + C2*j with complex blocks C1, C2, the representation
        [[C1, C2], [-conj(C2), conj(C1)]] is multiplicative and maps the
        symplectic dagger to the complex conjugate transpose, so spectra and
        positive semidefiniteness transfer.
        """
        c1 = self.comps[0] + 1j * self.comps[1]
        c2 = self.comps[2] + 1j * self.comps[3]
        top = np.concatenate([c1, c2], axis=1)
        bottom = np.concatenate([-np.conj(c2), np.conj(c1)], axis=1)
        return np.concatenate([top, bottom], axis=0)

    def __repr__(self):
        rows, cols = self.shape
        return f"QuatMatrix<{rows}x{cols}>"


class QuatKet:
    """Column vector of quaternions, stored as a (4, n) component array."""

    __slots__ = ("comps",)

    def __init__(self, comps):
        arr = np.array(comps, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != 4:
            raise ValueError("component array must have shape (4, n)")
        arr.setflags(write=False)
        object.__setattr__(self, "comps", arr)

    def __setattr__(self, name, value):
        raise AttributeError("QuatKet is immutable")

    @classmethod
    def from_quaternions(cls, entries) -> "QuatKet":
        comps = np.zeros((4, len(entries)))
        for i, q in enumerate(entries):
            comps[:, i] = q.components()
        return cls(comps)

    @property
    def dim(self) -> int:
        return self.comps.shape[1]

    def density(self) -> QuatMatrix:
        """Rank-1 projector |psi><psi| with entries psi_i * conj(psi_k)."""
        return QuatMatrix(_hamilton_matmul(self.comps[:, :, None], _conj(self.comps[:, None, :])))

    def isclose(self, other: "QuatKet", atol: float = DEFAULT_ATOL) -> bool:
        return bool(np.allclose(self.comps, other.comps, rtol=0.0, atol=atol))

    def __repr__(self):
        return f"QuatKet<dim={self.dim}>"


# ---------------------------------------------------------------------------
# Module operations
# ---------------------------------------------------------------------------


def real_trace_prob(E: QuatMatrix, rho: QuatMatrix, atol: float = DEFAULT_ATOL) -> float:
    """Probability tr(E rho), asserting the trace is numerically real.

    Raises :class:`NumericConsistencyError` when the trace carries imaginary
    residue above tolerance; measurement effects paired with states in this
    package (real-symmetric effects, or effects sharing the state's imaginary
    plane) keep the trace exactly real.
    """
    t = _product_trace(E.comps, rho.comps)
    residue = max(abs(t[1]), abs(t[2]), abs(t[3]))
    if residue > atol:
        raise NumericConsistencyError(
            f"trace has imaginary residue {residue:.3e} above tolerance {atol:.1e}"
        )
    return t[0]


def conjugate_state(S: QuatMatrix, rho: QuatMatrix) -> QuatMatrix:
    """Image S rho S.dagger() of a state under a symplectic transformation."""
    return S @ rho @ S.dagger()


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _vec_inner(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # sum_i conj(u_i) v_i over (4, n) component arrays, as a (4, 1) column
    return _hamilton_matmul(_conj(u)[:, None, :], v[:, :, None])[:, 0]


def random_symplectic(n: int, rng: np.random.Generator) -> QuatMatrix:
    """Random symplectic matrix via quaternionic Gram-Schmidt on Gaussians."""
    cols = [rng.standard_normal((4, n)) for _ in range(n)]
    ortho: list[np.ndarray] = []
    for v in cols:
        w = v
        for u in ortho:
            w = w - _hamilton_entrywise(u, _vec_inner(u, w))
        norm = np.sqrt(np.sum(w**2))
        if norm < 1e-12:
            raise RuntimeError("Gram-Schmidt degenerated; retry with another seed")
        ortho.append(w / norm)
    comps = np.stack(ortho, axis=2)
    return QuatMatrix(comps)
