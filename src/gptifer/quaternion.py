"""Quaternion scalars and matrices with symplectic operations.

Quaternions are stored component-wise (1, i, j, k); matrices keep a single
``(4, rows, cols)`` float array so products reduce to real matrix products.
A ket is a one-column matrix.  :class:`QuatMatrix` keeps what the matrix
core reads (components, ``shape``, ``@``, ``dagger``, ``complex_adjoint``);
``QuaternionicTheory`` builds identity and diagonal matrices.
The symplectic dagger is transpose plus entrywise conjugation, and a square
matrix is symplectic when ``S @ S.dagger()`` is the identity.  Probabilities
of a general effect are always extracted as a trace, tr(E rho) through
:func:`real_trace_prob`, or tr(E psi psi^dagger) = sum_i (E psi)_i
conj(psi_i) through ``MatrixTheory._ket_trace``, never read off ket
amplitudes, so the unobservability of the {+1, -1} global phase holds by
construction of the probability rule.  A real diagonal effect d reads a ket
as sum_i d_i |psi_i|^2, which no unit on the right changes either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_ATOL, near_zero


class NumericConsistencyError(ArithmeticError):
    """A numeric result fails a check it must pass: a quantity that must be
    real carries imaginary residue, or an LP verdict fails its exact check."""


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
        return NotImplemented

    def __add__(self, other):
        return Quaternion(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def norm(self) -> float:
        return float(np.sqrt(self.a**2 + self.b**2 + self.c**2 + self.d**2))

    def components(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def isclose(self, other: "Quaternion", atol: float = DEFAULT_ATOL) -> bool:
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails
            return near_zero([p - q for p, q in zip(self.components(), other.components())], atol)

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
    # forms all sixteen and the sign tensor sums them into four components,
    # contracted here rather than by _hamilton_contract: a search round's kernel
    pairs = np.matmul(a[:, None], b[None, :])
    return (_HAMILTON @ pairs.reshape(16, -1)).reshape(4, a.shape[1], b.shape[2])


def _hamilton_entrywise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise Hamilton product of two (4, ...) component arrays."""
    # einsum forms the sixteen component products without the two input
    # buffers, each the size of the products, that a broadcast
    # a[:, None] * b[None, :] allocates.  The products are the same but
    # for the sign of a zero, which the contraction's sums, started from
    # +0, do not carry: the result is the same to the bit
    return _hamilton_contract(np.einsum("p...,q...->pq...", a, b))


def _conj(comps: np.ndarray) -> np.ndarray:
    """Entrywise conjugate of a (4, ...) component array, as a new array."""
    out = comps.copy()
    out[1:] *= -1.0
    return out


def _product_trace(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Components of tr(a @ b) in O(rows * cols), without forming a @ b."""
    return _hamilton_contract(np.einsum("pij,qji->pq", a, b))


_FLOAT = np.dtype(np.float64)


class QuatMatrix:
    """Matrix of quaternions stored as a (4, rows, cols) component array."""

    __slots__ = ("comps",)

    def __init__(self, comps):
        # complex components, which a float read cuts to their real parts, strings and objects are refused
        arr = np.asarray(comps)
        if arr.dtype.kind not in "biuf":
            raise ValueError(f"QuatMatrix components must be real numbers, got dtype {arr.dtype}")
        arr = np.array(arr, dtype=float)
        if arr.ndim != 3 or arr.shape[0] != 4:
            raise ValueError("component array must have shape (4, rows, cols)")
        arr.setflags(write=False)
        object.__setattr__(self, "comps", arr)

    @classmethod
    def _of_product(cls, comps: np.ndarray) -> "QuatMatrix":
        # a freshly computed (4, rows, cols) float array that nothing else
        # holds, taken read-only as it is instead of copied; an array of
        # another dtype (a long-double diagonal's entries times an image) is
        # converted and checked by the constructor
        if comps.dtype is not _FLOAT:  # an identity test: != converts np.float64 on every call
            return cls(comps)
        comps.setflags(write=False)
        M = object.__new__(cls)
        object.__setattr__(M, "comps", comps)
        return M

    def __setattr__(self, name, value):
        raise AttributeError("QuatMatrix is immutable")

    # -- structure ----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.comps.shape[1:]

    # -- algebra -------------------------------------------------------------

    def __matmul__(self, other):
        if isinstance(other, QuatMatrix):
            return QuatMatrix._of_product(_hamilton_matmul(self.comps, other.comps))
        return NotImplemented

    def dagger(self) -> "QuatMatrix":
        return QuatMatrix(_conj(np.transpose(self.comps, (0, 2, 1))))

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
    return _real_part(_product_trace(E.comps, rho.comps), atol)


def _real_part(t: np.ndarray, atol: float) -> float:
    # the real component of a trace whose i/j/k residue must be within atol
    if not near_zero(t[1:], atol):
        raise NumericConsistencyError(
            f"trace has imaginary residue {np.abs(t[1:]).max():.3e} above tolerance {atol:.1e}"
        )
    return t[0]


def conjugate_state(S: QuatMatrix, rho: QuatMatrix) -> QuatMatrix:
    """Image S rho S.dagger() of a state under a symplectic transformation."""
    return S @ rho @ S.dagger()
