"""Foundation for operational theories: states, effects, transformations.

A state is a vector of outcome probabilities for a fixed list of fiducial
measurements; an effect is a covector whose pairing with a state gives an
outcome probability; reversible dynamics are real matrices mapping the state
space onto itself.  A :class:`TheoryModel` bundles a state space with its
branch ("which arm?") measurement and its transformation group, and reduces
"for all states" questions to finite spanning sets: every predicate used in
this package is affine in the state, so checking it on an affine spanning set
settles it everywhere.

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np

#: Absolute tolerance for theories that need floating-point comparisons.
#: Theories whose matrices are integer-valued use an exact tolerance of 0.
DEFAULT_ATOL = 1e-9


def _readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _off_diagonal(a: np.ndarray) -> np.ndarray:
    # the off-diagonal entries of an n x n matrix, read row by row, are the
    # first n columns of its flat tail reshaped to (n - 1, n + 1); leading
    # axes (such as quaternion components) are carried along
    lead, n = a.shape[:-2], a.shape[-1]
    return a.reshape(*lead, -1)[..., 1:].reshape(*lead, n - 1, n + 1)[..., :n]


def _off_diagonal_within(a: np.ndarray, atol: float) -> bool:
    off = _off_diagonal(a)
    return bool(not off.any() or np.abs(off).max() <= atol)


def is_diagonal(a, atol: float) -> bool:
    """Whether every off-diagonal entry of the trailing square axes is within ``atol``.

    The comparison is absolute (no relative term). An infinite diagonal entry
    still counts as diagonal; NaN anywhere makes the answer False.
    """
    a = np.asarray(a)
    return _off_diagonal_within(a, atol) and not np.isnan(
        np.diagonal(a, axis1=-2, axis2=-1)
    ).any()


def finite_diagonal(a, atol: float) -> np.ndarray | None:
    """The diagonal of the trailing square axes, or None unless every
    off-diagonal entry is within ``atol`` (as in :func:`is_diagonal`) and
    every diagonal entry is finite."""
    a = np.asarray(a)
    if not _off_diagonal_within(a, atol):
        return None
    d = np.diagonal(a, axis1=-2, axis2=-1)
    return d if np.isfinite(d).all() else None


@dataclass(frozen=True, eq=False)
class GptState:
    """Vector of fiducial-measurement outcome probabilities."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _readonly(self.probs))
        if self.probs.ndim != 1:
            raise ValueError("a state must be a flat probability vector")

    @property
    def dim(self) -> int:
        return self.probs.shape[0]

    def __repr__(self):
        return f"GptState({np.array2string(self.probs, separator=', ')})"


@dataclass(frozen=True, eq=False)
class Effect:
    """Covector pairing with states to give an outcome probability."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _readonly(self.weights))
        if self.weights.ndim != 1:
            raise ValueError("an effect must be a flat covector")

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def __repr__(self):
        return f"Effect({np.array2string(self.weights, separator=', ')})"


@dataclass(frozen=True, eq=False)
class LinearMap:
    """Real square matrix acting on probability vectors.

    ``name`` is a human-readable label used in reports ("identity",
    "X-flip", one-line permutation strings, ...).  Equality and hashing go
    through the matrix bytes so finite groups can be used as sets.
    """

    matrix: np.ndarray
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "matrix", _readonly(self.matrix))
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("a transformation must be a square matrix")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return self.matrix.shape == other.matrix.shape and np.array_equal(
            self.matrix, other.matrix
        )

    def __hash__(self):
        return hash((self.matrix.shape, self.matrix.tobytes()))

    def __repr__(self):
        label = self.name or "unnamed"
        return f"LinearMap<{label}, dim={self.dim}>"


# ---------------------------------------------------------------------------
# Transformation groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteGroup:
    """Explicit list of reversible transformations, closed under composition."""

    elements: tuple[LinearMap, ...]

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def by_name(self, name: str) -> LinearMap:
        for e in self.elements:
            if e.name == name:
                return e
        raise KeyError(name)


@dataclass(frozen=True)
class ParametricFamily:
    """A continuous family of transformations given by description + sampler."""

    description: str
    sample: Callable[[np.random.Generator], Any]


@dataclass(frozen=True)
class ParametricGroup:
    """Continuous transformation group, given by its declared phase families.

    ``phase_family`` describes the claimed phase operations, ``branch_family(i)``
    those claimed to be locally implementable on branch ``i``; the claims are
    verified by seeded sampling in the phase-analysis layer, never assumed.
    """

    phase_family: ParametricFamily
    branch_family: Callable[[int], ParametricFamily]


TransformationGroup = FiniteGroup | ParametricGroup


# ---------------------------------------------------------------------------
# Theory models
# ---------------------------------------------------------------------------


class TheoryModel:
    """Base interface shared by all concrete theories.

    Subclasses fix the state representation (probability vectors here;
    density matrices for the many-level quantum-like theories) and implement
    the pairing, action and comparison primitives.  Everything downstream
    (phase analysis, interferometry) is written against this interface.
    """

    def __init__(
        self,
        name: str,
        fiducial_layout: Sequence[tuple[str, int]],
        n_branches: int,
        group: TransformationGroup,
        atol: float = DEFAULT_ATOL,
    ):
        if n_branches < 2:
            raise ValueError("the branch measurement needs at least two outcomes")
        for label, count in fiducial_layout:
            if count < 2:
                raise ValueError(f"measurement {label!r} needs at least two outcomes")
        self.name = name
        self.fiducial_layout = tuple(fiducial_layout)
        self._n_branches = int(n_branches)
        self.group = group
        self.atol = float(atol)
        #: Hadamard-type transform mixing all branches, if the theory has one.
        self.beamsplitter = None

    @property
    def n_branches(self) -> int:
        return self._n_branches

    @property
    def z_effects(self) -> tuple:
        """Effects of the branch measurement, one per branch."""
        raise NotImplementedError

    @property
    def spanning_states(self) -> tuple:
        """Finite set of states affinely spanning the state space."""
        raise NotImplementedError

    # -- representation-specific primitives --------------------------------

    def branch_probabilities(self, state) -> np.ndarray:
        """Statistics of the branch measurement on ``state``, one per branch."""
        raise NotImplementedError

    def probability(self, effect, state) -> float:
        raise NotImplementedError

    def apply(self, trans, state):
        raise NotImplementedError

    def contains(self, state) -> bool:
        raise NotImplementedError

    @cached_property
    def _faces(self) -> tuple:
        stats = [self.branch_probabilities(s) for s in self.spanning_states]
        return tuple(
            tuple(s for s, p in zip(self.spanning_states, stats) if abs(p[b]) <= self.atol)
            for b in range(self.n_branches)
        )

    def face_states(self, branch: int) -> tuple:
        """Affine spanning set of the zero-support face of ``branch``: the
        spanning states with no probability on it."""
        return self._faces[branch]

    def branch_local_probes(self, branch: int) -> tuple:
        """States probed by the branch-locality test.

        Defaults to the full face spanning set; theories may substitute a
        smaller set that is equivalent for norm-preserving reversible maps.
        """
        return self.face_states(branch)

    def states_close(self, a, b) -> bool:
        raise NotImplementedError

    def compose(self, second, first):
        """Transformation applying ``first`` and then ``second``."""
        raise NotImplementedError

    def identity_map(self):
        raise NotImplementedError

    def is_identity_map(self, trans) -> bool:
        """Whether ``trans`` acts as the identity on every state."""
        raise NotImplementedError

    def maps_commute(self, a, b) -> bool:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r}>"


class VectorTheory(TheoryModel):
    """Theory whose states are explicit probability vectors.

    ``branch_measurement`` is the index of the layout block that the branch
    measurement reads (negative indices count from the end); its effects are
    the coordinate covectors of that block.  A state is contained when its
    blocks are probability distributions and, if given, ``within`` holds
    for it: the extra constraint that cuts the state space out of the
    product of simplices (a ball bound, a tetrahedron's weights, ...).
    """

    def __init__(
        self,
        name: str,
        fiducial_layout: Sequence[tuple[str, int]],
        branch_measurement: int,
        spanning_states: Sequence[GptState],
        group: TransformationGroup,
        within: Callable[[GptState], bool] | None = None,
        atol: float = DEFAULT_ATOL,
        extremal_states: Sequence[GptState] | None = None,
    ):
        counts = [count for _, count in fiducial_layout]
        n_branches = counts[branch_measurement]
        super().__init__(name, fiducial_layout, n_branches, group, atol)
        self._spanning = tuple(spanning_states)
        self._within = within
        #: Vertices of the state polytope, or None for round state spaces.
        self.extremal_states = None if extremal_states is None else tuple(extremal_states)
        self.state_dim = sum(counts)
        if any(s.dim != self.state_dim for s in self._spanning):
            raise ValueError("inconsistent state dimensions in theory definition")
        offset = sum(counts[: branch_measurement % len(counts)])
        self._z_weights = _readonly(np.eye(self.state_dim)[offset : offset + n_branches])

    @cached_property
    def z_effects(self):
        return tuple(Effect(w) for w in self._z_weights)

    @property
    def spanning_states(self):
        return self._spanning

    def branch_probabilities(self, state) -> np.ndarray:
        return self._z_weights @ state.probs

    def probability(self, effect, state) -> float:
        return probability(effect, state)

    def apply(self, trans, state):
        return apply(trans, state)

    def contains(self, state) -> bool:
        if state.dim != self.state_dim:
            raise ValueError(
                f"state dimension {state.dim} does not match theory dimension {self.state_dim}"
            )
        return valid_layout(state, self.fiducial_layout, self.atol) and (
            self._within is None or bool(self._within(state))
        )

    def states_close(self, a, b) -> bool:
        return bool(np.allclose(a.probs, b.probs, rtol=0.0, atol=self.atol))

    def compose(self, second, first):
        name = ""
        if second.name and first.name:
            name = f"{second.name}*{first.name}"
        return LinearMap(second.matrix @ first.matrix, name)

    def identity_map(self):
        return LinearMap(np.eye(self.state_dim), "identity")

    def is_identity_map(self, trans) -> bool:
        return bool(
            np.allclose(trans.matrix, np.eye(self.state_dim), rtol=0.0, atol=self.atol)
        )

    def maps_commute(self, a, b) -> bool:
        # compared as actions on states: linear extensions off the
        # normalized hull (e.g. embedded rotations) may differ as raw
        # matrices while commuting operationally
        ab = self.compose(a, b)
        ba = self.compose(b, a)
        return all(
            self.states_close(apply(ab, s), apply(ba, s)) for s in self.spanning_states
        )


# ---------------------------------------------------------------------------
# Module-level operations on the vector representation
# ---------------------------------------------------------------------------


def probability(e: Effect, s: GptState) -> float:
    """Outcome probability of effect ``e`` on state ``s``.

    Returns the raw pairing without clamping so that invariant violations
    (values outside [0, 1]) stay detectable by callers and tests.
    """
    if e.dim != s.dim:
        raise ValueError(f"effect dimension {e.dim} does not match state dimension {s.dim}")
    return float(e.weights @ s.probs)


def apply(T: LinearMap, s: GptState) -> GptState:
    """Image of state ``s`` under ``T``.  Membership is not re-validated."""
    if T.dim != s.dim:
        raise ValueError(f"map dimension {T.dim} does not match state dimension {s.dim}")
    return GptState(T.matrix @ s.probs)


def preserves_statespace(m: TheoryModel, T) -> bool:
    """Whether ``T`` maps the state space of ``m`` into itself.

    Checked on the spanning set: membership of every image, plus
    preservation of the branch-measurement normalization.
    """
    tol = max(m.atol, 1e-12)
    for s in m.spanning_states:
        out = m.apply(T, s)
        if not m.contains(out):
            return False
        if not abs(m.branch_probabilities(out).sum() - m.branch_probabilities(s).sum()) <= tol:
            return False
    return True


def is_valid_effect(m: TheoryModel, e: Effect) -> bool:
    """Whether ``e`` assigns probabilities within [0, 1] on all of ``m``.

    Decided on the extreme points, so this needs a polytope theory; round
    state spaces check their designated effects analytically in tests.
    """
    if not isinstance(m, VectorTheory) or m.extremal_states is None:
        raise ValueError("effect validity needs a theory with listed extreme points")
    tol = max(m.atol, 1e-12)
    for v in m.extremal_states:
        p = probability(e, v)
        if p < -tol or p > 1.0 + tol:
            return False
    return True


def valid_layout(s: GptState, layout: Sequence[tuple[str, int]], atol: float) -> bool:
    """Finite entries within [0, 1] and each measurement block summing to one."""
    tol = max(atol, 1e-12)
    probs = s.probs
    if probs.shape[0] != sum(count for _, count in layout) or not np.isfinite(probs).all():
        return False
    if np.any(probs < -tol) or np.any(probs > 1.0 + tol):
        return False
    offset = 0
    for _, count in layout:
        if abs(probs[offset : offset + count].sum() - 1.0) > tol:
            return False
        offset += count
    return True
