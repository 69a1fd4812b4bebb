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

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np

#: Absolute tolerance for theories that need floating-point comparisons.
#: Theories whose matrices are integer-valued use an exact tolerance of 0.
DEFAULT_ATOL = 1e-9

#: Least tolerance of the checks on probabilities, whose float sums round.
PROBABILITY_FLOOR = 1e-12


def near_zero(x, atol: float) -> bool:
    """Whether every entry of ``x`` is within ``atol`` of zero: the one closeness
    test, absolute, and failed by a NaN or infinite entry."""
    x = np.asarray(x)
    return bool(not x.any() or np.abs(x).max() <= atol)


def _exact_int(value, label: str) -> int:
    # bool, str and float are refused rather than coerced; numpy integers
    # become the equal Python int so that specs compare and serialize alike
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{label} must be an integer, got {value!r}")
    return operator.index(value)


def _readonly(values, dtype=float) -> np.ndarray:
    # C order: a transposed view would slow every entrywise product
    arr = np.array(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class DiagonalMap:
    """Map diagonal in the branch basis, stored as its (k, N) entries over
    a k-component scalar algebra.

    ``comps`` is read-only.  ``finite`` records, once and when first read,
    whether every entry is finite, ``real`` whether every entry is real: no
    imaginary part and no component past the first, and ``unit`` whether
    every entry's squared components sum to exactly 1.0.
    ``MatrixTheory.dense`` gives the N x N matrix.  A matrix theory also
    reads a diagonal as a state or an effect diagonal in the branch basis.
    """

    comps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "comps", _readonly(self.comps, None))

    @cached_property
    def finite(self) -> bool:
        return bool(np.isfinite(self.comps).all())

    @cached_property
    def real(self) -> bool:
        imaginary = np.iscomplexobj(self.comps) and self.comps.imag.any()
        return not (imaginary or self.comps[1:].any())

    @cached_property
    def unit(self) -> bool:
        with np.errstate(over="ignore"):  # an overflowing square is not 1.0
            return bool(((np.abs(self.comps) ** 2).sum(axis=0) == 1.0).all())


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
    through the matrix values, so finite groups can be used as sets and a
    relabeling equals its dense matrix.
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
        return self.matrix.shape == other.matrix.shape and np.array_equal(self.matrix, other.matrix)

    def __hash__(self):
        return hash((self.matrix.shape, (self.matrix + 0.0).tobytes()))  # + 0.0 makes -0.0 hash as 0.0

    def __repr__(self):
        label = self.name or "unnamed"
        return f"LinearMap<{label}, dim={self.dim}>"


def _is_permutation(image: np.ndarray) -> bool:
    # in Python, which is faster than numpy calls at the sizes of a theory's coordinates
    return image.ndim == 1 and sorted(image.tolist()) == list(range(image.shape[0]))


class Relabeling(LinearMap):
    """The 0/1 map carrying coordinate j to coordinate ``image[j]``, stored
    as its image, a read-only permutation of 0..D-1.

    It acts by moving each entry of a state to its image, with no
    arithmetic, so a NaN or infinite entry moves and nothing else changes.
    Two relabelings compose by composing their images.  ``matrix`` is built
    only when something reads it, as comparing or hashing does.
    """

    def __init__(self, image, name: str = ""):
        image = np.asarray(image)
        if image.dtype.kind not in "iu":
            raise ValueError("a relabeling's image must hold integers")
        if not _is_permutation(image):
            raise ValueError(f"a relabeling's image must be a permutation of 0..D-1, got {image.tolist()}")
        object.__setattr__(self, "image", _readonly(image, np.intp))
        object.__setattr__(self, "name", name)

    @property
    def dim(self) -> int:
        return self.image.shape[0]

    @cached_property
    def matrix(self) -> np.ndarray:
        matrix = np.zeros((self.dim, self.dim))
        matrix[self.image, np.arange(self.dim)] = 1.0
        matrix.setflags(write=False)
        return matrix


# ---------------------------------------------------------------------------
# Transformation groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Finite group of relabelings, closed under composition.

    ``images`` is one read-only (order, D) integer array: row i is the image
    of element i, a permutation of 0..D-1.  ``name_of(image)`` names the
    element of one row.
    :attr:`elements` builds them all, in row order, when first read, so a
    built group holds no per-element object: 46,080 elements over D = 12
    take 553 KB as int8 rows.  :meth:`by_name` names rows until one matches
    and builds that element alone.
    """

    images: np.ndarray
    name_of: Callable[[np.ndarray], str]

    def __post_init__(self):
        object.__setattr__(self, "images", _readonly(self.images, None))
        if self.images.ndim != 2 or not (np.sort(self.images, axis=1) == np.arange(self.images.shape[1])).all():
            raise ValueError("a finite group's images must be rows of permutations of 0..D-1")

    def __len__(self):
        return self.images.shape[0]

    def __iter__(self):
        return iter(self.elements)

    @cached_property
    def elements(self) -> tuple[Relabeling, ...]:
        return self.take(range(len(self)))

    def element(self, image) -> Relabeling:
        """The element whose image is ``image``, with its name."""
        return Relabeling(image, self.name_of(image))

    def take(self, rows) -> tuple[Relabeling, ...]:
        """The elements of ``rows``, in their order."""
        return tuple(self.element(self.images[i]) for i in rows)

    def by_name(self, name: str) -> Relabeling:
        for image in self.images:
            if self.name_of(image) == name:
                return Relabeling(image, name)
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
        n_branches: int,
        group: TransformationGroup,
        atol: float = DEFAULT_ATOL,
    ):
        if n_branches < 2:
            raise ValueError("the branch measurement needs at least two outcomes")
        self.name = name
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
            tuple(s for s, p in zip(self.spanning_states, stats) if near_zero(p[b], self.atol))
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
        for label, count in fiducial_layout:
            if count < 2:
                raise ValueError(f"measurement {label!r} needs at least two outcomes")
        counts = [count for _, count in fiducial_layout]
        n_branches = counts[branch_measurement]
        super().__init__(name, n_branches, group, atol)
        self.fiducial_layout = tuple(fiducial_layout)
        self._spanning = tuple(spanning_states)
        self._within = within
        #: Vertices of the state polytope, or None for round state spaces.
        self.extremal_states = None if extremal_states is None else tuple(extremal_states)
        self.state_dim = sum(counts)
        if any(s.dim != self.state_dim for s in self._spanning):
            raise ValueError("inconsistent state dimensions in theory definition")
        offset = sum(counts[: branch_measurement % len(counts)])
        self._z_weights = _readonly(np.eye(self.state_dim)[offset : offset + n_branches])
        #: 0/1 rows summing each measurement block of a state
        self._blocks = _readonly(np.repeat(np.eye(len(counts)), counts, axis=1))
        self._coords = _readonly(np.arange(self.state_dim), np.intp)
        self._phase_rows = None  # (group, its phase rows), filled by phase_rows

    @cached_property
    def z_effects(self):
        return tuple(Effect(w) for w in self._z_weights)

    @property
    def spanning_states(self):
        return self._spanning

    def branch_probabilities(self, state) -> np.ndarray:
        return self._z_weights @ state.probs

    def probability(self, effect, state) -> float:
        return probability(self._own(effect, "effect"), self._own(state))

    def apply(self, trans, state):
        return apply(self._own(trans, "map"), self._own(state))

    def _own(self, operand, kind: str = "state"):
        # a state, map or effect of this dimension, as it is; any other
        # dimension is refused, naming its kind, never broadcast
        if operand.dim != self.state_dim:
            raise ValueError(
                f"{kind} dimension {operand.dim} does not match theory dimension {self.state_dim}"
            )
        return operand

    def contains(self, state) -> bool:
        """Finite entries within [0, 1], each measurement block summing to
        one, and ``within`` if given."""
        probs = self._own(state).probs
        tol = max(self.atol, PROBABILITY_FLOOR)
        if not np.isfinite(probs).all() or probs.min() < -tol or probs.max() > 1.0 + tol:
            return False
        if np.abs(self._blocks @ probs - 1.0).max() > tol:
            return False
        return self._within is None or bool(self._within(state))

    def states_close(self, a, b) -> bool:
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails
            return near_zero(self._own(a).probs - self._own(b).probs, self.atol)

    def compose(self, second, first):
        name = ""
        if second.name and first.name:
            name = f"{second.name}*{first.name}"
        second, first = self._own(second, "map"), self._own(first, "map")
        if isinstance(second, Relabeling) and isinstance(first, Relabeling):
            return Relabeling(second.image[first.image], name)
        return LinearMap(second.matrix @ first.matrix, name)

    def identity_map(self):
        return Relabeling(self._coords, "identity")

    def is_identity_map(self, trans) -> bool:
        trans = self._own(trans, "map")
        if isinstance(trans, Relabeling):
            return bool((trans.image == self._coords).all())
        return near_zero(trans.matrix - np.eye(self.state_dim), self.atol)

    def maps_commute(self, a, b) -> bool:
        if isinstance(a, Relabeling) and isinstance(b, Relabeling):
            a, b = self._own(a, "map"), self._own(b, "map")
            # ab and ba agree on every state when ba^-1 ab fixes the spanning states
            ab, undo_ba = a.image[b.image], np.empty_like(self._coords)
            undo_ba[b.image[a.image]] = self._coords
            return bool(self._keeps(undo_ba[ab], self._commute_table))
        # compared as actions on states: linear extensions off the
        # normalized hull (e.g. embedded rotations) may differ as raw
        # matrices while commuting operationally
        ab = self.compose(a, b)
        ba = self.compose(b, a)
        return all(
            self.states_close(apply(ab, s), apply(ba, s)) for s in self.spanning_states
        )

    # -- relabelings, decided on the coordinates they exchange --------------
    #
    # A relabeling moves entry j of a state to entry image[j].  So it keeps
    # what a check reads of a set of states exactly when every move keeps
    # it: when columns j and image[j] of the states agree, or the check does
    # not read entry image[j].  Each check's D x D table of such moves is
    # built once per theory; a verdict is one lookup in it, for one image
    # or for a stack of them.  A table compares within the tolerance of the
    # per-state check it replaces, so the verdicts are the same.

    def _table(self, states, tol, read=None) -> np.ndarray:
        # [j, k]: entry j of every state in ``states`` is within tol of entry k, or k is not read
        columns = np.array([s.probs for s in states]).reshape(-1, self.state_dim).T
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails
            table = (np.abs(columns[:, None] - columns[None, :]) <= tol).all(axis=2)
        if read is not None:
            table[:, ~read] = True
        return _readonly(table, bool)

    @cached_property
    def _phase_table(self) -> np.ndarray:
        tol = max(self.atol, PROBABILITY_FLOOR)
        return self._table(self.spanning_states, tol, self._z_weights.any(axis=0))

    @cached_property
    def _commute_table(self) -> np.ndarray:
        return self._table(self.spanning_states, self.atol)

    @cached_property
    def _local_tables(self) -> tuple:
        return tuple(self._table(self.branch_local_probes(b), self.atol) for b in range(self.n_branches))

    def _keeps(self, images, table) -> np.ndarray:
        if np.shape(images)[-1] != self.state_dim:
            raise ValueError(
                f"map dimension {np.shape(images)[-1]} does not match theory dimension {self.state_dim}"
            )
        return table[self._coords, images].all(axis=-1)

    def phase_mask(self, images) -> np.ndarray:
        """Which relabelings leave every branch statistic unchanged, as
        ``is_phase_operation`` decides on the spanning states: ``images`` is
        one relabeling's image, or a stack of images, one per row."""
        return self._keeps(images, self._phase_table)

    def phase_rows(self) -> np.ndarray:
        """Rows of ``group.images`` that are phase operations, in order:
        filtered once per theory object, and again only for a new group."""
        if self._phase_rows is None or self._phase_rows[0] is not self.group:
            self._phase_rows = (self.group, np.flatnonzero(self.phase_mask(self.group.images)))
        return self._phase_rows[1]

    def branch_local_mask(self, images, branch: int) -> np.ndarray:
        """Which relabelings fix every locality probe of ``branch``, as
        ``is_branch_local`` decides state by state; ``images`` as for
        :meth:`phase_mask`."""
        return self._keeps(images, self._local_tables[branch])


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
    if isinstance(T, Relabeling):  # entry j moves to entry image[j]
        moved = np.empty_like(s.probs)
        moved[T.image] = s.probs
        return GptState(moved)
    return GptState(T.matrix @ s.probs)
