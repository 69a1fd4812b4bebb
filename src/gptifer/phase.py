"""Phase operations, branch locality, and the groups they induce.

A transformation is a phase operation for the branch measurement when it
never alters branch statistics; it is localizable to a branch when it fixes
every state with no support on that branch.  Both predicates are decided on
finite spanning sets (exactly for the integer-matrix theories, within
tolerance otherwise).  A relabeling of a vector theory is decided on its
image, by one lookup in a table of the theory's spanning or probe states.
Finite groups are filtered exhaustively, all images at once; continuous
groups carry declared sub-families that are verified by seeded sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    PROBABILITY_FLOOR,
    FiniteGroup,
    LinearMap,
    ParametricFamily,
    Relabeling,
    TheoryModel,
    VectorTheory,
    _exact_int,
    near_zero,
)


def _on_image(m: TheoryModel, T) -> bool:
    # the one selection point: a relabeling of a vector theory is decided on its image
    return isinstance(T, Relabeling) and isinstance(m, VectorTheory)


def _check_branch(m: TheoryModel, branch: int) -> None:
    if not 0 <= branch < m.n_branches:
        raise ValueError(f"branch {branch} out of range for {m.n_branches} branches")


def is_phase_operation(m: TheoryModel, T) -> bool:
    """Whether ``T`` leaves every branch-measurement statistic unchanged.

    ``T`` must already preserve the state space; the check runs over the
    spanning set, which settles the statement for all states by linearity.
    """
    if _on_image(m, T):
        return bool(m.phase_mask(T.image))
    tol = max(m.atol, PROBABILITY_FLOOR)
    bp = m.branch_probabilities
    return all(near_zero(bp(m.apply(T, s)) - bp(s), tol) for s in m.spanning_states)


def is_branch_local(m: TheoryModel, T, branch: int) -> bool:
    """Whether ``T`` can be localized to ``branch``: it must fix every state
    that has no probability of being found there."""
    _check_branch(m, branch)
    if _on_image(m, T):
        return bool(m.branch_local_mask(T.image, branch))
    return all(
        m.states_close(m.apply(T, s), s) for s in m.branch_local_probes(branch)
    )


# ---------------------------------------------------------------------------
# Group-level reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseGroupReport:
    """Phase group of a theory, or with ``branch`` set its subgroup
    localizable to that branch: explicit elements or a verified family."""

    theory: str
    is_finite: bool
    elements: tuple[LinearMap, ...] | None
    family: str | None
    verified_samples: int = 0
    branch: int | None = None

    def element_names(self) -> tuple[str, ...]:
        if self.elements is None:
            return ()
        return tuple(sorted(e.name for e in self.elements))


def _sample_count(samples) -> int:
    # an integer count of at least one, checked before any group is read
    samples = _exact_int(samples, "samples")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    return samples


def _verify_family(m: TheoryModel, family: ParametricFamily, holds, claim: str, rng, samples):
    # a declared family is evidence only through seeded samples that pass
    rng = np.random.default_rng(0) if rng is None else rng
    for _ in range(samples):
        if not holds(family.sample(rng)):
            raise RuntimeError(f"declared {claim} family of {m.name!r} failed verification")


def phase_group(
    m: TheoryModel,
    rng: np.random.Generator | None = None,
    samples: int = 100,
) -> PhaseGroupReport:
    """Phase group of ``m`` for its branch measurement.

    Finite groups are filtered on their images.  Parametric theories
    return their declared phase family after a seeded sample of members has
    passed :func:`is_phase_operation`; a failing sample is a construction
    bug and raises.  ``samples`` must be an integer of at least 1.
    """
    samples = _sample_count(samples)
    if isinstance(m.group, FiniteGroup):
        return PhaseGroupReport(m.name, True, m.group.take(m.phase_rows()), None)
    family = m.group.phase_family
    _verify_family(m, family, lambda T: is_phase_operation(m, T), "phase", rng, samples)
    return PhaseGroupReport(m.name, False, None, family.description, samples)


def branch_local_subgroup(
    m: TheoryModel,
    branch: int,
    rng: np.random.Generator | None = None,
    samples: int = 100,
) -> PhaseGroupReport:
    """Members of the phase group localizable to ``branch``."""
    samples = _sample_count(samples)
    if isinstance(m.group, FiniteGroup):
        _check_branch(m, branch)
        rows = m.phase_rows()
        rows = rows[m.branch_local_mask(m.group.images[rows], branch)]
        return PhaseGroupReport(m.name, True, m.group.take(rows), None, branch=branch)
    family = m.group.branch_family(branch)
    _verify_family(
        m, family, lambda T: is_branch_local(m, T, branch), f"branch-{branch}", rng, samples
    )
    return PhaseGroupReport(m.name, False, None, family.description, samples, branch)


def localizable_union(m: TheoryModel) -> frozenset[LinearMap]:
    """Union over branches of the branch-local subgroups.

    Only defined for finite phase groups; the union need not be closed
    under composition.
    """
    if not isinstance(m.group, FiniteGroup):
        raise ValueError("localizable_union needs a finite transformation group")
    members: set[LinearMap] = set()
    for branch in range(m.n_branches):
        members.update(branch_local_subgroup(m, branch).elements)
    return frozenset(members)
