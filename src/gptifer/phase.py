"""Phase operations, branch locality, and the groups they induce.

A transformation is a phase operation for the branch measurement when it
never alters branch statistics; it is localizable to a branch when it fixes
every state with no support on that branch.  Both predicates are decided on
finite spanning sets (exactly for the integer-matrix theories, within
tolerance otherwise).  Finite groups are filtered exhaustively; continuous
groups carry declared sub-families that are verified by seeded sampling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import FiniteGroup, LinearMap, ParametricGroup, TheoryModel


def is_phase_operation(m: TheoryModel, T) -> bool:
    """Whether ``T`` leaves every branch-measurement statistic unchanged.

    ``T`` must already preserve the state space; the check runs over the
    spanning set, which settles the statement for all states by linearity.
    """
    tol = max(m.atol, 1e-12)
    for s in m.spanning_states:
        out = m.apply(T, s)
        for z in m.z_effects:
            if abs(m.probability(z, out) - m.probability(z, s)) > tol:
                return False
    return True


def is_branch_local(m: TheoryModel, T, branch: int) -> bool:
    """Whether ``T`` can be localized to ``branch``: it must fix every state
    that has no probability of being found there."""
    if not 0 <= branch < m.n_branches:
        raise ValueError(f"branch {branch} out of range for {m.n_branches} branches")
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

    def to_canonical_json(self) -> str:
        payload = {
            "theory": self.theory,
            "is_finite": self.is_finite,
            "elements": list(self.element_names()) if self.is_finite else None,
            "family": self.family,
            "verified_samples": self.verified_samples,
        }
        if self.branch is not None:
            payload["branch"] = self.branch
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def phase_group(
    m: TheoryModel,
    rng: np.random.Generator | None = None,
    samples: int = 100,
) -> PhaseGroupReport:
    """Phase group of ``m`` for its branch measurement.

    Finite groups are filtered element by element.  Parametric theories
    return their declared phase family after a seeded sample of members has
    passed :func:`is_phase_operation`; a failing sample is a construction
    bug and raises.
    """
    if isinstance(m.group, FiniteGroup):
        elements = tuple(T for T in m.group.elements if is_phase_operation(m, T))
        return PhaseGroupReport(m.name, True, elements, None)
    group: ParametricGroup = m.group
    rng = np.random.default_rng(0) if rng is None else rng
    for _ in range(samples):
        T = group.phase_family.sample(rng)
        if not is_phase_operation(m, T):
            raise RuntimeError(
                f"declared phase family of {m.name!r} failed verification"
            )
    return PhaseGroupReport(m.name, False, None, group.phase_family.description, samples)


def branch_local_subgroup(
    m: TheoryModel,
    branch: int,
    rng: np.random.Generator | None = None,
    samples: int = 100,
) -> PhaseGroupReport:
    """Members of the phase group localizable to ``branch``."""
    if isinstance(m.group, FiniteGroup):
        report = phase_group(m)
        elements = tuple(
            T for T in report.elements if is_branch_local(m, T, branch)
        )
        return PhaseGroupReport(m.name, True, elements, None, branch=branch)
    group: ParametricGroup = m.group
    family = group.branch_family(branch)
    rng = np.random.default_rng(0) if rng is None else rng
    for _ in range(samples):
        T = family.sample(rng)
        if not is_branch_local(m, T, branch):
            raise RuntimeError(
                f"declared branch-{branch} family of {m.name!r} failed verification"
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
