"""Tests for phase operations, branch locality, and group reports.

Core claims:
    - the phase predicate accepts exactly the branch-statistics-preserving
      maps (X-flip yes, Z-flip no, identity always); a map with a NaN entry
      is never a phase operation
    - for quantum models the operational predicate agrees with the
      diagonal-form oracle on sampled unitaries, both directions
    - branch locality reproduces the documented subgroups: trivial for the
      square bit, the {1234,2134}/{1234,1243} split for the hidden variable,
      the full four-element group for the restricted toy bit
    - every unitary passing branch locality matches the one-branch-phase
      form; unit quaternions on one branch pass; a global non-real
      quaternion phase is observable while the real signs are not
    - the reduced branch-locality probes agree with the full face families
    - a declared family with one sample outside its claim fails verification;
      a sample count that is not an integer of at least one is refused
    - one report type serves phase groups and branch-local subgroups, with
      ``branch`` set only in the latter; a parametric one names no element
"""

import numpy as np
import pytest

from gptifer.core import LinearMap, ParametricFamily, ParametricGroup
from gptifer.phase import (
    PhaseGroupReport,
    branch_local_subgroup,
    is_branch_local,
    is_phase_operation,
    localizable_union,
    phase_group,
)
from gptifer.quaternion import Quaternion
from gptifer.theories import (
    classical_theory,
    dball_theory,
    gbit_theory,
    quantum_theory,
    quaternionic_theory,
    qubit_theory,
    spekkens_epistemic_theory,
    spekkens_ontic_theory,
)
from reference import (
    quantum_branch_local_form_check,
    quantum_phase_form_check,
    quat_diagonal,
    quat_pure,
    random_unit_quaternion,
    random_unitary,
)

RNG = np.random.default_rng(99)


# -- is_phase_operation ----------------------------------------------------------


@pytest.mark.parametrize(
    "m",
    [classical_theory(2), gbit_theory(2), spekkens_ontic_theory(), qubit_theory(),
     quantum_theory(1), quaternionic_theory(2)],
    ids=lambda m: m.name,
)
def test_identity_is_phase_operation_everywhere(m):
    assert is_phase_operation(m, m.identity_map())


def test_square_bit_x_flip_is_phase_z_flip_is_not():
    m = gbit_theory(2)
    assert is_phase_operation(m, m.group.by_name("X-flip"))
    assert not is_phase_operation(m, m.group.by_name("Z-flip"))


def test_a_map_with_a_nan_entry_is_not_a_phase_operation():
    square = np.eye(4)
    square[0, 0] = np.nan
    assert not is_phase_operation(gbit_theory(2), LinearMap(square))
    unitary = np.eye(2, dtype=complex)
    unitary[0, 1] = np.nan
    assert not is_phase_operation(quantum_theory(1), unitary)


# -- quantum form checks -----------------------------------------------------------


def test_form_check_accepts_z_diagonal():
    assert quantum_phase_form_check(np.diag([1.0, np.exp(1j * np.pi)]))
    alpha = np.exp(1j * 0.7)
    assert quantum_phase_form_check(np.diag([alpha, alpha]))


def test_form_check_rejects_hadamard():
    H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert not quantum_phase_form_check(H.astype(complex))


def test_form_check_raises_on_non_unitary():
    with pytest.raises(ValueError):
        quantum_phase_form_check(np.diag([2.0, 1.0]).astype(complex))


def test_operational_predicate_matches_diagonal_oracle():
    m = quantum_theory(2)
    for _ in range(200):
        D = m.group.phase_family.sample(RNG)
        assert is_phase_operation(m, D) and quantum_phase_form_check(m.dense(D))
        U = random_unitary(m.dim, RNG)
        assert is_phase_operation(m, U) == quantum_phase_form_check(U)


# -- is_branch_local ------------------------------------------------------------------


def test_x_flip_not_local_to_either_branch():
    m = gbit_theory(2)
    x_flip = m.group.by_name("X-flip")
    assert not is_branch_local(m, x_flip, 0)
    assert not is_branch_local(m, x_flip, 1)


def test_hidden_variable_swap_local_to_its_own_branch_only():
    m = spekkens_ontic_theory()
    upper_swap = m.group.by_name("2134")
    assert is_branch_local(m, upper_swap, 0)
    assert not is_branch_local(m, upper_swap, 1)


def test_single_branch_quantum_flip_is_local_at_flipped_index():
    m = quantum_theory(2)
    for idx in range(4):
        d = np.ones(4, dtype=complex)
        d[idx] = -1.0
        assert is_branch_local(m, np.diag(d), idx)
        other = (idx + 1) % 4
        assert not is_branch_local(m, np.diag(d), other)


def test_identity_is_branch_local_everywhere():
    for m in (gbit_theory(3), spekkens_epistemic_theory(), quantum_theory(2),
              quaternionic_theory(3), dball_theory(4)):
        for branch in range(min(m.n_branches, 4)):
            assert is_branch_local(m, m.identity_map(), branch)


def test_branch_index_validation():
    m = gbit_theory(2)
    with pytest.raises(ValueError):
        is_branch_local(m, m.identity_map(), 2)


# -- probe sets agree with the full face families -----------------------------------------


def test_quantum_probes_equal_full_face_check():
    m = quantum_theory(2)
    for _ in range(100):
        U = m.group.phase_family.sample(RNG)
        for branch in range(4):
            full = all(
                m.states_close(m.apply(U, s), s) for s in m.face_states(branch)
            )
            assert is_branch_local(m, U, branch) == full


def test_quaternionic_probes_equal_full_face_check():
    m = quaternionic_theory(4)
    for _ in range(40):
        S = m.group.phase_family.sample(RNG)
        for branch in range(4):
            full = all(
                m.states_close(m.apply(S, s), s) for s in m.face_states(branch)
            )
            assert is_branch_local(m, S, branch) == full


# -- phase groups -----------------------------------------------------------------------


def test_classical_phase_group_is_trivial():
    assert phase_group(classical_theory(2)).element_names() == ("identity",)
    assert phase_group(classical_theory(3)).element_names() == ("identity",)


def test_toy_bit_phase_group_is_the_four_element_group():
    expected = ("1234", "1243", "2134", "2143")
    assert phase_group(spekkens_ontic_theory()).element_names() == expected
    assert phase_group(spekkens_epistemic_theory()).element_names() == expected


def test_square_bit_phase_group_is_z2():
    assert phase_group(gbit_theory(2)).element_names() == ("X-flip", "identity")


def test_cube_phase_group_is_nontrivial_order_eight():
    names = phase_group(gbit_theory(3)).element_names()
    assert len(names) == 8
    assert "identity" in names


def test_parametric_phase_groups_verify_by_sampling():
    for m in (qubit_theory(), dball_theory(4), quantum_theory(2), quaternionic_theory(3)):
        report = phase_group(m, rng=np.random.default_rng(1), samples=50)
        assert not report.is_finite
        assert report.verified_samples == 50
    # the count is an integer of at least one, for either report and any group
    for samples, message in ((-1, "{} takes 1 <= samples, got samples = -1"), (0, "{} takes 1 <= samples, got samples = 0"),
                             (2.5, "samples must be an integer for {}, got 2.5"), (True, "samples must be an integer for {}, got True")):
        runs = (("phase_group", lambda m: phase_group(m, samples=samples)),
                ("branch_local_subgroup", lambda m: branch_local_subgroup(m, 0, samples=samples)))
        for owner, run in runs:
            for m in (quantum_theory(1), gbit_theory(2)):
                with pytest.raises(ValueError) as err:
                    run(m)
                assert str(err.value) == message.format(owner)


def test_a_phase_family_with_a_non_phase_sample_fails_verification():
    m = quantum_theory(2)
    m.group = ParametricGroup(
        ParametricFamily("the whole unitary group", lambda rng: random_unitary(m.dim, rng)),
        m.group.branch_family,
    )
    with pytest.raises(RuntimeError, match="^declared phase family of 'quantum' failed verification$"):
        phase_group(m)


# -- branch-local subgroups ---------------------------------------------------------------


def test_hidden_variable_subgroups_split_by_branch():
    m = spekkens_ontic_theory()
    assert branch_local_subgroup(m, 0).element_names() == ("1234", "2134")
    assert branch_local_subgroup(m, 1).element_names() == ("1234", "1243")


def test_restricted_toy_bit_localizes_everything():
    m = spekkens_epistemic_theory()
    full = ("1234", "1243", "2134", "2143")
    assert branch_local_subgroup(m, 0).element_names() == full
    assert branch_local_subgroup(m, 1).element_names() == full


def test_square_bit_subgroups_are_trivial():
    m = gbit_theory(2)
    for branch in (0, 1):
        assert branch_local_subgroup(m, branch).element_names() == ("identity",)


def test_parametric_branch_families_verify_by_sampling():
    for m in (dball_theory(3), quantum_theory(2), quaternionic_theory(2)):
        report = branch_local_subgroup(m, 0, rng=np.random.default_rng(2), samples=50)
        assert report.verified_samples == 50


def test_a_branch_family_with_a_remote_sample_fails_verification():
    m = quantum_theory(2)
    branch_family = m.group.branch_family
    # every branch claims the phases on branch 1
    m.group = ParametricGroup(m.group.phase_family, lambda branch: branch_family(1))
    assert branch_local_subgroup(m, 1).verified_samples == 100
    with pytest.raises(RuntimeError, match="^declared branch-0 family of 'quantum' failed verification$"):
        branch_local_subgroup(m, 0)


# -- localizable union ------------------------------------------------------------------------


def test_union_examples():
    assert sorted(e.name for e in localizable_union(gbit_theory(2))) == ["identity"]
    assert sorted(e.name for e in localizable_union(spekkens_epistemic_theory())) == [
        "1234", "1243", "2134", "2143",
    ]
    # the union of the two hidden-variable subgroups misses the joint swap
    assert sorted(e.name for e in localizable_union(spekkens_ontic_theory())) == [
        "1234", "1243", "2134",
    ]


def test_union_requires_finite_group():
    with pytest.raises(ValueError):
        localizable_union(qubit_theory())


# -- branch-local form (quantum) ------------------------------------------------------------------


def test_every_local_passer_matches_single_branch_phase_form():
    m = quantum_theory(2)
    hits = 0
    for _ in range(300):
        D = m.group.phase_family.sample(RNG)
        for branch in range(4):
            if is_branch_local(m, D, branch):
                hits += 1
                assert quantum_branch_local_form_check(m.dense(D), branch)
    for _ in range(100):
        branch = int(RNG.integers(0, 4))
        U = m.group.branch_family(branch).sample(RNG)
        assert is_branch_local(m, U, branch)
        assert quantum_branch_local_form_check(m.dense(U), branch)
        hits += 1
    assert hits >= 100


def test_two_branch_systems_localize_every_phase():
    # with two branches the global phase freedom makes the two branch
    # subgroups coincide with the whole diagonal group
    m = quantum_theory(1)
    for _ in range(50):
        D = m.group.phase_family.sample(RNG)
        assert is_branch_local(m, D, 0) and is_branch_local(m, D, 1)


# -- quaternionic branch locality -------------------------------------------------------------------


def test_unit_quaternion_on_branch_zero_is_local_there():
    m = quaternionic_theory(3)
    one = Quaternion(1.0)
    for _ in range(100):
        u = random_unit_quaternion(RNG)
        S = m.dense(quat_diagonal(u, one, one))
        assert is_branch_local(m, S, 0)


def test_generic_unit_quaternion_fails_remote_branches():
    m = quaternionic_theory(3)
    one = Quaternion(1.0)
    S = m.dense(quat_diagonal(Quaternion(0.0, 1.0), one, one))
    assert not is_branch_local(m, S, 1)
    assert not is_branch_local(m, S, 2)


def test_global_phase_observability_split():
    m = quaternionic_theory(2)
    inv = 1.0 / np.sqrt(2.0)
    j_plus = quat_pure(Quaternion(inv), Quaternion(0.0, 0.0, inv))
    states = [m.branch_state(0), j_plus]
    effects = list(m.z_effects) + [j_plus]

    def shift(h):
        G = m.dense(quat_diagonal(h, h))
        return max(
            abs(m.probability(E, m.apply(G, rho)) - m.probability(E, rho))
            for rho in states
            for E in effects
        )

    assert shift(Quaternion(0.0, 1.0)) > 0.5       # i is observable globally
    assert shift(Quaternion(1.0)) <= 1e-12          # the real units are not
    assert shift(Quaternion(-1.0)) <= 1e-12


# -- reports ------------------------------------------------------------------------------------------------


def test_one_report_type_serializes_branch_only_when_set():
    group = phase_group(quantum_theory(2), rng=np.random.default_rng(0), samples=5)
    local = branch_local_subgroup(quantum_theory(2), 3, rng=np.random.default_rng(0), samples=5)
    assert type(group) is type(local) is PhaseGroupReport
    assert group.branch is None
    assert local.branch == 3
    assert local.family == "phase on branch 3 up to a global phase"
    assert local.verified_samples == 5
    assert local.elements is None and not local.is_finite and local.theory == "quantum"


def test_a_parametric_report_names_no_element():
    group = phase_group(qubit_theory(), rng=np.random.default_rng(0), samples=3)
    local = branch_local_subgroup(quantum_theory(1), 0, rng=np.random.default_rng(0), samples=3)
    assert group.elements is local.elements is None
    assert group.element_names() == local.element_names() == ()


def test_report_element_order_is_name_sorted():
    report = phase_group(spekkens_ontic_theory())
    assert list(report.element_names()) == sorted(report.element_names())
