"""Acceptance suite: the nine headline criteria at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line
per criterion.  Every expected value here is either derived independently
in-line (closed forms, hand-worked statistics) or pinned from the package's
documented conventions.
"""

import functools
import math

import numpy as np
import pytest

from gptifer.core import GptState
from gptifer.interferometer import (
    BranchEncoding,
    BranchLocalityError,
    GroverConfig,
    OracleSpec,
    build_oracle,
    classify,
    constant_balanced_specs,
    find_distinguishing_effect,
    gbit_global_instruments,
    grover_closed_form,
    grover_iteration_budget,
    grover_success_curve,
    quantum_dj_instruments,
    quaternionic_dj_instruments,
    run_dj,
    run_dj_with_global_oracle,
    run_grover,
    spekkens_epistemic_dj_instruments,
    spekkens_ontic_dj_instruments,
)
from gptifer.phase import (
    branch_local_subgroup,
    is_branch_local,
    is_phase_operation,
    localizable_union,
    phase_group,
)
from gptifer.quaternion import QuatKet, QuatMatrix, Quaternion
from gptifer.theories import (
    classical_theory,
    gbit_theory,
    quantum_theory,
    quaternionic_theory,
    qubit_state_from_expectations,
    qubit_theory,
)
from gptifer.uncertainty import (
    PAULI_X,
    PAULI_Y,
    bloch_norm,
    pauli_expectations,
    random_pure_qubit_states,
    robertson_bound,
    schrodinger_bound,
)
from gptifer.experiments import run_suite, suite_canonical_bytes
from reference import quantum_branch_local_form_check, quantum_phase_form_check


def criterion(number: int, label: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({label}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({label}): PASS")

        return wrapper

    return decorate


@criterion(1, "quantum constant-vs-balanced exactness")
def test_criterion_1_quantum_dj_exactness():
    for n in (1, 2, 3):
        m, enc, s_in, e_C = quantum_dj_instruments(n)
        specs = constant_balanced_specs(n)
        if n == 3:
            assert len(specs) == 72
        for spec in specs:
            out = run_dj(m, spec, enc, s_in, e_C)
            closed = abs(sum((-1.0) ** b for b in spec.table)) ** 2 / 4.0**n
            assert abs(out.p_constant_effect - closed) <= 1e-12
            expected = 1.0 if classify(spec) == "constant" else 0.0
            assert abs(out.p_constant_effect - expected) <= 1e-12
            assert out.verdict == classify(spec)


@criterion(2, "classical no-go")
def test_criterion_2_classical_no_go():
    m = classical_theory(2)
    assert phase_group(m).element_names() == ("identity",)
    for branch in range(m.n_branches):
        assert branch_local_subgroup(m, branch).element_names() == ("identity",)
    # with only the trivial encoding available, output statistics carry no
    # dependence on the table at all
    enc = BranchEncoding(((m.identity_map(), m.identity_map()),) * 2)
    s_in = GptState([0.5, 0.5])
    outputs = [
        m.apply(build_oracle(m, spec, enc), s_in).probs
        for spec in constant_balanced_specs(1)
    ]
    for out in outputs[1:]:
        np.testing.assert_array_equal(outputs[0], out)


@criterion(3, "box-world no-go with a global-only protocol")
def test_criterion_3_box_world():
    for d in (2, 3):
        m = gbit_theory(d)
        names = phase_group(m).element_names()
        if d == 2:
            assert names == ("X-flip", "identity")
        assert len(names) > 1
        for branch in (0, 1):
            assert branch_local_subgroup(m, branch).element_names() == ("identity",)
        assert sorted(e.name for e in localizable_union(m)) == ["identity"]
        nontrivial = [e for e in phase_group(m).elements if e.name != "identity"]
        for elem in nontrivial:
            for branch in (0, 1):
                pairs = [(m.identity_map(), m.identity_map())] * 2
                pairs[branch] = (m.identity_map(), elem)
                with pytest.raises(BranchLocalityError):
                    build_oracle(
                        m,
                        OracleSpec(1, tuple(1 if b == branch else 0 for b in (0, 1))),
                        BranchEncoding(tuple(pairs)),
                    )
    gm, x_flip, s_in, e_C = gbit_global_instruments()
    for spec in constant_balanced_specs(1):
        out = run_dj_with_global_oracle(gm, spec, x_flip, s_in, e_C)
        assert out.p_constant_effect in (0.0, 1.0)
        assert out.verdict == classify(spec)


@criterion(4, "hidden-variable vs restricted toy bit split")
def test_criterion_4_spekkens_split():
    m_on, enc_on, s_on, _ = spekkens_ontic_dj_instruments()
    assert branch_local_subgroup(m_on, 0).element_names() == ("1234", "2134")
    assert branch_local_subgroup(m_on, 1).element_names() == ("1234", "1243")
    assert find_distinguishing_effect(m_on, enc_on, s_on, strict=False) is None

    m_ep, enc_ep, s_ep, e_ep = spekkens_epistemic_dj_instruments()
    full = ("1234", "1243", "2134", "2143")
    assert branch_local_subgroup(m_ep, 0).element_names() == full
    assert branch_local_subgroup(m_ep, 1).element_names() == full
    out_c = run_dj(m_ep, OracleSpec(1, (1, 1)), enc_ep, s_ep, e_ep)
    out_b = run_dj(m_ep, OracleSpec(1, (0, 1)), enc_ep, s_ep, e_ep)
    # 13 -> 13 under constant tables, 13 -> 24 under balanced ones
    np.testing.assert_array_equal(out_c.output_state.probs, [1, 0, 0.5, 0.5, 0.5, 0.5])
    np.testing.assert_array_equal(out_b.output_state.probs, [0, 1, 0.5, 0.5, 0.5, 0.5])
    assert out_c.p_constant_effect == 1.0
    assert out_b.p_constant_effect == 0.0


@criterion(5, "quaternionic constant-vs-balanced with sign encodings")
def test_criterion_5_quaternionic_dj():
    for N in (2, 4, 8):
        m, enc, s_in, e_C = quaternionic_dj_instruments(N)
        n = int(math.log2(N))
        effects = list(m.z_effects) + [e_C]
        for spec in constant_balanced_specs(n):
            out = run_dj(m, spec, enc, s_in, e_C)
            expected = 1.0 if classify(spec) == "constant" else 0.0
            assert abs(out.p_constant_effect - expected) <= 1e-9
            negated = OracleSpec(n, tuple(1 - b for b in spec.table))
            out_neg = run_dj(m, negated, enc, s_in, e_C)
            for e in effects:
                assert abs(
                    m.probability(e, out.output_state)
                    - m.probability(e, out_neg.output_state)
                ) <= 1e-9

    # global-phase split on the two-level system
    m = quaternionic_theory(2)
    inv = 1.0 / math.sqrt(2.0)
    j_plus = QuatKet.from_quaternions(
        [Quaternion(inv), Quaternion(0.0, 0.0, inv)]
    ).density()
    states = [m.branch_state(0), j_plus]
    effects = list(m.z_effects) + [j_plus]

    def max_shift(h):
        G = QuatMatrix.diag([h, h])
        return max(
            abs(m.probability(E, m.apply(G, rho)) - m.probability(E, rho))
            for rho in states
            for E in effects
        )

    assert max_shift(Quaternion(0.0, 1.0)) > 0.5
    assert max_shift(Quaternion(1.0)) <= 1e-12
    assert max_shift(Quaternion(-1.0)) <= 1e-12


@criterion(6, "operational phase predicate vs diagonal form, 2000 samples")
def test_criterion_6_phase_oracle_agreement():
    m = quantum_theory(2)
    rng = np.random.default_rng(6)
    counterexamples = 0
    for _ in range(1000):
        D = m.group.phase_family.sample(rng)
        if not (is_phase_operation(m, D) and quantum_phase_form_check(D)):
            counterexamples += 1
        for branch in range(m.dim):
            if is_branch_local(m, D, branch) != quantum_branch_local_form_check(D, branch):
                counterexamples += 1
    for _ in range(1000):
        U = m.group.group.sample(rng)
        if is_phase_operation(m, U) != quantum_phase_form_check(U):
            counterexamples += 1
    # constructed one-branch phases must pass and match the form
    for _ in range(200):
        branch = int(rng.integers(0, m.dim))
        V = m.group.branch_family(branch).sample(rng)
        if not (
            is_branch_local(m, V, branch)
            and quantum_branch_local_form_check(V, branch)
        ):
            counterexamples += 1
    assert counterexamples == 0


@criterion(7, "variance bounds and the unit sphere, 10000 samples")
def test_criterion_7_uncertainty():
    rng = np.random.default_rng(7)
    for rho in random_pure_qubit_states(10_000, rng):
        lhs_s, rhs = schrodinger_bound(rho, PAULI_X, PAULI_Y)
        lhs_r, _ = robertson_bound(rho, PAULI_X, PAULI_Y)
        assert rhs - lhs_s >= -1e-9
        assert rhs - lhs_r >= -1e-9
        assert abs(bloch_norm(pauli_expectations(rho)) - 1.0) <= 1e-9
    assert not qubit_theory().contains(qubit_state_from_expectations(1.0, 1.0, 0.0))


@criterion(8, "unordered search against the closed form")
def test_criterion_8_grover():
    assert abs(run_grover(quantum_theory(2), GroverConfig(4, 2, 1)) - 1.0) <= 1e-12
    for N, n in ((4, 2), (16, 4), (64, 6)):
        budget = grover_iteration_budget(N)
        marked = N // 3
        curve = grover_success_curve(quantum_theory(n), marked, 2 * budget)
        for k, p in enumerate(curve):
            assert abs(p - grover_closed_form(N, k)) <= 1e-9
        assert curve[budget] > 0.5
        curve_q = grover_success_curve(quaternionic_theory(N), marked, 2 * budget)
        np.testing.assert_allclose(curve_q, curve, atol=1e-9)


@criterion(9, "byte-identical reports across reruns")
def test_criterion_9_determinism():
    reports = run_suite(seed=0)
    assert all(r.passed for r in reports)
    assert suite_canonical_bytes(0) == suite_canonical_bytes(0)
