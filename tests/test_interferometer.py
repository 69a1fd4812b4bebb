"""Tests for oracle assembly, the constant-vs-balanced run, effect search,
and the unordered search.

Core claims:
    - classify counts ones; the single-marked table is 'neither'
    - promise tables are enumerated up to n = 4; beyond, nothing is built
    - oracle assembly reproduces diag(1,-1) for the one-bit flip table,
      rejects box-world encodings with the offending branch named, and
      rejects non-commuting encodings
    - quantum runs: p = 1 constant / p = 0 balanced, exhaustively, matching
      the independent closed form |sum +-1|^2 / 4^n
    - toy-bit runs: the documented 13 -> 13 / 13 -> 24 behavior with exact
      1/0 probabilities on the X effect
    - effect search: none for the hidden variable even in weak mode; the
      X=+1 witness for the restricted toy bit; round and matrix-backed
      theories are refused before any oracle is built
    - unordered search matches sin^2((2k+1) asin(1/sqrt(N))) and the
      quaternionic run reproduces the complex run
    - search evolves a ket: every point of the curve is within 1e-12 of the
      density-matrix reference, and only the locality probes reach apply as
      densities; sign_encoding shares one read-only identity, and each
      member is still checked on its own
    - wire formats for oracle tables and search configs round-trip
    - invalid search inputs and inconclusive LP solves raise instead of
      returning a curve or a no-go
"""

import itertools
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import gptifer.interferometer as ifr
from gptifer.core import Effect
from gptifer.interferometer import (
    BranchEncoding,
    BranchLocalityError,
    GroverConfig,
    MAX_PROMISE_BITS,
    NonCommutingEncodingError,
    OracleSpec,
    UnsupportedTheoryError,
    ball_dj_instruments,
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
    sign_encoding,
    spekkens_epistemic_dj_instruments,
    spekkens_ontic_dj_instruments,
)
from gptifer.quaternion import QuatKet, QuatMatrix, Quaternion
from gptifer.theories import (
    classical_theory,
    dball_theory,
    embed_rotation,
    gbit_theory,
    quantum_theory,
    quaternionic_theory,
    qubit_theory,
    spekkens_epistemic_statistics,
)
from reference import grover_density_curve


# -- classification ---------------------------------------------------------------


def test_classify_examples():
    assert classify(OracleSpec(1, (0, 0))) == "constant"
    assert classify(OracleSpec(2, (0, 1, 1, 0))) == "balanced"
    assert classify(OracleSpec(2, (1, 0, 0, 0))) == "neither"


def test_spec_validation():
    with pytest.raises(ValueError):
        OracleSpec(2, (0, 1))
    with pytest.raises(ValueError):
        OracleSpec(1, (0, 2))


@pytest.mark.parametrize(
    "n,table",
    [
        (1, (0.7, 1)),
        (1, (0.0, 1)),
        (1, ("1", "0")),
        (1, (True, False)),
        (1, (np.bool_(True), 0)),
        (1.0, (0, 1)),
        (True, (0, 1)),
        ("1", (0, 1)),
    ],
)
def test_spec_rejects_non_integer_entries(n, table):
    with pytest.raises(ValueError):
        OracleSpec(n, table)


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 1.9, "table": [0, 1]}',
        '{"n": 1.0, "table": [0, 1]}',
        '{"n": true, "table": [0, 1]}',
        '{"n": 1, "table": [0.0, 1]}',
        '{"n": 1, "table": [true, false]}',
        '{"n": 1, "table": ["0", "1"]}',
        '{"n": 1, "table": "01"}',
    ],
)
def test_spec_from_json_rejects_non_integers(text):
    with pytest.raises(ValueError):
        OracleSpec.from_json(text)


def test_spec_accepts_numpy_integers_as_plain_ints():
    spec = OracleSpec(np.int64(1), tuple(np.array([0, 1], dtype=np.int8)))
    assert spec == OracleSpec(1, (0, 1))
    assert type(spec.n) is int and all(type(b) is int for b in spec.table)
    assert OracleSpec.from_json(spec.to_json()) == spec


def test_constant_balanced_counts():
    assert len(constant_balanced_specs(1)) == 4
    assert len(constant_balanced_specs(2)) == 8
    assert len(constant_balanced_specs(3)) == 72


def test_promise_tables_are_enumerated_up_to_the_bound(monkeypatch):
    assert MAX_PROMISE_BITS == 4
    assert len(constant_balanced_specs(4)) == math.comb(16, 8) + 2

    def no_spec(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(ifr, "OracleSpec", no_spec)
    for n in (5, 30):
        with pytest.raises(ValueError, match=f"enumerated for n <= 4, got n = {n}"):
            constant_balanced_specs(n)


# -- oracle assembly -----------------------------------------------------------------


def test_quantum_one_bit_flip_oracle_is_diag_one_minus_one():
    m, enc, _, _ = quantum_dj_instruments(1)
    U = build_oracle(m, OracleSpec(1, (0, 1)), enc)
    np.testing.assert_allclose(U, np.diag([1.0, -1.0]), atol=1e-12)


def test_constant_zero_oracle_is_identity():
    m, enc, _, _ = quantum_dj_instruments(2)
    U = build_oracle(m, OracleSpec(2, (0, 0, 0, 0)), enc)
    np.testing.assert_allclose(U, np.eye(4), atol=1e-12)


def test_box_world_encoding_rejected_with_branch_report():
    m = gbit_theory(2)
    x_flip = m.group.by_name("X-flip")
    for branch in (0, 1):
        pairs = [(m.identity_map(), m.identity_map()), (m.identity_map(), m.identity_map())]
        pairs[branch] = (m.identity_map(), x_flip)
        enc = BranchEncoding(tuple(pairs))
        table = tuple(1 if b == branch else 0 for b in range(2))
        with pytest.raises(BranchLocalityError) as err:
            build_oracle(m, OracleSpec(1, table), enc)
        assert err.value.failures == ((branch, 1),)


def test_commuting_ball_encoding_in_disjoint_planes_accepted():
    m = dball_theory(5)
    half_01 = np.eye(5)
    half_01[0, 0] = half_01[1, 1] = -1.0
    half_23 = np.eye(5)
    half_23[2, 2] = half_23[3, 3] = -1.0
    enc = BranchEncoding(
        ((m.identity_map(), embed_rotation(half_01)),
         (m.identity_map(), embed_rotation(half_23)))
    )
    oracle = build_oracle(m, OracleSpec(1, (1, 1)), enc)
    # both half-turns applied: coordinates 0..3 all change sign
    vec = np.full(10, 0.5)
    vec[0], vec[1] = 1.0, 0.0
    out = oracle.matrix @ vec
    np.testing.assert_allclose(out[:2], [0.0, 1.0], atol=1e-12)


def test_noncommuting_ball_encoding_rejected():
    m = dball_theory(4)
    quarter_01 = np.eye(4)
    quarter_01[:2, :2] = [[0.0, -1.0], [1.0, 0.0]]
    quarter_12 = np.eye(4)
    quarter_12[1:3, 1:3] = [[0.0, -1.0], [1.0, 0.0]]
    T1 = embed_rotation(quarter_01, "quarter(01)")
    T2 = embed_rotation(quarter_12, "quarter(12)")
    enc = BranchEncoding(((m.identity_map(), T1), (m.identity_map(), T2)))
    with pytest.raises(NonCommutingEncodingError):
        build_oracle(m, OracleSpec(1, (1, 1)), enc)


# -- quantum runs ---------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quantum_runs_match_closed_form_exhaustively(n):
    m, enc, s_in, e_C = quantum_dj_instruments(n)
    for spec in constant_balanced_specs(n):
        out = run_dj(m, spec, enc, s_in, e_C)
        closed = abs(sum((-1.0) ** b for b in spec.table)) ** 2 / 4.0**n
        assert out.p_constant_effect == pytest.approx(closed, abs=1e-12)
        assert out.verdict == classify(spec)


def test_run_dj_rejects_unpromised_tables():
    m, enc, s_in, e_C = quantum_dj_instruments(2)
    with pytest.raises(ValueError):
        run_dj(m, OracleSpec(2, (1, 0, 0, 0)), enc, s_in, e_C)


# -- toy-bit runs ------------------------------------------------------------------------


def test_restricted_toy_bit_runs_reach_13_or_24():
    m, enc, s_in, e_C = spekkens_epistemic_dj_instruments()
    out_const = run_dj(m, OracleSpec(1, (1, 1)), enc, s_in, e_C)
    np.testing.assert_array_equal(
        out_const.output_state.probs,
        spekkens_epistemic_statistics(frozenset({1, 3})).probs,
    )
    assert out_const.p_constant_effect == 1.0
    out_bal = run_dj(m, OracleSpec(1, (0, 1)), enc, s_in, e_C)
    np.testing.assert_array_equal(
        out_bal.output_state.probs,
        spekkens_epistemic_statistics(frozenset({2, 4})).probs,
    )
    assert out_bal.p_constant_effect == 0.0


def test_hidden_variable_runs_land_in_overlapping_classes():
    m, enc, s_in, e_C = spekkens_ontic_dj_instruments()
    probs = {}
    for spec in constant_balanced_specs(1):
        out = run_dj(m, spec, enc, s_in, e_C)
        probs[spec.table] = out.p_constant_effect
    # constant-1 output looks balanced on the X effect; that is the failure
    assert probs[(0, 0)] == 1.0
    assert probs[(1, 1)] == 0.0
    assert probs[(0, 1)] == 0.5
    assert probs[(1, 0)] == 0.5


def test_quaternionic_i_and_j_phases_on_one_branch_do_not_commute():
    m = quaternionic_theory(2)
    one = Quaternion(1.0)
    i_phase = QuatMatrix.diag([Quaternion(0.0, 1.0), one])
    j_phase = QuatMatrix.diag([Quaternion(0.0, 0.0, 1.0), one])
    identity = QuatMatrix.identity(2)
    enc = BranchEncoding(((i_phase, j_phase), (identity, identity)))
    with pytest.raises(NonCommutingEncodingError) as err:
        build_oracle(m, OracleSpec(1, (0, 1)), enc)
    assert str(err.value) == "choices on branches 0 and 0 do not commute"


# -- effect search -----------------------------------------------------------------------------


def test_hidden_variable_has_no_effect_even_weakly():
    m, enc, s_in, _ = spekkens_ontic_dj_instruments()
    assert find_distinguishing_effect(m, enc, s_in, strict=True) is None
    assert find_distinguishing_effect(m, enc, s_in, strict=False) is None


def test_restricted_toy_bit_search_finds_witness_and_x_plus_works():
    m, enc, s_in, e_C = spekkens_epistemic_dj_instruments()
    witness = find_distinguishing_effect(m, enc, s_in, strict=True)
    assert witness is not None
    # the returned witness and the X=+1 effect both separate exactly
    for effect in (witness, Effect(np.eye(6)[0])):
        for spec in constant_balanced_specs(1):
            out = run_dj(m, spec, enc, s_in, effect)
            expected = 1.0 if classify(spec) == "constant" else 0.0
            assert out.p_constant_effect == pytest.approx(expected, abs=1e-9)


def test_inconclusive_lp_raises_instead_of_reporting_no_effect(monkeypatch):
    import gptifer.interferometer as ifr

    def iteration_limit(*args, **kwargs):
        return SimpleNamespace(
            status=1, success=False, message="Iteration limit reached.", x=None
        )

    monkeypatch.setattr(ifr, "linprog", iteration_limit)
    m, enc, s_in, _ = spekkens_ontic_dj_instruments()
    with pytest.raises(RuntimeError, match="status 1: Iteration limit reached"):
        find_distinguishing_effect(m, enc, s_in, strict=True)


def test_effect_search_needs_a_polytope():
    m, enc, s_in, _ = quantum_dj_instruments(1)
    with pytest.raises(UnsupportedTheoryError, match="^effect search needs a polytope theory$"):
        find_distinguishing_effect(m, enc, s_in, strict=True)


@pytest.mark.parametrize(
    "instruments",
    [lambda: quantum_dj_instruments(4), lambda: ball_dj_instruments(qubit_theory())],
    ids=["quantum4", "qubit"],
)
def test_effect_search_is_refused_before_any_oracle_is_built(instruments, monkeypatch):
    m, enc, s_in, _ = instruments()

    def no_oracle(*args):
        raise AssertionError("an oracle was built")

    monkeypatch.setattr(ifr, "build_oracle", no_oracle)
    for strict in (True, False):
        with pytest.raises(UnsupportedTheoryError, match="^effect search needs a polytope theory$"):
            find_distinguishing_effect(m, enc, s_in, strict=strict)


# -- global protocol (box world) ------------------------------------------------------------------


def test_global_x_flip_protocol_solves_the_one_bit_problem():
    m, x_flip, s_in, e_C = gbit_global_instruments()
    for spec in constant_balanced_specs(1):
        out = run_dj_with_global_oracle(m, spec, x_flip, s_in, e_C)
        assert out.p_constant_effect in (0.0, 1.0)
        assert out.verdict == classify(spec)


# -- ball runs ------------------------------------------------------------------------------------


@pytest.mark.parametrize("d", [3, 4, 5])
def test_ball_half_turn_runs_exactly(d):
    m, enc, s_in, e_C = ball_dj_instruments(dball_theory(d))
    for spec in constant_balanced_specs(1):
        out = run_dj(m, spec, enc, s_in, e_C)
        assert out.verdict == classify(spec)


def test_two_measurement_ball_has_no_encoding():
    with pytest.raises(UnsupportedTheoryError):
        ball_dj_instruments(dball_theory(2))


# -- quaternionic runs -------------------------------------------------------------------------------


@pytest.mark.parametrize("N", [2, 4, 8])
def test_quaternionic_runs_exact(N):
    m, enc, s_in, e_C = quaternionic_dj_instruments(N)
    n = int(math.log2(N))
    for spec in constant_balanced_specs(n):
        out = run_dj(m, spec, enc, s_in, e_C)
        assert out.verdict == classify(spec)
        closed = abs(sum((-1.0) ** b for b in spec.table)) ** 2 / float(N * N)
        assert out.p_constant_effect == pytest.approx(closed, abs=1e-9)


def test_quaternionic_dj_probabilities_match_quantum_entrywise():
    m_q, enc_q, s_q, e_q = quaternionic_dj_instruments(4)
    m_c, enc_c, s_c, e_c = quantum_dj_instruments(2)
    for spec in constant_balanced_specs(2):
        p_q = run_dj(m_q, spec, enc_q, s_q, e_q).p_constant_effect
        p_c = run_dj(m_c, spec, enc_c, s_c, e_c).p_constant_effect
        assert p_q == pytest.approx(p_c, abs=1e-9)


def test_negation_symmetry_for_signed_encodings():
    for instruments in (quantum_dj_instruments(2), quaternionic_dj_instruments(4)):
        m, enc, s_in, e_C = instruments
        effects = list(m.z_effects) + [e_C]
        for spec in constant_balanced_specs(2):
            negated = OracleSpec(2, tuple(1 - b for b in spec.table))
            out = run_dj(m, spec, enc, s_in, e_C)
            out_neg = run_dj(m, negated, enc, s_in, e_C)
            for e in effects:
                assert m.probability(e, out.output_state) == pytest.approx(
                    m.probability(e, out_neg.output_state), abs=1e-9
                )


def test_balanced_pair_survey_marks_negations_indistinguishable():
    m, enc, s_in, e_C = quantum_dj_instruments(2)
    B = m.beamsplitter
    # the full post-beamsplitter measurement, one effect per output branch
    effects = [B @ z @ B for z in m.z_effects]
    balanced = [s for s in constant_balanced_specs(2) if classify(s) == "balanced"]
    outputs = {s.table: run_dj(m, s, enc, s_in, e_C).output_state for s in balanced}
    pairs = list(itertools.combinations(outputs, 2))
    assert len(pairs) == 15  # C(6, 2) balanced pairs at n=2
    for ta, tb in pairs:
        gap = max(abs(m.probability(e, outputs[ta]) - m.probability(e, outputs[tb])) for e in effects)
        if all(a != b for a, b in zip(ta, tb)):  # negations of each other
            assert gap <= 1e-12
        else:
            assert gap > 0.1


# -- unordered search -----------------------------------------------------------------------------------


def test_four_branch_single_round_is_certain():
    m = quantum_theory(2)
    assert run_grover(m, GroverConfig(4, 2, 1)) == pytest.approx(1.0, abs=1e-12)


def test_two_branch_zero_rounds_is_even():
    m = quantum_theory(1)
    assert run_grover(m, GroverConfig(2, 1, 0)) == pytest.approx(0.5, abs=1e-12)


def test_sixteen_branch_three_rounds_matches_closed_form():
    m = quantum_theory(4)
    p = run_grover(m, GroverConfig(16, 7, 3))
    assert p == pytest.approx(math.sin(7.0 * math.asin(0.25)) ** 2, abs=1e-9)


@pytest.mark.parametrize("N,n", [(4, 2), (16, 4)])
def test_success_curve_matches_closed_form_and_wins_at_budget(N, n):
    m = quantum_theory(n)
    budget = grover_iteration_budget(N)
    curve = grover_success_curve(m, marked=N - 1, max_iterations=2 * budget)
    for k, p in enumerate(curve):
        assert p == pytest.approx(grover_closed_form(N, k), abs=1e-9)
    assert curve[budget] > 0.5


def test_quaternionic_search_reproduces_complex_search():
    budget = grover_iteration_budget(16)
    curve_c = grover_success_curve(quantum_theory(4), 5, 2 * budget)
    curve_q = grover_success_curve(quaternionic_theory(16), 5, 2 * budget)
    np.testing.assert_allclose(curve_q, curve_c, atol=1e-9)


_SEARCH_CASES = [(quantum_theory(n), marked) for n in (1, 2, 4, 6) for marked in (0, 2**n - 1)] + [
    (quaternionic_theory(N), marked) for N in (2, 4, 16) for marked in (0, N - 1)
]


@pytest.mark.parametrize("m,marked", _SEARCH_CASES, ids=[f"{m.name}-{m.n_branches}-marked{x}" for m, x in _SEARCH_CASES])
def test_ket_curve_matches_the_density_reference(m, marked):
    rounds = 40
    curve = grover_success_curve(m, marked, rounds)
    reference = grover_density_curve(m, marked, rounds)
    assert len(curve) == len(reference) == rounds + 1
    assert all(isinstance(p, float) for p in curve)
    assert max(abs(p - r) for p, r in zip(curve, reference)) <= 1e-12


def _form(state) -> str:
    if isinstance(state, QuatKet) or (isinstance(state, np.ndarray) and state.ndim == 1):
        return "ket"
    if isinstance(state, QuatMatrix) or (isinstance(state, np.ndarray) and state.ndim == 2):
        return "density"
    return type(state).__name__


def _recording(m, name, monkeypatch) -> list:
    # wrap m.<name> to record each call's last argument: the state for
    # apply and probability, the map for is_identity_map
    seen = []
    method = getattr(m, name)

    def wrapper(*args):
        seen.append(args[-1])
        return method(*args)

    monkeypatch.setattr(m, name, wrapper)
    return seen


_GUARDED = [quantum_theory(1), quantum_theory(3), quaternionic_theory(2), quaternionic_theory(8)]


@pytest.mark.parametrize("m", _GUARDED, ids=lambda m: f"{m.name}-{m.n_branches}")
def test_search_probes_with_densities_and_evolves_a_ket(m, monkeypatch):
    # only the locality probes of the two oracle builds are densities; the
    # preparation, every round and every read-out take the ket
    applied = _recording(m, "apply", monkeypatch)
    read = _recording(m, "probability", monkeypatch)
    k = 9
    grover_success_curve(m, m.n_branches - 1, k)
    probes = 2 * len(m.branch_local_probes(0)) * m.n_branches
    assert [_form(s) for s in applied] == ["density"] * probes + ["ket"] * (1 + k)
    assert [_form(s) for s in read] == ["ket"] * (1 + k)


def test_sign_encoding_shares_one_read_only_identity(monkeypatch):
    for m in (quantum_theory(3), quaternionic_theory(4)):
        enc = sign_encoding(m)
        identity = enc.pairs[0][0]
        assert all(t0 is identity for t0, _ in enc.pairs) and m.is_identity_map(identity)
        # each member is still checked on its own
        checked = _recording(m, "is_identity_map", monkeypatch)
        build_oracle(m, OracleSpec(m.n_branches.bit_length() - 1, (1,) + (0,) * (m.n_branches - 1)), enc)
        assert len(checked) == 2 * m.n_branches
    with pytest.raises(ValueError, match="read-only"):
        sign_encoding(quantum_theory(2)).pairs[0][0][0, 0] = 2.0
    # N flips and one identity, not a second dense N x N map per branch
    m = quantum_theory(7)
    N = m.n_branches
    tracemalloc.start()
    try:
        enc = sign_encoding(m)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert enc.n_branches == N and held < (N + 2) * N * N * 16


def test_search_unsupported_without_beamsplitter():
    from gptifer.theories import spekkens_ontic_theory

    for m in (classical_theory(2), gbit_theory(2)):
        with pytest.raises(UnsupportedTheoryError) as err:
            run_grover(m, GroverConfig(2, 0, 1))
        assert "identity" in str(err.value)
    with pytest.raises(UnsupportedTheoryError) as err:
        run_grover(spekkens_ontic_theory(), GroverConfig(2, 0, 1))
    assert "2134" in str(err.value)  # the diagnosis lists what is localizable


def test_grover_config_validation():
    with pytest.raises(ValueError):
        GroverConfig(4, 4, 1)
    with pytest.raises(ValueError):
        GroverConfig(4, 0, -1)
    for N in (-2, 0, 1, 3, 6, 12):
        with pytest.raises(ValueError):
            GroverConfig(N, 0, 0)


def test_success_curve_rejects_out_of_range_inputs():
    m = quantum_theory(2)
    for marked in (-1, 4):
        with pytest.raises(ValueError, match="marked branch"):
            grover_success_curve(m, marked, 1)
    with pytest.raises(ValueError, match="non-negative"):
        grover_success_curve(m, 0, -1)


# -- wire formats ---------------------------------------------------------------------------------------------


def test_oracle_spec_json_round_trip(tmp_path):
    spec = OracleSpec(2, (0, 1, 1, 0))
    assert json.loads(spec.to_json()) == {"n": 2, "table": [0, 1, 1, 0]}
    assert OracleSpec.from_json(spec.to_json()) == spec
    path = tmp_path / "oracle.json"
    spec.to_file(path)
    assert OracleSpec.from_file(path) == spec


def test_grover_config_json_round_trip():
    cfg = GroverConfig(16, 5, 3)
    assert json.loads(cfg.to_json()) == {"N": 16, "marked": 5, "iterations": 3}
    assert GroverConfig.from_json(cfg.to_json()) == cfg


@pytest.mark.parametrize(
    "text,label",
    [
        ('{"N": 16.9, "marked": 1, "iterations": 3}', "N"),
        ('{"N": 16, "marked": true, "iterations": 3}', "marked"),
        ('{"N": 16, "marked": 1, "iterations": "3"}', "iterations"),
        ('{"N": 16.0, "marked": 1, "iterations": 3}', "N"),
    ],
)
def test_grover_config_accepts_only_integers(text, label):
    with pytest.raises(ValueError, match=f"{label} must be an integer"):
        GroverConfig.from_json(text)
    assert GroverConfig(np.int64(16), 1, 3) == GroverConfig(16, 1, 3)
