"""Tests for oracle assembly, the constant-vs-balanced run, effect search,
and the unordered search.

Core claims:
    - classify counts ones; the single-marked table is 'neither'
    - promise tables are enumerated up to n = 4; beyond, nothing is built
    - oracle assembly reproduces diag(1,-1) for the one-bit flip table,
      rejects box-world encodings with the offending branch named, and
      rejects non-commuting encodings
    - the promise sweep validates its encoding once: a quaternionic N = 8
      dj-sweep makes 8 locality and 28 commutation checks in all; for
      every table with n <= 3, in both matrix algebras, its outcomes equal
      run_dj's bit for bit; it and the effect search refuse a non-local or
      a non-commuting encoding as build_oracle does, before any table is
      composed
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
      density-matrix reference; the locality probes reach apply as a
      diagonal and kets, every read-out is the marked branch's diagonal
      effect on the ket, and no density is formed; 200-round curves (quantum N = 4, 64; quaternionic N = 2,
      16) are pinned byte for byte by one sha256 each; sign_encoding shares one read-only identity, and each
      member is still checked on its own; it holds diagonals only, under
      4 N^2 scalars at N = 128 for both matrix theories; the quantum DJ
      input state and closing effect are read-only too
    - quaternionic DJ probabilities equal the quantum ones for n = 1, 2, 3
    - wire formats for oracle tables and search configs round-trip; a JSON
      value that is not an object with exactly the fields is refused, and
      so is a table that is not a sequence, by name, from JSON or not; a
      table of the wrong length is refused without forming 2**n, under a
      1 MB tracemalloc peak at n = 10**8
    - invalid search inputs (a marked branch or a round count that is out
      of range or not an integer) and inconclusive LP solves raise instead
      of returning a curve or a no-go; a theory with no beamsplitter is
      refused, with its localizable union when it has a finite one
"""

import hashlib
import itertools
import json
import math
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import gptifer.interferometer as ifr
from gptifer.core import DiagonalMap, Effect, GptState
from gptifer.experiments import run_experiment
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
    dj_outcome,
    find_distinguishing_effect,
    gbit_global_instruments,
    grover_closed_form,
    grover_iteration_budget,
    grover_success_curve,
    promise_sweep,
    quantum_dj_instruments,
    quaternionic_dj_instruments,
    run_dj,
    run_dj_with_global_oracle,
    run_grover,
    sign_encoding,
    spekkens_epistemic_dj_instruments,
    spekkens_ontic_dj_instruments,
)
from gptifer.quaternion import Quaternion
from gptifer.theories import (
    QuaternionicTheory,
    classical_theory,
    dball_theory,
    embed_rotation,
    gbit_theory,
    quantum_theory,
    quaternionic_theory,
    qubit_theory,
    spekkens_epistemic_statistics,
)
from reference import grover_density_curve, quat_diagonal


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


SPEC_KEY_REFUSALS = ('{"n": 1, "table": [0, 1], "junk": 3}', '{"n": 1}', "[1, [0, 1]]")
#: A table that is not a sequence, and its refusal: once a bare TypeError from tuple()
SPEC_NOT_A_TABLE = '{"n": 1, "table": 3}'


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
        SPEC_NOT_A_TABLE,
        *SPEC_KEY_REFUSALS,
    ],
)
def test_spec_from_json_rejects_non_integers(text):
    # a key too many or too few, or another JSON value, is refused by naming the keys
    keys = r"^OracleSpec JSON must be an object with exactly the keys \['n', 'table'\]"
    not_a_table = r"^table must be a sequence of bits, got 3$"
    match = keys if text in SPEC_KEY_REFUSALS else not_a_table if text == SPEC_NOT_A_TABLE else None
    with pytest.raises(ValueError, match=match):
        OracleSpec.from_json(text)
    if text == SPEC_NOT_A_TABLE:  # the constructor refuses it alike
        with pytest.raises(ValueError, match=not_a_table):
            OracleSpec(1, 3)


@pytest.mark.parametrize("n,length", [(1, 0), (1, 1), (1, 3), (1, 4), (2, 2), (2, 3), (2, 8), (3, 7)])
def test_spec_refuses_a_table_of_the_wrong_length(n, length):
    with pytest.raises(ValueError, match=rf"^table must have 2\*\*{n} entries$"):
        OracleSpec(n, (0,) * length)


def test_spec_refuses_a_huge_n_without_forming_two_to_the_n():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^table must have 2\*\*100000000 entries$"):
            OracleSpec.from_json('{"n": 100000000, "table": [0, 1]}')
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # 2**n alone would take 12.5 MB


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
        with pytest.raises(ValueError, match=rf"^constant_balanced_specs takes n <= 4 \(MAX_PROMISE_BITS\), got n = {n}$"):
            constant_balanced_specs(n)


# -- oracle assembly -----------------------------------------------------------------


def test_quantum_one_bit_flip_oracle_is_diag_one_minus_one():
    m, enc, _, _ = quantum_dj_instruments(1)
    U = build_oracle(m, OracleSpec(1, (0, 1)), enc)
    np.testing.assert_allclose(m.dense(U), np.diag([1.0, -1.0]), atol=1e-12)


def test_constant_zero_oracle_is_identity():
    m, enc, _, _ = quantum_dj_instruments(2)
    U = build_oracle(m, OracleSpec(2, (0, 0, 0, 0)), enc)
    np.testing.assert_allclose(m.dense(U), np.eye(4), atol=1e-12)


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
    i_phase = m.dense(quat_diagonal(Quaternion(0.0, 1.0), one))
    j_phase = m.dense(quat_diagonal(Quaternion(0.0, 0.0, 1.0), one))
    identity = m.dense(m.identity_map())
    enc = BranchEncoding(((i_phase, j_phase), (identity, identity)))
    with pytest.raises(NonCommutingEncodingError) as err:
        build_oracle(m, OracleSpec(1, (0, 1)), enc)
    assert str(err.value) == "choices on branches 0 and 0 do not commute"


# -- the promise sweep ------------------------------------------------------------------------


def test_a_dj_sweep_validates_its_encoding_once(monkeypatch):
    # all 72 tables of N = 8 share one validation: 8 locality checks and
    # 8 * 7 / 2 = 28 commutation checks, not that many per table
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(ifr, "is_branch_local", counted("local", ifr.is_branch_local))
    monkeypatch.setattr(QuaternionicTheory, "maps_commute", counted("commute", QuaternionicTheory.maps_commute))
    report = run_experiment("dj-sweep", {"theory": "quaternionic", "N": 8})
    assert report.passed and report.results["functions"] == 72
    assert calls == {"local": 8, "commute": 28}


@pytest.mark.parametrize(
    "instruments",
    [lambda n=n: quantum_dj_instruments(n) for n in (1, 2, 3)] + [lambda n=n: quaternionic_dj_instruments(2**n) for n in (1, 2, 3)],
    ids=["quantum-2", "quantum-4", "quantum-8", "quaternionic-2", "quaternionic-4", "quaternionic-8"],
)
def test_the_sweep_gives_run_djs_outcomes_bit_for_bit(instruments):
    m, enc, s_in, e_C = instruments()
    swept = list(promise_sweep(m, enc, s_in))
    assert [spec for spec, _ in swept] == list(constant_balanced_specs(m.n_branches.bit_length() - 1))
    for spec, out in swept:
        mine, reference = dj_outcome(m, out, e_C), run_dj(m, spec, enc, s_in, e_C)
        assert mine.verdict == reference.verdict == classify(spec)
        assert mine.p_constant_effect == reference.p_constant_effect
        assert np.array_equal(m._entries(out), m._entries(reference.output_state))


def _raised(call) -> tuple:
    with pytest.raises(ValueError) as err:
        call()
    return type(err.value), str(err.value), getattr(err.value, "failures", None)


def _gbit_x_flip_on_branch_0(monkeypatch):
    m = gbit_theory(2)
    flip = (m.identity_map(), m.group.by_name("X-flip"))
    return m, BranchEncoding((flip, (m.identity_map(), m.identity_map()))), GptState([0.5, 0.5, 1.0, 0.0])


def _toy_swaps_that_do_not_commute(monkeypatch):
    # the epistemic toy bit's local swaps, in a model told they do not commute
    m, enc, s_in, _ = spekkens_epistemic_dj_instruments()
    monkeypatch.setattr(m, "maps_commute", lambda a, b: False)
    return m, enc, s_in


def _quaternionic_i_then_j(monkeypatch):
    # i and j on branch 0: each is local, but ij = -ji
    m = quaternionic_theory(2)
    one = Quaternion(1.0)
    i_phase = m.dense(quat_diagonal(Quaternion(0.0, 1.0), one))
    j_phase = m.dense(quat_diagonal(Quaternion(0.0, 0.0, 1.0), one))
    identity = m.identity_map()
    return m, BranchEncoding(((i_phase, j_phase), (identity, identity))), m.uniform_superposition()


def _quantum_beamsplitter_on_branch_1(monkeypatch):
    m, enc, s_in, _ = quantum_dj_instruments(2)
    pairs = list(enc.pairs)
    pairs[1] = (m.identity_map(), m.beamsplitter)
    return m, BranchEncoding(tuple(pairs)), s_in


@pytest.mark.parametrize(
    "rejected, searchable, expected",
    [
        (_gbit_x_flip_on_branch_0, True, (BranchLocalityError, ((0, 1),))),
        (_quantum_beamsplitter_on_branch_1, False, (BranchLocalityError, ((1, 1),))),
        (_toy_swaps_that_do_not_commute, True, (NonCommutingEncodingError, None)),
        (_quaternionic_i_then_j, False, (NonCommutingEncodingError, None)),
    ],
    ids=["gbit-local", "quantum-local", "toy-commute", "quaternionic-commute"],
)
def test_the_sweep_refuses_an_encoding_as_build_oracle_does(rejected, searchable, expected, monkeypatch):
    m, enc, s_in = rejected(monkeypatch)
    spec = constant_balanced_specs(m.n_branches.bit_length() - 1)[-1]
    reference = _raised(lambda: build_oracle(m, spec, enc))
    assert (reference[0], reference[2]) == expected

    def no_table(*args):
        raise AssertionError("a table was composed")

    monkeypatch.setattr(m, "compose", no_table)  # validation composes no map here
    assert _raised(lambda: promise_sweep(m, enc, s_in)) == reference
    if searchable:
        assert _raised(lambda: find_distinguishing_effect(m, enc, s_in, strict=True)) == reference


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
    for n in (1, 2, 3):
        m_q, enc_q, s_q, e_q = quaternionic_dj_instruments(2**n)
        m_c, enc_c, s_c, e_c = quantum_dj_instruments(n)
        for spec in constant_balanced_specs(n):
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


#: sha256 of the float64 bytes of the 200-round curve marking branch N - 1.
SEARCH_CURVE_DIGESTS = {
    ("quantum", 2): "14edd30dfec993e082b7571b00abb1d6c164d586a3d1c658a97b316a4743f935",
    ("quantum", 6): "5032e3b47b24da31eb5137092641a9cbb781162e15dfbb40247d57dc3c89a66c",
    ("quaternionic", 2): "f569c6f4b73a33283a128791cc598990a03413621620860bc5f211dea07f1cb8",
    ("quaternionic", 16): "39593aebc24bb07b6cd173f8b554cd14d36b317f19de35f09f0cce3382f07381",
}


@pytest.mark.parametrize("name,size", SEARCH_CURVE_DIGESTS, ids=lambda v: str(v))
def test_search_curves_are_pinned_byte_for_byte(name, size):
    m = quantum_theory(size) if name == "quantum" else quaternionic_theory(size)
    curve = grover_success_curve(m, m.n_branches - 1, 200)
    assert hashlib.sha256(np.array(curve).tobytes()).hexdigest() == SEARCH_CURVE_DIGESTS[name, size]


def _form(state) -> str:
    # in both matrix theories a diagonal is a DiagonalMap, a ket an N x 1
    # matrix and a density an N x N one
    if isinstance(state, DiagonalMap):
        return "diagonal"
    rows, cols = state.shape
    return "ket" if cols == 1 else "density" if cols == rows else f"a {rows}x{cols} matrix"


def _recording(m, name, monkeypatch) -> list:
    # wrap m.<name> to record the arguments of each call
    seen = []
    method = getattr(m, name)

    def wrapper(*args):
        seen.append(args)
        return method(*args)

    monkeypatch.setattr(m, name, wrapper)
    return seen


_GUARDED = [quantum_theory(1), quantum_theory(3), quaternionic_theory(2), quaternionic_theory(8)]


@pytest.mark.parametrize("m", _GUARDED, ids=lambda m: f"{m.name}-{m.n_branches}")
def test_search_probes_with_densities_and_evolves_a_ket(m, monkeypatch):
    # the locality probes of the two oracle builds keep their structure: the
    # weighted remote mixture is a diagonal and the other probes are kets
    # (at two branches the mixture alone); the preparation and every round
    # take the ket, and every read-out is the marked branch's diagonal
    # effect on it.  No state reaches apply or probability as a density
    applied = _recording(m, "apply", monkeypatch)
    read = _recording(m, "probability", monkeypatch)
    k = 9
    N = m.n_branches
    grover_success_curve(m, N - 1, k)
    probes = [_form(s) for s in m.branch_local_probes(0)]
    assert probes == (["diagonal"] if N == 2 else ["diagonal"] + ["ket"] * (len(probes) - 1))
    assert [_form(s) for _, s in applied] == probes * (2 * N) + ["ket"] * (1 + k)
    assert [(_form(e), _form(s)) for e, s in read] == [("diagonal", "ket")] * (1 + k)
    marked = m._entries(m.branch_state(N - 1))
    assert all(np.array_equal(m._entries(m.dense(e)), marked) for e, _ in read)


def test_sign_encoding_shares_one_read_only_identity(monkeypatch):
    for m in (quantum_theory(3), quaternionic_theory(4)):
        enc = sign_encoding(m)
        identity = enc.pairs[0][0]
        assert all(t0 is identity for t0, _ in enc.pairs) and m.is_identity_map(identity)
        # flip x is 1 - 2 e_x, bit for bit, though its rows come from one stacked array
        for x, (_, flip) in enumerate(enc.pairs):
            assert flip.comps.tobytes() == m.diagonal_map(1.0 - 2.0 * (np.arange(m.dim) == x)).comps.tobytes()
        # each member is still checked on its own
        checked = _recording(m, "is_identity_map", monkeypatch)
        build_oracle(m, OracleSpec(m.n_branches.bit_length() - 1, (1,) + (0,) * (m.n_branches - 1)), enc)
        assert len(checked) == 2 * m.n_branches
    with pytest.raises(ValueError, match="read-only"):
        sign_encoding(quantum_theory(2)).pairs[0][0].comps[0, 0] = 2.0
    # so are the quantum input state and closing effect, the latter B P B bit for bit
    m, _, s_in, e_C = quantum_dj_instruments(2)
    assert not s_in.flags.writeable and not e_C.flags.writeable
    assert e_C.tobytes() == (m.beamsplitter @ m.branch_state(0) @ m.beamsplitter).tobytes()
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


@pytest.mark.parametrize("make, n", [(quantum_theory, 7), (quaternionic_theory, 128)], ids=["quantum", "quaternionic"])
def test_sign_encoding_holds_its_diagonals_only(make, n):
    # O(N^2) bytes, not N + 1 dense N x N maps: about 34 MB (quantum) and
    # 68 MB (quaternionic) at N = 128 when each member was dense
    m = make(n)
    N = m.n_branches
    scalar = m.PHASES.dtype.itemsize * m.PHASES.shape[1]  # bytes of one complex or quaternion entry
    tracemalloc.start()
    try:
        enc = sign_encoding(m)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert N == 128 and enc.n_branches == N and held < 4 * N * N * scalar


def test_search_unsupported_without_beamsplitter():
    from gptifer.theories import spekkens_ontic_theory

    for m in (classical_theory(2), gbit_theory(2)):
        with pytest.raises(UnsupportedTheoryError) as err:
            run_grover(m, GroverConfig(2, 0, 1))
        assert "identity" in str(err.value)
    with pytest.raises(UnsupportedTheoryError) as err:
        run_grover(spekkens_ontic_theory(), GroverConfig(2, 0, 1))
    assert "2134" in str(err.value)  # the diagnosis lists what is localizable


def test_search_without_beamsplitter_and_without_finite_union_names_no_union():
    # a round theory has no finite localizable union: the diagnosis is left out
    with pytest.raises(UnsupportedTheoryError) as err:
        grover_success_curve(qubit_theory(), 0, 1)
    assert str(err.value) == "theory 'qubit' has no beamsplitter transform"


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
        with pytest.raises(ValueError, match=f"^grover_success_curve takes 0 <= marked <= 3, got marked = {marked}$"):
            grover_success_curve(m, marked, 1)
    with pytest.raises(ValueError, match=r"^grover_success_curve takes 0 <= max_iterations <= 1000000 \(MAX_GROVER_ITERATIONS\), got max_iterations = -1$"):
        grover_success_curve(m, 0, -1)
    for marked, iterations, label in ((True, 1, "marked"), (1.0, 1, "marked"), (0, 1.5, "max_iterations")):
        with pytest.raises(ValueError, match=f"^{label} must be an integer"):
            grover_success_curve(m, marked, iterations)


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
        ('{"N": 16, "marked": 1, "iterations": 3, "junk": 3}', "JSON"),
        ('{"N": 16, "marked": 1}', "JSON"),
        ('[16, 1, 3]', "JSON"),
    ],
)
def test_grover_config_accepts_only_integers(text, label):
    # a key too many or too few, or another JSON value, is refused by naming the keys
    keys = r"^GroverConfig JSON must be an object with exactly the keys \['N', 'iterations', 'marked'\]"
    with pytest.raises(ValueError, match=keys if label == "JSON" else f"^{label} must be an integer"):
        GroverConfig.from_json(text)
    assert GroverConfig(np.int64(16), 1, 3) == GroverConfig(16, 1, 3)


def _identity_encoding(m):
    return BranchEncoding(((m.identity_map(), m.identity_map()),) * m.n_branches)


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(
            lambda: ifr.validate_encoding(quantum_theory(2), sign_encoding(quantum_theory(1))),
            "encoding covers 2 branches, theory 'quantum' has 4",
            id="validate_encoding",
        ),
        pytest.param(
            lambda: build_oracle(quantum_theory(2), OracleSpec(1, (0, 1)), sign_encoding(quantum_theory(2))),
            "truth table covers 2 branches, theory 'quantum' has 4",
            id="build_oracle",
        ),
        pytest.param(
            lambda: promise_sweep(classical_theory(3), _identity_encoding(classical_theory(3)), GptState(np.full(3, 1 / 3))),
            "promise tables cover 2**n branches, theory 'classical' has 3, no power of two",
            id="promise_sweep",
        ),
    ],
)
def test_a_branch_count_mismatch_names_both_counts(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_run_grover_refuses_a_config_of_another_size():
    with pytest.raises(ValueError, match="^configured branch count does not match the theory$"):
        run_grover(quantum_theory(1), GroverConfig(4, 0, 1))


@pytest.mark.parametrize("m", [gbit_theory(2), classical_theory(2), qubit_theory()], ids=lambda m: m.name)
def test_sign_encoding_needs_a_matrix_theory(m):
    with pytest.raises(UnsupportedTheoryError, match=f"^no sign encoding for theory '{m.name}'$"):
        sign_encoding(m)


@pytest.mark.parametrize("N", [3, 5, 6])
def test_matrix_instruments_need_a_power_of_two_branch_count(N):
    with pytest.raises(ValueError, match="^branch count must be a power of two$"):
        quaternionic_dj_instruments(N)
