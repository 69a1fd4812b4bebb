"""Tests for relabelings: the finite theories' maps, stored as their images.

Core claims:
    - a relabeling acts, composes and materializes exactly as its dense 0/1
      matrix does: apply equals the dense product bit for bit on every
      vertex and on random finite states, compose equals the matrix product
    - a NaN or infinite entry moves to its image and nothing else changes;
      the dense product would spread NaN through 0 * inf
    - is_phase_operation, is_branch_local, is_identity_map and maps_commute,
      decided on the image, give the per-state dense verdicts for every
      element and branch of classical N = 2..5, gbit2..gbit4 and both toy
      bits, and the group filters give the same elements in group order
    - a relabeling and a dense map of the same matrix compare and hash
      equal; a dense map that is no permutation matrix equals no relabeling
    - an image that is no permutation, a group row that is none and a
      relabeling of the wrong dimension are refused by name
    - the phase group is filtered once per theory object, for every branch
    - gbit6, 46,080 relabelings, builds under a 5 MB tracemalloc peak
    - a name lookup builds the one element it returns, on gbit6 too; on both
      toy bits and gbit2 every name finds the first element of that name in
      group order, as a scan of the built elements does
"""

import itertools
import tracemalloc

import numpy as np
import pytest

import gptifer.theories as th
from gptifer.core import FiniteGroup, GptState, LinearMap, Relabeling, apply
from gptifer.phase import (
    branch_local_subgroup,
    is_branch_local,
    is_phase_operation,
    localizable_union,
    phase_group,
)
from gptifer.theories import (
    classical_theory,
    gbit_theory,
    quantum_theory,
    spekkens_epistemic_theory,
    spekkens_ontic_theory,
)
from reference import (
    dense,
    reference_is_branch_local,
    reference_is_identity_map,
    reference_is_phase_operation,
    reference_maps_commute,
)

FINITE = [
    *(lambda N=N: classical_theory(N) for N in (2, 3, 4, 5)),
    *(lambda d=d: gbit_theory(d) for d in (2, 3, 4)),
    spekkens_ontic_theory,
    spekkens_epistemic_theory,
]
IDS = [f"classical{N}" for N in (2, 3, 4, 5)] + [f"gbit{d}" for d in (2, 3, 4)] + ["ontic", "epistemic"]


@pytest.mark.parametrize("build", FINITE, ids=IDS)
def test_exact_predicates_give_the_per_state_verdicts(build):
    m = build()
    elements = m.group.elements
    phase = [reference_is_phase_operation(m, T) for T in elements]
    assert [is_phase_operation(m, T) for T in elements] == phase
    assert [m.is_identity_map(T) for T in elements] == [reference_is_identity_map(m, T) for T in elements]
    assert phase_group(m).elements == tuple(T for T, p in zip(elements, phase) if p)
    for b in range(m.n_branches):
        local = [reference_is_branch_local(m, T, b) for T in elements]
        assert [is_branch_local(m, T, b) for T in elements] == local
        expected = tuple(T for T, p, loc in zip(elements, phase, local) if p and loc)
        assert branch_local_subgroup(m, b).elements == expected
    rng = np.random.default_rng(23)
    pairs = [tuple(rng.choice(len(elements), 2)) for _ in range(300)]
    pairs += [(i, i) for i in range(0, len(elements), 7)] + [(0, i) for i in range(0, len(elements), 7)]
    verdicts = [m.maps_commute(elements[i], elements[j]) for i, j in pairs]
    assert verdicts == [reference_maps_commute(m, elements[i], elements[j]) for i, j in pairs]
    assert any(verdicts) and (len(elements) <= 2 or not all(verdicts))


@pytest.mark.parametrize("build", FINITE, ids=IDS)
def test_apply_equals_the_dense_product_bit_for_bit(build):
    m = build()
    rng = np.random.default_rng(5)
    states = list(m.extremal_states) + [GptState(rng.standard_normal(m.state_dim) * 10.0**rng.integers(-3, 4)) for _ in range(20)]
    for T in m.group.elements:
        for s in states:
            assert apply(T, s).probs.tobytes() == (T.matrix @ s.probs).tobytes()
            assert m.apply(T, s).probs.tobytes() == m.apply(dense(T), s).probs.tobytes()


@pytest.mark.parametrize("build", FINITE[:6:2] + FINITE[-2:], ids=IDS[:6:2] + IDS[-2:])
def test_compose_equals_the_matrix_product(build):
    m = build()
    elements = m.group.elements
    for a, b in itertools.islice(itertools.product(elements, repeat=2), 600):
        product = m.compose(a, b)
        assert isinstance(product, Relabeling)
        assert product.matrix.tobytes() == (a.matrix @ b.matrix).tobytes()
        assert product.name == f"{a.name}*{b.name}"
        assert product == m.compose(dense(a), dense(b))


def test_a_non_finite_entry_moves_to_its_image():
    # a relabeling moves entries and does no arithmetic, so apply moves a NaN
    # or an infinity to its image and leaves every other entry as it was; the
    # dense product would put 0 * inf = NaN into every other entry
    T = gbit_theory(2).group.by_name("perm(XZ)+Z-flip")
    probs = np.array([np.inf, 0.25, np.nan, -np.inf])
    moved = apply(T, GptState(probs)).probs
    expected = np.empty(4)
    expected[T.image] = probs
    assert moved.tobytes() == expected.tobytes()
    assert np.isnan(moved).sum() == 1 and np.isposinf(moved).sum() == 1 and np.isneginf(moved).sum() == 1
    assert moved[T.image[1]] == 0.25
    with np.errstate(invalid="ignore"):
        assert np.isnan(apply(dense(T), GptState(probs)).probs).all()


def test_a_relabeling_and_its_dense_matrix_compare_and_hash_equal():
    m = gbit_theory(3)
    for T in m.group.elements:
        D = dense(T)
        assert T == D and D == T and hash(T) == hash(D)
        assert len({T, D}) == 1
    group = frozenset(m.group.elements)
    assert LinearMap(np.eye(m.state_dim)) in group
    zero = LinearMap(np.zeros((m.state_dim,) * 2), "extra")
    assert zero not in group and len(group | {zero}) == len(group) + 1
    merge = np.eye(3)[:, [0, 0, 2]]  # a 0/1 map that is no permutation
    near = np.eye(3)
    near[0, 0] = 0.5
    identity = Relabeling([0, 1, 2])
    assert all(LinearMap(x) != identity for x in (merge, near, np.zeros((3, 3))))
    assert Relabeling([0, 1]) != identity
    signed = -np.zeros((2, 2))  # -0.0 entries equal 0.0, and hash as it does
    assert LinearMap(signed) == LinearMap(np.zeros((2, 2)))
    assert hash(LinearMap(signed)) == hash(LinearMap(np.zeros((2, 2))))
    empty = LinearMap(np.zeros((0, 0)))
    assert empty == Relabeling(np.arange(0)) and hash(empty) == hash(Relabeling(np.arange(0)))


@pytest.mark.parametrize("image", [[0, 0, 1], [1, 2, 3], [-1, 0, 1], [[0, 1], [1, 0]], [0.0, 1.0]])
def test_an_image_that_is_no_permutation_is_refused(image):
    with pytest.raises(ValueError, match="relabeling's image must"):
        Relabeling(image)


def test_a_group_row_that_is_no_permutation_is_refused():
    with pytest.raises(ValueError, match="rows of permutations"):
        FiniteGroup(np.array([[0, 1], [1, 1]], np.int8), Relabeling)


def test_a_relabeling_of_another_dimension_is_refused_by_name():
    m = gbit_theory(2)
    T = Relabeling(range(5))
    for call in (
        lambda: is_phase_operation(m, T),
        lambda: is_branch_local(m, T, 0),
        lambda: m.is_identity_map(T),
        lambda: m.maps_commute(T, T),
        lambda: m.apply(T, m.spanning_states[0]),
    ):
        with pytest.raises(ValueError, match="^map dimension 5 does not match theory dimension 4$"):
            call()
    with pytest.raises(ValueError, match="expects a map or effect of type ndarray or DiagonalMap, got Relabeling"):
        is_phase_operation(quantum_theory(1), Relabeling([1, 0]))


@pytest.mark.parametrize("build", [spekkens_ontic_theory, lambda: gbit_theory(3)], ids=["ontic", "gbit3"])
def test_the_phase_group_is_filtered_once_per_theory(build):
    m = build()
    real, stacks = m.phase_mask, []

    def counted(images):
        stacks.append(np.shape(images))
        return real(images)

    m.phase_mask = counted
    reports = [branch_local_subgroup(m, b) for b in range(m.n_branches)]
    union = localizable_union(m)
    assert phase_group(m).elements
    assert stacks == [(len(m.group), m.state_dim)]
    assert union == frozenset(e for r in reports for e in r.elements)
    fresh = build()  # another theory object filters its own group
    assert [r.elements for r in reports] == [branch_local_subgroup(fresh, b).elements for b in range(fresh.n_branches)]


def test_gbit6_builds_under_five_megabytes():
    # 46,080 relabelings as int8 rows of images; dense 0/1 maps took 67.6 MB
    tracemalloc.start()
    try:
        m = gbit_theory(6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(m.group) == 46_080
    assert peak < 5_000_000


def test_a_name_lookup_builds_only_the_element_it_returns(monkeypatch):
    built = []
    real = th._relabeling
    monkeypatch.setattr(th, "_relabeling", lambda image, name: built.append(name) or real(image, name))
    m = gbit_theory(6)
    found = m.group.by_name("X1-flip")
    assert built == ["X1-flip"]
    assert found == next(T for T in m.group.elements if T.name == "X1-flip")
    with pytest.raises(KeyError, match="no-such-element"):
        gbit_theory(2).group.by_name("no-such-element")


@pytest.mark.parametrize("m", [spekkens_ontic_theory(), spekkens_epistemic_theory(), gbit_theory(2)], ids=lambda m: m.name)
def test_every_name_finds_the_element_a_scan_finds(m):
    first = {}
    for T in m.group.elements:
        first.setdefault(T.name, T)
    for name, T in first.items():
        found = m.group.by_name(name)
        assert found.name == name and np.array_equal(found.image, T.image)
