"""The call shape of a search curve, counted without the benchmark tracer.

The traced benchmark pins how many times a curve and an oracle build call
each primitive; these tests count the same calls by wrapping the theory's
methods and the interferometer's module functions, so a change to the
shape fails here, in tier 1, first.

Core claims, for quantum N = 4, 8 and quaternionic N = 2, 4, 8:
    - a curve of k rounds makes one apply and one probability call per
      round, plus one preparation apply and one first read-out
    - each oracle build validates the encoding once: N is_branch_local
      calls (one per sign flip) and N(N - 1)/2 maps_commute calls; a curve
      makes two such builds, and applies each flip to its branch's probes
"""

import pytest

import gptifer.interferometer as ifr
from gptifer.interferometer import OracleSpec, build_oracle, grover_success_curve, sign_encoding
from gptifer.theories import quantum_theory, quaternionic_theory

_THEORIES = [quantum_theory(2), quantum_theory(3), quaternionic_theory(2), quaternionic_theory(4), quaternionic_theory(8)]


def _count(monkeypatch, counts: dict, owner, names) -> dict:
    # wrap each named attribute of owner to count its calls into counts
    counts.update(dict.fromkeys(names, 0))
    for name in names:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


@pytest.mark.parametrize("m", _THEORIES, ids=lambda m: f"{m.name}-{m.dim}")
def test_a_build_makes_n_locality_and_n_choose_2_commutation_checks(m, monkeypatch):
    N = m.dim
    enc = sign_encoding(m)
    spec = OracleSpec(N.bit_length() - 1, (1,) + (0,) * (N - 1))
    calls = _count(monkeypatch, {}, m, ("maps_commute", "is_identity_map"))
    _count(monkeypatch, calls, ifr, ("is_branch_local", "validate_encoding"))
    build_oracle(m, spec, enc)
    assert calls == {"is_branch_local": N, "maps_commute": N * (N - 1) // 2, "is_identity_map": 2 * N, "validate_encoding": 1}


@pytest.mark.parametrize("m", _THEORIES, ids=lambda m: f"{m.name}-{m.dim}")
@pytest.mark.parametrize("k", [0, 17])
def test_a_curve_makes_one_apply_and_one_probability_per_round(m, k, monkeypatch):
    N = m.dim
    probes = len(m.branch_local_probes(0))
    calls = _count(monkeypatch, {}, m, ("apply", "probability", "maps_commute"))
    _count(monkeypatch, calls, ifr, ("build_oracle", "validate_encoding", "is_branch_local"))
    curve = grover_success_curve(m, N - 1, k)
    assert len(curve) == k + 1
    assert calls == {
        "probability": k + 1,
        # one preparation, k rounds, and the locality probes of two oracles
        "apply": 1 + k + 2 * probes * N,
        "maps_commute": 2 * (N * (N - 1) // 2),
        "build_oracle": 2,
        "validate_encoding": 2,
        "is_branch_local": 2 * N,
    }
