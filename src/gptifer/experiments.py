"""Named experiments reproducing the package's headline results.

Each experiment maps to a fixed sequence of library calls, carries its own
pass predicate, and renders to a canonical JSON report.  Identical inputs
and seed give byte-identical canonical reports; the wall-clock runtime is
kept out of the canonical payload for exactly that reason.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import interferometer as ifr
from . import phase as ph
from . import theories as th
from . import uncertainty as unc
from .core import GptState
from .quaternion import QuatKet, QuatMatrix, Quaternion

DEFAULT_SEED = 0


@dataclass
class ExperimentReport:
    """Result bundle of one experiment run."""

    experiment: str
    theory: str | None
    parameters: dict
    results: dict
    passed: bool
    runtime_ms: int = 0

    def canonical_dict(self) -> dict:
        # runtime is volatile and excluded so reruns are byte-identical
        return {
            "experiment": self.experiment,
            "theory": self.theory,
            "parameters": self.parameters,
            "results": self.results,
            "pass": self.passed,
        }

    def to_canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        data = json.loads(text)
        return cls(
            experiment=data["experiment"],
            theory=data["theory"],
            parameters=data["parameters"],
            results=data["results"],
            passed=data["pass"],
        )

    def __eq__(self, other):
        if not isinstance(other, ExperimentReport):
            return NotImplemented
        return self.canonical_dict() == other.canonical_dict()

    def flatten(self) -> list[tuple[str, object]]:
        rows: list[tuple[str, object]] = []

        def walk(prefix: str, value):
            if isinstance(value, dict):
                for key in sorted(value):
                    walk(f"{prefix}.{key}" if prefix else str(key), value[key])
            elif isinstance(value, (list, tuple)):
                for idx, item in enumerate(value):
                    walk(f"{prefix}.{idx}", item)
            else:
                rows.append((prefix, value))

        walk("", self.canonical_dict())
        return rows


def emit_report(report: ExperimentReport, path, fmt: str = "json") -> None:
    """Write the canonical serialization; CSV flattens one row per leaf."""
    path = Path(path)
    if fmt == "json":
        path.write_text(report.to_canonical_json() + "\n")
    elif fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in report.flatten():
            writer.writerow([key, json.dumps(value) if isinstance(value, bool) or value is None else value])
        path.write_text(buffer.getvalue())
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def _round(x: float, places: int = 12) -> float:
    """Stabilize float payloads so canonical bytes do not wobble."""
    r = round(float(x), places)
    return 0.0 if r == 0.0 else r


class _Params(dict):
    """Run parameters that record which of them the run reads."""

    def __init__(self, params):
        super().__init__(params)
        self.read: set[str] = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _named_theory(params: dict, default: str):
    """The theory a run names, reading only the size parameter it takes."""
    name = params.get("theory", default)
    if name == "quantum":
        return name, th.quantum_theory(int(params.get("n", 1)))
    if name in ("classical", "quaternionic"):
        return name, th.theory_by_name(name, N=int(params.get("N", 2)))
    return name, th.theory_by_name(name)


def _jsonsafe(value):
    """Convert numpy scalars and containers to plain JSON-ready values."""
    if isinstance(value, dict):
        return {str(k): _jsonsafe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonsafe(v) for v in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


# ---------------------------------------------------------------------------
# Individual experiments
# ---------------------------------------------------------------------------


def _exp_dj_sweep(params: dict, rng: np.random.Generator):
    theory = params.get("theory", "quantum")
    if theory == "quantum":
        n = int(params.get("n", 2))
        m, enc, s_in, e_C = ifr.quantum_dj_instruments(n)
        specs = ifr.constant_balanced_specs(n)
        max_dev = 0.0
        correct = 0
        for spec in specs:
            out = ifr.run_dj(m, spec, enc, s_in, e_C)
            closed = abs(sum((-1.0) ** b for b in spec.table)) ** 2 / 4.0**n
            max_dev = max(max_dev, abs(out.p_constant_effect - closed))
            if out.verdict == ifr.classify(spec):
                correct += 1
        results = {
            "n": n,
            "functions": len(specs),
            "correct_verdicts": correct,
            "max_closed_form_deviation": _round(max_dev),
        }
        return theory, {"n": n}, results, correct == len(specs) and max_dev <= 1e-12

    if theory == "quaternionic":
        N = int(params.get("N", 4))
        m, enc, s_in, e_C = ifr.quaternionic_dj_instruments(N)
        n = int(round(math.log2(N)))
        specs = ifr.constant_balanced_specs(n)
        test_effects = list(m.z_effects) + [e_C]
        correct = 0
        negation_gap = 0.0
        for spec in specs:
            out = ifr.run_dj(m, spec, enc, s_in, e_C)
            if out.verdict == ifr.classify(spec):
                correct += 1
            negated = ifr.OracleSpec(n, tuple(1 - b for b in spec.table))
            out_neg = ifr.run_dj(m, negated, enc, s_in, e_C)
            negation_gap = max(
                negation_gap,
                max(
                    abs(m.probability(e, out.output_state) - m.probability(e, out_neg.output_state))
                    for e in test_effects
                ),
            )
        results = {
            "N": N,
            "functions": len(specs),
            "correct_verdicts": correct,
            "max_negation_gap": _round(negation_gap),
        }
        return theory, {"N": N}, results, correct == len(specs) and negation_gap <= 1e-9

    if theory == "classical":
        m = th.classical_theory(2)
        group = ph.phase_group(m)
        locals_trivial = all(
            ph.branch_local_subgroup(m, b).element_names() == ("identity",)
            for b in range(m.n_branches)
        )
        # the only criterion-i encoding is the trivial one; run it over all
        # tables and confirm the statistics never depend on f
        enc = ifr.BranchEncoding(((m.identity_map(), m.identity_map()),) * 2)
        s_in = GptState([0.5, 0.5])
        outputs = []
        for spec in ifr.constant_balanced_specs(1):
            oracle = ifr.build_oracle(m, spec, enc)
            outputs.append(m.apply(oracle, s_in).probs)
        f_independent = all(np.array_equal(outputs[0], out) for out in outputs[1:])
        results = {
            "phase_group": list(group.element_names()),
            "branch_local_trivial": locals_trivial,
            "outputs_f_independent": f_independent,
        }
        passed = group.element_names() == ("identity",) and locals_trivial and f_independent
        return theory, {}, results, passed

    if theory in ("gbit2", "gbit3"):
        d = int(theory[4:])
        m = th.gbit_theory(d)
        group = ph.phase_group(m)
        union = sorted(e.name for e in ph.localizable_union(m))
        rejected = 0
        nontrivial = [e for e in group.elements if e.name != "identity"]
        for elem in nontrivial:
            for branch in range(m.n_branches):
                pairs = [(m.identity_map(), m.identity_map())] * m.n_branches
                pairs[branch] = (m.identity_map(), elem)
                try:
                    ifr.build_oracle(
                        m,
                        ifr.OracleSpec(1, tuple(1 if b == branch else 0 for b in range(2))),
                        ifr.BranchEncoding(tuple(pairs)),
                    )
                except ifr.BranchLocalityError:
                    rejected += 1
        attempted = len(nontrivial) * m.n_branches
        results = {
            "phase_group_order": len(group.elements),
            "localizable_union": union,
            "encodings_attempted": attempted,
            "encodings_rejected": rejected,
        }
        passed = len(group.elements) > 1 and union == ["identity"] and rejected == attempted
        if d == 2:
            gm, x_flip, s_in, e_C = ifr.gbit_global_instruments()
            global_ok = True
            for spec in ifr.constant_balanced_specs(1):
                out = ifr.run_dj_with_global_oracle(gm, spec, x_flip, s_in, e_C)
                if out.verdict != ifr.classify(spec) or out.p_constant_effect not in (0.0, 1.0):
                    global_ok = False
            results["global_protocol_exact"] = global_ok
            passed = passed and global_ok
        return theory, {}, results, passed

    if theory == "spekkens-epistemic":
        m, enc, s_in, e_C = ifr.spekkens_epistemic_dj_instruments()
        probs = {}
        ok = True
        for spec in ifr.constant_balanced_specs(1):
            out = ifr.run_dj(m, spec, enc, s_in, e_C)
            probs["".join(map(str, spec.table))] = out.p_constant_effect
            if out.verdict != ifr.classify(spec):
                ok = False
        witness = ifr.find_distinguishing_effect(m, enc, s_in, strict=True)
        results = {"probabilities": probs, "strict_effect_exists": witness is not None}
        return theory, {}, results, ok and witness is not None

    if theory == "spekkens-ontic":
        m, enc, s_in, e_C = ifr.spekkens_ontic_dj_instruments()
        weak = ifr.find_distinguishing_effect(m, enc, s_in, strict=False)
        strict = ifr.find_distinguishing_effect(m, enc, s_in, strict=True)
        # criterion i itself is satisfied by this encoding
        criterion_i = all(
            m.is_identity_map(T) or ph.is_branch_local(m, T, branch)
            for branch, _, T in enc.members()
        )
        results = {
            "criterion_i_satisfied": criterion_i,
            "weak_effect_exists": weak is not None,
            "strict_effect_exists": strict is not None,
        }
        return theory, {}, results, criterion_i and weak is None and strict is None

    if theory == "qubit" or theory.startswith("dball"):
        m = th.qubit_theory() if theory == "qubit" else th.dball_theory(int(theory[5:]))
        m, enc, s_in, e_C = ifr.ball_dj_instruments(m)
        ok = True
        probs = {}
        for spec in ifr.constant_balanced_specs(1):
            out = ifr.run_dj(m, spec, enc, s_in, e_C)
            probs["".join(map(str, spec.table))] = _round(out.p_constant_effect)
            if out.verdict != ifr.classify(spec):
                ok = False
        return theory, {}, {"probabilities": probs}, ok

    raise ValueError(f"dj-sweep does not support theory {theory!r}")


def _exp_grover(params: dict, rng: np.random.Generator):
    theory = params.get("theory", "quantum")
    N = int(params.get("N", 16))
    n = int(round(math.log2(N)))
    if 2**n != N:
        raise ValueError("N must be a power of two")
    marked = int(params.get("marked", N // 3))
    budget = ifr.grover_iteration_budget(N)
    iterations = int(params.get("iterations", budget))
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    if theory == "quantum":
        m = th.quantum_theory(n)
    elif theory == "quaternionic":
        m = th.quaternionic_theory(N)
    else:
        raise ValueError(f"grover does not support theory {theory!r}")
    curve = ifr.grover_success_curve(m, marked, max(iterations, budget))
    closed = [ifr.grover_closed_form(N, k) for k in range(len(curve))]
    max_dev = max(abs(a - b) for a, b in zip(curve, closed))
    results = {
        "N": N,
        "marked": marked,
        "iterations": iterations,
        "budget": budget,
        "success_probability": _round(curve[iterations]),
        "success_at_budget": _round(curve[budget]),
        "max_closed_form_deviation": _round(max_dev),
    }
    passed = max_dev <= 1e-9 and curve[budget] > 0.5
    return theory, {"N": N, "marked": marked, "iterations": iterations}, results, passed


_EXPECTED_PHASE = {
    "classical": ("identity",),
    "gbit2": ("X-flip", "identity"),
    "spekkens-ontic": ("1234", "1243", "2134", "2143"),
    "spekkens-epistemic": ("1234", "1243", "2134", "2143"),
}


def _exp_phase_group(params: dict, rng: np.random.Generator):
    theory, m = _named_theory(params, "gbit2")
    report = ph.phase_group(m, rng=rng)
    if report.is_finite:
        names = report.element_names()
        results = {"is_finite": True, "elements": list(names)}
        expected = _EXPECTED_PHASE.get(theory)
        passed = names == expected if expected is not None else len(names) >= 1
        if theory == "gbit3":
            passed = len(names) == 8 and "identity" in names
            results["order"] = len(names)
    else:
        results = {
            "is_finite": False,
            "family": report.family,
            "verified_samples": report.verified_samples,
        }
        passed = report.verified_samples > 0
    return theory, {"theory": theory}, results, passed


_EXPECTED_BRANCH_LOCAL = {
    "spekkens-ontic": (("1234", "2134"), ("1234", "1243")),
    "spekkens-epistemic": (
        ("1234", "1243", "2134", "2143"),
        ("1234", "1243", "2134", "2143"),
    ),
    "gbit2": (("identity",), ("identity",)),
    "gbit3": (("identity",), ("identity",)),
    "classical": (("identity",), ("identity",)),
}


def _exp_branch_local(params: dict, rng: np.random.Generator):
    theory, m = _named_theory(params, "spekkens-ontic")
    reports = [ph.branch_local_subgroup(m, b, rng=rng) for b in range(m.n_branches)]
    if reports[0].is_finite:
        subgroups = [list(r.element_names()) for r in reports]
        results = {"subgroups": subgroups}
        expected = _EXPECTED_BRANCH_LOCAL.get(theory)
        passed = (
            tuple(tuple(s) for s in subgroups) == expected
            if expected is not None
            else True
        )
    else:
        results = {
            "families": [r.family for r in reports],
            "verified_samples": [r.verified_samples for r in reports],
        }
        passed = all(r.verified_samples > 0 for r in reports)
    return theory, {"theory": theory}, results, passed


_EXPECTED_UNION = {
    "gbit2": ("identity",),
    "gbit3": ("identity",),
    "classical": ("identity",),
    "spekkens-ontic": ("1234", "1243", "2134"),
    "spekkens-epistemic": ("1234", "1243", "2134", "2143"),
}


def _exp_localizable_union(params: dict, rng: np.random.Generator):
    theory, m = _named_theory(params, "gbit2")
    union = tuple(sorted(e.name for e in ph.localizable_union(m)))
    expected = _EXPECTED_UNION.get(theory)
    results = {"union": list(union)}
    passed = union == expected if expected is not None else True
    return theory, {"theory": theory}, results, passed


def _exp_uncertainty(params: dict, rng: np.random.Generator):
    samples = int(params.get("samples", 10000))
    if samples < 1:
        raise ValueError("samples must be at least 1")
    states = unc.random_pure_qubit_states(samples, rng)
    lhs_s, rhs = unc.schrodinger_bound(states, unc.PAULI_X, unc.PAULI_Y)
    lhs_r, _ = unc.robertson_bound(states, unc.PAULI_X, unc.PAULI_Y)
    norms = unc.bloch_norm(unc.pauli_expectations(states))
    worst_schrodinger = float(np.min(rhs - lhs_s))
    worst_robertson = float(np.min(rhs - lhs_r))
    worst_gap = float(np.min(lhs_s - lhs_r))
    worst_norm_dev = float(np.max(np.abs(norms - 1.0)))
    disallowed = th.qubit_state_from_expectations(1.0, 1.0, 0.0)
    rejected = not th.qubit_theory().contains(disallowed)
    results = {
        "samples": samples,
        "min_schrodinger_slack": _round(worst_schrodinger),
        "min_robertson_slack": _round(worst_robertson),
        "min_schrodinger_vs_robertson": _round(worst_gap),
        "max_pure_norm_deviation": _round(worst_norm_dev),
        "overfilled_vector_rejected": rejected,
    }
    passed = (
        worst_schrodinger >= -1e-9
        and worst_robertson >= -1e-9
        and worst_gap >= -1e-12
        and worst_norm_dev <= 1e-9
        and rejected
    )
    return "qubit", {"samples": samples}, results, passed


def _exp_containment(params: dict, rng: np.random.Generator):
    # The knowledge restriction shrinks the hidden-variable tetrahedron to
    # the octahedron, which sits inside the Bloch ball; the deterministic
    # hidden states themselves overfill the ball (they defeat the
    # uncertainty bound) yet stay inside the unrestricted cube.
    qubit = th.qubit_theory()
    cube = th.gbit_theory(3)
    octa = th.spekkens_epistemic_theory()
    tetra = th.spekkens_ontic_theory()

    def to_cube_layout(s: GptState) -> GptState:
        # (X, Y, Z) blocks -> gbit's (Z, X, Y) blocks
        p = s.probs
        return GptState(np.concatenate([p[4:6], p[0:2], p[2:4]]))

    octa_in_tetra = all(tetra.contains(v) for v in octa.spanning_states)
    octa_in_ball = all(qubit.contains(v) for v in octa.spanning_states)
    tetra_in_cube = all(cube.contains(to_cube_layout(v)) for v in tetra.spanning_states)
    ball_poles_in_cube = all(
        cube.contains(to_cube_layout(v)) for v in qubit.spanning_states
    )
    tetra_exceeds_ball = not any(qubit.contains(v) for v in tetra.spanning_states)
    ball_exceeds_octa = not octa.contains(
        th.qubit_state_from_expectations(
            1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)
        )
    )
    results = {
        "octahedron_in_tetrahedron": octa_in_tetra,
        "octahedron_in_ball": octa_in_ball,
        "tetrahedron_in_cube": tetra_in_cube,
        "ball_poles_in_cube": ball_poles_in_cube,
        "tetrahedron_exceeds_ball": tetra_exceeds_ball,
        "ball_exceeds_octahedron": ball_exceeds_octa,
    }
    passed = all(results.values())
    return None, {}, results, passed


def _exp_spekkens_compare(params: dict, rng: np.random.Generator):
    m_on, enc_on, s_on, _ = ifr.spekkens_ontic_dj_instruments()
    m_ep, enc_ep, s_ep, e_ep = ifr.spekkens_epistemic_dj_instruments()
    weak_on = ifr.find_distinguishing_effect(m_on, enc_on, s_on, strict=False)
    strict_ep = ifr.find_distinguishing_effect(m_ep, enc_ep, s_ep, strict=True)
    out_c = ifr.run_dj(m_ep, ifr.OracleSpec(1, (1, 1)), enc_ep, s_ep, e_ep)
    out_b = ifr.run_dj(m_ep, ifr.OracleSpec(1, (0, 1)), enc_ep, s_ep, e_ep)
    results = {
        "ontic_weak_effect_exists": weak_on is not None,
        "epistemic_strict_effect_exists": strict_ep is not None,
        "epistemic_p_constant": out_c.p_constant_effect,
        "epistemic_p_balanced": out_b.p_constant_effect,
    }
    passed = (
        weak_on is None
        and strict_ep is not None
        and out_c.p_constant_effect == 1.0
        and out_b.p_constant_effect == 0.0
    )
    return "spekkens", {}, results, passed


def _exp_quaternionic_globalphase(params: dict, rng: np.random.Generator):
    m = th.quaternionic_theory(2)
    j_plus = QuatKet.from_quaternions(
        [Quaternion(1.0 / math.sqrt(2.0)), Quaternion(0.0, 0.0, 1.0 / math.sqrt(2.0))]
    )
    real_plus = QuatKet.from_quaternions(
        [Quaternion(1.0 / math.sqrt(2.0)), Quaternion(1.0 / math.sqrt(2.0))]
    )
    states = [m.branch_state(0), real_plus.density(), j_plus.density()]
    effects = list(m.z_effects) + [real_plus.density(), j_plus.density()]

    def conjugated(h: Quaternion, rho: QuatMatrix) -> QuatMatrix:
        G = QuatMatrix.diag([h, h])
        return m.apply(G, rho)

    def max_shift(h: Quaternion) -> float:
        return max(
            abs(m.probability(E, conjugated(h, rho)) - m.probability(E, rho))
            for rho in states
            for E in effects
        )

    shift_i = max_shift(Quaternion(0.0, 1.0))
    shift_plus = max_shift(Quaternion(1.0))
    shift_minus = max_shift(Quaternion(-1.0))
    results = {
        "max_shift_h_eq_i": _round(shift_i),
        "max_shift_h_eq_plus1": _round(shift_plus),
        "max_shift_h_eq_minus1": _round(shift_minus),
    }
    passed = shift_i > 0.5 and shift_plus <= 1e-12 and shift_minus <= 1e-12
    return "quaternionic", {}, results, passed


REGISTRY = {
    "dj-sweep": _exp_dj_sweep,
    "grover": _exp_grover,
    "phase-group": _exp_phase_group,
    "branch-local": _exp_branch_local,
    "localizable-union": _exp_localizable_union,
    "uncertainty": _exp_uncertainty,
    "containment": _exp_containment,
    "spekkens-compare": _exp_spekkens_compare,
    "quaternionic-globalphase": _exp_quaternionic_globalphase,
}


def run_experiment(name: str, params: dict | None = None) -> ExperimentReport:
    """Execute a registered experiment and assemble its report.

    Raises ValueError when a parameter is one the run does not read for the
    theory it runs, rather than ignore it.
    """
    if name not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise ValueError(f"unknown experiment {name!r}; registered: {known}")
    params = _Params(params or {})
    seed = int(params.pop("seed", DEFAULT_SEED))
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    theory, used_params, results, passed = REGISTRY[name](params, rng)
    runtime_ms = int((time.perf_counter() - start) * 1000.0)
    unread = sorted(set(params) - params.read)
    if unread:
        on = f" on theory {theory!r}" if theory else ""
        raise ValueError(f"{name}{on} does not read parameter(s): {', '.join(unread)}")
    used_params["seed"] = seed
    return ExperimentReport(
        experiment=name,
        theory=theory,
        parameters=_jsonsafe(used_params),
        results=_jsonsafe(results),
        passed=bool(passed),
        runtime_ms=runtime_ms,
    )


#: Parameter sets used by the full reproduction suite (and determinism checks).
SUITE = (
    ("dj-sweep", {"theory": "quantum", "n": 2}),
    ("dj-sweep", {"theory": "quaternionic", "N": 4}),
    ("dj-sweep", {"theory": "classical"}),
    ("dj-sweep", {"theory": "gbit2"}),
    ("dj-sweep", {"theory": "spekkens-ontic"}),
    ("dj-sweep", {"theory": "spekkens-epistemic"}),
    ("grover", {"theory": "quantum", "N": 16}),
    ("grover", {"theory": "quaternionic", "N": 16}),
    ("phase-group", {"theory": "gbit2"}),
    ("phase-group", {"theory": "spekkens-ontic"}),
    ("branch-local", {"theory": "spekkens-ontic"}),
    ("branch-local", {"theory": "spekkens-epistemic"}),
    ("localizable-union", {"theory": "gbit2"}),
    ("uncertainty", {"samples": 2000}),
    ("containment", {}),
    ("spekkens-compare", {}),
    ("quaternionic-globalphase", {}),
)


def run_suite(seed: int = DEFAULT_SEED) -> list[ExperimentReport]:
    """Run every suite entry with a common seed."""
    reports = []
    for name, params in SUITE:
        merged = dict(params)
        merged["seed"] = seed
        reports.append(run_experiment(name, merged))
    return reports


def suite_canonical_bytes(seed: int = DEFAULT_SEED) -> bytes:
    """Concatenated canonical reports; byte-identical across reruns."""
    return "\n".join(r.to_canonical_json() for r in run_suite(seed)).encode()
