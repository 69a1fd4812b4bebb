"""Named experiments reproducing the package's headline results.

Each experiment maps to a fixed sequence of library calls, carries its own
pass predicate, and renders to a canonical JSON report.  Identical inputs
and seed give byte-identical canonical reports.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import math
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import interferometer as ifr
from . import phase as ph
from . import theories as th
from . import uncertainty as unc
from .core import DiagonalMap, GptState, _exact_int

DEFAULT_SEED = 0


@dataclass
class ExperimentReport:
    """Result bundle of one experiment run."""

    experiment: str
    theory: str | None
    parameters: dict
    results: dict
    passed: bool

    def canonical_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "theory": self.theory,
            "parameters": self.parameters,
            "results": self.results,
            "pass": self.passed,
        }

    def to_canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))

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


def _finite_answers(m) -> tuple:
    """The one table of finite answers: a theory's phase group, each branch's localizable
    subgroup and their union.  A phase group is given by its sorted names, or past gbit2
    by its order: gbit<d> relabels the d - 1 measurements besides the branch one."""
    one, toy, d = ("identity",), ("1234", "1243", "2134", "2143"), len(m.fiducial_layout)
    only_identity_localizes = ((one,) * m.n_branches, one)
    answers = {
        "classical": (one, *only_identity_localizes),
        "gbit2": (("X-flip", "identity"), *only_identity_localizes),
        "gbit<d>": (math.factorial(d - 1) * 2 ** (d - 1), *only_identity_localizes),
        # the ontic toy bit localizes disjoint swaps, one to each branch
        "spekkens-ontic": (toy, (("1234", "2134"), ("1234", "1243")), ("1234", "1243", "2134")),
        # the epistemic toy bit shares one group across both branches
        "spekkens-epistemic": (toy, (toy, toy), toy),
    }
    return answers.get(m.name) or answers[th.theory_form(m.name)]


def _sized_theory(theory: str, n, N):
    """The model a group run reads, and its parameters as reported."""
    sizes = th.theory_sizes(theory, n, N)
    return th.theory_by_name(theory, **sizes), {"theory": theory, **sizes}


def _dj_runs(instruments):
    """(spec, outcome) per promise table, one at a time from the one sweep."""
    m, enc, s_in, e_C = instruments
    return ((spec, ifr.dj_outcome(m, out, e_C)) for spec, out in ifr.promise_sweep(m, enc, s_in))


def _verdicts_and_probabilities(instruments) -> tuple[bool, dict]:
    """Whether each one-bit verdict is right, and p(constant effect) per table."""
    ok, probs = True, {}
    for spec, out in _dj_runs(instruments):
        probs["".join(map(str, spec.table))] = out.p_constant_effect
        ok = ok and out.verdict == ifr.classify(spec)
    return ok, probs


def _dj_quantum(theory, *, n=2):
    ifr.check_promise_bits(n)
    correct, max_dev = 0, 0.0
    for functions, (spec, out) in enumerate(_dj_runs(ifr.quantum_dj_instruments(n)), 1):
        closed = abs(sum((-1.0) ** b for b in spec.table)) ** 2 / 4.0**n
        max_dev = max(max_dev, abs(out.p_constant_effect - closed))
        correct += out.verdict == ifr.classify(spec)
    results = {
        "n": n,
        "functions": functions,
        "correct_verdicts": correct,
        "max_closed_form_deviation": _round(max_dev),
    }
    return theory, {"n": n}, results, correct == functions and max_dev <= 1e-12


def _dj_quaternionic(theory, *, N=4):
    n = N.bit_length() - 1  # log2 N; an N that is no power of two is refused by the instruments
    ifr.check_promise_bits(n)
    m, *_ = instruments = ifr.quaternionic_dj_instruments(N)
    correct, probs = 0, {}
    for functions, (spec, out) in enumerate(_dj_runs(instruments), 1):
        correct += out.verdict == ifr.classify(spec)
        probs[spec.table] = [*m.branch_probabilities(out.output_state), out.p_constant_effect]
    # each table's negation is a promise table too, so it ran in this sweep
    negation_gap = max(
        abs(p - q) for t, ps in probs.items() for p, q in zip(ps, probs[tuple(1 - b for b in t)])
    )
    results = {
        "N": N,
        "functions": functions,
        "correct_verdicts": correct,
        "max_negation_gap": _round(negation_gap),
    }
    return theory, {"N": N}, results, correct == functions and negation_gap <= 1e-9


def _dj_classical(theory):
    m = th.classical_theory(2)
    phase, branch_local, _ = _finite_answers(m)
    group = ph.phase_group(m)
    locals_trivial = all(
        ph.branch_local_subgroup(m, b).element_names() == branch_local[b]
        for b in range(m.n_branches)
    )
    # the only criterion-i encoding is the trivial one; run it over all
    # tables and confirm the statistics never depend on f
    enc = ifr.BranchEncoding(((m.identity_map(), m.identity_map()),) * 2)
    outputs = [out.probs for _, out in ifr.promise_sweep(m, enc, GptState([0.5, 0.5]))]
    f_independent = all(np.array_equal(outputs[0], out) for out in outputs)
    results = {
        "phase_group": list(group.element_names()),
        "branch_local_trivial": locals_trivial,
        "outputs_f_independent": f_independent,
    }
    passed = group.element_names() == phase and locals_trivial and f_independent
    return theory, {}, results, passed


def _dj_gbit(theory):
    m = th.theory_by_name(theory)
    phase, _, expected_union = _finite_answers(m)
    group = ph.phase_group(m)
    union = tuple(sorted(e.name for e in ph.localizable_union(m)))
    rejected = 0
    nontrivial = [e for e in group.elements if e.name != "identity"]
    for elem in nontrivial:
        for branch in range(m.n_branches):
            pairs = [(m.identity_map(), m.identity_map())] * m.n_branches
            pairs[branch] = (m.identity_map(), elem)
            try:
                ifr.validate_encoding(m, ifr.BranchEncoding(tuple(pairs)))
            except ifr.BranchLocalityError:
                rejected += 1
    attempted = len(nontrivial) * m.n_branches
    results = {
        "phase_group_order": len(group.elements),
        "localizable_union": list(union),
        "encodings_attempted": attempted,
        "encodings_rejected": rejected,
    }
    order_or_names = len(group.elements) if isinstance(phase, int) else group.element_names()
    passed = order_or_names == phase and union == expected_union and rejected == attempted
    if theory == "gbit2":
        gm, x_flip, s_in, e_C = ifr.gbit_global_instruments()
        outs = {s: ifr.run_dj_with_global_oracle(gm, s, x_flip, s_in, e_C) for s in ifr.constant_balanced_specs(1)}
        results["global_protocol_exact"] = global_ok = all(
            out.verdict == ifr.classify(spec) and out.p_constant_effect in (0.0, 1.0) for spec, out in outs.items()
        )
        passed = passed and global_ok
    return theory, {}, results, passed


def _dj_spekkens_epistemic(theory):
    instruments = ifr.spekkens_epistemic_dj_instruments()
    ok, probs = _verdicts_and_probabilities(instruments)
    witness = ifr.find_distinguishing_effect(*instruments[:3], strict=True)
    results = {"probabilities": probs, "strict_effect_exists": witness is not None}
    return theory, {}, results, ok and witness is not None


def _dj_spekkens_ontic(theory):
    m, enc, s_in, _ = ifr.spekkens_ontic_dj_instruments()
    # criterion i holds for this encoding: each search validates it first, or raises
    weak = ifr.find_distinguishing_effect(m, enc, s_in, strict=False)
    strict = ifr.find_distinguishing_effect(m, enc, s_in, strict=True)
    results = {
        "criterion_i_satisfied": True,
        "weak_effect_exists": weak is not None,
        "strict_effect_exists": strict is not None,
    }
    return theory, {}, results, weak is None and strict is None


def _dj_ball(theory):
    ok, probs = _verdicts_and_probabilities(ifr.ball_dj_instruments(th.theory_by_name(theory)))
    return theory, {}, {"probabilities": {k: _round(p) for k, p in probs.items()}}, ok


#: dj-sweep runs one entry per theory name, or per form of ``th.THEORY_NAMES``.
DJ_SWEEP = {
    "quantum": _dj_quantum, "quaternionic": _dj_quaternionic, "classical": _dj_classical,
    "gbit2": _dj_gbit, "gbit3": _dj_gbit, "qubit": _dj_ball, "dball<d>": _dj_ball,
    "spekkens-epistemic": _dj_spekkens_epistemic, "spekkens-ontic": _dj_spekkens_ontic,
}


def _exp_grover(rng, *, theory="quantum", N=16, marked=None, iterations=None):
    # N is checked, and its bound refused under its own name, before the budget (the default for iterations) is taken from it
    cfg = ifr.GroverConfig(N, N // 3 if marked is None else marked, iterations or 0)
    if N > th.MAX_MATRIX_LEVELS:
        raise ValueError(f"grover takes N <= {th.MAX_MATRIX_LEVELS} (MAX_MATRIX_LEVELS), got N = {N}")
    budget = ifr.grover_iteration_budget(N)
    if iterations is None:
        cfg = replace(cfg, iterations=budget)
    if theory == "quantum":
        m = th.quantum_theory(N.bit_length() - 1)
    elif theory == "quaternionic":
        m = th.quaternionic_theory(N)
    else:
        raise ValueError(f"grover does not support theory {theory!r}")
    curve = ifr.grover_success_curve(m, cfg.marked, max(cfg.iterations, budget))
    closed = [ifr.grover_closed_form(N, k) for k in range(len(curve))]
    max_dev = max(abs(a - b) for a, b in zip(curve, closed))
    results = {
        "N": N,
        "marked": cfg.marked,
        "iterations": cfg.iterations,
        "budget": budget,
        "success_probability": _round(curve[cfg.iterations]),
        "success_at_budget": _round(curve[budget]),
        "max_closed_form_deviation": _round(max_dev),
    }
    # exact runs follow the closed form, which is at least 1/2 at the budget
    passed = max_dev <= 1e-9 and ifr.grover_closed_form(N, budget) >= 0.5
    return theory, asdict(cfg), results, passed


def _exp_phase_group(rng, *, theory="gbit2", n=None, N=None):
    m, params = _sized_theory(theory, n, N)
    report = ph.phase_group(m, rng=rng)
    if report.is_finite:
        names = report.element_names()
        results = {"is_finite": True, "elements": list(names)}
        expected = _finite_answers(m)[0]
        if isinstance(expected, int):  # the answer is an order, and the report gives it
            results["order"] = len(names)
        passed = results.get("order", names) == expected
    else:
        results = {
            "is_finite": False,
            "family": report.family,
            "verified_samples": report.verified_samples,
        }
        passed = report.verified_samples > 0
    return theory, params, results, passed


def _exp_branch_local(rng, *, theory="spekkens-ontic", n=None, N=None):
    m, params = _sized_theory(theory, n, N)
    reports = [ph.branch_local_subgroup(m, b, rng=rng) for b in range(m.n_branches)]
    if reports[0].is_finite:
        subgroups = tuple(r.element_names() for r in reports)
        results = {"subgroups": [list(s) for s in subgroups]}
        passed = subgroups == _finite_answers(m)[1]
    else:
        results = {
            "families": [r.family for r in reports],
            "verified_samples": [r.verified_samples for r in reports],
        }
        passed = all(r.verified_samples > 0 for r in reports)
    return theory, params, results, passed


def _exp_localizable_union(rng, *, theory="gbit2", n=None, N=None):
    m, params = _sized_theory(theory, n, N)
    union = tuple(sorted(e.name for e in ph.localizable_union(m)))
    return theory, params, {"union": list(union)}, union == _finite_answers(m)[2]


#: Largest sample count for uncertainty: its arrays peak at 170-260 bytes per drawn state.
MAX_UNCERTAINTY_SAMPLES = 10**6


def _exp_uncertainty(rng, *, samples=10000):
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if samples > MAX_UNCERTAINTY_SAMPLES:
        raise ValueError(
            f"uncertainty takes samples <= {MAX_UNCERTAINTY_SAMPLES} (MAX_UNCERTAINTY_SAMPLES), got samples = {samples}"
        )
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


def _exp_containment(rng):
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


def _exp_spekkens_compare(rng):
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


def _exp_quaternionic_globalphase(rng):
    m = th.quaternionic_theory(2)
    units = np.eye(4)  # 1, i, j, k as component columns
    uniform = m.apply(m.beamsplitter, m.branch_ket(0))
    j_plus = m.apply(DiagonalMap(units[:, [0, 2]]), uniform)  # (1, j) / sqrt(2)
    states = [m.branch_ket(0), uniform, j_plus]
    effects = list(m.z_effects) + [psi @ psi.dagger() for psi in states[1:]]

    def max_shift(h: np.ndarray) -> float:
        G = DiagonalMap(np.column_stack([h, h]))  # the unit h times the identity
        return max(
            abs(m.probability(E, m.apply(G, psi)) - m.probability(E, psi))
            for psi in states
            for E in effects
        )

    shift_i = max_shift(units[1])
    shift_plus = max_shift(units[0])
    shift_minus = max_shift(-units[0])
    results = {
        "max_shift_h_eq_i": _round(shift_i),
        "max_shift_h_eq_plus1": _round(shift_plus),
        "max_shift_h_eq_minus1": _round(shift_minus),
    }
    passed = shift_i > 0.5 and shift_plus <= 1e-12 and shift_minus <= 1e-12
    return "quaternionic", {}, results, passed


REGISTRY = {
    "dj-sweep": DJ_SWEEP,
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

    A run reads exactly the keyword-only parameters of its function;
    dj-sweep first picks the function for its theory.  Before the run starts, a
    parameter the run does not read, or a count that is not an integer,
    raises ValueError rather than be ignored or coerced.
    """
    if name not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise ValueError(f"unknown experiment {name!r}; registered: {known}")
    params = dict(params or {})
    seed = _exact_int(params.pop("seed", DEFAULT_SEED), "seed")
    rng = np.random.default_rng(seed)
    run, theory = REGISTRY[name], params.get("theory")
    if isinstance(run, dict):
        theory = params.pop("theory", "quantum")
        entry = run.get(theory, run.get(th.theory_form(theory)))
        if entry is None:
            raise ValueError(f"{name} does not support theory {theory!r}")
        run = partial(entry, theory)
    else:
        run = partial(run, rng)
    reads = inspect.signature(run.func).parameters.values()
    unread = sorted(set(params) - {p.name for p in reads if p.kind is p.KEYWORD_ONLY})
    if unread:
        on = f" on theory {theory!r}" if theory and "theory" not in unread else ""
        raise ValueError(f"{name}{on} does not read parameter(s): {', '.join(unread)}")
    for key, value in params.items():
        if key != "theory":
            params[key] = _exact_int(value, key)
    theory, used_params, results, passed = run(**params)
    used_params["seed"] = seed
    return ExperimentReport(
        experiment=name,
        theory=theory,
        parameters=_jsonsafe(used_params),
        results=_jsonsafe(results),
        passed=bool(passed),
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
