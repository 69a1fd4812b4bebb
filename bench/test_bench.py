"""Tests of the benchmark itself.

    python3 -m pytest bench -q

They run small versions of the workloads, so they check the harness, the
tracer and the op checks, not the timings.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gptifer.interferometer as ifr  # noqa: E402
import gptifer.theories as th  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "dj": {"quantum": 6, "quaternionic": 2},
    "search": {"rounds": 25},
    "suite": {"reps": 2},
}


def small_ops(name: str, seed: int = 3):
    return workloads.BY_NAME[name](seed, **SMALL[name])


def traced_metrics(fn) -> dict:
    t = tracer.Tracer()
    with t:
        fn()
    return t.layer_metrics()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_results_are_identical_to_untraced(name):
    ops = small_ops(name)
    plain = [worker.attempt(op) for op in ops]
    t = tracer.Tracer()
    with t:
        traced = [worker.attempt(op, t) for op in ops]
    assert [a.error for a in plain + traced] == [None] * (2 * len(ops))
    assert [a.result for a in plain] == [a.result for a in traced]


def test_tracer_restores_every_wrapped_function():
    import gptifer
    import gptifer.phase as ph

    before = (ifr.is_branch_local, ph.is_branch_local, gptifer.is_branch_local, ifr.linprog)
    methods = dict(vars(th.DensityMatrixTheory))
    with tracer.Tracer():
        assert ifr.is_branch_local is not before[0]
        assert ph.is_branch_local is not before[1]
        assert ifr.linprog is not before[3]
    assert (ifr.is_branch_local, ph.is_branch_local, gptifer.is_branch_local, ifr.linprog) == before
    assert dict(vars(th.DensityMatrixTheory)) == methods


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat_exactly(name, tmp_path):
    counts = []
    for _ in range(2):
        result = worker.traced_pass(small_ops(name), tmp_path / "trace.json.gz")
        assert result["errors"] == []
        counts.append(
            {k: v for k, v in result["metrics"].items() if not k.endswith((".self_s", "overhead_ratio"))}
        )
    assert counts[0] == counts[1]
    assert set(result["metrics"]) == set(tracer.metric_names()) | {
        "interferometer.max_closed_form_dev",
        "trace.overhead_ratio",
    }


@pytest.mark.parametrize(
    "model, label",
    [
        (th.quantum_theory(2), "DensityMatrixTheory"),
        (th.quantum_theory(3), "DensityMatrixTheory"),
        (th.quaternionic_theory(4), "QuaternionicTheory"),
        (th.quaternionic_theory(8), "QuaternionicTheory"),
    ],
)
def test_build_oracle_counts_match_analytic(model, label):
    N = model.n_branches
    enc = ifr.sign_encoding(model)
    spec = ifr.OracleSpec(N.bit_length() - 1, (1,) + (0,) * (N - 1))
    metrics = traced_metrics(lambda: ifr.build_oracle(model, spec, enc))
    assert metrics["phase.is_branch_local.calls"] == N
    assert metrics[f"theories.{label}.maps_commute.calls"] == N * (N - 1) // 2
    assert metrics["interferometer.build_oracle.commute_checks_per_call"] == N * (N - 1) // 2


@pytest.mark.parametrize(
    "model, label, probes",
    [
        (th.quantum_theory(2), "DensityMatrixTheory", 2),
        (th.quantum_theory(3), "DensityMatrixTheory", 2),
        (th.quaternionic_theory(4), "QuaternionicTheory", 4),
        (th.quaternionic_theory(8), "QuaternionicTheory", 4),
    ],
)
def test_search_curve_counts_match_analytic(model, label, probes):
    N = model.n_branches
    k = 17
    metrics = traced_metrics(lambda: ifr.grover_success_curve(model, N - 1, k))
    assert metrics[f"theories.{label}.probability.calls"] == k + 1
    # one preparation, k rounds, and the locality probes of two oracles
    assert metrics[f"theories.{label}.apply.calls"] == 1 + k + 2 * probes * N
    assert metrics["interferometer.build_oracle.calls"] == 2
    assert metrics["interferometer.build_oracle.distinct_encoding_ratio"] == 0.5


def test_distinct_encoding_ratio_counts_repeated_validation():
    model, enc, s_in, e_C = ifr.quantum_dj_instruments(2)
    specs = ifr.constant_balanced_specs(2)
    metrics = traced_metrics(lambda: [ifr.run_dj(model, s, enc, s_in, e_C) for s in specs])
    assert metrics["interferometer.build_oracle.calls"] == len(specs)
    assert metrics["interferometer.build_oracle.distinct_encoding_ratio"] == 1 / len(specs)


def test_lp_rows_are_counted():
    model, enc, s_in, _ = ifr.spekkens_ontic_dj_instruments()
    metrics = traced_metrics(lambda: ifr.find_distinguishing_effect(model, enc, s_in, strict=True))
    assert metrics["interferometer.lp_solve.calls"] == 1
    # two bounds per vertex plus one equality per promise table
    expected = 2 * len(model.extremal_states) + len(ifr.constant_balanced_specs(1))
    assert metrics["interferometer.lp_solve.rows"] == expected


@pytest.mark.parametrize("name", sorted(SMALL))
def test_inputs_follow_the_seed(name):
    def outputs(seed):
        return [(op.label, worker.attempt(op).result) for op in small_ops(name, seed)]

    assert outputs(5) == outputs(5)
    assert outputs(5) != outputs(6)


def test_failed_ops_are_counted_and_the_run_goes_on():
    def fail_check(result):
        raise workloads.CheckFailed("wrong")

    ops = [
        workloads.Op("raises", lambda: 1 / 0, lambda r: 0.0),
        workloads.Op("bad-output", lambda: 1, fail_check),
        # parser.error raises SystemExit(2): rejected theory for this experiment
        workloads._suite_op(["run", "grover", "--theory", "classical", "--seed", "0"], {}),
        small_ops("dj")[0],
    ]
    result = worker.timed_passes(ops, seconds=0)
    assert result["attempted"] == 4
    assert len(result["errors"]) == 3
    assert "exit code 2" in result["errors"][2]
    assert result["metrics"]["ops_per_s"] > 0


def test_suite_check_rejects_output_that_changes_at_one_seed():
    op = workloads._suite_op(["run", "containment", "--seed", "0"], {})
    code, text = op.call()
    op.check((code, text))
    with pytest.raises(workloads.CheckFailed):
        op.check((code, text.replace("true", "false", 1)))


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = tracer.metric_names() + ["interferometer.max_closed_form_dev", "trace.overhead_ratio"]
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])


def test_run_prints_one_result_line(tmp_path):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "suite", "--seed", "1", "--seconds", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 102
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dj", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout == ""
