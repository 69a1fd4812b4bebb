"""Tests for the experiment registry, report serialization, and the CLI.

Core claims:
    - registered experiments run and pass on default parameters
    - canonical JSON round-trips and is byte-stable across reruns
    - CSV flattening yields one row per leaf of the canonical payload
    - the CLI runs experiments, honors GPT_IFER_SEED, writes reports, and
      exits 0 exactly on pass
    - a parameter the run does not read for its theory is an error (exit 2),
      never silently dropped; so is a count that is not an integer, and
      both are refused before the run does any work
    - main builds its parser once per process, and no option, refusal or
      seed of one call reaches the next
    - every parameter a run reads is a command-line option
    - theory names are exact: a malformed one exits 2 naming the accepted
      forms, which the --theory help lists from the same table
    - search passes exactly when it follows the closed form, N = 2 included;
      dj-sweep refuses more than 4 input bits before any protocol run, and
      before its instruments are built; phase-group refuses a matrix theory
      past MAX_SPANNING_LEVELS; search past MAX_MATRIX_LEVELS is refused by
      its own N before a theory is built; each refusal exits 2 within a second
    - every finite theory's group run checks one definite answer: classical
      (N = 2, 3), gbit2..gbit5 and both toy bits pass, and fail once the
      group, a branch's subgroup or the union loses or gains one element;
      so do the classical and gbit dj-sweep entries; the branch-local and
      union runs filter the finite group without a phase_group run
    - a gbit, classical or ball system past its size bound exits 2 naming
      it, before its group or any state is built; so does an uncertainty run
      past MAX_UNCERTAINTY_SAMPLES, before any state is drawn;
      --format without --out exits 2 before the run starts
    - no run imports scipy: a cold process that runs the effect search and
      every SUITE entry ends with no scipy module loaded, and the search
      answers as in this process
"""

import csv
import inspect
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gptifer.cli as cli
import gptifer.interferometer as ifr
import gptifer.phase as ph
import gptifer.theories as th
import gptifer.uncertainty as unc
from gptifer.cli import build_parser, main
from gptifer.core import LinearMap
from gptifer.theories import THEORY_NAMES
from gptifer.experiments import (
    MAX_UNCERTAINTY_SAMPLES,
    REGISTRY,
    SUITE,
    ExperimentReport,
    emit_report,
    run_experiment,
    run_suite,
    suite_canonical_bytes,
)


def test_registry_names_match_documented_set():
    assert sorted(REGISTRY) == [
        "branch-local",
        "containment",
        "dj-sweep",
        "grover",
        "localizable-union",
        "phase-group",
        "quaternionic-globalphase",
        "spekkens-compare",
        "uncertainty",
    ]


def test_unknown_experiment_raises_with_registry_listing():
    with pytest.raises(ValueError) as err:
        run_experiment("does-not-exist")
    assert "registered" in str(err.value)


def test_documented_examples():
    report = run_experiment("phase-group", {"theory": "gbit2"})
    assert report.passed
    assert report.results["elements"] == ["X-flip", "identity"]

    report = run_experiment("dj-sweep", {"theory": "quantum", "n": 2})
    assert report.passed
    assert report.results["functions"] == 8
    assert report.results["correct_verdicts"] == 8

    report = run_experiment("branch-local", {"theory": "spekkens-ontic"})
    assert report.passed
    assert report.results["subgroups"] == [["1234", "2134"], ["1234", "1243"]]


def test_remaining_dj_sweep_variants_pass():
    for params in (
        {"theory": "gbit3"},
        {"theory": "quaternionic", "N": 8},
        {"theory": "qubit"},
        {"theory": "dball5"},
        {"theory": "spekkens-epistemic"},
    ):
        report = run_experiment("dj-sweep", dict(params))
        assert report.passed, report.results
    with pytest.raises(ValueError, match="dj-sweep does not support theory 'gbit4'"):
        run_experiment("dj-sweep", {"theory": "gbit4"})
    with pytest.raises(ValueError, match="unknown theory name 'octonionic'"):
        run_experiment("dj-sweep", {"theory": "octonionic"})


def test_grover_experiment_variants_pass():
    for params in (
        {"theory": "quantum", "N": 4, "marked": 2, "iterations": 1},
        {"theory": "quaternionic", "N": 4},
        {"theory": "quantum", "N": 64},
    ):
        report = run_experiment("grover", dict(params))
        assert report.passed, report.results
    with pytest.raises(ValueError):
        run_experiment("grover", {"theory": "quantum", "N": 6})


@pytest.mark.parametrize("theory", ["quantum", "quaternionic"])
def test_two_branch_search_passes_at_probability_one_half(theory, capsys):
    # the budget of one round finds the marked branch with probability 1/2
    # exactly; the computed curve sits a few ulps below it
    assert main(["run", "grover", "--theory", theory, "--N", "2"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["budget"] == 1 and results["success_at_budget"] == 0.5


@pytest.mark.parametrize("theory", ["quantum", "quaternionic"])
def test_search_off_the_closed_form_fails(theory, monkeypatch):
    curve = ifr.grover_success_curve
    monkeypatch.setattr(
        ifr, "grover_success_curve", lambda *args: [p + 1e-6 for p in curve(*args)]
    )
    for N in (2, 16):
        report = run_experiment("grover", {"theory": theory, "N": N})
        assert not report.passed
        assert report.results["max_closed_form_deviation"] == pytest.approx(1e-6, abs=1e-12)


@pytest.mark.parametrize(
    "experiment,theory",
    [
        ("dj-sweep", "dball"),
        ("phase-group", "gbit"),
        ("phase-group", "gbit 2"),
        ("phase-group", "gbit+2"),
        ("phase-group", "gbit02"),
        ("dj-sweep", "gbit02"),
        ("branch-local", "dball05"),
    ],
)
def test_cli_rejects_malformed_theory_names(experiment, theory, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", experiment, "--theory", theory])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unknown theory name {theory!r}; accepted forms: " in captured.err
    assert "gbit<d>, dball<d>" in captured.err


def test_theory_help_lists_every_accepted_form():
    run_parser = build_parser()._subparsers._group_actions[0].choices["run"]
    (theory,) = [a for a in run_parser._actions if a.dest == "theory"]
    assert theory.help == f"theory name ({', '.join(THEORY_NAMES)})"
    assert set(THEORY_NAMES) >= {"quantum", "quaternionic", "gbit<d>", "dball<d>"}


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "dj-sweep", "--theory", "quantum", "--n", "5"],
        ["run", "dj-sweep", "--theory", "quaternionic", "--N", "32"],
    ],
)
def test_cli_refuses_promise_tables_beyond_the_bound(argv, capsys, monkeypatch):
    def no_run(*args):
        raise AssertionError("a protocol run started")

    # every dj-sweep entry runs through the one sweep, and every oracle is validated first
    monkeypatch.setattr(ifr, "promise_sweep", no_run)
    monkeypatch.setattr(ifr, "validate_encoding", no_run)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "constant_balanced_specs takes n <= 4 (MAX_PROMISE_BITS), got n = 5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["run", "dj-sweep", "--theory", "quantum", "--n", "12"], "constant_balanced_specs takes n <= 4 (MAX_PROMISE_BITS), got n = 12"),
        (["run", "dj-sweep", "--theory", "quaternionic", "--N", "1024"], "constant_balanced_specs takes n <= 4 (MAX_PROMISE_BITS), got n = 10"),
        (["run", "phase-group", "--theory", "quantum", "--n", "8"], "N <= 64 (MAX_SPANNING_LEVELS), got N = 256"),
        (["run", "phase-group", "--theory", "quaternionic", "--N", "128"], "N <= 64 (MAX_SPANNING_LEVELS), got N = 128"),
    ],
)
def test_cli_refuses_an_oversized_run_before_building_it(argv, message, capsys, monkeypatch):
    def no_instruments(*args):
        raise AssertionError("dj-sweep instruments were built")

    monkeypatch.setattr(ifr, "quantum_dj_instruments", no_instruments)
    monkeypatch.setattr(ifr, "quaternionic_dj_instruments", no_instruments)
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert time.perf_counter() - start < 1.0
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("theory", ["quantum", "quaternionic"])
def test_cli_refuses_a_search_past_the_matrix_bound_by_its_own_size(theory, capsys, monkeypatch):
    # the run reads N; the quantum theory's n, derived from it, is never named
    def no_theory(*args):
        raise AssertionError("a theory was built")

    monkeypatch.setattr(th, "quantum_theory", no_theory)
    monkeypatch.setattr(th, "quaternionic_theory", no_theory)
    with pytest.raises(SystemExit) as exc:
        main(["run", "grover", "--theory", theory, "--N", "2048"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(r"^gptifer: error: grover takes 2 <= N <= 1024 \(MAX_MATRIX_LEVELS\), got N = 2048$", captured.err, re.M)


def test_json_round_trip_and_content_equality(tmp_path):
    report = run_experiment("containment", {})
    path = tmp_path / "report.json"
    emit_report(report, path)
    data = json.loads(path.read_text())
    assert data == report.canonical_dict()
    parsed = ExperimentReport(data["experiment"], data["theory"], data["parameters"], data["results"], data["pass"])
    assert parsed == report


def test_emission_is_byte_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(run_experiment("uncertainty", {"samples": 500}), p1)
    emit_report(run_experiment("uncertainty", {"samples": 500}), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_rows_cover_every_leaf(tmp_path):
    report = run_experiment("spekkens-compare", {})
    path = tmp_path / "report.csv"
    emit_report(report, path, fmt="csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["key", "value"]
    leaves = report.flatten()
    assert len(rows) - 1 == len(leaves)
    result_rows = [r for r in rows[1:] if r[0].startswith("results.")]

    def count_leaves(value):
        if isinstance(value, dict):
            return sum(count_leaves(v) for v in value.values())
        if isinstance(value, (list, tuple)):
            return sum(count_leaves(v) for v in value)
        return 1

    assert len(result_rows) == count_leaves(report.results)


def test_full_suite_passes_and_is_deterministic():
    reports = run_suite(seed=0)
    assert all(r.passed for r in reports)
    assert suite_canonical_bytes(0) == suite_canonical_bytes(0)


def _child_env() -> dict:
    # a child interpreter imports the package from this checkout's src
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_suite_bytes_survive_process_boundaries():
    script = (
        "import sys; from gptifer.experiments import suite_canonical_bytes; "
        "sys.stdout.buffer.write(suite_canonical_bytes(0))"
    )
    runs = [
        subprocess.run([sys.executable, "-c", script], capture_output=True, env=_child_env())
        for _ in range(2)
    ]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout == suite_canonical_bytes(0)


def test_cli_run_exits_zero_on_pass(capsys, tmp_path):
    out_path = tmp_path / "out.json"
    code = main(
        ["run", "phase-group", "--theory", "gbit2", "--seed", "0",
         "--out", str(out_path)]
    )
    assert code == 0
    printed = capsys.readouterr().out.strip()
    assert json.loads(printed)["pass"] is True
    assert json.loads(out_path.read_text())["experiment"] == "phase-group"


def test_cli_csv_output(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code = main(
        ["run", "containment", "--out", str(out_path), "--format", "csv"]
    )
    capsys.readouterr()
    assert code == 0
    rows = out_path.read_text().splitlines()
    assert rows[0] == "key,value"
    assert any(r.startswith("results.octahedron_in_ball,") for r in rows)


def test_cli_refuses_format_without_out(monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    for fmt in ("json", "csv"):
        with pytest.raises(SystemExit) as exc:
            main(["run", "containment", "--format", fmt])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--format applies only to the report written with --out" in captured.err


def test_cli_builds_one_parser_per_process_and_keeps_no_state_between_calls(monkeypatch, capsys):
    built = []

    def counted():
        built.append(1)
        return build_parser()

    def seed_of_run(argv):
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)["parameters"]["seed"]

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        # a refused --format leaves nothing behind for the next run
        with pytest.raises(SystemExit) as exc:
            main(["run", "containment", "--format", "csv"])
        assert exc.value.code == 2 and capsys.readouterr().out == ""
        assert seed_of_run(["run", "containment"]) == 0
        # the seed's environment variable is read on every call
        for seed in ("3", "5"):
            monkeypatch.setenv("GPT_IFER_SEED", seed)
            assert seed_of_run(["run", "containment"]) == int(seed)
        monkeypatch.delenv("GPT_IFER_SEED")
        assert main(["list"]) == 0 and "containment" in capsys.readouterr().out.split()
        assert seed_of_run(["run", "containment"]) == 0
        assert seed_of_run(["run", "containment", "--seed", "9"]) == 9
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_cli_list(capsys):
    assert main(["list"]) == 0
    printed = capsys.readouterr().out.split()
    assert "grover" in printed and "dj-sweep" in printed


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["run", "nope"])


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "grover", "--iterations", "-1"],
        ["run", "grover", "--marked", "-1"],
        ["run", "uncertainty", "--samples", "0"],
        ["run", "phase-group", "--theory", "classical", "--N", "1"],
    ],
)
def test_cli_rejects_invalid_counts_as_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "uncertainty", "--samples", "5", "--theory", "quaternionic", "--N", "99",
         "--marked", "3"],
        ["run", "dj-sweep", "--theory", "quantum", "--N", "99"],
        ["run", "phase-group", "--theory", "gbit2", "--N", "3"],
        ["run", "grover", "--theory", "quantum", "--N", "4", "--n", "2"],
        ["run", "containment", "--theory", "qubit"],
    ],
)
def test_cli_rejects_parameters_the_run_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_unread_parameters_are_named():
    with pytest.raises(ValueError, match=r"does not read parameter\(s\): N, marked, theory$"):
        run_experiment("uncertainty", {"samples": 5, "theory": "quaternionic", "N": 99, "marked": 3})
    with pytest.raises(ValueError, match=r"dj-sweep on theory 'classical' .*: N, n$"):
        run_experiment("dj-sweep", {"theory": "classical", "n": 2, "N": 4})
    # each theory reads its own size parameter
    assert run_experiment("phase-group", {"theory": "quaternionic", "N": 3}).passed
    assert run_experiment("phase-group", {"theory": "quantum", "n": 2}).passed
    with pytest.raises(ValueError, match=": n$"):
        run_experiment("phase-group", {"theory": "quaternionic", "n": 2})


def test_parameters_are_checked_before_the_run(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(ifr, "grover_success_curve", fail)
    with pytest.raises(ValueError, match=r"grover on theory 'quaternionic' .*: samples$"):
        run_experiment("grover", {"theory": "quaternionic", "N": 64, "samples": 1})
    with pytest.raises(ValueError, match="N must be an integer"):
        run_experiment("grover", {"N": 16.9})


@pytest.mark.parametrize(
    "name,params,key",
    [
        ("uncertainty", {"samples": 2.7}, "samples"),
        ("grover", {"N": 16.9}, "N"),
        ("grover", {"marked": 1.0}, "marked"),
        ("dj-sweep", {"n": "2"}, "n"),
        ("phase-group", {"theory": "quantum", "n": True}, "n"),
        ("containment", {"seed": 0.5}, "seed"),
    ],
)
def test_non_integer_parameters_are_refused(name, params, key):
    with pytest.raises(ValueError, match=f"^{key} must be an integer"):
        run_experiment(name, params)


def test_sized_runs_record_their_size():
    one = run_experiment("phase-group", {"theory": "quantum", "n": 1})
    two = run_experiment("phase-group", {"theory": "quantum", "n": 2})
    assert one.parameters == {"theory": "quantum", "n": 1, "seed": 0}
    assert two.parameters["n"] == 2
    assert one.to_canonical_json() != two.to_canonical_json()
    assert run_experiment("branch-local", {"theory": "quaternionic"}).parameters["N"] == 2
    union = run_experiment("localizable-union", {"theory": "classical", "N": 3})
    assert union.parameters == {"theory": "classical", "N": 3, "seed": 0}
    # unsized theories record no size
    assert run_experiment("phase-group", {"theory": "gbit2"}).parameters == {"theory": "gbit2", "seed": 0}


def test_classical_branch_local_passes_at_every_size():
    for N in (2, 3):
        report = run_experiment("branch-local", {"theory": "classical", "N": N})
        assert report.passed
        assert report.results["subgroups"] == [["identity"]] * N


def test_every_run_parameter_is_a_cli_option():
    options = set(build_parser().parse_args(["run", "containment"]).run_parameters)
    runs = []
    for entry in REGISTRY.values():
        runs += entry.values() if isinstance(entry, dict) else [entry]
    read = {
        p.name
        for run in runs
        for p in inspect.signature(run).parameters.values()
        if p.kind is p.KEYWORD_ONLY
    }
    assert {"theory", "n", "N", "marked", "iterations", "samples"} <= read
    assert read <= options


def test_experiments_reject_invalid_counts():
    with pytest.raises(ValueError, match="iterations"):
        run_experiment("grover", {"N": 4, "iterations": -1})
    with pytest.raises(ValueError, match="samples"):
        run_experiment("uncertainty", {"samples": 0})


def test_cli_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("GPT_IFER_SEED", "7")
    main(["run", "containment"])
    printed = capsys.readouterr().out
    assert json.loads(printed)["parameters"]["seed"] == 7


def test_cli_rejects_a_malformed_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("GPT_IFER_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["run", "containment"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "GPT_IFER_SEED must be an integer" in captured.err


def test_cli_entry_point_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "gptifer.cli", "run", "localizable-union",
         "--theory", "gbit2"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["union"] == ["identity"]


def test_a_run_without_an_lp_never_imports_the_lp_solver():
    # the effect search solves its LP in the package: scipy is never imported, with or without an LP
    script = (
        "import contextlib, io, json, sys\n"
        "import gptifer\n"
        "from gptifer import cli\n"
        "from gptifer.experiments import SUITE\n"
        "from gptifer.interferometer import find_distinguishing_effect, spekkens_ontic_dj_instruments\n"
        "def scipy_loaded():\n"
        "    return sorted(name for name in sys.modules if name == 'scipy' or name.startswith('scipy.'))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['run', 'grover', '--theory', 'quaternionic', '--N', '16'])\n"
        "before = scipy_loaded()\n"
        "m, enc, s_in, _ = spekkens_ontic_dj_instruments()\n"
        "found = [repr(find_distinguishing_effect(m, enc, s_in, strict)) for strict in (True, False)]\n"
        "after = scipy_loaded()\n"
        "codes = []\n"
        "for name, params in SUITE:\n"
        "    argv = ['run', name] + [f'--{k}={v}' for k, v in params.items()]\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cli.main(argv))\n"
        "print(json.dumps([code, before, after, found, codes, scipy_loaded()]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    m, enc, s_in, _ = ifr.spekkens_ontic_dj_instruments()
    expected = [repr(ifr.find_distinguishing_effect(m, enc, s_in, strict)) for strict in (True, False)]
    assert json.loads(proc.stdout) == [0, [], [], expected, [0] * len(SUITE), []]
    assert expected == ["None", "None"]  # the ontic toy bit admits no effect, strict or weak


def test_cli_refuses_a_gbit_past_the_bound_before_building_it(monkeypatch, capsys):
    def no_images(*args):
        raise AssertionError("a gbit group was built")

    monkeypatch.setattr(th, "_gbit_images", no_images)
    with pytest.raises(SystemExit) as exc:
        main(["run", "phase-group", "--theory", "gbit10"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "gbit<d> takes 2 <= d <= 6 (MAX_GBIT_MEASUREMENTS), got d = 10" in captured.err


@pytest.mark.parametrize("d", [65, 100_000])
def test_cli_refuses_a_ball_past_the_bound_before_building_it(d, monkeypatch, capsys):
    def no_states(*args):
        raise AssertionError("a ball state was built")

    monkeypatch.setattr(th, "_ball_states", no_states)
    with pytest.raises(SystemExit) as exc:
        main(["run", "phase-group", "--theory", f"dball{d}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"dball<d> takes 2 <= d <= 64 (MAX_BALL_MEASUREMENTS), got d = {d}" in captured.err


@pytest.mark.parametrize("N", [9, 12])
def test_cli_refuses_a_classical_system_past_the_bound_before_building_it(N, monkeypatch, capsys):
    def no_images(*args):
        raise AssertionError("a permutation group was built")

    monkeypatch.setattr(th, "_classical_images", no_images)
    with pytest.raises(SystemExit) as exc:
        main(["run", "phase-group", "--theory", "classical", "--N", str(N)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"classical takes 2 <= N <= 8 (MAX_CLASSICAL_OUTCOMES), got N = {N}" in captured.err


def test_cli_refuses_uncertainty_samples_past_the_bound_before_drawing_any(monkeypatch, capsys):
    def no_states(*args):
        raise AssertionError("a qubit state was drawn")

    monkeypatch.setattr(unc, "random_pure_qubit_states", no_states)
    samples = MAX_UNCERTAINTY_SAMPLES + 1
    with pytest.raises(SystemExit) as exc:
        main(["run", "uncertainty", "--samples", str(samples)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"uncertainty takes 1 <= samples <= 1000000 (MAX_UNCERTAINTY_SAMPLES), got samples = {samples}" in captured.err


FINITE_THEORIES = [
    ("classical", {"N": 2}),
    ("classical", {"N": 3}),
    ("gbit2", {}),
    ("gbit3", {}),
    ("gbit4", {}),
    ("gbit5", {}),
    ("spekkens-ontic", {}),
    ("spekkens-epistemic", {}),
]


def _drop_one(found):
    if isinstance(found, frozenset):  # a localizable union
        return frozenset(sorted(found, key=lambda e: e.name)[1:])
    return replace(found, elements=found.elements[1:])


def _add_one(found):
    elements = tuple(found) if isinstance(found, frozenset) else found.elements
    extra = LinearMap(np.zeros((elements[0].dim,) * 2), "extra")
    if isinstance(found, frozenset):
        return found | {extra}
    return replace(found, elements=elements + (extra,))


@pytest.mark.parametrize(
    "experiment,layer",
    [
        ("phase-group", "phase_group"),
        ("branch-local", "branch_local_subgroup"),
        ("localizable-union", "localizable_union"),
    ],
)
@pytest.mark.parametrize("theory,sizes", FINITE_THEORIES)
def test_group_runs_check_the_finite_answer(theory, sizes, experiment, layer, monkeypatch):
    params = {"theory": theory, **sizes}
    real, found = getattr(ph, layer), []

    def record(*args, **kwargs):
        found.append(real(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr(ph, layer, record)
    assert run_experiment(experiment, params).passed
    # replay what the run found with one element dropped or added
    for change in (_drop_one, _add_one):
        replay = iter(found)
        monkeypatch.setattr(ph, layer, lambda *args, **kwargs: change(next(replay)))
        assert not run_experiment(experiment, params).passed


@pytest.mark.parametrize("experiment", ["branch-local", "localizable-union"])
@pytest.mark.parametrize("theory,sizes", FINITE_THEORIES)
def test_branch_runs_filter_the_group_without_a_phase_group_run(theory, sizes, experiment, monkeypatch):
    def no_phase_group(*args, **kwargs):
        raise AssertionError("phase_group ran")

    monkeypatch.setattr(ph, "phase_group", no_phase_group)
    assert run_experiment(experiment, {"theory": theory, **sizes}).passed


@pytest.mark.parametrize("theory", ["classical", "gbit2", "gbit3"])
@pytest.mark.parametrize("change", [_drop_one, _add_one])
def test_finite_dj_sweep_entries_check_the_phase_group(theory, change, monkeypatch):
    assert run_experiment("dj-sweep", {"theory": theory}).passed
    real = ph.phase_group
    monkeypatch.setattr(ph, "phase_group", lambda *args, **kwargs: change(real(*args, **kwargs)))
    assert not run_experiment("dj-sweep", {"theory": theory}).passed


def test_emit_report_refuses_an_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="^unknown report format 'xml'$"):
        emit_report(run_experiment("containment", {}), tmp_path / "report.xml", fmt="xml")
    assert not (tmp_path / "report.xml").exists()


def test_csv_rows_index_the_entries_of_a_list(tmp_path):
    report = ExperimentReport("e", None, {"sizes": [2, 4]}, {"pairs": [[0, 1], (True, None)]}, True)
    path = tmp_path / "report.csv"
    emit_report(report, path, fmt="csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [
        ["key", "value"], ["experiment", "e"], ["parameters.sizes.0", "2"], ["parameters.sizes.1", "4"],
        ["pass", "true"], ["results.pairs.0.0", "0"], ["results.pairs.0.1", "1"], ["results.pairs.1.0", "true"],
        ["results.pairs.1.1", "null"], ["theory", "null"],
    ]


@pytest.mark.parametrize("theory", ["classical", "gbit2", "qubit"])
def test_grover_refuses_a_theory_without_a_search(theory, monkeypatch):
    def fail(*args):
        raise AssertionError("a search curve was computed")

    monkeypatch.setattr(ifr, "grover_success_curve", fail)
    with pytest.raises(ValueError, match=f"^grover does not support theory '{theory}'$"):
        run_experiment("grover", {"theory": theory})
