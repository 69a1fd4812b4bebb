"""Call tracing installed from outside the gptifer package.

The tracer wraps the public functions of each layer where they are looked
up: every module attribute in the package that names the function (so the
``is_branch_local`` that ``interferometer`` imported by name is wrapped as
well as ``phase.is_branch_local``), and the class attribute for methods.
Each call becomes a span with its parent; spans stay in memory until
:meth:`Tracer.write` and the originals are restored on exit.
"""

from __future__ import annotations

import gzip
import hashlib
import importlib
import json
import sys
import time

import numpy as np

#: Functions that get a span, as (module, qualified name) in ``gptifer``.
TIMED = (
    ("cli", "main"),
    ("experiments", "run_experiment"),
    ("interferometer", "run_dj"),
    ("interferometer", "build_oracle"),
    ("interferometer", "grover_success_curve"),
    ("interferometer", "find_distinguishing_effect"),
    ("phase", "is_branch_local"),
    ("phase", "is_phase_operation"),
    ("phase", "phase_group"),
    ("phase", "branch_local_subgroup"),
    ("theories", "DensityMatrixTheory.apply"),
    ("theories", "DensityMatrixTheory.compose"),
    ("theories", "DensityMatrixTheory.probability"),
    ("theories", "DensityMatrixTheory.maps_commute"),
    ("theories", "DensityMatrixTheory.is_identity_map"),
    ("theories", "QuaternionicTheory.apply"),
    ("theories", "QuaternionicTheory.compose"),
    ("theories", "QuaternionicTheory.probability"),
    ("theories", "QuaternionicTheory.maps_commute"),
    ("theories", "QuaternionicTheory.is_identity_map"),
    ("core", "VectorTheory.apply"),
    ("core", "VectorTheory.probability"),
    ("core", "VectorTheory.maps_commute"),
    ("core", "apply"),
    ("quaternion", "conjugate_state"),
    ("quaternion", "real_trace_prob"),
    ("uncertainty", "schrodinger_bound"),
    ("uncertainty", "robertson_bound"),
    ("uncertainty", "pauli_expectations"),
)

#: The LP solve is scipy's ``linprog`` as ``interferometer`` imported it.
LP_SOLVE = "interferometer.lp_solve"

#: Counted but not timed: a timing wrapper would cost about as much as
#: the Hamilton product itself.
QMUL = "quaternion.qmul"

BUILD_ORACLE = "interferometer.build_oracle"
VALIDATION = ("phase.is_branch_local",) + tuple(
    f"{module}.{name}" for module, name in TIMED if name.endswith(".maps_commute")
)


def layer_names() -> list[str]:
    """Every span name the tracer reports, in report order."""
    return [f"{module}.{name}" for module, name in TIMED] + [LP_SOLVE]


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports."""
    names = []
    for layer in layer_names():
        names += [f"{layer}.calls", f"{layer}.self_s"]
    return names + [
        f"{QMUL}.calls",
        f"{BUILD_ORACLE}.distinct_encoding_ratio",
        f"{BUILD_ORACLE}.commute_checks_per_call",
        f"{LP_SOLVE}.rows",
    ]


def encoding_key(m, enc) -> str:
    """Content digest of a theory's branch encoding.

    Two oracle builds validate the same encoding exactly when the theory
    and every member agree byte for byte.
    """
    digest = hashlib.sha256(f"{m.name}/{m.n_branches}".encode())
    for pair in enc.pairs:
        for member in pair:
            array = getattr(member, "comps", getattr(member, "matrix", member))
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _oracle_note(args, kwargs):
    # digested after the pass, so hashing is not charged to the caller's span
    m = args[0] if args else kwargs["m"]
    enc = args[2] if len(args) > 2 else kwargs["enc"]
    return m, enc


def _lp_rows(args, kwargs):
    rows = 0
    for key in ("A_ub", "A_eq"):
        if kwargs.get(key) is not None:
            rows += len(kwargs[key])
    return rows


class Tracer:
    """Span recorder; each ``with`` block installs the wrappers and removes
    them on exit, and spans accumulate across blocks."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: (name id, parent span or -1, start, end) in creation order, so a
        #: parent always precedes its children.
        self.spans: list[tuple[int, int, float, float] | None] = []
        self.notes: dict[int, object] = {}
        self.qmul_calls = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _spanned(self, name: str, fn, note=None):
        name_id = self._name_id(name)

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            if note is not None:
                self.notes[idx] = note(args, kwargs)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name_id, parent, start, end)

        wrapper.__wrapped__ = fn
        return wrapper

    def run(self, name: str, fn):
        """Call ``fn()`` inside a root span named ``name`` (one op)."""
        return self._spanned(name, fn)()

    def _counted(self, fn):
        def wrapper(*args):
            self.qmul_calls += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "gptifer" or name.startswith("gptifer.")
        ]
        for mod in modules:
            names = [attr for attr, value in vars(mod).items() if value is original]
            for attr in names:
                setattr(mod, attr, wrapper)
                self._restore.append((mod, attr, original))

    def __enter__(self):
        for module_name, qualname in TIMED:
            module = importlib.import_module(f"gptifer.{module_name}")
            name = f"{module_name}.{qualname}"
            note = _oracle_note if name == BUILD_ORACLE else None
            if "." in qualname:
                cls_name, method = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._spanned(name, original, note))
                self._restore.append((cls, method, original))
            else:
                original = getattr(module, qualname)
                self._replace_everywhere(original, self._spanned(name, original, note))
        ifr = importlib.import_module("gptifer.interferometer")
        self._replace_everywhere(ifr.linprog, self._spanned(LP_SOLVE, ifr.linprog, _lp_rows))
        quaternion = importlib.import_module("gptifer.quaternion")
        self._replace_everywhere(quaternion.qmul, self._counted(quaternion.qmul))
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    # -- reporting -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time per layer, plus the validation ratios.

        Self time is a span's duration minus the durations of its direct
        children.  A build is counted as validating when a locality or
        commutation check ran inside it.
        """
        n = len(self.spans)
        child_time = [0.0] * n
        self_time = [0.0] * n
        for i in range(n - 1, -1, -1):
            _, parent, start, end = self.spans[i]
            self_time[i] = (end - start) - child_time[i]
            if parent >= 0:
                child_time[parent] += end - start

        metrics = {}
        for layer in layer_names():
            metrics[f"{layer}.calls"] = 0
            metrics[f"{layer}.self_s"] = 0.0
        for i, (name_id, _, _, _) in enumerate(self.spans):
            name = self.names[name_id]
            if f"{name}.calls" in metrics:
                metrics[f"{name}.calls"] += 1
                metrics[f"{name}.self_s"] += self_time[i]
        metrics[f"{QMUL}.calls"] = self.qmul_calls

        build_id = self._ids.get(BUILD_ORACLE)
        validation_ids = {self._ids[v] for v in VALIDATION if v in self._ids}
        enclosing_build = [-1] * n
        validating: set[int] = set()
        commute_checks = 0
        for i, (name_id, parent, _, _) in enumerate(self.spans):
            outer = enclosing_build[parent] if parent >= 0 else -1
            enclosing_build[i] = i if name_id == build_id else outer
            if name_id in validation_ids and outer >= 0:
                validating.add(outer)
                commute_checks += self.names[name_id].endswith(".maps_commute")
        builds = metrics[f"{BUILD_ORACLE}.calls"]
        keys: dict[tuple[int, int], str] = {}
        for b in validating:
            m, enc = self.notes[b]
            if (id(m), id(enc)) not in keys:
                keys[(id(m), id(enc))] = encoding_key(m, enc)
        distinct = set(keys.values())
        metrics[f"{BUILD_ORACLE}.distinct_encoding_ratio"] = (
            len(distinct) / len(validating) if validating else 0.0
        )
        metrics[f"{BUILD_ORACLE}.commute_checks_per_call"] = (
            commute_checks / builds if builds else 0.0
        )
        metrics[f"{LP_SOLVE}.rows"] = sum(
            self.notes[i]
            for i, (name_id, _, _, _) in enumerate(self.spans)
            if self.names[name_id] == LP_SOLVE
        )
        return metrics

    def write(self, path) -> None:
        """Write names and spans, times in ns from tracer creation, gzipped."""
        origin = self._origin
        payload = {
            "names": self.names,
            "fields": ["name", "parent", "start_ns", "end_ns"],
            "spans": [
                [name_id, parent, round((start - origin) * 1e9), round((end - origin) * 1e9)]
                for name_id, parent, start, end in self.spans
            ],
            "qmul_calls": self.qmul_calls,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))
