"""The names the benchmark tracer wraps exist where it looks for them.

``bench/tracer.py`` times each ``(module, qualname)`` in its ``TIMED`` table:
a module function through the module attribute, a method through its
class's own ``__dict__`` (an inherited method is not found there).  It also
wraps ``linprog`` as ``interferometer`` imported it and counts
``quaternion.qmul``.  A refactor that moves or renames any of these breaks
the traced benchmark run; these checks fail first, in well under a second.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("gptifer_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name,qualname", _tracer().TIMED)
def test_timed_name_resolves_as_the_tracer_resolves_it(module_name, qualname):
    module = importlib.import_module(f"gptifer.{module_name}")
    if "." in qualname:
        cls_name, method = qualname.split(".")
        cls = getattr(module, cls_name)
        assert method in cls.__dict__, f"{qualname} is not in the class's own __dict__"
        assert callable(cls.__dict__[method])
    else:
        assert callable(getattr(module, qualname))


def test_lp_solver_and_qmul_resolve():
    assert callable(importlib.import_module("gptifer.interferometer").linprog)
    assert callable(importlib.import_module("gptifer.quaternion").qmul)
