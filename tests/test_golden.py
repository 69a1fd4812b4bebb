r"""Golden reference for the canonical suite reports.

Core claims:
    - ``suite_canonical_bytes(s)`` for s = 0..3 equals the committed
      ``tests/golden/suite_seed{s}.jsonl`` byte for byte (each file ends
      with one newline after the last report)
    - every value a suite report carries in ``parameters`` and ``results``
      is of exact type dict (with str keys), list, str, int, float, bool or
      None: reports are passed on as computed, so a numpy scalar or a tuple
      fails here instead of being converted

A change that alters any report fails here. If the change to the reports is
intended, regenerate the files and say why in the change log:

    PYTHONPATH=src python -c "from pathlib import Path; \
        from gptifer.experiments import suite_canonical_bytes as b; \
        [Path(f'tests/golden/suite_seed{s}.jsonl').write_bytes(b(s) + b'\n') for s in range(4)]"
"""

from pathlib import Path

import pytest

from gptifer.experiments import run_suite, suite_canonical_bytes

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("seed", range(4))
def test_suite_bytes_match_golden_reference(seed):
    expected = (GOLDEN / f"suite_seed{seed}.jsonl").read_bytes()
    assert suite_canonical_bytes(seed) + b"\n" == expected


_PLAIN = (dict, list, str, int, float, bool, type(None))


def _unplain(value, path):
    # the paths of values, keys included, whose exact type is no plain JSON type
    if type(value) not in _PLAIN:
        yield f"{path}: {type(value).__name__}"
    elif type(value) is dict:
        for key, item in value.items():
            if type(key) is not str:
                yield f"{path} key {key!r}: {type(key).__name__}"
            yield from _unplain(item, f"{path}.{key}")
    elif type(value) is list:
        for idx, item in enumerate(value):
            yield from _unplain(item, f"{path}.{idx}")


@pytest.mark.parametrize("seed", range(4))
def test_every_reported_value_is_a_plain_json_type(seed):
    found = [
        bad
        for r in run_suite(seed)
        for part in ("parameters", "results")
        for bad in _unplain(getattr(r, part), f"{r.experiment}[{r.theory}].{part}")
    ]
    assert found == []
