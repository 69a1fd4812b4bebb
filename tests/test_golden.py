r"""Golden reference for the canonical suite reports.

Core claim:
    - ``suite_canonical_bytes(s)`` for s = 0..3 equals the committed
      ``tests/golden/suite_seed{s}.jsonl`` byte for byte (each file ends
      with one newline after the last report)

A change that alters any report fails here. If the change to the reports is
intended, regenerate the files and say why in the change log:

    PYTHONPATH=src python -c "from pathlib import Path; \
        from gptifer.experiments import suite_canonical_bytes as b; \
        [Path(f'tests/golden/suite_seed{s}.jsonl').write_bytes(b(s) + b'\n') for s in range(4)]"
"""

from pathlib import Path

import pytest

from gptifer.experiments import suite_canonical_bytes

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("seed", range(4))
def test_suite_bytes_match_golden_reference(seed):
    expected = (GOLDEN / f"suite_seed{seed}.jsonl").read_bytes()
    assert suite_canonical_bytes(seed) + b"\n" == expected
