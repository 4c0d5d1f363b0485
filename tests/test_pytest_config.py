"""Under the repository's pytest configuration a failing test ends no run.

The configuration turns warnings into errors.  When a ``@given`` test
fails, hypothesis writes its failure report with ``libcst``, whose import
warns; the one filter for that warning keeps the report and the tests
after it running.
"""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

PAIR = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_pair.py").write_text(PAIR)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(CONFIG), "--rootdir", str(tmp_path), "test_pair.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
    assert "Falsifying example" in out
