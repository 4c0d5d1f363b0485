"""The benchmark's own self-test passes on this checkout.

``perfbench/run.py --smoke`` runs every workload at tiny sizes in fresh
interpreters and checks each answer, the cwd-small ones against the
brute-force oracle, so a wrong or crashing solver fails here too.  It
takes about ten seconds.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_run_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "self-test passed" in done.stdout
