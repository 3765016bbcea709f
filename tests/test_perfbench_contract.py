"""The benchmark's tracer must still bind to the package.

``perfbench/selftest.py`` checks that the tracer wraps every binding of the
traced layer functions and that the span trees have the shape the per-layer
metrics read.  Running it here makes a refactor that breaks those bindings
fail the test suite, not only a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
