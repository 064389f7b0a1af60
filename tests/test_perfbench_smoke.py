"""The benchmark harness runs end to end on its tiny configuration.

perfbench wraps the package's public functions by name for its traced runs,
so this also catches a change that drops or renames one of them.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "smoke.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.rstrip().endswith("smoke ok")
