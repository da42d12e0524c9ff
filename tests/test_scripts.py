"""Every experiment script runs end to end at its smallest arguments."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args", [
    ("train_lookup_dot.py", ["--steps", "2", "--n-train", "8", "--n-eval", "4",
                             "--eval-every", "1"]),
    ("loss_mode_comparison.py", ["--steps", "2", "--seeds", "0", "--modes", "J"]),
])
def test_script_exits_zero(script, args):
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
