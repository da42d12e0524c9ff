"""Every experiment script runs end to end at its smallest arguments."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args", [
    ("train_lookup_dot.py", ["--steps", "2", "--n-train", "8", "--n-eval", "4",
                             "--eval-every", "1"]),
    # no eval example keeps an answer token, so the answer-score gap is None
    ("train_lookup_dot.py", ["--steps", "1", "--n-train", "4", "--n-eval", "1",
                             "--eval-every", "1", "--pre-limit", "16", "--k", "8"]),
    ("loss_mode_comparison.py", ["--steps", "2", "--seeds", "0", "--modes", "J"]),
])
def test_script_exits_zero(script, args):
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
