"""Each demo script runs to completion under ``python -O``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import omegabaire

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(Path(omegabaire.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", str(script)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stdout


def test_demos_found():
    assert DEMOS
