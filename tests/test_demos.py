"""The README's narrative scripts under ``demos/`` run to completion."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ehcr

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script, args", [
    ("steady_state_profile.py", []),
    ("policy_landscape.py", []),
    ("sensing_probing_tradeoffs.py", []),
    # a short replay: the grading it prints is not checked here
    ("optimize_and_verify.py", ["--slots", "20000"])])
def test_demo_exits_cleanly(script, args):
    # the child imports ehcr from where this process did, installed or not
    src = os.path.dirname(os.path.dirname(ehcr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(DEMOS / script)] + args,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
