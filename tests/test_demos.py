"""Every demo runs end to end.

Each script of `demos/` runs in its own interpreter with `-W error`, so a
warning fails it, with `PYTHONPATH` set to the checkout's `src`, so a
renamed or deleted public name fails it, and from a temporary directory
outside the checkout, so a demo that finds `experiments/` through the
working directory fails too.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs_without_a_warning(demo, tmp_path):
    assert ROOT not in tmp_path.resolve().parents
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
