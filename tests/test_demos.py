"""Every script in demos/ runs to completion against this source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import maxvit

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
ARGS = {"05_train_and_save.py": ["2"]}  # two training steps instead of forty


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    src = str(Path(maxvit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo), *ARGS.get(demo.name, [])],
        capture_output=True, text=True, timeout=300, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
