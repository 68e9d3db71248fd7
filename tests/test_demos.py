import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadcount

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_are_found():
    # an empty glob would leave nothing for test_demo_runs to check
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    # the demos call the library as a reader would; a changed API breaks them
    src = str(Path(quadcount.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                            env=env, cwd=ROOT)
    assert result.returncode == 0, result.stderr
    assert result.stdout
