"""The demo scripts print the same bytes as when their output was pinned."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_GOLDEN = json.loads((ROOT / "tests" / "golden" / "demos_stdout.json").read_text())


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_demo_stdout_is_golden(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == _GOLDEN[name]
