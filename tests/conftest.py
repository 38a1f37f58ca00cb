import os
import subprocess
import sys
from pathlib import Path

import pytest

import gapshrink


@pytest.fixture
def fresh_python():
    """Run python code (with extra argv) in a fresh interpreter that
    imports this checkout's gapshrink; returns its stdout lines."""
    src = str(Path(gapshrink.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )

    def run(code, *argv):
        out = subprocess.run(
            [sys.executable, "-c", code, *argv], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        return out.stdout.split("\n")

    return run
