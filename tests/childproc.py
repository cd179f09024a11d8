"""Run a child Python interpreter on this checkout's package."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_python(*args: str) -> subprocess.CompletedProcess:
    """sys.executable with args, run from the repository root with src
    first on PYTHONPATH, so no install is needed; output captured as text."""
    src, path = str(REPO / "src"), os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{path}" if path else src}
    return subprocess.run(
        [sys.executable, *args], cwd=REPO, env=env, capture_output=True, text=True
    )
