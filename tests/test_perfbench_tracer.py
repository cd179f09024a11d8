"""The traced benchmark wraps library functions by name; every name it
lists must still exist, or `perfbench/run.py --trace 1` breaks."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TRACER = REPO / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_entry_points_resolve():
    tracer = _tracer_module()
    for modname in tracer.MODULES:
        importlib.import_module(f"cubemorse.{modname}")
    for modname, attr, name, _ in tracer.ENTRY_POINTS:
        obj = importlib.import_module(f"cubemorse.{modname}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"{name}: cubemorse.{modname}.{attr} is gone"
            obj = getattr(obj, part)
        assert callable(obj), f"{name}: cubemorse.{modname}.{attr} is not callable"


def test_install_leaves_no_original_bound():
    # install rebinds the library's functions, so it runs in its own process
    code = "import tracer; tracer.install(tracer.Tracer())"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=TRACER.parent,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
