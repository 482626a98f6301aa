"""The package and every submodule import without scipy.

Importing ``scipy.fft`` after numpy took 0.22 s and raised the peak
resident set by about 27 MB (27 -> 54 MB) on a 2-vCPU Xeon with numpy
2.4 and scipy 1.17: more than a whole cold set-up of the IF-RK4 march
benchmark spends. numpy's own transforms serve every kernel, so scipy
stays out of the import graph; a new import of it shows here."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import geobalance

ROOT = Path(__file__).resolve().parent.parent


def test_no_scipy_import():
    names = ["geobalance"] + [
        f"geobalance.{m.name}" for m in pkgutil.iter_modules(
            geobalance.__path__)]
    code = ("import importlib, sys\n"
            f"for name in {names!r}:\n"
            "    importlib.import_module(name)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert len(names) > 5
    assert proc.stdout.strip() == "[]"
