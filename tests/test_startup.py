"""Start-up cost: importing the package loads no scipy module.  scipy.linalg
alone took about two thirds of a fresh interpreter's `import weingarten.cli`;
the package's tridiagonal solves are tridiag.CyclicReduction, in numpy."""

import os
import subprocess
import sys

import pytest

import weingarten

SRC = os.path.dirname(os.path.dirname(weingarten.__file__))


def run_fresh(script: str) -> str:
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout.strip()


@pytest.mark.parametrize("module", ["weingarten.cli", "weingarten.symk"])
def test_import_loads_no_scipy(module):
    script = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert run_fresh(script) == "[]"


def test_solver_spsolve_resolves_on_lookup():
    # the benchmark's tracer looks solver.spsolve up by name; scipy is loaded
    # only by that lookup
    script = ("import sys, weingarten.solver as s; print('scipy' in sys.modules); "
              "import scipy.sparse.linalg as sl; print(s.spsolve is sl.spsolve)")
    assert run_fresh(script).split() == ["False", "True"]
