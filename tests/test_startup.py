"""Start-up cost: importing the package loads no third-party package but
numpy.  scipy.linalg alone took about two thirds of a fresh interpreter's
`import weingarten.cli`, and sympy takes about 0.3 s to import; the
package's tridiagonal solves are tridiag.CyclicReduction, in numpy, and its
derivatives of closed-form expressions are forward-mode jets."""

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


def top_level_packages(statement: str) -> set:
    """The top-level modules imported in a fresh interpreter by the time
    ``statement`` has run, the standard library's left out.  Modules that
    an extension registers in sys.modules itself (Cython's runtime modules)
    have no import spec and are not counted."""
    script = (f"{statement}\nimport sys\n"
              "print(*sorted({m.split('.')[0] for m, mod in list(sys.modules.items())"
              " if getattr(mod, '__spec__', None) is not None}"
              " - set(sys.stdlib_module_names)))")
    return set(run_fresh(script).split())


@pytest.mark.parametrize("module", ["weingarten.cli", "weingarten.symk"])
def test_import_loads_no_third_party_package_but_numpy(module):
    # beyond what a bare interpreter loads (site hooks, say)
    allowed = top_level_packages("pass") | {"numpy", "weingarten"}
    assert top_level_packages(f"import {module}") - allowed == set()


def test_solver_spsolve_resolves_on_lookup():
    # the benchmark's tracer looks solver.spsolve up by name; scipy is loaded
    # only by that lookup
    script = ("import sys, weingarten.solver as s; print('scipy' in sys.modules); "
              "import scipy.sparse.linalg as sl; print(s.spsolve is sl.spsolve)")
    assert run_fresh(script).split() == ["False", "True"]
