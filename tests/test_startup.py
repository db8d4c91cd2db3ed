"""Start-up cost: importing the package loads no scipy.interpolate, which
took about a third of a fresh interpreter's `import weingarten.cli`.  The
package's spline is problem.spline_rows on LAPACK's dgtsv."""

import os
import subprocess
import sys

import pytest

import weingarten


@pytest.mark.parametrize("module", ["weingarten.cli", "weingarten.symk"])
def test_import_loads_no_scipy_interpolate(module):
    src = os.path.dirname(os.path.dirname(weingarten.__file__))
    script = f"import sys, {module}; print(sorted(m for m in sys.modules if m.startswith('scipy.interpolate')))"
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
