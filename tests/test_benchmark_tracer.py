"""The benchmark's per-layer tracer, ``perfbench/tracer.py``, loaded by path
and left as it is, still installs on the package: it wraps every public
function of the layer modules and looks ``solver.spsolve`` up by name."""

import importlib.util
import pathlib

from weingarten import cli, solver

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
CONFIG = """\
[problem]
k = 1
rho_max = 0.8
n_rho = 8
n_theta = 8
psi_family = power
psi_p = 1
psi_h = 2/u*(1+0.1*rho*cos(theta))
phi_family = hyperplane
phi_c = 1.0

[run]
mode = solve
"""


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_solve_counts_linear_solves(tmp_path):
    tracer = load_tracer()
    names = ("linear_solve", "damped_newton", "spsolve")
    originals = {name: getattr(solver, name) for name in names}
    main = cli.main
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG)
    with tracer.Tracer() as trace:
        assert all(getattr(solver, name) is not originals[name] for name in names)
        code = cli.main(["--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 0
    assert all(getattr(solver, name) is originals[name] for name in names)
    assert cli.main is main
    metrics = trace.metrics(0)
    assert metrics["solver.linear_solve.calls"] >= 1
    assert metrics["solver.newton.iterations"] >= 1
