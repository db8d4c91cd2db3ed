"""The benchmark's checkers pass on correct outputs and reject corrupted ones.

Correct outputs come from small CLI runs of the package; the corruptions
are a perturbed u, a wrong sigma_k or psi, a wrong cone flag, a wrong error
order and the like.  Run with ``python -m pytest perfbench/tests`` from the
repository root.
"""

import copy
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import checks  # noqa: E402
import workloads  # noqa: E402
from weingarten import cli, symk  # noqa: E402


def _psi_k1(rho, theta, u, s):
    return s * (2.0 / u * (1.0 + 0.1 * rho ** 2))


def _psi_k2(rho, theta, u, s):
    return s ** 2


def _solve(tmp, problem, extra=""):
    out = os.path.join(tmp, "out")
    cfg = os.path.join(tmp, "run.cfg")
    with open(cfg, "w") as fh:
        fh.write(problem + f"[run]\nmode = solve\nout_dir = {out}\n" + extra)
    assert cli.main(["--config", cfg]) == 0
    return out


@pytest.fixture(scope="module")
def k1_run(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("k1"))
    out = _solve(tmp, workloads._problem(1, 0.8, 32, 1, workloads.PSI_H_SOLVE_VERIFY,
                                         "hyperplane"))
    g = checks.PolarGrid(0.8, 32, 32)
    data = checks.read_fields(os.path.join(out, "fields.csv"), g)
    return out, g, data, data[:, 2].reshape(g.shape)


@pytest.fixture(scope="module")
def k2_run(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("k2"))
    out = _solve(tmp, workloads._problem(2, 2.4, 24, 2, 1, "hyperplane"),
                 "uniqueness_starts = 2\n")
    g = checks.PolarGrid(2.4, 24, 24)
    data = checks.read_fields(os.path.join(out, "fields.csv"), g)
    report = checks.load_json(os.path.join(out, "report.json"))
    return g, data[:, 2].reshape(g.shape), report


def test_constant_graph_curvatures():
    g = checks.PolarGrid(0.8, 16, 16)
    geo = checks.graph_geometry(np.full(g.shape, 2.0), g)
    assert np.allclose(geo["sigma1"], 1.0, rtol=1e-13)
    assert np.allclose(geo["sigma2"], 0.25, rtol=1e-13)
    assert np.allclose(geo["support"], 2.0, rtol=1e-13)


def test_k1_solution_passes(k1_run):
    _, g, data, U = k1_run
    assert checks.check_grid_columns(data, g) == []
    assert checks.check_boundary_ring(U, g, 1.0) == []
    assert checks.check_curvature_residual(U, g, 1, _psi_k1) == []


def test_recomputed_sigma_matches_fields_column(k1_run):
    _, g, data, U = k1_run
    geo = checks.graph_geometry(U, g)
    assert np.allclose(geo["sigma1"].ravel(), data[:, 6], rtol=1e-12, atol=1e-12)


def test_perturbed_u_is_rejected(k1_run, tmp_path):
    out, g, _, U = k1_run
    node = 5 * 32 + 7
    bad = str(tmp_path / "fields.csv")
    checks.perturb_fields(os.path.join(out, "fields.csv"), bad, node, 1e-6)
    U_bad = checks.read_fields(bad, g)[:, 2].reshape(g.shape)
    changed = np.argwhere(U_bad != U)
    assert changed.tolist() == [[5, 7]]
    assert U_bad[5, 7] == pytest.approx(U[5, 7] * (1 + 1e-6), rel=1e-15)
    assert checks.check_curvature_residual(U_bad, g, 1, _psi_k1)


def test_wrong_psi_and_boundary_are_rejected(k1_run):
    _, g, _, U = k1_run
    assert checks.check_curvature_residual(
        U, g, 1, lambda r, t, u, s: _psi_k1(r, t, u, s) * (1 + 1e-6))
    assert checks.check_curvature_residual(U, g, 2, _psi_k1)  # wrong sigma_k
    shifted = U.copy()
    shifted[-1] += 1e-12
    assert checks.check_boundary_ring(shifted, g, 1.0)


def test_timelike_field_is_rejected():
    g = checks.PolarGrid(0.8, 16, 16)
    U = 1.0 + 2.0 * g.R  # |Du|/u > 1 near the pole
    assert checks.check_curvature_residual(U, g, 1, _psi_k1)


def test_k2_solution_passes(k2_run):
    g, U, report = k2_run
    assert checks.check_curvature_residual(U, g, 2, _psi_k2) == []
    assert checks.check_gamma2(U, g) == []
    assert checks.check_uniqueness(report, U) == []


def test_k2_corruptions_are_rejected(k2_run):
    g, U, report = k2_run
    assert checks.check_curvature_residual(U, g, 2, lambda r, t, u, s: 1.001 * s ** 2)
    saddle = checks.PolarGrid(0.8, 16, 16)
    assert checks.check_gamma2(1.0 + 0.3 * saddle.R ** 2 * np.cos(2 * saddle.T), saddle)
    far = copy.deepcopy(report)
    far["uniqueness"]["max_pairwise_distance"] = 1e-6
    assert checks.check_uniqueness(far, U)
    assert checks.check_uniqueness({}, U)


@pytest.fixture(scope="module")
def study_run(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("study"))
    out = os.path.join(tmp, "out")
    cfg = os.path.join(tmp, "study.cfg")
    with open(cfg, "w") as fh:
        fh.write(workloads._problem(2, 0.8, 16, 2, 1, "constant")
                 + f"[run]\nmode = study\nout_dir = {out}\n"
                 f"[study]\ngrids = 16,32\nu_star = {workloads.U_STAR}\nrefine = 4\n")
    assert cli.main(["--config", cfg]) == 0
    g = checks.PolarGrid(0.8, 32, 32)
    U = checks.read_fields(os.path.join(out, "fields.csv"), g)[:, 2].reshape(g.shape)
    return checks.load_json(os.path.join(out, "study.json")), U, g


def test_study_passes(study_run):
    study, U, g = study_run
    assert checks.check_study(study, U, g, workloads.u_star) == []


def test_study_corruptions_are_rejected(study_run):
    study, U, g = study_run
    assert checks.check_study(study, U + 1e-4, g, workloads.u_star)
    wrong_order = copy.deepcopy(study)
    wrong_order["rows"][0]["error_inf"] = 2.0 * study["rows"][1]["error_inf"]  # order 1
    errs = checks.check_study(wrong_order, U, g, workloads.u_star)
    assert any("order" in e for e in errs)
    misreported = copy.deepcopy(study)
    misreported["orders"][0] += 0.1
    assert checks.check_study(misreported, U, g, workloads.u_star)


def test_study_order_uses_the_grid_ratio():
    g = checks.PolarGrid(0.8, 24, 24)
    U = workloads.u_star(g.R, g.T) + 1.0 * g.h ** 2 * 0.01
    errs = [0.01 * (0.8 / 16) ** 2, 0.01 * g.h ** 2]
    study = {"rows": [{"grid": 16, "error_inf": errs[0]}, {"grid": 24, "error_inf": errs[1]}],
             "orders": [math.log2(errs[0] / errs[1])]}
    found = checks.check_study(study, U, g, workloads.u_star)
    assert found and all("reported order" in e for e in found)


def _battery(n, size=12, seed=0):
    rng = np.random.default_rng(seed)
    lams = rng.uniform(-2, 2, size=(size, n))
    mus = rng.uniform(0.5, 2, size=(size, n))
    a = rng.normal(size=(size, n, n))
    etas = 0.5 * (a + np.swapaxes(a, 1, 2))
    return lams, mus, etas, workloads._symk_batch(symk, lams, mus, etas)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_symk_battery_passes(n):
    lams, mus, etas, out = _battery(n)
    assert checks.check_sigma_batch(lams, out) == []
    assert checks.check_quadratic_batch(mus, etas, out) == []


def test_symk_corruptions_are_rejected():
    lams, mus, etas, out = _battery(4)
    cases = []
    for key, change in [
        ("sigma_all", lambda o: o["sigma_all"][3].__setitem__(2, o["sigma_all"][3][2] + 1e-9)),
        ("sigma", lambda o: o["sigma"][1].__setitem__(3, o["sigma"][1][3] * (1 + 1e-9))),
        ("cone", lambda o: o["cone"][0].__setitem__(0, not o["cone"][0][0])),
        ("identities", lambda o: o["identities"][2][1].__setitem__(4, 1e-8)),
        ("newton", lambda o: o["newton"][0].__setitem__(1, (True, o["newton"][0][1][1] + 1e-6))),
    ]:
        bad = copy.deepcopy(out)
        change(bad)
        cases.append((key, checks.check_sigma_batch(lams, bad)))
    assert all(errs for _, errs in cases), [k for k, errs in cases if not errs]
    bad = copy.deepcopy(out)
    bad["quadratic"][5][2] *= 1.001
    assert checks.check_quadratic_batch(mus, etas, bad)


def test_subset_sigma():
    assert checks.subset_sigma([1.0, -2.0, 3.0], 2) == (-5.0, 11.0)
    assert checks.subset_sigma([1.0, -2.0, 3.0], 0) == (1.0, 1.0)


def test_configs_are_seeded(tmp_path):
    a = workloads.write_configs(workloads.SOLVE_VERIFY, 4, str(tmp_path))
    b = workloads.write_configs(workloads.SOLVE_VERIFY, 4, str(tmp_path))
    assert a["node"] == b["node"] and a["node"] < 255 * 256
    battery = json.load(open(workloads.write_configs(workloads.SYMK, 4, str(tmp_path))["battery"]))
    first = workloads.symk_inputs(battery)
    second = workloads.symk_inputs(battery)
    assert all(np.array_equal(x[0], y[0]) for x, y in zip(first, second))
