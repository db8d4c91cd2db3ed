"""Acceptance gate: every release criterion at its stated tolerance.

Run `pytest -s tests/test_acceptance.py -v` to see one printed line per
criterion.  The expensive solves (the two exact constant-curvature runs, the
pinned manufactured study and the quartic order-measurement study) are shared
module-scoped fixtures.
"""

import json
import math
import time

import numpy as np
import pytest

from weingarten import cli, estimates, geom, solver, symk
from weingarten.estimates import (
    build_report,
    curvature_ratio,
    gradient_constants,
    interior_profile,
    support_laplace_identity_check,
)
from weingarten.hchart import Grid, PolarChart
from weingarten.problem import PhiSpec, ProblemSpec, PsiSpec, manufactured_problem
from weingarten.solver import (
    barrier_sandwich_check,
    continuation_solve,
    solve_lower_barrier,
    solve_upper_barrier,
    uniqueness_probe,
)

RHO_MAX = 0.8
PINNED_FIELD = "1 + 0.05*rho**2"
ORDER_FIELD = "1 + 0.05*rho**2 + 0.02*rho**4"  # quartic keeps second-order
# stencils honest; the pinned quadratic is reproduced exactly by them


def check(num, desc, ok, detail=""):
    line = f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def constant_problem(grid, k, psi_value, phi_value):
    return ProblemSpec(
        grid=grid,
        k=k,
        psi=PsiSpec("power", p=0.0, h=repr(float(psi_value))),
        phi=PhiSpec("constant", c=phi_value),
    )


@pytest.fixture(scope="module")
def run_sigma1():
    grid = Grid(PolarChart(rho_max=RHO_MAX), 64, 64)
    spec = constant_problem(grid, 1, 2.0, 1.0)
    t0 = time.perf_counter()
    result = continuation_solve(spec)
    wall = time.perf_counter() - t0
    return spec, result, wall


@pytest.fixture(scope="module")
def run_sigma2():
    grid = Grid(PolarChart(rho_max=RHO_MAX), 64, 64)
    spec = constant_problem(grid, 2, 4.0, 0.5)
    t0 = time.perf_counter()
    result = continuation_solve(spec)
    wall = time.perf_counter() - t0
    return spec, result, wall


def _study(u_expr, sizes=(32, 64, 128)):
    rows = []
    for n in sizes:
        grid = Grid(PolarChart(rho_max=RHO_MAX), n, n)
        spec, u_star = manufactured_problem(u_expr, grid, 2)
        result = continuation_solve(spec)
        assert result.converged, f"manufactured solve failed at {n}"
        state = geom.extrinsic_state(result.u, grid)
        profile = interior_profile(state, spec.phi_field(), grid)
        rows.append(
            {
                "n": n,
                "grid": grid,
                "spec": spec,
                "u": result.u,
                "u_star": u_star,
                "result": result,
                "state": state,
                "err": float(np.max(np.abs(result.u - u_star))),
                "gap": state.spacelike_gap,
                "ratio": curvature_ratio(state)["ratio"],
                "sup_eta_lam1": profile["sup_eta_lam1"],
                "identity": support_laplace_identity_check(state, grid)["core"],
            }
        )
    return rows


@pytest.fixture(scope="module")
def pinned_study():
    return _study(PINNED_FIELD)


@pytest.fixture(scope="module")
def order_study():
    return _study(ORDER_FIELD)


CLI_CONFIG = f"""\
[problem]
k = 2
rho_max = {RHO_MAX}
n_rho = 64
n_theta = 64
psi_family = power
psi_p = 0
psi_h = 4
phi_family = constant
phi_c = 0.5

[run]
mode = solve
seed = 0
"""


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance_cli")
    cfg = base / "run.cfg"
    cfg.write_text(CLI_CONFIG)
    outs = []
    for name in ("a", "b"):
        out = base / name
        code = cli.main(["--config", str(cfg), "--out", str(out)])
        assert code == 0
        outs.append(out)
    return outs


def test_criterion_1_exact_mean_curvature(run_sigma1):
    spec, result, wall = run_sigma1
    err = float(np.max(np.abs(result.u - 1.0)))
    ok = (
        result.converged
        and err <= 1e-9
        and result.newton_total <= 6
        and wall < 30.0
    )
    check(1, "exact sigma_1 solution (k=1, psi=2, phi=1 -> u=1 on 64x64)", ok,
          f"max|u-1|={err:.2e}, newton={result.newton_total}, wall={wall:.2f}s")


def test_criterion_2_exact_gauss_curvature(run_sigma2):
    spec, result, wall = run_sigma2
    err = float(np.max(np.abs(result.u - 0.5)))
    ok = (
        result.converged
        and err <= 1e-9
        and result.newton_total <= 6
        and wall < 30.0
    )
    check(2, "exact sigma_2 solution (k=2, psi=4, phi=0.5 -> u=0.5)", ok,
          f"max|u-0.5|={err:.2e}, newton={result.newton_total}, wall={wall:.2f}s")


def test_criterion_3_manufactured_convergence(pinned_study, order_study):
    # the pinned quadratic field is reproduced to round-off (its discrete
    # geometry is exact under second-order stencils), so the O(h^2) recovery
    # bound holds with room to spare; the observed order is measured on the
    # quartic field, where the truncation error is actually present
    pinned_ok = all(
        row["err"] <= 10.0 * row["grid"].d_rho ** 2 for row in pinned_study
    )
    gaps_ok = all(row["gap"] < 0.2 for row in pinned_study + order_study)
    errs = [row["err"] for row in order_study]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    orders_ok = min(orders) >= 1.8
    pinned_errs = ", ".join(f"{row['err']:.1e}" for row in pinned_study)
    check(3, "manufactured-solution study (32^2..128^2)",
          pinned_ok and gaps_ok and orders_ok,
          f"pinned errors [{pinned_errs}], orders {[round(o, 3) for o in orders]}, "
          f"gap<{max(r['gap'] for r in pinned_study + order_study):.3f}")


def test_criterion_4_identity_suite():
    rng = np.random.default_rng(20240811)
    worst = 0.0
    count = 0
    for n in (2, 3, 4, 5, 6):
        lams = rng.uniform(-2.0, 2.0, (2000, n))
        for k in range(n):
            worst = max(worst, float(np.max(symk.identity_residuals(lams, k))))
        count += lams.shape[0]
    ok = worst <= 1e-10
    check(4, "sigma_k identity suite (10^4 random vectors, n=2..6, all k)", ok,
          f"{count} vectors, worst relative residual {worst:.2e}")


def test_criterion_5_second_derivative_form():
    rng = np.random.default_rng(7)
    worst_rel = 0.0
    worst_dq = -np.inf
    done = 0
    while done < 100:
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n + 1))
        lam = np.sort(rng.uniform(0.2, 2.0, n))[::-1]
        if n > 1 and np.min(np.abs(np.diff(lam))) < 0.05:
            continue
        eta = rng.normal(size=(n, n))
        eta = 0.5 * (eta + eta.T)
        got = symk.quadratic_form(lam, k, eta)
        s = 1e-4
        A0 = np.diag(lam)

        def F_of(A):
            ev = np.linalg.eigvalsh(A)
            e = symk.sigma_all(ev)
            return float(e[k]) ** (1.0 / k)

        want = (F_of(A0 + s * eta) - 2 * F_of(A0) + F_of(A0 - s * eta)) / s ** 2
        worst_rel = max(worst_rel, abs(got - want) / max(1.0, abs(want)))
        _, dq = symk.quadratic_form_terms(lam, k, eta)
        worst_dq = max(worst_dq, dq)
        done += 1
    ok = worst_rel <= 1e-5 and worst_dq <= 1e-12
    check(5, "matrix second-derivative form vs finite differences (100 pairs)",
          ok, f"worst rel err {worst_rel:.2e}, max quotient term {worst_dq:.2e}")


def test_criterion_6_barrier_sandwich(run_sigma1, run_sigma2, pinned_study, order_study):
    tight_ok = True
    details = []
    for spec, result, _ in (run_sigma1, run_sigma2):
        state = geom.extrinsic_state(result.u, spec.grid)
        s_plus, _ = solve_upper_barrier(spec, state)
        s_minus, _ = solve_lower_barrier(spec, state)
        gap_up = float(np.max(np.abs(s_plus - result.u)))
        gap_lo = float(np.max(np.abs(s_minus - result.u)))
        tight_ok &= gap_up <= 1e-8 and gap_lo <= 1e-8
        details.append(f"tight {gap_up:.1e}/{gap_lo:.1e}")
    man_ok = True
    for row in (pinned_study[1], order_study[1]):  # the 64^2 runs
        spec, u, grid = row["spec"], row["u"], row["grid"]
        state = geom.extrinsic_state(u, grid)
        s_plus, _ = solve_upper_barrier(spec, state)
        s_minus, _ = solve_lower_barrier(spec, state)
        report = barrier_sandwich_check(u, s_minus, s_plus, grid)
        man_ok &= report.passed
        details.append(f"margins {report.min_upper_margin:.1e}/{report.min_lower_margin:.1e}")
    check(6, "barrier sandwich (tight on exact runs, within 10h^2 manufactured)",
          tight_ok and man_ok, "; ".join(details))


def test_criterion_7_gradient_bound(run_sigma1, run_sigma2, pinned_study, order_study):
    s1_ref, _ = gradient_constants(2, 0.5, 0.0, 1.0, 1)
    const_ok = abs(s1_ref - (9 + math.sqrt(97)) / 2) <= 1e-10
    bound_ok = True
    for spec, result, _ in (run_sigma1, run_sigma2):
        rep = build_report(geom.extrinsic_state(result.u, spec.grid), spec)
        bound_ok &= rep.gradient_bound_passed
    for row in (pinned_study[1], order_study[1]):
        rep = build_report(geom.extrinsic_state(row["u"], row["grid"]), row["spec"])
        bound_ok &= rep.gradient_bound_passed
    check(7, "lapse bound sup W <= (sup_b W) exp(S2(2 sup|phi| + diam))",
          const_ok and bound_ok,
          f"S1(rho=0.5)={s1_ref!r}")


def test_criterion_8_admissibility_and_newton_inequality(
    run_sigma1, run_sigma2, pinned_study, order_study
):
    # at n = 2 the Newton inequality (sigma1/2)^2 >= sigma2 is the identity
    # (sigma1/2)^2 - sigma2 = (lam1 - lam2)^2 / 4, checked here to round-off
    ok = True
    worst = 0.0
    cases = [(spec, res.u) for spec, res, _ in (run_sigma1, run_sigma2)]
    cases += [(row["spec"], row["u"]) for row in pinned_study + order_study]
    for spec, u in cases:
        grid = spec.grid
        state = geom.extrinsic_state(u, grid)
        interior = grid.interior_mask
        ok &= bool(np.all(state.admissible_mask(spec.k)[interior]))
        slack = (state.sigma1 / 2.0) ** 2 - state.sigma2
        lam1, lam2 = geom.state_curvatures(state, grid)
        gap = (lam1 - lam2) ** 2 / 4.0
        scale = max(1.0, float(np.max(state.sigma1)) ** 2)
        defect = float(np.max(np.abs(slack - gap)[interior])) / scale
        ok &= defect <= 1e-14
        worst = max(worst, defect)
    check(8, "interior cone admissibility and the n = 2 Newton identity",
          ok, f"max relative identity defect {worst:.2e}")


def test_criterion_9_curvature_ratio_stability(pinned_study):
    ratios = [row["ratio"] for row in pinned_study]
    weighted = [row["sup_eta_lam1"] for row in pinned_study]
    spread_r = (max(ratios) - min(ratios)) / max(ratios)
    spread_w = (max(weighted) - min(weighted)) / max(weighted)
    ok = spread_r < 0.2 and spread_w < 0.2
    check(9, "curvature ratio and weighted interior profile stable under refinement",
          ok, f"ratio spread {spread_r:.3%}, eta*lam1 spread {spread_w:.3%}")


def test_criterion_10_support_identity(run_sigma1, run_sigma2, order_study, cli_runs):
    exact_ok = True
    for spec, result, _ in (run_sigma1, run_sigma2):
        state = geom.extrinsic_state(result.u, spec.grid)
        out = support_laplace_identity_check(state, spec.grid)
        exact_ok &= out["core"] <= 1e-12 and out["near_boundary"] <= 1e-12
    vals = [row["identity"] for row in order_study]
    orders = [math.log2(vals[i] / vals[i + 1]) for i in range(len(vals) - 1)]
    decay_ok = min(orders) >= 1.8
    report = json.loads((cli_runs[0] / "report.json").read_text())
    note = report["estimates"]["notes"]["support_identity_form"]
    note_ok = "sign" in note and "<X,nu>_L" in note
    check(10, "support-quantity Laplace identity (exact on constants, O(h^2) decay)",
          exact_ok and decay_ok and note_ok,
          f"identity orders {[round(o, 3) for o in orders]}, sign note recorded")


def test_criterion_11_determinism_and_uniqueness(cli_runs, run_sigma2):
    same = all(
        (cli_runs[0] / name).read_bytes() == (cli_runs[1] / name).read_bytes()
        for name in ("fields.csv", "report.json")
    )
    spec, _, _ = run_sigma2
    probe = uniqueness_probe(spec, n_starts=5, seed=0)
    probe_ok = probe.all_converged and probe.max_pairwise_distance <= 1e-8
    check(11, "byte-identical reruns and seeded uniqueness probe",
          same and probe_ok,
          f"max pairwise distance {probe.max_pairwise_distance:.2e}")
