import json
import math

import numpy as np
import pytest

from weingarten import geom
from weingarten.estimates import (
    build_report,
    curvature_ratio,
    gradient_constants,
    gradient_estimate_check,
    interior_profile,
    support_laplace_identity_check,
)
from weingarten.hchart import Grid, PolarChart
from weingarten.problem import PhiSpec, ProblemSpec, PsiSpec, manufactured_problem
from weingarten.solver import continuation_solve


def disk(n_rho=32, n_theta=32, rho_max=0.8):
    return Grid(PolarChart(rho_max=rho_max), n_rho, n_theta)


class TestGradientConstants:
    def test_reference_values(self):
        s1, s2 = gradient_constants(2, 0.5, 0.0, 1.0, 1)
        assert s1 == pytest.approx((9 + math.sqrt(97)) / 2, abs=1e-12)
        assert s2 == pytest.approx(1.01 * (9 + math.sqrt(97)) / 2, abs=1e-12)
        s1_zero, _ = gradient_constants(2, 0.0, 0.0, 1.0, 1)
        assert s1_zero == pytest.approx((7 + math.sqrt(61)) / 2, abs=1e-12)

    def test_psi_gradient_branch(self):
        _, s2 = gradient_constants(2, 0.5, 20.0, 1.0, 1)
        assert s2 == pytest.approx(20.2, abs=1e-12)

    def test_defining_inequality(self):
        # S1 is the root of S(S-1)/(2S+1) = (n+1)/(1-rho^2)
        for rho in (0.0, 0.3, 0.5, 0.9):
            s1, _ = gradient_constants(2, rho, 0.0, 1.0, 2)
            c = 3.0 / (1 - rho ** 2)
            assert s1 * (s1 - 1) / (2 * s1 + 1) == pytest.approx(c, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            gradient_constants(2, 1.0, 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            gradient_constants(2, 0.5, 0.0, 0.0, 1)


class TestGradientEstimate:
    def test_constant_solutions_pass(self):
        g = disk()
        for c in (1.0, 0.5):
            st = geom.extrinsic_state(np.full(g.shape, c), g)
            phi = np.full(g.shape, c)
            out = gradient_estimate_check(st, phi, g, s2=9.52)
            assert out["sup_w"] == 1.0
            assert out["passed"]
            # bound = exp(S2 (2 sup|phi| + diam)) here
            want = math.exp(9.52 * (2 * c + 1.6))
            assert out["bound"] == pytest.approx(want, rel=1e-12)


class TestCurvatureRatio:
    def test_unit_hyperboloid(self):
        g = disk()
        st = geom.extrinsic_state(np.ones(g.shape), g)
        out = curvature_ratio(st)
        assert out["ratio"] == pytest.approx(math.sqrt(2) / (1 + math.sqrt(2)), abs=1e-12)

    def test_half_hyperboloid(self):
        g = disk()
        st = geom.extrinsic_state(np.full(g.shape, 0.5), g)
        want = 2 * math.sqrt(2) / (1 + 2 * math.sqrt(2))
        assert curvature_ratio(st)["ratio"] == pytest.approx(want, abs=1e-12)


class TestInteriorProfile:
    def test_degenerate_constant_case(self):
        g = disk()
        st = geom.extrinsic_state(np.full(g.shape, 0.5), g)
        prof = interior_profile(st, np.full(g.shape, 0.5), g)
        assert prof["degenerate"]
        assert not prof["violation"]

    def test_hyperplane_solution_profile(self):
        g = disk(48, 48)
        spec = ProblemSpec(
            grid=g, k=2,
            psi=PsiSpec("power", p=2.0, h="1"),
            phi=PhiSpec("hyperplane", c=0.6),
        )
        res = continuation_solve(spec)
        assert res.converged
        st = geom.extrinsic_state(res.u, g)
        prof = interior_profile(st, spec.phi_field(), g)
        assert not prof["violation"]
        assert prof["eta_min"] > 0  # graph hangs strictly below the plane inside
        assert np.isfinite(prof["sup_eta_lam1"])
        assert len(prof["bands"]) == 5
        # weighted curvature grows toward the domain core in this geometry
        sup_vals = [row["sup_eta_lam1"] for row in prof["bands"]]
        assert sup_vals == sorted(sup_vals)

    def test_violation_flagged(self):
        g = disk()
        st = geom.extrinsic_state(np.full(g.shape, 0.5), g)
        phi_low = np.full(g.shape, 0.4)  # phi below u: eta strongly negative
        prof = interior_profile(st, phi_low, g)
        assert prof["violation"]


class TestSupportIdentity:
    def test_exact_on_constant_graphs(self):
        for R in (1.0, 0.5):
            g = disk()
            st = geom.extrinsic_state(np.full(g.shape, R), g)
            out = support_laplace_identity_check(st, g)
            assert out["core"] <= 1e-12
            assert out["near_boundary"] <= 1e-12

    def test_second_order_decay_on_manufactured_solution(self):
        vals = []
        for n in (16, 32):
            g = disk(n, n)
            mspec, _ = manufactured_problem("1 + 0.05*rho**2 + 0.02*rho**4", g, 2)
            res = continuation_solve(mspec)
            st = geom.extrinsic_state(res.u, g)
            vals.append(support_laplace_identity_check(st, g)["core"])
        assert vals[0] / vals[1] > 3.0


class TestReport:
    def test_build_report_serialisable(self):
        g = disk()
        spec = ProblemSpec(
            grid=g, k=1,
            psi=PsiSpec("power", p=0.0, h="2"),
            phi=PhiSpec("constant", c=1.0),
        )
        res = continuation_solve(spec)
        rep = build_report(geom.extrinsic_state(res.u, g), spec)
        assert rep.spacelike_gap == 0.0
        assert rep.gradient_bound_passed
        assert rep.support_identity_residual <= 1e-12
        assert rep.curvature_ratio == pytest.approx(
            math.sqrt(2) / (1 + math.sqrt(2)), abs=1e-12
        )
        blob = json.dumps(rep.to_dict(), sort_keys=True)
        assert "support_identity_form" in blob
