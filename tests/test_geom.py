import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ambient_normal, ambient_tangents, embed, full_state_report_quantities, lorentz_inner,
)
from weingarten.geom import (
    ExtrinsicState,
    InvalidGraphError,
    NotSpacelikeError,
    extrinsic_state,
    graph_geometry,
    inverse_metric,
    principal_curvatures,
    state_curvatures,
)
from weingarten.hchart import Grid, PolarChart

SINH2_1 = 1.3810978455418155


def disk(n_rho=32, n_theta=32, rho_max=0.8):
    return Grid(PolarChart(rho_max=rho_max), n_rho, n_theta)


def spacelike_sample(g, seed=0, amp=0.03):
    rng = np.random.default_rng(seed)
    rn = g.rho_col / g.chart.rho_max
    c = rng.normal(size=5)
    bump = (c[0] + c[1] * rn ** 2 + c[2] * np.cosh(g.rho_col)
            + (c[3] * np.cos(g.theta_row) + c[4] * np.sin(2 * g.theta_row)) * rn ** 2)
    return 1.0 + amp * bump + np.zeros(g.shape)


def kernel(u, u_rho, u_theta, sinh_rho, hessian=(0.0, 0.0, 0.0)):
    return graph_geometry(u, u_rho, u_theta, *hessian, sinh_rho)


def metric_and_form(st, g):
    """(g, h) of a state as (rr, rt, tt) triples: the kernel applied to the
    state's chart data."""
    _, metric, form, _, _ = graph_geometry(
        st.u, st.u_rho, st.u_theta, st.H_rr, st.H_rt, st.H_tt, g.sinh_rho)
    return metric, form


class TestLapse:
    def test_values(self):
        s = math.sinh(1.0)
        assert kernel(1.0, 0.0, 0.0, s)[0] == 1.0
        assert kernel(1.0, 0.6, 0.0, s)[0] == pytest.approx(0.8, rel=1e-15)
        # |Du|/u is scale invariant
        assert kernel(2.0, 1.2, 0.0, s)[0] == pytest.approx(0.8, rel=1e-15)
        assert kernel(1.0, 0.0, 0.6 * s, s)[0] == pytest.approx(0.8, rel=1e-15)
        # the kernel is complex-analytic: complex step gives dv/du_rho = -u_rho / (u^2 v)
        v = kernel(1.0, 0.6 + 1e-30j, 0.0, s)[0]
        assert v.imag / 1e-30 == pytest.approx(-0.75, rel=1e-15)

    def test_errors(self):
        # the guard in front of the kernel names the first bad node
        g = disk(8, 8)
        for bad in (-1.0, 0.0, np.nan, np.inf):
            u = np.ones(g.shape)
            u[2, 3] = bad
            with pytest.raises(InvalidGraphError, match="i=2, j=3"):
                extrinsic_state(u, g)


class TestSpacelikeGap:
    def test_constant(self):
        g = disk()
        assert extrinsic_state(np.ones(g.shape), g).spacelike_gap == 0.0

    def test_manufactured_vs_dense_sampling(self):
        # brute-force max of |u'|/u over a fine 1-d sample for u = 1 + 0.05 rho^2
        g = disk(64, 16, rho_max=0.8)
        u = 1 + 0.05 * g.rho_col ** 2 + np.zeros(g.shape)
        rr = np.linspace(1e-4, 0.8, 20001)
        dense = np.max(0.1 * rr / (1 + 0.05 * rr ** 2))
        got = extrinsic_state(u, g).spacelike_gap
        assert got == pytest.approx(dense, rel=1e-2)
        assert got < dense + 1e-6  # grid max cannot exceed the true sup by much

    def test_error_on_nonpositive(self):
        g = disk(8, 8)
        u = np.ones(g.shape)
        u[3, 3] = -0.2
        with pytest.raises(InvalidGraphError):
            extrinsic_state(u, g)


class TestInducedMetric:
    def test_unit_hyperboloid(self):
        _, (g_rr, g_rt, g_tt), *_ = kernel(1.0, 0.0, 0.0, math.sinh(1.0))
        assert g_rr == 1.0 and g_rt == 0.0
        assert g_tt == pytest.approx(SINH2_1, rel=1e-14)
        # ring 0 of this grid sits at rho = 1
        grid = Grid(PolarChart(rho_max=8.0), 4, 4)
        ginv_rr, ginv_rt, ginv_tt = inverse_metric(extrinsic_state(np.ones((4, 4)), grid), grid)
        assert np.all(ginv_rr[0] == 1.0) and np.all(ginv_rt[0] == 0.0)
        assert ginv_tt[0] == pytest.approx(1 / SINH2_1, rel=1e-14)

    def test_scaled_hyperboloid(self):
        R = 1.7
        _, (g_rr, _, g_tt), *_ = kernel(R, 0.0, 0.0, math.sinh(0.6))
        assert g_rr == pytest.approx(R ** 2, rel=1e-15)
        assert g_tt == pytest.approx(R ** 2 * math.sinh(0.6) ** 2, rel=1e-15)

    def test_gradient_example(self):
        _, (g_rr, g_rt, g_tt), *_ = kernel(1.0, 0.5, 0.0, math.sinh(1.0))
        assert g_rr == pytest.approx(0.75, rel=1e-15)
        assert g_rt == 0.0
        assert g_tt == pytest.approx(SINH2_1, rel=1e-14)

    def test_inverse_and_gram_matrix(self):
        # closed-form inverse really inverts g, and g is the ambient Gram matrix
        g = disk(24, 24)
        u = spacelike_sample(g, seed=5)
        st = extrinsic_state(u, g)
        (g_rr, g_rt, g_tt), _ = metric_and_form(st, g)
        ginv_rr, ginv_rt, ginv_tt = inverse_metric(st, g)
        one = g_rr * ginv_rr + g_rt * ginv_rt
        zero = g_rr * ginv_rt + g_rt * ginv_tt
        one2 = g_rt * ginv_rt + g_tt * ginv_tt
        assert np.max(np.abs(one - 1)) < 1e-12
        assert np.max(np.abs(zero)) < 1e-12
        assert np.max(np.abs(one2 - 1)) < 1e-12
        X_r, X_t = ambient_tangents(g.rho_col, g.theta_row, u, st.u_rho, st.u_theta)
        assert np.max(np.abs(lorentz_inner(X_r, X_r) - g_rr)) < 1e-12
        assert np.max(np.abs(lorentz_inner(X_r, X_t) - g_rt)) < 1e-12
        assert np.max(np.abs(lorentz_inner(X_t, X_t) - g_tt)) < 1e-12


class TestNormal:
    def test_unit_normal_orthogonality(self):
        g = disk(24, 24)
        u = spacelike_sample(g, seed=2)
        st = extrinsic_state(u, g)
        nu = ambient_normal(g.rho_col, g.theta_row, u, st.u_rho, st.u_theta, st.v)
        X_r, X_t = ambient_tangents(g.rho_col, g.theta_row, u, st.u_rho, st.u_theta)
        assert np.max(np.abs(lorentz_inner(nu, nu) + 1.0)) < 1e-12
        assert np.max(np.abs(lorentz_inner(nu, X_r))) < 1e-12
        assert np.max(np.abs(lorentz_inner(nu, X_t))) < 1e-12
        assert np.all(nu[2] > 0)  # future-directed


class TestSecondFundamentalForm:
    def test_hyperboloid(self):
        g = disk()
        R = 1.3
        u = np.full(g.shape, R)
        _, (h_rr, h_rt, h_tt) = metric_and_form(extrinsic_state(u, g), g)
        assert np.max(np.abs(h_rr[:-1] - R)) < 1e-12
        assert np.max(np.abs(h_rt)) < 1e-12
        assert np.max(np.abs(h_tt - R * g.sinh_rho ** 2)) < 1e-10

    def test_half_hyperboloid_curvatures(self):
        # u = 0.5 has lam = (2, 2), so the top symmetric function is 4
        g = disk()
        st = extrinsic_state(np.full(g.shape, 0.5), g)
        lam1, lam2 = state_curvatures(st, g)
        assert np.max(np.abs(lam1 - 2.0)) == 0.0
        assert np.max(np.abs(lam2 - 2.0)) == 0.0
        assert np.max(np.abs(st.sigma2 - 4.0)) == 0.0

    def test_ambient_second_derivative_oracle(self):
        # h_ij = -< d_i d_j P, nu > with P the ambient embedding, via central
        # finite differences of P at a handful of nodes
        g = disk(48, 48, rho_max=0.8)
        def u_fn(rho, theta):
            return 1 + 0.05 * rho ** 2 + 0.0 * theta
        u = u_fn(g.rho_col, g.theta_row) + np.zeros(g.shape)
        _, (h_rr, h_rt, h_tt) = metric_and_form(extrinsic_state(u, g), g)
        d = 1e-4  # balances O(d^2) truncation against O(eps/d^2) rounding
        for (i, j) in [(10, 3), (24, 17), (40, 40)]:
            rho, theta = g.rho[i], g.theta[j]
            def P(r, t):
                return embed(r, t, u_fn(r, t))
            P_rr = (P(rho + d, theta) - 2 * P(rho, theta) + P(rho - d, theta)) / d ** 2
            P_tt = (P(rho, theta + d) - 2 * P(rho, theta) + P(rho, theta - d)) / d ** 2
            P_rt = (P(rho + d, theta + d) - P(rho + d, theta - d)
                    - P(rho - d, theta + d) + P(rho - d, theta - d)) / (4 * d * d)
            ur = 0.1 * rho
            v = math.sqrt(1 - ur ** 2 / u_fn(rho, theta) ** 2)
            nu = ambient_normal(rho, theta, u_fn(rho, theta), ur, 0.0, v)
            assert -lorentz_inner(P_rr, nu) == pytest.approx(h_rr[i, j], rel=1e-5, abs=1e-6)
            assert -lorentz_inner(P_rt, nu) == pytest.approx(h_rt[i, j], rel=1e-5, abs=1e-6)
            assert -lorentz_inner(P_tt, nu) == pytest.approx(h_tt[i, j], rel=1e-5, abs=1e-6)


class TestPrincipalCurvatures:
    def test_diagonal_ratio(self):
        lam1, lam2 = principal_curvatures(1.0, 0.0, 3.0, 2.0, 0.0, 2.0)
        assert (lam1, lam2) == (1.5, 0.5)

    def test_hyperboloid_exact(self):
        g = disk()
        lam1, lam2 = state_curvatures(extrinsic_state(np.ones(g.shape), g), g)
        assert np.max(np.abs(lam1 - 1.0)) == 0.0
        assert np.max(np.abs(lam2 - 1.0)) == 0.0

    def test_general_pencil_against_quadratic_formula(self):
        g_rr, g_rt, g_tt = 2.0, 0.3, 1.0
        h_rr, h_rt, h_tt = 1.0, 0.2, 0.5
        a = g_rr * g_tt - g_rt ** 2
        b = -(h_rr * g_tt + h_tt * g_rr - 2 * h_rt * g_rt)
        c = h_rr * h_tt - h_rt ** 2
        roots = np.roots([a, b, c])
        lam1, lam2 = principal_curvatures(h_rr, h_rt, h_tt, g_rr, g_rt, g_tt)
        assert lam1 == pytest.approx(max(roots), rel=1e-13)
        assert lam2 == pytest.approx(min(roots), rel=1e-13)

    def test_not_positive_definite(self):
        with pytest.raises(InvalidGraphError):
            principal_curvatures(1.0, 0.0, 1.0, 1.0, 2.0, 1.0)


class TestSupportAndNorm:
    def test_support_matches_ambient_inner_product(self):
        g = disk(24, 24)
        u = spacelike_sample(g, seed=9)
        st = extrinsic_state(u, g)
        nu = ambient_normal(g.rho_col, g.theta_row, u, st.u_rho, st.u_theta, st.v)
        X = embed(g.rho_col, g.theta_row, u)
        assert np.max(np.abs(-lorentz_inner(X, nu) - st.theta_support)) < 1e-12

    def test_norm_matches_trace_form(self):
        g = disk(24, 24)
        st = extrinsic_state(spacelike_sample(g, seed=4), g)
        lam1, lam2 = state_curvatures(st, g)
        direct = lam1 ** 2 + lam2 ** 2
        assert np.max(np.abs(direct - st.norm_a_sq)) < 1e-9


class TestHyperboloidFamily:
    @given(R=st.floats(min_value=0.2, max_value=5.0))
    @settings(max_examples=25, deadline=None)
    def test_scale_covariance(self, R):
        # u = R has curvature 1/R, support R, norm 2/R^2, traces n/R and 1/R^2.
        # The split eigenvalues of an umbilic pencil carry the usual sqrt(eps)
        # tie-breaking noise; the characteristic traces stay at round-off.
        g = disk(12, 12)
        st = extrinsic_state(np.full(g.shape, R), g)
        tiny = 1e-12 * (1.0 + 1.0 / R)
        lam1, lam2 = state_curvatures(st, g)
        assert np.max(np.abs(lam1 - 1.0 / R)) < 1e-7 / R
        assert np.max(np.abs(lam2 - 1.0 / R)) < 1e-7 / R
        assert np.max(np.abs(st.sigma1 - 2.0 / R)) < tiny
        assert np.max(np.abs(st.sigma2 - 1.0 / R ** 2)) < tiny * (1.0 + 1.0 / R)
        assert np.max(np.abs(st.theta_support - R)) < 1e-13 * R
        assert np.max(np.abs(st.norm_a_sq - 2.0 / R ** 2)) < 10 * tiny * (1.0 + 1.0 / R)


class TestStateGuards:
    def test_not_spacelike_error_carries_node(self):
        g = disk(16, 16)
        u = np.ones(g.shape)
        u[:, :] = 1.0
        u[5, :] = 1.4  # sharp radial jump: |Du| too big
        with pytest.raises(NotSpacelikeError) as exc:
            extrinsic_state(u, g)
        assert exc.value.node is not None

    def test_invalid_graph(self):
        g = disk(8, 8)
        u = np.ones(g.shape)
        u[0, 0] = 0.0
        with pytest.raises(InvalidGraphError):
            extrinsic_state(u, g)


class TestNewtonState:
    def test_holds_what_the_newton_loop_reads(self):
        # the report's principal curvatures, inverse metric and |A|^2 are not
        # built on every Newton start and line-search trial
        assert [f.name for f in dataclasses.fields(ExtrinsicState)] == [
            "u", "u_rho", "u_theta", "H_rr", "H_rt", "H_tt", "v",
            "sigma1", "sigma2", "theta_support", "spacelike_gap"]

    def test_peak_memory(self):
        # at most 18 arrays of the grid at peak (the state that carried the
        # report's quantities took 24)
        g = disk(128, 128)
        u = spacelike_sample(g, seed=3)
        extrinsic_state(u, g)
        tracemalloc.start()
        try:
            extrinsic_state(u, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 18 * u.nbytes


class TestReportQuantities:
    @pytest.mark.parametrize("shape", [(16, 16), (24, 32)])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("field", ["radial", "theta-dependent"])
    def test_match_full_state_oracle(self, shape, k, field):
        g = disk(*shape)
        if field == "radial":
            u = 1 + 0.05 * g.rho_col ** 2 + np.zeros(g.shape)
        else:
            u = spacelike_sample(g, seed=7)
        st = extrinsic_state(u, g)
        want = full_state_report_quantities(u, g)
        got = dict(zip(("lam1", "lam2"), state_curvatures(st, g)))
        got.update(zip(("ginv_rr", "ginv_rt", "ginv_tt"), inverse_metric(st, g)))
        got.update(sigma1=st.sigma1, sigma2=st.sigma2, norm_a_sq=st.norm_a_sq)
        assert got.keys() == want.keys()
        for name in want:
            assert np.array_equal(got[name], want[name]), name
        assert np.array_equal(st.sigma_k(k), want[f"sigma{k}"])
        if field == "theta-dependent":
            assert np.ptp(got["lam1"] - got["lam2"], axis=1).max() > 0.0
