import math

import numpy as np
import pytest

from weingarten import hchart
from weingarten.hchart import (
    ChartDomainError,
    Grid,
    PolarChart,
    covariant_gradient,
    covariant_hessian,
    geodesic_diameter,
)
from oracles import derivative_matrices, laplace_beltrami

# independently evaluated reference constants
SINH2_1 = 1.3810978455418155      # sinh(1)^2
SINH2_HALF = 0.2715403174076219   # sinh(0.5)^2
GAMMA_RTT_1 = -1.8134302039235093  # -sinh(1) cosh(1)
COTH_1 = 1.3130352854993312


def disk(n_rho=32, n_theta=32, rho_max=0.8):
    return Grid(PolarChart(rho_max=rho_max), n_rho, n_theta)


def ring0(rho):
    """A grid whose innermost ring sits at radius ``rho``."""
    return Grid(PolarChart(rho_max=8 * rho), 4, 4)


class TestPolarChart:
    # the chart's metric sinh(rho)^2 and Christoffel symbols are evaluated
    # analytically at the grid's nodes
    def test_metric_values(self):
        assert ring0(1.0).sinh_rho[0, 0] ** 2 == pytest.approx(SINH2_1, rel=1e-14)
        assert ring0(0.5).sinh_rho[0, 0] ** 2 == pytest.approx(SINH2_HALF, rel=1e-14)

    def test_metric_small_rho_expansion(self):
        rho = 1e-4
        assert ring0(rho).sinh_rho[0, 0] ** 2 == pytest.approx(rho ** 2, rel=1e-7)

    def test_metric_positive_definite_on_range(self):
        g = Grid(PolarChart(rho_max=3.0), 50, 4)
        assert np.all(g.sinh_rho > 0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_metric_domain_errors(self, bad):
        with pytest.raises(ChartDomainError):
            PolarChart(rho_max=bad)

    def test_christoffels(self):
        g = ring0(1.0)
        assert -g.sinh_rho[0, 0] * g.cosh_rho[0, 0] == pytest.approx(GAMMA_RTT_1, rel=1e-14)
        assert g.coth_rho[0, 0] == pytest.approx(COTH_1, rel=1e-14)
        # coth tends to 1 far out
        assert ring0(40.0).coth_rho[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_chart_validation(self):
        # the radius is the chart's only parameter
        assert PolarChart(0.8) == PolarChart(rho_max=0.8)
        assert PolarChart().rho_max == 1.0


class TestGrid:
    def test_layout(self):
        g = disk(8, 10, rho_max=0.8)
        assert g.d_rho == pytest.approx(0.1)
        assert g.rho[0] == pytest.approx(0.05)
        assert g.rho[-1] == pytest.approx(0.75)
        assert g.theta[0] == 0.0
        assert g.interior_mask.sum() == 7 * 10
        assert g.pole_shift == 5

    def test_validation(self):
        chart = PolarChart(rho_max=1.0)
        with pytest.raises(ValueError):
            Grid(chart, 3, 8)
        with pytest.raises(ValueError):
            Grid(chart, 8, 7)  # odd theta count breaks across-pole ghosting

    def test_geodesic_diameter(self):
        assert geodesic_diameter(disk(8, 8, 0.8)) == pytest.approx(1.6)
        assert geodesic_diameter(disk(8, 8, 1.0)) == pytest.approx(2.0)
        assert geodesic_diameter(disk(8, 8, 0.4)) == pytest.approx(0.8)


def nearest_node(g, rho, theta):
    i = int(np.argmin(np.abs(g.rho - rho)))
    j = int(np.argmin(np.abs(g.theta - theta)))
    return i, j


class TestCovariantCalculus:
    def test_constant_field(self):
        # centred stencils cancel constants exactly; the one-sided boundary
        # ring only does so up to rounding of 3c - 4c + c
        g = disk()
        u = np.full(g.shape, 3.7)
        u_r, u_t, grad_sq = covariant_gradient(u, g)
        assert np.all(u_r[:-1] == 0) and np.all(u_t == 0) and np.all(grad_sq[:-1] == 0)
        assert np.max(np.abs(u_r[-1])) < 1e-12
        H = covariant_hessian(u, u_r, u_t, g)
        assert all(np.all(h[:-1] == 0) for h in H)
        lap = laplace_beltrami(u, g)
        assert np.all(lap[:-1] == 0)
        assert np.max(np.abs(lap[-1])) < 1e-9

    def test_radial_square_field(self):
        g = disk(64, 32, rho_max=1.2)
        u = g.rho_col ** 2 + np.zeros(g.shape)
        i, j = nearest_node(g, 1.0, 0.0)
        rho = g.rho[i]
        u_r, u_t, grad_sq = covariant_gradient(u, g)
        assert u_r[i, j] == pytest.approx(2 * rho, abs=1e-10)  # exact for quadratics
        assert grad_sq[i, j] == pytest.approx(4 * rho ** 2, abs=1e-9)
        H_rr, H_rt, H_tt = covariant_hessian(u, u_r, u_t, g)
        assert H_rr[i, j] == pytest.approx(2.0, abs=1e-9)
        assert H_rt[i, j] == pytest.approx(0.0, abs=1e-9)
        # H_tt = sinh cosh * 2 rho
        assert H_tt[i, j] == pytest.approx(2 * rho * math.sinh(rho) * math.cosh(rho), rel=1e-12)
        lap = laplace_beltrami(u, g)
        assert lap[i, j] == pytest.approx(2 + 2 * rho * math.cosh(rho) / math.sinh(rho), rel=1e-12)

    def test_angular_field(self):
        g = disk(48, 256, rho_max=1.2)
        u = np.cos(g.theta_row) + np.zeros(g.shape)
        i, j = nearest_node(g, 1.0, 1.0)
        theta = g.theta[j]
        rho = g.rho[i]
        _, u_t, grad_sq = covariant_gradient(u, g)
        assert u_t[i, j] == pytest.approx(-math.sin(theta), abs=2e-4)
        assert grad_sq[i, j] == pytest.approx(math.sin(theta) ** 2 / math.sinh(rho) ** 2, rel=1e-3)
        _, H_rt, _ = covariant_hessian(u, *covariant_gradient(u, g)[:2], g)
        coth = math.cosh(rho) / math.sinh(rho)
        assert H_rt[i, j] == pytest.approx(coth * math.sin(theta), rel=1e-3)

    def test_hyperbolic_cosine_laplacian(self):
        # Lap cosh(rho) = 2 cosh(rho)
        g = disk(256, 16, rho_max=1.2)
        u = np.cosh(g.rho_col) + np.zeros(g.shape)
        i, j = nearest_node(g, 1.0, 0.0)
        lap = laplace_beltrami(u, g)
        assert lap[i, j] == pytest.approx(2 * math.cosh(g.rho[i]), rel=1e-5)

    def test_trace_identity(self):
        g = disk(24, 24)
        rng = np.random.default_rng(7)
        u = 1.0 + 0.1 * rng.standard_normal(g.shape)
        H_rr, _, H_tt = covariant_hessian(u, *covariant_gradient(u, g)[:2], g)
        lap = laplace_beltrami(u, g)
        assert np.max(np.abs(H_rr + H_tt / g.sinh_rho ** 2 - lap)) < 1e-14

    def test_mixed_partials_commute(self):
        g = disk(24, 24)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(g.shape)
        a = hchart.partial_theta(hchart.partial_rho(u, g), g)
        b = hchart.partial_rho(hchart.partial_theta(u, g), g)
        assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(a)))


def smooth_test_field(g):
    # ambient-polynomial combination: smooth across the pole, not grid-exact
    r, t = g.rho_col, g.theta_row
    u = 1.5 + 0.1 * np.cosh(2 * r) + 0.05 * np.sinh(r) ** 2 * np.cos(2 * t)
    return u + np.zeros(g.shape)


def smooth_field_hessian(g):
    r = g.rho_col + np.zeros(g.shape)
    t = g.theta_row + np.zeros(g.shape)
    s, c = np.sinh(r), np.cosh(r)
    H_rr = 0.4 * np.cosh(2 * r) + 0.1 * np.cosh(2 * r) * np.cos(2 * t)
    H_rt = -0.05 * np.sinh(2 * r) * np.sin(2 * t)
    H_tt = (-0.2 * s ** 2 * np.cos(2 * t)
            + s * c * (0.2 * np.sinh(2 * r) + 0.05 * np.sinh(2 * r) * np.cos(2 * t)))
    return H_rr, H_rt, H_tt


class TestConvergence:
    def test_hessian_second_order(self):
        # refining the grid must cut the max-norm error by at least 3.5x
        errs = []
        for n in (24, 48):
            g = disk(n, n, rho_max=1.0)
            u = smooth_test_field(g)
            H = covariant_hessian(u, *covariant_gradient(u, g)[:2], g)
            He = smooth_field_hessian(g)
            errs.append(max(np.max(np.abs(a - b)) for a, b in zip(H, He)))
        assert errs[0] / errs[1] >= 3.5

    def test_stencil_matrices_match_functions(self):
        g = disk(20, 24)
        mats = derivative_matrices(g)
        rng = np.random.default_rng(11)
        u = rng.standard_normal(g.shape)
        pairs = [
            (mats.d_rho, hchart.partial_rho(u, g)),
            (mats.d_theta, hchart.partial_theta(u, g)),
            (mats.d_rho2, hchart.partial_rho2(u, g)),
            (mats.d_theta2, hchart.partial_theta2(u, g)),
        ]
        H_rr, H_rt, H_tt = covariant_hessian(u, *covariant_gradient(u, g)[:2], g)
        pairs += [(mats.hess_rt, H_rt), (mats.hess_tt, H_tt)]
        for mat, ref in pairs:
            got = (mat @ u.ravel()).reshape(g.shape)
            assert np.max(np.abs(got - ref)) < 1e-11 * max(1.0, np.max(np.abs(ref)))


class TestShiftsBySlicing:
    @pytest.mark.parametrize("shape", [(4, 4), (5, 4), (6, 6), (9, 8), (20, 24)])
    def test_equal_the_roll_forms(self, shape):
        # the theta shifts and the pole ghost are slices joined by concatenate;
        # the stencils must equal their np.roll forms bit for bit
        g = Grid(PolarChart(rho_max=0.8), *shape)
        U = np.random.default_rng(3).standard_normal(shape)
        up, down = np.roll(U, -1, axis=1), np.roll(U, 1, axis=1)
        assert np.array_equal(hchart._pole_ghost(U, g), np.roll(U[0], shape[1] // 2))
        assert np.array_equal(hchart.partial_theta(U, g), (up - down) / (2.0 * g.d_theta))
        assert np.array_equal(hchart.partial_theta2(U, g),
                              (up - 2.0 * U + down) / g.d_theta ** 2)
