import math
import tracemalloc

import numpy as np
import pytest

from oracles import full_state_sigma_k_table
from weingarten.geom import InvalidGraphError, NotSpacelikeError
from weingarten.hchart import Grid, PolarChart
from weingarten.problem import (
    ExpressionError,
    Expr,
    PhiSpec,
    ProblemSpec,
    PsiSpec,
    manufactured_problem,
    spline_rows,
    tabulate_sigma_k,
)


def disk(n_rho=32, n_theta=32, rho_max=0.8):
    return Grid(PolarChart(rho_max=rho_max), n_rho, n_theta)


class TestExpr:
    def test_basic_evaluation(self):
        e = Expr("1 + 0.05*rho**2")
        assert e(rho=2.0) == pytest.approx(1.2)
        assert not e.is_constant

    def test_all_variables(self):
        e = Expr("u**2 * cos(theta) + rho")
        assert e(rho=1.0, theta=0.0, u=2.0) == pytest.approx(5.0)

    def test_vectorised(self):
        e = Expr("sin(theta) * rho")
        r = np.array([1.0, 2.0])
        t = np.array([0.0, math.pi / 2])
        assert np.allclose(e(rho=r, theta=t), [0.0, 2.0])

    def test_constant_detection(self):
        assert Expr("2").is_constant
        assert Expr("3 * 4 + 1").is_constant
        assert not Expr("rho").is_constant

    @pytest.mark.parametrize(
        "bad",
        [
            "__import__('os')",
            "x + 1",
            "exp(rho)",
            "rho; theta",
            "lambda: 1",
            "u.real",
            "[1,2]",
        ],
    )
    def test_rejects_out_of_grammar(self, bad):
        with pytest.raises(ExpressionError):
            Expr(bad)

    def test_restricted_variables(self):
        with pytest.raises(ExpressionError):
            Expr("u + 1", variables=("rho", "theta"))


class TestPsiSpec:
    def test_power_family(self):
        psi = PsiSpec(family="power", p=2.0, h="1")
        assert psi.evaluate(rho=0.0, theta=0.0, u=1.0, support=1.25) == pytest.approx(1.5625)

    def test_exponential_family(self):
        psi = PsiSpec(family="exponential", p=1.0, h="0.5")
        assert psi.evaluate(rho=0.0, theta=0.0, u=1.0, support=1.0) == pytest.approx(0.5 * math.e)

    def test_constant_detection(self):
        assert PsiSpec(family="power", p=0.0, h="2").is_constant
        assert not PsiSpec(family="power", p=1.0, h="2").is_constant
        assert not PsiSpec(family="power", p=0.0, h="2 + rho").is_constant
        g = disk(8, 8)
        assert PsiSpec(family="tabulated", table=np.full(g.shape, 3.0)).is_constant

    def test_positivity_enforced(self):
        psi = PsiSpec(family="power", p=0.0, h="rho - 10")
        with pytest.raises(ValueError):
            psi.evaluate(rho=0.5, theta=0.0, u=np.ones(3), support=np.ones(3))
        with pytest.raises(ValueError):
            PsiSpec(family="tabulated", table=np.array([[1.0, -1.0]]))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            PsiSpec(family="fancy")


class TestPhiSpec:
    def test_constant(self):
        phi = PhiSpec(family="constant", c=0.5)
        assert np.all(phi.values(np.linspace(0.1, 0.8, 5)) == 0.5)

    def test_hyperplane_is_spacelike(self):
        # |D phi| / phi = tanh(rho) < 1 for the hyperplane slice
        phi = PhiSpec(family="hyperplane", c=0.6)
        rho = np.linspace(1e-3, 3.0, 200)
        vals = phi.values(rho)
        d = 1e-6
        grad = (phi.values(rho + d) - phi.values(rho - d)) / (2 * d)
        assert np.all(np.abs(grad) / vals < 1.0)
        assert np.max(np.abs(np.abs(grad) / vals - np.tanh(rho))) < 1e-8

    def test_validation(self):
        with pytest.raises(ValueError):
            PhiSpec(family="constant", c=0.0)
        with pytest.raises(ValueError):
            PhiSpec(family="slanted", c=1.0)


class TestProblemSpec:
    def test_k_range(self):
        g = disk(8, 8)
        psi = PsiSpec(family="power", p=0.0, h="2")
        phi = PhiSpec(family="constant", c=1.0)
        with pytest.raises(ValueError):
            ProblemSpec(grid=g, k=3, psi=psi, phi=phi)
        spec = ProblemSpec(grid=g, k=1, psi=psi, phi=phi)
        assert spec.n == 2

    def test_phi_field_extension(self):
        g = disk(8, 8)
        spec = ProblemSpec(
            grid=g, k=1,
            psi=PsiSpec(family="power", p=0.0, h="2"),
            phi=PhiSpec(family="hyperplane", c=0.6),
        )
        f = spec.phi_field()
        assert f.shape == g.shape
        assert np.allclose(f[:, 0], 0.6 / np.cosh(g.rho))

    @pytest.mark.parametrize("family", ["constant", "hyperplane"])
    @pytest.mark.parametrize("shape, rho_max", [((8, 8), 0.8), ((24, 16), 3.2), ((7, 12), 250.0)])
    def test_boundary_values_are_the_outer_row(self, family, shape, rho_max):
        spec = ProblemSpec(
            grid=disk(*shape, rho_max=rho_max), k=1,
            psi=PsiSpec(family="power", p=0.0, h="2"),
            phi=PhiSpec(family=family, c=0.6),
        )
        row = spec.boundary_values()
        assert row.shape == (shape[1],)
        assert np.array_equal(row, spec.phi_field()[-1])


class TestTabulation:
    def test_constant_graph_table(self):
        # sigma_2 of u = 0.5 is 4 everywhere; the spline restriction is exact
        g = disk(16, 16)
        table = tabulate_sigma_k(lambda r, t: 0.5 + 0.0 * (r + t), g, 2)
        assert np.max(np.abs(table - 4.0)) < 1e-10

    def test_quadratic_graph_table_matches_continuum(self):
        # independent high-precision continuum values of sigma_2[1+0.05 rho^2]
        import mpmath as mp

        mp.mp.dps = 30

        def u_mp(r):
            return 1 + mp.mpf("0.05") * r ** 2

        def sigma2_mp(r):
            uu = u_mp(r)
            ur = mp.diff(u_mp, r)
            urr = mp.diff(u_mp, r, 2)
            s, c = mp.sinh(r), mp.cosh(r)
            v = mp.sqrt(1 - ur ** 2 / uu ** 2)
            h_rr = (urr + uu - 2 * ur ** 2 / uu) / v
            h_tt = (s * c * ur + uu * s ** 2) / v
            return (h_rr / (uu ** 2 - ur ** 2)) * (h_tt / (uu ** 2 * s ** 2))

        g = disk(16, 8)
        table = tabulate_sigma_k(lambda r, t: 1 + 0.05 * r ** 2 + 0.0 * t, g, 2)
        for i in (0, 5, 10, 15):
            want = float(sigma2_mp(mp.mpf(float(g.rho[i]))))
            assert table[i, 0] == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("refine", [1, 2, 4])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("shape", [(8, 8), (12, 16)])
    @pytest.mark.parametrize("u_fn", [
        lambda r, t: 1 + 0.05 * r ** 2 + 0.02 * r ** 4 + 0.0 * t,
        lambda r, t: 1 + 0.05 * r ** 2 + 0.03 * r * np.cos(t) + 0.02 * r ** 2 * np.sin(2 * t),
    ], ids=["radial", "theta"])
    def test_matches_full_state_oracle(self, u_fn, shape, k, refine):
        # sigma_k on the kept theta lines only is the full fine state's, bit for bit
        g = disk(*shape)
        want = full_state_sigma_k_table(u_fn, g, k, refine=refine)
        assert np.array_equal(tabulate_sigma_k(u_fn, g, k, refine=refine), want)

    def test_manufactured_peak_memory(self):
        # the fine grid's chart data, not a full state of it: at most 12 arrays
        # of the 4x grid at peak (the full state took 25)
        g = disk(64, 64)
        u_star = "1 + 0.05*rho**2 + 0.02*rho**4"
        manufactured_problem(u_star, g, 2)
        tracemalloc.start()
        try:
            manufactured_problem(u_star, g, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * (4 * 64) ** 2 * 8

    def test_fine_grid_guards(self):
        # every guard runs on every node of the 4x grid, with the state's messages
        g = disk(16, 16)
        with pytest.raises(NotSpacelikeError) as exc:
            manufactured_problem("1 + 2*rho**2", g, 2)
        assert str(exc.value) == ("graph not spacelike at node (i=56, j=0, rho=0.70625, "
                                  "theta=0): |Du|/u = 1.41421")
        assert exc.value.node == 56 * 64
        with pytest.raises(InvalidGraphError) as exc:
            manufactured_problem("0.5 - rho**2", g, 2)
        assert str(exc.value) == ("graph function not finite and positive at node (i=57, "
                                  "j=0, rho=0.71875, theta=0): u = -0.0166015625")

    def test_manufactured_problem_wiring(self):
        g = disk(16, 16)
        spec, u_star = manufactured_problem("1 + 0.05*rho**2", g, 2)
        assert spec.k == 2
        assert spec.psi.family == "tabulated"
        assert spec.phi.family == "constant"
        assert spec.phi.c == pytest.approx(1 + 0.05 * g.rho[-1] ** 2)
        assert u_star.shape == g.shape

    def test_manufactured_requires_radial(self):
        g = disk(16, 16)
        with pytest.raises(ValueError, match="radial"):
            manufactured_problem("1 + 0.05*rho**2 + 0.01*cos(theta)", g, 2)


class TestSplineRows:
    # scipy's CubicSpline, not-a-knot by default, is the reference
    @pytest.mark.parametrize("n", [4, 5, 6, 20, 1024])
    def test_matches_cubic_spline(self, n):
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(n)
        x0, h = -0.7, 2.4 / n
        nodes = x0 + h * np.arange(n)
        y = rng.normal(size=(n, 3))
        # inside, on the nodes, and up to one spacing past either end
        x = np.concatenate((rng.uniform(x0 - h, nodes[-1] + h, 200), nodes,
                            [x0 - h, nodes[-1] + h]))
        ref = CubicSpline(nodes, y, axis=0)(x)
        got = spline_rows(y, x0, h, x)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [4, 5, 20])
    @pytest.mark.parametrize("c", [0.5, 4.0, 1.0 / 3.0, -2.7])
    def test_constant_rows_are_exact(self, n, c):
        x = np.linspace(-0.5, 0.1 * n + 0.5, 37)
        assert np.array_equal(spline_rows(np.full((n, 5), c), 0.0, 0.1, x), np.full((37, 5), c))

    def test_needs_four_nodes(self):
        with pytest.raises(ValueError, match="at least 4 nodes"):
            spline_rows(np.ones((3, 2)), 0.0, 1.0, np.array([0.5]))
