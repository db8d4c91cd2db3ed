import math

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

import oracles
from oracles import laplace_beltrami, laplace_system, matrix_from_columns
from weingarten import geom, solver
from weingarten.geom import extrinsic_state
from weingarten.hchart import Grid, PolarChart
from weingarten.problem import PhiSpec, ProblemSpec, PsiSpec, manufactured_problem
from weingarten.solver import (
    assemble_jacobian,
    assemble_residual,
    barrier_sandwich_check,
    build_initial_guess,
    constant_guess,
    continuation_solve,
    damped_newton,
    harmonic_extension,
    solve_lower_barrier,
    solve_upper_barrier,
    uniqueness_probe,
)


def disk(n_rho=24, n_theta=24, rho_max=0.8):
    return Grid(PolarChart(rho_max=rho_max), n_rho, n_theta)


def mean_curvature_problem(g, psi="2", c=1.0):
    return ProblemSpec(grid=g, k=1, psi=PsiSpec("power", p=0.0, h=psi),
                       phi=PhiSpec("constant", c=c))


def gauss_curvature_problem(g, psi="4", c=0.5):
    return ProblemSpec(grid=g, k=2, psi=PsiSpec("power", p=0.0, h=psi),
                       phi=PhiSpec("constant", c=c))


class TestResidual:
    def test_exact_mean_curvature_solution(self):
        g = disk()
        u = np.ones(g.shape)
        R = assemble_residual(extrinsic_state(u, g), mean_curvature_problem(g))
        assert np.max(np.abs(R)) == 0.0

    def test_exact_gauss_curvature_solution(self):
        g = disk()
        u = np.full(g.shape, 0.5)
        R = assemble_residual(extrinsic_state(u, g), gauss_curvature_problem(g))
        assert np.max(np.abs(R)) == 0.0

    def test_boundary_rows_hold_dirichlet_gap(self):
        g = disk()
        spec = mean_curvature_problem(g)
        u = np.full(g.shape, 1.1)
        R = assemble_residual(extrinsic_state(u, g), spec)
        assert np.allclose(R[-1, :], 0.1)

    def test_not_spacelike_raises(self):
        g = disk()
        u = np.ones(g.shape)
        u[5, :] = 1.5
        with pytest.raises(geom.NotSpacelikeError):
            assemble_residual(extrinsic_state(u, g), mean_curvature_problem(g))

    def test_homotopy_blend(self):
        # the staged equation R(u) = (1 - t) R(u_a) blends the data, not the
        # operator: with psi constant its interior rows read sigma_1[u] =
        # t psi + (1 - t) sigma_1[u_a], and its boundary rows u = t phi +
        # (1 - t) u_a.  Newton solves it from the anchor
        g = disk()
        spec = mean_curvature_problem(g)
        rn = g.rho_col / g.chart.rho_max
        u_a = 1.05 + 0.02 * rn ** 2 + 0.01 * np.cos(g.theta_row) * rn
        anchor = extrinsic_state(u_a, g)
        t = 0.3
        rep = damped_newton(u_a, spec, offset=(1.0 - t) * assemble_residual(anchor, spec))
        assert rep.converged and rep.iterations > 0
        state, inner = extrinsic_state(rep.u, g), g.interior_mask
        data = t * 2.0 + (1.0 - t) * anchor.sigma1
        assert np.max(np.abs(state.sigma1 - data)[inner]) <= 1e-10
        assert np.max(np.abs(rep.u[-1] - (t * 1.0 + (1.0 - t) * u_a[-1]))) <= 1e-12

    @pytest.mark.parametrize("k, p, h", [(1, 1, "2/u*(1+0.1*rho*cos(theta))"),
                                         (2, 2, "4*(1+0.2*rho*sin(theta))")])
    def test_residual_is_the_jacobian_local_map(self, k, p, h):
        # the residual and the function the Jacobian's oracle differentiates
        # share one kernel and one psi, so they agree to the last bit
        g = disk()
        spec = ProblemSpec(grid=g, k=k, psi=PsiSpec("power", p=p, h=h),
                           phi=PhiSpec("hyperplane", c=1.0))
        rn = g.rho_col / g.chart.rho_max
        u = 1.0 + (0.05 + 0.02 * np.cos(g.theta_row) + 0.01 * np.sin(2 * g.theta_row)) * rn ** 2
        state = extrinsic_state(u, g)
        chart_data = (u, state.u_rho, state.u_theta, state.H_rr, state.H_rt, state.H_tt)
        inner = g.interior_mask
        R = assemble_residual(state, spec)
        assert np.all(R[inner] == oracles.local_residual(spec, *chart_data)[inner])


SOLVE_SHAPES = [(4, 4), (5, 6), (4, 8), (48, 16), (16, 48), (33, 34), (128, 128)]


def tilted_gauss_state(g):
    """The k = 2 problem and a state near its solution without rotational
    symmetry, so the Jacobian is not symmetric."""
    rn = g.rho_col / g.chart.rho_max
    u = 0.5 * (1.0 + 0.02 * rn ** 2 + 0.01 * np.cos(g.theta_row) * rn)
    return gauss_curvature_problem(g), u


def assert_matches_the_stencil_matrix_sum(g):
    # products and the diagonal agree with the weighted sum of the oracle's
    # stencil matrices to round-off: the terms are added in another order,
    # and the weights are closed forms where the oracle's are complex steps
    spec, u = tilted_gauss_state(g)
    state = extrinsic_state(u, g)
    x = np.random.default_rng(2).normal(size=g.n_nodes)
    J, ref = assemble_jacobian(state, spec), oracles.jacobian(state, spec)
    Jx, ref_x = J @ x, ref @ x
    assert np.max(np.abs(Jx - ref_x)) <= 1e-13 * np.max(np.abs(ref_x))
    d, ref_d = J.diagonal(), ref.diagonal()
    assert np.max(np.abs(d - ref_d)) <= 1e-13 * np.max(np.abs(ref_d))


WEIGHT_PSIS = {
    "power-0": PsiSpec("power", p=0.0, h="2/u*(1+0.1*rho*cos(theta))"),
    "power-1": PsiSpec("power", p=1.0, h="2/u*(1+0.1*rho**2)"),
    "power-2": PsiSpec("power", p=2.0, h="4*(1+0.2*rho*sin(theta))*u**2"),
    "exponential": PsiSpec("exponential", p=0.5, h="u*(1+0.1*rho)"),
    "tabulated": None,  # random node values, made per grid
}


class TestJacobian:
    @pytest.mark.parametrize("shape, psi", [(s, p) for s in [(4, 4), (5, 6), (33, 34)]
                                            for p in WEIGHT_PSIS] + [((128, 128), "exponential")])
    def test_weights_match_the_complex_step_oracle(self, shape, psi):
        # the closed-form weights against the oracle's extended-precision
        # complex steps, per slot relative to the slot's largest interior
        # weight (measured worst 1.1e-14: k = 2, rho_max 2.4, the u_theta slot
        # at the pole); on radial states the u_theta and H_rt slots vanish.
        # The u slot is measured against |psi| / u where that is larger: for
        # "power-1" (psi = 2 (1 + 0.1 rho^2) / v) the two terms of psi's
        # product rule, each ~psi / u, cancel to 1e-3..1e-4 of that; there the
        # weights, like double-precision complex steps, keep up to 1.7e-12 of
        # the slot (under 1e-15 of psi / u)
        for rho_max in (0.8, 2.4):
            g = disk(*shape, rho_max)
            rn = g.rho_col / rho_max
            inner = g.interior_mask
            spec_psi = WEIGHT_PSIS[psi] or PsiSpec(
                "tabulated", table=1.0 + 0.1 * np.random.default_rng(7).random(g.shape))
            for k, c in ((1, 1.0), (2, 0.5)):
                spec = ProblemSpec(grid=g, k=k, psi=spec_psi, phi=PhiSpec("constant", c=c))
                for tilt in (0.0, 0.01):
                    u = c * (1.0 + 0.02 * rn ** 2 + tilt * np.cos(g.theta_row) * rn) + np.zeros(g.shape)
                    state = extrinsic_state(u, g)
                    psi_u = np.max(np.abs(spec.psi_field(u, state.theta_support) / u)[inner])
                    weights = assemble_jacobian(state, spec).weights
                    ref = oracles.jacobian_weights(state, spec)
                    for m, (w, r) in enumerate(zip(weights, ref)):
                        if tilt == 0.0 and m in (2, 4):
                            assert np.all(w[inner] == 0.0)
                            continue
                        scale = np.max(np.abs(r[inner]))
                        if m == 0 and spec_psi.family != "tabulated":
                            scale = max(scale, psi_u)
                        err = np.max(np.abs(w[inner] - r[inner]))
                        assert err <= 1e-13 * scale, (k, tilt, m, err / scale)

    def test_directional_consistency(self):
        # dR in random directions matches J @ w at random admissible states
        g = disk()
        mspec, _ = manufactured_problem("1 + 0.05*rho**2 + 0.02*rho**4", g, 2)
        base = constant_guess(mspec)
        rng = np.random.default_rng(0)
        rn = g.rho_col / g.chart.rho_max
        for trial in range(3):
            c = rng.normal(size=3) * 0.01
            u = base * (1.0 + c[0] * rn ** 2 + (c[1] * np.cos(g.theta_row)
                                                + c[2] * np.sin(g.theta_row)) * rn ** 2)
            assert np.all(geom.extrinsic_state(u, g).admissible_mask(2)[g.interior_mask])
            w = rng.normal(size=g.shape) * 0.01
            J = assemble_jacobian(extrinsic_state(u, g), mspec)
            eps = 1e-6
            dd = (assemble_residual(extrinsic_state(u + eps * w, g), mspec)
                  - assemble_residual(extrinsic_state(u - eps * w, g), mspec)
                  ).ravel() / (2 * eps)
            err = np.max(np.abs(J @ w.ravel() - dd)) / max(1.0, np.max(np.abs(dd)))
            assert err < 1e-5

    def test_central_difference_probe_is_second_order(self):
        # the directional-derivative probe error drops ~4x when eps halves,
        # measured against the analytic Jacobian
        g = disk()
        mspec, _ = manufactured_problem("1 + 0.05*rho**2 + 0.02*rho**4", g, 2)
        u = constant_guess(mspec)
        rng = np.random.default_rng(1)
        w = rng.normal(size=g.shape) * 0.01
        J = assemble_jacobian(extrinsic_state(u, g), mspec)
        ref = J @ w.ravel()

        def probe(eps):
            dd = (assemble_residual(extrinsic_state(u + eps * w, g), mspec)
                  - assemble_residual(extrinsic_state(u - eps * w, g), mspec)
                  ).ravel() / (2 * eps)
            return np.max(np.abs(dd - ref))

        e1, e2 = probe(2e-3), probe(1e-3)
        assert 3.2 < e1 / e2 < 4.8

    def test_fd_cross_check(self):
        # central differences of the residual, column by column, match the analytic Jacobian
        g = disk(20, 20)
        mspec, _ = manufactured_problem("1 + 0.05*rho**2 + 0.02*rho**4", g, 2)
        u = constant_guess(mspec)
        J = assemble_jacobian(extrinsic_state(u, g), mspec)
        eps = 1e-6 * max(1.0, float(np.max(np.abs(u))))

        def column(e):
            e = eps * e.reshape(g.shape)
            return (assemble_residual(extrinsic_state(u + e, g), mspec)
                    - assemble_residual(extrinsic_state(u - e, g), mspec)) / (2.0 * eps)

        Ja = matrix_from_columns(lambda e: J @ e, g.n_nodes)
        Jf = matrix_from_columns(column, g.n_nodes)
        scale = np.max(np.abs(Ja.data))
        assert np.max(np.abs((Ja - Jf).toarray())) < 1e-6 * scale

    def test_boundary_rows_are_identity(self):
        g = disk(12, 12)
        spec = mean_curvature_problem(g)
        J = assemble_jacobian(extrinsic_state(np.ones(g.shape), g), spec)
        nb = g.n_theta
        bnd = slice(g.n_nodes - nb, g.n_nodes)
        block = matrix_from_columns(lambda e: J @ e, g.n_nodes).toarray()[bnd, :]
        expected = np.zeros_like(block)
        expected[np.arange(nb), np.arange(g.n_nodes - nb, g.n_nodes)] = 1.0
        assert np.array_equal(block, expected)

    @pytest.mark.parametrize("shape", SOLVE_SHAPES[:-1])
    def test_matches_the_stencil_matrix_sum(self, shape):
        # in the smallest grids the pole ghosts coincide with theta-neighbours
        assert_matches_the_stencil_matrix_sum(disk(*shape))

    def test_products_match_the_stencil_matrix_sum_at_128(self):
        assert_matches_the_stencil_matrix_sum(disk(128, 128))

    def test_operator_uses_the_grid_radius(self):
        # grids of one shape but different radii do not share stencil values
        for rho_max in (0.8, 2.0):
            assert_matches_the_stencil_matrix_sum(disk(12, 12, rho_max))


class TestSparseSolve:
    @pytest.mark.parametrize("shape", SOLVE_SHAPES)
    def test_agrees_with_plain_lu(self, shape):
        # the FFT Laplace solve and the preconditioned Krylov Newton step
        # against SuperLU on the same systems
        b = np.random.default_rng(0).normal(size=shape[0] * shape[1])
        for rho_max in (0.8, 2.0):
            g = disk(*shape, rho_max)
            ref = spsolve(laplace_system(g), b)
            x = solver._laplace_solve(g, b.reshape(g.shape)).ravel()
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        g = disk(*shape)
        spec, u = tilted_gauss_state(g)
        state = extrinsic_state(u, g)
        ref = spsolve(oracles.jacobian(state, spec).tocsc(), b)
        x = solver.linear_solve(assemble_jacobian(state, spec), b, g)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_laplace_system_matches_fd_build(self):
        # the FFT solution, put through the array-stencil Laplacian with
        # identity boundary rows, gives back the right-hand side (to 2.8e-11)
        g = disk(64, 64)
        b = np.random.default_rng(1).normal(size=g.shape)
        x = solver._laplace_solve(g, b)
        back = laplace_beltrami(x, g)
        back[-1, :] = x[-1, :]
        assert np.max(np.abs(back - b)) <= 1e-9 * np.max(np.abs(b))

    def test_laplace_system_uses_the_grid_radius(self):
        # grids of one shape but different radii do not share a factorisation
        for rho_max in (0.8, 2.0):
            g = disk(12, 12, rho_max)
            u = 1.0 + g.rho_col * np.cos(g.theta_row)
            b = laplace_beltrami(u, g)
            b[-1, :] = u[-1, :]
            x = solver._laplace_solve(g, b)
            assert np.max(np.abs(x - u)) <= 1e-12

    def test_agrees_with_the_thomas_sweep_at_512(self):
        # the cyclic-reduction solve against a Thomas sweep over the rings of
        # the same per-mode systems (measured 2.7e-14 relative)
        g = disk(512, 512, 2.4)
        b = np.random.default_rng(3).normal(size=g.shape)
        ref = oracles.thomas_laplace_solve(g, b)
        x = solver._laplace_solve(g, b)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_solves_return_fresh_arrays(self):
        # the plan reduces in its own buffer; no result is a view of it
        g = disk(16, 16)
        rng = np.random.default_rng(4)
        b1, b2 = rng.normal(size=(2, *g.shape))
        x1 = solver._laplace_solve(g, b1)
        kept = x1.copy()
        x2 = solver._laplace_solve(g, b2)
        assert np.array_equal(x1, kept)
        assert not np.shares_memory(x1, x2)

    @staticmethod
    def count_ring_solves(monkeypatch):
        calls = []
        ring_solve = solver._ring_solve
        monkeypatch.setattr(solver, "_ring_solve",
                            lambda plan, b: calls.append(1) or ring_solve(plan, b))
        return calls

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("bump", [0.0, 0.6, 1.0])
    def test_exact_on_theta_independent_states(self, monkeypatch, k, bump):
        # on a radial state the Jacobian's u_theta and H_rt weights vanish and
        # the rest are constant on rings, so the ring-mean preconditioner is J
        # itself: one GMRES iteration (the Laplace preconditioner took 6-7).
        # bump scales a radial bump on the constant solution (0: the solution)
        g = disk(32, 32)
        rn = g.rho_col / g.chart.rho_max
        if k == 1:
            spec, c, a = mean_curvature_problem(g), 1.0, 0.05
        else:
            spec, c, a = gauss_curvature_problem(g), 0.5, 0.02
        u = c * (1.0 + bump * a * rn ** 2) * np.ones(g.shape)
        state = extrinsic_state(u, g)
        b = np.random.default_rng(5).normal(size=g.n_nodes)
        calls = self.count_ring_solves(monkeypatch)
        x = solver.linear_solve(assemble_jacobian(state, spec), b, g)
        assert len(calls) <= 2
        ref = spsolve(oracles.jacobian(state, spec).tocsc(), b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_ring_solve_without_diagonal_dominance(self):
        # at the 40^2 level of the k = 2, rho_max 2.4 benchmark solve, w0 is
        # positive (up to ~1.1e3) on most rings, so the low modes' rows are not
        # diagonally dominant and cyclic reduction meets them without row
        # exchanges; against a partial-pivoting dense solve of the same
        # ring-mean operator it agrees to ~1e-14 relative
        spec = hyperplane_problem(40, 2, 2, "1", rho_max=2.4)
        g = spec.grid
        result = continuation_solve(spec)
        assert result.converged
        J = assemble_jacobian(extrinsic_state(result.u, g), spec)
        w = [np.mean(J.weights[m], axis=1, keepdims=True) for m in range(6)]
        assert np.count_nonzero(w[0][:-1] > 0.0) >= g.n_rho // 2
        plan, _ = solver._ring_factors(g, w[0], w[1], w[3], w[5])
        b = np.random.default_rng(6).normal(size=g.shape)
        P = oracles.stencil_operator(g, [w[0], w[1], 0.0, w[3], 0.0, w[5]])
        ref = np.linalg.solve(P.toarray(), b.ravel())
        x = solver._ring_solve(plan, b).ravel()
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_krylov_iterations_stay_few(self, monkeypatch):
        # GMRES applies the ring-mean preconditioner once per iteration and
        # once more for the result; on this non-radial 128^2 k = 2 Newton step
        # it takes 4 iterations, bounded here at twice that
        g = disk(128, 128)
        spec, u = tilted_gauss_state(g)
        state = extrinsic_state(u, g)
        calls = self.count_ring_solves(monkeypatch)
        J = assemble_jacobian(state, spec)
        solver.linear_solve(J, -assemble_residual(state, spec).ravel(), g)
        assert len(calls) - 1 <= 8


class TestDampedNewton:
    def test_exact_start_zero_iterations(self):
        g = disk()
        rep = damped_newton(np.ones(g.shape), mean_curvature_problem(g))
        assert rep.converged and rep.iterations == 0
        assert rep.residual_norm == 0.0

    def test_perturbed_hyperboloid(self):
        g = disk(32, 32)
        rep = damped_newton(np.full(g.shape, 1.02), mean_curvature_problem(g))
        assert rep.converged
        assert rep.iterations <= 5
        assert rep.residual_norm <= 1e-10
        assert np.max(np.abs(rep.u - 1.0)) < 1e-10

    @staticmethod
    def assert_refused(rep, u, detail):
        assert rep.status == "inadmissible" and not rep.converged
        assert rep.iterations == 0 and rep.residual_norm == np.inf
        assert rep.detail.startswith(detail)
        assert np.array_equal(rep.u, u)

    def test_non_spacelike_start_rejected(self):
        g = disk()
        u = np.ones(g.shape)
        u[5, :] = 1.5
        rep = damped_newton(u, mean_curvature_problem(g))
        self.assert_refused(rep, u, "start rejected: graph not spacelike at node (i=")

    def test_inadmissible_start_rejected_for_positive_t(self):
        # spacelike dimple whose shoulders have negative mean curvature
        g = disk(24, 24)
        u = 1.0 - 0.05 * np.exp(-((g.rho_col - 0.4) / 0.3) ** 2) + np.zeros(g.shape)
        st = geom.extrinsic_state(u, g)
        assert st.spacelike_gap < 1.0
        bad = ~st.admissible_mask(1) & g.interior_mask
        assert np.any(bad)
        rep = damped_newton(u, mean_curvature_problem(g))
        node = g.node_label(int(np.argmax(bad)))
        self.assert_refused(rep, u, f"start rejected: not 1-admissible at {node}")
        # an offset moves the data, not the guard: the start is refused alike
        offset = np.full(g.shape, 0.1)
        self.assert_refused(damped_newton(u, mean_curvature_problem(g), offset=offset),
                            u, f"start rejected: not 1-admissible at {node}")

    def test_nonpositive_psi_start_rejected(self):
        # psi = 2 - 4 rho turns negative past rho = 0.5 on the 0.8 disk
        g = disk()
        u = np.ones(g.shape)
        rep = damped_newton(u, mean_curvature_problem(g, psi="2 - 4*rho"))
        self.assert_refused(rep, u, "start rejected: psi must stay finite and strictly positive")

    def test_anchor_is_the_root_at_t0(self):
        # the staged problem R(u) = (1 - t) R(u_a) at t = 0 is solved by its
        # anchor: Newton accepts it with no iteration and residual exactly 0
        spec = hyperplane_problem(24, 2, 2, "4*(1+0.2*rho*sin(theta))")
        u_a = constant_guess(spec)
        R_a = assemble_residual(extrinsic_state(u_a, spec.grid), spec)
        assert np.max(np.abs(R_a)) > 0.1
        rep = damped_newton(u_a, spec, offset=R_a)
        assert rep.converged and rep.iterations == 0 and rep.residual_norm == 0.0
        assert np.array_equal(rep.u, u_a)

    def test_accepted_solutions_stay_admissible(self):
        g = disk()
        mspec, _ = manufactured_problem("1 + 0.05*rho**2 + 0.02*rho**4", g, 2)
        rep = damped_newton(constant_guess(mspec), mspec)
        assert rep.converged
        st = geom.extrinsic_state(rep.u, g)
        assert np.all(st.admissible_mask(2)[g.interior_mask])
        assert st.spacelike_gap < 1.0


class TestInitialGuess:
    def test_constant_data_shortcut(self):
        g = disk()
        spec = mean_curvature_problem(g)
        u = harmonic_extension(spec)
        assert np.all(u == 1.0)

    def test_hyperplane_extension_is_discrete_harmonic(self):
        g = disk()
        spec = ProblemSpec(grid=g, k=2, psi=PsiSpec("power", p=2.0, h="1"),
                           phi=PhiSpec("hyperplane", c=0.6))
        u = harmonic_extension(spec)
        assert np.allclose(u[-1, :], spec.boundary_values())
        lap = laplace_beltrami(u, g)
        assert np.max(np.abs(lap[g.interior_mask])) < 1e-9

    def test_initial_guess_mean_curvature_admissible(self):
        g = disk()
        spec = ProblemSpec(grid=g, k=2, psi=PsiSpec("power", p=2.0, h="1"),
                           phi=PhiSpec("hyperplane", c=0.6))
        u = build_initial_guess(spec)
        st = geom.extrinsic_state(u, g)
        assert np.all(st.sigma1[g.interior_mask] > 0)


class TestContinuation:
    def test_mean_curvature_hyperboloid(self):
        g = disk(32, 32)
        res = continuation_solve(mean_curvature_problem(g))
        assert res.converged
        assert np.max(np.abs(res.u - 1.0)) <= 1e-9
        assert res.newton_total <= 6

    def test_gauss_curvature_hyperboloid(self):
        g = disk(32, 32)
        res = continuation_solve(gauss_curvature_problem(g))
        assert res.converged
        assert np.max(np.abs(res.u - 0.5)) <= 1e-9
        assert res.newton_total <= 6

    def test_manufactured_second_order(self):
        errs = []
        for n in (16, 32):
            g = disk(n, n)
            mspec, u_star = manufactured_problem("1 + 0.05*rho**2 + 0.02*rho**4", g, 2)
            res = continuation_solve(mspec)
            assert res.converged
            errs.append(np.max(np.abs(res.u - u_star)))
        assert errs[0] / errs[1] > 3.4

    def test_staged_fallback_reaches_target(self, monkeypatch):
        # forcing the solve down the staged path on every level (no direct
        # attempt converges) must still land on the solution the direct path
        # finds: each level steps t from its anchor up to 1
        spec = hyperplane_problem(24, 2, 2, "4*(1+0.2*rho*sin(theta))")
        direct = continuation_solve(spec)
        assert direct.converged and all(s.t == 1.0 for s in direct.steps)
        real_newton = solver.damped_newton

        def no_direct_attempt(u0, level, max_iters=solver._MAX_NEWTON_ITERS, offset=None):
            rep = real_newton(u0, level, max_iters, offset)
            if offset is None:
                rep = solver.NewtonReport(rep.u, "stalled", rep.iterations, rep.residual_norm)
            return rep

        monkeypatch.setattr(solver, "damped_newton", no_direct_attempt)
        res = continuation_solve(spec)
        assert res.converged
        grids = [s.grid for s in res.steps]
        assert grids == sorted(grids) and set(grids) == {(12, 12), (24, 24)}
        for grid in set(grids):
            assert [s.t for s in res.steps if s.grid == grid] == [0.25, 0.5, 0.75, 1.0]
        assert np.max(np.abs(res.u - direct.u)) <= 1e-9 * np.max(np.abs(direct.u))

    @pytest.mark.parametrize("failure", ["stalled", "inadmissible"])
    def test_step_floor(self, monkeypatch, failure):
        # the direct attempt stalls, then every staged step fails, as a
        # stalled Newton or as a start the guard rejects: dt halves from
        # _DT_INIT below _DT_MIN, and the first level ends at the step floor
        # with no accepted step and the anchor's residual.  psi = 2.5 against
        # the anchor u = 1 (sigma_1 = 2) makes R(u_a) = -0.5 inside, so each
        # step's t reads exactly off its offset (1 - t) R(u_a)
        iterations, tried = [], []

        def fail_every_step(u0, level, max_iters=solver._MAX_NEWTON_ITERS, offset=None):
            if offset is None or failure == "stalled":
                rep = solver.NewtonReport(u0, "stalled", 3, 1.0)
            else:
                rep = solver.NewtonReport(u0, "inadmissible", 0, np.inf, "start rejected")
            if offset is not None:
                tried.append(1.0 - offset[0, 0] / -0.5)
            iterations.append(rep.iterations)
            return rep

        monkeypatch.setattr(solver, "damped_newton", fail_every_step)
        res = continuation_solve(mean_curvature_problem(disk(), psi="2.5"))
        assert res.status == "step-floor"
        assert res.detail == "grid 12x12: continuation step floor reached at t=0"
        assert res.steps == [] and res.residual_norm == 0.5
        assert tried == [0.25 / 2 ** i for i in range(8)]  # _DT_INIT 0.25, _DT_MIN 1e-3
        assert res.newton_total == sum(iterations)
        assert res.newton_total == (3 + 8 * 3 if failure == "stalled" else 3)

    def test_inadmissible_start(self):
        # psi = 4 (1 - 0.4 rho) turns negative past rho = 2.5: the guard
        # refuses the coarsest level's start and then its constant anchor
        spec = ProblemSpec(grid=disk(24, 24, rho_max=3.0), k=2,
                           psi=PsiSpec("power", p=2.0, h="4*(1-0.4*rho)"),
                           phi=PhiSpec("constant", c=1.0))
        res = continuation_solve(spec)
        assert res.status == "inadmissible-start" and not res.converged
        assert res.newton_total == 0 and res.steps == []
        assert res.detail == ("grid 12x12: start rejected: "
                              "psi must stay finite and strictly positive")

    def test_trace_records_stages(self):
        g = disk()
        res = continuation_solve(mean_curvature_problem(g))
        assert res.steps[-1].t == 1.0
        assert res.residual_norm <= 1e-10


def hyperplane_problem(n, k, p, h, rho_max=0.8):
    return ProblemSpec(grid=disk(n, n, rho_max), k=k, psi=PsiSpec("power", p=p, h=h),
                       phi=PhiSpec("hyperplane", c=1.0))


def single_level(spec):
    """:func:`solver._homotopy_solve` on the spec's own grid alone, from
    the initial guess."""
    return solver._homotopy_solve(spec, build_initial_guess(spec))


class TestCoarseToFine:
    @pytest.mark.parametrize("shape, chain", [
        ((80, 80), [(10, 10), (20, 20), (40, 40), (80, 80)]),
        ((256, 256), [(16, 16), (32, 32), (64, 64), (128, 128), (256, 256)]),
        ((24, 24), [(12, 12), (24, 24)]),
        ((40, 8), [(20, 4), (40, 8)]),        # n_theta stops at 4
        ((20, 4), [(20, 4)]),
        ((30, 32), [(15, 16), (30, 32)]),     # odd n_rho stops
        ((48, 18), [(48, 18)]),               # n_theta not divisible by 4
        ((18, 36), [(18, 36)]),               # 9 rings would be too few
    ])
    def test_chain_rule(self, shape, chain):
        assert solver._grid_chain(mean_curvature_problem(disk(*shape))) == chain

    def test_tabulated_psi_takes_one_level(self):
        g = disk(32, 32)
        mspec, _ = manufactured_problem("1 + 0.05*rho**2 + 0.02*rho**4", g, 2)
        assert solver._grid_chain(mspec) == [(32, 32)]
        res = continuation_solve(mspec)
        assert res.converged
        assert {s.grid for s in res.steps} == {(32, 32)}

    def test_carry_reproduces_low_degree_fields(self):
        # along every line through the pole the field is a cubic in the signed
        # radius, in theta a trigonometric polynomial up to the coarse Nyquist
        # mode, and it equals phi = 1 on the finer grid's outer ring: the
        # spline, the padded FFT (halved Nyquist coefficient) and the boundary
        # correction then reproduce it
        fine = disk(24, 16)
        spec = ProblemSpec(grid=fine, k=1, psi=PsiSpec("power", p=0.0, h="2"),
                           phi=PhiSpec("constant", c=1.0))
        r2 = fine.rho[-1] ** 2

        def field(g):
            rho, th = g.rho_col, g.theta_row
            q = rho ** 2 - r2
            return (1.0 + 0.1 * q + 0.05 * rho * q * np.cos(th) + 0.02 * q * np.sin(2 * th)
                    + 0.01 * q * np.cos(4 * th))

        carried = solver._carry(field(disk(12, 8)), spec)
        assert np.max(np.abs(carried - field(fine))) <= 1e-14
        assert np.max(np.abs(carried[-1] - 1.0)) <= 1e-15

    def test_carry_meets_the_boundary_data(self):
        # a constant carries to itself, so the boundary correction is all of
        # phi - 1 and the carried field is phi's harmonic extension
        spec = hyperplane_problem(24, 1, 0, "2")
        carried = solver._carry(np.ones((12, 12)), spec)
        assert np.max(np.abs(carried[-1] - spec.boundary_values())) <= 1e-15
        assert np.max(np.abs(carried - harmonic_extension(spec))) <= 1e-14

    def test_radial_staged_matches_single_level(self, monkeypatch):
        # the continuation-k2-80 problem at 48^2 on a wider disk: the 12^2
        # level fails its direct attempt and steps t up to 1; 24^2 and 48^2
        # converge in their direct attempts.  The chain takes about as many
        # Newton iterations as the 48^2 grid alone (52 and 51), but nearly all
        # on 12^2, so its work, iterations times nodes, is a fraction
        spec = hyperplane_problem(48, 2, 2, "1", rho_max=3.0)
        real_newton = solver.damped_newton
        work = []  # nodes times iterations of every Newton run

        def count_work(u0, level, max_iters=solver._MAX_NEWTON_ITERS, offset=None):
            rep = real_newton(u0, level, max_iters, offset)
            work.append(level.grid.n_nodes * rep.iterations)
            return rep

        monkeypatch.setattr(solver, "damped_newton", count_work)
        chain = continuation_solve(spec)
        chain_work, work[:] = sum(work), []
        ref = single_level(spec)
        assert chain.converged and ref.converged
        assert [s.grid for s in chain.steps[-2:]] == [(24, 24), (48, 48)]
        assert all(s.grid == (12, 12) for s in chain.steps[:-2])
        assert [s.t for s in chain.steps[:-2]] == [0.25, 0.5, 0.75, 1.0]
        assert chain_work < 0.25 * sum(work)
        assert np.max(np.abs(chain.u - ref.u)) <= 1e-12

    @pytest.mark.parametrize("k, p, h", [(1, 1, "2/u*(1+0.1*rho*cos(theta))"),
                                         (2, 2, "4*(1+0.2*rho*sin(theta))")])
    def test_non_radial_matches_single_level(self, k, p, h):
        # both converge directly, each only to the tolerance, so they agree to
        # about the tolerance and not to round-off
        spec = hyperplane_problem(96, k, p, h)
        chain, ref = continuation_solve(spec), single_level(spec)
        assert [s.grid for s in chain.steps] == [(12, 12), (24, 24), (48, 48), (96, 96)]
        for res in (chain, ref):
            assert res.converged
            tol = solver.resolve_newton_tol(spec, extrinsic_state(res.u, spec.grid))
            assert res.residual_norm <= tol
        assert np.max(np.abs(chain.u - ref.u)) <= 1e-9 * np.max(np.abs(ref.u))

    def test_a_failed_level_ends_the_solve(self, monkeypatch):
        spec = hyperplane_problem(24, 2, 2, "4*(1+0.2*rho*sin(theta))")
        real_newton = solver.damped_newton
        calls = []  # (grid shape, iterations) of every damped_newton report

        def stall_on_the_target(u0, level, max_iters=solver._MAX_NEWTON_ITERS, offset=None):
            rep = real_newton(u0, level, max_iters, offset)
            if level.grid is spec.grid:
                rep = solver.NewtonReport(rep.u, "stalled", rep.iterations, rep.residual_norm)
            calls.append((level.grid.shape, rep.iterations))
            return rep

        monkeypatch.setattr(solver, "damped_newton", stall_on_the_target)
        res = continuation_solve(spec)
        assert not res.converged
        assert res.detail.startswith("grid 24x24: ")
        assert res.u.shape == (24, 24)
        shapes = [shape for shape, _ in calls]
        assert shapes == sorted(shapes) and shapes[-1] == (24, 24)
        assert res.newton_total == sum(n for _, n in calls)

    def test_inadmissible_carry_steps_on_its_level(self, monkeypatch):
        # k = 2, psi = 4 (1 - 0.4 rho) on the 2.4 disk: the converged 10^2
        # field, carried up, is not 2-admissible on 20^2.  The guard refuses it
        # as the direct attempt's start, so that level anchors its staged path
        # at the constant guess and steps t up to 1 from there
        spec = hyperplane_problem(20, 2, 2, "4*(1-0.4*rho)", rho_max=2.4)
        real_newton = solver.damped_newton
        fine = []  # (start, offset given, report) of each 20^2 Newton run

        def record(u0, level, max_iters=solver._MAX_NEWTON_ITERS, offset=None):
            rep = real_newton(u0, level, max_iters, offset)
            if level.grid is spec.grid:
                fine.append((np.array(u0), offset is not None, rep))
            return rep

        monkeypatch.setattr(solver, "damped_newton", record)
        chain = continuation_solve(spec)
        monkeypatch.undo()
        assert chain.converged
        (_, staged, direct), (anchor, _, _) = fine[:2]
        assert not staged and direct.status == "inadmissible"
        assert direct.detail.startswith("start rejected: not 2-admissible at node")
        assert np.array_equal(anchor, constant_guess(spec))
        assert all(staged for _, staged, _ in fine[1:])
        assert [s.t for s in chain.steps if s.grid == (20, 20)] == [0.25, 0.5, 0.75, 1.0]
        ref = single_level(spec)
        assert ref.converged
        assert np.max(np.abs(chain.u - ref.u)) <= 1e-9 * np.max(np.abs(ref.u))

    def test_carried_k2_start_is_admissible(self):
        # the continuation-k2-80 problem: its 10^2 solution, carried to 20^2,
        # passes the start guard at t = 1, so that level's direct attempt
        # runs.  The margin is thin (min sigma_2 ~ 0.008 on ring 16); a local
        # 4-point cubic in rho puts -0.22 there, and the level steps t again.
        coarse, fine = (hyperplane_problem(n, 2, 2, "1", rho_max=2.4) for n in (10, 20))
        res = single_level(coarse)
        assert res.converged
        state, _, reason = solver._start(solver._carry(res.u, fine), fine)
        assert reason == "" and state is not None

    def test_probe_starts_are_laid_on_each_level(self):
        # the same closed-form bump in (rho / rho_max, theta) on every grid
        start = solver._probe_start(np.array([0.5, -1.0, 2.0, 0.3]))
        for n in (12, 24):
            level = hyperplane_problem(n, 1, 1, "2/u*(1+0.1*rho*cos(theta))")
            g = level.grid
            rn = g.rho_col / 0.8
            bump = 0.5 - rn ** 2 + (2.0 * np.cos(g.theta_row) + 0.3 * np.sin(g.theta_row)) * rn
            assert np.allclose(start(level), build_initial_guess(level) * (1.0 + 0.01 * bump),
                               rtol=1e-15, atol=0.0)


class TestBarriers:
    def test_tight_on_exact_solutions(self):
        g = disk()
        for spec, c in [(mean_curvature_problem(g), 1.0), (gauss_curvature_problem(g), 0.5)]:
            res = continuation_solve(spec)
            state = extrinsic_state(res.u, g)
            s_plus, _ = solve_upper_barrier(spec, state)
            s_minus, _ = solve_lower_barrier(spec, state)
            assert np.max(np.abs(s_plus - res.u)) <= 1e-8
            assert np.max(np.abs(s_minus - res.u)) <= 1e-8
            report = barrier_sandwich_check(res.u, s_minus, s_plus, g)
            assert report.passed

    def test_manufactured_sandwich(self):
        g = disk(32, 32)
        mspec, _ = manufactured_problem("1 + 0.05*rho**2 + 0.02*rho**4", g, 2)
        res = continuation_solve(mspec)
        state = extrinsic_state(res.u, g)
        s_plus, _ = solve_upper_barrier(mspec, state)
        s_minus, _ = solve_lower_barrier(mspec, state)
        report = barrier_sandwich_check(res.u, s_minus, s_plus, g)
        assert report.passed
        assert report.min_upper_margin >= -report.eps_h
        assert report.min_lower_margin >= -report.eps_h

    def test_corrupted_solution_fails_sandwich(self):
        g = disk()
        spec = gauss_curvature_problem(g)
        res = continuation_solve(spec)
        state = extrinsic_state(res.u, g)
        s_plus, _ = solve_upper_barrier(spec, state)
        s_minus, _ = solve_lower_barrier(spec, state)
        bump = 0.1 * np.exp(-((g.rho_col - 0.3) / 0.15) ** 2) + np.zeros(g.shape)
        report = barrier_sandwich_check(res.u + bump, s_minus, s_plus, g)
        assert not report.passed


def converged_state(spec):
    res = continuation_solve(spec)
    assert res.converged
    return extrinsic_state(res.u, spec.grid)


# a radial k = 1 solve and a non-radial k = 2 one, with the barrier that is
# the problem itself (order k) and the one that is not
SHORTCUT_CASES = [
    (lambda: mean_curvature_problem(disk()), solve_upper_barrier, solve_lower_barrier),
    (lambda: hyperplane_problem(24, 2, 2, "4*(1+0.2*rho*sin(theta))"),
     solve_lower_barrier, solve_upper_barrier),
]
SHORTCUT_IDS = ["k1-radial", "k2-non-radial"]


class TestBarrierOfOrderK:
    @pytest.mark.parametrize("make_spec", [case[0] for case in SHORTCUT_CASES],
                             ids=SHORTCUT_IDS)
    def test_newton_on_it_returns_the_solution_unchanged(self, make_spec):
        # the solve that the order-k barrier skips: the frozen-psi data as
        # _barrier_solve builds them for the other order, here of order k
        spec = make_spec()
        state = converged_state(spec)
        psi = spec.psi_field(state.u, state.theta_support)
        Cnk = math.comb(spec.n, spec.k)
        rhs = (spec.n * (psi / Cnk) ** (1.0 / spec.k) if spec.k == 1
               else (psi / Cnk) ** (spec.n / spec.k))
        bspec = ProblemSpec(grid=spec.grid, k=spec.k,
                            psi=PsiSpec(family="tabulated", table=rhs), phi=spec.phi)
        rep = damped_newton(state.u, bspec)
        assert rep.status == "converged" and rep.iterations == 0
        assert np.array_equal(rep.u, state.u)

    @pytest.mark.parametrize("make_spec, same, other", SHORTCUT_CASES, ids=SHORTCUT_IDS)
    def test_returned_without_a_solve(self, monkeypatch, make_spec, same, other):
        spec = make_spec()
        state = converged_state(spec)
        calls = []
        newton = solver.damped_newton
        monkeypatch.setattr(solver, "damped_newton",
                            lambda *a, **kw: calls.append(1) or newton(*a, **kw))
        s, detail = same(spec, state)
        assert np.array_equal(s, state.u) and detail == "" and not calls
        s, detail = other(spec, state)
        assert s is not None and detail == "" and calls


class TestUniqueness:
    def test_probe_returns_single_root(self):
        g = disk()
        report = uniqueness_probe(gauss_curvature_problem(g), n_starts=3, seed=1)
        assert report.all_converged
        assert report.max_pairwise_distance <= 1e-8

    def test_probe_is_seed_deterministic(self):
        g = disk(16, 16)
        spec = gauss_curvature_problem(g)
        a = uniqueness_probe(spec, n_starts=2, seed=7)
        b = uniqueness_probe(spec, n_starts=2, seed=7)
        assert a.max_pairwise_distance == b.max_pairwise_distance


def maclaurin_margins(sigma1, sigma2, k):
    """The two normalised-mean orderings behind the barriers at n = 2,
    2 (sigma_k / C(2,k))^(1/k) <= sigma_1 and sigma_2 <= (sigma_k /
    C(2,k))^(2/k), as margins."""
    mean_k = ((sigma1, sigma2)[k - 1] / math.comb(2, k)) ** (1.0 / k)
    return sigma1 - 2.0 * mean_k, mean_k ** 2 - sigma2


class TestTwoCurvatureIdentities:
    # At n = 2 the Newton inequality and the MacLaurin orderings are
    # identities in the principal curvatures, so they cannot fail on any
    # state and the solver reports no gate for them.

    @staticmethod
    def assert_identities(lam1, lam2, sigma1, sigma2):
        scale = np.maximum(1.0, (np.abs(lam1) + np.abs(lam2)) ** 2)
        slack = (sigma1 / 2.0) ** 2 - sigma2
        assert np.all(np.abs(slack - (lam1 - lam2) ** 2 / 4.0) <= 1e-14 * scale)
        m1, m2 = maclaurin_margins(sigma1, sigma2, 1)
        assert np.all(m1 == 0.0)
        assert np.array_equal(m2, slack)
        pos = (lam1 > 0.0) & (lam2 > 0.0)
        assert np.count_nonzero(pos) > 0
        m1, m2 = maclaurin_margins(sigma1[pos], sigma2[pos], 2)
        root_gap = (np.sqrt(lam1[pos]) - np.sqrt(lam2[pos])) ** 2
        assert np.all(np.abs(m1 - root_gap) <= 1e-14 * scale[pos])
        assert np.all(np.abs(m2) <= 1e-15 * scale[pos])

    def test_on_random_curvature_pairs(self):
        lam1, lam2 = np.random.default_rng(20).uniform(-3.0, 3.0, size=(2, 4000))
        self.assert_identities(lam1, lam2, lam1 + lam2, lam1 * lam2)

    def test_on_a_non_radial_state(self):
        g = disk()
        _, u = tilted_gauss_state(g)
        st = geom.extrinsic_state(u, g)
        lam1, lam2 = geom.state_curvatures(st, g)
        assert np.ptp(lam1 - lam2, axis=1).max() > 0.0
        self.assert_identities(lam1, lam2, st.sigma1, st.sigma2)
