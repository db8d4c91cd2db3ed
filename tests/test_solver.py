import gc
import weakref

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

import oracles
from oracles import laplace_beltrami, laplace_system, matrix_from_columns
from weingarten import geom, solver
from weingarten.geom import extrinsic_state
from weingarten.hchart import Grid, PolarChart
from weingarten.problem import ContinuationConfig, PhiSpec, ProblemSpec, PsiSpec, manufactured_problem
from weingarten.solver import (
    assemble_jacobian,
    assemble_residual,
    barrier_sandwich_check,
    build_initial_guess,
    constant_guess,
    continuation_solve,
    damped_newton,
    harmonic_extension,
    maclaurin_ordering_margins,
    newton_inequality_min_slack,
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
        R = assemble_residual(extrinsic_state(u, g), 1.0, mean_curvature_problem(g))
        assert np.max(np.abs(R)) == 0.0

    def test_exact_gauss_curvature_solution(self):
        g = disk()
        u = np.full(g.shape, 0.5)
        R = assemble_residual(extrinsic_state(u, g), 1.0, gauss_curvature_problem(g))
        assert np.max(np.abs(R)) == 0.0

    def test_boundary_rows_hold_dirichlet_gap(self):
        g = disk()
        spec = mean_curvature_problem(g)
        u = np.full(g.shape, 1.1)
        R = assemble_residual(extrinsic_state(u, g), 1.0, spec)
        assert np.allclose(R[-1, :], 0.1)

    def test_not_spacelike_raises(self):
        g = disk()
        u = np.ones(g.shape)
        u[5, :] = 1.5
        with pytest.raises(geom.NotSpacelikeError):
            assemble_residual(extrinsic_state(u, g), 1.0, mean_curvature_problem(g))

    def test_homotopy_blend(self):
        g = disk()
        spec = mean_curvature_problem(g)
        u = 1.0 + 0.02 * (g.rho_col / 0.8) ** 2 + np.zeros(g.shape)
        state = extrinsic_state(u, g)
        r0 = assemble_residual(state, 0.0, spec)
        r1 = assemble_residual(state, 1.0, spec)
        rt = assemble_residual(state, 0.3, spec)
        inner = g.interior_mask
        blend = 0.3 * (r1 + 2.0) + 0.7 * (r0 + 2.0) - 2.0  # psi = 2 subtracted once
        assert np.max(np.abs(rt[inner] - blend[inner])) < 1e-12

    @pytest.mark.parametrize("k, p, h", [(1, 1, "2/u*(1+0.1*rho*cos(theta))"),
                                         (2, 2, "4*(1+0.2*rho*sin(theta))")])
    def test_residual_is_the_jacobian_local_map(self, k, p, h):
        # the residual and the function the Jacobian differentiates share one
        # kernel and one homotopy formula, so they agree to the last bit
        g = disk()
        spec = ProblemSpec(grid=g, k=k, psi=PsiSpec("power", p=p, h=h),
                           phi=PhiSpec("hyperplane", c=1.0))
        rn = g.rho_col / g.chart.rho_max
        u = 1.0 + (0.05 + 0.02 * np.cos(g.theta_row) + 0.01 * np.sin(2 * g.theta_row)) * rn ** 2
        state = extrinsic_state(u, g)
        chart_data = (u, state.u_rho, state.u_theta, state.H_rr, state.H_rt, state.H_tt)
        inner = g.interior_mask
        for t in (1.0, 0.3):
            R = assemble_residual(state, t, spec)
            assert np.all(R[inner] == solver._local_residual(t, spec, *chart_data)[inner])


SOLVE_SHAPES = [(4, 4), (5, 6), (4, 8), (48, 16), (16, 48), (33, 34), (128, 128)]


def tilted_gauss_state(g):
    """The k = 2 problem and a state near its solution without rotational
    symmetry, so the Jacobian is not symmetric."""
    rn = g.rho_col / g.chart.rho_max
    u = 0.5 * (1.0 + 0.02 * rn ** 2 + 0.01 * np.cos(g.theta_row) * rn)
    return gauss_curvature_problem(g), u


def assert_matches_the_stencil_matrix_sum(g, ts):
    # products agree with the weighted sum of the oracle's stencil matrices
    # to round-off (the terms are added in another order), and the
    # diagonal, whose terms are added in the same order, bit for bit
    spec, u = tilted_gauss_state(g)
    state = extrinsic_state(u, g)
    x = np.random.default_rng(2).normal(size=g.n_nodes)
    for t in ts:
        J, ref = assemble_jacobian(state, t, spec), oracles.jacobian(state, t, spec)
        Jx, ref_x = J @ x, ref @ x
        assert np.max(np.abs(Jx - ref_x)) <= 1e-13 * np.max(np.abs(ref_x))
        assert np.array_equal(J.diagonal(), ref.diagonal())


class TestJacobian:
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
            J = assemble_jacobian(extrinsic_state(u, g), 1.0, mspec)
            eps = 1e-6
            dd = (assemble_residual(extrinsic_state(u + eps * w, g), 1.0, mspec)
                  - assemble_residual(extrinsic_state(u - eps * w, g), 1.0, mspec)
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
        J = assemble_jacobian(extrinsic_state(u, g), 1.0, mspec)
        ref = J @ w.ravel()

        def probe(eps):
            dd = (assemble_residual(extrinsic_state(u + eps * w, g), 1.0, mspec)
                  - assemble_residual(extrinsic_state(u - eps * w, g), 1.0, mspec)
                  ).ravel() / (2 * eps)
            return np.max(np.abs(dd - ref))

        e1, e2 = probe(2e-3), probe(1e-3)
        assert 3.2 < e1 / e2 < 4.8

    def test_fd_cross_check(self):
        # central differences of the residual, column by column, match the analytic Jacobian
        g = disk(20, 20)
        mspec, _ = manufactured_problem("1 + 0.05*rho**2 + 0.02*rho**4", g, 2)
        u = constant_guess(mspec)
        J = assemble_jacobian(extrinsic_state(u, g), 0.6, mspec)
        eps = 1e-6 * max(1.0, float(np.max(np.abs(u))))

        def column(e):
            e = eps * e.reshape(g.shape)
            return (assemble_residual(extrinsic_state(u + e, g), 0.6, mspec)
                    - assemble_residual(extrinsic_state(u - e, g), 0.6, mspec)) / (2.0 * eps)

        Ja = matrix_from_columns(lambda e: J @ e, g.n_nodes)
        Jf = matrix_from_columns(column, g.n_nodes)
        scale = np.max(np.abs(Ja.data))
        assert np.max(np.abs((Ja - Jf).toarray())) < 1e-6 * scale

    def test_boundary_rows_are_identity(self):
        g = disk(12, 12)
        spec = mean_curvature_problem(g)
        J = assemble_jacobian(extrinsic_state(np.ones(g.shape), g), 1.0, spec)
        nb = g.n_theta
        bnd = slice(g.n_nodes - nb, g.n_nodes)
        block = matrix_from_columns(lambda e: J @ e, g.n_nodes).toarray()[bnd, :]
        expected = np.zeros_like(block)
        expected[np.arange(nb), np.arange(g.n_nodes - nb, g.n_nodes)] = 1.0
        assert np.array_equal(block, expected)

    def test_laplace_structure_at_t0(self):
        # at t = 0 the interior rows are the Laplace-Beltrami stencil
        # (psi constant, so no state coupling); checked against independent
        # basis-vector applications of the operator
        g = disk(8, 8)
        spec = mean_curvature_problem(g)
        u = np.full(g.shape, 1.0)
        J = assemble_jacobian(extrinsic_state(u, g), 0.0, spec)
        Ja = matrix_from_columns(lambda e: J @ e, g.n_nodes).toarray()
        L = matrix_from_columns(lambda e: laplace_beltrami(e.reshape(g.shape), g),
                                g.n_nodes).toarray()
        inner = g.interior_mask.ravel()
        assert np.max(np.abs(Ja[inner] - L[inner])) < 1e-9

    @pytest.mark.parametrize("shape", SOLVE_SHAPES[:-1])
    def test_matches_the_stencil_matrix_sum(self, shape):
        # in the smallest grids the pole ghosts coincide with theta-neighbours
        assert_matches_the_stencil_matrix_sum(disk(*shape), (0.0, 0.6, 1.0))

    def test_products_match_the_stencil_matrix_sum_at_128(self):
        assert_matches_the_stencil_matrix_sum(disk(128, 128), (0.0, 0.6, 1.0))

    def test_operator_uses_the_grid_radius(self):
        # grids of one shape but different radii do not share stencil values
        for rho_max in (0.8, 2.0):
            assert_matches_the_stencil_matrix_sum(disk(12, 12, rho_max), (1.0,))


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
        for t in (0.6, 1.0):
            J = assemble_jacobian(state, t, spec)
            ref = spsolve(oracles.jacobian(state, t, spec).tocsc(), b)
            x = solver.linear_solve(J, b, g)
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
        # the cached plan reduces in its own buffer; no result is a view of it
        g = disk(16, 16)
        rng = np.random.default_rng(4)
        b1, b2 = rng.normal(size=(2, *g.shape))
        x1 = solver._laplace_solve(g, b1)
        kept = x1.copy()
        x2 = solver._laplace_solve(g, b2)
        assert np.array_equal(x1, kept)
        assert not np.shares_memory(x1, x2)

    def test_caches_live_as_long_as_their_grid(self):
        # a finished run keeps no Laplace factors
        g = disk(16, 16)
        spec, u = tilted_gauss_state(g)
        state = extrinsic_state(u, g)
        solver.linear_solve(assemble_jacobian(state, 1.0, spec), np.ones(g.n_nodes), g)
        assert g in solver._LAPLACE_CACHE
        grid = weakref.ref(g)
        del g, spec, state
        gc.collect()
        assert grid() is None

    def test_krylov_iterations_stay_few(self, monkeypatch):
        # GMRES applies the Laplace preconditioner once per iteration and once
        # more for the result; on this non-radial 128^2 k = 2 Newton step it
        # takes 7 iterations at t = 0.6 and at t = 1, bounded here at twice that
        g = disk(128, 128)
        spec, u = tilted_gauss_state(g)
        state = extrinsic_state(u, g)
        calls = []
        laplace_solve = solver._laplace_solve
        monkeypatch.setattr(solver, "_laplace_solve",
                            lambda grid, b: calls.append(1) or laplace_solve(grid, b))
        for t in (0.6, 1.0):
            calls.clear()
            J = assemble_jacobian(state, t, spec)
            solver.linear_solve(J, -assemble_residual(state, t, spec).ravel(), g)
            assert len(calls) - 1 <= 14


class TestDampedNewton:
    def test_exact_start_zero_iterations(self):
        g = disk()
        rep = damped_newton(np.ones(g.shape), 1.0, mean_curvature_problem(g), None)
        assert rep.converged and rep.iterations == 0
        assert rep.residual_norm == 0.0

    def test_perturbed_hyperboloid(self):
        g = disk(32, 32)
        rep = damped_newton(np.full(g.shape, 1.02), 1.0, mean_curvature_problem(g), None)
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
        rep = damped_newton(u, 1.0, mean_curvature_problem(g), None)
        self.assert_refused(rep, u, "start rejected: graph not spacelike at node (i=")

    def test_inadmissible_start_rejected_for_positive_t(self):
        # spacelike dimple whose shoulders have negative mean curvature
        g = disk(24, 24)
        u = 1.0 - 0.05 * np.exp(-((g.rho_col - 0.4) / 0.3) ** 2) + np.zeros(g.shape)
        st = geom.extrinsic_state(u, g)
        assert st.spacelike_gap < 1.0
        bad = ~st.admissible_mask(1) & g.interior_mask
        assert np.any(bad)
        rep = damped_newton(u, 1.0, mean_curvature_problem(g), None)
        node = g.node_label(int(np.argmax(bad)))
        self.assert_refused(rep, u, f"start rejected: not 1-admissible at {node}")
        # at t = 0 no cone test runs: the same start is accepted
        assert damped_newton(u, 0.0, mean_curvature_problem(g), None).converged

    def test_nonpositive_psi_start_rejected(self):
        # psi = 2 - 4 rho turns negative past rho = 0.5 on the 0.8 disk
        g = disk()
        u = np.ones(g.shape)
        rep = damped_newton(u, 0.0, mean_curvature_problem(g, psi="2 - 4*rho"), None)
        self.assert_refused(rep, u, "start rejected: psi must stay finite and strictly positive")

    def test_t0_problem_is_linear_single_step(self):
        # at t = 0 with constant psi the residual is affine in u, so Newton
        # lands on the Poisson solution in one step
        g = disk()
        spec = ProblemSpec(grid=g, k=1, psi=PsiSpec("power", p=0.0, h="0.3"),
                           phi=PhiSpec("constant", c=1.0))
        rep = damped_newton(np.ones(g.shape), 0.0, spec, None)
        assert rep.converged and rep.iterations == 1
        lap = laplace_beltrami(rep.u, g)
        assert np.max(np.abs(lap[g.interior_mask] - 0.3)) < 1e-10
        assert np.allclose(rep.u[-1, :], 1.0)

    def test_accepted_solutions_stay_admissible(self):
        g = disk()
        mspec, _ = manufactured_problem("1 + 0.05*rho**2 + 0.02*rho**4", g, 2)
        rep = damped_newton(constant_guess(mspec), 1.0, mspec, None)
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
        res = continuation_solve(mean_curvature_problem(g), None)
        assert res.converged
        assert np.max(np.abs(res.u - 1.0)) <= 1e-9
        assert res.newton_total <= 6

    def test_gauss_curvature_hyperboloid(self):
        g = disk(32, 32)
        res = continuation_solve(gauss_curvature_problem(g), None)
        assert res.converged
        assert np.max(np.abs(res.u - 0.5)) <= 1e-9
        assert res.newton_total <= 6

    def test_manufactured_second_order(self):
        errs = []
        for n in (16, 32):
            g = disk(n, n)
            mspec, u_star = manufactured_problem("1 + 0.05*rho**2 + 0.02*rho**4", g, 2)
            res = continuation_solve(mspec, None)
            assert res.converged
            errs.append(np.max(np.abs(res.u - u_star)))
        assert errs[0] / errs[1] > 3.4

    def test_staged_fallback_reaches_target(self, monkeypatch):
        # forcing the driver down the staged homotopy path on every level (no
        # direct attempt converges) must still land on the same solution.
        # (The Laplace anchor is only feasible when psi is not so strong that
        # it pulls the graph nonpositive, hence the k=1 problem here.)
        real_newton = solver.damped_newton

        def no_direct_attempt(u0, t, level, cfg=None, max_iters=None):
            rep = real_newton(u0, t, level, cfg, max_iters)
            if max_iters is not None:  # only the direct attempt caps its iterations
                rep = solver.NewtonReport(rep.u, "stalled", rep.iterations, rep.residual_norm)
            return rep

        monkeypatch.setattr(solver, "damped_newton", no_direct_attempt)
        g = disk()
        res = continuation_solve(mean_curvature_problem(g), None)
        assert res.converged
        grids = [s.grid for s in res.steps]
        assert grids == sorted(grids) and set(grids) == {(12, 12), (24, 24)}
        for grid in set(grids):
            ts = [s.t for s in res.steps if s.grid == grid]
            assert ts[0] == 0.0 and ts[-1] == 1.0
            assert ts == sorted(ts)
        assert np.max(np.abs(res.u - 1.0)) < 1e-8

    @pytest.mark.parametrize("failure", ["stalled", "inadmissible"])
    def test_step_floor(self, monkeypatch, failure):
        # every step past t = 0 fails, as a stalled Newton or as a start the
        # guard rejects: dt halves from dt_init below dt_min and the first
        # level ends at the step floor with its t = 0 step alone
        real_newton = solver.damped_newton
        iterations, tried = [], []

        def fail_past_t0(u0, t, level, cfg=None, max_iters=None):
            if 0.0 < t < 1.0:
                tried.append(t)
            if t == 0.0:
                rep = real_newton(u0, t, level, cfg, max_iters)
            elif failure == "inadmissible" and t < 1.0:
                rep = solver.NewtonReport(u0, "inadmissible", 0, np.inf, "start rejected")
            else:  # the stall also fails the direct attempt at t = 1
                rep = solver.NewtonReport(u0, "stalled", 3, 1.0)
            iterations.append(rep.iterations)
            return rep

        monkeypatch.setattr(solver, "damped_newton", fail_past_t0)
        res = continuation_solve(mean_curvature_problem(disk()), None)
        assert res.status == "step-floor"
        assert res.detail.endswith("continuation step floor reached at t=0")
        assert [(s.t, s.grid) for s in res.steps] == [(0.0, (12, 12))]
        assert tried == [0.25 / 2 ** i for i in range(8)]  # dt_init 0.25, dt_min 1e-3
        assert res.newton_total == sum(iterations)

    def test_inadmissible_start(self):
        # psi = 4 (1 - 0.4 rho) turns negative past rho = 2.5: the guard
        # refuses the coarsest level's start and its constant fallback at t = 0
        spec = ProblemSpec(grid=disk(24, 24, rho_max=3.0), k=2,
                           psi=PsiSpec("power", p=2.0, h="4*(1-0.4*rho)"),
                           phi=PhiSpec("constant", c=1.0))
        res = continuation_solve(spec, None)
        assert res.status == "inadmissible-start" and not res.converged
        assert res.newton_total == 0 and res.steps == []
        assert res.detail == ("grid 12x12: start rejected: "
                              "psi must stay finite and strictly positive")

    def test_trace_records_stages(self):
        g = disk()
        res = continuation_solve(mean_curvature_problem(g), None)
        assert res.steps[-1].t == 1.0
        assert res.residual_norm <= 1e-10


def hyperplane_problem(n, k, p, h, rho_max=0.8):
    return ProblemSpec(grid=disk(n, n, rho_max), k=k, psi=PsiSpec("power", p=p, h=h),
                       phi=PhiSpec("hyperplane", c=1.0))


def single_level(spec, cfg=None):
    """The homotopy driver on the spec's own grid, as continuation_solve ran
    it before the coarse-to-fine chain."""
    return solver._homotopy_solve(spec, cfg or ContinuationConfig(), build_initial_guess(spec))


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
        res = continuation_solve(mspec, None)
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

    def test_radial_staged_matches_single_level(self):
        # the continuation-k2-80 problem at 48^2 on a wider disk: the 12^2
        # level fails its direct attempt and steps t = 0..1; 24^2 and 48^2
        # converge in their direct attempts
        spec = hyperplane_problem(48, 2, 2, "1", rho_max=3.0)
        chain, ref = continuation_solve(spec, None), single_level(spec)
        assert chain.converged and ref.converged
        assert [s.grid for s in chain.steps[-2:]] == [(24, 24), (48, 48)]
        assert all(s.grid == (12, 12) for s in chain.steps[:-2])
        ts = [s.t for s in chain.steps[:-2]]
        assert ts[0] == 0.0 and ts[-1] == 1.0
        assert ts == sorted(ts)
        assert chain.newton_total < ref.newton_total
        assert np.max(np.abs(chain.u - ref.u)) <= 1e-12

    @pytest.mark.parametrize("k, p, h", [(1, 1, "2/u*(1+0.1*rho*cos(theta))"),
                                         (2, 2, "4*(1+0.2*rho*sin(theta))")])
    def test_non_radial_matches_single_level(self, k, p, h):
        # both converge directly, each only to the tolerance, so they agree to
        # about the tolerance and not to round-off
        spec = hyperplane_problem(96, k, p, h)
        chain, ref = continuation_solve(spec, None), single_level(spec)
        assert [s.grid for s in chain.steps] == [(12, 12), (24, 24), (48, 48), (96, 96)]
        for res in (chain, ref):
            assert res.converged
            tol = solver.resolve_newton_tol(ContinuationConfig(), spec,
                                            extrinsic_state(res.u, spec.grid))
            assert res.residual_norm <= tol
        assert np.max(np.abs(chain.u - ref.u)) <= 1e-9 * np.max(np.abs(ref.u))

    def test_a_failed_level_ends_the_solve(self, monkeypatch):
        spec = hyperplane_problem(24, 2, 2, "4*(1+0.2*rho*sin(theta))")
        real_newton = solver.damped_newton
        calls = []  # (grid shape, iterations) of every damped_newton report

        def stall_on_the_target(u0, t, level, cfg=None, max_iters=None):
            rep = real_newton(u0, t, level, cfg, max_iters)
            if level.grid is spec.grid:
                rep = solver.NewtonReport(rep.u, "stalled", rep.iterations, rep.residual_norm)
            calls.append((level.grid.shape, rep.iterations))
            return rep

        monkeypatch.setattr(solver, "damped_newton", stall_on_the_target)
        res = continuation_solve(spec, None)
        assert not res.converged
        assert res.detail.startswith("grid 24x24: ")
        assert res.u.shape == (24, 24)
        shapes = [shape for shape, _ in calls]
        assert shapes == sorted(shapes) and shapes[-1] == (24, 24)
        assert res.newton_total == sum(n for _, n in calls)

    def test_inadmissible_carry_steps_on_its_level(self):
        # the converged 12^2 field, carried up, is not 2-admissible on 24^2:
        # that level steps t = 0..1 from the carried start instead
        spec = hyperplane_problem(24, 2, 2, "4*(1+0.3*cos(3*theta)*rho)", rho_max=2.4)
        chain, ref = continuation_solve(spec, None), single_level(spec)
        assert chain.converged and ref.converged
        ts = [s.t for s in chain.steps if s.grid == (24, 24)]
        assert ts[0] == 0.0 and ts[-1] == 1.0
        assert ts == sorted(ts)
        assert np.max(np.abs(chain.u - ref.u)) <= 1e-9 * np.max(np.abs(ref.u))

    def test_carried_k2_start_is_admissible(self):
        # the continuation-k2-80 problem: its 10^2 solution, carried to 20^2,
        # passes the start guard at t = 1, so that level's direct attempt
        # runs.  The margin is thin (min sigma_2 ~ 0.008 on ring 16); a local
        # 4-point cubic in rho puts -0.22 there, and the level steps t again.
        coarse, fine = (hyperplane_problem(n, 2, 2, "1", rho_max=2.4) for n in (10, 20))
        res = single_level(coarse)
        assert res.converged
        state, _, reason = solver._start(solver._carry(res.u, fine), 1.0, fine)
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
            res = continuation_solve(spec, None)
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
        res = continuation_solve(mspec, None)
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
        res = continuation_solve(spec, None)
        state = extrinsic_state(res.u, g)
        s_plus, _ = solve_upper_barrier(spec, state)
        s_minus, _ = solve_lower_barrier(spec, state)
        bump = 0.1 * np.exp(-((g.rho_col - 0.3) / 0.15) ** 2) + np.zeros(g.shape)
        report = barrier_sandwich_check(res.u + bump, s_minus, s_plus, g)
        assert not report.passed


class TestUniqueness:
    def test_probe_returns_single_root(self):
        g = disk()
        report = uniqueness_probe(gauss_curvature_problem(g), None, n_starts=3, seed=1)
        assert report.all_converged
        assert report.max_pairwise_distance <= 1e-8

    def test_probe_is_seed_deterministic(self):
        g = disk(16, 16)
        spec = gauss_curvature_problem(g)
        a = uniqueness_probe(spec, None, n_starts=2, seed=7)
        b = uniqueness_probe(spec, None, n_starts=2, seed=7)
        assert a.max_pairwise_distance == b.max_pairwise_distance


class TestPointwiseInequalities:
    def test_maclaurin_ordering_on_solutions(self):
        g = disk()
        for spec in (mean_curvature_problem(g), gauss_curvature_problem(g)):
            res = continuation_solve(spec, None)
            st = geom.extrinsic_state(res.u, g)
            m1, m2 = maclaurin_ordering_margins(st, spec.k, g)
            assert m1 >= -1e-10
            assert m2 >= -1e-10
            assert newton_inequality_min_slack(st, g) >= -1e-10
