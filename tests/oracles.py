"""Reference implementations for the tests: a sparse matrix built one unit
vector at a time, the chart's stencils written out as sparse matrices, the
Laplace-Beltrami operator from the array stencils, the Laplace system from
the stencil matrices and its solve by a Thomas sweep over the rings, the
residual's node-local map sigma_k - psi (psi from its parts) with its
partials by complex step, the Jacobian as a weighted sum of stencil
matrices, an expression's partials
to second order by complex step and Richardson-extrapolated central
differences, sigma_k tabulated from the full state of a finer grid, the
report's curvature quantities
built beside the state as the full state once held them, and the graph's
points, tangents and unit normal as vectors in Minkowski R^3, <a, b> =
a1 b1 + a2 b2 - a3 b3; and a problem with an exact non-radial solution, the
off-centre hyperboloid, whose boundary data depend on theta."""

import dataclasses

import numpy as np
import scipy.sparse as sp

from weingarten import geom
from weingarten.hchart import (
    Grid, covariant_gradient, covariant_hessian, partial_rho, partial_rho2, partial_theta2,
)
from weingarten.problem import PhiSpec, ProblemSpec, PsiSpec, spline_rows


def matrix_from_columns(column, n: int) -> sp.csc_matrix:
    """The n-column sparse matrix whose column c is ``column(e_c)``."""
    rows, vals, indptr = [], [], [0]
    for c in range(n):
        e = np.zeros(n)
        e[c] = 1.0
        col = np.ravel(column(e))
        nz = np.flatnonzero(col)
        rows.append(nz)
        vals.append(col[nz])
        indptr.append(indptr[-1] + nz.size)
    return sp.csc_matrix((np.concatenate(vals), np.concatenate(rows), indptr),
                         shape=(col.size, n))


@dataclasses.dataclass(frozen=True)
class StencilMatrices:
    """Sparse matrix forms of the derivative stencils of ``weingarten.hchart``
    (flat node ordering), written out entry by entry.

    ``hess_rt`` and ``hess_tt`` are the covariant Hessian component operators,
    i.e. they include the Christoffel corrections.  The matrices reproduce
    ``partial_rho`` etc., ghost handling included.
    """

    d_rho: sp.csr_matrix
    d_theta: sp.csr_matrix
    d_rho2: sp.csr_matrix
    d_theta2: sp.csr_matrix
    hess_rt: sp.csr_matrix
    hess_tt: sp.csr_matrix


def derivative_matrices(grid) -> StencilMatrices:
    """Build the stencil operators as sparse matrices."""
    nr, nt = grid.shape
    n = nr * nt
    h, dth, shift = grid.d_rho, grid.d_theta, grid.pole_shift
    idx = np.arange(n).reshape(nr, nt)
    J = np.arange(nt)

    def build(entries):
        rows = np.concatenate([np.ravel(r) for r, _, _ in entries])
        cols = np.concatenate([np.ravel(c) for _, c, _ in entries])
        vals = np.concatenate(
            [np.full(np.size(r), v, dtype=float) for r, _, v in entries]
        )
        return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()

    I = np.arange(1, nr - 1)[:, None]
    ghost_cols = idx[0, (J + shift) % nt]

    d_rho = build([
        (idx[I, J], idx[I + 1, J], 1.0 / (2 * h)),
        (idx[I, J], idx[I - 1, J], -1.0 / (2 * h)),
        (idx[0, J], idx[1, J], 1.0 / (2 * h)),
        (idx[0, J], ghost_cols, -1.0 / (2 * h)),
        (idx[-1, J], idx[-1, J], 3.0 / (2 * h)),
        (idx[-1, J], idx[-2, J], -4.0 / (2 * h)),
        (idx[-1, J], idx[-3, J], 1.0 / (2 * h)),
    ])
    d_rho2 = build([
        (idx[I, J], idx[I + 1, J], 1.0 / h ** 2),
        (idx[I, J], idx[I, J], -2.0 / h ** 2),
        (idx[I, J], idx[I - 1, J], 1.0 / h ** 2),
        (idx[0, J], idx[1, J], 1.0 / h ** 2),
        (idx[0, J], idx[0, J], -2.0 / h ** 2),
        (idx[0, J], ghost_cols, 1.0 / h ** 2),
        (idx[-1, J], idx[-1, J], 2.0 / h ** 2),
        (idx[-1, J], idx[-2, J], -5.0 / h ** 2),
        (idx[-1, J], idx[-3, J], 4.0 / h ** 2),
        (idx[-1, J], idx[-4, J], -1.0 / h ** 2),
    ])
    A = np.arange(nr)[:, None]
    d_theta = build([
        (idx[A, J], idx[A, (J + 1) % nt], 1.0 / (2 * dth)),
        (idx[A, J], idx[A, (J - 1) % nt], -1.0 / (2 * dth)),
    ])
    d_theta2 = build([
        (idx[A, J], idx[A, (J + 1) % nt], 1.0 / dth ** 2),
        (idx[A, J], idx[A, J], -2.0 / dth ** 2),
        (idx[A, J], idx[A, (J - 1) % nt], 1.0 / dth ** 2),
    ])
    coth = np.ravel(grid.coth_rho + np.zeros(grid.shape))
    sc = np.ravel(grid.sinh_rho * grid.cosh_rho + np.zeros(grid.shape))
    hess_rt = (d_theta @ d_rho - sp.diags(coth) @ d_theta).tocsr()
    hess_tt = (d_theta2 + sp.diags(sc) @ d_rho).tocsr()
    return StencilMatrices(d_rho, d_theta, d_rho2, d_theta2, hess_rt, hess_tt)


def laplace_beltrami(u, grid):
    """Laplace-Beltrami operator: the metric trace of the covariant Hessian,

        Lap u = d2u/drho2 + coth(rho) du/drho + d2u/dtheta2 / sinh(rho)^2,

    as H_rr + H_tt / sinh(rho)^2 with the covariant Hessian's formulas.
    """
    H_tt = partial_theta2(u, grid) + grid.sinh_rho * grid.cosh_rho * partial_rho(u, grid)
    return partial_rho2(u, grid) + H_tt / grid.sinh_rho ** 2


def laplace_system(grid) -> sp.csc_matrix:
    """The solver's Laplace operator as a sparse matrix: Laplace-Beltrami rows
    d_rho2 + coth(rho) d_rho + d_theta2 / sinh(rho)^2 from the stencil
    matrices on the interior, identity rows on the boundary ring."""
    mats = derivative_matrices(grid)
    coth = np.repeat(grid.coth_rho.ravel(), grid.n_theta)
    inv_s2 = np.repeat(1.0 / grid.sinh_rho.ravel() ** 2, grid.n_theta)
    lap = mats.d_rho2 + sp.diags(coth) @ mats.d_rho + sp.diags(inv_s2) @ mats.d_theta2
    interior = grid.interior_mask.ravel().astype(float)
    return (sp.diags(interior) @ lap + sp.diags(1.0 - interior)).tocsc()


def thomas_laplace_solve(grid, b):
    """Solve the Laplace system L x = b: real FFT in theta, then one Thomas
    sweep over the rings for all n_theta/2 + 1 radial systems at once (the
    rows that ``solver._ring_factors`` builds for the Laplace-Beltrami
    weights), inverse FFT."""
    h, dth = grid.d_rho, grid.d_theta
    coth = grid.coth_rho[:, 0]
    inv_s2 = 1.0 / grid.sinh_rho[:, 0] ** 2
    m = np.arange(grid.n_theta // 2 + 1)
    mu = -4.0 * np.sin(0.5 * m * dth) ** 2 / dth ** 2
    lower = 1.0 / h ** 2 - coth / (2.0 * h)
    upper = 1.0 / h ** 2 + coth / (2.0 * h)
    main = -2.0 / h ** 2 + inv_s2[:, None] * mu[None, :]
    main[0] += np.where(m % 2 == 0, 1.0, -1.0) * lower[0]
    lower[0] = 0.0
    lower[-1], upper[-1] = 0.0, 0.0
    main[-1] = 1.0
    inv_pivot = np.empty_like(main)
    c_prime = np.empty_like(main)
    inv_pivot[0] = 1.0 / main[0]
    c_prime[0] = upper[0] * inv_pivot[0]
    for i in range(1, grid.n_rho):
        inv_pivot[i] = 1.0 / (main[i] - lower[i] * c_prime[i - 1])
        c_prime[i] = upper[i] * inv_pivot[i]
    x = np.fft.rfft(b, axis=1)
    x[0] *= inv_pivot[0]
    for i in range(1, grid.n_rho):
        x[i] -= lower[i] * x[i - 1]
        x[i] *= inv_pivot[i]
    for i in range(grid.n_rho - 2, -1, -1):
        x[i] -= c_prime[i] * x[i + 1]
    return np.fft.irfft(x, n=grid.n_theta, axis=1)


# Complex-step size for the node-local partial derivatives; no subtractive
# cancellation occurs, so it only needs to avoid underflow in squares.
CS_EPS = 1e-30


def psi_values(psi, rho, theta, u, support):
    """psi of each family from its parts ``psi.h``, ``psi.p`` and
    ``psi.table``, with no cast or positivity check, so it also takes
    complex input (``PsiSpec.evaluate`` returns float64)."""
    if psi.family == "tabulated":
        return psi.table + 0.0 * u
    hv = psi.h(rho=rho, theta=theta, u=u)
    if psi.family == "power":
        return support ** psi.p * hv
    return np.exp(psi.p * support) * hv


def local_residual(spec, u, u_r, u_t, H_rr, H_rt, H_tt):
    """The residual sigma_k - psi as a node-local (complex-analytic) function
    of the six chart quantities, from ``geom.graph_geometry`` and psi."""
    grid = spec.grid
    v, _, _, sigma1, sigma2 = geom.graph_geometry(u, u_r, u_t, H_rr, H_rt, H_tt, grid.sinh_rho)
    sig = sigma1 if spec.k == 1 else sigma2
    return sig - psi_values(spec.psi, grid.rho_col, grid.theta_row, u, u / v)


def jacobian_weights(state, spec):
    """The partials w_0..w_5 of :func:`local_residual` with respect to the
    chart slots (u, u_rho, u_theta, H_rr, H_rt, H_tt), one complex step per
    slot, rounded to float64.  The steps run in extended precision
    (np.clongdouble, a 64-bit significand on x86-64): in double precision the
    local map's own cancellations leave errors up to 1.2e-13 of a slot's
    largest weight (the u_theta slot on the pole ring, k = 2, rho_max 2.4),
    more than the closed-form weights are tested to."""
    slots = [np.asarray(a, dtype=np.longdouble)
             for a in (state.u, state.u_rho, state.u_theta, state.H_rr, state.H_rt, state.H_tt)]
    step = np.longdouble(CS_EPS)
    weights = []
    for m in range(len(slots)):
        pert = list(slots)
        pert[m] = pert[m] + np.clongdouble(1j) * step
        weights.append((np.imag(local_residual(spec, *pert)) / step).astype(float))
    return tuple(weights)


def jacobian(state, spec) -> sp.csr_matrix:
    """The Jacobian dR/du as the sum of the identity and the stencil matrices,
    each row scaled by the complex-step partial of the local residual with
    respect to its chart slot, with identity rows on the boundary."""
    return stencil_operator(spec.grid, jacobian_weights(state, spec))


def stencil_operator(grid, weights) -> sp.csr_matrix:
    """sum_m w_m times the stencil matrix of chart slot m (u, u_rho, u_theta,
    H_rr, H_rt, H_tt) on the interior rows, identity rows on the boundary;
    each weight broadcasts to the grid's shape."""
    weights = [np.ravel(np.broadcast_to(w, grid.shape)) for w in weights]
    mats = derivative_matrices(grid)
    ops = [
        sp.identity(grid.n_nodes, format="csr"),
        mats.d_rho,
        mats.d_theta,
        mats.d_rho2,
        mats.hess_rt,
        mats.hess_tt,
    ]
    M = sum(op.multiply(w[:, None]).tocsr() for op, w in zip(ops, weights))
    interior = grid.interior_mask.ravel().astype(float)
    J = sp.diags(interior) @ M + sp.diags(1.0 - interior)
    return J.tocsr()


# Imaginary step of the first partials; no subtraction, so only underflow bounds it.
_COMPLEX_STEP = 1e-30


def _richardson(central, step: float, levels: int):
    """The limit as d -> 0 of central(d) = D + c1 d^2 + c2 d^4 + ..., from
    the steps step / 2^j, j < levels, by Richardson's extrapolation."""
    table = [central(step / 2 ** j) for j in range(levels)]
    for m in range(1, levels):
        table = [b + (b - a) / (4 ** m - 1) for a, b in zip(table, table[1:])]
    return table[0]


def expr_partials(expr, rho, theta, rho_step=0.02, theta_step=0.05, levels=5):
    """(f, f_rho, f_theta, f_rho_rho, f_rho_theta, f_theta_theta) of the
    ``problem.Expr`` over (rho, theta) at the given points, from the
    expression itself: the first partials by complex step, exact to
    rounding, and the second partials as central differences of those with
    steps step / 2^j, j < levels, Richardson-extrapolated (truncation
    O(step^(2 levels))).  The rho steps must stay below the smallest rho."""
    h = _COMPLEX_STEP

    def f_rho(r, t):
        return np.imag(expr(rho=r + 1j * h, theta=t)) / h

    def f_theta(r, t):
        return np.imag(expr(rho=r, theta=t + 1j * h)) / h

    def d_rho(g):
        return _richardson(lambda d: (g(rho + d, theta) - g(rho - d, theta)) / (2.0 * d),
                           rho_step, levels)

    def d_theta(g):
        return _richardson(lambda d: (g(rho, theta + d) - g(rho, theta - d)) / (2.0 * d),
                           theta_step, levels)

    zero = 0.0 * (rho + theta)
    return (expr(rho=rho, theta=theta) + zero, f_rho(rho, theta) + zero,
            f_theta(rho, theta) + zero, d_rho(f_rho) + zero, d_theta(f_rho) + zero,
            d_theta(f_theta) + zero)


def full_state_sigma_k_table(u_fn, grid, k, refine=4):
    """sigma_k of the graph u_fn(rho, theta) tabulated on a finer grid: the
    full ``geom.ExtrinsicState`` on a ``refine`` times finer grid, its
    sigma_k on every ``refine``-th theta line, and the rings splined down to
    ``grid`` by ``problem.spline_rows``.  Its error against the exact values
    is the fine grid's truncation error, O((h / refine)^2)."""
    fine = Grid(grid.chart, refine * grid.n_rho, refine * grid.n_theta)
    U = np.broadcast_to(np.asarray(u_fn(fine.rho_col, fine.theta_row), dtype=float), fine.shape)
    vals = geom.extrinsic_state(U, fine).sigma_k(k)
    return spline_rows(vals[:, ::refine], fine.rho[0], fine.d_rho, grid.rho)


def full_state_report_quantities(u, grid) -> dict:
    """The reference for ``geom.state_curvatures``, ``geom.inverse_metric``
    and ``ExtrinsicState.norm_a_sq``: lam1, lam2, g^{ij}, sigma_1, sigma_2
    and |A|^2 of the graph u built in one pass beside the kernel, as the full
    per-node state of every ``extrinsic_state`` call once held them."""
    U = np.asarray(u, dtype=float)
    u_r, u_t, _ = covariant_gradient(U, grid)
    H_rr, H_rt, H_tt = covariant_hessian(U, u_r, u_t, grid)
    v, g, h, sigma1, sigma2 = geom.graph_geometry(U, u_r, u_t, H_rr, H_rt, H_tt, grid.sinh_rho)
    lam1, lam2 = geom.principal_curvatures(*h, *g)
    # g^{ij} = u^{-2} (sigma^{ij} + u^i u^j / (u^2 v^2)), indices raised by sigma
    s2 = grid.sinh_rho ** 2
    u2v2 = U ** 2 * v ** 2
    inv_scale = 1.0 / U ** 2
    return {
        "lam1": lam1,
        "lam2": lam2,
        "ginv_rr": inv_scale * (1.0 + u_r ** 2 / u2v2),
        "ginv_rt": inv_scale * (u_r * u_t / s2) / u2v2,
        "ginv_tt": inv_scale * (1.0 / s2 + (u_t / s2) ** 2 / u2v2),
        "sigma1": sigma1,
        "sigma2": sigma2,
        "norm_a_sq": sigma1 ** 2 - 2.0 * sigma2,
    }


def lorentz_inner(p, q):
    """Minkowski inner product of stacked vectors (components along axis 0)."""
    return p[0] * q[0] + p[1] * q[1] - p[2] * q[2]


def hyperboloid_frame(rho, theta):
    """Point x on the unit hyperboloid and its coordinate tangents x_rho, x_theta."""
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    s, c = np.sinh(rho), np.cosh(rho)
    ct, st = np.cos(theta), np.sin(theta)
    x = np.stack(np.broadcast_arrays(s * ct, s * st, c + 0.0 * st))
    x_rho = np.stack(np.broadcast_arrays(c * ct, c * st, s + 0.0 * st))
    x_theta = np.stack(np.broadcast_arrays(-s * st, s * ct, 0.0 * (s * ct)))
    return x, x_rho, x_theta


def embed(rho, theta, u):
    """Ambient position u(x) * x of the graph point over (rho, theta)."""
    x, _, _ = hyperboloid_frame(rho, theta)
    return np.asarray(u, dtype=float) * x


def ambient_tangents(rho, theta, u, u_rho, u_theta):
    """Ambient tangent vectors u x_i + u_i x of the graph."""
    x, x_r, x_t = hyperboloid_frame(rho, theta)
    X_r = u * x_r + u_rho * x
    X_t = u * x_t + u_theta * x
    return X_r, X_t


def ambient_normal(rho, theta, u, u_rho, u_theta, v):
    """Future-directed unit normal (x + sigma^{ij} u_j x_i / u) / v."""
    x, x_r, x_t = hyperboloid_frame(rho, theta)
    s2 = np.sinh(np.asarray(rho, dtype=float)) ** 2
    up_r = u_rho
    up_t = u_theta / s2
    return (x + (up_r * x_r + up_t * x_t) / u) / v


@dataclasses.dataclass
class HyperboloidProblem(ProblemSpec):
    """The Dirichlet problem solved by the hyperboloid <X - P, X - P> = -r^2
    centred at P = (p, 0, 0): its radial graph is u = -q + sqrt(q^2 + p^2 +
    r^2), q = p sinh(rho) cos(theta), and it is umbilic with every principal
    curvature 1/r.  phi is that u, on the boundary ring and over the grid,
    so it depends on theta; the ``phi`` field is not read for values.  Its
    family (hyperplane, not constant) gives the solver the tolerance of
    non-constant data."""

    p: float = 0.3
    r: float = 1.0

    def exact(self, rho, theta):
        q = self.p * np.sinh(rho) * np.cos(theta)
        return -q + np.sqrt(q * q + self.p ** 2 + self.r ** 2)

    def phi_field(self) -> np.ndarray:
        return self.exact(self.grid.rho_col, self.grid.theta_row)

    def boundary_values(self) -> np.ndarray:
        return self.exact(self.grid.rho[-1], self.grid.theta)


def hyperboloid_problem(grid, k, p=0.3, r=1.0) -> HyperboloidProblem:
    """sigma_k = psi with psi the hyperboloid's constant sigma_k: 2/r for
    k = 1, 1/r^2 for k = 2."""
    psi = PsiSpec("power", p=0.0, h=2.0 / r if k == 1 else 1.0 / r ** 2)
    return HyperboloidProblem(grid=grid, k=k, psi=psi, phi=PhiSpec("hyperplane", c=1.0),
                              p=p, r=r)
