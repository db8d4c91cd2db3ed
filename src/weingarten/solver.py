"""Discrete solver for the prescribed-curvature Dirichlet problem.

The residual is

    R_i = sigma_k[u](x_i) - psi(x_i, u_i, support_i)

at interior nodes, with boundary rows enforcing u = phi.  Newton's method
runs with a backtracking line search, and one guard judges its start and
every trial: a spacelike graph, k-admissible interior nodes, and psi finite
and positive.  Newton returns every outcome, with status converged,
max-iterations, stalled or inadmissible (a refused start, the reason in
``detail``).  Each level of the solve first tries the problem directly and
falls back to continuation in the data, the continuity method of the
existence proof: from an anchor u_a, the root at t = 0, it solves
R(u) - (1 - t) R(u_a) = 0 for t stepping adaptively up to 1.  Inside that
reads sigma_k[u] = t psi + (1 - t) sigma_k[u_a], and on the boundary
u = t phi + (1 - t) u_a, so every step keeps the equation, its Jacobian and
its guard.  The anchor is the level's start when the guard accepts it, else
the constant graph :func:`constant_guess`: u = c is umbilic with curvature
1/c, so it lies in every cone and only psi can refuse it.

The continuation runs coarse to fine: the homotopy driver runs on each grid
of a halving chain (both counts halve while n_rho is even, n_theta is
divisible by 4 and at least 8, and at least 10 rings remain), and each
level's solution is carried to the next grid as its start.  Discrete
solutions on successive grids differ by O(h^2), so a carried solution starts
inside Newton's quadratic basin, and the direct attempt on a finer grid
needs two or three iterations; a carried start that fails it steps t on its
own level.  A tabulated psi exists on one grid only, so its chain has one
level.  The first level that fails ends the solve.  Each step of the solve
records its grid, and the iteration total sums all levels.

The production Jacobian is the analytic linearisation: the residual is a
node-local function of (u, u_rho, u_theta, and the covariant Hessian
components), namely geom's kernel :func:`geom.graph_geometry` and psi.  Both
the residual and the Jacobian take the :class:`geom.ExtrinsicState` of the
field, which carries these chart quantities.  So dR/du factors into exact
per-node partial derivatives composed with the chart's stencils.  The
partials are closed forms in the
state's real arrays (:func:`geom._linearisation`, :meth:`PsiSpec.partials`):
for the Hessian slots sigma_k's are the Newton tensor T_{k-1} in cofactor
form, the linearisation the paper's estimates rest on.  Finite differences of
the residual would not do: the pole ring's metric factor 1/sinh(rho)^2 ~ 1/h^2
makes its huge entries cancel to O(1) physical couplings, which finite
differences cannot resolve on fine grids.  GMRES asks the Jacobian only for
products and its diagonal, so no matrix is formed: a product applies the
array stencils of :mod:`hchart` (the same functions that build the state) to
the direction field and weights the results node by node, and boundary rows
are identity rows.

No linear solve factors a sparse matrix.  An operator w0 x + w1 x_rho +
w3 H_rr + w5 H_tt whose coefficients are constant on each ring is invariant
under rotation, so a real FFT in theta splits it into n_theta/2 + 1
tridiagonal radial systems, one per Fourier mode m; the across-pole ghost
couples mode m of ring 0 to itself with the sign (-1)^m.  The systems are
real, so the real and imaginary parts of each mode's coefficients are two
right-hand sides of one matrix, and :class:`tridiag.CyclicReduction` solves
all of them at once by cyclic reduction over the rings.  The Laplace
operator L (Laplace-Beltrami rows inside, identity rows on the boundary
ring) is such an operator, with w = (0, 0, 1, 1/sinh^2 rho): its solve is
the exact harmonic extension.  A Newton correction J x = b (staged steps,
the direct attempt and the barrier solves alike) is solved by GMRES on the
rows divided by their diagonal, right-preconditioned by
y -> P^{-1}(diag(P) y) with P the Jacobian's ring-mean operator: the
theta-means of J's weights w0, w1, w3 and w5 on each ring, built afresh for
every correction.  Both operators then
have a unit diagonal, and their product is close to the identity wherever J
varies little along the rings; on a theta-independent state P is J, and
GMRES stops after one iteration.  J's u_theta and H_rt weights would couple
the real and imaginary parts of the modes, so P leaves them out; they vanish
on a theta-independent state.  GMRES is written here with numpy reductions
for every inner product and norm, not BLAS calls, and the cyclic reduction
is elementwise numpy arithmetic, so results do not depend on BLAS thread
counts.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
# numpy loads these on first use; loading them with the package keeps that
# cost in start-up, not in the first solve
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

from . import geom, hchart, tridiag
from .hchart import Grid
from .problem import ProblemSpec, PsiSpec, spline_rows

__all__ = [
    "NewtonReport",
    "ContinuationStep",
    "SolveResult",
    "SandwichReport",
    "UniquenessReport",
    "JacobianOperator",
    "assemble_residual",
    "assemble_jacobian",
    "linear_solve",
    "damped_newton",
    "harmonic_extension",
    "constant_guess",
    "build_initial_guess",
    "continuation_solve",
    "solve_upper_barrier",
    "solve_lower_barrier",
    "barrier_sandwich_check",
    "uniqueness_probe",
]


def __getattr__(name):
    # Nothing here calls spsolve, but the benchmark's tracer (perfbench/
    # tracer.py) looks the name up in this module; scipy is imported only then.
    if name == "spsolve":
        from scipy.sparse.linalg import spsolve
        globals()["spsolve"] = spsolve
        return spsolve
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# --- residual ----------------------------------------------------------------


def assemble_residual(state: geom.ExtrinsicState, spec: ProblemSpec) -> np.ndarray:
    """Residual field sigma_k - psi at the graph of ``state``; boundary rows
    hold u - phi.  Raises ValueError when psi is not finite and positive
    there."""
    R = state.sigma_k(spec.k) - spec.psi_field(state.u, state.theta_support)
    R[-1, :] = state.u[-1, :] - spec.boundary_values()
    return R


@dataclasses.dataclass(frozen=True, eq=False)
class JacobianOperator:
    """The Jacobian dR/du at one state, as the products and the diagonal that
    :func:`linear_solve` asks of it (fields flattened in the grid's node
    order).  ``weights`` holds the per-node partials w_0..w_5 of the local
    residual with respect to the chart slots (u, u_rho, u_theta, H_rr, H_rt,
    H_tt); their boundary-ring values are not used."""

    grid: Grid
    weights: tuple

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """Interior rows: sum_m w_m times slot m of the chart data of x, from
        the same stencils as :func:`geom.extrinsic_state`; boundary rows: x."""
        grid = self.grid
        x = np.reshape(x, grid.shape)
        x_r = hchart.partial_rho(x, grid)
        x_t = hchart.partial_theta(x, grid)
        H_rr, H_rt, H_tt = hchart.covariant_hessian(x, x_r, x_t, grid)
        w0, w1, w2, w3, w4, w5 = self.weights
        y = w0 * x + w1 * x_r + w2 * x_t + w3 * H_rr + w4 * H_rt + w5 * H_tt
        y[-1] = x[-1]
        return y.ravel()

    def diagonal(self) -> np.ndarray:
        """Only u, d^2/drho^2 and d^2/dtheta^2 put a node on its own row, with
        the stencil weights -2/d_rho^2 and -2/d_theta^2; boundary rows hold 1."""
        w0, _, _, w3, _, w5 = self.weights
        d = w0 + w3 * (-2.0 / self.grid.d_rho ** 2) + w5 * (-2.0 / self.grid.d_theta ** 2)
        d[-1] = 1.0
        return d.ravel()


def assemble_jacobian(state: geom.ExtrinsicState, spec: ProblemSpec) -> JacobianOperator:
    """Analytic Jacobian dR/du at the graph of ``state``.

    The residual is a node-local function of the state's chart data (u,
    u_rho, u_theta, H_rr, H_rt, H_tt): sigma_k minus psi(rho, theta, u,
    u / v).  Its per-node partials w_m are written out in closed form:
    sigma_k's and the support's from :func:`geom._linearisation`, psi's from
    :meth:`PsiSpec.partials`; psi takes no Hessian slot.  The returned
    operator composes the weights with the chart's stencils."""
    grid = spec.grid
    dsig, dsupport = geom._linearisation(state, spec.k, grid.sinh_rho)
    psi_u, psi_s = spec.psi.partials(grid.rho_col, grid.theta_row, state.u, state.theta_support)
    dpsi = (psi_u + psi_s * dsupport[0], psi_s * dsupport[1], psi_s * dsupport[2])
    del dsupport, psi_u, psi_s
    return JacobianOperator(grid, (dsig[0] - dpsi[0], dsig[1] - dpsi[1], dsig[2] - dpsi[2],
                                   *dsig[3:]))


# --- linear solves --------------------------------------------------------------


def _ring_factors(grid: Grid, w0, w1, w3, w5):
    """The cyclic-reduction plan of the per-mode radial systems of the
    operator w0 x + w1 x_rho + w3 H_rr + w5 H_tt (H the covariant Hessian of
    x) with coefficients constant on each ring: w5 is a column of ring
    values, and w0, w1 and w3 are columns or scalars.

    Interior ring i of Fourier mode m reads, from hchart's stencils,

        (w3/h^2 - c_i) x_{i-1} + (w0 - 2 w3/h^2 + w5 mu_m) x_i + (w3/h^2 + c_i) x_{i+1},
        c_i = (w1 + w5 sinh rho_i cosh rho_i)/(2h),  mu_m = -4 sin^2(m dtheta/2)/dtheta^2,

    ring 0's ghost x_{-1} = (-1)^m x_0 is folded into its diagonal, and the
    boundary ring is an identity row.  The matrices are real, so the real and
    imaginary parts of a complex Fourier coefficient are two columns with the
    same system: mode m owns columns 2m and 2m + 1 of the float64 view of the
    coefficients.  Returns (plan, diag): plan a :class:`tridiag.CyclicReduction`
    over the rings for those n_theta + 2 columns, and diag[i] the diagonal of
    the stencil rows of ring i, as a column.
    """
    h, dth = grid.d_rho, grid.d_theta
    m = np.arange(grid.n_theta // 2 + 1)
    mu = -4.0 * np.sin(0.5 * m * dth) ** 2 / dth ** 2
    drift = (w1 + w5 * grid.sinh_rho * grid.cosh_rho) / (2.0 * h)
    lower = w3 / h ** 2 - drift
    upper = w3 / h ** 2 + drift
    main = (w0 - 2.0 * w3 / h ** 2) + w5 * mu
    main[0] += np.where(m % 2 == 0, 1.0, -1.0) * lower[0]
    lower[-1], upper[-1] = 0.0, 0.0
    main[-1] = 1.0
    diag = w0 - 2.0 * w3 / h ** 2 - 2.0 * w5 / dth ** 2
    diag[-1] = 1.0
    plan = tridiag.CyclicReduction(lower, np.repeat(main, 2, axis=1), upper, 2 * m.size)
    return plan, diag


def _ring_solve(plan: tridiag.CyclicReduction, b: np.ndarray) -> np.ndarray:
    """Solve P x = b for the operator P of a :func:`_ring_factors` plan (b and
    x of the grid's shape): real FFT in theta, one cyclic-reduction solve over
    the rings for all modes at once, inverse FFT."""
    coeffs = np.fft.rfft(b, axis=1)
    plan.solve(coeffs.view(np.float64), out=coeffs.view(np.float64))
    return np.fft.irfft(coeffs, n=b.shape[1], axis=1)


def _laplace_solve(grid: Grid, b: np.ndarray) -> np.ndarray:
    """Solve L x = b for the Laplace operator L on ``grid``: the Laplace-
    Beltrami rows H_rr + H_tt/sinh^2 rho inside, identity rows on the
    boundary ring."""
    plan, _ = _ring_factors(grid, 0.0, 0.0, 1.0, 1.0 / grid.sinh_rho ** 2)
    return _ring_solve(plan, b)


def _norm(v: np.ndarray) -> float:
    return float(np.sqrt(np.sum(v * v)))


def _gmres(apply, b: np.ndarray) -> np.ndarray:
    """Unrestarted GMRES from zero for apply(y) = b, with classical Gram-
    Schmidt run twice and Givens rotations.  Stops once the residual norm is
    at most _KRYLOV_RTOL |b|, or after _KRYLOV_MAX_ITERS iterations with the
    last iterate.  The basis vectors are the rows of one array, so each pass
    takes its inner products in one reduction; the array grows by
    _KRYLOV_BLOCK rows as the iterations need them."""
    beta = _norm(b)
    if beta == 0.0:
        return np.zeros_like(b)
    size = _KRYLOV_MAX_ITERS
    H = np.zeros((size + 1, size))
    cs, sn = np.zeros(size), np.zeros(size)
    g = np.zeros(size + 1)
    g[0] = beta
    V = np.empty((_KRYLOV_BLOCK, b.size))
    np.divide(b, beta, out=V[0])
    for j in range(size):
        w = apply(V[j])
        for _ in range(2):
            h = np.sum(V[: j + 1] * w, axis=1)
            for h_i, v in zip(h, V):
                w -= h_i * v
            H[: j + 1, j] += h
        h_next = _norm(w)
        for i in range(j):
            H[i, j], H[i + 1, j] = (cs[i] * H[i, j] + sn[i] * H[i + 1, j],
                                    cs[i] * H[i + 1, j] - sn[i] * H[i, j])
        r = math.hypot(H[j, j], h_next)
        cs[j], sn[j] = H[j, j] / r, h_next / r
        H[j, j] = r
        g[j + 1] = -sn[j] * g[j]
        g[j] *= cs[j]
        if abs(g[j + 1]) <= _KRYLOV_RTOL * beta or h_next == 0.0:
            break
        if j + 1 == V.shape[0]:
            V = np.concatenate((V, np.empty((_KRYLOV_BLOCK, b.size))))
        np.divide(w, h_next, out=V[j + 1])
    k = j + 1
    y = np.zeros(k)
    for i in range(k - 1, -1, -1):
        y[i] = (g[i] - np.sum(H[i, i + 1:k] * y[i + 1:k])) / H[i, i]
    x = y[0] * V[0]
    for y_i, v in zip(y[1:], V[1:]):
        x += y_i * v
    return x


def linear_solve(J: JacobianOperator, rhs: np.ndarray, grid: Grid) -> np.ndarray:
    """Solve J x = rhs for a Newton Jacobian on ``grid``: GMRES on the rows of
    J divided by their diagonal (a zero diagonal counts as 1), right-
    preconditioned by y -> P^{-1}(diag(P) y) with P J's ring-mean operator,
    built from the theta-means of the weights w0, w1, w3 and w5 (w2 and w4
    are left out; on a theta-independent state they vanish and P is J)."""
    plan, diag_p = _ring_factors(
        grid, *(np.mean(J.weights[m], axis=1, keepdims=True) for m in (0, 1, 3, 5)))
    d = J.diagonal()
    d[d == 0.0] = 1.0

    def precondition(y):
        return _ring_solve(plan, diag_p * y.reshape(grid.shape)).ravel()

    return precondition(_gmres(lambda y: (J @ precondition(y)) / d, rhs / d))


# --- Newton ------------------------------------------------------------------


# The line search gives up once the step length falls below this.
_DAMPING_FLOOR = 2.0 ** -20
# Newton iterations allowed to the direct attempt at the target problem, and
# to every other Newton solve.
_DIRECT_MAX_ITERS = 15
_MAX_NEWTON_ITERS = 30
# GMRES stops once its (Givens) residual estimate is this small relative to
# the right-hand side, or after this many iterations with its last iterate,
# which the line search then judges like any other step.  The true residual
# levels off near 5e-12 at 256^2 while the estimate keeps falling, so the test
# ends one or two iterations past 1e-10, and the step then agrees with a direct
# solve to ~1e-10 where 1e-10 would leave 1e-9 to 1e-8 (128^2, k = 2).
_KRYLOV_RTOL = 1e-12
_KRYLOV_MAX_ITERS = 60
# Rows by which GMRES's basis array grows: a few iterations are the rule, and
# all 61 rows at once would be 32 MB at 256^2.
_KRYLOV_BLOCK = 8


@dataclasses.dataclass
class NewtonReport:
    """Outcome of :func:`damped_newton`; ``detail`` is set for a refused start."""

    u: np.ndarray
    status: str  # converged | max-iterations | stalled | inadmissible
    iterations: int
    residual_norm: float
    detail: str = ""

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def resolve_newton_tol(spec: ProblemSpec, state) -> float:
    """Residual tolerance: 1e-10 when both psi and phi are constant (exactly
    solvable data), else 1e-8 * sup |psi|."""
    if spec.psi.is_constant and spec.phi.family == "constant":
        return 1e-10
    psi = spec.psi_field(state.u, state.theta_support)
    return 1e-8 * max(float(np.max(np.abs(psi))), 1e-8)


def _cone_residual(state: geom.ExtrinsicState, spec: ProblemSpec):
    """The guard past the spacelike test: (R, "") with R the residual at
    ``state``, or (None, reason) when an interior node lies outside the
    k-admissible cone (the first one is named), or when psi is not finite
    and positive."""
    bad = ~state.admissible_mask(spec.k) & spec.grid.interior_mask
    if np.any(bad):
        node = spec.grid.node_label(int(np.argmax(bad)))
        return None, f"not {spec.k}-admissible at {node}"
    try:
        return assemble_residual(state, spec), ""
    except ValueError as exc:
        return None, str(exc)


def _start(u, spec: ProblemSpec):
    """The guard on a Newton start: (state, R, "") or (None, None, reason),
    with R the residual at u.  Its state is built here: perfbench/tracer.py
    counts the extrinsic_state calls made in :func:`damped_newton` itself as
    line-search trials."""
    try:
        state = geom.extrinsic_state(u, spec.grid)
    except (geom.NotSpacelikeError, geom.InvalidGraphError) as exc:
        return None, None, f"start rejected: {exc}"
    R, reason = _cone_residual(state, spec)
    return state, R, reason and f"start rejected: {reason}"


def damped_newton(u0, spec: ProblemSpec, max_iters: int = _MAX_NEWTON_ITERS,
                  offset=None) -> NewtonReport:
    """Damped Newton iteration on R(u) = ``offset`` (a field of the grid's
    shape; None solves R(u) = 0 with no extra array work).

    The offset is constant in u, so the Jacobian is R's.  The start and every
    trial pass one guard (:func:`_start`, :func:`_cone_residual`); a trial
    step is halved until the guard holds and the sup-norm of R - offset
    strictly decreases.  The tolerance is :func:`resolve_newton_tol` at the
    start, taken again at an iterate that meets it; the iteration stops when
    the iterate also meets its own, as verify mode judges a field.  Returns
    every outcome: status converged (an exact start with zero iterations),
    max-iterations, stalled (no acceptable step above the damping floor, or a
    non-finite correction) or inadmissible (a refused start: zero
    iterations, residual inf, the guard's reason in ``detail``).
    """
    grid = spec.grid
    u = np.array(u0, dtype=float, copy=True)
    state, R, reason = _start(u, spec)
    if reason:
        return NewtonReport(u, "inadmissible", 0, math.inf, reason)
    if offset is not None:
        R -= offset
    tol = resolve_newton_tol(spec, state)
    rnorm = float(np.max(np.abs(R)))
    iterations = 0
    # an iterate that meets the tolerance is judged again at its own psi, so a
    # solve accepts only a field that verify mode accepts
    while rnorm > tol or rnorm > (tol := resolve_newton_tol(spec, state)):
        if iterations >= max_iters:
            return NewtonReport(u, "max-iterations", iterations, rnorm)
        J = assemble_jacobian(state, spec)
        delta = linear_solve(J, -R.ravel(), grid).reshape(grid.shape)
        if not np.all(np.isfinite(delta)):
            return NewtonReport(u, "stalled", iterations, rnorm)
        alpha = 1.0
        while True:
            u_try = u + alpha * delta
            try:
                st_try = geom.extrinsic_state(u_try, grid)
                R_try, _ = _cone_residual(st_try, spec)
            except (geom.NotSpacelikeError, geom.InvalidGraphError):
                R_try = None
            if R_try is not None:
                if offset is not None:
                    R_try -= offset
                rn_try = float(np.max(np.abs(R_try)))
                if np.isfinite(rn_try) and rn_try < rnorm:
                    break
            alpha *= 0.5
            if alpha < _DAMPING_FLOOR:
                return NewtonReport(u, "stalled", iterations, rnorm)
        u, state, R, rnorm = u_try, st_try, R_try, rn_try
        iterations += 1
    return NewtonReport(u, "converged", iterations, rnorm)


# --- initial guesses ----------------------------------------------------------


def harmonic_extension(spec: ProblemSpec) -> np.ndarray:
    """Discrete harmonic extension of the boundary data (constant data short-
    circuits to the exact constant field)."""
    grid = spec.grid
    if spec.phi.family == "constant":
        return np.full(grid.shape, spec.phi.c)
    b = np.zeros(grid.shape)
    b[-1, :] = spec.boundary_values()
    return _laplace_solve(grid, b)


def constant_guess(spec: ProblemSpec) -> np.ndarray:
    return np.full(spec.grid.shape, float(np.mean(spec.boundary_values())))


# Lifts of the harmonic extension tried before the constant fallback.
_GUESS_LIFTS = 8


def build_initial_guess(spec: ProblemSpec) -> np.ndarray:
    """Harmonic extension of phi, lifted by constants until mean-curvature
    admissible; constant fallback when the lift does not take."""
    grid = spec.grid
    u = harmonic_extension(spec)
    shift = 0.25 * max(1.0, float(np.mean(np.abs(u))))
    for _ in range(_GUESS_LIFTS):
        try:
            state = geom.extrinsic_state(u, grid)
            if np.all(state.sigma1[grid.interior_mask] > 0.0):
                return u
        except (geom.NotSpacelikeError, geom.InvalidGraphError):
            pass
        u = u + shift
    return constant_guess(spec)


# --- continuation --------------------------------------------------------------


@dataclasses.dataclass
class ContinuationStep:
    t: float
    iterations: int
    residual_norm: float
    grid: tuple  # (n_rho, n_theta) of the level the step ran on


@dataclasses.dataclass
class SolveResult:
    """Outcome of :func:`continuation_solve`.  ``steps`` and ``newton_total``
    cover every level that ran.  On failure ``u`` is the failing level's
    field, and ``detail`` starts with that level's grid."""

    u: np.ndarray
    status: str  # converged | step-floor | inadmissible-start
    steps: list
    newton_total: int
    residual_norm: float
    detail: str = ""

    @property
    def converged(self) -> bool:
        return self.status == "converged"


# The coarsest level of the grid chain keeps at least this many rings.
_COARSEST_RINGS = 10
# The first (and largest) step in t of the continuation in the data, and the
# step below which it gives up.
_DT_INIT = 0.25
_DT_MIN = 1e-3


def _grid_chain(spec: ProblemSpec) -> list:
    """Grid shapes (n_rho, n_theta) of the coarse-to-fine chain, coarsest
    first and ending with the shape of ``spec``'s grid.  Both counts halve
    while n_rho is even, n_theta is divisible by 4 and at least 8, and the
    halved n_rho is at least _COARSEST_RINGS.  A tabulated psi has values on
    its own grid only, so its chain has one level."""
    n_rho, n_theta = spec.grid.shape
    shapes = [(n_rho, n_theta)]
    if spec.psi.family != "tabulated":
        while (n_rho % 2 == 0 and n_theta % 4 == 0 and n_theta >= 8
               and n_rho // 2 >= _COARSEST_RINGS):
            n_rho, n_theta = n_rho // 2, n_theta // 2
            shapes.append((n_rho, n_theta))
    return shapes[::-1]


def _carry(u: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Carry a field from the grid with half the counts of ``spec``'s grid to
    that grid: the cubic spline :func:`problem.spline_rows` in rho through the
    pole (on the even extension u(-rho, theta) = u(rho, theta + pi)), a
    zero-padded real FFT in theta, then the harmonic extension of the
    boundary mismatch phi - u on the new outer ring, which lies further out
    than the old one."""
    grid = spec.grid
    n_rho, n_theta = u.shape
    h = grid.chart.rho_max / n_rho
    s = n_theta // 2
    across_pole = np.concatenate((u[::-1, s:], u[::-1, :s]), axis=1)
    # nodes -(n_rho - 1/2) h .. (n_rho - 1/2) h, evenly spaced through the pole
    U = spline_rows(np.concatenate((across_pole, u)), -(n_rho - 0.5) * h, h, grid.rho)
    coeffs = np.fft.rfft(U, axis=1)
    coeffs[:, -1] *= 0.5  # the coarse Nyquist mode splits between +-m on the finer grid
    U = 2.0 * np.fft.irfft(coeffs, n=grid.n_theta, axis=1)  # irfft divides by the finer count
    b = np.zeros(grid.shape)
    b[-1] = spec.boundary_values() - U[-1]
    return U + _laplace_solve(grid, b)


def continuation_solve(spec: ProblemSpec, initial_guess=None) -> SolveResult:
    """Solve the curvature problem coarse to fine.

    The homotopy driver (:func:`_homotopy_solve`) runs on every grid of
    :func:`_grid_chain`, coarsest first: from ``initial_guess(level)`` on the
    coarsest grid (default :func:`build_initial_guess`), and from the previous
    level's solution carried up (:func:`_carry`) on each finer one.  The first
    level that does not converge ends the solve with its own status, its
    detail prefixed with its grid.
    """
    start = initial_guess or build_initial_guess
    steps, total, result = [], 0, None
    for n_rho, n_theta in _grid_chain(spec):
        # rebinding level drops the coarser grid before the finer solve
        level = spec if (n_rho, n_theta) == spec.grid.shape else dataclasses.replace(
            spec, grid=Grid(spec.grid.chart, n_rho, n_theta))
        u0 = start(level) if result is None else _carry(result.u, level)
        result = _homotopy_solve(level, u0)
        steps += result.steps
        total += result.newton_total
        if not result.converged:
            return dataclasses.replace(result, steps=steps, newton_total=total,
                                       detail=f"grid {n_rho}x{n_theta}: {result.detail}")
    return dataclasses.replace(result, steps=steps, newton_total=total)


def _homotopy_solve(spec: ProblemSpec, u0) -> SolveResult:
    """Solve on ``spec``'s grid from the start ``u0``: the problem itself
    first, and when that fails, continuation in the data.

    The staged path solves R(u) - (1 - t) R(u_a) = 0 for t rising from 0,
    where the anchor u_a is the root: ``u0`` when the guard accepts it, else
    :func:`constant_guess`.  t advances with adaptive halving on Newton
    failure and doubling (capped at the first step _DT_INIT) on success, and
    the level fails once the step falls below _DT_MIN.  ``u0`` is not
    modified.
    """
    u0 = np.asarray(u0, dtype=float)
    shape = spec.grid.shape
    steps: list[ContinuationStep] = []

    rep = damped_newton(u0, spec, max_iters=_DIRECT_MAX_ITERS)
    total = rep.iterations
    if rep.converged:
        steps.append(ContinuationStep(1.0, rep.iterations, rep.residual_norm, shape))
        return SolveResult(rep.u, "converged", steps, total, rep.residual_norm)

    anchor = constant_guess(spec) if rep.status == "inadmissible" else u0
    _, R_a, reason = _start(anchor, spec)
    if reason:
        return SolveResult(u0, "inadmissible-start", steps, total, math.inf, reason)
    u, rnorm = anchor, float(np.max(np.abs(R_a)))
    t, dt = 0.0, _DT_INIT
    while t < 1.0 - 1e-12:
        t_try = min(1.0, t + dt)
        # a refused start fails like any step
        rep = damped_newton(u, spec, offset=(1.0 - t_try) * R_a)
        total += rep.iterations
        if rep.converged:
            u, t, rnorm = rep.u, t_try, rep.residual_norm
            steps.append(ContinuationStep(t, rep.iterations, rnorm, shape))
            dt = min(2.0 * dt, _DT_INIT)
        else:
            dt *= 0.5
            if dt < _DT_MIN:
                return SolveResult(u, "step-floor", steps, total, rnorm,
                                   f"continuation step floor reached at t={t:.6g}")
    return SolveResult(u, "converged", steps, total, rnorm)


# --- barriers ------------------------------------------------------------------


def _barrier_solve(spec: ProblemSpec, state, order: int):
    """Damped Newton on the barrier problem of ``order``, from the solution
    and then from the constant guess.  Returns (field, "") for the first
    start that converges, or (None, reason) when neither does: the barrier
    may not exist as a spacelike graph for the data.

    The barrier of order k is the problem itself with psi frozen on the
    solution: C(n,1) = n makes the order-1 data n (psi / n) = psi, and
    C(n,n) = 1 makes the order-n data psi^(n/n) = psi.  The solution is its
    root, so it is returned with no solve."""
    if order == spec.k:
        return state.u, ""
    psi = spec.psi_field(state.u, state.theta_support)
    Cnk = math.comb(spec.n, spec.k)
    if order == 1:
        rhs = spec.n * (psi / Cnk) ** (1.0 / spec.k)
    else:
        rhs = (psi / Cnk) ** (spec.n / spec.k)
    bspec = ProblemSpec(
        grid=spec.grid,
        k=order,
        psi=PsiSpec(family="tabulated", table=rhs),
        phi=spec.phi,
    )
    for start in (state.u, constant_guess(bspec)):
        rep = damped_newton(start, bspec)
        if rep.converged:
            return rep.u, ""
        last = (rep.detail if rep.status == "inadmissible"
                else f"Newton {rep.status} at residual {rep.residual_norm:.3e}")
    return None, f"barrier problem (order {order}) did not converge: {last}"


def solve_upper_barrier(spec: ProblemSpec, state: geom.ExtrinsicState):
    """Mean-curvature barrier: sigma_1[s] = n (psi / C(n,k))^{1/k} with psi
    frozen on the computed solution ``state``, s = phi on the boundary.
    Returns (s, "") or, when no solve converges, (None, reason); for k = 1
    s is the solution itself."""
    return _barrier_solve(spec, state, order=1)


def solve_lower_barrier(spec: ProblemSpec, state: geom.ExtrinsicState):
    """Top-order barrier: sigma_n[s] = (psi / C(n,k))^{n/k}, s = phi on the
    boundary, psi frozen on the computed solution ``state``.  Returns (s, "")
    or, when no solve converges, (None, reason); for k = n s is the solution
    itself."""
    return _barrier_solve(spec, state, order=spec.n)


@dataclasses.dataclass
class SandwichReport:
    min_upper_margin: float  # min over interior of s_plus - u
    min_lower_margin: float  # min over interior of u - s_minus
    eps_h: float
    passed: bool


def barrier_sandwich_check(u, s_minus, s_plus, grid: Grid) -> SandwichReport:
    """Comparison sandwich s_minus <= u <= s_plus up to the discretisation
    allowance eps_h = 10 * d_rho^2 on interior nodes."""
    interior = grid.interior_mask
    u, s_minus, s_plus = (np.asarray(a, dtype=float) for a in (u, s_minus, s_plus))
    up = float(np.min((s_plus - u)[interior]))
    lo = float(np.min((u - s_minus)[interior]))
    eps_h = 10.0 * grid.d_rho ** 2
    return SandwichReport(up, lo, eps_h, passed=bool(up >= -eps_h and lo >= -eps_h))


# --- uniqueness probe -----------------------------------------------------------

# Relative size of the random bump on each probe start.
_PROBE_AMPLITUDE = 0.01


@dataclasses.dataclass
class UniquenessReport:
    max_pairwise_distance: float
    all_converged: bool
    runs: list


def _probe_start(c):
    """The probe start with bump coefficients ``c``, as a function of a
    level's ProblemSpec: the initial guess times 1 + a bump that is a closed
    form in (rho / rho_max, theta), so every level gets the same bump."""
    def start(level: ProblemSpec) -> np.ndarray:
        grid = level.grid
        rn = grid.rho_col / grid.chart.rho_max
        bump = (
            c[0]
            + c[1] * rn ** 2
            + (c[2] * np.cos(grid.theta_row) + c[3] * np.sin(grid.theta_row)) * rn
        )
        return build_initial_guess(level) * (1.0 + _PROBE_AMPLITUDE * bump)
    return start


def uniqueness_probe(spec: ProblemSpec, n_starts: int = 5, seed: int = 0) -> UniquenessReport:
    """Re-run the continuation from seeded perturbed starts and report the
    largest pairwise sup-distance between the solutions found."""
    rng = np.random.default_rng(seed)
    sols, runs = [], []
    for _ in range(n_starts):
        start = _probe_start(rng.normal(0.0, 1.0, size=4))
        result = continuation_solve(spec, initial_guess=start)
        runs.append(
            {
                "status": result.status,
                "newton_total": result.newton_total,
                "residual_norm": result.residual_norm,
                "steps": [dataclasses.asdict(s) for s in result.steps],
            }
        )
        if result.converged:
            sols.append(result.u)
    dist = 0.0
    for a in range(len(sols)):
        for b in range(a + 1, len(sols)):
            dist = max(dist, float(np.max(np.abs(sols[a] - sols[b]))))
    return UniquenessReport(
        max_pairwise_distance=dist,
        all_converged=len(sols) == n_starts,
        runs=runs,
    )
