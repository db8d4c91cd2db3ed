"""Discrete solver for the prescribed-curvature Dirichlet problem.

The residual of the homotopy family at parameter t in [0, 1] is

    R_i = t * sigma_k[u](x_i) + (1 - t) * Lap u(x_i) - psi(x_i, u_i, support_i)

at interior nodes, with boundary rows enforcing u = phi.  t = 0 is the
Laplace problem, t = 1 the curvature problem.  Newton's method runs with a
backtracking line search that only ever accepts spacelike (and, for t > 0,
cone-admissible) iterates; the continuation driver first tries the target
problem directly and falls back to adaptive stepping in t.

The production Jacobian is the analytic linearisation: the residual is a
node-local function of (u, u_rho, u_theta, and the covariant Hessian
components), namely geom's kernel :func:`geom.graph_geometry`, psi and the
one homotopy formula the residual itself is built from.  Both take the
:class:`geom.ExtrinsicState` of the field, which carries these chart
quantities.  So dR/du factors into exact per-node partial derivatives
(obtained by complex-step differentiation of the local map, which is
machine-accurate) composed with the sparse stencil operators.  Finite
differences of the residual would not do: the pole ring's metric factor
1/sinh(rho)^2 ~ 1/h^2 makes its huge entries cancel to O(1) physical
couplings, which finite differences cannot resolve on fine grids.  Boundary
rows are identity rows.

No linear solve factors a sparse matrix.  The t = 0 operator L (Laplace-
Beltrami rows inside, identity rows on the boundary ring) is invariant under
rotation, so a real FFT in theta splits it into n_theta/2 + 1 tridiagonal
radial systems, one per Fourier mode m; the across-pole ghost couples mode m
of ring 0 to itself with the sign (-1)^m.  Their Thomas factorisation,
vectorised over modes and cached per (shape, rho_max), gives the exact
harmonic extension.  A Newton correction J x = b (staged steps, the direct
attempt and the barrier solves alike) is solved by GMRES on the rows divided
by their diagonal, right-preconditioned by y -> L^{-1}(diag(L) y): both
operators then have a unit diagonal, and their product is close to the
identity wherever J is close to a row-scaled L.  GMRES is written here with
numpy reductions for every inner product and norm, not BLAS calls, so
results do not depend on BLAS thread counts.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.sparse as sp
# Nothing here calls spsolve: the benchmark's tracer (perfbench/tracer.py)
# looks the name up in this module, so it stays bound.
from scipy.sparse.linalg import spsolve  # noqa: F401

from . import geom, hchart
from .hchart import Grid
from .problem import ContinuationConfig, ProblemSpec, PsiSpec

__all__ = [
    "InadmissibleStartError",
    "SolverError",
    "NewtonReport",
    "ContinuationStep",
    "SolveResult",
    "SandwichReport",
    "UniquenessReport",
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
    "maclaurin_ordering_margins",
    "newton_inequality_min_slack",
]


class InadmissibleStartError(ValueError):
    """A Newton start is rejected by the spacelike/admissibility guard."""


class SolverError(RuntimeError):
    """A required auxiliary solve (e.g. a barrier problem) failed."""


# --- residual ----------------------------------------------------------------


def _homotopy(t, sig, psi, H_rr, H_tt, sinh_rho):
    """The homotopy family t sigma_k + (1 - t) Lap u - psi, with Lap u the
    Hessian's trace H_rr + H_tt / sinh(rho)^2; sigma_k - psi at t = 1.  Called
    on real data by the residual and on complex-step data by the Jacobian."""
    if t == 1.0:
        return sig - psi
    return t * sig + (1.0 - t) * (H_rr + H_tt / sinh_rho ** 2) - psi


def assemble_residual(state: geom.ExtrinsicState, t: float, spec: ProblemSpec) -> np.ndarray:
    """Residual field of the homotopy problem at the graph of ``state``;
    boundary rows hold u - phi.  Raises ValueError when psi is not finite
    and positive there."""
    psi = spec.psi_field(state.u, state.theta_support)
    R = _homotopy(t, state.sigma_k(spec.k), psi, state.H_rr, state.H_tt, spec.grid.sinh_rho)
    R[-1, :] = state.u[-1, :] - spec.boundary_values()
    return R


# Complex-step size for the node-local partial derivatives; no subtractive
# cancellation occurs, so it only needs to avoid underflow in squares.
_CS_EPS = 1e-30


def _local_residual(t, spec: ProblemSpec, u, u_r, u_t, H_rr, H_rt, H_tt):
    """The residual as a node-local (complex-analytic) function of the six
    chart quantities: :func:`geom.graph_geometry`, psi and :func:`_homotopy`.
    Used for exact per-node linearisation."""
    grid = spec.grid
    v, g, h, sigma1, sigma2 = geom.graph_geometry(
        u, u_r, u_t, H_rr, H_rt, H_tt, grid.sinh_rho
    )
    sig = sigma1 if spec.k == 1 else sigma2
    del g, h, sigma1, sigma2  # free them before psi's temporaries: peak memory at 256^2
    psi = spec.psi.evaluate(grid.rho_col, grid.theta_row, u, u / v, check=False)
    return _homotopy(t, sig, psi, H_rr, H_tt, grid.sinh_rho)


def assemble_jacobian(state: geom.ExtrinsicState, t: float, spec: ProblemSpec) -> sp.csr_matrix:
    """Analytic Jacobian dR/du at the graph of ``state``.

    Per-node partials of the local residual with respect to the state's
    chart data (u, u_rho, u_theta, H_rr, H_rt, H_tt) are computed by
    complex-step differentiation (exact to round-off), then composed with
    the sparse stencil operators.  Boundary rows are identity rows."""
    grid = spec.grid
    slots = [state.u, state.u_rho, state.u_theta, state.H_rr, state.H_rt, state.H_tt]
    weights = []
    for m in range(len(slots)):
        pert = list(slots)
        pert[m] = pert[m] + 1j * _CS_EPS
        val = _local_residual(t, spec, *pert)
        w = np.imag(val) / _CS_EPS
        weights.append(np.ravel(np.broadcast_to(w, grid.shape)))
    mats = hchart.derivative_matrices(grid)
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


# --- linear solves --------------------------------------------------------------

_LAPLACE_CACHE: dict[tuple[tuple[int, int], float], tuple] = {}


def _laplace_factors(grid: Grid):
    """Thomas factorisation of the t = 0 operator's per-mode radial systems,
    with the physical stencil rows' diagonal; cached per (shape, rho_max).

    Interior ring i of mode m reads, from hchart's stencils,

        (1/h^2 - coth rho_i/(2h)) x_{i-1} + (-2/h^2 + mu_m/sinh^2 rho_i) x_i
            + (1/h^2 + coth rho_i/(2h)) x_{i+1},   mu_m = -4 sin^2(m dtheta/2)/dtheta^2,

    ring 0's ghost x_{-1} = (-1)^m x_0 is folded into its diagonal, and the
    boundary ring is an identity row.  Returns (lower, c_prime, inv_pivot,
    diag): lower[i] multiplies x_{i-1}; c_prime[i, m] = upper_i / pivot[i, m]
    and inv_pivot[i, m] = 1 / pivot[i, m] come from the forward sweep; diag[i]
    is the diagonal of the stencil rows of ring i, as a column.
    """
    key = (grid.shape, grid.chart.rho_max)
    factors = _LAPLACE_CACHE.get(key)
    if factors is not None:
        return factors
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
    diag = -2.0 / h ** 2 - 2.0 * inv_s2 / dth ** 2
    diag[-1] = 1.0
    factors = (lower, c_prime, inv_pivot, diag[:, None])
    _LAPLACE_CACHE[key] = factors
    return factors


def _laplace_solve(grid: Grid, b: np.ndarray) -> np.ndarray:
    """Solve L x = b for the t = 0 operator L on ``grid`` (b and x of the
    grid's shape): real FFT in theta, one Thomas sweep over the rings for all
    modes at once, inverse FFT."""
    lower, c_prime, inv_pivot, _ = _laplace_factors(grid)
    x = np.fft.rfft(b, axis=1)
    x[0] *= inv_pivot[0]
    for i in range(1, grid.n_rho):
        x[i] -= lower[i] * x[i - 1]
        x[i] *= inv_pivot[i]
    for i in range(grid.n_rho - 2, -1, -1):
        x[i] -= c_prime[i] * x[i + 1]
    return np.fft.irfft(x, n=grid.n_theta, axis=1)


def _norm(v: np.ndarray) -> float:
    return float(np.sqrt(np.sum(v * v)))


def _gmres(apply, b: np.ndarray) -> np.ndarray:
    """Unrestarted GMRES from zero for apply(y) = b, with classical Gram-
    Schmidt run twice and Givens rotations.  Stops once the residual norm is
    at most _KRYLOV_RTOL |b|, or after _KRYLOV_MAX_ITERS iterations with the
    last iterate.  The basis grows only as far as the iterations go."""
    beta = _norm(b)
    if beta == 0.0:
        return np.zeros_like(b)
    size = _KRYLOV_MAX_ITERS
    H = np.zeros((size + 1, size))
    cs, sn = np.zeros(size), np.zeros(size)
    g = np.zeros(size + 1)
    g[0] = beta
    V = [b / beta]
    for j in range(size):
        w = apply(V[j])
        for _ in range(2):
            h = np.array([np.sum(v * w) for v in V])
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
        V.append(w / h_next)
    k = j + 1
    y = np.zeros(k)
    for i in range(k - 1, -1, -1):
        y[i] = (g[i] - np.sum(H[i, i + 1:k] * y[i + 1:k])) / H[i, i]
    x = y[0] * V[0]
    for y_i, v in zip(y[1:], V[1:]):
        x += y_i * v
    return x


def linear_solve(J: sp.spmatrix, rhs: np.ndarray, grid: Grid) -> np.ndarray:
    """Solve J x = rhs for a Newton Jacobian on ``grid``: GMRES on the rows of
    J divided by their diagonal (a zero diagonal counts as 1), right-
    preconditioned by y -> L^{-1}(diag(L) y) with L the t = 0 operator."""
    diag_l = _laplace_factors(grid)[3]
    d = J.diagonal()
    d[d == 0.0] = 1.0

    def precondition(y):
        return _laplace_solve(grid, diag_l * y.reshape(grid.shape)).ravel()

    return precondition(_gmres(lambda y: (J @ precondition(y)) / d, rhs / d))


# --- Newton ------------------------------------------------------------------


# The line search gives up once the step length falls below this.
_DAMPING_FLOOR = 2.0 ** -20
# GMRES stops once its (Givens) residual estimate is this small relative to
# the right-hand side, or after this many iterations with its last iterate,
# which the line search then judges like any other step.  The true residual
# levels off near 5e-12 at 256^2 while the estimate keeps falling, so the test
# ends one or two iterations past 1e-10, and the step then agrees with a direct
# solve to ~1e-10 where 1e-10 would leave 1e-9 to 1e-8 (128^2, k = 2).
_KRYLOV_RTOL = 1e-12
_KRYLOV_MAX_ITERS = 60


@dataclasses.dataclass
class NewtonReport:
    u: np.ndarray
    converged: bool
    status: str  # converged | max-iterations | stalled
    iterations: int
    residual_norm: float


def resolve_newton_tol(cfg: ContinuationConfig, spec: ProblemSpec, state) -> float:
    """Residual tolerance: the configured value if any, 1e-10 when both psi
    and phi are constant (exactly solvable data), else 1e-8 * sup |psi|."""
    if cfg.newton_tol is not None:
        return cfg.newton_tol
    if spec.psi.is_constant and spec.phi.family == "constant":
        return 1e-10
    psi = spec.psi_field(state.u, state.theta_support)
    return 1e-8 * max(float(np.max(np.abs(psi))), 1e-8)


def _check_start(u, t, spec) -> geom.ExtrinsicState:
    try:
        state = geom.extrinsic_state(u, spec.grid)
    except (geom.NotSpacelikeError, geom.InvalidGraphError) as exc:
        raise InadmissibleStartError(f"start rejected: {exc}") from exc
    if t > 0.0:
        ok = state.admissible_mask(spec.k)
        bad = ~ok & spec.grid.interior_mask
        if np.any(bad):
            node = int(np.argmax(bad))
            raise InadmissibleStartError(
                f"start not {spec.k}-admissible at {spec.grid.node_label(node)}"
            )
    return state


def damped_newton(
    u0, t: float, spec: ProblemSpec, cfg: ContinuationConfig | None = None,
    max_iters: int | None = None,
) -> NewtonReport:
    """Damped Newton iteration at fixed homotopy parameter t.

    Every accepted iterate is spacelike everywhere and k-admissible at the
    interior nodes when t > 0; the step is halved until both guards hold and
    the residual sup-norm strictly decreases.  An exact start is accepted
    with zero iterations.
    """
    cfg = cfg or ContinuationConfig()
    grid = spec.grid
    u = np.array(u0, dtype=float, copy=True)
    if max_iters is None:
        max_iters = cfg.max_newton_iters
    state = _check_start(u, t, spec)
    try:
        tol = resolve_newton_tol(cfg, spec, state)
        R = assemble_residual(state, t, spec)
    except ValueError as exc:  # e.g. psi nonpositive at the start
        raise InadmissibleStartError(f"start rejected: {exc}") from exc
    rnorm = float(np.max(np.abs(R)))
    iterations = 0
    while rnorm > tol:
        if iterations >= max_iters:
            return NewtonReport(u, False, "max-iterations", iterations, rnorm)
        J = assemble_jacobian(state, t, spec)
        delta = linear_solve(J, -R.ravel(), grid).reshape(grid.shape)
        if not np.all(np.isfinite(delta)):
            return NewtonReport(u, False, "stalled", iterations, rnorm)
        alpha = 1.0
        accepted = False
        while alpha >= _DAMPING_FLOOR:
            u_try = u + alpha * delta
            try:
                st_try = geom.extrinsic_state(u_try, grid)
                if t > 0.0 and not np.all(
                    st_try.admissible_mask(spec.k)[grid.interior_mask]
                ):
                    raise geom.NotSpacelikeError("iterate left the admissible cone")
                R_try = assemble_residual(st_try, t, spec)
                rn_try = float(np.max(np.abs(R_try)))
                if np.isfinite(rn_try) and rn_try < rnorm:
                    accepted = True
                    break
            except (geom.NotSpacelikeError, geom.InvalidGraphError, ValueError):
                pass
            alpha *= 0.5
        if not accepted:
            return NewtonReport(u, False, "stalled", iterations, rnorm)
        u, state, R, rnorm = u_try, st_try, R_try, rn_try
        iterations += 1
    return NewtonReport(u, True, "converged", iterations, rnorm)


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


@dataclasses.dataclass
class SolveResult:
    u: np.ndarray
    status: str  # converged | step-floor | inadmissible-start
    steps: list
    newton_total: int
    residual_norm: float
    detail: str = ""

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def continuation_solve(
    spec: ProblemSpec,
    cfg: ContinuationConfig | None = None,
    initial_guess=None,
) -> SolveResult:
    """Drive the homotopy parameter from the Laplace problem to the curvature
    problem.

    The target problem (t = 1) is attempted directly first; when that fails
    the driver solves t = 0, then advances t with adaptive halving on Newton
    failure and doubling (capped at the initial step) on success.
    """
    cfg = cfg or ContinuationConfig()
    if initial_guess is None:
        u0 = build_initial_guess(spec)
    else:
        u0 = np.array(initial_guess, dtype=float, copy=True)
    steps: list[ContinuationStep] = []
    total = 0

    if cfg.direct_attempt:
        try:
            rep = damped_newton(
                u0, 1.0, spec, cfg, max_iters=min(cfg.direct_max_iters, cfg.max_newton_iters)
            )
            total += rep.iterations
            if rep.converged:
                steps.append(ContinuationStep(1.0, rep.iterations, rep.residual_norm))
                return SolveResult(rep.u, "converged", steps, total, rep.residual_norm)
        except InadmissibleStartError:
            pass

    # staged path from the Laplace end
    u = u0
    try:
        rep = damped_newton(u, 0.0, spec, cfg)
    except InadmissibleStartError:
        try:
            rep = damped_newton(constant_guess(spec), 0.0, spec, cfg)
        except InadmissibleStartError as exc:
            return SolveResult(u0, "inadmissible-start", steps, total, math.inf, str(exc))
    total += rep.iterations
    if not rep.converged:
        return SolveResult(
            rep.u, "step-floor", steps, total, rep.residual_norm,
            f"Newton {rep.status} at t=0",
        )
    u = rep.u
    steps.append(ContinuationStep(0.0, rep.iterations, rep.residual_norm))

    t, dt = 0.0, cfg.dt_init
    fallback_used = False
    while t < 1.0 - 1e-12:
        t_try = min(1.0, t + dt)
        rep = None
        try:
            rep = damped_newton(u, t_try, spec, cfg)
        except InadmissibleStartError:
            if not fallback_used:
                fallback_used = True
                try:
                    rep = damped_newton(constant_guess(spec), t_try, spec, cfg)
                except InadmissibleStartError:
                    rep = None
        if rep is not None:
            total += rep.iterations
        if rep is not None and rep.converged:
            u, t = rep.u, t_try
            steps.append(ContinuationStep(t, rep.iterations, rep.residual_norm))
            dt = min(2.0 * dt, cfg.dt_init)
        else:
            dt *= 0.5
            if dt < cfg.dt_min:
                last = steps[-1].residual_norm if steps else math.inf
                return SolveResult(
                    u, "step-floor", steps, total, last,
                    f"continuation step floor reached at t={t:.6g}",
                )
    return SolveResult(u, "converged", steps, total, steps[-1].residual_norm)


# --- barriers ------------------------------------------------------------------


def _barrier_solve(spec: ProblemSpec, state, cfg: ContinuationConfig | None, order: int):
    cfg = cfg or ContinuationConfig()
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
    bcfg = dataclasses.replace(cfg, newton_tol=None)
    last = "no admissible start"
    for start in (state.u, constant_guess(bspec)):
        try:
            rep = damped_newton(start, 1.0, bspec, bcfg)
        except InadmissibleStartError as exc:
            last = str(exc)
            continue
        if rep.converged:
            return rep.u
        last = f"Newton {rep.status} at residual {rep.residual_norm:.3e}"
    raise SolverError(f"barrier problem (order {order}) did not converge: {last}")


def solve_upper_barrier(spec: ProblemSpec, state: geom.ExtrinsicState,
                        cfg: ContinuationConfig | None = None):
    """Mean-curvature barrier: sigma_1[s] = n (psi / C(n,k))^{1/k} with psi
    frozen on the computed solution ``state``, s = phi on the boundary."""
    return _barrier_solve(spec, state, cfg, order=1)


def solve_lower_barrier(spec: ProblemSpec, state: geom.ExtrinsicState,
                        cfg: ContinuationConfig | None = None):
    """Top-order barrier: sigma_n[s] = (psi / C(n,k))^{n/k}, s = phi on the
    boundary, psi frozen on the computed solution ``state``."""
    return _barrier_solve(spec, state, cfg, order=spec.n)


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
    t_monotone: bool
    runs: list


def uniqueness_probe(
    spec: ProblemSpec,
    cfg: ContinuationConfig | None = None,
    n_starts: int = 5,
    seed: int = 0,
) -> UniquenessReport:
    """Re-run the continuation from seeded perturbed starts and report the
    largest pairwise sup-distance between the solutions found."""
    grid = spec.grid
    rng = np.random.default_rng(seed)
    base = build_initial_guess(spec)
    rn = grid.rho_col / grid.chart.rho_max
    sols, runs = [], []
    monotone = True
    for _ in range(n_starts):
        c = rng.normal(0.0, 1.0, size=4)
        bump = (
            c[0]
            + c[1] * rn ** 2
            + (c[2] * np.cos(grid.theta_row) + c[3] * np.sin(grid.theta_row)) * rn
        )
        u0 = base * (1.0 + _PROBE_AMPLITUDE * bump)
        result = continuation_solve(spec, cfg, initial_guess=u0)
        ts = [s.t for s in result.steps]
        mono = all(b >= a for a, b in zip(ts, ts[1:]))
        monotone &= mono
        runs.append(
            {
                "status": result.status,
                "newton_total": result.newton_total,
                "residual_norm": result.residual_norm,
                "t_monotone": mono,
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
        t_monotone=monotone,
        runs=runs,
    )


# --- pointwise inequality checks -------------------------------------------------


def maclaurin_ordering_margins(state: geom.ExtrinsicState, k: int, grid: Grid):
    """Pointwise margins of the normalised-mean ordering used by the barriers:

        n (sigma_k / C(n,k))^{1/k} <= sigma_1   and
        sigma_n <= (sigma_k / C(n,k))^{n/k}

    over interior nodes (n = 2).  Returns the two minima."""
    interior = grid.interior_mask
    C = math.comb(2, k)
    mean_k = (state.sigma_k(k) / C) ** (1.0 / k)
    m1 = state.sigma1 - 2.0 * mean_k
    m2 = mean_k ** 2 - state.sigma2
    return float(np.min(m1[interior])), float(np.min(m2[interior]))


def newton_inequality_min_slack(state: geom.ExtrinsicState, grid: Grid) -> float:
    """Minimum pointwise slack of the order-1 Newton inequality
    (sigma_1 / 2)^2 - sigma_2 >= 0 over interior nodes (n = 2)."""
    slack = (state.sigma1 / 2.0) ** 2 - state.sigma2
    return float(np.min(slack[grid.interior_mask]))
