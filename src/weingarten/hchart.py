"""Geodesic polar chart of the unit-curvature hyperbolic plane.

Coordinates (rho, theta) with line element

    ds^2 = d rho^2 + sinh(rho)^2 d theta^2.

The grid is cell-centred in rho (no node sits on the pole) and uniformly
periodic in theta.  Radial stencils on the innermost ring use across-pole
ghost values u(-rho, theta) = u(rho, theta + pi); the outermost ring falls
back to one-sided second-order stencils.  Metric data is always evaluated
analytically, never tabulated, so grid refinement leaves it exact.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.sparse as sp

__all__ = [
    "ChartDomainError",
    "PolarChart",
    "Grid",
    "partial_rho",
    "partial_theta",
    "partial_rho2",
    "partial_theta2",
    "covariant_gradient",
    "covariant_hessian",
    "geodesic_diameter",
    "StencilMatrices",
    "derivative_matrices",
]


class ChartDomainError(ValueError):
    """The chart radius is not finite and positive."""


@dataclasses.dataclass(frozen=True)
class PolarChart:
    """Geodesic polar chart of radius ``rho_max``."""

    rho_max: float = 1.0

    def __post_init__(self):
        if not (0.0 < float(self.rho_max) < math.inf):
            raise ChartDomainError(
                f"chart radius must be finite and positive, got {self.rho_max}"
            )


class Grid:
    """Cell-centred polar grid.

    Nodes sit at rho_i = (i + 1/2) * d_rho for i = 0..n_rho-1 with
    d_rho = rho_max / n_rho, and theta_j = j * d_theta with
    d_theta = 2 pi / n_theta (periodic).  The outermost rho ring carries the
    Dirichlet boundary.  ``n_theta`` must be even so the across-pole ghost
    direction theta + pi lands on a grid line.
    """

    def __init__(self, chart: PolarChart, n_rho: int, n_theta: int):
        n_rho, n_theta = int(n_rho), int(n_theta)
        if n_rho < 4:
            raise ValueError("n_rho must be at least 4 (boundary stencils need depth 4)")
        if n_theta < 4 or n_theta % 2:
            raise ValueError("n_theta must be even and at least 4 (across-pole ghosting)")
        self.chart = chart
        self.n_rho = n_rho
        self.n_theta = n_theta
        self.d_rho = chart.rho_max / n_rho
        self.d_theta = 2.0 * math.pi / n_theta
        self.rho = (np.arange(n_rho) + 0.5) * self.d_rho
        self.theta = np.arange(n_theta) * self.d_theta
        self.pole_shift = n_theta // 2
        self.rho_col = self.rho[:, None]
        self.theta_row = self.theta[None, :]
        self.sinh_rho = np.sinh(self.rho_col)
        self.cosh_rho = np.cosh(self.rho_col)
        self.coth_rho = self.cosh_rho / self.sinh_rho
        self.interior_mask = np.ones(self.shape, dtype=bool)
        self.interior_mask[-1, :] = False

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rho, self.n_theta)

    @property
    def n_nodes(self) -> int:
        return self.n_rho * self.n_theta

    def node_label(self, flat_index: int) -> str:
        i, j = divmod(int(flat_index), self.n_theta)
        return f"node (i={i}, j={j}, rho={self.rho[i]:.6g}, theta={self.theta[j]:.6g})"


def _pole_ghost(U: np.ndarray, grid: Grid) -> np.ndarray:
    # Value at (-rho_0, theta) is the value at (rho_0, theta + pi).
    return np.roll(U[0], grid.pole_shift)


def partial_rho(u, grid: Grid) -> np.ndarray:
    """d/d rho, second order: centred inside, across-pole ghost at ring 0,
    one-sided at the outer ring."""
    U = np.asarray(u, dtype=float)
    h = grid.d_rho
    dU = np.empty_like(U)
    ghost = _pole_ghost(U, grid)
    dU[0] = (U[1] - ghost) / (2.0 * h)
    dU[1:-1] = (U[2:] - U[:-2]) / (2.0 * h)
    dU[-1] = (3.0 * U[-1] - 4.0 * U[-2] + U[-3]) / (2.0 * h)
    return dU


def partial_rho2(u, grid: Grid) -> np.ndarray:
    """d^2/d rho^2, second order, same edge treatment as :func:`partial_rho`."""
    U = np.asarray(u, dtype=float)
    h2 = grid.d_rho ** 2
    d2 = np.empty_like(U)
    ghost = _pole_ghost(U, grid)
    d2[0] = (U[1] - 2.0 * U[0] + ghost) / h2
    d2[1:-1] = (U[2:] - 2.0 * U[1:-1] + U[:-2]) / h2
    d2[-1] = (2.0 * U[-1] - 5.0 * U[-2] + 4.0 * U[-3] - U[-4]) / h2
    return d2


def partial_theta(u, grid: Grid) -> np.ndarray:
    """d/d theta, centred periodic."""
    U = np.asarray(u, dtype=float)
    return (np.roll(U, -1, axis=1) - np.roll(U, 1, axis=1)) / (2.0 * grid.d_theta)


def partial_theta2(u, grid: Grid) -> np.ndarray:
    """d^2/d theta^2, centred periodic."""
    U = np.asarray(u, dtype=float)
    return (np.roll(U, -1, axis=1) - 2.0 * U + np.roll(U, 1, axis=1)) / grid.d_theta ** 2


def covariant_gradient(u, grid: Grid):
    """Covariant gradient of a scalar.

    Returns the coordinate components (u_rho, u_theta) and the squared norm
    |Du|^2 = u_rho^2 + u_theta^2 / sinh(rho)^2.
    """
    u_r = partial_rho(u, grid)
    u_t = partial_theta(u, grid)
    grad_sq = u_r ** 2 + (u_t / grid.sinh_rho) ** 2
    return u_r, u_t, grad_sq


def covariant_hessian(u, u_r, u_t, grid: Grid):
    """Coordinate components (H_rr, H_rt, H_tt) of the covariant Hessian,
    given the gradient (u_r, u_t) that :func:`covariant_gradient` returns.

    With Gamma^theta_{rho theta} = coth(rho) and
    Gamma^rho_{theta theta} = -sinh(rho) cosh(rho):

        H_rr = d2u/drho2
        H_rt = d2u/drho dtheta - coth(rho) du/dtheta
        H_tt = d2u/dtheta2 + sinh(rho) cosh(rho) du/drho
    """
    H_rr = partial_rho2(u, grid)
    H_rt = partial_theta(u_r, grid) - grid.coth_rho * u_t
    H_tt = partial_theta2(u, grid) + grid.sinh_rho * grid.cosh_rho * u_r
    return H_rr, H_rt, H_tt


def geodesic_diameter(grid: Grid) -> float:
    """Diameter of the geodesic disk: twice the chart radius."""
    return 2.0 * grid.chart.rho_max


@dataclasses.dataclass(frozen=True)
class StencilMatrices:
    """Sparse matrix forms of the derivative stencils (flat node ordering).

    ``hess_rt`` and ``hess_tt`` are the covariant Hessian component operators,
    i.e. they include the Christoffel corrections.  The matrices reproduce
    :func:`partial_rho` etc. exactly, ghost handling included.
    """

    d_rho: sp.csr_matrix
    d_theta: sp.csr_matrix
    d_rho2: sp.csr_matrix
    d_theta2: sp.csr_matrix
    hess_rt: sp.csr_matrix
    hess_tt: sp.csr_matrix


def derivative_matrices(grid: Grid) -> StencilMatrices:
    """Build (and cache on the grid) the stencil operators as sparse matrices."""
    cached = getattr(grid, "_stencil_matrices", None)
    if cached is not None:
        return cached
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
    mats = StencilMatrices(d_rho, d_theta, d_rho2, d_theta2, hess_rt, hess_tt)
    grid._stencil_matrices = mats
    return mats
