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
    # Value at (-rho_0, theta) is the value at (rho_0, theta + pi).  Slices
    # and concatenate give np.roll's array at a fraction of its call cost.
    s = grid.pole_shift
    return np.concatenate((U[0, s:], U[0, :s]))


def _theta_neighbours(U: np.ndarray):
    """U at theta_{j+1} and at theta_{j-1}, periodic: np.roll(U, -1, axis=1)
    and np.roll(U, 1, axis=1)."""
    return (np.concatenate((U[:, 1:], U[:, :1]), axis=1),
            np.concatenate((U[:, -1:], U[:, :-1]), axis=1))


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
    U_next, U_prev = _theta_neighbours(np.asarray(u, dtype=float))
    return (U_next - U_prev) / (2.0 * grid.d_theta)


def partial_theta2(u, grid: Grid) -> np.ndarray:
    """d^2/d theta^2, centred periodic."""
    U = np.asarray(u, dtype=float)
    U_next, U_prev = _theta_neighbours(U)
    return (U_next - 2.0 * U + U_prev) / grid.d_theta ** 2


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

