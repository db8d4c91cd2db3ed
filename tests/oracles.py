"""Reference implementations for the tests: a sparse matrix built one unit
vector at a time, the Laplace-Beltrami operator from the array stencils and
the t = 0 system from the stencil matrices, and the graph's points, tangents
and unit normal as vectors in Minkowski R^3, <a, b> = a1 b1 + a2 b2 - a3 b3."""

import numpy as np
import scipy.sparse as sp

from weingarten.hchart import derivative_matrices, partial_rho, partial_rho2, partial_theta2


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


def laplace_beltrami(u, grid):
    """Laplace-Beltrami operator: the metric trace of the covariant Hessian,

        Lap u = d2u/drho2 + coth(rho) du/drho + d2u/dtheta2 / sinh(rho)^2,

    as H_rr + H_tt / sinh(rho)^2 with the covariant Hessian's formulas.
    """
    H_tt = partial_theta2(u, grid) + grid.sinh_rho * grid.cosh_rho * partial_rho(u, grid)
    return partial_rho2(u, grid) + H_tt / grid.sinh_rho ** 2


def laplace_system(grid) -> sp.csc_matrix:
    """The solver's t = 0 operator as a sparse matrix: Laplace-Beltrami rows
    d_rho2 + coth(rho) d_rho + d_theta2 / sinh(rho)^2 from the stencil
    matrices on the interior, identity rows on the boundary ring."""
    mats = derivative_matrices(grid)
    coth = np.repeat(grid.coth_rho.ravel(), grid.n_theta)
    inv_s2 = np.repeat(1.0 / grid.sinh_rho.ravel() ** 2, grid.n_theta)
    lap = mats.d_rho2 + sp.diags(coth) @ mats.d_rho + sp.diags(inv_s2) @ mats.d_theta2
    interior = grid.interior_mask.ravel().astype(float)
    return (sp.diags(interior) @ lap + sp.diags(1.0 - interior)).tocsc()


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
