"""Extrinsic geometry of spacelike radial graphs over the hyperbolic chart.

A positive graph function u on the chart defines the hypersurface swept out
by u(x) * x, with x on the unit hyperboloid in Minkowski space
(metric dx_1^2 + ... + dx_n^2 - dx_{n+1}^2).  One node-local kernel,
:func:`graph_geometry`, holds the formulas for the lapse, the induced metric,
the second fundamental form and sigma_1, sigma_2; :func:`extrinsic_state`
guards the field, calls it and packages u with its covariant gradient and
Hessian, the inverse metric, the principal curvatures, the support function,
the squared curvature norm and the spacelike gap.  Everything is vectorised over
(n_rho, n_theta) arrays and works equally on scalars.

Sign conventions: the normal is the future-directed timelike unit normal,
and the constant graph u = R has principal curvatures +1/R.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import hchart
from .hchart import Grid

__all__ = [
    "InvalidGraphError",
    "NotSpacelikeError",
    "ExtrinsicState",
    "graph_geometry",
    "principal_curvatures",
    "extrinsic_state",
]


class InvalidGraphError(ValueError):
    """The graph function is not finite and strictly positive, or its
    induced metric is not positive definite in floating point."""


class NotSpacelikeError(ValueError):
    """The graph fails |Du|/u < 1 somewhere; carries the offending node."""

    def __init__(self, message: str, node=None, gap=None):
        super().__init__(message)
        self.node = node
        self.gap = gap


def _check_graph(U: np.ndarray, grid: Grid):
    """Raise :class:`InvalidGraphError` at the first node where u is not a
    finite positive number."""
    bad = ~(np.isfinite(U) & (U > 0.0))
    if np.any(bad):
        node = int(np.argmax(bad))
        raise InvalidGraphError(
            f"graph function not finite and positive at {grid.node_label(node)}: "
            f"u = {float(U.flat[node])!r}"
        )


def _pencil_coefficients(h_rr, h_rt, h_tt, g_rr, g_rt, g_tt):
    # det(h - lam g) = a lam^2 + b lam + c
    a = g_rr * g_tt - g_rt ** 2
    b = -(h_rr * g_tt + h_tt * g_rr - 2.0 * h_rt * g_rt)
    c = h_rr * h_tt - h_rt ** 2
    return a, b, c


def graph_geometry(u, u_rho, u_theta, H_rr, H_rt, H_tt, sinh_rho):
    """Node-local geometry of the radial graph from its chart derivatives.

    Maps u, its covariant gradient (u_rho, u_theta) and covariant Hessian
    (H_rr, H_rt, H_tt) at radius rho to ``(v, g, h, sigma1, sigma2)`` with

        v    = sqrt(1 - |Du|^2 / u^2)                     (lapse)
        g_ij = u^2 sigma_ij - u_i u_j                     (induced metric)
        h_ij = (u_ij + u sigma_ij - (2/u) u_i u_j) / v    (second fundamental form)

    as (rr, rt, tt) triples, and sigma1, sigma2 the trace and determinant of
    the shape operator from the pencil det(h - lam g).  Plain arithmetic
    only, so it also takes complex input (the solver differentiates it by
    complex step); the caller guards u > 0 and |Du|/u < 1.
    """
    s2 = sinh_rho ** 2
    v = np.sqrt(1.0 - (u_rho ** 2 + (u_theta / sinh_rho) ** 2) / u ** 2)
    g = (u ** 2 - u_rho ** 2, -u_rho * u_theta, u ** 2 * s2 - u_theta ** 2)
    h = (
        (H_rr + u - 2.0 * u_rho ** 2 / u) / v,
        (H_rt - 2.0 * u_rho * u_theta / u) / v,
        (H_tt + u * s2 - 2.0 * u_theta ** 2 / u) / v,
    )
    a, b, c = _pencil_coefficients(*h, *g)
    return v, g, h, -b / a, c / a


def principal_curvatures(h_rr, h_rt, h_tt, g_rr, g_rt, g_tt):
    """Eigenvalues of h relative to g, sorted descending.

    Solved in closed form from det(h - lam g) = 0 with the cancellation-safe
    quadratic formula; no iterative eigensolver is involved.
    """
    a, b, c = _pencil_coefficients(h_rr, h_rt, h_tt, g_rr, g_rt, g_tt)
    if np.any(np.asarray(a) <= 0.0) or np.any(np.asarray(g_rr) <= 0.0):
        raise InvalidGraphError("metric is not positive definite")
    disc = np.maximum(b * b - 4.0 * a * c, 0.0)
    sq = np.sqrt(disc)
    q = -0.5 * (b + np.copysign(sq, b))
    lam_a = q / a
    lam_b = np.where(q != 0.0, c / np.where(q != 0.0, q, 1.0), 0.0)
    return np.maximum(lam_a, lam_b), np.minimum(lam_a, lam_b)


@dataclasses.dataclass
class ExtrinsicState:
    """Per-node geometric package of a spacelike radial graph: u with its
    covariant gradient and Hessian, and the geometry built from them.

    ``sigma1``/``sigma2`` are the trace and determinant of the shape operator
    computed from the characteristic polynomial of the (h, g) pencil, which
    avoids the half-precision loss the split eigenvalues suffer near umbilic
    points; ``norm_a_sq`` = sigma1^2 - 2 sigma2 for the same reason.
    ``spacelike_gap`` is max over nodes of |Du|/u, below 1 by construction.
    """

    u: np.ndarray
    u_rho: np.ndarray
    u_theta: np.ndarray
    H_rr: np.ndarray
    H_rt: np.ndarray
    H_tt: np.ndarray
    v: np.ndarray
    ginv_rr: np.ndarray
    ginv_rt: np.ndarray
    ginv_tt: np.ndarray
    lam1: np.ndarray
    lam2: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    theta_support: np.ndarray
    norm_a_sq: np.ndarray
    spacelike_gap: float

    def sigma_k(self, k: int) -> np.ndarray:
        if k == 1:
            return self.sigma1
        if k == 2:
            return self.sigma2
        raise ValueError(f"sigma_{k} is not available on a 2-d grid state")

    def admissible_mask(self, k: int) -> np.ndarray:
        """Nodes where the curvature vector lies in the order-k positivity cone."""
        ok = self.sigma1 > 0.0
        if k >= 2:
            ok = ok & (self.sigma2 > 0.0)
        return ok


def extrinsic_state(u, grid: Grid) -> ExtrinsicState:
    """Build the full per-node geometric state of the graph u.

    Raises :class:`InvalidGraphError` / :class:`NotSpacelikeError` when the
    field is not a finite, positive, spacelike graph; otherwise keeps the
    chart data and adds the inverse metric, the principal curvatures, the
    support function u / v and |A|^2 to what :func:`graph_geometry` gives.
    """
    U = np.asarray(u, dtype=float)
    _check_graph(U, grid)
    u_r, u_t, grad_sq = hchart.covariant_gradient(U, grid)
    ratio = grad_sq / U ** 2
    if np.any(ratio >= 1.0):
        flat = int(np.argmax(ratio))
        worst = float(ratio.flat[flat])
        raise NotSpacelikeError(
            f"graph not spacelike at {grid.node_label(flat)}: |Du|/u = {np.sqrt(worst):.6g}",
            node=flat,
            gap=worst,
        )
    gap = float(np.sqrt(np.max(ratio)))
    # temporaries are freed as soon as they are spent: peak memory at 1024^2
    del grad_sq, ratio
    H_rr, H_rt, H_tt = hchart.covariant_hessian(U, u_r, u_t, grid)
    v, g, h, sigma1, sigma2 = graph_geometry(U, u_r, u_t, H_rr, H_rt, H_tt, grid.sinh_rho)
    lam1, lam2 = principal_curvatures(*h, *g)
    del g, h
    # g^{ij} = u^{-2} (sigma^{ij} + u^i u^j / (u^2 v^2)), indices raised by sigma
    s2 = grid.sinh_rho ** 2
    u2v2 = U ** 2 * v ** 2
    inv_scale = 1.0 / U ** 2
    return ExtrinsicState(
        u=U,
        u_rho=u_r,
        u_theta=u_t,
        H_rr=H_rr,
        H_rt=H_rt,
        H_tt=H_tt,
        v=v,
        ginv_rr=inv_scale * (1.0 + u_r ** 2 / u2v2),
        ginv_rt=inv_scale * (u_r * u_t / s2) / u2v2,
        ginv_tt=inv_scale * (1.0 / s2 + (u_t / s2) ** 2 / u2v2),
        lam1=lam1,
        lam2=lam2,
        sigma1=sigma1,
        sigma2=sigma2,
        theta_support=U / v,
        norm_a_sq=sigma1 ** 2 - 2.0 * sigma2,
        spacelike_gap=gap,
    )
