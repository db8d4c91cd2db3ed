"""Extrinsic geometry of spacelike radial graphs over the hyperbolic chart.

A positive graph function u on the chart defines the hypersurface swept out
by u(x) * x, with x on the unit hyperboloid in Minkowski space
(metric dx_1^2 + ... + dx_n^2 - dx_{n+1}^2).  One node-local kernel,
:func:`graph_geometry`, holds the formulas for the lapse, the induced metric,
the second fundamental form and sigma_1, sigma_2, and :func:`_linearisation`
their partials, which the solver's Jacobian takes; :func:`extrinsic_state`
guards the field, calls the kernel and packages what the Newton loop reads,
and :func:`state_curvatures`, :func:`inverse_metric` and
``ExtrinsicState.norm_a_sq`` give the report the principal curvatures, the
inverse metric and |A|^2 of a solved field's state.
:func:`sigma_k_lines` applies the same guards to every node and evaluates the
kernel on some theta lines only.  Everything is vectorised over (n_rho,
n_theta) arrays and works equally on scalars.

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
    "state_curvatures",
    "inverse_metric",
    "sigma_k_lines",
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


def _induced_metric(u, u_rho, u_theta, s2):
    """g_ij = u^2 sigma_ij - u_i u_j as an (rr, rt, tt) triple, with s2 =
    sinh(rho)^2 the chart metric's theta-theta entry."""
    return u ** 2 - u_rho ** 2, -u_rho * u_theta, u ** 2 * s2 - u_theta ** 2


def _metric_det(g_rr, g_rt, g_tt):
    return g_rr * g_tt - g_rt ** 2


def _check_metric(a, g_rr):
    """Raise :class:`InvalidGraphError` unless the metric with determinant a
    and rho-rho entry g_rr is positive definite at every node."""
    if np.any(np.asarray(a) <= 0.0) or np.any(np.asarray(g_rr) <= 0.0):
        raise InvalidGraphError("metric is not positive definite")


def _pencil_coefficients(h_rr, h_rt, h_tt, g_rr, g_rt, g_tt):
    # det(h - lam g) = a lam^2 + b lam + c
    a = _metric_det(g_rr, g_rt, g_tt)
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
    only, so it also takes complex input: the tests' reference Jacobian
    differentiates it by complex step, the reference for the closed form of
    :func:`_linearisation`.  The caller guards u > 0 and |Du|/u < 1.
    """
    s2 = sinh_rho ** 2
    v = np.sqrt(1.0 - (u_rho ** 2 + (u_theta / sinh_rho) ** 2) / u ** 2)
    g = _induced_metric(u, u_rho, u_theta, s2)
    h = (
        (H_rr + u - 2.0 * u_rho ** 2 / u) / v,
        (H_rt - 2.0 * u_rho * u_theta / u) / v,
        (H_tt + u * s2 - 2.0 * u_theta ** 2 / u) / v,
    )
    a, b, c = _pencil_coefficients(*h, *g)
    return v, g, h, -b / a, c / a


def _linearisation(state: ExtrinsicState, k: int, sinh_rho):
    """Partials of sigma_k and of the support u / v with respect to the chart
    slots (u, u_rho, u_theta, H_rr, H_rt, H_tt) at every node of ``state``:
    :func:`graph_geometry`'s formulas differentiated in closed form.

    With s2 = sinh^2 rho, |Du|^2 = u_rho^2 + u_theta^2 / s2 and w = u^2 v^2 =
    u^2 - |Du|^2, the metric has det g = u^2 s2 w, and the bracket of h is
    v h = (w sigma + D) / u, where sigma = (1, 0, s2) is the chart's metric
    and D the bracket's deviation from a constant graph's:

        D = (u H_rr - u_rho^2 + u_theta^2 / s2,  u H_rt - 2 u_rho u_theta,
             u H_tt - u_theta^2 + s2 u_rho^2),

    whose trace L = D_rr + D_tt / s2 = u (H_rr + H_tt / s2) is u times the
    Laplacian.  With Q = u_rho^2 D_tt + u_theta^2 D_rr - 2 u_rho u_theta D_rt,

        sigma1 = (u^2 + w) / (u^2 sqrt w) + (L - Q / (u^2 s2)) / w^(3/2)
        sigma2 = (1 + L / w + det D / (s2 w^2)) / u^2,

    which a constant graph u = c reduces to 2 / c and 1 / c^2.  The u, u_rho
    and u_theta partials are taken in this form: it has no large terms that
    cancel, as the chain rule through g, h and v has where the chart factor
    1 / s2 is large (the pole ring) and the graph is near umbilic.  The
    Hessian enters D alone, linearly, and its partials are the Newton tensor
    T_{k-1} in cofactor form, (X_tt, -2 X_rt, X_rr) / (det g v^k) with X = g
    for k = 1 and X = v h for k = 2.  The support u / v = u^2 / sqrt w has
    partials (u (w - |Du|^2), u^2 u_rho, u^2 u_theta / s2) / w^(3/2).

    Returns (the six sigma_k partials, the support's partials for u, u_rho
    and u_theta), each of the state's shape.
    """
    u, p, q = state.u, state.u_rho, state.u_theta
    H_rr, H_rt, H_tt = state.H_rr, state.H_rt, state.H_tt
    s2 = sinh_rho ** 2
    grad2 = p * p + q * q / s2
    w = u * u - grad2
    D_rr, D_rt, D_tt = u * H_rr - p * p + q * q / s2, u * H_rt - 2.0 * p * q, u * H_tt - q * q + s2 * p * p
    L = u * (H_rr + H_tt / s2)
    c = 1.0 / (w * np.sqrt(w))  # w^(-3/2)
    # the partials of w
    w_u, w_p, w_q = 2.0 * u, -2.0 * p, -2.0 * q / s2
    if k == 1:
        Q = p * p * D_tt + q * q * D_rr - 2.0 * p * q * D_rt
        A = grad2 / (2.0 * u * u) + 1.5 * (L - Q / (u * u * s2)) / w
        # the partials of Q / (u^2 s2) times u^2 s2
        Q_u = p * p * H_tt + q * q * H_rr - 2.0 * p * q * H_rt - 2.0 * Q / u
        Q_p = 2.0 * (p * (D_tt + s2 * grad2) - q * D_rt)
        Q_q = 2.0 * (q * (D_rr + grad2) - p * D_rt)
        del Q
        u2s2 = u * u * s2
        first = (c * (L / u - A * w_u - Q_u / u2s2) - 2.0 * np.sqrt(w) / u ** 3,
                 c * (-A * w_p - Q_p / u2s2),
                 c * (-A * w_q - Q_q / u2s2))
        scale = c / (u * s2)
        hess = ((u * u * s2 - q * q) * scale, 2.0 * p * q * scale, (u * u - p * p) * scale)
    else:
        A = (L + 2.0 * (D_rr * D_tt - D_rt ** 2) / (s2 * w)) / w
        # <D, dD> for the slots u, u_rho and u_theta, where d det D = <D, dD>
        Y_u = D_rr * H_tt + D_tt * H_rr - 2.0 * D_rt * H_rt
        Y_p = 2.0 * p * (s2 * D_rr - D_tt) + 4.0 * q * D_rt
        Y_q = 2.0 * q * (D_tt / s2 - D_rr) + 4.0 * p * D_rt
        s2w = s2 * w
        scale = 1.0 / (u * u * w)
        first = ((L / u - A * w_u + Y_u / s2w) * scale - 2.0 * state.sigma2 / u,
                 (-A * w_p + Y_p / s2w) * scale,
                 (-A * w_q + Y_q / s2w) * scale)
        scale = scale / s2w * u  # 1 / (u s2 w^2)
        hess = ((w * s2 + D_tt) * scale, -2.0 * D_rt * scale, (w + D_rr) * scale)
    uc = u * c
    dsupport = (uc * (w - grad2), uc * u * p, uc * u * q / s2)
    return first + hess, dsupport


def principal_curvatures(h_rr, h_rt, h_tt, g_rr, g_rt, g_tt):
    """Eigenvalues of h relative to g, sorted descending.

    Solved in closed form from det(h - lam g) = 0 with the cancellation-safe
    quadratic formula; no iterative eigensolver is involved.
    """
    a, b, c = _pencil_coefficients(h_rr, h_rt, h_tt, g_rr, g_rt, g_tt)
    _check_metric(a, g_rr)
    disc = np.maximum(b * b - 4.0 * a * c, 0.0)
    sq = np.sqrt(disc)
    q = -0.5 * (b + np.copysign(sq, b))
    lam_a = q / a
    lam_b = np.where(q != 0.0, c / np.where(q != 0.0, q, 1.0), 0.0)
    return np.maximum(lam_a, lam_b), np.minimum(lam_a, lam_b)


@dataclasses.dataclass
class ExtrinsicState:
    """Per-node state of a spacelike radial graph, what the Newton loop reads:
    u with its covariant gradient and Hessian, the lapse ``v``, sigma_1,
    sigma_2, the support function ``theta_support`` = u / v and
    ``spacelike_gap``, max over nodes of |Du|/u, below 1 by construction.

    ``sigma1``/``sigma2`` are the trace and determinant of the shape operator
    computed from the characteristic polynomial of the (h, g) pencil, which
    avoids the half-precision loss the split eigenvalues suffer near umbilic
    points; :attr:`norm_a_sq` = sigma1^2 - 2 sigma2 for the same reason.  The
    report's other quantities are computed from a solved field's state:
    :func:`state_curvatures` and :func:`inverse_metric`.
    """

    u: np.ndarray
    u_rho: np.ndarray
    u_theta: np.ndarray
    H_rr: np.ndarray
    H_rt: np.ndarray
    H_tt: np.ndarray
    v: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    theta_support: np.ndarray
    spacelike_gap: float

    @property
    def norm_a_sq(self) -> np.ndarray:
        """|A|^2 = sigma1^2 - 2 sigma2 at every node."""
        return self.sigma1 ** 2 - 2.0 * self.sigma2

    def sigma_k(self, k: int) -> np.ndarray:
        return _pick_sigma(k, self.sigma1, self.sigma2)

    def admissible_mask(self, k: int) -> np.ndarray:
        """Nodes where the curvature vector lies in the order-k positivity cone."""
        ok = self.sigma1 > 0.0
        if k >= 2:
            ok = ok & (self.sigma2 > 0.0)
        return ok


def _pick_sigma(k: int, sigma1, sigma2):
    if k == 1:
        return sigma1
    if k == 2:
        return sigma2
    raise ValueError(f"sigma_{k} is not available on a 2-d grid state")


def _chart_data(u, grid: Grid):
    """The guarded chart stage: ((u, u_rho, u_theta, H_rr, H_rt, H_tt), gap)
    with the covariant gradient and Hessian of u and gap = max |Du|/u.

    Raises :class:`InvalidGraphError` at the first node where u is not a
    finite positive number, then :class:`NotSpacelikeError` at the node of
    the largest |Du|/u when that reaches 1.
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
    return (U, u_r, u_t, *hchart.covariant_hessian(U, u_r, u_t, grid)), gap


def extrinsic_state(u, grid: Grid) -> ExtrinsicState:
    """Build the per-node state of the graph u that the Newton loop reads.

    Raises :class:`InvalidGraphError` / :class:`NotSpacelikeError` when the
    field is not a finite, positive, spacelike graph with a positive definite
    metric; otherwise keeps the chart data and adds the support function
    u / v to what :func:`graph_geometry` gives.
    """
    chart, gap = _chart_data(u, grid)
    v, g, h, sigma1, sigma2 = graph_geometry(*chart, grid.sinh_rho)
    _check_metric(_metric_det(*g), g[0])
    del g, h
    # the state's first six fields are the chart data, in the same order
    return ExtrinsicState(*chart, v, sigma1, sigma2, chart[0] / v, gap)


def state_curvatures(state: ExtrinsicState, grid: Grid):
    """(lam1, lam2) of ``state`` on ``grid`` by :func:`principal_curvatures`."""
    _, g, h, _, _ = graph_geometry(state.u, state.u_rho, state.u_theta,
                                   state.H_rr, state.H_rt, state.H_tt, grid.sinh_rho)
    return principal_curvatures(*h, *g)


def inverse_metric(state: ExtrinsicState, grid: Grid):
    """g^{ij} = u^{-2} (sigma^{ij} + u^i u^j / (u^2 v^2)) of ``state`` on ``grid``
    as an (rr, rt, tt) triple, indices raised by the chart metric sigma."""
    u_r, u_t, s2 = state.u_rho, state.u_theta, grid.sinh_rho ** 2
    u2v2 = state.u ** 2 * state.v ** 2
    inv_scale = 1.0 / state.u ** 2
    return (inv_scale * (1.0 + u_r ** 2 / u2v2), inv_scale * (u_r * u_t / s2) / u2v2,
            inv_scale * (1.0 / s2 + (u_t / s2) ** 2 / u2v2))


def sigma_k_lines(u, grid: Grid, k: int, step: int) -> np.ndarray:
    """sigma_k of the graph u on the theta lines j = 0, step, 2 step, ... of
    ``grid``, an (n_rho, n_theta / step) array.

    The chart data come from the whole grid, since the theta stencils reach
    the neighbouring lines, and every guard of :func:`extrinsic_state` runs
    on every node in the same order: finite and positive u, spacelike, then
    :func:`principal_curvatures`' positive-definite metric test.  Only the
    node-local kernel is restricted to the kept lines, so the values are
    those of ``extrinsic_state(u, grid).sigma_k(k)[:, ::step]`` bit for bit.
    """
    (U, u_r, u_t, *hessian), _ = _chart_data(u, grid)
    lines = (slice(None), slice(None, None, step))
    # the Hessian's kept lines are copied out, so that its full arrays are
    # freed before the metric test: peak memory at 1024^2
    hessian = [H[lines].copy() for H in hessian]
    g = _induced_metric(U, u_r, u_t, grid.sinh_rho ** 2)
    _check_metric(_metric_det(*g), g[0])
    del g
    _, _, _, sigma1, sigma2 = graph_geometry(
        U[lines], u_r[lines], u_t[lines], *hessian, grid.sinh_rho)
    return _pick_sigma(k, sigma1, sigma2)
