"""Numerical verification of the a-priori estimates on computed solutions.

Covers the gradient (lapse) bound with its explicit constants, the global
curvature ratio, the banded interior curvature profile weighted by the
boundary-data gap, and the Laplace identity satisfied by the Lorentzian
support quantity q = <X, nu> along the graph.

The gradient bound is checked in the exact form

    sup W <= (sup_boundary W) * exp(S2 * (2 sup_boundary |phi| + diam)),

with W = 1/v and constants S1, S2 from :func:`gradient_constants`.  The
curvature statements are qualitative; the harness asserts boundedness and
stability under refinement rather than any specific constant.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import geom, hchart
from .hchart import Grid, geodesic_diameter

__all__ = [
    "EstimateReport",
    "gradient_constants",
    "gradient_estimate_check",
    "curvature_ratio",
    "interior_profile",
    "support_laplace_identity_check",
    "build_report",
]

# The support-quantity identity is implemented for q = <X, nu>_L itself: on
# the exact constant graph only that sign balances the budget
# sigma_1 + |A|^2 q = n/R - n/R = 0.  The support function used elsewhere is
# -<X, nu>_L; reports record this sign convention.
SUPPORT_IDENTITY_NOTE = (
    "identity checked for q = <X,nu>_L (= -support); with the opposite sign "
    "the constant-graph budget sigma_1 + |A|^2 theta does not vanish"
)

# The interior profile constant of the underlying estimate is fixed inside a
# proof (delta = 1/4, zeta = 1/5) and plays no computational role; recorded
# for report metadata only.
PROFILE_CONSTANTS_NOTE = "profile bound constants delta=1/4, zeta=1/5 (metadata only)"


def gradient_constants(n: int, rho_gap: float, sup_dpsi: float, inf_psi: float, k: int):
    """Explicit constants of the lapse bound.

    S1 is the larger root of S(S-1) = c(2S+1) with c = (n+1)/(1-rho_gap^2),
    i.e. S1 = ((1+2c) + sqrt((1+2c)^2 + 4c)) / 2, and
    S2 = 1.01 * max(sup|Dpsi| / (k inf psi), S1).
    """
    if not 0.0 <= rho_gap < 1.0:
        raise ValueError(f"spacelike gap must lie in [0, 1), got {rho_gap}")
    if inf_psi <= 0.0:
        raise ValueError("inf psi must be positive")
    c = (n + 1.0) / (1.0 - rho_gap ** 2)
    s1 = 0.5 * ((1.0 + 2.0 * c) + math.sqrt((1.0 + 2.0 * c) ** 2 + 4.0 * c))
    s2 = 1.01 * max(sup_dpsi / (k * inf_psi), s1)
    return s1, s2


def gradient_estimate_check(state: geom.ExtrinsicState, phi_field, grid: Grid, s2: float):
    """Both sides of the lapse bound and the pass flag."""
    W = 1.0 / state.v
    sup_w = float(np.max(W))
    sup_w_boundary = float(np.max(W[-1, :]))
    sup_phi_boundary = float(np.max(np.abs(np.asarray(phi_field)[-1, :])))
    try:
        bound = sup_w_boundary * math.exp(
            s2 * (2.0 * sup_phi_boundary + geodesic_diameter(grid))
        )
    except OverflowError:  # past the float range the bound holds for any finite sup W
        bound = math.inf
    return {
        "sup_w": sup_w,
        "sup_w_boundary": sup_w_boundary,
        "bound": bound,
        "passed": bool(sup_w <= bound),
    }


def curvature_ratio(state: geom.ExtrinsicState):
    """sup ||A|| over the closure divided by (1 + sup ||A|| over the boundary)."""
    norm_a = np.sqrt(np.maximum(state.norm_a_sq, 0.0))
    sup_all = float(np.max(norm_a))
    sup_boundary = float(np.max(norm_a[-1, :]))
    return {
        "sup_norm_a": sup_all,
        "sup_norm_a_boundary": sup_boundary,
        "ratio": sup_all / (1.0 + sup_boundary),
    }


# Number of distance bands of the interior profile.
_PROFILE_BANDS = 5


def interior_profile(state: geom.ExtrinsicState, phi_field, grid: Grid, lam1):
    """Curvature profile over nested interior bands of distance to the
    boundary, together with the weighted quantity sup (phi - u) * lam_1,
    where ``lam1`` is the state's larger principal curvature
    (:func:`geom.state_curvatures`).

    phi is extended off the boundary by its defining closed form; eta = phi-u
    must be nonnegative up to the discretisation allowance, otherwise the
    profile reports a violation (non-affine data or a wrong extension).
    """
    eta = np.asarray(phi_field, dtype=float) - state.u
    interior = grid.interior_mask
    eps_h = 10.0 * grid.d_rho ** 2
    eta_min = float(np.min(eta[interior]))
    scale = max(1.0, float(np.max(np.abs(state.u))))
    degenerate = bool(np.max(np.abs(eta[interior])) <= 1e-12 * scale)
    violation = bool(eta_min < -eps_h)
    dist = grid.chart.rho_max - grid.rho_col + np.zeros(grid.shape)
    norm_a = np.sqrt(np.maximum(state.norm_a_sq, 0.0))
    weighted = eta * lam1
    edges = np.linspace(0.0, grid.chart.rho_max, _PROFILE_BANDS + 1)
    rows = []
    for b in range(_PROFILE_BANDS):
        in_band = interior & (dist >= edges[b]) & (
            dist < edges[b + 1] if b < _PROFILE_BANDS - 1 else dist <= edges[b + 1]
        )
        if not np.any(in_band):
            continue
        rows.append(
            {
                "distance_lo": float(edges[b]),
                "distance_hi": float(edges[b + 1]),
                "nodes": int(np.count_nonzero(in_band)),
                "sup_norm_a": float(np.max(norm_a[in_band])),
                "sup_eta_lam1": float(np.max(weighted[in_band])),
            }
        )
    return {
        "bands": rows,
        "eta_min": eta_min,
        "degenerate": degenerate,
        "violation": violation,
        "sup_eta_lam1": float(np.max(weighted[interior])),
    }


def support_laplace_identity_check(state: geom.ExtrinsicState, grid: Grid):
    """Discrete residual of the Laplace identity of the support quantity,

        Lap_g q = sigma_1 + grad^i sigma_1 <X, X_i> + |A|^2 q,

    for q = <X, nu>_L, with Lap_g the conservative (staggered-flux) Laplacian
    of the induced metric and <X, X_i> = -u u_i in chart components.  The
    radial flux through the pole vanishes identically (the area element does),
    so the innermost ring needs no special casing.

    Returns a dict: ``core``, the sup-norm over the interior consistency
    region (all interior rings except the one touching the Dirichlet ring,
    whose one-sided boundary stencils leave a lower-order composite
    truncation there), ``near_boundary``, the sup-norm on that ring, and
    ``field``, the residual field.
    """
    q = -state.theta_support
    sqrt_g = state.u ** 2 * state.v * grid.sinh_rho + np.zeros(grid.shape)
    ginv_rr, ginv_rt, ginv_tt = geom.inverse_metric(state, grid)
    A = sqrt_g * ginv_rr
    B = sqrt_g * ginv_rt
    C = sqrt_g * ginv_tt
    dq_r = hchart.partial_rho(q, grid)
    dq_t = hchart.partial_theta(q, grid)
    # radial flux at half rings i+1/2 (pole flux at -1/2 is exactly zero)
    a_mid = 0.5 * (A[1:] + A[:-1])
    b_mid = 0.5 * (B[1:] + B[:-1])
    f_rad = a_mid * (q[1:] - q[:-1]) / grid.d_rho + b_mid * 0.5 * (dq_t[1:] + dq_t[:-1])
    div = np.zeros(grid.shape)
    div[0] = f_rad[0] / grid.d_rho
    div[1:-1] = (f_rad[1:] - f_rad[:-1]) / grid.d_rho
    # angular flux at half lines j+1/2
    c_mid = 0.5 * (C + np.roll(C, -1, axis=1))
    b_mid_t = 0.5 * (B + np.roll(B, -1, axis=1))
    f_ang = (
        c_mid * (np.roll(q, -1, axis=1) - q) / grid.d_theta
        + b_mid_t * 0.5 * (dq_r + np.roll(dq_r, -1, axis=1))
    )
    div += (f_ang - np.roll(f_ang, 1, axis=1)) / grid.d_theta
    lap_q = div / sqrt_g
    s1 = state.sigma1
    ds1_r = hchart.partial_rho(s1, grid)
    ds1_t = hchart.partial_theta(s1, grid)
    grad_r = ginv_rr * ds1_r + ginv_rt * ds1_t
    grad_t = ginv_rt * ds1_r + ginv_tt * ds1_t
    rhs = s1 + grad_r * (-state.u * state.u_rho) + grad_t * (-state.u * state.u_theta)
    rhs += state.norm_a_sq * q
    resid = lap_q - rhs
    return {
        "core": float(np.max(np.abs(resid[: grid.n_rho - 2]))),
        "near_boundary": float(np.max(np.abs(resid[grid.n_rho - 2]))),
        "field": resid,
    }


@dataclasses.dataclass
class EstimateReport:
    """Verification summary of a computed solution."""

    spacelike_gap: float
    sup_w: float
    sup_w_boundary: float
    s1: float
    s2: float
    gradient_bound: float
    gradient_bound_passed: bool
    sup_norm_a: float
    sup_norm_a_boundary: float
    curvature_ratio: float
    interior_profile: dict
    support_identity_residual: float
    support_identity_residual_near_boundary: float
    sup_dpsi: float
    inf_psi: float
    notes: dict

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def build_report(state: geom.ExtrinsicState, spec, lam1) -> EstimateReport:
    """Run the whole estimate battery on the state of a solution field, with
    ``lam1`` the state's larger principal curvature
    (:func:`geom.state_curvatures`)."""
    grid = spec.grid
    gap = state.spacelike_gap
    psi = spec.psi_field(state.u, state.theta_support)
    _, _, psi_grad_sq = hchart.covariant_gradient(psi, grid)
    sup_dpsi = float(np.sqrt(np.max(psi_grad_sq)))
    inf_psi = float(np.min(psi))
    s1, s2 = gradient_constants(spec.n, gap, sup_dpsi, inf_psi, spec.k)
    phi_field = spec.phi_field()
    grad_check = gradient_estimate_check(state, phi_field, grid, s2)
    ratio = curvature_ratio(state)
    profile = interior_profile(state, phi_field, grid, lam1)
    identity = support_laplace_identity_check(state, grid)
    return EstimateReport(
        spacelike_gap=gap,
        sup_w=grad_check["sup_w"],
        sup_w_boundary=grad_check["sup_w_boundary"],
        s1=s1,
        s2=s2,
        gradient_bound=grad_check["bound"],
        gradient_bound_passed=grad_check["passed"],
        sup_norm_a=ratio["sup_norm_a"],
        sup_norm_a_boundary=ratio["sup_norm_a_boundary"],
        curvature_ratio=ratio["ratio"],
        interior_profile=profile,
        support_identity_residual=identity["core"],
        support_identity_residual_near_boundary=identity["near_boundary"],
        sup_dpsi=sup_dpsi,
        inf_psi=inf_psi,
        notes={
            "support_identity_form": SUPPORT_IDENTITY_NOTE,
            "profile_constants": PROFILE_CONSTANTS_NOTE,
        },
    )
