"""Output checks made apart from the package.

Nothing here imports ``weingarten``.  The curvature of a radial graph is
recomputed along the ambient Minkowski route: the graph point X = u x over
the unit hyperboloid, its coordinate tangents and second derivatives as
explicit vectors in R^3 with <a, b> = a1 b1 + a2 b2 - a3 b3, the future unit
normal from the Lorentzian cross product, and the shape operator g^-1 h
from stacked 2x2 matrices.  Only the finite-difference stencils are shared
with the package, because they define the discrete problem; they are
written out again here in the same arithmetic order so that the near-pole
round-off, amplified by 1/sinh(rho)^2, is reproduced rather than doubled.

Every check returns a list of failure messages; an empty list means pass.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

FIELDS_HEADER = "rho,theta,u,v,lambda1,lambda2,sigma_k,theta_support,residual"

# Round-off allowance of the recomputed residual on top of the Newton
# tolerance, as a share of sup |psi| (the tolerance itself is 1e-8 sup |psi|).
RESIDUAL_ROUNDOFF = 1e-12
# Constant of the finest-grid error bound |u - u*| <= C h^2 in study mode.
STUDY_ERROR_CONSTANT = 0.05
STUDY_ORDER_RANGE = (1.8, 2.2)
UNIQUENESS_RTOL = 1e-10
SIGMA_RTOL = 1e-12
IDENTITY_TOL = 1e-10
QUADRATIC_FORM_TOL = 1e-5


# --- grid and stencils ---------------------------------------------------------


class PolarGrid:
    """Cell-centred polar grid: rho_i = (i + 1/2) rho_max / n_rho, theta_j =
    j 2 pi / n_theta; the last ring carries the Dirichlet data."""

    def __init__(self, rho_max: float, n_rho: int, n_theta: int):
        self.rho_max, self.n_rho, self.n_theta = float(rho_max), int(n_rho), int(n_theta)
        self.h = self.rho_max / self.n_rho
        self.dth = 2.0 * math.pi / self.n_theta
        self.rho = (np.arange(self.n_rho) + 0.5) * self.h
        self.theta = np.arange(self.n_theta) * self.dth
        self.R = self.rho[:, None] + np.zeros((1, self.n_theta))
        self.T = self.theta[None, :] + np.zeros((self.n_rho, 1))

    @property
    def shape(self):
        return (self.n_rho, self.n_theta)


def _ghost(U, g: PolarGrid):
    # across the pole: u(-rho_0, theta) = u(rho_0, theta + pi)
    return np.roll(U[0], g.n_theta // 2)


def d_rho(U, g: PolarGrid):
    h = g.h
    D = np.empty_like(U)
    D[0] = (U[1] - _ghost(U, g)) / (2.0 * h)
    D[1:-1] = (U[2:] - U[:-2]) / (2.0 * h)
    D[-1] = (3.0 * U[-1] - 4.0 * U[-2] + U[-3]) / (2.0 * h)
    return D


def d_rho2(U, g: PolarGrid):
    h2 = g.h ** 2
    D = np.empty_like(U)
    D[0] = (U[1] - 2.0 * U[0] + _ghost(U, g)) / h2
    D[1:-1] = (U[2:] - 2.0 * U[1:-1] + U[:-2]) / h2
    D[-1] = (2.0 * U[-1] - 5.0 * U[-2] + 4.0 * U[-3] - U[-4]) / h2
    return D


def d_theta(U, g: PolarGrid):
    return (np.roll(U, -1, axis=1) - np.roll(U, 1, axis=1)) / (2.0 * g.dth)


def d_theta2(U, g: PolarGrid):
    return (np.roll(U, -1, axis=1) - 2.0 * U + np.roll(U, 1, axis=1)) / g.dth ** 2


# --- ambient geometry -------------------------------------------------------------


def _lor(a, b):
    return a[0] * b[0] + a[1] * b[1] - a[2] * b[2]


def graph_geometry(U, g: PolarGrid) -> dict:
    """Spacelike flags, |Du|^2/u^2, support function and the invariants
    sigma_1, sigma_2 of the shape operator of the radial graph U over ``g``,
    from ambient vectors."""
    U = np.asarray(U, dtype=float)
    if U.shape != g.shape or not np.all(np.isfinite(U)) or np.any(U <= 0.0):
        raise ValueError("u must be a finite positive field on the grid")
    u_r, u_t = d_rho(U, g), d_theta(U, g)
    u_rr, u_tt = d_rho2(U, g), d_theta2(U, g)
    u_rt = d_theta(u_r, g)
    s, c = np.sinh(g.R), np.cosh(g.R)
    ct, st = np.cos(g.T), np.sin(g.T)
    zero = np.zeros(g.shape)
    x = np.stack([s * ct, s * st, c])
    x_r = np.stack([c * ct, c * st, s])
    x_t = np.stack([-s * st, s * ct, zero])
    x_rt = np.stack([-c * st, c * ct, zero])
    x_tt = np.stack([-s * ct, -s * st, zero])
    X_r = u_r * x + U * x_r
    X_t = u_t * x + U * x_t
    X_rr = u_rr * x + 2.0 * u_r * x_r + U * x  # x_rho_rho = x on the hyperboloid
    X_rt = u_rt * x + u_r * x_t + u_t * x_r + U * x_rt
    X_tt = u_tt * x + 2.0 * u_t * x_t + U * x_tt
    # Lorentzian cross product: J (a x b) is <,>-orthogonal to a and b
    n = np.cross(X_r, X_t, axis=0)
    n[2] = -n[2]
    nn = _lor(n, n)
    spacelike = nn < 0.0
    N = n / np.sqrt(np.where(spacelike, -nn, 1.0))
    N = N * np.sign(N[2])  # future-directed
    g_rr, g_rt, g_tt = _lor(X_r, X_r), _lor(X_r, X_t), _lor(X_t, X_t)
    h_rr, h_rt, h_tt = -_lor(X_rr, N), -_lor(X_rt, N), -_lor(X_tt, N)
    G = np.stack([np.stack([g_rr, g_rt], -1), np.stack([g_rt, g_tt], -1)], -2)
    H = np.stack([np.stack([h_rr, h_rt], -1), np.stack([h_rt, h_tt], -1)], -2)
    shape_op = np.linalg.solve(G, H)
    sigma1 = np.trace(shape_op, axis1=-2, axis2=-1)
    sigma2 = np.linalg.det(H) / np.linalg.det(G)
    grad_ratio = (u_r ** 2 + (u_t / s) ** 2) / U ** 2
    return {
        "spacelike": spacelike,
        "grad_ratio": grad_ratio,
        "support": -_lor(U * x, N),
        "sigma1": sigma1,
        "sigma2": sigma2,
    }


# --- fields.csv ----------------------------------------------------------------


def read_fields(path, g: PolarGrid) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
    if header != FIELDS_HEADER:
        raise ValueError(f"unexpected fields header {header!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.shape != (g.n_rho * g.n_theta, 9):
        raise ValueError(f"fields table has shape {data.shape}")
    return data


def perturb_fields(src, dst, flat_index: int, rel: float) -> None:
    """Copy a fields.csv, scaling the u value of one node by (1 + rel)."""
    with open(src, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cols = lines[1 + flat_index].split(",")
    cols[2] = "%.17g" % (float(cols[2]) * (1.0 + rel))
    lines[1 + flat_index] = ",".join(cols)
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def check_grid_columns(data, g: PolarGrid) -> list:
    errs = []
    if not np.allclose(data[:, 0], g.R.ravel(), rtol=1e-14, atol=0.0):
        errs.append("rho column does not match the cell-centred grid")
    if not np.allclose(data[:, 1], g.T.ravel(), rtol=1e-14, atol=1e-15):
        errs.append("theta column does not match the periodic grid")
    return errs


def check_boundary_ring(U, g: PolarGrid, c: float) -> list:
    want = c / math.cosh(g.rho[-1])
    dev = float(np.max(np.abs(U[-1] - want)))
    if dev > 1e-14 * max(1.0, want):
        return [f"boundary ring deviates from c/cosh(rho) by {dev:.3e}"]
    return []


def check_curvature_residual(U, g: PolarGrid, k: int, psi_fn) -> list:
    """Independent sigma_k[u] - psi at interior nodes against the run's
    Newton tolerance 1e-8 sup |psi| plus the round-off allowance; also that
    u is spacelike everywhere.  ``psi_fn(rho, theta, u, support)``."""
    try:
        geo = graph_geometry(U, g)
    except ValueError as exc:
        return [str(exc)]
    errs = []
    gap = float(np.sqrt(np.max(geo["grad_ratio"])))
    if not (gap < 1.0 and np.all(geo["spacelike"])):
        errs.append(f"u is not spacelike: max |Du|/u = {gap:.6g}")
        return errs
    psi = psi_fn(g.R, g.T, U, geo["support"])
    sigma = geo["sigma1"] if k == 1 else geo["sigma2"]
    res = np.abs(sigma - psi)[:-1]
    sup_psi = float(np.max(np.abs(psi)))
    limit = (1e-8 + RESIDUAL_ROUNDOFF) * sup_psi
    worst = float(np.max(res))
    if not worst <= limit:
        errs.append(f"sigma_{k} - psi reaches {worst:.4e} > {limit:.4e}")
    return errs


def check_gamma2(U, g: PolarGrid) -> list:
    geo = graph_geometry(U, g)
    inside = (geo["sigma1"] > 0.0) & (geo["sigma2"] > 0.0)
    bad = int(np.count_nonzero(~inside[:-1]))
    return [f"{bad} interior nodes outside Gamma_2"] if bad else []


def check_uniqueness(report: dict, U) -> list:
    probe = report.get("uniqueness")
    if not probe:
        return ["report has no uniqueness probe"]
    dist = float(probe["max_pairwise_distance"])
    limit = UNIQUENESS_RTOL * float(np.max(np.abs(U)))
    errs = [] if dist <= limit else [f"uniqueness distance {dist:.3e} > {limit:.3e}"]
    if not probe.get("all_converged"):
        errs.append("a uniqueness start did not converge")
    return errs


def check_study(study: dict, U, g: PolarGrid, u_star_fn) -> list:
    """Finest-grid error from the benchmark's own u*, and the observed
    orders recomputed from the reported errors with the true grid ratio."""
    errs = []
    rows = study["rows"]
    if rows[-1]["grid"] != g.n_rho:
        errs.append(f"finest study grid {rows[-1]['grid']} != {g.n_rho}")
    err = float(np.max(np.abs(U - u_star_fn(g.R, g.T))))
    limit = STUDY_ERROR_CONSTANT * g.h ** 2
    if not err <= limit:
        errs.append(f"finest-grid error {err:.4e} > C h^2 = {limit:.4e}")
    if abs(err - rows[-1]["error_inf"]) > 1e-6 * max(err, 1e-300):
        errs.append(f"reported finest error {rows[-1]['error_inf']:.6e} != {err:.6e}")
    lo, hi = STUDY_ORDER_RANGE
    for a, b, reported in zip(rows, rows[1:], study["orders"]):
        order = math.log(a["error_inf"] / b["error_inf"]) / math.log(b["grid"] / a["grid"])
        if not lo <= order <= hi:
            errs.append(f"order {a['grid']}->{b['grid']} is {order:.3f}")
        if abs(order - reported) > 1e-9:
            errs.append(f"reported order {reported:.4f} != {order:.4f}")
    return errs


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# --- sigma_k battery ---------------------------------------------------------------


def subset_sigma(lam, k: int) -> tuple[float, float]:
    """sigma_k(lam) as a sum over k-subsets, with its scale sigma_k(|lam|)."""
    terms = [math.prod(c) for c in itertools.combinations(lam, k)]
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


def _close(a, b, scale, rtol) -> bool:
    return abs(a - b) <= rtol * max(scale, 1e-300)


def check_sigma_batch(lams, out: dict) -> list:
    """Check one batch of general vectors: sigma_all, sigma, cone membership,
    the identity residuals and the Newton inequality."""
    errs = []
    for v, lam in enumerate(lams):
        lam = [float(x) for x in lam]
        n = len(lam)
        sub = [subset_sigma(lam, k) for k in range(n + 1)]
        e = out["sigma_all"][v]
        for k, (want, scale) in enumerate(sub):
            if not _close(e[k], want, scale, SIGMA_RTOL):
                errs.append(f"sigma_all[{k}] of {lam} is {e[k]!r}, subsets give {want!r}")
            if not _close(out["sigma"][v][k], want, scale, SIGMA_RTOL):
                errs.append(f"sigma({lam}, {k}) is {out['sigma'][v][k]!r}, subsets give {want!r}")
        for k in range(1, n + 1):
            clear = all(abs(w) > 1e-9 * s for w, s in sub[1 : k + 1])
            if clear and out["cone"][v][k - 1] != all(w > 0.0 for w, _ in sub[1 : k + 1]):
                errs.append(f"gamma_cone_contains({lam}, {k}) is wrong")
        worst = max(max(r) for r in out["identities"][v])
        if not worst <= IDENTITY_TOL:
            errs.append(f"identity residual {worst:.3e} at {lam}")
        for k in range(1, n):
            holds, slack = out["newton"][v][k - 1]
            lhs = sub[k + 1][0] / math.comb(n, k + 1) * sub[k - 1][0] / math.comb(n, k - 1)
            rhs = (sub[k][0] / math.comb(n, k)) ** 2
            scale = max(1.0, sub[k + 1][1] * sub[k - 1][1], sub[k][1] ** 2)
            if not holds or not _close(slack, rhs - lhs, scale, 1e-10):
                errs.append(f"newton_maclaurin_check({lam}, {k}) = {holds}, {slack!r}")
    return errs


def _elementary(eig: np.ndarray) -> np.ndarray:
    """e_0..e_n of the last axis, by expanding prod_i (1 + lam_i t)."""
    e = np.zeros(eig.shape[:-1] + (eig.shape[-1] + 1,))
    e[..., 0] = 1.0
    for i in range(eig.shape[-1]):
        e[..., 1:] = e[..., 1:] + eig[..., i : i + 1] * e[..., :-1]
    return e


def quadratic_form_reference(mus, etas, step: float = 2e-3) -> np.ndarray:
    """Second derivative of s -> F(diag(mu) + s eta) at 0, with
    F(A) = sigma_k(eig A)^(1/k), for every k = 1..n: Richardson-extrapolated
    central differences of eigenvalues.  Returns shape (batch, n)."""
    mus, etas = np.asarray(mus, dtype=float), np.asarray(etas, dtype=float)
    n = mus.shape[1]
    A0 = np.eye(n) * mus[:, None, :]
    hs = (step, step / 2.0)
    mats = np.stack([A0 + sgn * h * etas for h in hs for sgn in (1.0, 0.0, -1.0)], axis=1)
    e = _elementary(np.linalg.eigvalsh(mats))[..., 1:]
    F = e ** (1.0 / np.arange(1, n + 1))
    d = [(F[:, 3 * i] - 2.0 * F[:, 3 * i + 1] + F[:, 3 * i + 2]) / hs[i] ** 2 for i in range(2)]
    return (4.0 * d[1] - d[0]) / 3.0


def check_quadratic_batch(mus, etas, out: dict) -> list:
    errs = []
    want = quadratic_form_reference(mus, etas)
    got = np.asarray(out["quadratic"], dtype=float)
    bad = np.abs(got - want) > QUADRATIC_FORM_TOL * np.maximum(1.0, np.abs(want))
    for v, k in zip(*np.nonzero(bad)):
        errs.append(f"quadratic_form(k={k + 1}) is {got[v, k]:.8g}, "
                    f"differences give {want[v, k]:.8g}")
    return errs
