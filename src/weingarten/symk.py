"""Elementary symmetric function kernel.

Provides sigma_k, the classical identity bundle relating it to its
exclusion values sigma_k(lam | i), the positivity cones

    Gamma_k = { lam : sigma_1(lam) > 0, ..., sigma_k(lam) > 0 },

the concave root F = sigma_k^{1/k} with analytic gradient and Hessian, the
quadratic form of F as a function of a symmetric matrix argument, and the
Newton-MacLaurin inequality check.

Every value comes from one batched product recurrence over the last axis of
lam[..., m].  An exclusion value sigma_k(lam | i, ...) is sigma_k with those
entries zeroed, so each function stacks lam, its zeroed copies and any probe
rows and runs the recurrence once.  `sigma_all` and `identity_residuals`
take batches lam[..., n].  Subset enumeration is kept in the test suite as an
independent oracle.  Convention: sigma_0 = 1 and sigma_j = 0 for j > n.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

__all__ = [
    "InadmissibleError",
    "FEval",
    "sigma_all",
    "sigma",
    "identity_residuals",
    "gamma_cone_contains",
    "F_eval",
    "quadratic_form_terms",
    "quadratic_form",
    "newton_maclaurin_check",
]

# Relative gap below which an off-diagonal difference quotient switches to
# its analytic limit.
_EQUAL_EIGENVALUE_RTOL = 1e-9


class InadmissibleError(ValueError):
    """The curvature vector lies outside the required positivity cone."""


def _as_batch(lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    if lam.ndim < 1 or lam.shape[-1] < 1 or not np.all(np.isfinite(lam)):
        raise ValueError("lam must be a finite array lam[..., n] with n >= 1")
    return lam


def _as_lam(lam) -> np.ndarray:
    lam = _as_batch(lam)
    if lam.ndim != 1:
        raise ValueError(f"lam must be one vector, not an array of shape {lam.shape}")
    return lam


def _elementary(lam: np.ndarray) -> np.ndarray:
    """e_0..e_m of every vector along the last axis of lam[..., m], by the
    product recurrence prod_i (1 + lam_i t) = sum_k e_k t^k."""
    m = lam.shape[-1]
    e = np.zeros((m + 1, lam.size // m))  # e_j of vector b in e[j, b]
    e[0] = 1.0
    for x in lam.reshape(-1, m).T:
        e[1:] += x * e[:-1]
    return e.T.reshape(lam.shape[:-1] + (m + 1,))


@functools.lru_cache(maxsize=32)
def _zeroing(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only row multipliers for a length-n vector, with the pair indices
    i < j in ``np.triu_indices`` order: row 0 keeps every entry, row 1 + i
    zeroes entry i, and row 1 + n + p zeroes both entries of pair p."""
    iu, ju = np.triu_indices(n, 1)
    keep = np.ones((1 + n + iu.size, n))
    keep[1 + np.arange(n), np.arange(n)] = 0.0
    pairs = 1 + n + np.arange(iu.size)
    keep[pairs, iu] = 0.0
    keep[pairs, ju] = 0.0
    for a in (keep, iu, ju):
        a.setflags(write=False)
    return keep, iu, ju


def sigma_all(lam) -> np.ndarray:
    """All elementary symmetric functions e_0..e_n of each vector in
    lam[..., n], returned as [..., n+1]."""
    return _elementary(_as_batch(lam))


def sigma(lam, k: int) -> float:
    """sigma_k(lam); sigma_0 = 1."""
    lam = _as_lam(lam)
    if not 0 <= k <= lam.size:
        raise ValueError(f"k = {k} out of range 0..{lam.size}")
    return float(_elementary(lam)[k])


def _rel_residual(lhs, rhs):
    return np.abs(lhs - rhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))


def identity_residuals(lam, k: int) -> np.ndarray:
    """Relative residuals [..., 5] of the five classical sigma_k identities
    at each vector of lam[..., n].

    For 0 <= k <= n-1 (with sigma_j = 0 for j > n):

      1. sigma_{k+1} = sigma_{k+1}(lam|i) + lam_i sigma_k(lam|i)   (max over i)
      2. sum_i lam_i sigma_k(lam|i) = (k+1) sigma_{k+1}
      3. sum_i sigma_k(lam|i) = (n-k) sigma_k
      4. d sigma_{k+1} / d lam_i = sigma_k(lam|i)                  (max over i)
      5. sum_i lam_i^2 sigma_k(lam|i) = sigma_1 sigma_{k+1} - (k+2) sigma_{k+2}

    Identity 4 is probed with a centred difference, which is exact because
    sigma_{k+1} is multilinear.  All residuals vanish to round-off.
    """
    lam = _as_batch(lam)
    n = lam.shape[-1]
    if not 0 <= k <= n - 1:
        raise ValueError(f"k = {k} out of range 0..{n - 1}")
    # rows: lam, lam with entry i zeroed, lam + eps e_i, lam - eps e_i
    eps = 0.5
    rows = lam[..., None, :]
    step = eps * np.eye(n)
    e = _elementary(np.concatenate(
        [rows * _zeroing(n)[0][: n + 1], rows + step, rows - step], axis=-2))
    full, excl = e[..., 0, :], e[..., 1 : n + 1, :]
    up, down = e[..., n + 1 : 2 * n + 1, k + 1], e[..., 2 * n + 1 :, k + 1]
    s1, sk, sk1 = full[..., 1], full[..., k], full[..., k + 1]
    sk2 = full[..., k + 2] if k + 2 <= n else 0.0
    excl_k, excl_k1 = excl[..., k], excl[..., k + 1]

    r1 = np.max(_rel_residual(sk1[..., None], excl_k1 + lam * excl_k), axis=-1)
    r2 = _rel_residual(np.sum(lam * excl_k, axis=-1), (k + 1) * sk1)
    r3 = _rel_residual(np.sum(excl_k, axis=-1), (n - k) * sk)
    r4 = np.max(_rel_residual((up - down) / (2.0 * eps), excl_k), axis=-1)
    r5 = _rel_residual(np.sum(lam ** 2 * excl_k, axis=-1), s1 * sk1 - (k + 2) * sk2)
    return np.stack([r1, r2, r3, r4, r5], axis=-1)


def _in_cone(e: np.ndarray, k: int) -> bool:
    return bool(np.all(e[1 : k + 1] > 0.0))


def gamma_cone_contains(lam, k: int) -> bool:
    """True iff sigma_1(lam), ..., sigma_k(lam) are all strictly positive."""
    lam = _as_lam(lam)
    if not 1 <= k <= lam.size:
        raise ValueError(f"k = {k} out of range 1..{lam.size}")
    return _in_cone(_elementary(lam), k)


@dataclasses.dataclass
class FEval:
    """F = sigma_k^{1/k} with gradient P_i and dense Hessian in lam."""

    F: float
    grad: np.ndarray
    hess: np.ndarray


def F_eval(lam, k: int) -> FEval:
    """Evaluate F = sigma_k^{1/k} with analytic first and second derivatives.

    Uses d sigma_k / d lam_i = sigma_{k-1}(lam|i) and
    d^2 sigma_k / d lam_i d lam_j = sigma_{k-2}(lam|i,j) for i != j (zero on
    the diagonal, sigma_k being multilinear).  Requires lam in Gamma_k.
    """
    lam = _as_lam(lam)
    n = lam.size
    if not 1 <= k <= n:
        raise ValueError(f"k = {k} out of range 1..{n}")
    keep, iu, ju = _zeroing(n)
    e = _elementary(lam * keep)
    if not _in_cone(e[0], k):
        raise InadmissibleError(f"lam = {lam.tolist()} is not in Gamma_{k}")
    S = float(e[0, k])
    Si = e[1 : n + 1, k - 1]
    Sij = np.zeros((n, n))
    if k >= 2:
        Sij[iu, ju] = Sij[ju, iu] = e[n + 1 :, k - 2]
    inv_k = 1.0 / k
    F = S ** inv_k
    grad = inv_k * S ** (inv_k - 1.0) * Si
    hess = inv_k * (inv_k - 1.0) * S ** (inv_k - 2.0) * np.outer(Si, Si)
    hess += inv_k * S ** (inv_k - 1.0) * Sij
    return FEval(F=float(F), grad=grad, hess=hess)


def quadratic_form_terms(lam, k: int, eta) -> tuple[float, float]:
    """The two pieces of the second derivative of F under a symmetric
    perturbation eta of diag(lam):

        sum_{ij} (d^2 F / d lam_i d lam_j) eta_ii eta_jj
      + sum_{i != j} ((P_i - P_j) / (lam_i - lam_j)) eta_ij^2,

    where the difference quotient is replaced by its analytic limit
    F_ii - F_ij when lam_i and lam_j coincide to relative tolerance 1e-9.
    Returns (diagonal Hessian term, difference-quotient term); the second is
    nonpositive on Gamma_k by concavity.
    """
    lam = _as_lam(lam)
    n = lam.size
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (n, n) or not np.array_equal(eta, eta.T):
        raise ValueError("eta must be a symmetric matrix matching lam")
    fe = F_eval(lam, k)
    d = np.diag(eta)
    hess_term = float(d @ fe.hess @ d)
    _, iu, ju = _zeroing(n)
    gap = lam[iu] - lam[ju]
    tie = np.abs(gap) < _EQUAL_EIGENVALUE_RTOL * np.maximum(
        1.0, np.maximum(np.abs(lam[iu]), np.abs(lam[ju])))
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = np.where(
            tie, fe.hess[iu, iu] - fe.hess[iu, ju], (fe.grad[iu] - fe.grad[ju]) / gap)
    dq_term = float(np.sum(2.0 * quotient * eta[iu, ju] ** 2))
    return hess_term, dq_term


def quadratic_form(lam, k: int, eta) -> float:
    """Full second derivative of F(diag(lam) + s eta) at s = 0."""
    hess_term, dq_term = quadratic_form_terms(lam, k, eta)
    return hess_term + dq_term


def newton_maclaurin_check(lam, k: int) -> tuple[bool, float]:
    """Newton inequality at order k:

        (sigma_{k+1} / C(n,k+1)) (sigma_{k-1} / C(n,k-1)) <= (sigma_k / C(n,k))^2.

    Returns (holds?, slack = RHS - LHS).  Valid for 1 <= k <= n-1; holds for
    every real lam, with equality on constant vectors.
    """
    lam = _as_lam(lam)
    n = lam.size
    if not 1 <= k <= n - 1:
        raise ValueError(f"k = {k} out of range 1..{n - 1}")
    e = _elementary(lam).tolist()
    lhs = (e[k + 1] / math.comb(n, k + 1)) * (e[k - 1] / math.comb(n, k - 1))
    rhs = (e[k] / math.comb(n, k)) ** 2
    slack = rhs - lhs
    scale = max(1.0, abs(lhs), abs(rhs))
    return bool(slack >= -1e-12 * scale), float(slack)
