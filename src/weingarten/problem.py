"""Problem data: right-hand-side families, boundary data and the full spec.

The prescribed curvature psi(x, u, support) comes in three families:

  * ``power``        psi = support^p * h(rho, theta, u)
  * ``exponential``  psi = exp(p * support) * h(rho, theta, u)
  * ``tabulated``    psi given per node (used for manufactured solutions)

``h`` is a closed-form expression over (rho, theta, u) from a small safe
grammar: numeric constants and the variables combined by + - * / ** and
unary signs, and cos and sin of any subexpression.  The power family with
growth exponent p >= k keeps the structural convexity condition that the
curvature estimates require; p < k is accepted but flagged.

A manufactured problem takes psi = sigma_k[u*] of a closed-form graph u*
over (rho, theta) in the same grammar, computed exactly at every node from
u*'s derivatives up to second order (see :func:`manufactured_problem`).
"""

from __future__ import annotations

import ast
import dataclasses
import math

import numpy as np

from . import geom
from .hchart import Grid
from .tridiag import CyclicReduction

__all__ = [
    "ExpressionError",
    "Expr",
    "PsiSpec",
    "PhiSpec",
    "ProblemSpec",
    "excerpt",
    "spline_rows",
    "manufactured_problem",
]


class ExpressionError(ValueError):
    """An expression fell outside the supported grammar."""


# Characters of an input that an error message quotes.
_EXCERPT_CHARS = 80


def excerpt(value) -> str:
    """repr(value) for an error message; a long string is cut to its first
    characters and its length, so one bad input gives one short line."""
    if isinstance(value, str) and len(value) > _EXCERPT_CHARS:
        return f"{value[:_EXCERPT_CHARS]!r}... ({len(value)} characters)"
    return repr(value)


_ALLOWED_FUNCS = {"cos": np.cos, "sin": np.sin}
_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.USub, ast.UAdd)


class Expr:
    """A validated closed-form scalar expression over (rho, theta, u)."""

    def __init__(self, text: str, variables=("rho", "theta", "u")):
        self.text = str(text)
        self.variables = tuple(variables)
        try:
            tree = ast.parse(self.text, mode="eval")
        except SyntaxError as exc:
            raise ExpressionError(
                f"cannot parse expression {excerpt(self.text)}: {exc}"
            ) from None
        except (RecursionError, MemoryError):
            # the parser's own nesting limits, reached by e.g. thousands of unary minuses
            raise ExpressionError(self._too_deep()) from None
        # names appearing as call targets are validated with the Call node
        call_targets = {
            id(node.func)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Expression, ast.Load)):
                continue
            if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
                continue
            if isinstance(node, _ALLOWED_BINOPS + _ALLOWED_UNARY):
                continue
            if isinstance(node, ast.UnaryOp) and isinstance(node.op, _ALLOWED_UNARY):
                continue
            if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
                continue
            if isinstance(node, ast.Name):
                if id(node) in call_targets:
                    continue
                if node.id in self.variables:
                    names.add(node.id)
                    continue
                raise ExpressionError(
                    f"unknown variable {excerpt(node.id)} in {excerpt(self.text)}; "
                    f"allowed: {', '.join(self.variables)}"
                )
            if isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in _ALLOWED_FUNCS
                    and len(node.args) == 1
                    and not node.keywords
                ):
                    continue
                raise ExpressionError(
                    f"unsupported call in {excerpt(self.text)}; allowed functions: "
                    f"{', '.join(sorted(_ALLOWED_FUNCS))}"
                )
            raise ExpressionError(
                f"unsupported syntax {type(node).__name__!r} in {excerpt(self.text)}"
            )
        self._names = frozenset(names)
        try:
            # Integer powers are unbounded (9**9**9 would run for hours); float
            # arithmetic overflows at once.
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant):
                    node.value = float(node.value)
            self._code = compile(tree, "<expr>", "eval")
            # Constant subexpressions are Python floats, which raise on overflow
            # and division by zero whatever the variables hold: find them here.
            probe = np.ones(1)
            with np.errstate(all="ignore"):
                self(rho=probe, theta=probe, u=probe)
        except (OverflowError, ZeroDivisionError) as exc:
            raise ExpressionError(f"cannot evaluate {excerpt(self.text)}: {exc}") from None
        except (RecursionError, MemoryError):
            raise ExpressionError(self._too_deep()) from None

    def _too_deep(self) -> str:
        return f"expression {excerpt(self.text)} is nested too deeply"

    @property
    def is_constant(self) -> bool:
        return not self._names

    def __call__(self, rho=0.0, theta=0.0, u=0.0):
        env = dict(_ALLOWED_FUNCS)
        env.update(rho=rho, theta=theta, u=u)
        return eval(self._code, {"__builtins__": {}}, env)

    def __repr__(self):
        return f"Expr({self.text!r})"


# Imaginary step of PsiSpec.partials; no subtractive cancellation occurs, so
# it only needs to avoid underflow in squares.
_COMPLEX_STEP = 1e-30


def _as_expr(h) -> Expr:
    if isinstance(h, Expr):
        return h
    if isinstance(h, (int, float)):
        return Expr(repr(float(h)))
    return Expr(h)


@dataclasses.dataclass
class PsiSpec:
    """Prescribed-curvature right-hand side psi(x, u, support) > 0."""

    family: str
    p: float = 0.0
    h: Expr | str | float = 1.0
    table: np.ndarray | None = None

    def __post_init__(self):
        if self.family not in ("power", "exponential", "tabulated"):
            raise ValueError(f"unknown psi family {self.family!r}")
        if self.family == "tabulated":
            if self.table is None:
                raise ValueError("tabulated psi requires node values")
            t = np.asarray(self.table, dtype=float)
            if not np.all(np.isfinite(t)) or np.any(t <= 0.0):
                raise ValueError("tabulated psi values must be finite and positive")
            self.table = t
        else:
            self.h = _as_expr(self.h)
            self.p = float(self.p)

    @property
    def is_constant(self) -> bool:
        if self.family == "tabulated":
            return bool(np.ptp(self.table) == 0.0)
        return self.p == 0.0 and self.h.is_constant

    def evaluate(self, rho, theta, u, support) -> np.ndarray:
        """psi at the given points; raises ValueError unless every value is
        finite and positive."""
        if self.family == "tabulated":
            vals = self.table + 0.0 * np.asarray(u)
        else:
            hv = self.h(rho=rho, theta=theta, u=u)
            support = np.asarray(support)
            with np.errstate(over="ignore"):  # the check reports an overflow
                if self.family == "power":
                    vals = support ** self.p * hv
                else:
                    vals = np.exp(self.p * support) * hv
        vals = np.asarray(vals, dtype=float)
        if np.any(~np.isfinite(vals)) or np.any(vals <= 0.0):
            raise ValueError("psi must stay finite and strictly positive")
        return vals

    def partials(self, rho, theta, u, support):
        """(d psi / du at fixed support, d psi / d support), the pair the
        Jacobian needs.  The support partial is closed form: p psi / support
        for the power family, p psi for the exponential one.  h's u-partial
        is one complex-step evaluation of the expression, exact to round-off
        since it involves no subtraction.  A tabulated psi depends on neither
        and gives (0, 0)."""
        if self.family == "tabulated":
            return 0.0, 0.0
        hc = self.h(rho=rho, theta=theta, u=u + 1j * _COMPLEX_STEP)
        hv, h_u = np.real(hc), np.imag(hc) / _COMPLEX_STEP
        with np.errstate(over="ignore"):  # as in evaluate
            if self.family == "power":
                f = support ** self.p
                return f * h_u, self.p * (f * hv) / support
            f = np.exp(self.p * support)
            return f * h_u, self.p * (f * hv)


@dataclasses.dataclass
class PhiSpec:
    """Dirichlet boundary data: constant c, or the hyperplane slice c / cosh(rho).

    Both families are spacelike for any c > 0 (the hyperplane slice has
    |D phi| / phi = tanh(rho) < 1).
    """

    family: str
    c: float

    def __post_init__(self):
        if self.family not in ("constant", "hyperplane"):
            raise ValueError(f"unknown phi family {self.family!r}")
        self.c = float(self.c)
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise ValueError("boundary datum c must be finite and positive")

    def values(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        if self.family == "constant":
            return np.full_like(rho, self.c)
        return self.c / np.cosh(rho)


@dataclasses.dataclass
class ProblemSpec:
    """A full Dirichlet problem: grid, curvature order, psi and phi."""

    grid: Grid
    k: int
    psi: PsiSpec
    phi: PhiSpec

    n = 2  # dimension of the graph; the grids are two-dimensional

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"curvature order k = {self.k} out of range 1..{self.n}")

    def phi_field(self) -> np.ndarray:
        """phi extended over the whole grid by its defining closed form."""
        return self.phi.values(self.grid.rho_col) + np.zeros(self.grid.shape)

    def boundary_values(self) -> np.ndarray:
        """phi on the outer ring: row n_rho - 1 of :meth:`phi_field`."""
        return self.phi.values(self.grid.rho[-1:]) + np.zeros(self.grid.n_theta)

    def psi_field(self, u, support) -> np.ndarray:
        return self.psi.evaluate(
            rho=self.grid.rho_col, theta=self.grid.theta_row, u=u, support=support
        )


def spline_rows(y, x0: float, h: float, x) -> np.ndarray:
    """The not-a-knot cubic spline through the rows y[i] of a 2-D array at
    the equally spaced nodes x0 + i h (at least 4 of them), evaluated at the
    points ``x`` for every column of y at once.  Past the end nodes the end
    pieces' cubics extend, as scipy's CubicSpline extrapolates.

    The second derivatives M_i satisfy M_{i-1} + 4 M_i + M_{i+1} = r_i with
    r_i = 6 (y_{i-1} - 2 y_i + y_{i+1}) / h^2 at the inner nodes, and not-a-
    knot ends M_0 = 2 M_1 - M_2, M_{N-1} = 2 M_{N-2} - M_{N-3}.  So M_1 =
    r_1 / 6 and M_{N-2} = r_{N-2} / 6, and M_2..M_{N-3} solve one [1, 4, 1]
    tridiagonal system with every column as a right-hand side (de Boor, A
    Practical Guide to Splines, ch. IV), by the cyclic reduction of
    :class:`tridiag.CyclicReduction`.  Constant rows come back bit for bit.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n < 4:
        raise ValueError(f"a not-a-knot spline needs at least 4 nodes, got {n}")
    r = 6.0 * (y[:-2] - 2.0 * y[1:-1] + y[2:]) / h ** 2
    M = np.empty_like(y)
    M[1], M[-2] = r[0] / 6.0, r[-1] / 6.0
    if n > 4:
        b = r[1:-1]  # the system's right-hand sides, rows 2..N-3
        b[0] -= M[1]
        b[-1] -= M[-2]
        ones = np.ones((n - 4, 1))
        CyclicReduction(ones, 4.0 * ones, ones, y.shape[1]).solve(b, out=M[2:-2])
    M[0] = 2.0 * M[1] - M[2]
    M[-1] = 2.0 * M[-2] - M[-3]
    # piece i on [x_i, x_i+1], local coordinate s = (x - x_i) / h; the end
    # pieces take every point past their end
    s = (np.asarray(x, dtype=float) - x0) / h
    i = np.clip(np.floor(s).astype(int), 0, n - 2)
    s = (s - i)[:, None]
    return y[i] + s * (y[i + 1] - y[i]) - (h * h / 6.0) * s * (1.0 - s) * (
        (2.0 - s) * M[i] + (1.0 + s) * M[i + 1])


class _Jet:
    """A second-order jet in (rho, theta): a value f with its partials f_r,
    f_t, f_rr, f_rt and f_tt, each an array or a float.  The operations of
    the Expr grammar carry all six through the chain rule at once (forward
    mode; Griewank & Walther, Evaluating Derivatives, 2nd ed., ch. 13), so
    an expression evaluated on the jets of rho and theta gives its exact
    derivatives up to rounding.  A float operand is a constant, whose jet
    has zero partials; the values are computed by the same floating-point
    operations as Expr's own."""

    __slots__ = ("f", "r", "t", "rr", "rt", "tt")

    def __init__(self, f, r, t, rr, rt, tt):
        self.f, self.r, self.t, self.rr, self.rt, self.tt = f, r, t, rr, rt, tt

    def _chain(self, value, d1, d2):
        """phi(self), given phi's value, first and second derivatives at f."""
        r, t = self.r, self.t
        return _Jet(value, d1 * r, d1 * t, d1 * self.rr + d2 * r * r,
                    d1 * self.rt + d2 * r * t, d1 * self.tt + d2 * t * t)

    def __pos__(self):
        return self

    def __neg__(self):
        return _Jet(-self.f, -self.r, -self.t, -self.rr, -self.rt, -self.tt)

    def __add__(self, other):
        b = _lift(other)
        return _Jet(self.f + b.f, self.r + b.r, self.t + b.t,
                    self.rr + b.rr, self.rt + b.rt, self.tt + b.tt)

    __radd__ = __add__

    def __sub__(self, other):
        b = _lift(other)
        return _Jet(self.f - b.f, self.r - b.r, self.t - b.t,
                    self.rr - b.rr, self.rt - b.rt, self.tt - b.tt)

    def __rsub__(self, c):
        return _lift(c) - self

    def __mul__(self, other):
        a, b = self, _lift(other)
        return _Jet(a.f * b.f, a.r * b.f + a.f * b.r, a.t * b.f + a.f * b.t,
                    a.rr * b.f + 2.0 * a.r * b.r + a.f * b.rr,
                    a.rt * b.f + a.r * b.t + a.t * b.r + a.f * b.rt,
                    a.tt * b.f + 2.0 * a.t * b.t + a.f * b.tt)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # q = a / b: q_i = (a_i - q b_i) / b, q_ij = (a_ij - q_i b_j - q_j b_i - q b_ij) / b
        a, b = self, _lift(other)
        q = a.f / b.f
        q_r, q_t = (a.r - q * b.r) / b.f, (a.t - q * b.t) / b.f
        return _Jet(q, q_r, q_t, (a.rr - 2.0 * q_r * b.r - q * b.rr) / b.f,
                    (a.rt - q_r * b.t - q_t * b.r - q * b.rt) / b.f,
                    (a.tt - 2.0 * q_t * b.t - q * b.tt) / b.f)

    def __rtruediv__(self, c):
        return _lift(c) / self

    def __pow__(self, other):
        f = self.f
        if isinstance(other, _Jet):
            # f^g = exp(g log f): the jet of L = g log f, then exp's chain rule
            p = f ** other.f
            log_f = self._chain(np.log(f), 1.0 / f, -1.0 / f ** 2)
            return (other * log_f)._chain(p, p, p)
        # a constant exponent needs no log f, so f may be 0 or negative
        if other == 0.0:
            return _lift(f ** other)
        if other == 1.0:  # f^0 = 1 in the first derivative, no f^-1 in the second
            return _Jet(f ** other, self.r, self.t, self.rr, self.rt, self.tt)
        return self._chain(f ** other, other * f ** (other - 1.0),
                           other * (other - 1.0) * f ** (other - 2.0))

    def __rpow__(self, c):
        p = c ** self.f
        log_c = np.log(c)
        return self._chain(p, p * log_c, p * log_c ** 2)


def _lift(x) -> _Jet:
    """``x`` as a jet: a constant's partials are zero."""
    return x if isinstance(x, _Jet) else _Jet(x, 0.0, 0.0, 0.0, 0.0, 0.0)


def _jet_cos(x):
    x = _lift(x)
    c, s = np.cos(x.f), np.sin(x.f)
    return x._chain(c, -s, -c)


def _jet_sin(x):
    x = _lift(x)
    c, s = np.cos(x.f), np.sin(x.f)
    return x._chain(s, c, -s)


def _jets(expr: Expr, grid: Grid) -> _Jet:
    """The jet of ``expr`` over (rho, theta) at the nodes of ``grid``: the
    expression evaluated on the jets of its variables, with the jet versions
    of cos and sin in the evaluation environment.  Each part broadcasts to
    the grid's shape; a part that does not vary along theta is a column."""
    env = {"cos": _jet_cos, "sin": _jet_sin,
           "rho": _Jet(grid.rho_col, 1.0, 0.0, 0.0, 0.0, 0.0),
           "theta": _Jet(grid.theta_row, 0.0, 1.0, 0.0, 0.0, 0.0)}
    return _lift(eval(expr._code, {"__builtins__": {}}, env))


def manufactured_problem(u_expr, grid: Grid, k: int):
    """Build the problem whose exact solution is the radial graph ``u_expr``.

    psi = sigma_k[u*] is exact at every node of ``grid``: the jets of u* give
    its value and its partials up to second order, the Christoffel terms of
    :func:`hchart.covariant_hessian` its covariant Hessian, and
    :func:`geom.chart_sigmas` sigma_1 and sigma_2 behind the state's guards
    (u finite and positive, spacelike, positive-definite metric).  u* must
    then lie in the cone Gamma_k, sigma_1, ..., sigma_k > 0 at every node,
    or the solve could converge to another graph.  The boundary datum is the
    constant value of u* on the outermost ring.  Returns (spec, u_star) with
    u_star the exact field sampled on ``grid``.
    """
    expr = u_expr if isinstance(u_expr, Expr) else Expr(u_expr, variables=("rho", "theta"))
    jet = _jets(expr, grid)
    u_star = jet.f + np.zeros(grid.shape)
    boundary = u_star[-1, :]
    if np.ptp(boundary) > 1e-12 * max(1.0, float(np.max(np.abs(boundary)))):
        raise ValueError(
            "manufactured graph must be constant on the boundary ring; "
            "use a radial u expression"
        )
    u_r, u_t = jet.r, jet.t
    sigmas = geom.chart_sigmas(
        (jet.f, u_r, u_t, jet.rr, jet.rt - grid.coth_rho * u_t,
         jet.tt + grid.sinh_rho * grid.cosh_rho * u_r), grid)
    bad = np.zeros(grid.shape, dtype=bool)
    for s in sigmas[:k]:
        bad |= ~(s > 0.0)  # also a NaN
    if np.any(bad):
        node = int(np.argmax(bad))
        at = [float(np.broadcast_to(s, grid.shape).flat[node]) for s in sigmas[:k]]
        values = ", ".join(f"sigma_{m + 1} = {v:.6g}" for m, v in enumerate(at))
        raise ValueError(f"manufactured graph not in Gamma_{k} at {grid.node_label(node)}: "
                         f"{values}")
    spec = ProblemSpec(
        grid=grid,
        k=k,
        psi=PsiSpec(family="tabulated", table=sigmas[k - 1] + np.zeros(grid.shape)),
        phi=PhiSpec(family="constant", c=float(boundary[0])),
    )
    return spec, u_star
