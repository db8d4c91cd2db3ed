"""Problem data: right-hand-side families, boundary data and the full spec.

The prescribed curvature psi(x, u, support) comes in three families:

  * ``power``        psi = support^p * h(rho, theta, u)
  * ``exponential``  psi = exp(p * support) * h(rho, theta, u)
  * ``tabulated``    psi given per node (used for manufactured solutions)

``h`` is a closed-form expression over (rho, theta, u) from a small safe
grammar: numeric constants, + - * / **, powers of u, cos/sin of theta and
polynomials in rho.  The power family with growth exponent p >= k keeps the
structural convexity condition that the curvature estimates require; p < k
is accepted but flagged.
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
    "tabulate_sigma_k",
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

    def evaluate(self, rho, theta, u, support, check: bool = True) -> np.ndarray:
        """Evaluate psi; accepts complex inputs when ``check`` is off (the
        tests' reference Jacobian differentiates it by complex step)."""
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
        if check:
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


def tabulate_sigma_k(u_fn, grid: Grid, k: int, refine: int = 4) -> np.ndarray:
    """Sample sigma_k of the graph u_fn(rho, theta) on a ``refine`` times
    finer grid and restrict the values to ``grid``.

    The fine theta lines contain the coarse ones, and sigma_k is evaluated
    on those kept lines only (:func:`geom.sigma_k_lines`), with every guard
    of the state still on every fine node; the radial restriction is the
    cubic spline :func:`spline_rows`, whose error is far below the coarse
    truncation level.
    """
    fine = Grid(grid.chart, refine * grid.n_rho, refine * grid.n_theta)
    U = np.asarray(u_fn(fine.rho_col, fine.theta_row), dtype=float)
    U = np.broadcast_to(U, fine.shape)
    vals = geom.sigma_k_lines(U, fine, k, refine)
    return spline_rows(vals, fine.rho[0], fine.d_rho, grid.rho)


def manufactured_problem(u_expr, grid: Grid, k: int, refine: int = 4):
    """Build the problem whose exact solution is the radial graph ``u_expr``.

    psi is tabulated from the geometry of u on a ``refine`` times finer grid,
    and the boundary datum is the constant value of u on the outermost ring.
    Returns (spec, u_star) with u_star the exact field sampled on ``grid``.
    """
    expr = u_expr if isinstance(u_expr, Expr) else Expr(u_expr, variables=("rho", "theta"))

    def u_fn(rho, theta):
        return expr(rho=rho, theta=theta) + 0.0 * (rho + theta)

    u_star = u_fn(grid.rho_col, grid.theta_row)
    boundary = u_star[-1, :]
    if np.ptp(boundary) > 1e-12 * max(1.0, float(np.max(np.abs(boundary)))):
        raise ValueError(
            "manufactured graph must be constant on the boundary ring; "
            "use a radial u expression"
        )
    table = tabulate_sigma_k(u_fn, grid, k, refine=refine)
    spec = ProblemSpec(
        grid=grid,
        k=k,
        psi=PsiSpec(family="tabulated", table=table),
        phi=PhiSpec(family="constant", c=float(boundary[0])),
    )
    return spec, u_star
