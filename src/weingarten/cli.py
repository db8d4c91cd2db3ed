"""Command-line driver: config parsing, run orchestration, artifact output.

Modes:
  solve   solve the configured problem, verify it, emit artifacts
  verify  re-check a previously written fields.csv against the config
  study   manufactured-solution convergence study over a list of grids

Exit codes: 0 converged and verified, 2 solver failure or non-finite output,
3 verification failure, 4 I/O failure.

Artifacts (in the output directory): fields.csv, report.json, manifest.json,
log.txt (study mode adds study.json).  fields.csv and report.json are
byte-stable across reruns with the same config and thread setting; the
manifest carries the wall time and is not.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, estimates, geom, solver
from .hchart import Grid, PolarChart
from .problem import (
    ContinuationConfig, Expr, ExpressionError, PhiSpec, ProblemSpec, PsiSpec, excerpt,
    manufactured_problem,
)

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]


class ConfigError(ValueError):
    pass


_SCHEMA = {
    "problem": {
        "k": ("int", True),
        "rho_max": ("float", True),
        "n_rho": ("int", True),
        "n_theta": ("int", True),
        "psi_family": ("str", False),
        "psi_p": ("float", False),
        "psi_h": ("str", False),
        "phi_family": ("str", False),
        "phi_c": ("float", False),
    },
    "continuation": {
        "dt_init": ("float", False),
        "dt_min": ("float", False),
        "newton_tol": ("str", False),  # "auto" or a float
        "max_newton_iters": ("int", False),
    },
    "run": {
        "mode": ("str", False),
        "out_dir": ("str", False),
        "seed": ("int", False),
        "fields_in": ("str", False),
        "uniqueness_starts": ("int", False),
    },
    "study": {
        "grids": ("str", False),
        "u_star": ("str", False),
        "refine": ("int", False),
    },
}


@dataclasses.dataclass
class RunConfig:
    raw: dict
    path: str
    mode: str = "solve"
    out_dir: str = "out"
    seed: int = 0
    warnings: list = dataclasses.field(default_factory=list)

    def get(self, section, key, default=None):
        return self.raw.get(section, {}).get(key, default)


def _parse_value(kind, text, where):
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        return text
    except ValueError:
        raise ConfigError(f"{where}: expected {kind}, got {excerpt(text)}") from None


def parse_config(path: str) -> RunConfig:
    """Parse a sectioned key=value config file; unknown keys are hard errors."""
    raw: dict = {}
    section = None
    try:
        lines = open(path, encoding="utf-8").read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if text.startswith("[") and text.endswith("]"):
            section = text[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section {excerpt(section)}")
            raw.setdefault(section, {})
            continue
        if "=" not in text:
            raise ConfigError(f"line {lineno}: expected key = value, got {excerpt(text)}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = text.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {excerpt(key)} in [{section}]")
        kind, _ = _SCHEMA[section][key]
        raw[section][key] = _parse_value(kind, value, f"line {lineno}: {key}")
    for section_name, keys in _SCHEMA.items():
        for key, (_, required) in keys.items():
            if required and key not in raw.get(section_name, {}):
                raise ConfigError(f"missing required key {key!r} in [{section_name}]")
    rc = RunConfig(raw=raw, path=path)
    rc.mode = rc.get("run", "mode", "solve")
    if rc.mode not in ("solve", "verify", "study"):
        raise ConfigError(f"unknown mode {excerpt(rc.mode)}")
    rc.out_dir = rc.get("run", "out_dir", "out")
    rc.seed = rc.get("run", "seed", 0)
    _validate_problem(rc)
    return rc


def _validate_problem(rc: RunConfig):
    k = rc.get("problem", "k")
    if not 1 <= k <= ProblemSpec.n:
        raise ConfigError(f"k = {k} out of range 1..{ProblemSpec.n}")
    rho_max = rc.get("problem", "rho_max")
    if not (0.0 < rho_max < math.inf):
        raise ConfigError(f"rho_max = {rho_max} out of range")
    for key in ("n_rho", "n_theta"):
        v = rc.get("problem", key)
        if v < 4:
            raise ConfigError(f"{key} = {v} out of range (>= 4)")
    if rc.get("problem", "n_theta") % 2:
        raise ConfigError("n_theta must be even")
    if rc.mode != "study":
        family = rc.get("problem", "psi_family")
        if family not in ("power", "exponential"):
            raise ConfigError(f"psi_family = {excerpt(family)} must be power or exponential")
        phi_family = rc.get("problem", "phi_family")
        if phi_family not in ("constant", "hyperplane"):
            raise ConfigError(
                f"phi_family = {excerpt(phi_family)} must be constant or hyperplane"
            )
        if not 0.0 < rc.get("problem", "phi_c", 0.0) < math.inf:
            raise ConfigError("phi_c must be positive and finite")
        p = rc.get("problem", "psi_p", 0.0)
        if p < k:
            rc.warnings.append(
                f"psi growth exponent p = {p} < k = {k}: the structural convexity "
                "condition is violated; run proceeds flagged"
            )
    starts = rc.get("run", "uniqueness_starts", 0)
    if starts < 0:
        raise ConfigError(f"uniqueness_starts = {starts} must be >= 0")
    if rc.mode == "verify" and not rc.get("run", "fields_in"):
        raise ConfigError("verify mode requires fields_in in [run]")


def _check_chart_factors(rho_max: float, n_rho: int):
    """Refuse a grid whose chart factors 1/d_rho^2, 1/sinh(rho_0)^2 and
    sinh(rho_max)^2 are not finite floats: its stencils and metric would
    divide by zero or overflow."""
    rho = np.float64(rho_max)
    h = rho / n_rho
    factors = (1.0 / h ** 2, 1.0 / np.sinh(0.5 * h) ** 2, np.sinh(rho) ** 2)
    if not np.all(np.isfinite(factors)):
        raise ConfigError(f"rho_max = {rho_max!r} on {n_rho} rings: chart factors not finite")


def build_problem(rc: RunConfig):
    """Materialise ProblemSpec and ContinuationConfig from a RunConfig."""
    _check_chart_factors(rc.get("problem", "rho_max"), rc.get("problem", "n_rho"))
    chart = PolarChart(rho_max=rc.get("problem", "rho_max"))
    grid = Grid(chart, rc.get("problem", "n_rho"), rc.get("problem", "n_theta"))
    try:
        psi = PsiSpec(
            family=rc.get("problem", "psi_family"),
            p=rc.get("problem", "psi_p", 0.0),
            h=rc.get("problem", "psi_h", "1"),
        )
    except ExpressionError as exc:
        raise ConfigError(f"psi_h: {exc}") from None
    phi = PhiSpec(family=rc.get("problem", "phi_family"), c=rc.get("problem", "phi_c"))
    spec = ProblemSpec(grid=grid, k=rc.get("problem", "k"), psi=psi, phi=phi)
    tol_text = rc.get("continuation", "newton_tol", "auto")
    tol = None if tol_text == "auto" else _parse_value("float", tol_text, "newton_tol")
    try:
        cfg = ContinuationConfig(
            dt_init=rc.get("continuation", "dt_init", 0.25),
            dt_min=rc.get("continuation", "dt_min", 1e-3),
            newton_tol=tol,
            max_newton_iters=rc.get("continuation", "max_newton_iters", 30),
        )
    except ValueError as exc:
        raise ConfigError(f"[continuation]: {exc}") from None
    return spec, cfg


# --- artifacts -----------------------------------------------------------------

_CSV_HEADER = "rho,theta,u,v,lambda1,lambda2,sigma_k,theta_support,residual"


def _field_table(state: geom.ExtrinsicState, spec: ProblemSpec):
    grid = spec.grid
    residual = solver.assemble_residual(state, 1.0, spec)
    rho = grid.rho_col + np.zeros(grid.shape)
    theta = grid.theta_row + np.zeros(grid.shape)
    cols = [rho, theta, state.u, state.v, state.lam1, state.lam2,
            state.sigma_k(spec.k), state.theta_support, residual]
    return np.column_stack([c.ravel() for c in cols])


def _check_finite(table: np.ndarray, grid: Grid):
    bad = ~np.isfinite(table)
    if np.any(bad):
        row = int(np.argwhere(bad)[0][0])
        raise FloatingPointError(f"non-finite output at {grid.node_label(row)}")


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(path, obj):
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_manifest(out_dir, manifest):
    tmp = os.path.join(out_dir, "manifest.json.tmp")
    _write_json(tmp, manifest)
    os.replace(tmp, os.path.join(out_dir, "manifest.json"))


def _grid_hash(rc: RunConfig) -> str:
    """Hash of the configured grid's nodes.  Built from the grid keys alone,
    so the manifest is written whatever the rest of the config holds."""
    grid = Grid(
        PolarChart(rho_max=rc.get("problem", "rho_max")),
        rc.get("problem", "n_rho"),
        rc.get("problem", "n_theta"),
    )
    h = hashlib.sha256()
    h.update(grid.rho.tobytes())
    h.update(grid.theta.tobytes())
    return h.hexdigest()


def _verification_battery(state: geom.ExtrinsicState, spec: ProblemSpec,
                          cfg: ContinuationConfig, report_est):
    """Gating checks shared by solve and verify modes."""
    grid = spec.grid
    scale = max(1.0, float(np.max(np.abs(state.sigma1))) ** 2,
                float(np.max(np.abs(state.sigma2))))
    admissible = bool(np.all(state.admissible_mask(spec.k)[grid.interior_mask]))
    nm_slack = solver.newton_inequality_min_slack(state, grid)
    mac1, mac2 = solver.maclaurin_ordering_margins(state, spec.k, grid)
    s_plus = solver.solve_upper_barrier(spec, state, cfg)
    s_minus = solver.solve_lower_barrier(spec, state, cfg)
    sandwich = solver.barrier_sandwich_check(state.u, s_minus, s_plus, grid)
    gates = {
        "admissible": admissible,
        "newton_inequality": bool(nm_slack >= -1e-10 * scale),
        "maclaurin_ordering": bool(min(mac1, mac2) >= -1e-10 * scale),
        "barrier_sandwich": sandwich.passed,
        "gradient_bound": report_est.gradient_bound_passed,
    }
    detail = {
        "gates": gates,
        "newton_inequality_min_slack": nm_slack,
        "maclaurin_margins": [mac1, mac2],
        "barriers": dataclasses.asdict(sandwich),
        "passed": all(gates.values()),
    }
    return detail["passed"], detail


def _emit(out_dir, state, spec, report_obj, log_lines):
    table = _field_table(state, spec)
    _check_finite(table, spec.grid)
    np.savetxt(
        os.path.join(out_dir, "fields.csv"),
        table,
        fmt="%.17g",
        delimiter=",",
        header=_CSV_HEADER,
        comments="",
    )
    _write_json(os.path.join(out_dir, "report.json"), report_obj)
    _write_text(os.path.join(out_dir, "log.txt"), "\n".join(log_lines) + "\n")


def _run_solve(rc: RunConfig, log):
    spec, cfg = build_problem(rc)
    log(f"solve: k={spec.k}, grid {spec.grid.n_rho}x{spec.grid.n_theta}, "
        f"rho_max={spec.grid.chart.rho_max}")
    result = solver.continuation_solve(spec, cfg)
    log(f"continuation status: {result.status}, newton iterations: {result.newton_total}")
    for step in result.steps:
        log(f"  t={step.t:.4f} iters={step.iterations} residual={step.residual_norm:.3e}")
    if not result.converged:
        print(f"run failed: {result.status}: {result.detail}", file=sys.stderr)
        return 2, result.status, None, spec, {
            "solve": _solve_dict(result), "warnings": rc.warnings,
        }
    state = geom.extrinsic_state(result.u, spec.grid)
    report_est = estimates.build_report(state, spec)
    passed, verification = _verification_battery(state, spec, cfg, report_est)
    report_obj = {
        "estimates": report_est.to_dict(),
        "solve": _solve_dict(result),
        "verification": verification,
        "warnings": rc.warnings,
    }
    starts = rc.get("run", "uniqueness_starts", 0)
    if starts:
        probe = solver.uniqueness_probe(spec, cfg, n_starts=starts, seed=rc.seed)
        report_obj["uniqueness"] = dataclasses.asdict(probe)
        log(f"uniqueness probe: max pairwise distance {probe.max_pairwise_distance:.3e}")
    log(f"verification {'passed' if passed else 'FAILED'}")
    return (0 if passed else 3), result.status, state, spec, report_obj


def _solve_dict(result: solver.SolveResult) -> dict:
    return {
        "status": result.status,
        "newton_total": result.newton_total,
        "residual_norm": result.residual_norm,
        "detail": result.detail,
        "steps": [dataclasses.asdict(s) for s in result.steps],
    }


def _read_u_column(path, grid: Grid) -> np.ndarray:
    n_cols = len(_CSV_HEADER.split(","))
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"fields file {path!r} is malformed: {exc}") from None
    if data.shape != (grid.n_nodes, n_cols):
        raise ConfigError(
            f"fields file {path!r} has {data.shape[0]} rows of {data.shape[1]} columns, "
            f"expected {grid.n_nodes} of {n_cols}"
        )
    return data[:, 2].reshape(grid.shape)


def _run_verify(rc: RunConfig, log):
    spec, cfg = build_problem(rc)
    path = rc.get("run", "fields_in")
    u = _read_u_column(path, spec.grid)
    log(f"verify: {path} against k={spec.k} problem")
    try:
        state = geom.extrinsic_state(u, spec.grid)
        residual = solver.assemble_residual(state, 1.0, spec)
    except (geom.NotSpacelikeError, geom.InvalidGraphError, ValueError) as exc:
        log(f"geometry rejected the field: {exc}")
        return 3, "verification-failed", None, spec, {
            "verification": {"passed": False, "error": str(exc)}, "warnings": rc.warnings,
        }
    tol = solver.resolve_newton_tol(cfg, spec, state)
    rnorm = float(np.max(np.abs(residual)))
    log(f"residual sup-norm {rnorm:.3e} (tolerance {tol:.3e})")
    if not rnorm <= tol:  # also fails a NaN norm
        return 3, "verification-failed", state, spec, {
            "verification": {"passed": False, "residual_norm": rnorm, "tolerance": tol},
            "warnings": rc.warnings,
        }
    report_est = estimates.build_report(state, spec)
    passed, verification = _verification_battery(state, spec, cfg, report_est)
    verification["residual_norm"] = rnorm
    verification["tolerance"] = tol
    report_obj = {
        "estimates": report_est.to_dict(),
        "verification": verification,
        "warnings": rc.warnings,
    }
    log(f"verification {'passed' if passed else 'FAILED'}")
    code, status = (0, "verified") if passed else (3, "verification-failed")
    return code, status, state, spec, report_obj


def _run_study(rc: RunConfig, log):
    grids_text = rc.get("study", "grids", "32,64,128")
    try:
        sizes = [int(s) for s in grids_text.split(",") if s.strip()]
    except ValueError:
        sizes = []
    if not sizes or any(s < 4 or s % 2 for s in sizes) or len(set(sizes)) < len(sizes):
        raise ConfigError(
            f"study grids must be distinct even ints >= 4, got {excerpt(grids_text)}")
    u_star_text = rc.get("study", "u_star", "1 + 0.05*rho**2")
    refine = rc.get("study", "refine", 4)
    if refine < 1:
        raise ConfigError(f"refine = {refine} must be at least 1")
    try:
        u_expr = Expr(u_star_text, variables=("rho", "theta"))
    except ExpressionError as exc:
        raise ConfigError(f"u_star: {exc}") from None
    k = rc.get("problem", "k")
    _check_chart_factors(rc.get("problem", "rho_max"), refine * max(sizes))  # finest grid
    chart = PolarChart(rho_max=rc.get("problem", "rho_max"))
    rows = []
    for size in sizes:
        grid = Grid(chart, size, size)
        try:
            spec, u_star = manufactured_problem(u_expr, grid, k, refine=refine)
        except ValueError as exc:  # u_star not radial, spacelike or admissible
            raise ConfigError(f"u_star: {exc}") from None
        result = solver.continuation_solve(spec, ContinuationConfig())
        if not result.converged:
            log(f"grid {size}: solver failed ({result.status})")
            return 2, "failed", None, spec, {"study": rows, "warnings": rc.warnings}
        err = float(np.max(np.abs(result.u - u_star)))
        state = geom.extrinsic_state(result.u, grid)
        gap = state.spacelike_gap
        ratio = estimates.curvature_ratio(state)["ratio"]
        profile = estimates.interior_profile(state, spec.phi_field(), grid)
        ident = estimates.support_laplace_identity_check(state, grid)
        rows.append(
            {
                "grid": size,
                "error_inf": err,
                "spacelike_gap": gap,
                "newton_total": result.newton_total,
                "curvature_ratio": ratio,
                "sup_eta_lam1": profile["sup_eta_lam1"],
                "support_identity_residual": ident,
            }
        )
        log(f"grid {size:4d}: error {err:.4e}, gap {gap:.4f}, iters {result.newton_total}")
    # no order where an error is zero: the grid reproduced u_star exactly
    orders = [
        math.log2(a["error_inf"] / b["error_inf"]) / math.log2(b["grid"] / a["grid"])
        if a["error_inf"] and b["error_inf"] else None
        for a, b in zip(rows, rows[1:])
    ]
    for a, b, order in zip(rows, rows[1:], orders):
        shown = "none (zero error)" if order is None else f"{order:.3f}"
        log(f"observed order {a['grid']} -> {b['grid']}: {shown}")
    study = {"rows": rows, "orders": orders, "u_star": u_star_text, "refine": refine}
    return 0, "study-complete", state, spec, {"study": study, "warnings": rc.warnings}


def run(rc: RunConfig) -> int:
    """Execute a run; writes artifacts into the output directory."""
    t0 = time.perf_counter()
    log_lines: list[str] = []

    def log(msg):
        log_lines.append(msg)

    status, code = "failed", 2
    try:
        os.makedirs(rc.out_dir, exist_ok=True)
        # each mode returns (exit code, status, the output field's state or None, spec, report)
        run_mode = {"solve": _run_solve, "verify": _run_verify, "study": _run_study}[rc.mode]
        code, status, state, spec, report_obj = run_mode(rc, log)
        if rc.mode == "study" and code == 0:
            _write_json(os.path.join(rc.out_dir, "study.json"), report_obj["study"])
        if state is not None:
            _emit(rc.out_dir, state, spec, report_obj, log_lines)
        else:
            _write_json(os.path.join(rc.out_dir, "report.json"), report_obj)
            _write_text(os.path.join(rc.out_dir, "log.txt"), "\n".join(log_lines) + "\n")
    except FloatingPointError as exc:
        print(f"non-finite output: {exc}", file=sys.stderr)
        code, status = 2, "non-finite"
    except (solver.SolverError, ConfigError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        code, status = 2, "failed"
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 4
    try:
        manifest = {
            "config": rc.raw,
            "config_path": rc.path,
            "mode": rc.mode,
            "artifact_version": __version__,
            "grid_hash": _grid_hash(rc),
            "wall_time_s": time.perf_counter() - t0,
            "status": status,
            "exit_code": code,
            "threads": {
                "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
            },
        }
        _write_manifest(rc.out_dir, manifest)
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 4
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="weingarten",
        description="Prescribed-curvature Dirichlet solver on hyperbolic disks",
    )
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--mode", choices=("solve", "verify", "study"))
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--grid", help="override grid as NxM, e.g. 64x64")
    parser.add_argument("--seed", type=int, help="override the run seed")
    args = parser.parse_args(argv)
    try:
        rc = parse_config(args.config)
        if args.mode:
            rc.mode = args.mode
            _validate_problem(rc)
        if args.out:
            rc.out_dir = args.out
        if args.seed is not None:
            rc.seed = args.seed
        if args.grid:
            try:
                nr, nt = (int(s) for s in args.grid.lower().split("x"))
            except ValueError:
                raise ConfigError(f"--grid must look like 64x64, got {excerpt(args.grid)}")
            rc.raw.setdefault("problem", {})["n_rho"] = nr
            rc.raw["problem"]["n_theta"] = nt
            _validate_problem(rc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    with np.errstate(all="ignore"):  # one stderr line: the guards report non-finite values
        return run(rc)


if __name__ == "__main__":
    sys.exit(main())
