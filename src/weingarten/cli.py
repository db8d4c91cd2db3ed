"""Command-line driver: config parsing, run orchestration, artifact output.

Modes:
  solve   solve the configured problem, verify it, emit artifacts
  verify  re-check a previously written fields.csv against the config
  study   manufactured-solution convergence study over a list of grids

Exit codes: 0 converged and verified, 2 solver failure, non-finite output or
a config error, 3 verification failure, 4 I/O failure.  Once the config file
reads (known sections and keys, required keys present, values of their
types), the output directory is known and every exit but 4 leaves a
manifest.json carrying its code; a config that does not read exits 2 with
none.

Artifacts (in the output directory): report.json, manifest.json and log.txt;
solve and study modes add fields.csv, the field they computed, and study
mode adds study.json.  Verify mode writes no fields.csv: the field it checks
is its input.  fields.csv and report.json are byte-stable across reruns with
the same config and thread setting; the manifest carries the wall time and
is not.
"""

from __future__ import annotations

import argparse
import contextvars
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import sys
import threading
import time

import numpy as np

from . import __version__, estimates, geom, solver
from .hchart import Grid, PolarChart
from .problem import (
    Expr, ExpressionError, PhiSpec, ProblemSpec, PsiSpec, excerpt, manufactured_problem,
)

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]


class ConfigError(ValueError):
    pass


# A key's schema default is its value when the config omits it; every config
# must give the _REQUIRED keys.
_REQUIRED = object()

_SCHEMA = {
    "problem": {
        "k": ("int", _REQUIRED),
        "rho_max": ("float", _REQUIRED),
        "n_rho": ("int", _REQUIRED),
        "n_theta": ("int", _REQUIRED),
        "psi_family": ("str", None),
        "psi_p": ("float", 0.0),
        "psi_h": ("str", "1"),
        "phi_family": ("str", None),
        "phi_c": ("float", None),
    },
    "run": {
        "mode": ("str", "solve"),
        "out_dir": ("str", "out"),
        "seed": ("int", 0),
        "fields_in": ("str", None),
        "uniqueness_starts": ("int", 0),
    },
    "study": {
        "grids": ("str", "32,64,128"),
        "u_star": ("str", "1 + 0.05*rho**2"),
        "refine": ("int", 4),
    },
}


def _run_key(key):
    """A [run] key as an attribute.  Setting it writes ``raw``, so a
    command-line override lands where the manifest echoes the config."""
    return property(lambda rc: rc.get("run", key),
                    lambda rc, value: rc.set("run", key, value))


@dataclasses.dataclass
class RunConfig:
    raw: dict
    path: str
    warnings: list = dataclasses.field(default_factory=list)

    # the [run] keys that command-line flags override
    mode = _run_key("mode")
    out_dir = _run_key("out_dir")
    seed = _run_key("seed")

    def get(self, section, key):
        """The key's value, or its schema default when the config omits it."""
        return self.raw.get(section, {}).get(key, _SCHEMA[section][key][1])

    def set(self, section, key, value):
        """Override a key, as the run and its manifest then read it."""
        self.raw.setdefault(section, {})[key] = value


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
    """Parse and validate a sectioned key=value config file; unknown keys
    are hard errors."""
    rc = _read_config(path)
    _validate_problem(rc)
    return rc


def _read_config(path: str) -> RunConfig:
    """Read a config file's sections and keys against the schema, without
    checking the values' ranges (see :func:`_validate_problem`)."""
    raw: dict = {}
    section = None
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
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
        for key, (_, default) in keys.items():
            if default is _REQUIRED and key not in raw.get(section_name, {}):
                raise ConfigError(f"missing required key {key!r} in [{section_name}]")
    return RunConfig(raw=raw, path=path)


def _validate_problem(rc: RunConfig):
    if rc.mode not in ("solve", "verify", "study"):
        raise ConfigError(f"unknown mode {excerpt(rc.mode)}")
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
        phi_c = rc.get("problem", "phi_c")
        if phi_c is None or not 0.0 < phi_c < math.inf:
            raise ConfigError("phi_c must be positive and finite")
        p = rc.get("problem", "psi_p")
        if not math.isfinite(p):
            raise ConfigError(f"psi_p = {p} must be finite")
        if p < k:
            rc.warnings.append(
                f"psi growth exponent p = {p} < k = {k}: the structural convexity "
                "condition is violated; run proceeds flagged"
            )
    starts = rc.get("run", "uniqueness_starts")
    if starts < 0:
        raise ConfigError(f"uniqueness_starts = {starts} must be >= 0")
    if rc.seed < 0:  # checked after --seed overrides it
        raise ConfigError(f"seed = {rc.seed} must be >= 0")
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


def build_problem(rc: RunConfig) -> ProblemSpec:
    """Materialise the ProblemSpec of a RunConfig."""
    _check_chart_factors(rc.get("problem", "rho_max"), rc.get("problem", "n_rho"))
    chart = PolarChart(rho_max=rc.get("problem", "rho_max"))
    grid = Grid(chart, rc.get("problem", "n_rho"), rc.get("problem", "n_theta"))
    try:
        psi = PsiSpec(
            family=rc.get("problem", "psi_family"),
            p=rc.get("problem", "psi_p"),
            h=rc.get("problem", "psi_h"),
        )
    except ExpressionError as exc:
        raise ConfigError(f"psi_h: {exc}") from None
    phi = PhiSpec(family=rc.get("problem", "phi_family"), c=rc.get("problem", "phi_c"))
    return ProblemSpec(grid=grid, k=rc.get("problem", "k"), psi=psi, phi=phi)


# --- artifacts -----------------------------------------------------------------

_CSV_HEADER = "rho,theta,u,v,lambda1,lambda2,sigma_k,theta_support,residual"


def _field_table(state: geom.ExtrinsicState, curvatures, spec: ProblemSpec):
    """The fields.csv columns of ``state`` and its principal curvatures."""
    grid = spec.grid
    residual = solver.assemble_residual(state, spec)
    rho = grid.rho_col + np.zeros(grid.shape)
    theta = grid.theta_row + np.zeros(grid.shape)
    cols = [rho, theta, state.u, state.v, *curvatures,
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


def _grid_hash(rc: RunConfig) -> str | None:
    """Hash of the configured grid's nodes, None when the grid keys do not
    make a grid or the grid does not fit in memory.  Built from the grid keys
    alone, so the manifest is written whatever the rest of the config holds;
    a radius past the float range makes non-finite nodes, hashed without
    numpy's warnings."""
    try:
        with np.errstate(all="ignore"):
            grid = Grid(
                PolarChart(rho_max=rc.get("problem", "rho_max")),
                rc.get("problem", "n_rho"),
                rc.get("problem", "n_theta"),
            )
    except (ValueError, MemoryError):
        return None
    h = hashlib.sha256()
    h.update(grid.rho.tobytes())
    h.update(grid.theta.tobytes())
    return h.hexdigest()


def _check(rc: RunConfig, state: geom.ExtrinsicState, spec: ProblemSpec, log, **measured):
    """The estimate battery and the three gates on a solution, the one check
    of solve and verify modes: interior admissibility, the barrier sandwich
    and the lapse bound.  At n = 2 these are the gates that can fail: the
    Newton and MacLaurin inequalities of two curvatures are identities, and
    the barrier of order k is the solution itself, so the k = 1 upper margin
    and the k = 2 lower margin are 0 by construction.  Returns the report's
    estimates, verification and warnings keys, ``measured`` joining the
    verification entry, and the state's principal curvatures, which the
    estimates weigh by.  They are computed after the barrier solves: held
    through those, they left a 256^2 verify's heap 4 MB larger after the run."""
    grid = spec.grid
    admissible = bool(np.all(state.admissible_mask(spec.k)[grid.interior_mask]))
    s_plus, upper_detail = solver.solve_upper_barrier(spec, state)
    s_minus, lower_detail = solver.solve_lower_barrier(spec, state)
    if s_plus is None or s_minus is None:
        # a missing barrier fails its gate; the reason goes in the report
        detail = "; ".join(d for d in (upper_detail, lower_detail) if d)
        log(detail)
        barriers = {"passed": False, "detail": detail}
    else:
        barriers = dataclasses.asdict(
            solver.barrier_sandwich_check(state.u, s_minus, s_plus, grid))
    curvatures = geom.state_curvatures(state, grid)
    report_est = estimates.build_report(state, spec, curvatures[0])
    gates = {
        "admissible": admissible,
        "barrier_sandwich": barriers["passed"],
        "gradient_bound": report_est.gradient_bound_passed,
    }
    passed = all(gates.values())
    log(f"verification {'passed' if passed else 'FAILED'}")
    verification = {
        "gates": gates,
        "barriers": barriers,
        "passed": passed,
        **measured,
    }
    return {"estimates": report_est.to_dict(), "verification": verification,
            "warnings": rc.warnings}, curvatures


# Rows of fields.csv formatted by one %-operation: enough that the per-call
# overhead vanishes, few enough that a block's Python floats and text stay
# near 1 MB (4096 rows set continuation-k2-80's resident peak, +1.2 MB).
_CSV_BLOCK_ROWS = 2048


def _emit(out_dir, state, curvatures, spec):
    """Write the field table of ``state`` as fields.csv, refusing a
    non-finite table before anything is written.  The bytes are those of
    ``np.savetxt(path, table, fmt="%.17g", delimiter=",", header=_CSV_HEADER,
    comments="")``, formatted a block of rows at a time."""
    table = _field_table(state, curvatures, spec)
    _check_finite(table, spec.grid)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(os.path.join(out_dir, "fields.csv"), "w", encoding="ascii") as fh:
        fh.write(_CSV_HEADER + "\n")
        for start in range(0, table.shape[0], _CSV_BLOCK_ROWS):
            block = table[start:start + _CSV_BLOCK_ROWS]
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


def _run_solve(rc: RunConfig, log):
    spec = build_problem(rc)
    log(f"solve: k={spec.k}, grid {spec.grid.n_rho}x{spec.grid.n_theta}, "
        f"rho_max={spec.grid.chart.rho_max}")
    result = solver.continuation_solve(spec)
    log(f"continuation status: {result.status}, newton iterations: {result.newton_total}")
    for step in result.steps:
        log(f"  grid {step.grid[0]}x{step.grid[1]} t={step.t:.4f} iters={step.iterations} "
            f"residual={step.residual_norm:.3e}")
    solve = {
        "status": result.status,
        "newton_total": result.newton_total,
        "residual_norm": result.residual_norm,
        "detail": result.detail,
        "steps": [dataclasses.asdict(s) for s in result.steps],
    }
    if not result.converged:
        print(f"run failed: {result.status}: {result.detail}", file=sys.stderr)
        return 2, result.status, None, spec, {"solve": solve, "warnings": rc.warnings}
    state = geom.extrinsic_state(result.u, spec.grid)
    report_obj = {"solve": solve}
    starts = rc.get("run", "uniqueness_starts")
    if starts:
        probe = solver.uniqueness_probe(spec, n_starts=starts, seed=rc.seed)
        report_obj["uniqueness"] = dataclasses.asdict(probe)
        log(f"uniqueness probe: max pairwise distance {probe.max_pairwise_distance:.3e}")
    checked, curvatures = _check(rc, state, spec, log)
    report_obj.update(checked)
    code = 0 if report_obj["verification"]["passed"] else 3
    return code, result.status, (state, curvatures), spec, report_obj


def _read_u_column(path, grid: Grid) -> np.ndarray:
    """The u column of a fields file as a C-contiguous field of its own, so
    the nine-column table it was read with is freed on return.  The file's
    first line must be the header that solve mode writes."""
    n_cols = len(_CSV_HEADER.split(","))
    with open(path, encoding="utf-8", errors="replace") as fh:
        # read no further than a header line with a CR LF ending
        header = fh.readline(len(_CSV_HEADER) + 2).rstrip("\r\n")
    if header != _CSV_HEADER:
        raise ConfigError(f"fields file {path!r} is malformed: header {excerpt(header)}, "
                          f"expected {_CSV_HEADER!r}")
    try:
        # by path, not through fh: numpy then parses the file in chunks, not line by line
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"fields file {path!r} is malformed: {exc}") from None
    if data.shape != (grid.n_nodes, n_cols):
        raise ConfigError(
            f"fields file {path!r} has {data.shape[0]} rows of {data.shape[1]} columns, "
            f"expected {grid.n_nodes} of {n_cols}"
        )
    return data[:, 2].copy().reshape(grid.shape)


def _run_verify(rc: RunConfig, log):
    """Check the field of ``fields_in``; it is the run's input, so the run
    writes no field of its own."""
    spec = build_problem(rc)
    path = rc.get("run", "fields_in")
    u = _read_u_column(path, spec.grid)
    log(f"verify: {path} against k={spec.k} problem")
    try:
        state = geom.extrinsic_state(u, spec.grid)
        residual = solver.assemble_residual(state, spec)
    except (geom.NotSpacelikeError, geom.InvalidGraphError, ValueError) as exc:
        log(f"geometry rejected the field: {exc}")
        report_obj = {"verification": {"passed": False, "error": str(exc)},
                      "warnings": rc.warnings}
    else:
        tol = solver.resolve_newton_tol(spec, state)
        rnorm = float(np.max(np.abs(residual)))
        log(f"residual sup-norm {rnorm:.3e} (tolerance {tol:.3e})")
        if rnorm <= tol:
            report_obj, _ = _check(rc, state, spec, log, residual_norm=rnorm, tolerance=tol)
        else:  # also a NaN norm
            report_obj = {"verification": {"passed": False, "residual_norm": rnorm,
                                           "tolerance": tol}, "warnings": rc.warnings}
    passed = report_obj["verification"]["passed"]
    code, status = (0, "verified") if passed else (3, "verification-failed")
    return code, status, None, spec, report_obj


def _run_study(rc: RunConfig, log):
    grids_text = rc.get("study", "grids")
    try:
        sizes = [int(s) for s in grids_text.split(",") if s.strip()]
    except ValueError:
        sizes = []
    if not sizes or any(s < 4 or s % 2 for s in sizes) or len(set(sizes)) < len(sizes):
        raise ConfigError(
            f"study grids must be distinct even ints >= 4, got {excerpt(grids_text)}")
    u_star_text = rc.get("study", "u_star")
    refine = rc.get("study", "refine")
    if refine < 1:
        raise ConfigError(f"refine = {refine} must be at least 1")
    if "refine" in rc.raw.get("study", {}):
        rc.warnings.append("[study] refine is ignored: psi is computed exactly from the "
                           "derivatives of u_star on each study grid")
    try:
        u_expr = Expr(u_star_text, variables=("rho", "theta"))
    except ExpressionError as exc:
        raise ConfigError(f"u_star: {exc}") from None
    k = rc.get("problem", "k")
    _check_chart_factors(rc.get("problem", "rho_max"), max(sizes))  # finest grid
    chart = PolarChart(rho_max=rc.get("problem", "rho_max"))
    rows = []
    for size in sizes:
        grid = Grid(chart, size, size)
        try:
            spec, u_star = manufactured_problem(u_expr, grid, k)
        except ValueError as exc:  # u_star not radial, positive, spacelike or in Gamma_k
            raise ConfigError(f"u_star: {exc}") from None
        result = solver.continuation_solve(spec)
        if not result.converged:
            log(f"grid {size}: solver failed ({result.status})")
            return 2, "failed", None, spec, {"study": rows, "warnings": rc.warnings}
        err = float(np.max(np.abs(result.u - u_star)))
        state = geom.extrinsic_state(result.u, grid)
        curvatures = geom.state_curvatures(state, grid)
        report = estimates.build_report(state, spec, curvatures[0])
        rows.append(
            {
                "grid": size,
                "error_inf": err,
                "spacelike_gap": report.spacelike_gap,
                "newton_total": result.newton_total,
                "curvature_ratio": report.curvature_ratio,
                "sup_eta_lam1": report.interior_profile["sup_eta_lam1"],
                "support_identity_residual": report.support_identity_residual,
            }
        )
        log(f"grid {size:4d}: error {err:.4e}, gap {report.spacelike_gap:.4f}, "
            f"iters {result.newton_total}")
    # no order where an error is zero: the grid reproduced u_star exactly
    orders = [
        math.log2(a["error_inf"] / b["error_inf"]) / math.log2(b["grid"] / a["grid"])
        if a["error_inf"] and b["error_inf"] else None
        for a, b in zip(rows, rows[1:])
    ]
    for a, b, order in zip(rows, rows[1:], orders):
        shown = "none (zero error)" if order is None else f"{order:.3f}"
        log(f"observed order {a['grid']} -> {b['grid']}: {shown}")
    study = {"rows": rows, "orders": orders, "u_star": u_star_text}
    return 0, "study-complete", (state, curvatures), spec, {"study": study,
                                                              "warnings": rc.warnings}


def run(rc: RunConfig) -> int:
    """Execute a run; writes artifacts into the output directory."""
    t0 = time.perf_counter()
    log_lines: list[str] = []

    def log(msg):
        log_lines.append(msg)

    status, code = "failed", 2
    try:
        os.makedirs(rc.out_dir, exist_ok=True)
        # each mode returns (exit code, status, the state of the field it
        # computed with that state's principal curvatures or None, spec, report)
        run_mode = {"solve": _run_solve, "verify": _run_verify, "study": _run_study}[rc.mode]
        code, status, field, spec, report_obj = run_mode(rc, log)
        if field is not None:
            _emit(rc.out_dir, *field, spec)
        if rc.mode == "study" and code == 0:
            _write_json(os.path.join(rc.out_dir, "study.json"), report_obj["study"])
        _write_json(os.path.join(rc.out_dir, "report.json"), report_obj)
        _write_text(os.path.join(rc.out_dir, "log.txt"), "\n".join(log_lines) + "\n")
    except FloatingPointError as exc:
        print(f"non-finite output: {exc}", file=sys.stderr)
        code, status = 2, "non-finite"
    except ConfigError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        code, status = 2, "failed"
    except MemoryError as exc:  # e.g. a grid past the address space
        print(f"run failed: out of memory: {exc}", file=sys.stderr)
        code, status = 2, "failed"
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 4
    return _finish(rc, t0, status, code)


def _finish(rc: RunConfig, t0: float, status: str, code: int) -> int:
    """Write the run's manifest and return its exit code, or 4 when the
    manifest cannot be written."""
    try:
        os.makedirs(rc.out_dir, exist_ok=True)
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


def _release_free_heap() -> None:
    """Hand the free pages of every malloc arena back to the system (glibc's
    malloc_trim); nothing where the C library has no malloc_trim.

    malloc_trim leaves the free block at the top of a thread's arena, which
    glibc trims only when a block of 64 kB or more is freed in that arena.
    A run's last frees can be small ones that wait in the arena's fast bins
    below that top; malloc_trim merges them, and the free space under them,
    into the top block, and a whole run's freed arrays stay resident (43 MB
    after a 256^2 verify).  So a short thread, to which glibc hands the arena
    the run's thread left free, then frees one 64 kB block there."""
    try:
        libc = ctypes.CDLL(None)
        malloc_trim, malloc, free = libc.malloc_trim, libc.malloc, libc.free
    except (OSError, AttributeError, TypeError):
        return
    malloc_trim.argtypes, malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
    malloc.argtypes, malloc.restype = [ctypes.c_size_t], ctypes.c_void_p
    free.argtypes, free.restype = [ctypes.c_void_p], None
    malloc_trim(0)
    trim_top = threading.Thread(target=lambda: free(malloc(1 << 16)), name="weingarten-trim")
    trim_top.start()
    trim_top.join()


def _run_apart(rc: RunConfig) -> int:
    """:func:`run` on a worker thread, in a copy of the caller's context, so
    that its arrays come from that thread's malloc arena and not from the
    caller's heap; then the arenas' free pages go back to the system.

    Run on the calling thread, a run left freed blocks in the main heap,
    pinned there by small blocks that outlive it, and whatever the caller
    allocated next landed among them.  That layout shifts a little from one
    process to the next with address-space randomisation, so the same
    256^2 solve and verify, followed by the same checks of fields.csv,
    peaked at anywhere from 111 to 130 MB resident.  glibc gives a new
    thread an arena of its own (or a free one), so a run starts from the
    arena the previous run left, and the caller's heap is left as it was.
    """
    outcome = {}

    def target():
        try:
            outcome["code"] = run(rc)
        except BaseException as exc:  # re-raised on the calling thread
            outcome["error"] = exc

    worker = threading.Thread(target=contextvars.copy_context().run, args=(target,),
                              name="weingarten-run", daemon=True)
    worker.start()
    worker.join()
    _release_free_heap()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["code"]


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
    t0 = time.perf_counter()
    try:
        rc = _read_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # From here on the output directory is known: a config the checks below
    # refuse still leaves a manifest with exit code 2.
    if args.mode:
        rc.mode = args.mode
    if args.out:
        rc.out_dir = args.out
    if args.seed is not None:
        rc.seed = args.seed
    try:
        if args.grid:
            try:
                nr, nt = (int(s) for s in args.grid.lower().split("x"))
            except ValueError:
                raise ConfigError(f"--grid must look like 64x64, got {excerpt(args.grid)}")
            rc.set("problem", "n_rho", nr)
            rc.set("problem", "n_theta", nt)
        _validate_problem(rc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _finish(rc, t0, "failed", 2)
    with np.errstate(all="ignore"):  # one stderr line: the guards report non-finite values
        return _run_apart(rc)


if __name__ == "__main__":
    sys.exit(main())
