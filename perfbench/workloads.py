"""The four workloads: their configs, their timed operations and their checks.

Configs are plain text made from the workload and the seed, written by the
parent before any round starts.  The round functions run in a fresh child
interpreter; they import ``weingarten`` lazily, so the parent never does.
Each round function runs its timed operations inside the ``timed`` context
(the tracer in a traced round) and returns (timed seconds, operations
attempted, operations failed, check failures).
"""

from __future__ import annotations

import json
import os
import random
import shutil
import time

import checks

SOLVE_VERIFY = "solve-verify-256"
CONTINUATION = "continuation-k2-80"
STUDY = "study-k2"
SYMK = "symk-battery"

PSI_H_SOLVE_VERIFY = "2/u*(1+0.1*rho**2)"
U_STAR = "1 + 0.05*rho**2 + 0.02*rho**4"
STUDY_GRIDS = (32, 64, 128, 256)
SYMK_DIMENSIONS = (2, 3, 4, 5, 6)
SYMK_BATCHES_PER_N = 3
SYMK_BATCH = 100


def _problem(k, rho_max, n, p, h, phi_family):
    return (f"[problem]\nk = {k}\nrho_max = {rho_max}\nn_rho = {n}\nn_theta = {n}\n"
            f"psi_family = power\npsi_p = {p}\npsi_h = {h}\n"
            f"phi_family = {phi_family}\nphi_c = 1.0\n")


def write_configs(name: str, seed: int, workdir: str) -> dict:
    """Write the workload's input files; returns their paths by role.  The
    ``setup`` entry is the file a set-up probe parses."""
    def put(fname, text):
        path = os.path.join(workdir, fname)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def out(sub):
        return os.path.join(workdir, sub)

    if name == SOLVE_VERIFY:
        problem = _problem(1, 0.8, 256, 1, PSI_H_SOLVE_VERIFY, "hyperplane")
        rng = random.Random(seed)
        node = rng.randrange(255) * 256 + rng.randrange(256)  # an interior node
        solve = put("solve.cfg", problem + f"[run]\nmode = solve\nout_dir = {out('solve')}\n"
                    f"seed = {seed}\n")
        fields = os.path.join(out("solve"), "fields.csv")
        corrupt = out("corrupt-fields.csv")
        verify = put("verify.cfg", problem + f"[run]\nmode = verify\nout_dir = {out('verify')}\n"
                     f"fields_in = {fields}\n")
        verify_bad = put("verify-corrupt.cfg", problem + "[run]\nmode = verify\n"
                         f"out_dir = {out('verify-corrupt')}\nfields_in = {corrupt}\n")
        return {"setup": solve, "solve": solve, "verify": verify, "verify_bad": verify_bad,
                "fields": fields, "corrupt": corrupt, "node": node, "seed": seed,
                "outputs": [out("solve"), out("verify")]}
    if name == CONTINUATION:
        cfg = put("solve.cfg", _problem(2, 2.4, 80, 2, 1, "hyperplane")
                  + f"[run]\nmode = solve\nout_dir = {out('solve')}\nuniqueness_starts = 2\n")
        return {"setup": cfg, "solve": cfg, "seed": seed, "outputs": [out("solve")]}
    if name == STUDY:
        # psi_family is set although study mode ignores it (see CHANGES.md FOUND)
        cfg = put("study.cfg", _problem(2, 0.8, 32, 2, 1, "constant")
                  + f"[run]\nmode = study\nout_dir = {out('study')}\n"
                  f"[study]\ngrids = {','.join(map(str, STUDY_GRIDS))}\nu_star = {U_STAR}\n"
                  "refine = 4\n")
        return {"setup": cfg, "study": cfg, "seed": seed, "outputs": [out("study")]}
    if name == SYMK:
        battery = {"dimensions": list(SYMK_DIMENSIONS), "batches_per_n": SYMK_BATCHES_PER_N,
                   "batch": SYMK_BATCH, "lam_range": [-2.0, 2.0], "mu_range": [0.5, 2.0],
                   "seed": seed}
        cfg = put("battery.json", json.dumps(battery, indent=1) + "\n")
        return {"setup": cfg, "battery": cfg, "seed": seed}
    raise ValueError(f"unknown workload {name!r}")


def parse_setup(name: str, path: str):
    """What a fresh interpreter does before it is ready: import the package
    and parse the workload's config."""
    if name == SYMK:
        import weingarten.symk  # noqa: F401

        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    import weingarten.cli

    return weingarten.cli.parse_config(path)


# --- rounds ------------------------------------------------------------------------


def _main(argv):
    from weingarten import cli

    t0 = time.perf_counter()
    code = cli.main(argv)
    return code, time.perf_counter() - t0


def _clear(*dirs):
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)


def _u_field(path, g):
    data = checks.read_fields(path, g)
    return data, data[:, 2].reshape(g.shape)


def round_solve_verify(cfg: dict, timed):
    solve_out = os.path.dirname(cfg["fields"])
    workdir = os.path.dirname(solve_out)
    _clear(solve_out, os.path.join(workdir, "verify"), os.path.join(workdir, "verify-corrupt"))
    with timed:
        code_s, t_s = _main(["--config", cfg["solve"], "--seed", str(cfg["seed"])])
        code_v, t_v = (_main(["--config", cfg["verify"]]) if code_s == 0 else (None, 0.0))
    code_bad, errs = None, []
    if code_s == 0 and code_v == 0:
        g = checks.PolarGrid(0.8, 256, 256)
        data, U = _u_field(cfg["fields"], g)
        errs += checks.check_grid_columns(data, g)
        errs += checks.check_boundary_ring(U, g, 1.0)
        errs += checks.check_curvature_residual(
            U, g, 1, lambda rho, theta, u, s: s * (2.0 / u * (1.0 + 0.1 * rho ** 2)))
        checks.perturb_fields(cfg["fields"], cfg["corrupt"], cfg["node"], 1e-6)
        code_bad, _ = _main(["--config", cfg["verify_bad"]])
    failed = (code_s != 0) + (code_v != 0) + (code_bad != 3)
    return t_s + t_v, 3, failed, errs


def round_continuation(cfg: dict, timed):
    out = os.path.join(os.path.dirname(cfg["solve"]), "solve")
    _clear(out)
    with timed:
        code, t = _main(["--config", cfg["solve"], "--seed", str(cfg["seed"])])
    errs = []
    if code == 0:
        g = checks.PolarGrid(2.4, 80, 80)
        data, U = _u_field(os.path.join(out, "fields.csv"), g)
        errs += checks.check_grid_columns(data, g)
        errs += checks.check_boundary_ring(U, g, 1.0)
        errs += checks.check_curvature_residual(
            U, g, 2, lambda rho, theta, u, s: s ** 2)
        errs += checks.check_gamma2(U, g)
        errs += checks.check_uniqueness(checks.load_json(os.path.join(out, "report.json")), U)
    return t, 1, int(code != 0), errs


def u_star(rho, theta):
    return 1 + 0.05 * rho ** 2 + 0.02 * rho ** 4


def round_study(cfg: dict, timed):
    out = os.path.join(os.path.dirname(cfg["study"]), "study")
    _clear(out)
    with timed:
        code, t = _main(["--config", cfg["study"]])
    errs = []
    if code == 0:
        n = STUDY_GRIDS[-1]
        g = checks.PolarGrid(0.8, n, n)
        data, U = _u_field(os.path.join(out, "fields.csv"), g)
        errs += checks.check_grid_columns(data, g)
        errs += checks.check_study(checks.load_json(os.path.join(out, "study.json")), U, g, u_star)
    return t, 1, int(code != 0), errs


def symk_inputs(battery: dict):
    """Seeded batches: general vectors lam in lam_range^n, and positive
    vectors mu in mu_range^n with symmetric normal perturbations eta."""
    import numpy as np

    rng = np.random.default_rng(battery["seed"])
    batches = []
    for n in battery["dimensions"]:
        for _ in range(battery["batches_per_n"]):
            b = battery["batch"]
            lams = rng.uniform(*battery["lam_range"], size=(b, n))
            mus = rng.uniform(*battery["mu_range"], size=(b, n))
            a = rng.normal(size=(b, n, n))
            batches.append((lams, mus, 0.5 * (a + np.swapaxes(a, 1, 2))))
    return batches


def _symk_batch(symk, lams, mus, etas) -> dict:
    n = lams.shape[1]
    out = {"sigma_all": [], "sigma": [], "cone": [], "identities": [], "newton": [],
           "quadratic": []}
    for lam in lams:
        out["sigma_all"].append(symk.sigma_all(lam))
        out["sigma"].append([symk.sigma(lam, k) for k in range(n + 1)])
        out["cone"].append([symk.gamma_cone_contains(lam, k) for k in range(1, n + 1)])
        out["identities"].append([symk.identity_residuals(lam, k) for k in range(n)])
        out["newton"].append([symk.newton_maclaurin_check(lam, k) for k in range(1, n)])
    for mu, eta in zip(mus, etas):
        out["quadratic"].append([symk.quadratic_form(mu, k, eta) for k in range(1, n + 1)])
    return out


def round_symk(cfg: dict, timed):
    from weingarten import symk

    batches = symk_inputs(checks.load_json(cfg["battery"]))
    results, seconds, failed = [], 0.0, 0
    with timed:
        for lams, mus, etas in batches:
            t0 = time.perf_counter()
            try:
                results.append(_symk_batch(symk, lams, mus, etas))
            except (ValueError, ArithmeticError) as exc:
                results.append(exc)
                failed += 1
            seconds += time.perf_counter() - t0
    errs = []
    for (lams, mus, etas), out in zip(batches, results):
        if isinstance(out, Exception):
            continue
        errs += checks.check_sigma_batch(lams, out)
        errs += checks.check_quadratic_batch(mus, etas, out)
    return seconds, len(batches), failed, errs


ROUNDS = {
    SOLVE_VERIFY: round_solve_verify,
    CONTINUATION: round_continuation,
    STUDY: round_study,
    SYMK: round_symk,
}
