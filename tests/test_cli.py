import json
import math
import os
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weingarten import cli
from weingarten.cli import ConfigError, parse_config, run


BASE_CONFIG = """\
[problem]
k = 1
rho_max = 0.8
n_rho = 16
n_theta = 16
psi_family = power
psi_p = 0
psi_h = 2
phi_family = constant
phi_c = 1.0

[run]
mode = solve
seed = 0
"""


def small(text):
    return text.replace("n_rho = 16", "n_rho = 8").replace("n_theta = 16", "n_theta = 8")


# inputs that once exited 1, hung or quoted the whole input; each must exit 2, one short line
STUDY = [("mode = solve", "mode = study")]
BAD_INPUTS = {
    # configs for the earlier [continuation] section, now an unknown section
    "dt_init": ([], "[continuation]\ndt_init = 0\n"),
    "max_newton_iters": ([], "[continuation]\nmax_newton_iters = 0\n"),
    "newton_tol_text": ([], "[continuation]\nnewton_tol = abc\n"),
    "newton_tol_negative": ([], "[continuation]\nnewton_tol = -1\n"),
    "phi_c_nan": ([("phi_c = 1.0", "phi_c = nan")], ""),
    "phi_c_inf": ([("phi_c = 1.0", "phi_c = inf")], ""),
    "psi_p_nan": ([("psi_p = 0", "psi_p = nan")], ""),
    "psi_p_inf": ([("psi_p = 0", "psi_p = inf")], ""),
    "psi_p_minus_inf": ([("psi_p = 0", "psi_p = -inf")], ""),
    "psi_p_1e400": ([("psi_p = 0", "psi_p = 1e400")], ""),
    "psi_overflow": ([("psi_family = power", "psi_family = exponential"),
                      ("psi_p = 0", "psi_p = 1000")], ""),
    "psi_h_power_tower": ([("psi_h = 2", "psi_h = 9**9**9")], ""),
    "psi_h_deep_3000": ([("psi_h = 2", "psi_h = " + "-" * 3000 + "2")], ""),
    "psi_h_deep_200000": ([("psi_h = 2", "psi_h = " + "-" * 200000 + "2")], ""),
    "psi_h_syntax_1000": ([("psi_h = 2", "psi_h = " + "1+" * 500)], ""),
    "n_rho_200000": ([("n_rho = 8", "n_rho = " + "x" * 200000)], ""),
    # a 711 PiB grid: past any address space, so no allocation is attempted
    "n_rho_1e17": ([("n_rho = 8", "n_rho = " + str(10 ** 17))], ""),
    "no_equals_200000": ([], "x" * 200000 + "\n"),
    "uniqueness_starts_negative": ([("mode = solve", "mode = solve\nuniqueness_starts = -1")], ""),
    "seed_negative": ([("seed = 0", "seed = -1\nuniqueness_starts = 1")], ""),
    # fails the phi_c check in main; the manifest's grid hash then meets rho_max's overflow
    "rho_max_1e300_phi_c_nan": ([("rho_max = 0.8", "rho_max = 1e300"),
                                 ("phi_c = 1.0", "phi_c = nan")], ""),
    "study_dt_init": (STUDY, "[continuation]\ndt_init = 5\n"),
    "study_newton_tol_text": (STUDY, "[continuation]\nnewton_tol = banana\n"),
    "study_grid": (STUDY, "[study]\ngrids = 2\n"),
    "study_grid_repeated": (STUDY, "[study]\ngrids = 8,8\n"),
    "study_refine": (STUDY, "[study]\ngrids = 8\nrefine = 0\n"),
    "study_not_radial": (STUDY, "[study]\ngrids = 8\nu_star = 1+0.01*cos(theta)\n"),
    "u_star_power_tower": (STUDY, "[study]\ngrids = 8\nu_star = 9**9**9\n"),
    "fields_row": ([("mode = solve", "mode = verify\nfields_in = {fields}")], ""),
}
# the cases whose config does not read, so they leave no manifest
UNREAD = {"dt_init", "max_newton_iters", "newton_tol_text", "newton_tol_negative",
          "study_dt_init", "study_newton_tol_text", "n_rho_200000", "no_equals_200000"}
# disk radii whose chart factors leave the float range, or whose metric does in Newton
HYPERPLANE = ("phi_family = constant", "phi_family = hyperplane")
for radius in ("1e-200", "1e-155", "250", "1e300"):
    BAD_INPUTS[f"rho_max_{radius}"] = ([("rho_max = 0.8", f"rho_max = {radius}"), HYPERPLANE], "")


def print_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def write_config(tmp_path, text=BASE_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_minimal(self, tmp_path):
        rc = parse_config(write_config(tmp_path))
        assert rc.mode == "solve"
        assert rc.get("problem", "k") == 1
        assert rc.get("problem", "psi_h") == "2"
        assert rc.warnings  # p = 0 < k = 1 flags the growth condition

    def test_growth_condition_ok_no_warning(self, tmp_path):
        text = BASE_CONFIG.replace("psi_p = 0", "psi_p = 1")
        rc = parse_config(write_config(tmp_path, text))
        assert rc.warnings == []

    def test_unknown_key_reports_line(self, tmp_path):
        text = BASE_CONFIG.replace("psi_p = 0", "psi_q = 0")
        with pytest.raises(ConfigError, match=r"line 7.*psi_q"):
            parse_config(write_config(tmp_path, text))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"line 1"):
            parse_config(write_config(tmp_path, "[nonsense]\nx = 1\n"))

    def test_missing_required_key(self, tmp_path):
        text = BASE_CONFIG.replace("rho_max = 0.8\n", "")
        with pytest.raises(ConfigError, match="rho_max"):
            parse_config(write_config(tmp_path, text))

    def test_k_out_of_range(self, tmp_path):
        text = BASE_CONFIG.replace("k = 1", "k = 3")
        with pytest.raises(ConfigError, match="k = 3"):
            parse_config(write_config(tmp_path, text))

    def test_odd_theta_count(self, tmp_path):
        text = BASE_CONFIG.replace("n_theta = 16", "n_theta = 15")
        with pytest.raises(ConfigError, match="even"):
            parse_config(write_config(tmp_path, text))

    def test_bad_value_type(self, tmp_path):
        text = BASE_CONFIG.replace("rho_max = 0.8", "rho_max = big")
        with pytest.raises(ConfigError, match="expected float"):
            parse_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_psi_p(self, tmp_path, value):
        text = BASE_CONFIG.replace("psi_p = 0", f"psi_p = {value}")
        with pytest.raises(ConfigError, match=r"^psi_p = .* must be finite$"):
            parse_config(write_config(tmp_path, text))
        # study mode tabulates psi from u_star and ignores psi_p
        rc = parse_config(write_config(tmp_path, text.replace("mode = solve", "mode = study")))
        assert not math.isfinite(rc.get("problem", "psi_p"))

    def test_closes_the_config_file(self, tmp_path):
        path = write_config(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            parse_config(path)
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_readme_minimal_config(self, tmp_path):
        # the first ini block of the README parses as it stands
        with open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
                  encoding="utf-8") as fh:
            readme = fh.read()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        rc = parse_config(write_config(tmp_path, block))
        assert rc.get("problem", "k") == 1 and rc.get("problem", "psi_h") == "2"
        assert rc.get("run", "uniqueness_starts") == 0

    def test_verify_requires_fields(self, tmp_path):
        text = BASE_CONFIG.replace("mode = solve", "mode = verify")
        with pytest.raises(ConfigError, match="fields_in"):
            parse_config(write_config(tmp_path, text))


class TestSolveMode:
    def test_hyperboloid_end_to_end(self, tmp_path):
        out = tmp_path / "out"
        rc = parse_config(write_config(tmp_path))
        rc.out_dir = str(out)
        code = run(rc)
        assert code == 0
        for name in ("fields.csv", "report.json", "manifest.json", "log.txt"):
            assert (out / name).exists()
        data = np.loadtxt(out / "fields.csv", delimiter=",", skiprows=1)
        assert data.shape == (16 * 16, 9)
        u = data[:, 2]
        assert np.max(np.abs(u - 1.0)) <= 1e-9
        report = json.loads((out / "report.json").read_text())
        assert report["verification"]["passed"]
        assert report["solve"]["status"] == "converged"
        assert "support_identity_form" in report["estimates"]["notes"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_code"] == 0
        assert manifest["artifact_version"]
        assert "grid_hash" in manifest and "wall_time_s" in manifest

    def test_byte_identical_reruns(self, tmp_path):
        rc1 = parse_config(write_config(tmp_path))
        rc1.out_dir = str(tmp_path / "a")
        rc2 = parse_config(write_config(tmp_path))
        rc2.out_dir = str(tmp_path / "b")
        assert run(rc1) == 0
        assert run(rc2) == 0
        for name in ("fields.csv", "report.json"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    def test_artifacts_do_not_depend_on_blas_threads(self, tmp_path):
        # a non-radial 128^2 solve in fresh interpreters with one and with two
        # BLAS/OpenMP threads writes the same bytes; 128^2 since OpenBLAS
        # splits a dot product between threads only past 10,000 entries
        text = (BASE_CONFIG.replace("n_rho = 16", "n_rho = 128")
                .replace("n_theta = 16", "n_theta = 128").replace("k = 1", "k = 2")
                .replace("psi_p = 0", "psi_p = 2")
                .replace("psi_h = 2", "psi_h = 4*(1+0.2*rho*sin(theta))")
                .replace("phi_family = constant", "phi_family = hyperplane"))
        config = write_config(tmp_path, text)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        script = "import sys; from weingarten import cli; sys.exit(cli.main(sys.argv[1:]))"
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", script, "--config", config,
                                   "--out", str(tmp_path / threads)], env=env, timeout=120)
            assert proc.returncode == 0
        for name in ("fields.csv", "report.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_uniqueness_probe_in_report(self, tmp_path):
        text = BASE_CONFIG.replace("seed = 0", "seed = 0\nuniqueness_starts = 2")
        rc = parse_config(write_config(tmp_path, text))
        rc.out_dir = str(tmp_path / "out")
        assert run(rc) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["uniqueness"]["max_pairwise_distance"] <= 1e-8


    def test_coarse_to_fine_at_rho_max_3(self, tmp_path):
        # k = 2, psi = support^2 on a wide disk: the 12^2 level fails its
        # direct attempt and steps t from 0.25 up to 1, then 24^2 and 48^2
        # converge in their direct attempts; steps and probe runs record their
        # level's grid, and the log names it
        text = (BASE_CONFIG.replace("n_rho = 16", "n_rho = 48")
                .replace("n_theta = 16", "n_theta = 48").replace("k = 1", "k = 2")
                .replace("rho_max = 0.8", "rho_max = 3.0").replace("psi_p = 0", "psi_p = 2")
                .replace("psi_h = 2", "psi_h = 1")
                .replace("phi_family = constant", "phi_family = hyperplane")
                .replace("seed = 0", "seed = 0\nuniqueness_starts = 1"))
        out = tmp_path / "out"
        assert cli.main(["--config", write_config(tmp_path, text), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        grids = [tuple(s["grid"]) for s in report["solve"]["steps"]]
        assert grids[-2:] == [(24, 24), (48, 48)] and set(grids[:-2]) == {(12, 12)}
        assert report["solve"]["steps"][0]["t"] == 0.25
        run_steps = report["uniqueness"]["runs"][0]["steps"]
        assert [tuple(s["grid"]) for s in run_steps][-2:] == [(24, 24), (48, 48)]
        assert "grid 48x48 t=1.0000" in (out / "log.txt").read_text()

    def test_staged_solve_where_the_laplace_problem_has_no_graph(self, tmp_path):
        # k = 1, psi = 0.3, hyperplane phi on the 3.2 disk.  The 12^2 level
        # converges directly; its field, carried up, is refused on 24^2, so
        # that level continues in the data from the constant graph.  A
        # continuation from the Laplace problem Lap u = 0.3 could not start
        # here: its solution is negative at the pole
        text = (BASE_CONFIG.replace("n_rho = 16", "n_rho = 24")
                .replace("n_theta = 16", "n_theta = 24").replace("rho_max = 0.8", "rho_max = 3.2")
                .replace("psi_h = 2", "psi_h = 0.3")
                .replace("phi_family = constant", "phi_family = hyperplane"))
        out = tmp_path / "out"
        assert cli.main(["--config", write_config(tmp_path, text), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verification"]["passed"]
        steps = [(tuple(s["grid"]), s["t"]) for s in report["solve"]["steps"]]
        assert steps == [((12, 12), 1.0)] + [((24, 24), t) for t in (0.25, 0.5, 0.75, 1.0)]

    def test_missing_barrier_fails_its_gate(self, tmp_path):
        # k = 1 on a wide disk: the solve converges, but the order-2 barrier
        # problem has no solution that Newton finds.  That fails the sandwich
        # gate with its reason in the report: exit 3 with every artifact, in
        # solve mode and in verify mode, which runs the same check
        text = (BASE_CONFIG.replace("n_rho = 16", "n_rho = 24")
                .replace("n_theta = 16", "n_theta = 24").replace("rho_max = 0.8", "rho_max = 3.0")
                .replace("psi_p = 0", "psi_p = 1")
                .replace("psi_h = 2", "psi_h = 2*(1+0.3*rho*sin(theta))")
                .replace("phi_family = constant", "phi_family = hyperplane"))
        fields = tmp_path / "solve" / "fields.csv"
        verify = text.replace("mode = solve", f"mode = verify\nfields_in = {fields}")
        reason = "barrier problem (order 2) did not converge"
        for mode, cfg in (("solve", text), ("verify", verify)):
            out = tmp_path / mode
            assert cli.main(["--config", write_config(tmp_path, cfg, f"{mode}.cfg"),
                             "--out", str(out)]) == 3
            assert json.loads((out / "manifest.json").read_text())["exit_code"] == 3
            report = json.loads((out / "report.json").read_text())
            gates = report["verification"]["gates"]
            assert [name for name, ok in gates.items() if not ok] == ["barrier_sandwich"]
            assert report["verification"]["barriers"]["detail"].startswith(reason)
            assert reason in (out / "log.txt").read_text()
            assert (out / "fields.csv").exists() == (mode == "solve")


def assert_verify_outputs(out, code):
    # verify mode writes its report, log and manifest; the field it checked
    # is its input, so it writes no fields.csv
    report = json.loads((out / "report.json").read_text())
    assert report["verification"]["passed"] == (code == 0)
    assert (out / "log.txt").read_text().startswith("verify: ")
    assert json.loads((out / "manifest.json").read_text())["exit_code"] == code
    assert not (out / "fields.csv").exists()


class TestVerifyMode:
    def _solved(self, tmp_path):
        rc = parse_config(write_config(tmp_path))
        rc.out_dir = str(tmp_path / "out")
        assert run(rc) == 0
        return rc

    def test_verify_roundtrip(self, tmp_path):
        self._solved(tmp_path)
        fields = tmp_path / "out" / "fields.csv"
        text = BASE_CONFIG.replace("mode = solve", "mode = verify").replace(
            "seed = 0", f"seed = 0\nfields_in = {fields}"
        )
        rc = parse_config(write_config(tmp_path, text, name="verify.cfg"))
        rc.out_dir = str(tmp_path / "verify_out")
        assert run(rc) == 0
        assert_verify_outputs(tmp_path / "verify_out", 0)

    def test_a_solve_passes_verify_of_its_own_field(self, tmp_path):
        # k = 1 on the 3.6 disk: sup psi falls over the solve, so a tolerance
        # taken from psi at the start accepted a residual of 2.830e-08 that
        # verify, taking it from psi at the field, refused (2.826e-08)
        text = (BASE_CONFIG.replace("n_rho = 16", "n_rho = 48")
                .replace("n_theta = 16", "n_theta = 48").replace("rho_max = 0.8", "rho_max = 3.6")
                .replace("psi_p = 0", "psi_p = 1")
                .replace("psi_h = 2", "psi_h = 2/u*(1+0.1*rho*cos(theta))"))
        fields = tmp_path / "solve" / "fields.csv"
        verify = text.replace("mode = solve", f"mode = verify\nfields_in = {fields}")
        for mode, cfg in (("solve", text), ("verify", verify)):
            assert cli.main(["--config", write_config(tmp_path, cfg, f"{mode}.cfg"),
                             "--out", str(tmp_path / mode)]) == 0

    def test_u_column_is_a_field_of_its_own(self, tmp_path, monkeypatch):
        # u is read out as a C-contiguous copy, not a strided view that would
        # keep the whole nine-column table alive through the verify run
        self._solved(tmp_path)
        tables, loadtxt = [], np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: tables.append(loadtxt(*a, **kw))
                            or tables[-1])
        grid = cli.build_problem(parse_config(write_config(tmp_path))).grid
        u = cli._read_u_column(tmp_path / "out" / "fields.csv", grid)
        assert u.shape == grid.shape and u.flags.c_contiguous
        assert not np.shares_memory(u, tables[0])
        assert np.array_equal(u.ravel(), tables[0][:, 2])

    @pytest.mark.parametrize("header", ["x,y,z,a,b,c,d,e,f", "", cli._CSV_HEADER + ",extra"])
    def test_foreign_header_is_malformed(self, tmp_path, capsys, header):
        # a table of the right shape under another header is not a fields file
        self._solved(tmp_path)
        fields = tmp_path / "out" / "fields.csv"
        rows = fields.read_text().splitlines()[1:]
        fields.write_text("\n".join([header] + rows) + "\n")
        text = BASE_CONFIG.replace("mode = solve", f"mode = verify\nfields_in = {fields}")
        out = tmp_path / "verify_out"
        assert cli.main(["--config", write_config(tmp_path, text, "verify.cfg"),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "is malformed: header" in err and err.count("\n") == 1
        assert json.loads((out / "manifest.json").read_text())["exit_code"] == 2

    def test_crlf_fields_file_verifies(self, tmp_path):
        self._solved(tmp_path)
        fields = tmp_path / "out" / "fields.csv"
        fields.write_bytes(fields.read_bytes().replace(b"\n", b"\r\n"))
        text = BASE_CONFIG.replace("mode = solve", f"mode = verify\nfields_in = {fields}")
        assert cli.main(["--config", write_config(tmp_path, text, "verify.cfg"),
                         "--out", str(tmp_path / "verify_out")]) == 0

    def test_corrupted_field_fails(self, tmp_path):
        self._solved(tmp_path)
        path = tmp_path / "out" / "fields.csv"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        data[:, 2] += 0.1 * np.exp(-((data[:, 0] - 0.3) / 0.2) ** 2)  # bump on u
        header = path.read_text().splitlines()[0]
        np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header, comments="")
        text = BASE_CONFIG.replace("mode = solve", "mode = verify").replace(
            "seed = 0", f"seed = 0\nfields_in = {path}"
        )
        rc = parse_config(write_config(tmp_path, text, name="verify.cfg"))
        rc.out_dir = str(tmp_path / "verify_out")
        assert run(rc) == 3
        assert_verify_outputs(tmp_path / "verify_out", 3)

    @pytest.mark.parametrize("psi_h", ["2", "2/u*(1+0.1*rho**2)"])
    def test_nan_field_names_the_node(self, tmp_path, psi_h):
        fields = tmp_path / "fields.csv"
        u = np.ones(64)
        u[3 * 8 + 4] = np.nan
        table = np.column_stack([np.zeros((64, 2)), u, np.ones((64, 6))])
        np.savetxt(fields, table, delimiter=",", header=cli._CSV_HEADER, comments="")
        text = small(BASE_CONFIG.replace("psi_h = 2", f"psi_h = {psi_h}")).replace(
            "mode = solve", f"mode = verify\nfields_in = {fields}")
        out = tmp_path / "out"
        assert cli.main(["--config", write_config(tmp_path, text), "--out", str(out)]) == 3
        assert "not finite and positive at node (i=3, j=4" in (out / "log.txt").read_text()


class TestStudyMode:
    def test_study_emits_orders(self, tmp_path):
        text = BASE_CONFIG.replace("mode = solve", "mode = study").replace(
            "k = 1", "k = 2"
        )
        text += "\n[study]\ngrids = 12,24\nu_star = 1 + 0.05*rho**2 + 0.02*rho**4\n"
        rc = parse_config(write_config(tmp_path, text))
        rc.out_dir = str(tmp_path / "study_out")
        assert run(rc) == 0
        study = json.loads((tmp_path / "study_out" / "study.json").read_text())
        assert [row["grid"] for row in study["rows"]] == [12, 24]
        assert study["orders"][0] > 1.5
        assert all(row["spacelike_gap"] < 0.2 for row in study["rows"])

    def test_orders_use_the_grid_ratio(self, tmp_path):
        text = BASE_CONFIG.replace("mode = solve", "mode = study").replace(
            "k = 1", "k = 2"
        )
        text += "\n[study]\ngrids = 16,24\nu_star = 1 + 0.05*rho**2 + 0.02*rho**4\n"
        rc = parse_config(write_config(tmp_path, text))
        rc.out_dir = str(tmp_path / "study_out")
        assert run(rc) == 0
        study = json.loads((tmp_path / "study_out" / "study.json").read_text())
        e16, e24 = (row["error_inf"] for row in study["rows"])
        assert study["orders"][0] == pytest.approx(np.log(e16 / e24) / np.log(24 / 16), rel=1e-12)

    def test_exact_reproduction_has_no_order(self, tmp_path):
        # u_star = 1 is reproduced exactly on every grid: an error of 0 has no order
        text = BASE_CONFIG.replace("mode = solve", "mode = study").replace("k = 1", "k = 2")
        text += "\n[study]\ngrids = 8,16\nu_star = 1\nrefine = 2\n"
        out = tmp_path / "study_out"
        assert cli.main(["--config", write_config(tmp_path, text), "--out", str(out)]) == 0
        study = json.loads((out / "study.json").read_text())
        assert [row["error_inf"] for row in study["rows"]] == [0.0, 0.0]
        assert study["orders"] == [None]
        assert "observed order 8 -> 16: none (zero error)" in (out / "log.txt").read_text()
        assert json.loads((out / "manifest.json").read_text())["exit_code"] == 0

    def test_study_without_psi_family(self, tmp_path):
        # study mode tabulates its own psi, so the config need not name one
        text = BASE_CONFIG.replace("mode = solve", "mode = study").replace(
            "k = 1", "k = 2"
        ).replace("psi_family = power\n", "")
        text += "\n[study]\ngrids = 12,24\nu_star = 1 + 0.05*rho**2 + 0.02*rho**4\n"
        out = tmp_path / "study_out"
        assert cli.main(["--config", write_config(tmp_path, text), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_code"] == 0 and manifest["status"] == "study-complete"


class TestMain:
    def test_cli_flags(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "cli_out")
        code = cli.main(["--config", cfg, "--out", out, "--grid", "16x16"])
        assert code == 0
        assert os.path.exists(os.path.join(out, "fields.csv"))

    def test_bad_grid_flag(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "cli_out"
        assert cli.main(["--config", cfg, "--grid", "16by16", "--out", str(out)]) == 2
        assert json.loads((out / "manifest.json").read_text())["exit_code"] == 2

    def test_negative_seed_flag_writes_manifest(self, tmp_path, capsys):
        out = tmp_path / "cli_out"
        text = BASE_CONFIG.replace("seed = 0", "seed = 0\nuniqueness_starts = 1")
        cfg = write_config(tmp_path, text)
        assert cli.main(["--config", cfg, "--out", str(out), "--seed", "-5"]) == 2
        assert capsys.readouterr().err == "config error: seed = -5 must be >= 0\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_code"] == 2 and manifest["status"] == "failed"

    @pytest.mark.parametrize("old, new", [("phi_c = 1.0", "phi_c = nan"),
                                          ("n_theta = 16", "n_theta = 5"),
                                          ("k = 1", "k = 3")])
    def test_range_error_writes_manifest(self, tmp_path, capsys, old, new):
        # a config that reads but fails a range check leaves a manifest
        out = tmp_path / "cli_out"
        cfg = write_config(tmp_path, BASE_CONFIG.replace(old, new))
        assert cli.main(["--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_code"] == 2 and manifest["status"] == "failed"

    def test_bad_psi_expression_writes_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG.replace("psi_h = 2", "psi_h = foo"))
        out = tmp_path / "cli_out"
        assert cli.main(["--config", cfg, "--out", str(out)]) == 2
        assert "run failed: psi_h" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_code"] == 2 and manifest["status"] == "failed"

    def test_gradient_bound_past_float_range(self, tmp_path):
        # S2 * (2 sup|phi| + diam) passes ~709 here, so exp(...) overflows
        text = (BASE_CONFIG.replace("k = 1", "k = 2").replace("rho_max = 0.8", "rho_max = 3")
                .replace("psi_p = 0", "psi_p = 2").replace("psi_h = 2", "psi_h = 1")
                .replace("phi_family = constant", "phi_family = hyperplane"))
        out = tmp_path / "cli_out"
        code = cli.main(["--config", write_config(tmp_path, text), "--out", str(out),
                         "--grid", "48x48"])
        assert code in (0, 3)
        assert json.loads((out / "manifest.json").read_text())["exit_code"] == code
        estimates = json.loads((out / "report.json").read_text())["estimates"]
        assert estimates["gradient_bound"] == float("inf")
        assert estimates["gradient_bound_passed"]

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_input_exits_2(self, tmp_path, capsys, case):
        edits, tail = BAD_INPUTS[case]
        text = small(BASE_CONFIG)
        for old, new in edits:
            text = text.replace(old, new)
        fields = tmp_path / "fields.csv"
        rows = ["0.1,0,1,1,1,1,2,1,0"] * 64
        rows[5] = "0.1,0,1,1,1,1,2,1"
        fields.write_text(cli._CSV_HEADER + "\n" + "\n".join(rows) + "\n")
        cfg = write_config(tmp_path, text.replace("{fields}", str(fields)) + tail)
        manifest = tmp_path / "out" / "manifest.json"
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            # print warnings to stderr as a fresh interpreter does, not to pytest's record
            warnings.simplefilter("default")
            warnings.showwarning = print_warning
            code = cli.main(["--config", cfg, "--out", str(manifest.parent)])
        assert time.perf_counter() - t0 < 5.0
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "Traceback" not in err
        assert len(err) <= 300
        if case in UNREAD:
            assert not manifest.exists()
        else:
            assert json.loads(manifest.read_text())["exit_code"] == 2

    def test_missing_config(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "nope.cfg")]) == 2

    def test_io_failure_exit_code(self, tmp_path):
        cfg = write_config(tmp_path)
        blocker = tmp_path / "blocked"
        blocker.write_text("")
        rc = parse_config(cfg)
        rc.out_dir = str(blocker / "sub")  # cannot mkdir below a regular file
        assert run(rc) == 4

    def test_nonfinite_output_exits_2(self, tmp_path, capsys, monkeypatch):
        # a NaN in the solve's field table ends the run before it writes
        # fields.csv, report.json or log.txt; stderr names the node
        real_table = cli._field_table

        def nan_table(state, spec):
            table = real_table(state, spec)
            table[3 * 16 + 5, 4] = np.nan  # lambda1 at ring 3, ray 5
            return table

        monkeypatch.setattr(cli, "_field_table", nan_table)
        out = tmp_path / "out"
        assert cli.main(["--config", write_config(tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("non-finite output: ") and err.count("\n") == 1
        assert "at node (i=3, j=5, " in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_code"] == 2 and manifest["status"] == "non-finite"
        assert sorted(os.listdir(out)) == ["manifest.json"]

    def test_run_is_on_a_worker_thread_in_the_callers_context(self, tmp_path, monkeypatch):
        seen = {}

        def fake_run(rc):
            seen["worker"] = threading.current_thread() is not threading.main_thread()
            seen["errstate"] = np.geterr()
            return 3

        monkeypatch.setattr(cli, "run", fake_run)
        assert cli.main(["--config", write_config(tmp_path), "--out", str(tmp_path / "o")]) == 3
        assert seen["worker"]
        assert set(seen["errstate"].values()) == {"ignore"}  # main's errstate reaches it

    def test_run_exception_reaches_the_caller(self, tmp_path, monkeypatch):
        def failing_run(rc):
            raise KeyError("from the worker")

        monkeypatch.setattr(cli, "run", failing_run)
        with pytest.raises(KeyError, match="from the worker"):
            cli.main(["--config", write_config(tmp_path), "--out", str(tmp_path / "o")])

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
    def test_run_leaves_the_callers_heap(self, tmp_path):
        # in a fresh interpreter, a 64^2 solve run on the calling thread grew
        # the main heap by ~1.4 MB; on the worker thread it grows by nothing
        text = (BASE_CONFIG.replace("n_rho = 16", "n_rho = 64").replace("n_theta = 16", "n_theta = 64")
                .replace("psi_p = 0", "psi_p = 1").replace("psi_h = 2", "psi_h = 2/u*(1+0.1*rho**2)")
                .replace("phi_family = constant", "phi_family = hyperplane"))
        cfg = write_config(tmp_path, text)
        script = (
            "import sys\n"
            "from weingarten import cli\n"
            "def heap_kb():\n"
            "    for line in open('/proc/self/maps'):\n"
            "        if line.rstrip().endswith('[heap]'):\n"
            "            lo, hi = (int(a, 16) for a in line.split()[0].split('-'))\n"
            "            return (hi - lo) >> 10\n"
            "before = heap_kb()\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(code, before, heap_kb())\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", script, "--config", cfg, "--out",
                               str(tmp_path / "o")], capture_output=True, text=True, env=env)
        code, before, after = proc.stdout.split()
        if before == "None":
            pytest.skip("no [heap] mapping")
        assert code == "0"
        assert int(after) - int(before) < 512

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
    def test_runs_hand_their_memory_back(self, tmp_path):
        # in a fresh interpreter, a 256^2 verify after its solve left 45 MB
        # resident when malloc_trim alone released the run's arena: the run's
        # freed arrays had merged into the arena's top block
        base = (BASE_CONFIG.replace("n_rho = 16", "n_rho = 256").replace("n_theta = 16", "n_theta = 256")
                .replace("psi_p = 0", "psi_p = 1").replace("psi_h = 2", "psi_h = 2/u*(1+0.1*rho**2)")
                .replace("phi_family = constant", "phi_family = hyperplane"))
        solve = write_config(tmp_path, base.replace("mode = solve", f"mode = solve\nout_dir = {tmp_path / 's'}"),
                             "solve.cfg")
        verify = write_config(tmp_path, base.replace(
            "mode = solve", f"mode = verify\nout_dir = {tmp_path / 'v'}\n"
                            f"fields_in = {tmp_path / 's' / 'fields.csv'}"), "verify.cfg")
        script = (
            "import sys\n"
            "from weingarten import cli\n"
            "def rss_mb():\n"
            "    with open('/proc/self/statm') as fh:\n"
            "        return int(fh.read().split()[1]) * 4096 / 1e6\n"
            "before = rss_mb()\n"
            "codes = [cli.main(['--config', path]) for path in sys.argv[1:]]\n"
            "print(*codes, rss_mb() - before)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", script, solve, verify], capture_output=True,
                              text=True, env=env, timeout=120)
        code_s, code_v, grown = proc.stdout.split()
        assert (code_s, code_v) == ("0", "0"), proc.stderr
        assert float(grown) < 10.0  # 2.2 MB with the arena's top trimmed

    def test_fields_csv_has_the_bytes_of_savetxt(self, tmp_path):
        # more rows than one formatting block, and a non-radial field
        from weingarten.geom import extrinsic_state
        from weingarten.hchart import Grid, PolarChart
        from weingarten.problem import PhiSpec, ProblemSpec, PsiSpec

        g = Grid(PolarChart(0.8), 72, 64)
        spec = ProblemSpec(grid=g, k=2, psi=PsiSpec("power", p=2.0, h="4*(1+0.2*rho*sin(theta))"),
                           phi=PhiSpec("hyperplane", c=1.0))
        rn = g.rho_col / 0.8
        state = extrinsic_state(0.5 * (1.0 + 0.02 * rn ** 2 + 0.01 * np.cos(g.theta_row) * rn), g)
        table = cli._field_table(state, spec)
        assert table.shape[0] > cli._CSV_BLOCK_ROWS
        ref = tmp_path / "savetxt.csv"
        np.savetxt(ref, table, fmt="%.17g", delimiter=",", header=cli._CSV_HEADER, comments="")
        cli._emit(str(tmp_path), state, spec)
        assert (tmp_path / "fields.csv").read_bytes() == ref.read_bytes()

    def test_nonfinite_guard(self):
        from weingarten.cli import _check_finite
        from weingarten.hchart import Grid, PolarChart

        g = Grid(PolarChart(0.8), 8, 8)
        table = np.zeros((g.n_nodes, 9))
        table[5, 3] = np.inf
        with pytest.raises(FloatingPointError):
            _check_finite(table, g)


# small pools of valid and invalid inputs for the CLI fuzz test
FUZZ_RADII = ("0.8", "2.4", "1e-200", "1e-155", "250", "1e300")
FUZZ_PSI_H = ("2", "2/u*(1+0.1*rho*cos(theta))", "4*(1+0.2*rho*sin(theta))", "-1", "1/0", "foo")
FUZZ_U_STAR = ("1", "0.5", "1 + 0.05*rho**2", "1 + 0.01*cos(theta)", "2 - rho**2")
FUZZ_U = ("1", "0.5", "nan", "-1", "1,1")  # fields.csv u entries; "1,1" is a wrong width


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_fuzz_exit_contract(tmp_path_factory, data):
    """Drawn configs (and fields files) keep the exit-code contract: the code is
    0, 2, 3 or 4, each run takes under 2 s, and a successful run's report
    holds no NaN.  Every drawn config file reads (its sections, keys and value
    types are valid, whatever the values), so every exit but 4 leaves a
    manifest carrying its code."""
    draw = data.draw
    mode = draw(st.sampled_from(("solve", "verify", "study")))
    n_rho, n_theta = draw(st.integers(4, 12)), draw(st.integers(4, 12))
    text = (f"[problem]\nk = {draw(st.sampled_from((1, 2)))}\n"
            f"rho_max = {draw(st.sampled_from(FUZZ_RADII))}\n"
            f"n_rho = {n_rho}\nn_theta = {n_theta}\n"
            f"psi_family = {draw(st.sampled_from(('power', 'exponential')))}\n"
            f"psi_p = {draw(st.sampled_from((0, 1, 2)))}\n"
            f"psi_h = {draw(st.sampled_from(FUZZ_PSI_H))}\n"
            f"phi_family = {draw(st.sampled_from(('constant', 'hyperplane')))}\n"
            f"phi_c = {draw(st.sampled_from(('1.0', '0.5', '-1', 'nan')))}\n"
            f"[run]\nmode = {mode}\n")
    tmp = tmp_path_factory.mktemp("fuzz")
    if mode == "verify":
        us = [draw(st.sampled_from(FUZZ_U)) if draw(st.booleans()) else "1"
              for _ in range(n_rho * n_theta)]
        rows = [f"0.1,0,{u},1,1,1,2,1,0" for u in us]
        (tmp / "fields.csv").write_text(cli._CSV_HEADER + "\n" + "\n".join(rows) + "\n")
        text += f"fields_in = {tmp / 'fields.csv'}\n"
    if mode == "study":
        grids = draw(st.lists(st.sampled_from((4, 5, 6, 8, 12)), min_size=1, max_size=2))
        text += (f"[study]\ngrids = {','.join(map(str, grids))}\n"
                 f"u_star = {draw(st.sampled_from(FUZZ_U_STAR))}\n"
                 f"refine = {draw(st.sampled_from((1, 2)))}\n")
    cfg, out = write_config(tmp, text), tmp / "out"
    t0 = time.perf_counter()
    code = cli.main(["--config", cfg, "--out", str(out)])
    assert time.perf_counter() - t0 < 2.0
    assert code in (0, 2, 3, 4)
    if code != 4:
        assert json.loads((out / "manifest.json").read_text())["exit_code"] == code
    if code == 0:
        assert "NaN" not in (out / "report.json").read_text()
