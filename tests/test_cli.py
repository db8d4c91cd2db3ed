import json
import os
import subprocess
import sys
import time

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
    "dt_init": ([], "[continuation]\ndt_init = 0\n"),
    "max_newton_iters": ([], "[continuation]\nmax_newton_iters = 0\n"),
    "newton_tol_text": ([], "[continuation]\nnewton_tol = abc\n"),
    "newton_tol_negative": ([], "[continuation]\nnewton_tol = -1\n"),
    "phi_c_nan": ([("phi_c = 1.0", "phi_c = nan")], ""),
    "phi_c_inf": ([("phi_c = 1.0", "phi_c = inf")], ""),
    "psi_overflow": ([("psi_family = power", "psi_family = exponential"),
                      ("psi_p = 0", "psi_p = 1000")], ""),
    "psi_h_power_tower": ([("psi_h = 2", "psi_h = 9**9**9")], ""),
    "psi_h_deep_3000": ([("psi_h = 2", "psi_h = " + "-" * 3000 + "2")], ""),
    "psi_h_deep_200000": ([("psi_h = 2", "psi_h = " + "-" * 200000 + "2")], ""),
    "psi_h_syntax_1000": ([("psi_h = 2", "psi_h = " + "1+" * 500)], ""),
    "n_rho_200000": ([("n_rho = 8", "n_rho = " + "x" * 200000)], ""),
    "no_equals_200000": ([], "x" * 200000 + "\n"),
    "uniqueness_starts_negative": ([("mode = solve", "mode = solve\nuniqueness_starts = -1")], ""),
    "study_grid": (STUDY, "[study]\ngrids = 2\n"),
    "study_grid_repeated": (STUDY, "[study]\ngrids = 8,8\n"),
    "study_refine": (STUDY, "[study]\ngrids = 8\nrefine = 0\n"),
    "study_not_radial": (STUDY, "[study]\ngrids = 8\nu_star = 1+0.01*cos(theta)\n"),
    "u_star_power_tower": (STUDY, "[study]\ngrids = 8\nu_star = 9**9**9\n"),
    "fields_row": ([("mode = solve", "mode = verify\nfields_in = {fields}")], ""),
}
# disk radii whose chart factors leave the float range, or whose metric does in Newton
HYPERPLANE = ("phi_family = constant", "phi_family = hyperplane")
for radius in ("1e-200", "1e-155", "250", "1e300"):
    BAD_INPUTS[f"rho_max_{radius}"] = ([("rho_max = 0.8", f"rho_max = {radius}"), HYPERPLANE], "")


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
        assert cli.main(["--config", cfg, "--grid", "16by16"]) == 2

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
        t0 = time.perf_counter()
        code = cli.main(["--config", cfg, "--out", str(tmp_path / "out")])
        assert time.perf_counter() - t0 < 5.0
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "Traceback" not in err
        assert len(err) <= 300

    def test_missing_config(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "nope.cfg")]) == 2

    def test_io_failure_exit_code(self, tmp_path):
        cfg = write_config(tmp_path)
        blocker = tmp_path / "blocked"
        blocker.write_text("")
        rc = parse_config(cfg)
        rc.out_dir = str(blocker / "sub")  # cannot mkdir below a regular file
        assert run(rc) == 4

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
    0, 2, 3 or 4, a parsed config leaves a manifest carrying it, each run takes
    under 2 s, and a successful run's report holds no NaN."""
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
    try:
        parse_config(cfg)
        parsed = True
    except ConfigError:
        parsed = False
    t0 = time.perf_counter()
    code = cli.main(["--config", cfg, "--out", str(out)])
    assert time.perf_counter() - t0 < 2.0
    assert code in (0, 2, 3, 4)
    if parsed and code != 4:
        assert json.loads((out / "manifest.json").read_text())["exit_code"] == code
    if code == 0:
        assert "NaN" not in (out / "report.json").read_text()
