"""Write the sha256 and size of the CLI's deterministic artifacts as JSON, or
compare two kept sets of them.

Runs the three CLI workloads of ``perfbench/workloads.py`` (configs from
``write_configs(name, 3, dir)``), two non-radial 96^2 hyperplane solves, one
staged 24^2 solve, one 24^2 solve that fails a gate and one k = 1 study,
with ``OMP_NUM_THREADS=1``, then digests the fields.csv,
report.json and study.json each run writes: 19 files (verify mode writes no
fields.csv).
The staged solve (k = 1, psi = 0.3, hyperplane phi, rho_max 3.2) refuses
its carried start on 24^2 and steps t there, so the continuation in the data
is digested too; every other solve converges in its direct attempts.  The
failing one (k = 1, psi_p = 1, psi_h = 2*(1+0.3*rho*sin(theta)), hyperplane
phi, rho_max 3.0) finds no order-2 barrier, so it exits 3 and the failed-gate
report is digested too.  The second study (k = 1, rho_max 1.2, grids 16,
32, 64, u* = 1 + 0.05 rho^2 + 0.02 rho^4) covers the curvature order and
the radius that ``study-k2`` does not; its config sets the ignored
``refine = 2``, so the warning that key draws is digested too.  Two checkouts agree
byte for byte when their outputs compare equal with ``diff``.  ``--keep DIR`` also copies the files
into DIR, under the same names as in the JSON.  ``--compare DIR_A DIR_B`` reads
two kept sets and prints, per artifact of either set, its ``newton_total``
leaves and the largest |A - B| of each fields.csv column and of each numeric
leaf of report.json and study.json that differs, or the set it is missing
in.

    python3 tools/artifact_digest.py OUT.json [--keep DIR]
    python3 tools/artifact_digest.py --compare DIR_A DIR_B
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile

os.environ["OMP_NUM_THREADS"] = "1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

ARTIFACTS = ("fields.csv", "report.json", "study.json")
# name -> (k, rho_max, n, psi_p, psi_h), each with hyperplane phi
HYPERPLANE = {"k1-96": (1, 0.8, 96, 1, "2/u*(1+0.1*rho*cos(theta))"),
              "k2-96": (2, 0.8, 96, 2, "4*(1+0.2*rho*sin(theta))"),
              "staged-k1-24": (1, 3.2, 24, 0, "0.3"),
              "no-barrier-k1-24": (1, 3.0, 24, 1, "2*(1+0.3*rho*sin(theta))")}


def main(out_path, keep=None):
    import workloads
    from weingarten import cli

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        runs = []  # (name, config path, out dir)
        for name, roles in (("solve-verify-256", ("solve", "verify")),
                            ("continuation-k2-80", ("solve",)), ("study-k2", ("study",))):
            work = os.path.join(tmp, name)
            os.makedirs(work)
            cfg = workloads.write_configs(name, 3, work)
            for role in roles:
                runs.append((f"{name}/{role}", cfg[role], os.path.join(work, role)))
        for name, (k, rho_max, n, p, h) in HYPERPLANE.items():
            out = os.path.join(tmp, name)
            with open(out + ".cfg", "w", encoding="utf-8") as fh:
                fh.write(workloads._problem(k, rho_max, n, p, h, "hyperplane")
                         + f"[run]\nout_dir = {out}\n")
            runs.append((name, out + ".cfg", out))
        out = os.path.join(tmp, "study-k1-refine2")
        with open(out + ".cfg", "w", encoding="utf-8") as fh:
            fh.write(workloads._problem(1, 1.2, 16, 0, 2, "constant")
                     + f"[run]\nmode = study\nout_dir = {out}\n[study]\ngrids = 16,32,64\n"
                     "u_star = 1 + 0.05*rho**2 + 0.02*rho**4\nrefine = 2\n")
        runs.append(("study-k1-refine2", out + ".cfg", out))
        for name, config, out in runs:
            code = cli.main(["--config", config])
            for fname in ARTIFACTS:
                path = os.path.join(out, fname)
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        data = fh.read()
                    digests[f"{name}/{fname}"] = {
                        "exit_code": code, "bytes": len(data),
                        "sha256": hashlib.sha256(data).hexdigest()}
                    if keep:
                        os.makedirs(os.path.join(keep, name), exist_ok=True)
                        shutil.copyfile(path, os.path.join(keep, name, fname))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _leaves(obj, path=""):
    """(path, value) for every scalar in a JSON tree."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, obj


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _compare_json(path_a, path_b):
    with open(path_a, encoding="utf-8") as fh:
        a = dict(_leaves(json.load(fh)))
    with open(path_b, encoding="utf-8") as fh:
        b = dict(_leaves(json.load(fh)))
    for key in sorted(k for k in a if k.rsplit(".", 1)[-1] == "newton_total"):
        print(f"  {key}: {a[key]} -> {b.get(key)}")
    same = 0
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if _is_number(va) and _is_number(vb):
            if va == vb or (math.isnan(va) and math.isnan(vb)):
                same += 1
            else:
                print(f"  {key}: |d| {abs(va - vb):.3g} ({va!r} -> {vb!r})")
        elif va == vb:
            same += 1
        else:
            print(f"  {key}: {va!r} -> {vb!r}")
    print(f"  {same} of {len(set(a) | set(b))} leaves equal")


def _compare_fields(path_a, path_b):
    import numpy as np

    with open(path_a, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    a = np.loadtxt(path_a, delimiter=",", skiprows=1, ndmin=2)
    b = np.loadtxt(path_b, delimiter=",", skiprows=1, ndmin=2)
    if a.shape != b.shape:
        print(f"  shapes differ: {a.shape} -> {b.shape}")
        return
    diff = np.max(np.abs(a - b), axis=0)
    print("  max |d| " + ", ".join(f"{c} {d:.3g}" for c, d in zip(header, diff)))


def compare(dir_a, dir_b):
    names = set()
    for top in (dir_a, dir_b):
        for root, _, files in os.walk(top):
            names |= {os.path.relpath(os.path.join(root, f), top)
                      for f in files if f in ARTIFACTS}
    for name in sorted(names):
        path_a, path_b = os.path.join(dir_a, name), os.path.join(dir_b, name)
        print(name)
        if not os.path.exists(path_a):
            print("  missing in", dir_a)
        elif not os.path.exists(path_b):
            print("  missing in", dir_b)
        elif name.endswith(".csv"):
            _compare_fields(path_a, path_b)
        else:
            _compare_json(path_a, path_b)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="where to write the digests (JSON)")
    parser.add_argument("--keep", metavar="DIR", help="copy the artifacts into DIR")
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="compare two directories written by --keep")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
    elif args.out:
        main(args.out, args.keep)
    else:
        parser.error("give OUT.json or --compare DIR_A DIR_B")
