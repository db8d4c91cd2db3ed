"""Write the sha256 and size of the CLI's deterministic artifacts as JSON.

Runs the three CLI workloads of ``perfbench/workloads.py`` (configs from
``write_configs(name, 3, dir)``) and two non-radial 96^2 hyperplane solves
with ``OMP_NUM_THREADS=1``, then digests their fields.csv, report.json and
study.json: 13 files.  Two checkouts agree byte for byte when their outputs
compare equal with ``diff``.

    python3 tools/artifact_digest.py OUT.json
"""

import hashlib
import json
import os
import sys
import tempfile

os.environ["OMP_NUM_THREADS"] = "1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from weingarten import cli  # noqa: E402

NON_RADIAL = {"k1-96": (1, 1, "2/u*(1+0.1*rho*cos(theta))"),
              "k2-96": (2, 2, "4*(1+0.2*rho*sin(theta))")}


def main(out_path):
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
        for name, (k, p, h) in NON_RADIAL.items():
            out = os.path.join(tmp, name)
            with open(out + ".cfg", "w", encoding="utf-8") as fh:
                fh.write(workloads._problem(k, 0.8, 96, p, h, "hyperplane")
                         + f"[run]\nout_dir = {out}\n")
            runs.append((name, out + ".cfg", out))
        for name, config, out in runs:
            code = cli.main(["--config", config])
            for fname in ("fields.csv", "report.json", "study.json"):
                path = os.path.join(out, fname)
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        data = fh.read()
                    digests[f"{name}/{fname}"] = {
                        "exit_code": code, "bytes": len(data),
                        "sha256": hashlib.sha256(data).hexdigest()}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
