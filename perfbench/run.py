"""Benchmark of the weingarten solver and verification harness.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ``src``.  A run
of one workload is a set of rounds; each round is a fresh interpreter
(``child.py``) that runs the workload's operations in-process once and then
checks their outputs.  There are at least ``MIN_ROUNDS`` rounds, and more
while the next one is expected to end within ``--seconds``.  Each round is
preceded by ``PROBES`` interpreters that only import the package and parse
the config; ``setup_s`` is the median set-up time over the probes and the
rounds.  ``wall_s`` and ``peak_rss_mb`` are medians over the rounds.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer figures of the traced ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A missing package source, a child
that crashes or a run that would pass its time limit ends the run with a
non-zero exit code and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

PROBES = 2  # set-up probes before each round
MIN_ROUNDS = 2
RUN_LIMIT_S = 170.0  # one workload's run must end within 180 s


class RunError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload: str, cfg: dict, workdir: str, deadline: float, probe=False,
          traced=False) -> dict:
    """Run one child interpreter and return its result with ``setup_s``
    (spawn to ready) and ``duration`` (spawn to exit)."""
    result = os.path.join(workdir, "result.json")
    if os.path.exists(result):
        os.remove(result)
    cmd = [sys.executable, CHILD, "--workload", workload, "--config", cfg["setup"],
           "--result", result, "--configs", cfg["path"]]
    cmd += ["--probe"] if probe else []
    cmd += ["--trace"] if traced else []
    timeout = deadline - time.monotonic()
    log_path = os.path.join(workdir, "child.log")
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=workdir,
                                  env=_child_env(), timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            raise RunError(f"{workload}: a round did not end within the run's time limit")
        end = time.monotonic()
    if proc.returncode != 0:
        with open(log_path, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise RunError(f"{workload}: child exited {proc.returncode}\n{tail}")
    with open(result, encoding="utf-8") as fh:
        out = json.load(fh)
    out["setup_s"] = out["ready"] - t0
    out["duration"] = end - t0
    out["traced"] = traced
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(RUNS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=RUNS)
    try:
        cfg = workloads.write_configs(workload, seed, workdir)
        cfg["path"] = os.path.join(workdir, "configs.json")
        if trace:
            cfg["trace_dump"] = os.path.join(RUNS, f"trace-{workload}.json")
        with open(cfg["path"], "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        start = time.monotonic()
        if not os.path.isdir(os.path.join(SRC, "weingarten", "__pycache__")):
            spawn(workload, cfg, workdir, deadline, probe=True)  # compiles the package
        setups: list[float] = []
        rounds: list[dict] = []
        while True:
            setups += [spawn(workload, cfg, workdir, deadline, probe=True)["setup_s"]
                       for _ in range(PROBES)]
            traced = trace and len(rounds) % 2 == 1
            rounds.append(spawn(workload, cfg, workdir, deadline, traced=traced))
            now = time.monotonic()
            per_round = (now - start) / len(rounds)
            if len(rounds) < MIN_ROUNDS:
                continue
            if now - start + per_round > seconds or now + per_round > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return summarise(workload, setups, rounds, trace)


def summarise(workload, setups, rounds, trace) -> dict:
    plain = [r for r in rounds if not r["traced"]]
    errors = [e for r in rounds for e in r["errors"]]
    out = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "errors": errors,
        "samples": {"setup_s": len(setups) + len(rounds),
                    "wall_s": [r["wall_s"] for r in plain]},
    }
    wall = statistics.median(r["wall_s"] for r in plain)
    if not trace:
        out["metrics"] = {
            "setup_s": (statistics.median(setups + [r["setup_s"] for r in rounds]), "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in plain) * 1024 / 1e6,
                            "MB"),
        }
        return out
    traced = [r for r in rounds if r["traced"]]
    metrics = {}
    for name in traced[0]["layers"]:
        value = statistics.median(r["layers"][name] for r in traced)
        metrics[name] = (value, layer_unit(name))
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced) - wall, "s")
    metrics["trace.coverage"] = (statistics.median(r["coverage"] for r in traced), "ratio")
    out["metrics"] = metrics
    return out


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name in ("solver.newton.iterations",
                                          "solver.line_search.trials", "trace.spans"):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "s"


def report_line(workload: str, res: dict) -> str:
    figures = "  ".join(f"{k} {v:.6g} {u}" for k, (v, u) in sorted(res["metrics"].items()))
    walls = ", ".join(f"{w:.4g}" for w in res["samples"]["wall_s"])
    return (f"{workload}: {figures}  [attempted {res['attempted']}, failed {res['failed']}, "
            f"round wall_s {walls}, setup samples {res['samples']['setup_s']}]")


def main(argv=None) -> int:
    names = list(workloads.ROUNDS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "weingarten", "__init__.py")):
        print(f"package source not found under {SRC}", file=sys.stderr)
        return 2
    chosen = names if args.workload == "all" else [args.workload]
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in chosen:
            res = measure(workload, args.seed, args.seconds, bool(args.trace))
            print(report_line(workload, res), flush=True)
            for err in res["errors"][:10]:
                print(f"  check failed: {err}", file=sys.stderr)
            final["correct"] &= res["correct"]
            final["attempted"] += res["attempted"]
            final["failed"] += res["failed"]
            prefix = "" if len(chosen) == 1 else f"{workload}."
            for name, (value, unit) in res["metrics"].items():
                final["metrics"][prefix + name] = {"value": value, "unit": unit}
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
