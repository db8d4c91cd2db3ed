"""Repeat the benchmark over seeds and summarise the spread.

    python3 perfbench/repeat.py --workload NAME --seeds 1-10 [--seconds 30] [--trace 0|1]
        [--save FILE]
    python3 perfbench/repeat.py --compare FIRST.json SECOND.json

Each seed is one run of ``run.py`` in its own process.  For every metric the
summary gives the median, the quartiles from ``statistics.quantiles(n=4)``
and the distance between the quartiles as a share of the median.
``--compare`` prints how far the second set's medians moved from the first's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / abs(med) if med else 0.0, "n": len(values)}


def repeat(args) -> dict:
    runs = []
    for seed in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(proc.stdout.strip().splitlines()[0], flush=True)
    names = runs[0]["metrics"]
    return {
        "workload": args.workload,
        "runs": runs,
        "failed_share": [r["failed"] / r["attempted"] for r in runs],
        "correct": all(r["correct"] for r in runs),
        "summary": {n: summary([r["metrics"][n]["value"] for r in runs]) for n in names},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--save")
    parser.add_argument("--compare", nargs=2)
    args = parser.parse_args()
    if args.compare:
        with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
            a, b = json.load(fa), json.load(fb)
        for name, sa in a["summary"].items():
            sb = b["summary"][name]
            print(f"{a['workload']} {name}: {sa['median']:.6g} -> {sb['median']:.6g} "
                  f"({(sb['median'] - sa['median']) / abs(sa['median']):+.2%}), "
                  f"IQR share {sa['iqr_share']:.2%} / {sb['iqr_share']:.2%}")
        return 0
    out = repeat(args)
    for name, s in out["summary"].items():
        print(f"{args.workload} {name}: median {s['median']:.6g}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  IQR share {s['iqr_share']:.2%}  n {s['n']}")
    print(f"correct {out['correct']}, failed shares {sorted(set(out['failed_share']))}")
    if args.save:
        os.makedirs(os.path.dirname(os.path.abspath(args.save)), exist_ok=True)
        with open(args.save, "w") as fh:
            json.dump(out, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
