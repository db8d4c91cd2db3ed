"""One round of a workload in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --config FILE --result FILE
        [--configs FILE] [--trace] [--probe]

The child imports the package, parses the workload's config and records the
moment it is ready; with ``--probe`` it stops there.  Otherwise it runs one
round (timed operations, then the checks) and writes a JSON result: ready
time, timed seconds, operations attempted and failed, check failures, peak
resident set and, with ``--trace``, the per-layer figures.  The package must
come from the ``src`` directory beside this benchmark's directory.
"""

import argparse
import contextlib
import json
import os
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--configs")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    sys.path[:0] = [src, here]
    import workloads

    workloads.parse_setup(args.workload, args.config)
    ready = time.monotonic()
    import weingarten

    if not os.path.realpath(weingarten.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"weingarten was imported from {weingarten.__file__}, not {src}", file=sys.stderr)
        return 3
    result = {"ready": ready}
    if not args.probe:
        result.update(run_round(args, workloads))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def run_round(args, workloads) -> dict:
    import resource

    with open(args.configs, encoding="utf-8") as fh:
        cfg = json.load(fh)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    timed = tracer if tracer is not None else contextlib.nullcontext()
    seconds, attempted, failed, errors = workloads.ROUNDS[args.workload](cfg, timed)
    out = {
        "wall_s": seconds,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        csv_bytes = sum(
            os.path.getsize(os.path.join(d, "fields.csv"))
            for d in cfg.get("outputs", [])
            if os.path.exists(os.path.join(d, "fields.csv"))
        )
        out["layers"] = tracer.metrics(csv_bytes)
        out["coverage"] = tracer.top_level_seconds() / seconds if seconds > 0 else 0.0
        dump = cfg.get("trace_dump")
        if dump:
            with open(dump, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
    return out


if __name__ == "__main__":
    sys.exit(main())
