"""One benchmark workload in its own process; started by run.py.

    python3 bench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --phase setup|run --workdir DIR [--spans FILE]

The worker imports kcontact, builds the workload's inputs and prints
"READY": run.py times set-up from process start to that line.  With
`--phase setup` it then cleans up and exits.  With `--phase run` it
repeats whole rounds of the workload's operations until `--seconds` have
passed, checks every output, and prints one JSON result line.  With
`--trace 1` it then repeats as many rounds again with the layer wrappers
installed, and as many again without them, and reports the per-layer
metrics; the set-up is traced too, so span costs moved into set-up show.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter


def run_rounds(workload, seconds=None, count=None):
    """Repeat whole rounds.  Return each round's wall time (the time in
    its operations, checks left out) and the failed operations.

    An operation fails if it raises, a command exits non-zero, or its
    output check fails."""
    import checks

    ops = workload.ops()
    walls, failed, errors = [], 0, []
    start = perf_counter()
    while True:
        wall = 0.0
        for op in ops:
            t0 = perf_counter()
            try:
                out = op.call()
            except Exception:  # an operation failure is counted, not fatal
                wall += perf_counter() - t0
                failed += 1
                errors.append(f"{op.label}: {traceback.format_exc()}")
                continue
            wall += perf_counter() - t0
            try:
                op.check(out)
            except checks.CheckFailed as exc:
                failed += 1
                errors.append(f"{op.label}: check failed: {exc}")
        walls.append(wall)
        if count is not None:
            if len(walls) >= count:
                break
        elif perf_counter() - start >= seconds:
            break
    return {"walls": walls, "attempted": len(ops) * len(walls),
            "failed": failed, "errors": errors}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--phase", choices=("setup", "run"), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans")
    args = p.parse_args(argv)

    import kcontact
    import tracer as tracing
    import workloads

    src = Path(__file__).resolve().parents[1] / "src"
    if not Path(kcontact.__file__).resolve().is_relative_to(src):
        sys.exit(f"kcontact imported from {kcontact.__file__}, not {src}")
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.workdir, args.seed)
    if tracer is not None:
        tracer.uninstall()
    print("READY", flush=True)
    if args.phase == "setup":
        workload.cleanup()
        return 0

    result = run_rounds(workload, seconds=args.seconds)
    metrics = {"work_per_s": workload.work / statistics.median(
        result["walls"])}
    if tracer is not None:
        # the traced rounds, then as many untraced ones again: both come
        # after the process's first round, which alone pays for growing
        # the heap, so their difference is the cost of the wrappers
        rounds = len(result["walls"])
        first_round_span = len(tracer.spans)
        tracer.install()
        traced = run_rounds(workload, count=rounds)
        tracer.uninstall()
        after = run_rounds(workload, count=rounds)
        for key in ("attempted", "failed", "errors"):
            result[key] += traced[key] + after[key]
        result["traced_walls"] = traced["walls"]
        result["after_walls"] = after["walls"]
        metrics = tracer.metrics(first_round_span, rounds,
                                 workload.phase_points)
        metrics["tracing.overhead_s"] = (statistics.median(traced["walls"])
                                         - statistics.median(after["walls"]))
        result["units"] = tracing.units()
        if args.spans:
            tracer.write(args.spans, args.workload,
                         f"{args.workload}-seed{args.seed}")
    workload.cleanup()
    # ru_maxrss is in KiB on Linux
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result.update(metrics=metrics, work_unit=workload.unit,
                  work_per_round=workload.work)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
