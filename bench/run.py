"""kcontact benchmark: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1]

Run from the root of a source checkout; kcontact is imported from its
`src/` directory, nothing is installed.  Each workload runs in its own
single-threaded worker process (bench/worker.py) with the BLAS and
OpenMP thread counts set to 1 before numpy loads.

With `--trace 0` the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics, holding every
end-to-end metric; with `--trace 1` it holds every per-layer metric
instead.  Provenance (CPU, core count, Python, numpy and scipy versions)
is printed on the line before it.  Full results, and the spans of a
traced run, are written under `.bench_out/`.  `correct` is true when no
operation failed: none raised, exited non-zero or failed its output
check.  The exit code is 0 when the result is correct, 1 when it is not
or a worker fails, and 2 when the checkout holds no kcontact sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("membrane_simulate", "born_infeld_wave", "trace_verify",
             "pointwise_suites")
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}
# set-up is timed in this many processes per run; the median is reported
SETUPS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# a run ends within 180 s; workers get what is left of this budget
RUN_BUDGET_S = 170.0


class WorkerError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc.stdout:
        proc.stdout.close()


def start_worker(workload, seed, seconds, trace, phase, workdir, spans,
                 timeout):
    """Start a worker and wait for its READY line; return the process and
    the set-up time, process start to ready."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace), "--phase", phase, "--workdir", str(workdir)]
    if spans:
        cmd += ["--spans", str(spans)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(),
                            text=True, cwd=ROOT)
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    line = proc.stdout.readline() if ready else ""
    wall = perf_counter() - t0
    if line.strip() != "READY":
        stop(proc)
        raise WorkerError(f"{workload} worker ({phase}) did not get ready")
    return proc, wall


def finish(proc, workload, deadline):
    """Wait for a worker until the deadline; return its standard output."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise WorkerError(f"{workload} ran past {RUN_BUDGET_S:g} s")
    if proc.returncode != 0:
        raise WorkerError(f"{workload} worker exited {proc.returncode}")
    return out


def run_workload(workload, seed, seconds, trace):
    """Run one workload; return its result with every metric."""
    deadline = perf_counter() + RUN_BUDGET_S
    tag = f"{workload}-seed{seed}-trace{trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    setups = []
    try:
        # set-up alone, in fresh processes, for the median of SETUPS
        for i in range(0 if trace else SETUPS - 1):
            proc, setup_s = start_worker(
                workload, seed, seconds, trace, "setup", f"{workdir}-{i}",
                None, deadline - perf_counter())
            finish(proc, workload, deadline)
            setups.append(setup_s)
        spans = OUT / f"{tag}.spans.jsonl" if trace else None
        proc, setup_s = start_worker(workload, seed, seconds, trace, "run",
                                     workdir, spans,
                                     deadline - perf_counter())
        setups.append(setup_s)
        out = finish(proc, workload, deadline).strip()
        if not out:
            raise WorkerError(f"{workload} worker printed no result")
        result = json.loads(out.splitlines()[-1])
    finally:
        for i in range(SETUPS):
            shutil.rmtree(f"{workdir}-{i}", ignore_errors=True)
        shutil.rmtree(workdir, ignore_errors=True)

    result["setup_samples"] = setups
    if trace:
        names = result["units"]
    else:
        result["metrics"]["setup_s"] = statistics.median(setups)
        names = END_TO_END
    result["metrics"] = {name: {"value": result["metrics"][name],
                                "unit": unit}
                         for name, unit in names.items()}
    result["correct"] = result["failed"] == 0
    return result


def provenance():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy")}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=("all",) + WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "kcontact" / "__init__.py").is_file():
        sys.stderr.write(f"error: no kcontact sources under {SRC}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    prov = provenance()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace)
        except WorkerError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 1
        res = results[name]
        res["provenance"] = prov
        tag = f"{name}-seed{args.seed}-trace{args.trace}"
        (OUT / f"{tag}.json").write_text(json.dumps(res, indent=1) + "\n")
        for err in res["errors"]:
            sys.stderr.write(f"{name}: {err}\n")
        print(f"{name}: {res['attempted']} operations, {res['failed']} "
              f"failed, {len(res['walls'])} rounds of "
              f"{res['work_per_round']} {res['work_unit']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{metric}": m for w, res in results.items()
                   for metric, m in res["metrics"].items()}
    correct = all(res["correct"] for res in results.values())
    print(json.dumps({"provenance": prov}))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": sum(res["failed"] for res in results.values()),
        "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
