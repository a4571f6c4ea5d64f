"""Tests of the benchmark itself: every workload at a tiny size, the
tracer, the result line and exit code of run.py, and each output check
rejecting a perturbed output.

    PYTHONPATH=src python3 -m pytest bench/tests
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import kcontact  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import run_rounds  # noqa: E402

TINY = {
    "membrane_simulate": {"n": 31, "t_end": 1.0, "output_every": 4},
    "born_infeld_wave": {"n": 64},
    "trace_verify": {"sizes": (21, 41)},
    "pointwise_suites": {"points": 3},
}


def tiny(name, tmp_path, seed=7):
    return workloads.WORKLOADS[name](tmp_path / name, seed, **TINY[name])


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_round_passes_its_checks(name, tmp_path):
    wl = tiny(name, tmp_path)
    res = run_rounds(wl, count=2)
    wl.cleanup()
    assert res["errors"] == []
    assert res["failed"] == 0
    assert res["attempted"] == 2 * len(wl.ops())
    assert wl.work > 0


def test_seed_draws_inputs(tmp_path):
    a = tiny("born_infeld_wave", tmp_path, seed=1)
    b = tiny("born_infeld_wave", tmp_path, seed=1)
    c = tiny("born_infeld_wave", tmp_path, seed=2)
    assert a.phase == b.phase != c.phase
    assert a.work == c.work
    p = tiny("pointwise_suites", tmp_path, seed=1)
    q = tiny("pointwise_suites", tmp_path, seed=2)
    assert p.cases[0].derive != q.cases[0].derive and p.work == q.work


def test_traced_round_reports_every_layer(tmp_path):
    wl = tiny("born_infeld_wave", tmp_path)
    tr = tracer.Tracer()
    tr.install()
    try:
        res = run_rounds(wl, count=1)
    finally:
        tr.uninstall()
    assert res["failed"] == 0
    m = tr.metrics(0, 1, wl.phase_points)
    assert set(m) | {"tracing.overhead_s"} == set(tracer.units())
    assert m["sim.step_calls"] == wl.steps
    # four right-hand sides per RK4 step plus the CFL sample
    assert m["jet.evaluate_jet_batch_calls"] == 4 * wl.steps + 1
    assert m["taylor.density_calls"] == m["jet.evaluate_jet_batch_calls"]
    assert m["dynamics.evolution_rhs_batch_self_s"] > 0
    assert m["sim.step_self_s"] > 0
    assert m["contact.hessian_calls"] == 0
    assert not hasattr(kcontact.sim.step, "__wrapped__")
    assert not hasattr(kcontact.evaluate_jet_batch, "__wrapped__")


def test_self_time_excludes_children():
    tr = tracer.Tracer()
    inner = tr.wrap("inner", lambda: time.sleep(0.02))

    def outer_fn():
        time.sleep(0.01)
        inner()
        inner()

    tr.wrap("outer", outer_fn)()
    st = tr.stats(0, 1)
    assert st["inner"]["calls"] == 2
    assert st["outer"]["total"] >= 0.05
    assert 0.01 <= st["outer"]["self"] < 0.03
    assert st["inner"]["self"] == pytest.approx(st["inner"]["total"])
    assert tr.spans[1][1] == 0 and tr.spans[0][1] == -1


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == tracer.units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def run_pointwise(root):
    """run.py on one short `pointwise_suites` run in the checkout `root`:
    its exit code and its result line."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pointwise_suites",
         "--seed", "3", "--seconds", "0.1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=170)
    return out.returncode, json.loads(out.stdout.strip().splitlines()[-1])


def test_run_prints_the_result_line():
    code, result = run_pointwise(ROOT)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] % 5 == 0 and result["attempted"] >= 5
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pointwise_suites",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""


# -- each check rejects a perturbed output ----------------------------------

def test_membrane_check_rejects_scaled_frame(tmp_path):
    wl = tiny("membrane_simulate", tmp_path)
    trace = workloads.damped_mode_trace(31, t_end=1.0, output_every=4)
    kcontact.save_trace(trace, wl.out)
    wl.check(None)
    scaled = trace.phi.copy()
    scaled[-1] *= 1.05
    kcontact.save_trace(dataclasses.replace(trace, phi=scaled), wl.out)
    with pytest.raises(checks.CheckFailed, match="final frame error"):
        wl.check(None)


def test_membrane_check_rejects_missing_frame(tmp_path):
    wl = tiny("membrane_simulate", tmp_path)
    trace = workloads.damped_mode_trace(31, t_end=1.0, output_every=4)
    short = dataclasses.replace(trace, t=trace.t[:-1], phi=trace.phi[:-1],
                                phidot=trace.phidot[:-1], s1=trace.s1[:-1])
    kcontact.save_trace(short, wl.out)
    with pytest.raises(checks.CheckFailed, match="frames"):
        wl.check(None)


def test_wave_check_rejects_phase_shift(tmp_path):
    wl = tiny("born_infeld_wave", tmp_path)
    trace = wl.call()
    wl.check(trace)
    # 0.5 h^2 allows a phase error of about h^2 rad
    shifted = checks.travelling_wave(wl.x, wl.t_end, wl.amplitude,
                                     wl.phase + 2 * wl.h ** 2)
    with pytest.raises(checks.CheckFailed, match="wave error"):
        checks.check_travelling_wave(wl.x, shifted, trace.s1[-1],
                                     wl.t_end, wl.t_end, wl.amplitude,
                                     wl.phase, wl.h)
    with pytest.raises(checks.CheckFailed, match="s1"):
        checks.check_travelling_wave(wl.x, trace.phi[-1, 0],
                                     trace.s1[-1] + 10 * wl.h ** 2,
                                     wl.t_end, wl.t_end, wl.amplitude,
                                     wl.phase, wl.h)


def test_wave_tolerance_follows_h_squared(tmp_path):
    errs = []
    for n in (64, 128):
        wl = workloads.BornInfeldWave(tmp_path / str(n), 7, n=n)
        trace = wl.call()
        errs.append(checks.check_travelling_wave(
            wl.x, trace.phi[-1, 0], trace.s1[-1], float(trace.t[-1]),
            wl.t_end, wl.amplitude, wl.phase, wl.h)[0])
    assert checks.REFINEMENT_BAND[0] <= errs[0] / errs[1] \
        <= checks.REFINEMENT_BAND[1]


def test_refinement_check_rejects_first_order():
    report = {"pass": True, "suites": [
        {"suite": "dissipation", "pass": True, "refinement_ratio": 3.9},
        {"suite": "hdw", "pass": True, "refinement_ratio": 4.0}]}
    checks.check_refinement_report(report)
    report["suites"][1]["refinement_ratio"] = 2.0
    with pytest.raises(checks.CheckFailed, match="hdw"):
        checks.check_refinement_report(report)


def test_derive_check_rejects_wrong_momentum(tmp_path):
    wl = tiny("pointwise_suites", tmp_path)
    for case in wl.cases:
        report = workloads.run_cli_json(case.derive)
        case.check_derive(report)
        report["points"][-1]["p"][0][0] += 1e-6
        with pytest.raises(checks.CheckFailed, match="p off"):
            case.check_derive(report)


def test_derive_check_rejects_wrong_energy_and_hessian(tmp_path):
    wl = tiny("pointwise_suites", tmp_path)
    case = wl.cases[1]
    report = workloads.run_cli_json(case.derive)
    report["points"][0]["energy"] *= 1 + 1e-6
    with pytest.raises(checks.CheckFailed, match="energy"):
        case.check_derive(report)
    report = workloads.run_cli_json(case.derive)
    report["points"][0]["W"][1][1] = -1.0
    with pytest.raises(checks.CheckFailed, match="W off"):
        case.check_derive(report)


def test_verify_and_inverse_checks_reject_failures(tmp_path):
    wl = tiny("pointwise_suites", tmp_path)
    report = workloads.run_cli_json(wl.cases[0].verify)
    wl.check_verify(report)
    report["suites"][1]["pass"] = False
    with pytest.raises(checks.CheckFailed, match="legendre"):
        wl.check_verify(report)
    report = workloads.run_cli_json(wl.inverse)
    checks.check_inverse_report(report, 2)
    report["roundtrip_residual"] = 1e-6
    with pytest.raises(checks.CheckFailed, match="roundtrip"):
        checks.check_inverse_report(report, 2)


def test_failing_operations_count_as_failed(tmp_path):
    wl = tiny("pointwise_suites", tmp_path)
    case = wl.cases[0]
    # a usage error exits 2; a suite that misses its tolerance exits 3
    bad = [workloads.Op("bad", lambda: workloads.run_cli(
               ["derive", "--model", "nope"]), lambda out: None),
           workloads.Op("strict verify", lambda: workloads.run_cli_json(
               case.verify + ["--tol", "-1"]), wl.check_verify),
           workloads.Op("wrong derive", lambda: workloads.run_cli_json(
               wl.cases[1].derive), case.check_derive)]
    wl.ops = lambda: bad
    res = run_rounds(wl, count=2)
    assert res["attempted"] == 6 and res["failed"] == 6
    assert "exited with 3" in res["errors"][1]
    assert "check failed" in res["errors"][2]


def test_run_is_incorrect_when_a_suite_fails(tmp_path):
    # a checkout whose `verify` reports a failing suite: exit code 3
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "kcontact" / "cli.py", "a") as fh:
        fh.write("\n_main = main\n\n\n"
                 "def main(argv=None):\n"
                 "    code = _main(argv)\n"
                 "    return 3 if argv and argv[0] == 'verify' else code\n")
    code, result = run_pointwise(tmp_path)
    assert code == 1
    assert result["correct"] is False
    # two of the five operations of a round are verify commands
    assert result["failed"] * 5 == 2 * result["attempted"]


def test_damped_mode_trace_solves_the_membrane():
    trace = workloads.damped_mode_trace(41, t_end=1.0, output_every=1)
    assert np.all(trace.s1[0] == 0.0)
    assert math.isclose(trace.t[-1], trace.dt * (trace.t.size - 1))
    # ds1/dt = L and u_t = phidot, to the O(dt^2) of central differences
    axis = np.linspace(0.0, math.pi, 41)
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    a = checks.membrane_amplitude(trace.t)[:, None, None]
    L = (0.5 * trace.phidot[:, 0] ** 2
         - 0.5 * checks.MU ** 2 * a ** 2 * (np.cos(X) ** 2 * np.sin(Y) ** 2
                                            + np.sin(X) ** 2 * np.cos(Y) ** 2)
         - checks.GAMMA * trace.s1)
    ds1 = np.gradient(trace.s1, trace.t, axis=0)
    assert np.max(np.abs(ds1 - L)[1:-1]) <= 1e-3
    du = np.gradient(trace.phi, trace.t, axis=0)
    assert np.max(np.abs(du - trace.phidot)[1:-1]) <= 1e-3
    model = kcontact.membrane(mu=checks.MU, gamma=checks.GAMMA)
    rEL, _ = kcontact.trace_el_residual(model, trace)
    assert rEL <= 1e-2
