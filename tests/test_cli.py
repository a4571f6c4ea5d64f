"""CLI contract: exit codes, report schemas, determinism."""

import json
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import kcontact
from kcontact import cli, contact, jet, sim
from kcontact.cli import (REFINEMENT_BAND, build_parser, main, parse_grid,
                          parse_points)
from kcontact.errors import ConfigError
from kcontact.models import MODEL_NAMES, MODEL_PARAMS, MODELS, build_model
from kcontact.sim import run, step
from kcontact.jet import LagrangianModel
from conftest import assert_reaped, cubic
from test_sim import growing_speed


def load_schema(name):
    ref = resources.files("kcontact") / "schemas" / name
    return json.loads(ref.read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def report_of(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def count_calls(monkeypatch, module, name):
    """Patch `module.name` with a wrapper that records one entry per
    call; returns the record."""
    original, calls = getattr(module, name), []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def count_jets(monkeypatch):
    """Patch every module binding of `evaluate_jet_batch` with a wrapper
    that records one entry per call; returns the record."""
    original, calls = jet.evaluate_jet_batch, []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if (name.startswith("kcontact.")
                and getattr(mod, "evaluate_jet_batch", None) is original):
            monkeypatch.setattr(mod, "evaluate_jet_batch", counting)
    return calls


class TestDerive:
    def test_membrane_reference_point(self, capsys):
        code, rep = report_of(
            capsys, "derive", "--model", "membrane", "--mu", "2",
            "--gamma", "0.5", "--point", "q=0.5;v=1,2,-1;s=0.1,0,0")
        assert code == 0
        pt = rep["points"][0]
        assert pt["energy"] == pytest.approx(-9.45)
        assert np.allclose(pt["p"], [[1.0, -8.0, 4.0]])
        assert pt["regular"] is True
        jsonschema.validate(rep, load_schema("derive_report.schema.json"))

    def test_free_at_rest(self, capsys):
        code, rep = report_of(capsys, "derive", "--model", "free",
                              "--k", "2", "--n", "1",
                              "--point", "q=0;v=0,0;s=0,0")
        assert code == 0
        pt = rep["points"][0]
        assert pt["energy"] == 0.0
        assert np.all(np.asarray(pt["p"]) == 0.0)

    def test_inverse_model_renders_lagrangian(self, capsys, tmp_path):
        spec = tmp_path / "telegraph.json"
        spec.write_text(json.dumps({
            "A": [[1.0, 0.0], [0.0, -1.0]], "D": [0.0, 0.4],
            "G": {"poly": [0.0, 0.25]}}))
        code, rep = report_of(capsys, "derive", "--model", "inverse",
                              "--spec", str(spec))
        assert code == 0
        assert "u_t*u_t" in rep["lagrangian"]
        assert "s_x" in rep["lagrangian"]

    def test_inverse_spec_read_once(self, capsys, tmp_path, monkeypatch):
        # the spec that builds the model also renders the Lagrangian
        spec = tmp_path / "telegraph.json"
        spec.write_text(json.dumps({
            "A": [[1.0, 0.0], [0.0, -1.0]], "D": [0.0, 0.4],
            "G": {"poly": [0.0, 0.25]}}))
        reads, original = [], cli._load_config

        def counting(path):
            reads.append(path)
            return original(path)

        monkeypatch.setattr(cli, "_load_config", counting)
        code, rep = report_of(capsys, "derive", "--model", "inverse",
                              "--spec", str(spec), "--num-points", "3")
        assert code == 0 and "u_t*u_t" in rep["lagrangian"]
        assert reads == [str(spec)]

    def test_irregular_point_reported_not_fatal(self, capsys, tmp_path):
        spec = tmp_path / "odd.json"
        # G makes no difference; A invertible so build succeeds, then
        # feed a parabolic A through a fresh spec to hit exit 2 instead
        spec.write_text(json.dumps({"A": [[1.0, 1.0], [1.0, 1.0]],
                                    "D": [0.0, 0.0]}))
        code, _ = run_cli(capsys, "derive", "--model", "inverse",
                          "--spec", str(spec))
        assert code == 2

    @pytest.mark.parametrize("argv, jets", [
        (("--model", "string", "--num-points", "100"), 1),
        (("--model", "string", "--rho", "0"), 1),
        # the cubic density, at regular and singular points
        (("--model", "free", "--point", "v=1,2", "--point", "v=0,1",
          "--point", "v=-1,0.5"), 2)])
    def test_jets_evaluated(self, capsys, monkeypatch, argv, jets):
        """One jet serves every quantity of the report; where some point
        is singular, the Reeb and SOPDE data take a second jet at the
        regular points."""
        if "--point" in argv:
            monkeypatch.setattr(cli, "build_model", lambda name, params: (
                LagrangianModel(n=1, k=2, name="cubic", lagrangian=cubic)))
        calls = count_jets(monkeypatch)
        code, _ = run_cli(capsys, "derive", *argv)
        assert code == 0
        assert len(calls) == jets

    def test_one_reeb_solve(self, capsys, monkeypatch):
        # the Reeb fields solved for the report also give R_a(E) and
        # the Reeb relations
        solves = count_calls(monkeypatch, contact, "solve_batch")
        code, _ = run_cli(capsys, "derive", "--model", "string",
                          "--num-points", "100")
        assert code == 0
        assert len(solves) == 1

    def test_overflowing_point_writes_one_error_line(self):
        # a warning printed by numpy would come before the error line;
        # run apart from pytest, which captures warnings itself
        src = str(Path(kcontact.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "kcontact.cli", "derive", "--model",
             "membrane", "--point", "v=1e300,0,0"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: non-finite entries in jet block L"]

    def test_unknown_model_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["derive", "--model", "bogus"])
        assert err.value.code == 2
        capsys.readouterr()

    def test_bad_point_exits_2(self, capsys):
        code, _ = run_cli(capsys, "derive", "--model", "membrane",
                          "--point", "q=0.5;w=1")
        assert code == 2
        # two velocity entries where the membrane has three
        code, _ = run_cli(capsys, "derive", "--model", "membrane",
                          "--point", "v=1,2")
        assert code == 2


class TestSimulate:
    def test_run_writes_trace_and_manifest(self, capsys, tmp_path,
                                           writers):
        out = tmp_path / "run"
        code, _ = run_cli(capsys, "simulate", "--model", "membrane",
                          "--mu", "1", "--gamma", "0.2",
                          "--grid", "0,pi,17;0,pi,17", "--dt", "0.05",
                          "--t-end", "0.5", "--output-every", "2",
                          "--output", str(out))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        jsonschema.validate(manifest, load_schema("manifest.schema.json"))
        assert manifest["max_el_residual"] < 1.0
        assert "du" in manifest["dissipated_quantity_residuals"]
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == "t,x1,x2,phi0,phidot0,s1"
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "trace.csv", "trace.npz"]
        assert [p.returncode for p in writers] == [0]
        assert_reaped(writers)

    def test_zero_dt_exits_3(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "simulate", "--model", "membrane",
                          "--grid", "0,pi,17;0,pi,17", "--dt", "0",
                          "--output", str(tmp_path / "x"))
        assert code == 3

    def test_too_few_frames_exits_3(self, capsys, tmp_path):
        # three frames leave no interior for the manifest residuals or
        # a trace suite to report on
        out = tmp_path / "x"
        code = main(["simulate", "--model", "membrane",
                     "--grid", "0,pi,17;0,pi,17", "--dt", "0.05",
                     "--t-end", "0.1", "--output", str(out)])
        assert code == 3
        assert "at least 5 frames" in capsys.readouterr().err
        for suite in ("dissipation", "hdw"):
            code, _ = run_cli(capsys, "verify", "--suite", suite,
                              "--trace", str(out))
            assert code == 3

    def test_cfl_violation_exits_3(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "simulate", "--model", "membrane",
                          "--mu", "2", "--grid", "0,pi,17;0,pi,17",
                          "--dt", "0.5", "--output", str(tmp_path / "x"))
        assert code == 3

    def test_singular_time_block_exits_3(self, capsys, tmp_path):
        # L built from u_tx alone is hyperbolic, but its time-time
        # velocity Hessian block vanishes
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"A": [[0, 1], [1, 0]], "D": [0, 0]}))
        code = main(["simulate", "--model", "inverse", "--spec", str(spec),
                     "--grid", "0,1,16", "--dt", "0.01", "--t-end", "0.05",
                     "--output", str(tmp_path / "x")])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: not hyperbolic-evolvable in direction t\n")

    def test_grid_dimension_mismatch(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "simulate", "--model", "membrane",
                          "--grid", "0,pi,17", "--dt", "0.01",
                          "--output", str(tmp_path / "x"))
        assert code == 2

    def test_grid_dimension_checked_by_run(self, capsys, tmp_path,
                                           monkeypatch):
        # the library's check, reached through the CLI: a k=1 model
        # takes no spatial grid; nothing is left in the output
        calls = []
        monkeypatch.setattr(cli, "run", lambda *a, **kw: (
            calls.append(1), run(*a, **kw))[1])
        code = main(["simulate", "--model", "oscillator",
                     "--grid", "0,1,16", "--dt", "0.01",
                     "--output", str(tmp_path / "x")])
        assert code == 2 and calls == [1]
        assert capsys.readouterr().err == (
            "error: model has 0 spatial directions, grid has 1\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("where", ["under-a-file", "a-file"])
    def test_bad_output_fails_before_any_step(self, capsys, tmp_path,
                                              monkeypatch, where):
        (tmp_path / "file").write_text("x")
        out = tmp_path / "file" / ("run" if where == "under-a-file" else "")
        monkeypatch.setattr(sim, "step", None)  # no step may run
        code = main(["simulate", "--model", "membrane",
                     "--grid", "0,pi,17;0,pi,17", "--dt", "0.05",
                     "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write a trace to {out}: ")
        assert "Traceback" not in err
        assert (tmp_path / "file").read_text() == "x"

    def test_cfl_violation_mid_run_leaves_no_trace(self, capsys, tmp_path,
                                                   monkeypatch, writers):
        # the growing wave speed passes the CFL limit at step 18, after
        # four frames went to the writer
        model, grid, init = growing_speed()
        monkeypatch.setattr(cli, "_model_from_args", lambda args: model)
        monkeypatch.setattr(cli, "_initial_state", lambda *args: init)
        code = main(["simulate", "--grid", "0,2*pi,16", "--bc", "periodic",
                     "--dt", repr(0.2 * grid.spacing[0]), "--t-end", "5",
                     "--output-every", "4", "--output", str(tmp_path / "x")])
        assert code == 3
        assert "CFL violation" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
        assert len(writers) == 1 and writers[0].returncode is not None
        assert_reaped(writers)

    def test_killed_writer_exits_2(self, capsys, tmp_path, monkeypatch,
                                   writers):
        def killing_step(*args, **kwargs):
            if args[1].t > 0.2 and writers[0].returncode is None:
                writers[0].kill()
            return step(*args, **kwargs)

        monkeypatch.setattr(sim, "step", killing_step)
        (tmp_path / "x").mkdir()
        code = main(["simulate", "--model", "membrane",
                     "--grid", "0,pi,17;0,pi,17", "--dt", "0.05",
                     "--t-end", "0.5", "--output", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the trace.csv writer for ")
        assert "Traceback" not in err
        assert list((tmp_path / "x").iterdir()) == []
        assert_reaped(writers)


@pytest.fixture(scope="module")
def membrane_trace_pair(tmp_path_factory):
    """Coarse and refined membrane traces written by `simulate`."""
    root = tmp_path_factory.mktemp("traces")
    paths = []
    for N, dt in ((17, 0.05), (33, 0.025)):
        paths.append(str(root / f"run{N}"))
        assert main(["simulate", "--model", "membrane", "--mu", "1",
                     "--gamma", "0.2", "--grid", f"0,pi,{N};0,pi,{N}",
                     "--dt", str(dt), "--t-end", "2.0",
                     "--output-every", "4", "--output", paths[-1]]) == 0
    return paths


def rewrite_manifest(change):
    def corrupt(path):
        manifest = json.loads((path / "manifest.json").read_text())
        change(manifest)
        (path / "manifest.json").write_text(json.dumps(manifest))
    return corrupt


def rewrite_arrays(change):
    def corrupt(path):
        with np.load(path / "trace.npz") as npz:
            arrays = dict(npz)
        change(arrays)
        np.savez(path / "trace.npz", **arrays)
    return corrupt


def truncate(name, size):
    def corrupt(path):
        data = (path / name).read_bytes()
        (path / name).write_bytes(data[:-size])
    return corrupt


def save_npy(path):
    with open(path / "trace.npz", "wb") as fh:
        np.save(fh, np.zeros(3))


# damage done to a trace directory, and the file the error must name
HOSTILE_TRACES = {
    "manifest-not-json": (truncate("manifest.json", 20), "manifest.json"),
    "manifest-lacks-key": (rewrite_manifest(lambda m: m.pop("frames")),
                           "manifest.json"),
    "manifest-wrong-kind": (rewrite_manifest(lambda m: m.update(kind="x")),
                            "manifest.json"),
    "manifest-text-bounds": (
        rewrite_manifest(lambda m: m["grid"].update(bounds=[["a", "b"]] * 2)),
        "manifest.json"),
    "manifest-wrong-schema": (
        rewrite_manifest(lambda m: m.update(schema_version=2)),
        "manifest.json"),
    "npz-missing": (lambda path: (path / "trace.npz").unlink(), "trace.npz"),
    "npz-not-zip": (save_npy, "trace.npz"),
    "npz-truncated": (truncate("trace.npz", 200), "trace.npz"),
    "npz-lacks-key": (rewrite_arrays(lambda a: a.pop("s1")), "trace.npz"),
    "npz-object-array": (
        rewrite_arrays(lambda a: a.update(t=a["t"].astype(object))),
        "trace.npz"),
    "npz-wrong-shape": (
        rewrite_arrays(lambda a: a.update(phi=a["phi"][:-1])), "trace.npz"),
    "npz-wrong-dtype": (
        rewrite_arrays(lambda a: a.update(s1=a["s1"].astype(np.float32))),
        "trace.npz"),
}


class TestVerify:
    def test_reeb_suite_passes(self, capsys):
        code, rep = report_of(capsys, "verify", "--suite", "reeb",
                              "--model", "free", "--seed", "7")
        assert code == 0
        assert rep["suites"][0]["residual"] == 0.0
        jsonschema.validate(rep, load_schema("verify_report.schema.json"))

    def test_multiple_suites(self, capsys):
        code, rep = report_of(capsys, "verify", "--suite", "legendre",
                              "--suite", "sopde", "--model", "membrane",
                              "--seed", "3")
        assert code == 0
        assert [s["suite"] for s in rep["suites"]] == ["legendre", "sopde"]

    def test_symmetry_failure_exits_3(self, capsys):
        code, rep = report_of(capsys, "verify", "--suite", "symmetry",
                              "--model", "membrane", "--field", "scaling")
        assert code == 3
        assert rep["pass"] is False

    def test_symmetry_suite_uses_given_tolerance(self, capsys):
        # u d/du misses the default 1e-9 by a residual of order one
        code, rep = report_of(capsys, "verify", "--suite", "symmetry",
                              "--model", "membrane", "--field", "scaling",
                              "--tol", "10")
        assert code == 0
        assert rep["suites"][0]["max_residual"] > 1e-3

    def test_paperY_reported_not_asserted(self, capsys):
        code, rep = report_of(capsys, "verify", "--suite", "symmetry",
                              "--model", "string", "--B", "1",
                              "--lam", "0.1", "--gamma", "0.3",
                              "--field", "paperY")
        assert code == 0
        assert rep["suites"][0]["asserted"] is False
        assert "max_residual" in rep["suites"][0]

    @pytest.mark.parametrize("field", ["nope", "paperY"],
                             ids=["unknown", "two-field-on-one-field"])
    def test_bad_symmetry_field_exits_2(self, capsys, field):
        code = main(["verify", "--suite", "symmetry", "--model",
                     "membrane", "--field", field])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("suite", ["symmetry", "dissipation"])
    def test_field_and_symmetry_disagree_exits_2(self, capsys, suite,
                                                 membrane_trace_pair):
        code = main(["verify", "--suite", suite, "--model", "membrane",
                     "--trace", membrane_trace_pair[0], "--field", "du",
                     "--symmetry", "scaling"])
        assert code == 2
        assert "name different fields" in capsys.readouterr().err

    def test_point_suite_jets_independent_of_point_count(self, capsys,
                                                         monkeypatch):
        calls = count_jets(monkeypatch)
        counts = []
        for num in ("10", "100"):
            calls.clear()
            code, _ = run_cli(capsys, "verify", "--suite", "reeb", "--suite",
                              "legendre", "--suite", "sopde", "--model",
                              "string", "--lam", "0.5", "--gamma", "0.3",
                              "--B", "1", "--num-points", num)
            assert code == 0
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("suite", ["reeb", "sopde", "symmetry"])
    def test_point_suite_evaluates_one_jet(self, capsys, monkeypatch,
                                           suite):
        calls = count_jets(monkeypatch)
        code, _ = run_cli(capsys, "verify", "--suite", suite, "--model",
                          "string", "--lam", "0.5", "--B", "1",
                          "--field", "paperY", "--num-points", "50")
        assert code == 0
        assert len(calls) == 1

    def test_point_suites_share_one_model_draw_and_jet(self, capsys,
                                                       monkeypatch):
        counts = [count_calls(monkeypatch, cli, name) for name in (
            "_model_from_args", "random_phase_point", "evaluate_jet")]
        code, _ = run_cli(capsys, "verify", "--suite", "reeb", "--suite",
                          "legendre", "--suite", "sopde", "--suite",
                          "symmetry", "--model", "string", "--lam", "0.5",
                          "--B", "1", "--field", "paperY",
                          "--num-points", "50")
        assert code == 0
        assert [len(calls) for calls in counts] == [1, 1, 1]

    def test_bad_dissipation_field_exits_2(self, capsys,
                                           membrane_trace_pair):
        code = main(["verify", "--suite", "dissipation", "--symmetry",
                     "nope", "--trace", membrane_trace_pair[0]])
        assert code == 2
        assert "unknown symmetry field 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["reeb", "legendre", "sopde",
                                       "symmetry", "inverse-roundtrip"])
    def test_no_sample_points_exits_2(self, capsys, suite):
        # with no points a suite would pass on an empty maximum
        code, out = run_cli(capsys, "verify", "--suite", suite, "--model",
                            "membrane", "--num-points", "0")
        assert code == 2 and out == ""

    def test_missing_trace_exits_2(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "verify", "--suite", "dissipation",
                          "--trace", str(tmp_path / "nope"))
        assert code == 2

    @pytest.mark.parametrize("case", HOSTILE_TRACES)
    def test_hostile_trace_exits_2(self, capsys, tmp_path, case,
                                   membrane_trace_pair):
        corrupt, name = HOSTILE_TRACES[case]
        path = tmp_path / "trace"
        shutil.copytree(membrane_trace_pair[0], path)
        corrupt(path)
        code = main(["verify", "--suite", "dissipation", "--trace",
                     str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and name in err
        if case == "npz-missing":
            assert "simulate" in err

    def test_trace_csv_is_not_read(self, capsys, tmp_path,
                                   membrane_trace_pair):
        # the same report from the trace pair with its CSV exports deleted
        argv = ["verify", "--suite", "dissipation", "--suite", "hdw"]
        copies = []
        for path in membrane_trace_pair:
            copies.append(tmp_path / Path(path).name)
            shutil.copytree(path, copies[-1])
            (copies[-1] / "trace.csv").unlink()
        reports = []
        for paths in (membrane_trace_pair, copies):
            code, rep = report_of(capsys, *argv, *[
                arg for path in paths for arg in ("--trace", str(path))])
            assert code == 0
            del rep["timestamp"]
            reports.append(rep)
        assert reports[0] == reports[1]

    def test_dissipation_ratio_from_trace_pair(self, capsys,
                                               membrane_trace_pair):
        coarse, fine = membrane_trace_pair
        code, rep = report_of(capsys, "verify", "--suite", "dissipation",
                              "--trace", coarse, "--trace", fine,
                              "--symmetry", "du")
        assert code == 0
        lo, hi = REFINEMENT_BAND
        assert lo <= rep["suites"][0]["refinement_ratio"] <= hi

    def test_refinement_judged_per_consecutive_pair(self, capsys,
                                                    tmp_path):
        # three halvings of h: each pair's ratio is ~4, while the first
        # residual over the last is ~16
        paths = []
        for N in (21, 41, 81):
            paths += ["--trace", str(tmp_path / f"run{N}")]
            assert main(["simulate", "--model", "membrane", "--mu", "1",
                         "--gamma", "0.2", "--grid", f"0,pi,{N};0,pi,{N}",
                         "--dt", repr(0.4 * np.pi / (N - 1)),
                         "--t-end", "5", "--output-every", "8",
                         "--output", paths[-1]]) == 0
        capsys.readouterr()
        code, rep = report_of(capsys, "verify", "--suite", "dissipation",
                              "--suite", "hdw", *paths)
        assert code == 0
        jsonschema.validate(rep, load_schema("verify_report.schema.json"))
        lo, hi = REFINEMENT_BAND
        for suite in rep["suites"]:
            assert "refinement_ratio" not in suite
            ratios = suite["refinement_ratios"]
            assert len(ratios) == 2
            assert all(lo <= r <= hi for r in ratios)
            first, *_, last = suite["residuals"]
            assert first / last > hi

    def test_singular_lagrangian_trace_exits_3(self, capsys, tmp_path):
        # the string's tau = 1e-12 makes W singular by RANK_TOL; its
        # time-time block is rho, so the run itself is fine
        out = tmp_path / "string"
        assert main(["simulate", "--model", "string", "--tau", "1e-12",
                     "--grid", "0,pi,33", "--dt", "0.02", "--t-end", "1",
                     "--output-every", "2", "--output", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dissipated_quantity_residuals"] == {"du": None}
        capsys.readouterr()
        for argv in (("--model", "string", "--tau", "1e-12", "--suite",
                      "reeb"),
                     ("--trace", str(out), "--suite", "dissipation")):
            code = main(["verify", *argv])
            captured = capsys.readouterr()
            assert code == 3 and captured.out == ""
            assert captured.err == "error: Lagrangian not regular\n"

    def test_trace_suites_read_each_trace_once(self, capsys, monkeypatch,
                                               membrane_trace_pair):
        coarse, fine = membrane_trace_pair
        load_trace, calls = cli.load_trace, []

        def counting_load_trace(path):
            calls.append(path)
            return load_trace(path)

        monkeypatch.setattr(cli, "load_trace", counting_load_trace)
        code, rep = report_of(capsys, "verify", "--suite", "dissipation",
                              "--suite", "hdw", "--trace", coarse,
                              "--trace", fine)
        assert code == 0
        assert [s["suite"] for s in rep["suites"]] == ["dissipation", "hdw"]
        assert calls == [coarse, fine]

    def test_trace_suites_evaluate_two_jets_per_trace(
            self, capsys, monkeypatch, membrane_trace_pair):
        # dissipation: one jet for F and R_a(E); hdw: one for the
        # momenta, which also starts Newton (v0 is the preimage) and
        # gives the residuals their Hamiltonian derivatives
        calls = count_jets(monkeypatch)
        code, _ = report_of(capsys, "verify", "--suite", "dissipation",
                            "--suite", "hdw", "--trace",
                            membrane_trace_pair[0], "--trace",
                            membrane_trace_pair[1])
        assert code == 0
        assert len(calls) == 2 * 2

    def test_inverse_roundtrip_suite(self, capsys):
        code, rep = report_of(capsys, "verify", "--suite",
                              "inverse-roundtrip", "--mu", "1.0",
                              "--gamma", "0.2", "--num-points", "20")
        assert code == 0
        assert rep["suites"][0]["residual"] <= 1e-9


class TestInverse:
    def test_report(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"A": [[1.0, 0.0], [0.0, -1.0]],
                                    "D": [0.0, 0.4]}))
        code, rep = report_of(capsys, "inverse", "--spec", str(spec),
                              "--num-points", "20")
        assert code == 0
        assert rep["pass"] is True
        jsonschema.validate(rep, load_schema("inverse_report.schema.json"))

    def test_no_sample_points_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"A": [[1.0, 0.0], [0.0, -1.0]],
                                    "D": [0.0, 0.4]}))
        code, out = run_cli(capsys, "inverse", "--spec", str(spec),
                            "--num-points", "0")
        assert code == 2 and out == ""

    def test_parabolic_spec_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"A": [[1.0, 1.0], [1.0, 1.0]],
                                    "D": [0.0, 0.0]}))
        code, _ = run_cli(capsys, "inverse", "--spec", str(spec))
        assert code == 2


class TestConfigAndDeterminism:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "membrane", "mu": 2.0,
                                   "gamma": 0.5,
                                   "point": ["q=0.5;v=1,2,-1;s=0.1,0,0"]}))
        code, rep = report_of(capsys, "derive", "--config", str(cfg))
        assert code == 0
        assert rep["points"][0]["energy"] == pytest.approx(-9.45)
        # flag overrides the config value
        code, rep = report_of(capsys, "derive", "--config", str(cfg),
                              "--gamma", "0.0")
        assert rep["params"]["gamma"] == 0.0

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "free", "banana": 1}))
        code, _ = run_cli(capsys, "derive", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize("command", ["derive", "simulate", "verify",
                                         "inverse"])
    @pytest.mark.parametrize("key", ["banana", "grid", "point"])
    def test_key_of_no_option_of_the_command_exits_2(self, capsys, tmp_path,
                                                     command, key):
        # "grid" and "point" are options of one other subcommand each,
        # whose options `main` does not build
        if key == {"simulate": "grid", "derive": "point"}.get(command):
            key = "banana"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == \
            f"error: unknown config keys: ['{key}']\n"

    def test_config_key_of_no_option_exits_2(self, capsys, tmp_path):
        # the parser's own attributes are not options of the subcommand
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cmd": "simulate", "func": 3,
                                   "model": "free"}))
        code, out = run_cli(capsys, "derive", "--config", str(cfg))
        assert code == 2 and out == ""

    def test_mistyped_config_value_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"num_points": "5"}))
        code, _ = run_cli(capsys, "verify", "--suite", "reeb", "--model",
                          "membrane", "--config", str(cfg))
        assert code == 2

    def test_mistyped_simulate_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dt": "fast"}))
        code, _ = run_cli(capsys, "simulate", "--model", "string",
                          "--grid", "0,pi,17", "--output",
                          str(tmp_path / "run"), "--config", str(cfg))
        assert code == 2
        assert not (tmp_path / "run").exists()

    def test_reports_are_deterministic(self, capsys):
        argv = ("verify", "--suite", "reeb", "--suite", "sopde",
                "--model", "string", "--seed", "11")
        _, rep1 = report_of(capsys, *argv)
        _, rep2 = report_of(capsys, *argv)
        rep1.pop("timestamp"), rep2.pop("timestamp")
        assert json.dumps(rep1, sort_keys=True) == \
            json.dumps(rep2, sort_keys=True)


def parse_outcome(capsys, call, argv):
    """(exit code, stdout, stderr) of `call(argv)`."""
    try:
        code = call(list(argv))
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


class TestSubcommandParser:
    """`main` gives options only to the subcommand that runs, and every
    help and error text is that of the fully built parser."""

    @pytest.mark.parametrize("argv", [
        ["derive", "--help"], ["simulate", "--help"], ["verify", "-h"],
        ["inverse", "--help"], [], ["-h"], ["--help"], ["derivee"],
        ["derive", "--bogus"], ["-x", "verify"], ["verify", "--suite", "x"],
        ["inverse", "--tol", "x"], ["simulate", "--grid"], ["--", "derive"]])
    def test_texts_are_the_full_parsers(self, capsys, argv):
        full = parse_outcome(capsys, build_parser().parse_args, argv)
        assert full[0] == (0 if {"-h", "--help"} & set(argv) else 2)
        assert parse_outcome(capsys, main, argv) == full

    @pytest.mark.parametrize("command", ["derive", "simulate", "verify",
                                         "inverse"])
    def test_only_the_running_subcommand_has_options(self, capsys,
                                                     monkeypatch, command):
        parsers = []

        def recording(*args):
            parsers.append(build_parser(*args))
            return parsers[-1]

        monkeypatch.setattr(cli, "build_parser", recording)
        assert main([command]) == 2
        capsys.readouterr()
        commands = next(action for action in parsers[0]._actions
                        if action.dest == "cmd")
        options = {name: len(sub._actions) > 1
                   for name, sub in commands.choices.items()}
        assert options == {name: name == command for name in options}


class TestParsers:
    def test_point_parser(self):
        z = parse_points(["q=0.5;v=1,2,-1;s=0.1,0,0"], 1, 3)
        assert z.q[0, 0] == 0.5
        assert np.allclose(z.v[..., 0], [[1.0, 2.0, -1.0]])
        assert z.s[0, 0] == 0.1

    def test_point_defaults_to_zero(self):
        z = parse_points(["v=1,0"], 1, 2)
        assert np.all(z.q == 0.0) and np.all(z.s == 0.0)

    def test_grid_parser_accepts_pi(self):
        grid = parse_grid("0,pi,17;0,2*pi,9", "dirichlet")
        assert grid.bounds[0][1] == pytest.approx(np.pi)
        assert grid.bounds[1][1] == pytest.approx(2 * np.pi)
        assert grid.counts == (17, 9)

    def test_bad_grid_chunk(self):
        with pytest.raises(ConfigError):
            parse_grid("0,pi", "dirichlet")


# PDE specs that are not a spec: each is refused with exit 2
SPEC_A = [[1.0, 0.0], [0.0, -1.0]]
HOSTILE_SPECS = {
    "no-A": {"D": [0.0, 0.4]},
    "text-A": {"A": "abc", "D": [0.0, 0.4]},
    "null-in-A": {"A": [[1.0, None], [None, -1.0]], "D": [0.0, 0.4]},
    "ragged-A": {"A": [[1.0, 0.0], [0.0]], "D": [0.0, 0.4]},
    "short-D": {"A": SPEC_A, "D": [0.0]},
    "scalar-D": {"A": SPEC_A, "D": 0.4},
    "poly-5": {"A": SPEC_A, "D": [0.0, 0.4], "G": {"poly": 5}},
    "text-in-poly": {"A": SPEC_A, "D": [0.0, 0.4], "G": {"poly": ["x"]}},
}
SPEC_COMMANDS = {
    "inverse": ("inverse",),
    "derive": ("derive", "--model", "inverse"),
    "verify": ("verify", "--suite", "inverse-roundtrip"),
}


def assert_refused(capsys, argv):
    """`argv` exits 2 with an error line and no traceback."""
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


class TestHostileText:
    @pytest.mark.parametrize("grid", ["0,1,abc;0,1,9", "0,x,9;0,1,9",
                                      "0,1,9.5;0,1,9", "0,nan,9;0,1,9",
                                      "0,inf,9;0,1,9"])
    def test_bad_grid_exits_2(self, capsys, tmp_path, grid):
        assert_refused(capsys, ["simulate", "--model", "membrane",
                                "--grid", grid, "--dt", "0.01",
                                "--output", str(tmp_path / "x")])
        assert not (tmp_path / "x").exists()

    def test_bad_point_number_exits_2(self, capsys):
        assert_refused(capsys, ["derive", "--model", "membrane",
                                "--point", "q=abc"])

    # the membrane has one field and three directions
    @pytest.mark.parametrize("text", [
        "q=1,2", "q=", "v=1,2", "v=1,2,3,4", "v=1", "s=0,0", "s=1,,2",
        "q=nan", "v=1,inf,0", "s=0,0,1e999", "q=0;w=1", "q=0;", "q0.5",
        "q=0.5;v=1,2,3;s=0,0,0;x=1", "q=pi;v=1,2*pi,x*pi"])
    def test_bad_point_text_exits_2(self, capsys, text):
        good = "q=0.5;v=1,2,-1;s=0.1,0,0"
        code = main(["derive", "--model", "membrane", "--point", good,
                     "--point", text])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: bad point '{text}': ")
        assert "Traceback" not in captured.err

    # finite points at which the density overflows
    @pytest.mark.parametrize("model, point", [
        ("oscillator", "q=1e300;v=1e300;s=-1e300"),
        ("membrane", "v=1e300,0,0")])
    def test_non_finite_jet_exits_3(self, capsys, model, point):
        code = main(["derive", "--model", model, "--point", point])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error: non-finite entries in jet")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", SPEC_COMMANDS)
    @pytest.mark.parametrize("case", HOSTILE_SPECS)
    def test_bad_spec_exits_2(self, capsys, tmp_path, command, case):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(HOSTILE_SPECS[case]))
        assert_refused(capsys, [*SPEC_COMMANDS[command],
                                "--spec", str(spec)])


class TestModelRegistry:
    @pytest.mark.parametrize("name", MODELS)
    def test_defaults_are_the_factories(self, name):
        factory, _ = MODELS[name]
        assert build_model(name, {}).params == factory().params

    def test_model_flags_parse_to_the_table_types(self):
        parser = build_parser()
        for flag, kind in MODEL_PARAMS.items():
            args = parser.parse_args(["derive", f"--{flag}", "2"])
            assert type(getattr(args, flag)) is kind, flag
        assert {kind for _, kinds in MODELS.values()
                for kind in kinds.values()} == {int, float}

    def test_choices_and_flags_unchanged(self):
        assert MODEL_NAMES == ("free", "membrane", "string", "svcoupling",
                               "oscillator", "inverse")
        assert set(MODEL_PARAMS) == {"mu", "gamma", "rho", "tau", "lam",
                                     "B", "eps", "omega", "n", "k"}
        commands = next(action for action in build_parser()._actions
                        if action.dest == "cmd")
        for command in ("derive", "simulate", "verify"):
            options = {action.dest: action
                       for action in commands.choices[command]._actions}
            assert tuple(options["model"].choices) == MODEL_NAMES
            assert set(MODEL_PARAMS) <= set(options)

    @pytest.mark.parametrize("params", [{"eps": 0.1}, {"mu": "abc"},
                                        {"gamma": [1.0]}],
                             ids=["unknown", "text", "list"])
    def test_bad_parameter_refused(self, params):
        with pytest.raises(ConfigError, match="parameters for model"):
            build_model("membrane", params)

    @pytest.mark.parametrize("params", [{}, {"spec": None}, {"spec": 5}],
                             ids=["missing", "null", "number"])
    def test_inverse_needs_a_spec_object(self, params):
        with pytest.raises(ConfigError, match="PDE spec"):
            build_model("inverse", params)

    @pytest.mark.parametrize("argv", [("--eps", "0.1"), ("--mu", "abc"),
                                      ("--n", "1.5")],
                             ids=["unknown", "text", "float-for-int"])
    def test_bad_parameter_flag_exits_2(self, capsys, argv):
        model = "free" if argv[0] == "--n" else "membrane"
        try:
            code = main(["derive", "--model", model, *argv,
                         "--point", "q=0"])
        except SystemExit as exc:  # argparse refuses a mistyped flag
            code = exc.code
        assert code == 2
        assert "error:" in capsys.readouterr().err
