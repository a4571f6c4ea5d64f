"""The four benchmark workloads.

A workload's constructor is its set-up: it builds every input from the
seed and writes the files its commands read.  `ops()` then gives one
round, a fixed list of operations.  Each operation is one CLI command
(run in-process through `kcontact.cli.main`) or one library call, paired
with the check of its output from `checks`.  Rounds repeat the same
operations on the same inputs, so the work per round is a constant,
`work`, counted in the workload's own unit.

Calls go through module attributes (`cli.main`, `sim.run`,
`kcontact.save_trace`) at call time, so the traced run's wrappers see
them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import kcontact
from kcontact import cli, sim, taylor

import checks


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]


class OpFailed(Exception):
    """A command exited non-zero."""


def run_cli(argv):
    """Run one kcontact command in-process; return what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code
    if code != 0:
        raise OpFailed(f"kcontact {argv[0]} exited with {code}")
    return out.getvalue()


def run_cli_json(argv):
    return json.loads(run_cli(argv))


def _steps(t_end, dt, output_every):
    """Step count of `run`: t_end / dt, rounded up to whole output frames."""
    steps = max(1, round(t_end / dt))
    return steps + (-steps) % output_every


class Workload:
    name = ""
    unit = ""            # what `work` counts
    work = 0             # units of work per round
    phase_points = 0     # phase points processed per round

    def __init__(self, workdir: Path):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def ops(self) -> list:
        raise NotImplementedError

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class MembraneSimulate(Workload):
    """`kcontact simulate` of the acceptance reference configuration."""

    name = "membrane_simulate"
    unit = "grid point-steps"

    def __init__(self, workdir, seed, n=101, t_end=5.0, output_every=8):
        super().__init__(workdir)
        self.out = self.workdir / "membrane"
        self.counts = (n, n)
        dt = 0.4 * math.pi / (n - 1)
        steps = _steps(t_end, dt, output_every)
        self.frames = steps // output_every + 1
        self.t_final = steps * dt
        self.work = n * n * steps
        self.argv = ["simulate", "--model", "membrane",
                     "--mu", repr(checks.MU), "--gamma", repr(checks.GAMMA),
                     "--grid", f"0,pi,{n};0,pi,{n}", "--dt", repr(dt),
                     "--t-end", repr(t_end), "--output-every",
                     str(output_every), "--init", "mode",
                     "--output", str(self.out)]

    def check(self, _stdout):
        checks.check_membrane_trace(self.out, self.counts, self.frames,
                                    self.t_final)

    def ops(self):
        return [Op("simulate", lambda: run_cli(self.argv), self.check)]


def born_infeld_density(q, v, s):
    """Born-Infeld scalar: L = 1 - sqrt(1 - u_t^2 + u_x^2)."""
    ut, ux = v[0]
    return 1.0 - taylor.sqrt(1.0 - ut * ut + ux * ux)


class BornInfeldWave(Workload):
    """Library `run` of a user-written nonlinear density over one period
    of an exact travelling wave on a periodic grid."""

    name = "born_infeld_wave"
    unit = "grid point-steps"

    def __init__(self, workdir, seed, n=1024, amplitude=0.5):
        super().__init__(workdir)
        rng = np.random.default_rng(seed)
        self.phase = float(rng.uniform(0, 2 * math.pi))
        self.amplitude = amplitude
        self.h = 2 * math.pi / n
        self.x = self.h * np.arange(n)
        self.model = kcontact.LagrangianModel(
            n=1, k=2, name="born_infeld", lagrangian=born_infeld_density)
        self.grid = kcontact.Grid(bounds=((0.0, 2 * math.pi),), counts=(n,),
                                  bc="periodic")
        self.initial = kcontact.SimState(
            phi=checks.travelling_wave(self.x, 0.0, amplitude,
                                       self.phase)[None],
            phidot=-amplitude * np.cos(self.x + self.phase)[None],
            s1=np.zeros(n))
        self.dt = 0.4 * self.h
        self.steps = _steps(2 * math.pi, self.dt, 1)
        self.t_end = self.steps * self.dt
        self.work = n * self.steps

    def call(self):
        return sim.run(self.model, self.grid, self.dt, self.t_end,
                       self.initial, output_every=self.steps)

    def check(self, trace):
        checks.check_travelling_wave(
            self.x, trace.phi[-1, 0], trace.s1[-1], float(trace.t[-1]),
            self.t_end, self.amplitude, self.phase, self.h)

    def ops(self):
        return [Op("run", self.call, self.check)]


def damped_mode_trace(n, t_end=5.0, output_every=8, fine=32):
    """Membrane trace of the closed-form damped mode on an n x n grid,
    sampled like `simulate` with dt = 0.4 h.  s1 integrates ds1/dt = L,
    i.e. s1 = P(t) sin^2 x sin^2 y - Q(t) (cos^2 x sin^2 y + sin^2 x cos^2 y)
    with P' = a'^2 / 2 - gamma P and Q' = mu^2 a^2 / 2 - gamma Q, by RK4 at
    `fine` substeps per frame."""
    mu, gamma = checks.MU, checks.GAMMA
    dt = 0.4 * math.pi / (n - 1)
    frames = _steps(t_end, dt, output_every) // output_every + 1
    t = output_every * dt * np.arange(frames)

    def rates(tau, pq):
        a = checks.membrane_amplitude(tau)
        da = checks.membrane_amplitude_rate(tau)
        return np.array([0.5 * da ** 2, 0.5 * mu ** 2 * a ** 2]) - gamma * pq

    pq = np.zeros((frames, 2))
    sub = (t[1] - t[0]) / fine
    y = np.zeros(2)
    for f in range(1, frames):
        tau = t[f - 1]
        for _ in range(fine):
            k1 = rates(tau, y)
            k2 = rates(tau + sub / 2, y + sub / 2 * k1)
            k3 = rates(tau + sub / 2, y + sub / 2 * k2)
            k4 = rates(tau + sub, y + sub * k3)
            y = y + sub / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            tau += sub
        pq[f] = y
    axis = np.linspace(0.0, math.pi, n)
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    mode = np.sin(X) * np.sin(Y)
    grad2 = np.cos(X) ** 2 * np.sin(Y) ** 2 + np.sin(X) ** 2 * np.cos(Y) ** 2
    shape = (frames, 1, 1)
    return kcontact.SimTrace(
        model_name="membrane", params={"mu": mu, "gamma": gamma},
        grid=kcontact.Grid(bounds=((0.0, math.pi), (0.0, math.pi)),
                           counts=(n, n)),
        dt=dt, output_every=output_every, t=t,
        phi=(checks.membrane_amplitude(t).reshape(shape) * mode)[:, None],
        phidot=(checks.membrane_amplitude_rate(t).reshape(shape)
                * mode)[:, None],
        s1=pq[:, 0].reshape(shape) * mode ** 2
        - pq[:, 1].reshape(shape) * grad2)


class TraceVerify(Workload):
    """`kcontact verify` of the dissipation law and the momentum form
    over a refinement pair of analytic membrane traces."""

    name = "trace_verify"
    unit = "space-time samples"
    suites = ("dissipation", "hdw")

    def __init__(self, workdir, seed, sizes=(51, 101), t_end=5.0):
        super().__init__(workdir)
        argv = ["verify"]
        for suite in self.suites:
            argv += ["--suite", suite]
        argv += ["--symmetry", "du"]
        samples = 0
        for n in sizes:
            trace = damped_mode_trace(n, t_end)
            path = self.workdir / f"membrane_{n}"
            kcontact.save_trace(trace, path)
            argv += ["--trace", str(path)]
            samples += trace.s1.size
        self.argv = argv
        self.work = samples * len(self.suites)

    def check(self, report):
        checks.check_refinement_report(report, self.suites)

    def ops(self):
        return [Op("verify", lambda: run_cli_json(self.argv), self.check)]


def _point_text(q, v, s):
    def join(values):
        return ",".join(repr(float(x)) for x in np.ravel(values))
    return f"q={join(q)};v={join(v)};s={join(s)}"


@dataclass(frozen=True)
class ModelCase:
    """One model of `pointwise_suites`: its commands, the derive points
    and the hand-derived jet that checks them."""

    name: str
    derive: list
    verify: list
    points: list      # (q, v, s) tuples
    n: int
    k: int
    jet: Callable     # (q, v, s) -> (p, W, E)

    def check_derive(self, report):
        checks.check_derive_report(report, self.points, self.jet, self.n,
                                   self.k)


class PointwiseSuites(Workload):
    """Single-point path: `derive`, the pointwise `verify` suites and
    `inverse` at seeded random phase points."""

    name = "pointwise_suites"
    unit = "phase points"
    suites = ("reeb", "legendre", "sopde", "symmetry")
    # (model, parameters, n, k, symmetry field, hand-derived jet): the
    # charged string with B, lambda and gamma all non-zero, and a membrane
    models = (
        ("string", {"rho": 1.0, "tau": 1.0, "lam": 0.5, "gamma": 0.3,
                    "B": 1.0}, 2, 2, "paperY", checks.string_jet),
        ("membrane", {"mu": 1.5, "gamma": 0.2}, 1, 3, "du",
         checks.membrane_jet),
    )

    def __init__(self, workdir, seed, points=100):
        super().__init__(workdir)
        rng = np.random.default_rng(seed)
        self.cases = []
        for name, params, n, k, field, jet in self.models:
            flags = []
            for key, val in params.items():
                flags += [f"--{key}", repr(val)]
            pts = [(rng.uniform(-1, 1, n), rng.uniform(-1, 1, (n, k)),
                    rng.uniform(-1, 1, k)) for _ in range(points)]
            derive = ["derive", "--model", name] + flags
            for q, v, s in pts:
                derive += ["--point", _point_text(q, v, s)]
            verify = ["verify", "--model", name] + flags
            for suite in self.suites:
                verify += ["--suite", suite]
            verify += ["--field", field, "--seed", str(seed),
                       "--num-points", str(points)]
            self.cases.append(ModelCase(
                name, derive, verify, pts, n, k,
                lambda q, v, s, jet=jet, params=params:
                jet(q, v, s, **params)))
        c, m = rng.uniform(0.5, 1.5, 2)
        spec = self.workdir / "telegraph.json"
        # u_tt - u_zz + c u_z + m u = 0
        spec.write_text(json.dumps({"A": [[1.0, 0.0], [0.0, -1.0]],
                                    "D": [0.0, float(c)],
                                    "G": {"poly": [0.0, float(m)]}}))
        self.inverse = ["inverse", "--spec", str(spec), "--seed", str(seed),
                        "--num-points", str(points)]
        # derive and inverse: one pass per point; verify: one per suite
        self.phase_points = points * (
            len(self.cases) * (1 + len(self.suites)) + 1)
        self.work = self.phase_points

    def check_verify(self, report):
        checks.check_verify_report(report, self.suites)

    def ops(self):
        ops = []
        for case in self.cases:
            ops.append(Op(f"derive {case.name}",
                          lambda argv=case.derive: run_cli_json(argv),
                          case.check_derive))
            ops.append(Op(f"verify {case.name}",
                          lambda argv=case.verify: run_cli_json(argv),
                          self.check_verify))
        ops.append(Op("inverse telegraph",
                      lambda: run_cli_json(self.inverse),
                      lambda report: checks.check_inverse_report(report, 2)))
        return ops


WORKLOADS = {cls.name: cls for cls in (MembraneSimulate, BornInfeldWave,
                                       TraceVerify, PointwiseSuites)}
