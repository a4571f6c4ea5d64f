"""Shared fixtures.

The membrane reference runs of the acceptance suite are expensive (the
fine one is the quoted 101x101 configuration, plus one doubled grid for
the refinement checks), so they are built once per session and shared
across criteria.  `writers` records the trace.csv writer processes a
test starts.
"""

import subprocess
import time

import numpy as np
import pytest

from kcontact import Grid, SimState, membrane, run, sim

MU, GAMMA = 1.0, 0.2
OMEGA_D = np.sqrt(2 * MU ** 2 - GAMMA ** 2 / 4)  # sqrt(1.99)
T_END = 5.0


def membrane_exact(t, mesh):
    """Damped single-mode solution with u(0) = sin x sin y, u_t(0) = 0."""
    X, Y = mesh
    amp = np.exp(-GAMMA * t / 2) * (np.cos(OMEGA_D * t)
                                    + GAMMA / (2 * OMEGA_D)
                                    * np.sin(OMEGA_D * t))
    return (amp * np.sin(X) * np.sin(Y))[None]


def cubic(q, v, s):
    """L = (v_t^3 + v_x^3)/6 + s/10 over one field and two directions:
    W = diag(v_t, v_x) is singular where a velocity vanishes, with an
    infinite condition number where its smallest singular value is 0."""
    vt, vx = v[0]
    return (vt * vt * vt + vx * vx * vx) / 6.0 + 0.1 * s[0] + 0.0 * q[0]


def _membrane_run(model, N, output_every, t_end=T_END):
    grid = Grid(bounds=((0, np.pi), (0, np.pi)), counts=(N, N))
    mesh = grid.mesh()
    init = SimState(phi=membrane_exact(0.0, mesh),
                    phidot=np.zeros((1, N, N)), s1=np.zeros((N, N)))
    dt = 0.4 * grid.spacing[0]
    t0 = time.perf_counter()
    trace = run(model, grid, dt, t_end, init, output_every=output_every)
    return grid, trace, time.perf_counter() - t0


@pytest.fixture(scope="session")
def membrane_model():
    return membrane(mu=MU, gamma=GAMMA)


@pytest.fixture(scope="session")
def membrane_run_51(membrane_model):
    """Half-resolution companion of the reference run."""
    return _membrane_run(membrane_model, 51, output_every=8)


@pytest.fixture(scope="session")
def membrane_run_101(membrane_model):
    """The reference configuration: 101x101, dt = 0.4h, t_end = 5."""
    return _membrane_run(membrane_model, 101, output_every=8)


@pytest.fixture(scope="session")
def membrane_run_201_final(membrane_model):
    """Doubled grid, keeping only first/last frames (error ratio only)."""
    dt = 0.4 * (np.pi / 200)
    steps = int(round(T_END / dt))
    return _membrane_run(membrane_model, 201, output_every=steps)


@pytest.fixture(scope="session")
def membrane_undamped_run():
    """gamma = 0 companion for the energy-conservation criterion."""
    model = membrane(mu=MU, gamma=0.0)
    grid, trace, _ = _membrane_run(model, 101, output_every=20,
                                   t_end=10.0)
    return model, grid, trace


@pytest.fixture
def writers(monkeypatch):
    """The list of every process that trace exports start in the test
    (the trace.csv writers), appended to as they start.  At teardown
    each of them must have been reaped."""
    procs, popen = [], subprocess.Popen

    def recording(*args, **kwargs):
        procs.append(popen(*args, **kwargs))
        return procs[-1]

    monkeypatch.setattr(sim.subprocess, "Popen", recording)
    yield procs
    if procs:
        assert_reaped(procs)


def pin_workers(monkeypatch, count):
    """Make trace exports and walks see `count` CPUs and allow `count`
    workers (`sim.MAX_WORKERS`), so each export starts `count` writers
    and each walk runs on `count` threads."""
    monkeypatch.setattr(sim.os, "sched_getaffinity",
                        lambda pid: set(range(count)))
    monkeypatch.setattr(sim, "MAX_WORKERS", count)


def assert_reaped(procs):
    """Every process in `procs` has exited and been waited for, and the
    pipes to and from it are closed."""
    assert procs
    for proc in procs:
        assert proc.returncode is not None
        assert proc.stdin.closed and proc.stdout.closed and proc.stderr.closed
