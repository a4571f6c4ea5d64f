"""Trace residuals and the trace Lagrangian walked in time slabs: the
slab size and the thread count change no bit of any result, the frame
count does not change the working memory, and a walk that fails raises
the first failing slab's error and leaves no thread behind."""

import argparse
import dataclasses
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from kcontact import (Grid, SimState, SimTrace, builtin_symmetry_field,
                      dissipated_quantity, dissipation_law_check,
                      evaluate_jet_batch, membrane,
                      momentum_dissipation_check, run, trace_el_residual,
                      trace_lagrangian)
from kcontact import sim
from kcontact.cli import _walk_traces
from kcontact.hamiltonian import hdw_residual, momentum_path_from_arrays
from test_jet import born_infeld
from test_sim import coupled_wave


def periodic_trace(model, N=48, t_end=1.2):
    grid = Grid(bounds=((0.0, 2 * np.pi),), counts=(N,), bc="periodic")
    (x,) = grid.mesh()
    init = SimState(phi=0.3 * np.sin(x)[None],
                    phidot=0.2 * np.cos(2 * x)[None], s1=np.zeros(N))
    return run(model, grid, 0.2 * grid.spacing[0], t_end, init,
               output_every=2)


def membrane_trace(N=13, t_end=1.5):
    model = membrane(mu=1.0, gamma=0.2)
    grid = Grid(bounds=((0, np.pi), (0, np.pi)), counts=(N, N))
    X, Y = grid.mesh()
    init = SimState(phi=(np.sin(X) * np.sin(Y))[None],
                    phidot=np.zeros((1, N, N)), s1=np.zeros((N, N)))
    return model, run(model, grid, 0.4 * grid.spacing[0], t_end, init,
                      output_every=2)


CASES = {
    "membrane": membrane_trace,
    "coupled_wave": lambda: (coupled_wave(),
                             periodic_trace(coupled_wave())),
    "born_infeld": lambda: (born_infeld(), periodic_trace(born_infeld())),
}


def verify_walk(model, trace):
    """The reports of verify's one walk for the dissipation and hdw suites
    (field du) over `trace`."""
    args = argparse.Namespace(field=None, symmetry="du")
    return _walk_traces(args, {"dissipation": 0.05, "hdw": 0.5},
                        [(trace, model)], [])


def residuals(model, trace):
    """Every trace residual and L, as exactly comparable values."""
    F = dissipated_quantity(builtin_symmetry_field(model, "du"))
    out = {"el": trace_el_residual(model, trace),
           "lagrangian": trace_lagrangian(model, trace).tobytes(),
           "dissipation": dissipation_law_check(model, F, trace).tobytes(),
           "verify": verify_walk(model, trace)}
    if model.name != "coupled_wave":  # its q is not cyclic
        out["momentum"] = momentum_dissipation_check(model, 0, trace)
    return out


def whole_trace_hdw(model, trace):
    """`hdw_residual` over the whole trace as one path."""
    q, v, s, spacings = sim.trace_point_arrays(model, trace)
    jet = evaluate_jet_batch(model, q, v, s)
    return hdw_residual(model, momentum_path_from_arrays(jet, q, s, spacings))


def pin_walkers(monkeypatch, count):
    """Make trace walks see `count` CPUs and allow `count` threads."""
    monkeypatch.setattr(sim.os, "sched_getaffinity",
                        lambda pid: set(range(count)))
    monkeypatch.setattr(sim, "MAX_WALKERS", count)


@pytest.mark.parametrize("case", CASES)
def test_residuals_do_not_depend_on_the_slab_size(case, monkeypatch):
    model, trace = CASES[case]()
    frames = trace.t.size
    assert (frames - 4) % 3, "the few-frame slabs should leave a remainder"
    per_frame = math.prod(trace.grid.shape)
    got = []
    for workers in (1, 2, 3):
        pin_walkers(monkeypatch, workers)
        # slabs of 1, 3 // W, 7 // W frames and all frames
        for samples in (1, 3 * per_frame, 7 * per_frame, 10 ** 12):
            monkeypatch.setattr(sim, "TRACE_SLAB_SAMPLES", samples)
            got.append(residuals(model, trace))
    assert all(g == got[0] for g in got)
    # verify's one walk reports what the library functions give
    walk = got[0]["verify"]
    F = dissipated_quantity(builtin_symmetry_field(model, "du"))
    assert walk["dissipation"]["residuals"] == [float(np.max(np.abs(
        dissipation_law_check(model, F, trace))))]
    assert walk["hdw"]["residuals"] == [whole_trace_hdw(model, trace).max()]


def analytic_membrane_trace(frames, N=33):
    """A damped-mode membrane trace of `frames` frames, built directly."""
    grid = Grid(bounds=((0, np.pi), (0, np.pi)), counts=(N, N))
    X, Y = grid.mesh()
    t = 0.05 * np.arange(frames)
    amp = np.exp(-0.1 * t)[:, None, None, None]
    mode = np.sin(X) * np.sin(Y)
    return SimTrace(model_name="membrane", params={"mu": 1.0, "gamma": 0.2},
                    grid=grid, dt=0.05, output_every=1, t=t,
                    phi=amp * mode, phidot=-0.1 * amp * mode,
                    s1=0.01 * t[:, None, None] * mode ** 2)


def peak_bytes(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_the_frame_count(monkeypatch):
    # four frames per slab; doubling the frames adds slabs, not memory
    # beyond what the dissipation law's returned array itself grows by
    model = membrane(mu=1.0, gamma=0.2)
    monkeypatch.setattr(sim, "TRACE_SLAB_SAMPLES", 4 * 33 * 33)
    F = dissipated_quantity(builtin_symmetry_field(model, "du"))
    peaks = {"dissipation": [], "verify": [], "lagrangian": []}
    trace_bytes = []
    for frames in (24, 48):
        trace = analytic_membrane_trace(frames)
        trace_bytes.append(trace.phi.nbytes + trace.phidot.nbytes
                           + trace.s1.nbytes)
        peaks["dissipation"].append(peak_bytes(
            lambda: dissipation_law_check(model, F, trace)))
        peaks["verify"].append(peak_bytes(
            lambda: verify_walk(model, trace)))
        peaks["lagrangian"].append(peak_bytes(
            lambda: trace_lagrangian(model, trace)))
    margin = 64 * 1024
    for name, (small, large) in peaks.items():
        assert large - small < trace_bytes[1] - trace_bytes[0] + margin, \
            (name, small, large)


def indexed_trace(frames=12, N=9):
    """A membrane trace whose s1 is the frame index at every point, so a
    slab's first frame (its halo included) reads s[0, 0, 0, 0]."""
    trace = analytic_membrane_trace(frames, N)
    return dataclasses.replace(
        trace, s1=np.arange(frames)[:, None, None] + np.zeros((N, N)))


def one_frame_slabs(monkeypatch, trace, workers):
    pin_walkers(monkeypatch, workers)
    monkeypatch.setattr(sim, "TRACE_SLAB_SAMPLES",
                        workers * math.prod(trace.grid.shape))


@pytest.mark.parametrize("workers", [2, 3])
def test_first_failing_slab_in_order_raises(monkeypatch, workers):
    # slab 0 fails late, slab 1 at once and the others succeed a little
    # later: slab 0's error is raised, no slab starts after slab 1
    # failed, and every thread has ended
    trace = indexed_trace()
    one_frame_slabs(monkeypatch, trace, workers)
    started = []

    def fn(q, v, s, spacings, jet):
        slab = int(s[0, 0, 0, 0]) - 1  # the halo frame, then frames 2..
        started.append(slab)
        if slab != 1:
            time.sleep(0.3 if slab == 0 else 0.1)
        if slab < 2:
            raise ValueError(f"slab {slab}")
        return slab

    threads = threading.active_count()
    with pytest.raises(ValueError, match="^slab 0$"):
        sim._map_slabs(fn, membrane(mu=1.0, gamma=0.2), trace)
    assert threading.active_count() == threads
    assert {0, 1} <= set(started) <= set(range(workers))


def test_threads_take_every_slab_once(monkeypatch):
    # more threads than CPUs, switching as often as the interpreter can:
    # a slab taken twice or lost would break the order of the results
    trace = indexed_trace(frames=64, N=8)
    one_frame_slabs(monkeypatch, trace, 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = sim._map_slabs(lambda q, v, s, spacings, jet: s[0, 0, 0, 0],
                             membrane(mu=1.0, gamma=0.2), trace)
    finally:
        sys.setswitchinterval(interval)
    assert got == list(range(1, trace.t.size - 3))


def test_interrupted_walk_joins_its_threads(monkeypatch):
    # an interrupt in the calling thread starts no further slab and
    # returns only once the other thread has finished its slab
    trace = indexed_trace()
    one_frame_slabs(monkeypatch, trace, 2)
    started, done, helping = [], [], threading.Event()

    def fn(q, v, s, spacings, jet):
        started.append(s[0, 0, 0, 0])
        if threading.current_thread() is threading.main_thread():
            helping.wait(5)
            raise KeyboardInterrupt
        helping.set()
        time.sleep(0.2)
        done.append(s[0, 0, 0, 0])

    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        sim._map_slabs(fn, membrane(mu=1.0, gamma=0.2), trace)
    assert threading.active_count() == threads
    assert len(started) == 2 and len(done) == 1


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_non_cyclic_coordinate_raises_on_every_thread_count(monkeypatch,
                                                           workers):
    model = coupled_wave()
    trace = periodic_trace(model)
    one_frame_slabs(monkeypatch, trace, workers)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="coordinate 0 not cyclic"):
        momentum_dissipation_check(model, 0, trace)
    assert threading.active_count() == threads
