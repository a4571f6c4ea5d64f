"""Trace residuals and the trace Lagrangian walked in time slabs: the
slab size changes neither a bit of any result nor, with the frame
count, the working memory."""

import math
import tracemalloc

import numpy as np
import pytest

from kcontact import (Grid, SimState, SimTrace, builtin_symmetry_field,
                      dissipated_quantity, dissipation_law_check, membrane,
                      momentum_dissipation_check, run, trace_el_residual,
                      trace_lagrangian)
from kcontact import sim
from kcontact.cli import _suite_hdw
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


def residuals(model, trace):
    """Every trace residual and L, as exactly comparable values."""
    F = dissipated_quantity(builtin_symmetry_field(model, "du"))
    out = {"el": trace_el_residual(model, trace),
           "lagrangian": trace_lagrangian(model, trace).tobytes(),
           "dissipation": dissipation_law_check(model, F, trace).tobytes(),
           "hdw": _suite_hdw(None, 0.5, lambda: [(trace, model)])}
    if model.name != "coupled_wave":  # its q is not cyclic
        out["momentum"] = momentum_dissipation_check(model, 0, trace)
    return out


@pytest.mark.parametrize("case", CASES)
def test_residuals_do_not_depend_on_the_slab_size(case, monkeypatch):
    model, trace = CASES[case]()
    frames = trace.t.size
    assert (frames - 4) % 3, "the few-frame slabs should leave a remainder"
    per_frame = math.prod(trace.grid.shape)
    got = []
    for samples in (1, 3 * per_frame, 10 ** 12):  # 1, 3, all frames
        monkeypatch.setattr(sim, "TRACE_SLAB_SAMPLES", samples)
        got.append(residuals(model, trace))
    assert got[0] == got[1] == got[2]


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
    peaks = {"dissipation": [], "hdw": [], "lagrangian": []}
    trace_bytes = []
    for frames in (24, 48):
        trace = analytic_membrane_trace(frames)
        trace_bytes.append(trace.phi.nbytes + trace.phidot.nbytes
                           + trace.s1.nbytes)
        peaks["dissipation"].append(peak_bytes(
            lambda: dissipation_law_check(model, F, trace)))
        peaks["hdw"].append(peak_bytes(
            lambda: _suite_hdw(None, 0.5, lambda: [(trace, model)])))
        peaks["lagrangian"].append(peak_bytes(
            lambda: trace_lagrangian(model, trace)))
    margin = 64 * 1024
    for name, (small, large) in peaks.items():
        assert large - small < trace_bytes[1] - trace_bytes[0] + margin, \
            (name, small, large)
