"""Method-of-lines integrator for the Euler-Lagrange field equations.

Fields live on a uniform spatial grid (directions 2..k; direction 1 is
time), spatial derivatives are second-order central differences, time
stepping is classical RK4 on (phi, phidot, s1).  The dissipation fields
follow the evolution-concentrated gauge: s^a = 0 for a >= 2 and
ds1/dt = L pointwise.  For s-coupled densities (d2L/dv ds != 0) the
field equations contain the derivatives of s, so there the gauge
selects which solution is computed.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import operator
import os
import shutil
import subprocess
import sys
import threading
import zipfile
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from pathlib import Path

import numpy as np

from .contact import solve_batch
from .dynamics import el_residual_batch, evolution_rhs_batch
from .errors import ConfigError, SimulationError
from .jet import LagrangianModel, evaluate_jet_batch

CFL_FACTOR = 0.4
SCHEMA_VERSION = 1
GAUGE_NOTE = "s^alpha = 0 for alpha >= 2; ds^1/dt = L (evolution gauge)"


@dataclass(frozen=True)
class Grid:
    """Uniform spatial grid for the k-1 non-time directions."""

    bounds: tuple   # ((lo, hi), ...) per spatial direction
    counts: tuple   # points per direction
    bc: str = "dirichlet"  # 'dirichlet' (zero) or 'periodic'

    def __post_init__(self):
        if self.bc not in ("dirichlet", "periodic"):
            raise ValueError(f"unsupported boundary condition '{self.bc}'")
        if len(self.bounds) != len(self.counts):
            raise ValueError("bounds/counts length mismatch")
        for (lo, hi), c in zip(self.bounds, self.counts):
            if c < 8:
                raise ValueError("grids need at least 8 points per direction")
            if not -math.inf < lo < hi < math.inf:
                raise ValueError("empty or non-finite grid extent")

    @property
    def ndim(self) -> int:
        return len(self.counts)

    @cached_property
    def spacing(self) -> tuple:
        out = []
        for (lo, hi), c in zip(self.bounds, self.counts):
            out.append((hi - lo) / (c - 1 if self.bc == "dirichlet" else c))
        return tuple(out)

    @property
    def shape(self) -> tuple:
        return tuple(self.counts)

    def axes(self):
        out = []
        for (lo, hi), c, h in zip(self.bounds, self.counts, self.spacing):
            if self.bc == "dirichlet":
                out.append(np.linspace(lo, hi, c))
            else:
                out.append(lo + h * np.arange(c))
        return out

    def mesh(self):
        return np.meshgrid(*self.axes(), indexing="ij")


@dataclass(frozen=True)
class SimState:
    """Fields at one time: phi (n, *S), phidot (n, *S), s1 (*S)."""

    phi: np.ndarray
    phidot: np.ndarray
    s1: np.ndarray
    t: float = 0.0

    def check_finite(self):
        if any(np.count_nonzero(np.isfinite(x)) < x.size
               for x in (self.phi, self.phidot, self.s1)):
            raise SimulationError(f"blow-up detected at t={self.t:.6g}")
        return self


@dataclass(frozen=True)
class SimTrace:
    """States at uniform output times, stacked along the leading axis."""

    model_name: str
    params: dict
    grid: Grid
    dt: float
    output_every: int
    t: np.ndarray       # (F,)
    phi: np.ndarray     # (F, n, *S)
    phidot: np.ndarray  # (F, n, *S)
    s1: np.ndarray      # (F, *S)

    @property
    def dt_out(self) -> float:
        return float(self.t[1] - self.t[0])

    def state(self, idx: int) -> SimState:
        return SimState(phi=self.phi[idx], phidot=self.phidot[idx],
                        s1=self.s1[idx], t=float(self.t[idx]))


# -- stencils -----------------------------------------------------------

@lru_cache(maxsize=None)
def _at(axis, start, stop):
    """The index that selects start:stop along `axis` and everything along
    the other axes; a negative `axis` counts from the last, at any rank."""
    if axis < 0:
        return (Ellipsis, slice(start, stop)) + (slice(None),) * (-1 - axis)
    return (slice(None),) * axis + (slice(start, stop),)


# every index the stencils take, built at import: entries added during a
# run would stay in the heap above its freed temporaries
list(itertools.starmap(_at, itertools.product(
    range(-4, 0), (None, -3, -2, -1, 1, 2), (None, -2, -1, 1, 2, 3))))


def _wrap(f, axis):
    """`f` padded along `axis` with one periodic cell at each end."""
    return np.concatenate((f[_at(axis, -1, None)], f,
                           f[_at(axis, None, 1)]), axis=axis)


def _d1(f, h, axis, periodic, wrapped=None):
    """Central first difference along `axis`, wrapped if `periodic`
    (`wrapped`, if given, is `_wrap(f, axis)`), else one-sided second-order
    at both ends with numpy's coefficients (it equals numpy's `gradient`
    with edge_order=2 bit for bit).  The trace stencil `_trace_d1` takes
    its central formula on the trace interior, without the ends."""
    at = partial(_at, axis)
    if periodic:
        f = _wrap(f, axis) if wrapped is None else wrapped
        return (f[at(2, None)] - f[at(None, -2)]) / (2 * h)
    out = np.empty_like(f)
    out[at(1, -1)] = (f[at(2, None)] - f[at(None, -2)]) / (2. * h)
    out[at(None, 1)] = (-1.5 / h * f[at(None, 1)] + 2. / h * f[at(1, 2)]
                        + -0.5 / h * f[at(2, 3)])
    out[at(-1, None)] = (0.5 / h * f[at(-3, -2)] + -2. / h * f[at(-2, -1)]
                         + 1.5 / h * f[at(-1, None)])
    return out


def _d2(f, h, axis, periodic, wrapped=None):
    """Central second difference along `axis`, wrapped as in `_d1`."""
    at = partial(_at, axis)
    if periodic:
        f = _wrap(f, axis) if wrapped is None else wrapped
        return (f[at(2, None)] - 2 * f[at(1, -1)] + f[at(None, -2)]) / h ** 2
    out = np.empty_like(f)
    out[at(1, -1)] = (f[at(2, None)] - 2 * f[at(1, -1)]
                      + f[at(None, -2)]) / h ** 2
    # edge values are only consumed by masked-off Dirichlet nodes
    out[at(None, 1)] = out[at(1, 2)]
    out[at(-1, None)] = out[at(-2, -1)]
    return out


def _point_arrays(model, grid, phi, phidot, s1, wrapped=None):
    """Velocity and dissipation coordinate arrays (v, s) for batched
    evaluation.  The spatial axes are the last grid.ndim axes of every
    field, so phi (n, *S) and phi (n, T, *S) are both accepted.  On a
    periodic grid `wrapped` may hold `_wrap(phi, axis)` per spatial axis."""
    n, k, d = model.n, model.k, grid.ndim
    v = np.zeros((n, k) + phi.shape[1:])
    v[:, 0] = phidot
    for x in range(d):
        v[:, 1 + x] = _d1(phi, grid.spacing[x], x - d,
                          grid.bc == "periodic", wrapped and wrapped[x])
    s = np.zeros((k,) + phi.shape[1:])
    s[0] = s1
    return v, s


def _second_jet(grid, phi, v, s1, jet, wrapped=None):
    """Stencil entries of the second jet (a, dsdt) for the arrays of
    `_point_arrays` and their `jet`: the spatial and mixed entries of a
    and dsdt[x, 0] = d_x s^1, each computed only where a stored entry of
    the jet multiplies it in the Euler-Lagrange operator (a[:, b, c]
    meets d2Ldvdv[:, c, :, b] and dsdt[b, c] meets d2Ldvds[:, b, c]).
    Every other entry, a[:, 0, 0] and dsdt[0, 0] among them, stays in the
    untouched pages of np.zeros, for the caller to fill in or solve for.
    `wrapped` is as in `_point_arrays`."""
    n, k = v.shape[:2]
    d = grid.ndim
    periodic = grid.bc == "periodic"
    need_a, need_s = jet.layout.need_a.tolist(), jet.layout.need_s.tolist()
    a = np.zeros((n, k, k) + phi.shape[1:])
    dsdt = np.zeros((k, k) + phi.shape[1:])

    def fill(positions, stencil, f, h, axis, pad=None):
        positions = [(b, c) for b, c in positions if need_a[b][c]]
        if positions:
            val = stencil(f, h, axis, periodic, pad)
            for b, c in positions:
                a[:, b, c] = val

    for x in range(d):
        h, ax = grid.spacing[x], x - d
        fill(((0, 1 + x), (1 + x, 0)), _d1, v[:, 0], h, ax)
        fill(((1 + x, 1 + x),), _d2, phi, h, ax, wrapped and wrapped[x])
        for y in range(x + 1, d):
            fill(((1 + x, 1 + y), (1 + y, 1 + x)), _d1, v[:, 1 + x],
                 grid.spacing[y], y - d)
        if need_s[1 + x][0]:
            dsdt[1 + x, 0] = _d1(s1, h, ax, periodic)
    return a, dsdt


def _state_rhs(model, grid, phi, phidot, s1):
    """Time derivatives (dphi, accel, L) of the state, then the jet at it;
    on a Dirichlet grid both derivatives vanish on the boundary.  A periodic
    phi is padded once per axis for both its stencils; dphi is phidot."""
    d = grid.ndim
    periodic = grid.bc == "periodic"
    wrapped = [_wrap(phi, x - d) for x in range(d)] if periodic else None
    v, s = _point_arrays(model, grid, phi, phidot, s1, wrapped)
    jet = evaluate_jet_batch(model, phi, v, s)
    a, dsdt = _second_jet(grid, phi, v, s1, jet, wrapped)
    accel, L = evolution_rhs_batch(jet, v, a, dsdt)
    if periodic:
        return phidot, accel, L, jet
    dphi = phidot.copy()
    for x in range(d):
        for end in (_at(x - d, None, 1), _at(x - d, -1, None)):
            accel[end] = dphi[end] = 0.0
    return dphi, accel, L, jet


def _eigvals(X):
    """Eigenvalues of the (m, m, *B) matrices X, shape (*B, m).  A 1x1
    matrix is its own eigenvalue: `np.linalg.eigvals` returns the entry
    bit for bit, except that LAPACK rescales entries of magnitude below
    about 1e-138 or above 1e138 and may then be 1 ulp off."""
    if X.shape[:2] == (1, 1):
        return X[0, 0][..., None]
    return np.linalg.eigvals(np.moveaxis(X, (0, 1), (-2, -1)))


def char_speeds(jet, grid: Grid) -> np.ndarray:
    """Characteristic speed estimate per spatial direction from the
    Hessian blocks of `jet`, the jet at every grid point of a state (as
    `_state_rhs` evaluates it): the maximum over those points."""
    W = jet.d2Ldvdv
    speeds = np.empty(grid.ndim)
    for a in range(grid.ndim):
        X = solve_batch(W[:, 0, :, 0], W[:, 1 + a, :, 1 + a],
                        "not hyperbolic-evolvable in direction t")
        speeds[a] = np.maximum.reduce(np.abs(_eigvals(X)), axis=None)
    return np.sqrt(speeds, out=speeds)


def check_cfl(jet, grid: Grid, dt: float, t: float):
    """Enforce dt <= CFL_FACTOR * h / c per spatial direction for the
    state at time `t` whose jet is `jet` (see `char_speeds`)."""
    if dt <= 0:
        raise SimulationError("nonpositive step")
    for a, (c, h) in enumerate(zip(char_speeds(jet, grid).tolist(),
                                   grid.spacing)):
        if c > 0 and dt > CFL_FACTOR * h / c * (1 + 1e-9):
            raise SimulationError(
                f"CFL violation in direction {a + 1} at t={t:.6g}: "
                f"dt={dt:.4g} > {CFL_FACTOR * h / c:.4g}")


def step(model: LagrangianModel, state: SimState, grid: Grid,
         dt: float) -> SimState:
    """One classical RK4 step of (phi, phidot, s1).  The state it steps
    from is checked for the CFL condition with the jet of stage 1."""
    y = (state.phi, state.phidot, state.s1)

    def f(phi, phidot, s1):
        return _state_rhs(model, grid, phi, phidot, s1)

    *k1, jet = f(*y)
    check_cfl(jet, grid, dt, state.t)
    k2 = f(y[0] + 0.5 * dt * k1[0], y[1] + 0.5 * dt * k1[1],
           y[2] + 0.5 * dt * k1[2])
    k3 = f(y[0] + 0.5 * dt * k2[0], y[1] + 0.5 * dt * k2[1],
           y[2] + 0.5 * dt * k2[2])
    k4 = f(y[0] + dt * k3[0], y[1] + dt * k3[1], y[2] + dt * k3[2])
    new = tuple(y[i] + dt / 6.0 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i])
                for i in range(3))
    return SimState(phi=new[0], phidot=new[1], s1=new[2], t=state.t + dt)


def _steps(dt: float, t_end: float, output_every: int) -> int:
    """The steps `run` takes: t_end / dt rounded, at least one, and up to
    a multiple of `output_every`."""
    if dt <= 0:
        raise SimulationError("nonpositive step")
    if not (math.isfinite(dt) and math.isfinite(t_end / dt)):
        raise SimulationError("non-finite step, end time or step count")
    if output_every < 1:
        raise SimulationError("output_every must be >= 1")
    steps = max(1, int(round(t_end / dt)))
    return steps + -steps % output_every


def run(model: LagrangianModel, grid: Grid, dt: float, t_end: float,
        initial: SimState, output_every: int = 1,
        on_frame=None) -> SimTrace:
    """Integrate to t_end, recording every `output_every` steps.

    Every step checks the state it steps from for the CFL condition
    (see `step`) and the state it produced for finiteness, so a CFL
    violation or a blow-up is reported at the first step that meets it,
    with no numpy overflow or invalid-value warning on its way there.
    `on_frame`, if given, is called with each recorded state (the
    initial one first) as soon as it is recorded."""
    if grid.ndim != model.k - 1:
        raise ConfigError(f"model has {model.k - 1} spatial directions, "
                          f"grid has {grid.ndim}")
    steps = _steps(dt, t_end, output_every)
    state = initial.check_finite()
    frames = []
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(steps + 1):
            if j:
                state = step(model, state, grid, dt).check_finite()
            if j % output_every == 0:
                frames.append(state)
                if on_frame is not None:
                    on_frame(state)
    return SimTrace(
        model_name=model.name, params=dict(model.params), grid=grid,
        dt=dt, output_every=output_every,
        t=np.array([f.t for f in frames]),
        phi=np.stack([f.phi for f in frames]),
        phidot=np.stack([f.phidot for f in frames]),
        s1=np.stack([f.s1 for f in frames]))


# -- trace-derived quantities ------------------------------------------
# Trace suites difference along every direction of the trailing (time,
# space) grid axes with `_d1`'s central formula, ends not wrapped, on the
# reported interior only: `halo` frames stripped at both ends of time and
# two layers at both ends of each spatial axis (`_trace_trim`).  No value
# is computed at the ends.  The trace residuals walk that interior, and
# `trace_lagrangian` every frame, in time slabs (`_map_slabs`), so their
# memory does not grow with the frame count; `verify` walks each trace
# once and hands every slab to each trace suite it runs.

# space-time samples in flight in a trace walk (at least one frame per
# slab): a residual's working memory scales with it, not with the frames
TRACE_SLAB_SAMPLES = 1 << 17
# The most threads a trace walk uses: two were measured against one on a
# 2-CPU host (BENCH_29.json), a larger host is not measured.
MAX_WALKERS = 2


def _trace_interior(k, halo):
    """The slices of the reported interior over the trailing k grid axes:
    `halo` frames off both ends of time, two layers off both ends of
    each spatial axis."""
    return [slice(halo, -halo)] + [slice(2, -2)] * (k - 1)


def _trace_d1(f, spacings, a, halo):
    """d_a f over the trailing len(spacings) grid axes of f, on the
    interior `_trace_trim(..., halo)` keeps, by `_d1`'s central formula
    (so bit for bit the interior of `_d1`)."""
    inner = _trace_interior(len(spacings), halo)
    lo, hi = inner.copy(), inner.copy()
    lo[a] = slice(inner[a].start - 1, inner[a].stop - 1)
    hi[a] = slice(inner[a].start + 1, inner[a].stop + 1 or None)
    return (f[(Ellipsis, *hi)] - f[(Ellipsis, *lo)]) / (2. * spacings[a])


def _trace_div(fields, spacings, halo):
    """sum_a d_a fields[..., a, *G] over the trailing grid axes G, on the
    interior of `_trace_d1`, added in place.  Adding +0.0 last turns a
    sum of -0 terms into +0, as a sum started from 0 gives."""
    k = len(spacings)
    fields = np.moveaxis(fields, -k - 1, 0)
    div = _trace_d1(fields[0], spacings, 0, halo)
    for a in range(1, k):
        div += _trace_d1(fields[a], spacings, a, halo)
    div += 0.0
    return div


def _trace_trim(arr, k, halo):
    """arr with `halo` layers stripped at both ends of the first of its
    last k axes (time) and two at both ends of the other k - 1."""
    return arr[(Ellipsis, *_trace_interior(k, halo))]


def trace_point_arrays(model: LagrangianModel, trace: SimTrace,
                       frames=slice(None)):
    """Phase-point coordinate arrays over the (time, space) trace grid,
    at the trace frames `frames` (all by default).

    Returns (q (n, T, *S), v (n, k, T, *S), s (k, T, *S), spacings (k,)).
    Spatial velocities are central differences of the stored fields; the
    time spacing is the whole trace's dt_out.
    """
    q = np.moveaxis(trace.phi[frames], 0, 1)        # (n, T, *S)
    v, s = _point_arrays(model, trace.grid, q,
                         np.moveaxis(trace.phidot[frames], 0, 1),
                         trace.s1[frames])
    return q, v, s, np.array([trace.dt_out] + list(trace.grid.spacing))


def _map_slabs(fn, model, trace, halo=1, ends=2, weight=1) -> list:
    """fn(q, v, s, spacings, jet) of every slab of the frames [ends,
    T-ends) of `trace`, in slab order: the arrays `trace_point_arrays`
    and `evaluate_jet_batch` give over the slab's frames and `halo` more
    at both ends, which `_trace_trim(..., halo)` strips again.  W threads,
    the caller's among them, take the slabs in turn: one per CPU this
    process may run on, up to MAX_WALKERS.  A slab holds max(1,
    TRACE_SLAB_SAMPLES // (W * weight * prod(S))) frames, so the samples
    in flight do not grow with W; no result depends on W or the slab
    size.  After a failure or an interrupt no slab starts and every
    thread is joined, then the first failing slab's error is raised.  A
    trace of 2 * ends frames or fewer has no slab and raises."""
    T = trace.t.size
    if T < 2 * ends + 1:
        raise SimulationError(
            f"trace residuals need at least {2 * ends + 1} frames, "
            f"the trace has {T}")
    workers = min(_cpus(), MAX_WALKERS)
    per = max(1, TRACE_SLAB_SAMPLES // (workers * weight * trace.s1[0].size))
    slabs = [slice(lo - halo, min(lo + per, T - ends) + halo)
             for lo in range(ends, T - ends, per)]
    results, errors, lock = [None] * len(slabs), {}, threading.Lock()
    pending = list(enumerate(slabs))[::-1]  # popped first slab first

    def walk():
        while True:
            with lock:
                if errors or not pending:
                    return
                i, frames = pending.pop()
            try:
                q, v, s, spacings = trace_point_arrays(model, trace,
                                                       frames)
                results[i] = fn(q, v, s, spacings,
                                evaluate_jet_batch(model, q, v, s))
            except Exception as exc:
                with lock:
                    errors[i] = exc

    threads = []
    try:
        for _ in range(min(workers, len(results)) - 1):
            threads.append(threading.Thread(target=walk))
            threads[-1].start()
        walk()
    finally:
        with lock:
            pending.clear()
        for thread in threads:
            if thread.ident is not None:  # started
                thread.join()
    if errors:
        raise errors[min(errors)]
    return results


def trace_el_residual(model: LagrangianModel, trace: SimTrace):
    """Max Euler-Lagrange residuals of a trace resampled to second jets.

    Time derivatives come from the recorded frames, spatial ones from the
    grid; the result is reported on the interior (two layers stripped in
    every direction, including time).  The trace is walked slab by slab,
    in memory independent of the frame count."""
    def maxima(q, v, s, spacings, jet):
        a, dsdt = _second_jet(trace.grid, q, v, s[0], jet)
        # the time-time entries on the interior only; the ends stay 0
        _trace_trim(a[:, 0, 0], model.k, 1)[...] = _trace_d1(
            v[:, 0], spacings, 0, 1)
        _trace_trim(dsdt[0, 0], model.k, 1)[...] = _trace_d1(
            s[0], spacings, 0, 1)
        rEL, rS = el_residual_batch(jet, v, a, dsdt)
        return [np.max(np.abs(_trace_trim(r, model.k, 1))) for r in (rEL, rS)]

    # a and dsdt hold k^2 entries per sample, so k^2 times smaller slabs
    return tuple(float(x) for x in np.max(
        _map_slabs(maxima, model, trace, weight=model.k ** 2), axis=0))


def energy_monitor(model: LagrangianModel, state: SimState,
                   grid: Grid) -> float:
    """Discrete energy sum((phidot . p_t - L) dV) with s frozen to zero.

    Spatial velocities use forward differences on the staggered cells,
    which makes the monitor an exact invariant of the undamped
    semidiscrete wave system."""
    n, k = model.n, model.k
    d = grid.ndim
    phi, phidot = state.phi, state.phidot
    grads = []
    for a in range(d):
        ext = phi
        if grid.bc == "periodic":  # the last cell differences to the first
            ext = np.concatenate((phi, phi[_at(a - d, None, 1)]),
                                 axis=1 + a)
        grads.append(np.diff(ext, axis=1 + a) / grid.spacing[a])
    if grid.bc == "dirichlet":
        region = tuple(slice(0, -1) for _ in range(d))
        phi_c = phi[(slice(None),) + region]
        dot_c = phidot[(slice(None),) + region]
        grads = [g[(slice(None),) + tuple(
            slice(0, -1) if b != a else slice(None) for b in range(d))]
            for a, g in enumerate(grads)]
    else:
        phi_c, dot_c = phi, phidot
    S = phi_c.shape[1:]
    v = np.zeros((n, k) + S)
    v[:, 0] = dot_c
    for a in range(d):
        v[:, 1 + a] = grads[a]
    jet = evaluate_jet_batch(model, phi_c, v, np.zeros((k,) + S))
    dens = np.einsum("i...,i...->...", dot_c, jet.dLdv[:, 0]) - jet.L
    return float(np.sum(dens) * np.prod(grid.spacing))


def trace_lagrangian(model: LagrangianModel, trace: SimTrace) -> np.ndarray:
    """Pointwise L along the trace, shape (T, *S), evaluated slab by slab
    over every frame (L takes no time derivative, so slabs need no halo)."""
    return np.concatenate(_map_slabs(lambda *slab: slab[-1].L, model, trace,
                                     halo=0, ends=0))


def s_accumulation_check(trace: SimTrace, model: LagrangianModel) -> float:
    """Max pointwise gap between s1 and the trapezoid quadrature of L
    along the trace (both should accumulate the Lagrangian density)."""
    L = trace_lagrangian(model, trace)
    integral = np.trapezoid(L, x=trace.t, axis=0)
    return float(np.max(np.abs(trace.s1[-1] - trace.s1[0] - integral)))


# -- trace export/import -----------------------------------------------
# trace.npz holds the arrays `load_trace` reads; trace.csv is an export
# for other tools and is never read back.  Writer processes
# (`_trace_csv.py`) format its rows while `run` steps, and the exporting
# process appends them in frame order (`_TraceExport`).

TRACE_ARRAYS = ("t", "phi", "phidot", "s1")
CSV_WRITER = Path(__file__).with_name("_trace_csv.py")
# The most writers an export starts.  Two writers were measured against
# one on a 2-CPU host (BENCH_23.json); whether more gain on a larger
# host is not measured, and each writer is a process of about 25 MB
# that formats the whole mesh.
MAX_WRITERS = 2


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _writer_count() -> int:
    """One trace.csv writer per CPU this process may run on, up to
    MAX_WRITERS."""
    return min(_cpus(), MAX_WRITERS)


class _TraceExport:
    """A trace directory being written; a context manager.

    Entering it creates the directory, opens trace.csv under a temporary
    name, writes the header and starts the writer processes
    (`_writer_count`), so a path that cannot be written fails
    (ConfigError) before any step runs.  `frame` sends frame f's float64
    bytes to writer f mod W, after appending the rows of frame f - W,
    which that writer holds, so each writer has at most one frame in
    flight and the frames land in order.  `finish` appends the last
    frames, reaps the writers, writes manifest.json and trace.npz and
    moves trace.csv into place, the last step.  Leaving the block by any
    exception kills and reaps the writers and removes the temporary
    file, or the directory if it was created here, so a failed export
    leaves no trace.csv.  A writer that fails raises ConfigError naming
    trace.csv, and a write that fails (a full disk) ConfigError naming
    the directory."""

    def __init__(self, directory, grid: Grid, n: int):
        self.directory = Path(directory)
        self.grid = grid
        self.cols = (["t"] + [f"x{a + 1}" for a in range(grid.ndim)]
                     + [f"phi{i}" for i in range(n)]
                     + [f"phidot{i}" for i in range(n)] + ["s1"])
        self.part = self.directory / "trace.csv.part"
        # the outermost directory this export creates
        self.created = next((p for p in (*reversed(self.directory.parents),
                                         self.directory)
                             if not p.exists()), None)
        self.out = None
        self.procs = []
        self.sent = 0

    def __enter__(self):
        try:
            with self._writing():
                self.directory.mkdir(parents=True, exist_ok=True)
                self.out = open(self.part, "wb")
                self.out.write((",".join(self.cols) + "\r\n").encode())
            command = [sys.executable, "-I", "-S", str(CSV_WRITER),
                       str(math.prod(self.grid.shape)), str(self.grid.ndim),
                       str(len(self.cols) - 1 - self.grid.ndim)]
            mesh = [m.ravel() for m in self.grid.mesh()]
            for _ in range(_writer_count()):
                self.procs.append(subprocess.Popen(
                    command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE))
            for proc in self.procs:
                self._send(proc, *mesh)
        except BaseException:
            self._abort()
            raise
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self._abort()

    def frame(self, state: SimState):
        """Send `state` (frame f: t, phi, phidot, s1) to writer f mod W,
        once the rows of frame f - W, which it holds, are appended."""
        if self.sent >= len(self.procs):
            self._append(self.sent - len(self.procs))
        self._send(self.procs[self.sent % len(self.procs)],
                   np.array([state.t]), state.phi, state.phidot, state.s1)
        self.sent += 1

    def _send(self, proc, *arrays):
        try:
            for a in arrays:
                proc.stdin.write(memoryview(np.ascontiguousarray(
                    a, dtype=np.float64).reshape(-1)).cast("B"))
            # the whole frame, so its writer can format it now
            proc.stdin.flush()
        except OSError:  # the writer has gone
            raise self._failed(proc)

    def _append(self, f):
        """Append frame f's rows, read from the writer that formats it."""
        proc = self.procs[f % len(self.procs)]
        head = proc.stdout.read(8)
        size = int.from_bytes(head, "little")
        rows = proc.stdout.read(size) if len(head) == 8 else b""
        if not rows or len(rows) != size:  # no record, or one cut short
            raise self._failed(proc)
        with self._writing():
            self.out.write(rows)

    @contextlib.contextmanager
    def _writing(self):
        """Turn an OSError of the trace directory or of trace.csv (a bad
        path, a full disk) into ConfigError."""
        try:
            yield
        except OSError as exc:
            raise ConfigError(
                f"cannot write a trace to {self.directory}: {exc}")

    def _failed(self, proc) -> ConfigError:
        """The error of `proc`, a writer that ended early: its exit code
        and the last line it wrote to stderr."""
        err = proc.stderr.read().decode(errors="replace").splitlines()
        proc.wait()
        return ConfigError(
            f"the trace.csv writer for {self.directory} failed (exit "
            f"{proc.returncode})" + (f": {err[-1]}" if err else ""))

    def _abort(self):
        for proc in self.procs:
            proc.kill()
            proc.wait()
            for pipe in (proc.stdin, proc.stdout, proc.stderr):
                with contextlib.suppress(OSError):
                    pipe.close()
        if self.out is not None:
            with contextlib.suppress(OSError):
                self.out.close()
        if self.created is not None:
            shutil.rmtree(self.created, ignore_errors=True)
        else:
            with contextlib.suppress(OSError):
                self.part.unlink()

    def finish(self, trace: SimTrace, **fields) -> dict:
        """Append the frames still in flight, reap the writers, write
        manifest.json (with `fields` as further entries) and trace.npz,
        move trace.csv into place; return the manifest."""
        for f in range(max(0, self.sent - len(self.procs)), self.sent):
            self._append(f)
        for proc in self.procs:
            proc.stdin.close()
            if proc.wait():
                raise self._failed(proc)
            proc.stdout.close()
            proc.stderr.close()
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "kind": "trace",
            "model": trace.model_name,
            "params": trace.params,
            "grid": {"bounds": [list(b) for b in trace.grid.bounds],
                     "counts": list(trace.grid.counts),
                     "bc": trace.grid.bc},
            "dt": trace.dt,
            "output_every": trace.output_every,
            "frames": int(trace.t.size),
            "gauge": GAUGE_NOTE,
            "columns": self.cols,
            **fields,
        }
        with self._writing():
            self.out.close()
            with open(self.directory / "manifest.json", "w") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")
            # the members np.savez would write, from each array's own
            # buffer: the bytes copy np.savez makes of each array (4 MB
            # for a 101x101 trace) stays in glibc's heap, which raised
            # the benchmark's 101x101 membrane peak RSS by 6-16%
            with zipfile.ZipFile(self.directory / "trace.npz", "w") as npz:
                for key in TRACE_ARRAYS:
                    arr = np.ascontiguousarray(getattr(trace, key),
                                               dtype=np.float64)
                    with npz.open(f"{key}.npy", "w", force_zip64=True) as fh:
                        np.lib.format.write_array_header_1_0(
                            fh, np.lib.format.header_data_from_array_1_0(
                                arr))
                        fh.write(memoryview(arr).cast("B"))
            os.replace(self.part, self.directory / "trace.csv")
        return manifest


def save_trace(trace: SimTrace, directory):
    """Write trace.csv, manifest.json and trace.npz into `directory`.

    trace.csv has one row per frame and grid point (t, the grid
    coordinates, every phi, every phidot, s1; repr of each float),
    formatted by the writer processes every trace export uses: one per
    CPU up to MAX_WRITERS.  trace.npz holds t (F,), phi (F, n, *S),
    phidot (F, n, *S) and s1 (F, *S) as float64, with the members and
    bytes an uncompressed `np.savez` of them has;
    `load_trace` reads it.  A directory that cannot be written, or a
    writer that fails, raises ConfigError and leaves no trace.csv."""
    with _TraceExport(directory, trace.grid, trace.phi.shape[1]) as export:
        for idx in range(trace.t.size):
            export.frame(trace.state(idx))
        return export.finish(trace)


def load_trace(directory) -> SimTrace:
    """Rebuild a SimTrace from the manifest.json and trace.npz that
    `save_trace` wrote; trace.csv is not read.

    Each array must have the float64 dtype and the shape that the
    manifest's frame count, grid counts and phi* columns give, and hold
    finite values only.  A missing, malformed or inconsistent file
    raises ConfigError naming it; a directory without trace.npz (written
    before the binary file was added) needs a new `kcontact simulate`."""
    directory = Path(directory)
    path = directory / "manifest.json"
    try:
        manifest = json.loads(path.read_text())
        if (manifest["kind"] != "trace"
                or manifest["schema_version"] != SCHEMA_VERSION):
            raise ValueError(f"not a schema-{SCHEMA_VERSION} trace manifest")
        grid = Grid(bounds=tuple(tuple(map(float, b))
                                 for b in manifest["grid"]["bounds"]),
                    counts=tuple(map(operator.index,
                                     manifest["grid"]["counts"])),
                    bc=manifest["grid"]["bc"])
        meta = dict(model_name=manifest["model"],
                    params=dict(manifest["params"]), grid=grid,
                    dt=manifest["dt"], output_every=manifest["output_every"])
        F, S = manifest["frames"], grid.shape
        n = sum(c[:3] == "phi" and c[3:].isdigit()
                for c in manifest["columns"])
    except KeyError as exc:
        raise ConfigError(f"trace manifest {path} lacks the key {exc}")
    except (OSError, ValueError, TypeError) as exc:
        raise ConfigError(f"cannot read trace manifest {path}: {exc}")
    path = directory / "trace.npz"
    if not path.is_file():
        raise ConfigError(f"trace arrays {path} not found; re-run "
                          f"`kcontact simulate` to write them")
    if not zipfile.is_zipfile(path):
        raise ConfigError(f"trace arrays {path} are not an npz (zip) file")
    shapes = {"t": (F,), "phi": (F, n) + S, "phidot": (F, n) + S,
              "s1": (F,) + S}
    arrays = {}
    try:
        with np.load(path, allow_pickle=False) as npz:
            for key in TRACE_ARRAYS:
                arr = arrays[key] = npz[key]
                if arr.dtype != np.float64 or arr.shape != shapes[key]:
                    raise ValueError(
                        f"{key} is {arr.dtype} {arr.shape}, expected "
                        f"float64 {shapes[key]}")
                if not np.isfinite(arr).all():
                    raise ValueError(f"{key} holds non-finite values")
    except KeyError:
        raise ConfigError(f"trace arrays {path} lack '{key}'")
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"cannot read trace arrays {path}: {exc}")
    return SimTrace(**meta, **arrays)
