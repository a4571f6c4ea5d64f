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

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .contact import solve_batch
from .dynamics import el_residual_batch, evolution_rhs_batch
from .errors import SimulationError
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
            if hi <= lo:
                raise ValueError("empty grid extent")

    @property
    def ndim(self) -> int:
        return len(self.counts)

    @property
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
        if self.ndim == 0:
            return ()
        return np.meshgrid(*self.axes(), indexing="ij")


@dataclass(frozen=True)
class SimState:
    """Fields at one time: phi (n, *S), phidot (n, *S), s1 (*S)."""

    phi: np.ndarray
    phidot: np.ndarray
    s1: np.ndarray
    t: float = 0.0

    def check_finite(self):
        if not (np.isfinite(self.phi).all() and np.isfinite(self.phidot).all()
                and np.isfinite(self.s1).all()):
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


def zero_state(model: LagrangianModel, grid: Grid) -> SimState:
    S = grid.shape
    return SimState(phi=np.zeros((model.n,) + S),
                    phidot=np.zeros((model.n,) + S),
                    s1=np.zeros(S), t=0.0)


# -- stencils -----------------------------------------------------------

def _along(f, axis):
    """Index builder for `f`: at(start, stop) selects start:stop along
    `axis` and everything along the other axes."""
    def at(start, stop):
        idx = [slice(None)] * f.ndim
        idx[axis] = slice(start, stop)
        return tuple(idx)
    return at


def _d1(f, h, axis, periodic):
    """Central first difference along `axis`, wrapped if `periodic`, else
    one-sided second-order at both ends with numpy's coefficients (it
    equals numpy's `gradient` with edge_order=2 bit for bit); also the
    trace stencil."""
    if periodic:
        return (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis)) / (2 * h)
    at = _along(f, axis)
    out = np.empty_like(f)
    out[at(1, -1)] = (f[at(2, None)] - f[at(None, -2)]) / (2. * h)
    out[at(None, 1)] = (-1.5 / h * f[at(None, 1)] + 2. / h * f[at(1, 2)]
                        + -0.5 / h * f[at(2, 3)])
    out[at(-1, None)] = (0.5 / h * f[at(-3, -2)] + -2. / h * f[at(-2, -1)]
                         + 1.5 / h * f[at(-1, None)])
    return out


def _d2(f, h, axis, periodic):
    if periodic:
        return (np.roll(f, -1, axis=axis) - 2 * f
                + np.roll(f, 1, axis=axis)) / h ** 2
    at = _along(f, axis)
    out = np.empty_like(f)
    out[at(1, -1)] = (f[at(2, None)] - 2 * f[at(1, -1)]
                      + f[at(None, -2)]) / h ** 2
    # edge values are only consumed by masked-off Dirichlet nodes
    out[at(None, 1)] = out[at(1, 2)]
    out[at(-1, None)] = out[at(-2, -1)]
    return out


def _point_arrays(model, grid, phi, phidot, s1):
    """Velocity and dissipation coordinate arrays (v, s) for batched
    evaluation.  The spatial axes are the last grid.ndim axes of every
    field, so phi (n, *S) and phi (n, T, *S) are both accepted."""
    n, k = model.n, model.k
    v = np.zeros((n, k) + phi.shape[1:])
    v[:, 0] = phidot
    for x in range(grid.ndim):
        v[:, 1 + x] = _d1(phi, grid.spacing[x], x - grid.ndim,
                          grid.bc == "periodic")
    s = np.zeros((k,) + phi.shape[1:])
    s[0] = s1
    return v, s


def _second_jet(grid, phi, v, s1, jet):
    """Stencil entries of the second jet (a, dsdt) for the arrays of
    `_point_arrays` and their `jet`: the spatial and mixed entries of a
    and dsdt[x, 0] = d_x s^1, each computed only where a stored entry of
    the jet multiplies it in the Euler-Lagrange operator (a[:, b, c]
    meets d2Ldvdv[:, c, :, b] and dsdt[b, c] meets d2Ldvds[:, b, c]).
    Every other entry, a[:, 0, 0] and dsdt[0, 0] among them, stays in the
    untouched pages of np.zeros, for the caller to fill in or solve for.
    """
    n, k = v.shape[:2]
    d = grid.ndim
    periodic = grid.bc == "periodic"
    need_a = jet.mask_vv.any(axis=(0, 2)).T
    need_s = jet.mask_vs.any(axis=0)
    a = np.zeros((n, k, k) + phi.shape[1:])
    dsdt = np.zeros((k, k) + phi.shape[1:])

    def fill(positions, stencil, f, h, axis):
        positions = [bc for bc in positions if need_a[bc]]
        if positions:
            val = stencil(f, h, axis, periodic)
            for b, c in positions:
                a[:, b, c] = val

    for x in range(d):
        h, ax = grid.spacing[x], x - d
        fill(((0, 1 + x), (1 + x, 0)), _d1, v[:, 0], h, ax)
        fill(((1 + x, 1 + x),), _d2, phi, h, ax)
        for y in range(x + 1, d):
            fill(((1 + x, 1 + y), (1 + y, 1 + x)), _d1, v[:, 1 + x],
                 grid.spacing[y], y - d)
        if need_s[1 + x, 0]:
            dsdt[1 + x, 0] = _d1(s1, h, ax, periodic)
    return a, dsdt


def _boundary_mask(grid: Grid):
    if grid.bc != "dirichlet" or grid.ndim == 0:
        return None
    mask = np.zeros(grid.shape, dtype=bool)
    for a in range(grid.ndim):
        idx = [slice(None)] * grid.ndim
        idx[a] = 0
        mask[tuple(idx)] = True
        idx[a] = -1
        mask[tuple(idx)] = True
    return mask


def _state_rhs(model, grid, phi, phidot, s1, mask):
    v, s = _point_arrays(model, grid, phi, phidot, s1)
    jet = evaluate_jet_batch(model, phi, v, s)
    a, dsdt = _second_jet(grid, phi, v, s1, jet)
    accel, L = evolution_rhs_batch(model, phi, v, s, a, dsdt, jet=jet)
    dphi = phidot.copy()
    if mask is not None:
        accel[:, mask] = 0.0
        dphi[:, mask] = 0.0
    return dphi, accel, L


def char_speeds(model: LagrangianModel, state: SimState, grid: Grid
                ) -> np.ndarray:
    """Characteristic speed estimate per spatial direction from the
    Hessian blocks, the maximum over every grid point of the current
    state."""
    d = grid.ndim
    if d == 0:
        return np.zeros(0)
    v, s = _point_arrays(model, grid, state.phi, state.phidot, state.s1)
    jet = evaluate_jet_batch(model, state.phi, v, s)
    speeds = np.zeros(d)
    for a in range(d):
        X = solve_batch(jet.d2Ldvdv[:, 0, :, 0],
                        jet.d2Ldvdv[:, 1 + a, :, 1 + a],
                        "not hyperbolic-evolvable in direction t")
        lam = np.linalg.eigvals(np.moveaxis(X, (0, 1), (-2, -1)))
        speeds[a] = np.sqrt(np.max(np.abs(lam)))
    return speeds


def check_cfl(model: LagrangianModel, state: SimState, grid: Grid,
              dt: float):
    """Enforce dt <= CFL_FACTOR * h / c per spatial direction."""
    if dt <= 0:
        raise SimulationError("nonpositive step")
    speeds = char_speeds(model, state, grid)
    for a, c in enumerate(speeds):
        if c > 0 and dt > CFL_FACTOR * grid.spacing[a] / c * (1 + 1e-9):
            raise SimulationError(
                f"CFL violation in direction {a + 1} at t={state.t:.6g}: "
                f"dt={dt:.4g} > {CFL_FACTOR * grid.spacing[a] / c:.4g}")


def step(model: LagrangianModel, state: SimState, grid: Grid,
         dt: float, _mask=None, _skip_cfl=False) -> SimState:
    """One classical RK4 step of (phi, phidot, s1)."""
    if not _skip_cfl:
        check_cfl(model, state, grid, dt)
    mask = _boundary_mask(grid) if _mask is None else _mask
    y = (state.phi, state.phidot, state.s1)

    def f(phi, phidot, s1):
        return _state_rhs(model, grid, phi, phidot, s1, mask)

    k1 = f(*y)
    k2 = f(y[0] + 0.5 * dt * k1[0], y[1] + 0.5 * dt * k1[1],
           y[2] + 0.5 * dt * k1[2])
    k3 = f(y[0] + 0.5 * dt * k2[0], y[1] + 0.5 * dt * k2[1],
           y[2] + 0.5 * dt * k2[2])
    k4 = f(y[0] + dt * k3[0], y[1] + dt * k3[1], y[2] + dt * k3[2])
    new = tuple(y[i] + dt / 6.0 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i])
                for i in range(3))
    return SimState(phi=new[0], phidot=new[1], s1=new[2], t=state.t + dt)


def run(model: LagrangianModel, grid: Grid, dt: float, t_end: float,
        initial: SimState, output_every: int = 1) -> SimTrace:
    """Integrate to t_end, recording every `output_every` steps.

    The state after every step is checked for finiteness, so a blow-up
    is reported at the first step that produced it, and every recorded
    frame the run steps on from (t=0 included) for the CFL condition."""
    if dt <= 0:
        raise SimulationError("nonpositive step")
    if output_every < 1:
        raise SimulationError("output_every must be >= 1")
    steps = max(1, int(round(t_end / dt)))
    if steps % output_every:
        steps += output_every - steps % output_every
    mask = _boundary_mask(grid)
    state = initial.check_finite()
    times = [state.t]
    frames = [state]
    for j in range(steps):
        if j % output_every == 0:
            check_cfl(model, state, grid, dt)
        state = step(model, state, grid, dt, _mask=mask,
                     _skip_cfl=True).check_finite()
        if (j + 1) % output_every == 0:
            frames.append(state)
            times.append(state.t)
    return SimTrace(
        model_name=model.name, params=dict(model.params), grid=grid,
        dt=dt, output_every=output_every, t=np.array(times),
        phi=np.stack([f.phi for f in frames]),
        phidot=np.stack([f.phidot for f in frames]),
        s1=np.stack([f.s1 for f in frames]))


# -- trace-derived quantities ------------------------------------------
# Trace suites difference along every direction of the trailing (time,
# space) grid axes with `_d1`, ends not wrapped, and report on the
# interior, where the one-sided end stencils never enter.

def _trace_d1(f, spacings, a):
    """d_a f over the trailing len(spacings) grid axes of f."""
    return _d1(f, spacings[a], a - len(spacings), False)


def _trace_div(fields, spacings):
    """sum_a d_a fields[..., a, *G] over the trailing grid axes G."""
    k = len(spacings)
    return sum(_trace_d1(np.moveaxis(fields, -k - 1, 0)[a], spacings, a)
               for a in range(k))


def _trace_trim(arr, k):
    """arr with two layers stripped at both ends of its last k axes."""
    return arr[(Ellipsis,) + (slice(2, -2),) * k]


def trace_point_arrays(model: LagrangianModel, trace: SimTrace):
    """Phase-point coordinate arrays over the (time, space) trace grid.

    Returns (q (n, T, *S), v (n, k, T, *S), s (k, T, *S), spacings (k,)).
    Spatial velocities are central differences of the stored fields.
    """
    q = np.moveaxis(trace.phi, 0, 1)        # (n, T, *S)
    v, s = _point_arrays(model, trace.grid, q,
                         np.moveaxis(trace.phidot, 0, 1), trace.s1)
    spacings = np.array([trace.dt_out] + list(trace.grid.spacing))
    return q, v, s, spacings


def trace_el_residual(model: LagrangianModel, trace: SimTrace):
    """Max Euler-Lagrange residuals of a trace resampled to second jets.

    Time derivatives come from the recorded frames, spatial ones from the
    grid; the result is reported on the interior (two layers stripped in
    every direction, including time)."""
    q, v, s, spacings = trace_point_arrays(model, trace)
    jet = evaluate_jet_batch(model, q, v, s)
    a, dsdt = _second_jet(trace.grid, q, v, trace.s1, jet)
    a[:, 0, 0] = _trace_d1(v[:, 0], spacings, 0)
    dsdt[0, 0] = _trace_d1(trace.s1, spacings, 0)
    rEL, rS = el_residual_batch(model, q, v, s, a, dsdt, jet=jet)
    return tuple(float(np.max(np.abs(_trace_trim(r, model.k))))
                 for r in (rEL, rS))


def energy_monitor(model: LagrangianModel, state: SimState,
                   grid: Grid) -> float:
    """Discrete energy sum((phidot . p_t - L) dV) with s frozen to zero.

    Spatial velocities use forward differences on the staggered cells,
    which makes the monitor an exact invariant of the undamped
    semidiscrete wave system."""
    n, k = model.n, model.k
    d = grid.ndim
    phi, phidot = state.phi, state.phidot
    if d == 0:
        v = np.zeros((n, k))
        v[:, 0] = phidot
        jet = evaluate_jet_batch(model, phi, v, np.zeros(k))
        return float(np.sum(phidot * jet.dLdv[:, 0]) - jet.L)
    grads = []
    for a in range(d):
        if grid.bc == "periodic":
            g = (np.roll(phi, -1, axis=1 + a) - phi) / grid.spacing[a]
        else:
            g = (np.diff(phi, axis=1 + a)) / grid.spacing[a]
        grads.append(g)
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
    """Pointwise L along the trace, shape (T, *S)."""
    q, v, s, _ = trace_point_arrays(model, trace)
    jet = evaluate_jet_batch(model, q, v, s)
    return jet.L


def s_accumulation_check(trace: SimTrace, model: LagrangianModel) -> float:
    """Max pointwise gap between s1 and the trapezoid quadrature of L
    along the trace (both should accumulate the Lagrangian density)."""
    L = trace_lagrangian(model, trace)
    integral = np.trapezoid(L, x=trace.t, axis=0)
    return float(np.max(np.abs(trace.s1[-1] - trace.s1[0] - integral)))


def el_convergence(model: LagrangianModel, exact, grids, t_end: float,
                   dt_factor: float = 0.25, exact_dt=None,
                   output_every: int = 10 ** 9):
    """Observed convergence order against an exact solution.

    `exact(t, mesh)` returns the fields (n, *S) on the grid mesh;
    `exact_dt` returns their time derivative (finite-differenced from
    `exact` when omitted).  Each grid is run with dt = dt_factor * h.
    Returns a report with per-grid errors and the least-squares order.
    """
    if len(grids) < 2:
        raise ValueError("need at least two grids")
    hs, errs = [], []
    for grid in grids:
        mesh = grid.mesh()
        h = min(grid.spacing)
        dt = dt_factor * h
        phi0 = np.asarray(exact(0.0, mesh), dtype=float)
        if exact_dt is not None:
            dot0 = np.asarray(exact_dt(0.0, mesh), dtype=float)
        else:
            eps = 1e-6
            dot0 = (np.asarray(exact(eps, mesh), dtype=float)
                    - np.asarray(exact(-eps, mesh), dtype=float)) / (2 * eps)
        initial = SimState(phi=phi0, phidot=dot0,
                           s1=np.zeros(grid.shape), t=0.0)
        every = min(output_every, max(1, int(round(t_end / dt))))
        tr = run(model, grid, dt, t_end, initial, output_every=every)
        ref = np.asarray(exact(float(tr.t[-1]), mesh), dtype=float)
        errs.append(float(np.max(np.abs(tr.phi[-1] - ref))))
        hs.append(h)
    if min(errs) == 0.0:
        return {"hs": hs, "errors": errs, "order": None}
    order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    return {"hs": hs, "errors": errs, "order": order}


# -- trace export/import -----------------------------------------------

def save_trace(trace: SimTrace, directory):
    """Write trace.csv plus manifest.json into `directory`."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    n = trace.phi.shape[1]
    d = trace.grid.ndim
    mesh = trace.grid.mesh()
    cols = (["t"] + [f"x{a + 1}" for a in range(d)]
            + [f"phi{i}" for i in range(n)]
            + [f"phidot{i}" for i in range(n)] + ["s1"])
    mesh_cols = [list(map(repr, m.ravel().tolist())) for m in mesh]
    with open(directory / "trace.csv", "w", newline="") as fh:
        # the rows csv.writer would write: repr of each float, "\r\n"
        # line ends; one frame's strings at a time
        fh.write(",".join(cols) + "\r\n")
        for fidx, t in enumerate(trace.t):
            size = trace.s1[fidx].size
            frame = ([[repr(float(t))] * size] + mesh_cols
                     + [list(map(repr, col.tolist())) for col in
                        (*trace.phi[fidx].reshape(n, -1),
                         *trace.phidot[fidx].reshape(n, -1),
                         trace.s1[fidx].ravel())])
            fh.write("\r\n".join(map(",".join, zip(*frame))) + "\r\n")
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
        "columns": cols,
    }
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def load_trace(directory) -> SimTrace:
    """Rebuild a SimTrace from `save_trace` output."""
    directory = Path(directory)
    with open(directory / "manifest.json") as fh:
        manifest = json.load(fh)
    grid = Grid(bounds=tuple(tuple(b) for b in manifest["grid"]["bounds"]),
                counts=tuple(manifest["grid"]["counts"]),
                bc=manifest["grid"]["bc"])
    data = np.loadtxt(directory / "trace.csv", delimiter=",", skiprows=1,
                      ndmin=2)
    d = grid.ndim
    ncols = data.shape[1]
    n = (ncols - 2 - d) // 2
    F = manifest["frames"]
    S = grid.shape
    # copies, so that the parsed block is freed on return
    t = data[:: int(np.prod(S)) if d else 1, 0][:F].copy()
    phi = data[:, 1 + d:1 + d + n].T.reshape((n, F) + S)
    dot = data[:, 1 + d + n:1 + d + 2 * n].T.reshape((n, F) + S)
    s1 = data[:, -1].reshape((F,) + S).copy()
    return SimTrace(model_name=manifest["model"], params=manifest["params"],
                    grid=grid, dt=manifest["dt"],
                    output_every=manifest["output_every"], t=t,
                    phi=np.moveaxis(phi, 0, 1).copy(),
                    phidot=np.moveaxis(dot, 0, 1).copy(), s1=s1)
