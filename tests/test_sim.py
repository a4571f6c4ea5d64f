"""Method-of-lines integrator: stability guards, accuracy, export."""

import csv
import dataclasses
import io
import json
import math
import zipfile

import numpy as np
import pytest

from kcontact import (ConfigError, Grid, LagrangianModel, PdeSpec, SimState,
                      SimTrace, SimulationError, build_lagrangian,
                      damped_oscillator, energy_monitor, load_trace, membrane,
                      run, s_accumulation_check, save_trace, step, string,
                      trace_el_residual, trace_point_arrays)
from kcontact import sim
from kcontact.jet import evaluate_jet_batch
from kcontact.sim import (CFL_FACTOR, _d1, _d2, _eigvals, _point_arrays,
                          _state_rhs, _trace_d1, _trace_div, _trace_trim,
                          char_speeds, check_cfl)
from kcontact.taylor import cos, exp, sqrt
from conftest import assert_reaped, pin_writers
from test_jet import born_infeld


def zero_state(model, grid):
    """Fields and s^1 zero at every grid point, t = 0."""
    S = grid.shape
    return SimState(phi=np.zeros((model.n,) + S),
                    phidot=np.zeros((model.n,) + S), s1=np.zeros(S))


def jet_at(model, grid, state):
    """The jet at every grid point of `state`, as `step` evaluates it."""
    v, s = _point_arrays(model, grid, state.phi, state.phidot, state.s1)
    return evaluate_jet_batch(model, state.phi, v, s)


def coupled_wave():
    """L = u_t^2/2 - u_x^2/2 + 0.2 s u_t cos u - u_t^4/40 couples
    velocity and dissipation (d2L/du_t ds = 0.2 cos u) and has a
    point-dependent time-time Hessian."""
    return LagrangianModel(
        n=1, k=2, name="coupled_wave",
        lagrangian=lambda q, v, s: (0.5 * v[0][0] * v[0][0]
                                    - 0.5 * v[0][1] * v[0][1]
                                    + 0.2 * s[0] * v[0][0] * cos(q[0])
                                    - 0.025 * v[0][0] ** 4))


def growing_speed():
    """L = u_t^2/2 - exp(u) u_x^2/2 with a uniform field moving at unit
    speed on a 16-point periodic grid: u_x stays 0 and u = t, so the
    wave speed exp(t/2) grows through every CFL limit.  Returns (model,
    grid, initial state)."""
    model = LagrangianModel(
        n=1, k=2, name="growing_speed",
        lagrangian=lambda q, v, s: (0.5 * v[0][0] * v[0][0]
                                    - 0.5 * exp(q[0]) * v[0][1] * v[0][1]))
    grid = Grid(bounds=((0.0, 2 * np.pi),), counts=(16,), bc="periodic")
    init = SimState(phi=np.zeros((1, 16)), phidot=np.ones((1, 16)),
                    s1=np.zeros(16))
    return model, grid, init


def membrane_exact(mu, gamma):
    wd = np.sqrt(2 * mu ** 2 - gamma ** 2 / 4)

    def exact(t, mesh):
        X, Y = mesh
        amp = np.exp(-gamma * t / 2) * (np.cos(wd * t)
                                        + gamma / (2 * wd) * np.sin(wd * t))
        return (amp * np.sin(X) * np.sin(Y))[None]

    return exact


@pytest.mark.parametrize("shape", [(9,), (8, 11), (6, 9, 10)],
                         ids=["1d", "2d", "time-space"])
@pytest.mark.parametrize("h", [0.3, np.float64(np.pi / 100)],
                         ids=["float", "float64"])
@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_d1_equals_numpy_gradient_bitwise(shape, h, layout):
    # the Dirichlet/trace stencil is numpy's second-order gradient, bit
    # for bit (signed zeros included); numpy stays the oracle here
    f = np.random.default_rng(len(shape)).standard_normal(shape)
    f[..., 1] = 0.0
    if layout == "strided":  # as `sim._trace_div` hands it moved axes
        f = np.moveaxis(np.ascontiguousarray(np.moveaxis(f, 0, -1)), -1, 0)
    for axis in [*range(f.ndim), *range(-f.ndim, 0)]:
        got = _d1(f, h, axis, False)
        want = np.gradient(f, h, axis=axis, edge_order=2)
        assert got.tobytes() == want.tobytes(), axis


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("halo", [1, 2])
def test_trace_stencils_equal_the_interior_of_d1(k, halo):
    # the trace stencils compute the reported interior only; there they
    # equal `_d1` and the divergence summed from 0, bit for bit.  f[1, a]
    # runs +0, +0, -0, -0, ... along axis a, so where every term of a
    # divergence is -0 the sum must still read +0
    rng = np.random.default_rng(k + halo)
    G = (9, 10, 11)[:k]
    spacings = np.array([0.1, 0.3, 0.7])[:k]
    f = rng.standard_normal((2, k) + G)
    for a in range(k):
        zeros = np.where(np.arange(G[a]) // 2 % 2, -0.0, 0.0)
        f[1, a] = zeros.reshape([-1 if b == a else 1 for b in range(k)])
    terms = []
    for a in range(k):
        terms.append(_trace_d1(f[:, a], spacings, a, halo))
        want = _trace_trim(_d1(f[:, a], spacings[a], a - k, False), k, halo)
        assert terms[-1].tobytes() == want.tobytes(), a
    plain = sum(terms[1:], terms[0])
    assert np.any(np.signbit(plain) & (plain == 0))
    want = _trace_trim(sum(_d1(f[:, a], spacings[a], a - k, False)
                           for a in range(k)), k, halo)
    assert _trace_div(f, spacings, halo).tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(16,), (9, 12), (2, 5, 9, 12)],
                         ids=["1d", "2d", "field-time-space"])
@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_periodic_stencils_equal_roll_bitwise(shape, layout):
    # the wrapped stencils pad one cell at each end; the np.roll forms
    # stay the reference, bit for bit, signed zeros included
    f = np.random.default_rng(len(shape)).standard_normal(shape)
    f[..., ::4] = -0.0
    f[..., 1::4] = 0.0
    if layout == "strided":
        f = np.moveaxis(np.ascontiguousarray(np.moveaxis(f, 0, -1)), -1, 0)
    for h in (0.3, np.float64(np.pi / 50)):
        for axis in [*range(f.ndim), *range(-f.ndim, 0)]:
            up, down = np.roll(f, -1, axis=axis), np.roll(f, 1, axis=axis)
            want1 = (up - down) / (2 * h)
            want2 = (up - 2 * f + down) / h ** 2
            got1, got2 = _d1(f, h, axis, True), _d2(f, h, axis, True)
            assert got1.shape == got2.shape == f.shape
            assert got1.tobytes() == want1.tobytes(), (h, axis)
            assert got2.tobytes() == want2.tobytes(), (h, axis)


def test_one_by_one_eigenvalue_is_the_entry():
    # a 1x1 system skips LAPACK: the entry equals np.linalg.eigvals bit
    # for bit wherever LAPACK does not rescale it, and within 1 ulp
    # where it does (magnitudes below ~1e-138 or above ~1e138)
    mags = np.logspace(-300, 300, 6001)
    rng = np.random.default_rng(7)
    vals = np.concatenate([mags, -mags, rng.standard_normal(1000),
                           [0.0, -0.0, 5e-324, 1.7e308]])
    got = _eigvals(vals[None, None])
    want = np.linalg.eigvals(vals[:, None, None])
    assert got.shape == want.shape == (vals.size, 1)
    assert want.dtype == float
    got, want = got[:, 0], want[:, 0]
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))
    plain = (np.abs(vals) >= 1e-138) & (np.abs(vals) <= 1e138)
    plain |= vals == 0
    assert got[plain].tobytes() == want[plain].tobytes()
    # larger systems still go to LAPACK
    X = rng.standard_normal((2, 2, 5))
    assert np.array_equal(_eigvals(X),
                          np.linalg.eigvals(np.moveaxis(X, (0, 1), (-2, -1))))


class TestGuards:
    def test_grid_validation(self):
        with pytest.raises(ValueError, match="at least 8"):
            Grid(bounds=((0, 1),), counts=(4,))
        with pytest.raises(ValueError, match="extent"):
            Grid(bounds=((1, 1),), counts=(10,))
        with pytest.raises(ValueError, match="boundary"):
            Grid(bounds=((0, 1),), counts=(10,), bc="absorbing")

    def test_nonpositive_step(self):
        model = membrane(mu=1.0, gamma=0.0)
        grid = Grid(bounds=((0, np.pi), (0, np.pi)), counts=(9, 9))
        with pytest.raises(SimulationError, match="nonpositive step"):
            run(model, grid, 0.0, 1.0, zero_state(model, grid))

    def test_steps_rounded_to_whole_outputs(self):
        # steps rounded, at least one, up to a multiple of output_every;
        # a step, end time or step count that is not finite is refused
        model = membrane(mu=1.0, gamma=0.0)
        grid = Grid(bounds=((0, np.pi), (0, np.pi)), counts=(9, 9))
        for dt, t_end, every, frames in ((0.05, 0.3, 1, 7),
                                         (0.05, 0.3, 4, 3),
                                         (0.05, 0.01, 3, 2),
                                         (0.04, 0.3, 2, 5)):
            trace = run(model, grid, dt, t_end, zero_state(model, grid),
                        output_every=every)
            assert trace.t.size == frames
            assert trace.t[-1] == pytest.approx(dt * every * (frames - 1))
        for dt, t_end, every in ((0.0, 1.0, 1), (0.05, 1.0, 0),
                                 (math.nan, 1.0, 1), (0.05, math.nan, 1),
                                 (0.05, math.inf, 1), (math.inf, 1.0, 1),
                                 (1e-300, 1e300, 1)):
            with pytest.raises(SimulationError):
                run(model, grid, dt, t_end, zero_state(model, grid),
                    output_every=every)

    def test_cfl_violation(self):
        model = membrane(mu=2.0, gamma=0.0)
        grid = Grid(bounds=((0, np.pi), (0, np.pi)), counts=(17, 17))
        h = grid.spacing[0]
        state = zero_state(model, grid)
        jet = jet_at(model, grid, state)
        with pytest.raises(SimulationError, match="CFL"):
            check_cfl(jet, grid, h, state.t)  # dt = h > 0.4 h / 2
        check_cfl(jet, grid, 0.4 * h / 2.0, state.t)  # at the limit: ok

    def test_cfl_rechecked_at_output_frames(self):
        # L = u_t^2/2 - u_x^2/2 - u_x^4/4 + 0.1 s steepens its data, so
        # the wave speed grows; a step 2% under the t=0 limit exceeds
        # the limit later in the run (by up to 5% from t ~ 9.5)
        model = LagrangianModel(
            n=1, k=2, name="quartic",
            lagrangian=lambda q, v, s: (0.5 * v[0][0] * v[0][0]
                                        - 0.5 * v[0][1] * v[0][1]
                                        - 0.25 * v[0][1] ** 4
                                        + 0.1 * s[0]))
        grid = Grid(bounds=((0.0, 2 * np.pi),), counts=(64,),
                    bc="periodic")
        (x,) = grid.mesh()
        init = SimState(phi=0.1 * np.sin(x)[None], phidot=np.zeros((1, 64)),
                        s1=np.zeros(64))
        c0 = char_speeds(jet_at(model, grid, init), grid)[0]
        dt = 0.98 * CFL_FACTOR * grid.spacing[0] / c0
        with pytest.raises(SimulationError, match="CFL"):
            run(model, grid, dt, 20.0, init, output_every=10)

    def test_cfl_checked_at_every_step(self):
        # a uniform field moving at unit speed keeps u_x = 0 and u = t,
        # and its wave speed exp(u/2) passes the limit 2 of dt = 0.2 h
        # at t = 2 ln 2, between the run's two output frames
        model, grid, init = growing_speed()
        h = grid.spacing[0]
        dt = 0.2 * h
        limit = CFL_FACTOR * h / dt
        j = math.ceil(2 * math.log(limit) / dt)  # first step from u > 2 ln 2
        assert (j - 1) * dt + 0.01 < 2 * math.log(limit) < j * dt - 0.01
        steps = 60
        assert j < steps
        with pytest.raises(SimulationError,
                           match=f"CFL violation in direction 1 at "
                                 f"t={j * dt:.6g}:"):
            run(model, grid, dt, steps * dt, init, output_every=steps)

    def test_cfl_checked_at_every_grid_point(self):
        # a steep, narrow bump centred on grid point 5 of 640: every
        # 10th point (a strided sample of 64) sees a flat state with
        # speed ~1, while next to the bump u_x ~ 1 gives speed ~2
        model = LagrangianModel(
            n=1, k=2, name="quartic",
            lagrangian=lambda q, v, s: (0.5 * v[0][0] * v[0][0]
                                        - 0.5 * v[0][1] * v[0][1]
                                        - 0.25 * v[0][1] ** 4))
        grid = Grid(bounds=((0.0, 2 * np.pi),), counts=(640,),
                    bc="periodic")
        (x,) = grid.mesh()
        h = grid.spacing[0]
        phi = 0.021 * np.exp(-((x - x[5]) / (1.2 * h)) ** 2)
        ux = (np.roll(phi, -1) - np.roll(phi, 1)) / (2 * h)
        assert np.max(np.abs(ux[::10])) < 1e-3 < 0.9 < np.max(np.abs(ux))
        init = SimState(phi=phi[None], phidot=np.zeros((1, 640)),
                        s1=np.zeros(640))
        c = char_speeds(jet_at(model, grid, init), grid)[0]
        assert c == pytest.approx(np.sqrt(1 + 3 * np.max(ux ** 2)))
        dt = 0.3 * h  # inside the limit at the samples, not at the bump
        with pytest.raises(SimulationError, match="CFL"):
            run(model, grid, dt, 4 * dt, init, output_every=4)

    def test_blow_up_detection(self):
        # negative damping feeds energy in; k=1 keeps it cheap
        model = damped_oscillator(gamma=-80.0, omega=1.0)
        grid = Grid(bounds=(), counts=())
        init = SimState(phi=np.ones((1,)), phidot=np.zeros((1,)),
                        s1=np.zeros(()))
        with pytest.raises(SimulationError, match="blow-up detected at t"):
            run(model, grid, 0.1, 40.0, init)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_blow_up_reported_at_the_first_bad_step(self):
        # one output frame at t_end: the guard still names the first step
        # whose state is not finite, long before t_end
        model = damped_oscillator(gamma=-80.0, omega=1.0)
        grid = Grid(bounds=(), counts=())
        init = SimState(phi=np.ones((1,)), phidot=np.zeros((1,)),
                        s1=np.zeros(()))
        dt, steps = 0.1, 400
        state = init
        while all(np.isfinite(x).all()
                  for x in (state.phi, state.phidot, state.s1)):
            state = step(model, state, grid, dt)
        assert state.t < steps * dt
        with pytest.raises(SimulationError,
                           match=f"blow-up detected at t={state.t:.6g}$"):
            run(model, grid, dt, steps * dt, init, output_every=steps)

    def test_grid_dimensions_checked(self):
        # a k=1 model has no spatial direction, so no 1-D grid
        model = damped_oscillator()
        grid = Grid(bounds=((0.0, 1.0),), counts=(16,))
        init = SimState(phi=np.zeros((1, 16)), phidot=np.zeros((1, 16)),
                        s1=np.zeros(16))
        with pytest.raises(ConfigError, match="^model has 0 spatial "
                                              "directions, grid has 1$"):
            run(model, grid, 0.01, 0.1, init)

    def test_output_cadence_validated(self):
        model = damped_oscillator()
        grid = Grid(bounds=(), counts=())
        with pytest.raises(SimulationError):
            run(model, grid, 0.1, 1.0, zero_state(model, grid),
                output_every=0)


class TestAccuracy:
    def test_zero_data_stays_zero(self):
        model = membrane(mu=1.0, gamma=0.2)
        grid = Grid(bounds=((0, np.pi), (0, np.pi)), counts=(9, 9))
        trace = run(model, grid, 0.05, 1.0, zero_state(model, grid))
        assert np.all(trace.phi == 0.0)
        assert np.all(trace.s1 == 0.0)  # L = 0 along the run

    def test_membrane_mode_accuracy(self):
        mu, gamma = 1.0, 0.2
        model = membrane(mu=mu, gamma=gamma)
        exact = membrane_exact(mu, gamma)
        N = 33
        grid = Grid(bounds=((0, np.pi), (0, np.pi)), counts=(N, N))
        mesh = grid.mesh()
        init = SimState(phi=exact(0.0, mesh),
                        phidot=np.zeros((1, N, N)), s1=np.zeros((N, N)))
        trace = run(model, grid, 0.4 * grid.spacing[0], 2.0, init,
                    output_every=5)
        err = np.max(np.abs(trace.phi[-1] - exact(trace.t[-1], mesh)))
        assert err < 3e-3

    def test_periodic_translating_wave(self):
        spec = PdeSpec(A=np.diag([1.0, -1.0]), D=np.zeros(2))
        model = build_lagrangian(spec)

        def exact(t, mesh):
            return np.sin(mesh[0] - t)[None]

        N = 64
        grid = Grid(bounds=((0, 2 * np.pi),), counts=(N,), bc="periodic")
        mesh = grid.mesh()
        init = SimState(phi=exact(0.0, mesh),
                        phidot=(-np.cos(mesh[0]))[None],
                        s1=np.zeros(N))
        trace = run(model, grid, 0.02, 3.0, init, output_every=10)
        err = np.max(np.abs(trace.phi[-1] - exact(trace.t[-1], mesh)))
        assert err < 3e-3

    def test_born_infeld_travelling_wave(self):
        # L = 1 - sqrt(1 - u_t^2 + u_x^2) has the exact travelling wave
        # u = A sin(x - t + phase), on which L = 0, so s1 stays 0; one
        # period on a 128-point periodic grid, second order in h
        amplitude, phase, N = 0.5, 0.3, 128
        h = 2 * np.pi / N
        grid = Grid(bounds=((0.0, 2 * np.pi),), counts=(N,), bc="periodic")
        x = grid.axes()[0]
        init = SimState(phi=(amplitude * np.sin(x + phase))[None],
                        phidot=(-amplitude * np.cos(x + phase))[None],
                        s1=np.zeros(N))
        dt = 0.4 * h
        steps = round(2 * np.pi / dt)
        trace = run(born_infeld(), grid, dt, steps * dt, init,
                    output_every=steps)
        exact = amplitude * np.sin(x - trace.t[-1] + phase)
        assert np.max(np.abs(trace.phi[-1, 0] - exact)) <= 0.5 * h ** 2
        assert np.max(np.abs(trace.s1[-1])) <= 0.5 * h ** 2

    def test_trace_residual_refines_at_order_two(self):
        model = string(rho=1.0, tau=1.0, gamma=0.3, B=0.0, lam=0.0)
        res = []
        for N in (33, 65):
            grid = Grid(bounds=((0, np.pi),), counts=(N,))
            Z = grid.mesh()[0]
            phi = np.zeros((2, N))
            phi[0] = np.sin(Z)
            phi[1] = 0.5 * np.sin(2 * Z)
            init = SimState(phi=phi, phidot=np.zeros((2, N)),
                            s1=np.zeros(N))
            trace = run(model, grid, 0.4 * grid.spacing[0], 1.0, init,
                        output_every=2)
            rEL, rS = trace_el_residual(model, trace)
            res.append(max(rEL, rS))
        assert 3.0 < res[0] / res[1] < 5.5

    def test_s_coupled_nonlinear_residual_refines_at_order_two(self):
        model = coupled_wave()
        res = []
        for N in (64, 128, 256):
            grid = Grid(bounds=((0.0, 2 * np.pi),), counts=(N,),
                        bc="periodic")
            (x,) = grid.mesh()
            init = SimState(phi=0.3 * np.sin(x)[None],
                            phidot=0.2 * np.cos(2 * x)[None],
                            s1=np.zeros(N))
            trace = run(model, grid, 0.2 * grid.spacing[0], 2.0, init,
                        output_every=4)
            res.append(max(trace_el_residual(model, trace)))
        assert 3.5 <= res[0] / res[1] <= 4.5
        assert 3.5 <= res[1] / res[2] <= 4.5

    def test_s_accumulates_the_action(self):
        model = membrane(mu=1.0, gamma=0.2)
        N = 17
        grid = Grid(bounds=((0, np.pi), (0, np.pi)), counts=(N, N))
        mesh = grid.mesh()
        init = SimState(phi=(np.sin(mesh[0]) * np.sin(mesh[1]))[None],
                        phidot=np.zeros((1, N, N)), s1=np.zeros((N, N)))
        trace = run(model, grid, 1e-3, 1.0, init)
        assert s_accumulation_check(trace, model) < 1e-6


class TestEnergyMonitor:
    def test_undamped_conservation(self):
        model = membrane(mu=1.0, gamma=0.0)
        N = 33
        grid = Grid(bounds=((0, np.pi), (0, np.pi)), counts=(N, N))
        mesh = grid.mesh()
        init = SimState(phi=(np.sin(mesh[0]) * np.sin(mesh[1]))[None],
                        phidot=np.zeros((1, N, N)), s1=np.zeros((N, N)))
        trace = run(model, grid, 0.4 * grid.spacing[0], 2.0, init,
                    output_every=4)
        E = np.array([energy_monitor(model, trace.state(i), grid)
                      for i in range(trace.t.size)])
        # semidiscrete conservation is exact for the staggered monitor;
        # what remains is RK4 time error, O(dt^4)
        assert np.max(np.abs(E - E[0])) / abs(E[0]) < 1e-6

    def test_point_particle_energy(self):
        model = damped_oscillator(gamma=0.0, omega=2.0)
        grid = Grid(bounds=(), counts=())
        state = SimState(phi=np.array([0.5]), phidot=np.array([0.3]),
                         s1=np.zeros(()))
        # E = v^2/2 + omega^2 q^2 / 2
        assert energy_monitor(model, state, grid) == pytest.approx(
            0.5 * 0.09 + 2.0 * 0.25, abs=1e-13)

    @pytest.mark.parametrize("model, counts", [
        (born_infeld(), (24,)),
        (LagrangianModel(
            n=1, k=3, name="born_infeld_2d",
            lagrangian=lambda q, v, s: 1.0 - sqrt(
                1.0 - v[0][0] * v[0][0] + v[0][1] * v[0][1]
                + v[0][2] * v[0][2])), (9, 12)),
        (membrane(mu=1.3, gamma=0.0), (9, 12)),
    ], ids=["1d-born-infeld", "2d-born-infeld", "2d-membrane"])
    def test_periodic_equals_roll_bitwise(self, model, counts):
        # the wrapped forward difference appends one cell; the np.roll
        # form stays the reference, bit for bit, signed zeros included
        grid = Grid(bounds=tuple((0.0, 2 * np.pi) for _ in counts),
                    counts=counts, bc="periodic")
        rng = np.random.default_rng(len(counts))
        phi = 0.3 * rng.standard_normal((1,) + counts)
        phidot = 0.3 * rng.standard_normal((1,) + counts)
        phi[..., ::4] = -0.0
        phi[..., 1::4] = 0.0
        phidot[..., 2::4] = -0.0
        state = SimState(phi=phi, phidot=phidot, s1=np.zeros(counts))
        v = np.zeros((1, model.k) + counts)
        v[:, 0] = phidot
        for a, h in enumerate(grid.spacing):
            v[:, 1 + a] = (np.roll(phi, -1, axis=1 + a) - phi) / h
        jet = evaluate_jet_batch(model, phi, v, np.zeros((model.k,) + counts))
        dens = np.einsum("i...,i...->...", phidot, jet.dLdv[:, 0]) - jet.L
        want = float(np.sum(dens) * np.prod(grid.spacing))
        got = energy_monitor(model, state, grid)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestExport:
    def test_save_load_roundtrip(self, tmp_path):
        model = string(rho=1.0, tau=1.0, gamma=0.3, B=0.0, lam=0.0)
        N = 16
        grid = Grid(bounds=((0, np.pi),), counts=(N,))
        Z = grid.mesh()[0]
        phi = np.zeros((2, N))
        phi[0] = np.sin(Z)
        init = SimState(phi=phi, phidot=np.zeros((2, N)), s1=np.zeros(N))
        trace = run(model, grid, 0.05, 0.5, init, output_every=2)
        manifest = save_trace(trace, tmp_path / "out")
        assert manifest["frames"] == trace.t.size
        loaded = load_trace(tmp_path / "out")
        assert np.array_equal(loaded.t, trace.t)
        assert np.array_equal(loaded.phi, trace.phi)
        assert np.array_equal(loaded.phidot, trace.phidot)
        assert np.array_equal(loaded.s1, trace.s1)
        assert loaded.grid == trace.grid
        assert loaded.dt == trace.dt
        # no loaded array keeps a larger buffer alive
        for arr in (loaded.t, loaded.phi, loaded.phidot, loaded.s1):
            assert arr.base is None or arr.base.nbytes == arr.nbytes

    def test_roundtrip_is_bit_exact(self, tmp_path):
        # arbitrary bit patterns, signed zeros among them
        grid = Grid(bounds=((0, 1), (0, 2)), counts=(8, 9))
        rng = np.random.default_rng(5)
        F, n = 4, 2
        arrays = {"t": np.array([0.0, 0.1, 0.2, 0.30000000000000004]),
                  "phi": rng.standard_normal((F, n) + grid.shape) ** 7,
                  "phidot": -rng.standard_normal((F, n) + grid.shape),
                  "s1": rng.standard_normal((F,) + grid.shape)}
        arrays["phi"][0] = -0.0
        arrays["phidot"][1, 0, ::2] = 0.0
        arrays["phidot"][1, 1, ::2] = -0.0
        arrays["s1"][2, 3] = -0.0
        trace = SimTrace(model_name="string", params={"gamma": 0.3},
                         grid=grid, dt=0.05, output_every=2, **arrays)
        save_trace(trace, tmp_path)
        loaded = load_trace(tmp_path)
        for key, arr in arrays.items():
            got = getattr(loaded, key)
            assert got.dtype == np.float64 and got.shape == arr.shape
            assert got.tobytes() == arr.tobytes()
            assert np.array_equal(np.signbit(got), np.signbit(arr))
        assert np.signbit(loaded.phi[0]).all()
        # the members of an uncompressed np.savez of the same arrays
        np.savez(tmp_path / "savez.npz", **arrays)
        with (zipfile.ZipFile(tmp_path / "trace.npz") as got,
              zipfile.ZipFile(tmp_path / "savez.npz") as ref):
            assert got.namelist() == ref.namelist()
            for name in ref.namelist():
                assert got.getinfo(name).compress_type == zipfile.ZIP_STORED
                assert got.read(name) == ref.read(name)

    @staticmethod
    def csv_writer_reference(trace):
        """trace.csv as csv.writer writes it, one row per grid point."""
        n, d = trace.phi.shape[1], trace.grid.ndim
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["t"] + [f"x{a + 1}" for a in range(d)]
                        + [f"phi{i}" for i in range(n)]
                        + [f"phidot{i}" for i in range(n)] + ["s1"])
        flat_mesh = [m.ravel() for m in trace.grid.mesh()]
        for f, t in enumerate(trace.t):
            phi = trace.phi[f].reshape(n, -1)
            dot = trace.phidot[f].reshape(n, -1)
            s1 = trace.s1[f].ravel()
            for p in range(s1.size):
                writer.writerow(
                    [repr(float(t))] + [repr(float(m[p])) for m in flat_mesh]
                    + [repr(float(phi[i, p])) for i in range(n)]
                    + [repr(float(dot[i, p])) for i in range(n)]
                    + [repr(float(s1[p]))])
        return buf.getvalue().encode()

    def test_csv_matches_csv_writer(self, tmp_path):
        # a 2-D one-field grid and a 1-D two-field grid
        cases = [(membrane(mu=1.0, gamma=0.2),
                  Grid(bounds=((0, np.pi), (0, 2.0)), counts=(9, 11))),
                 (string(rho=1.0, tau=1.0, gamma=0.3, B=1.0, lam=0.5),
                  Grid(bounds=((0, np.pi),), counts=(16,)))]
        for idx, (model, grid) in enumerate(cases):
            mesh = grid.mesh()
            phi = np.zeros((model.n,) + grid.shape)
            phi[:] = np.sin(mesh[0]) * np.cos(mesh[-1] / 3)
            init = SimState(phi=phi, phidot=np.zeros_like(phi),
                            s1=np.zeros(grid.shape))
            trace = run(model, grid, 0.05, 0.3, init, output_every=2)
            save_trace(trace, tmp_path / str(idx))
            assert ((tmp_path / str(idx) / "trace.csv").read_bytes()
                    == self.csv_writer_reference(trace))

    @staticmethod
    def columns(trace):
        n, d = trace.phi.shape[1], trace.grid.ndim
        return (["t"] + [f"x{a + 1}" for a in range(d)]
                + [f"phi{i}" for i in range(n)]
                + [f"phidot{i}" for i in range(n)] + ["s1"])

    def column_formatter_reference(self, trace):
        """trace.csv as the in-process column formatter that preceded the
        writer process wrote it, one frame's strings at a time."""
        n = trace.phi.shape[1]
        mesh_cols = [list(map(repr, m.ravel().tolist()))
                     for m in trace.grid.mesh()]
        out = [",".join(self.columns(trace)) + "\r\n"]
        for fidx, t in enumerate(trace.t):
            size = trace.s1[fidx].size
            frame = ([[repr(float(t))] * size] + mesh_cols
                     + [list(map(repr, col.tolist())) for col in
                        (*trace.phi[fidx].reshape(n, -1),
                         *trace.phidot[fidx].reshape(n, -1),
                         trace.s1[fidx].ravel())])
            out.append("\r\n".join(map(",".join, zip(*frame))) + "\r\n")
        return "".join(out).encode()

    def manifest_reference(self, trace):
        return {"schema_version": 1, "kind": "trace",
                "model": trace.model_name, "params": trace.params,
                "grid": {"bounds": [list(b) for b in trace.grid.bounds],
                         "counts": list(trace.grid.counts),
                         "bc": trace.grid.bc},
                "dt": trace.dt, "output_every": trace.output_every,
                "frames": int(trace.t.size), "gauge": sim.GAUGE_NOTE,
                "columns": self.columns(trace)}

    def assert_exported(self, trace, path):
        """trace.csv, manifest.json and trace.npz in `path` are the files
        the in-process formatter, json.dump and np.savez write."""
        assert ((path / "trace.csv").read_bytes()
                == self.column_formatter_reference(trace))
        assert ((path / "manifest.json").read_text()
                == json.dumps(self.manifest_reference(trace), indent=2,
                              sort_keys=True) + "\n")
        np.savez(path.parent / "savez.npz",
                 **{key: getattr(trace, key) for key in sim.TRACE_ARRAYS})
        with (zipfile.ZipFile(path / "trace.npz") as got,
              zipfile.ZipFile(path.parent / "savez.npz") as ref):
            assert got.namelist() == ref.namelist()
            for name in ref.namelist():
                assert got.getinfo(name).compress_type == zipfile.ZIP_STORED
                assert got.read(name) == ref.read(name)
        assert sorted(p.name for p in path.iterdir()) == [
            "manifest.json", "trace.csv", "trace.npz"]

    @staticmethod
    def export_cases():
        """(label, model, grid, initial state) of the simulated cases."""
        membrane_grid = Grid(bounds=((0, np.pi), (0, 2.0)), counts=(9, 11))
        X, Y = membrane_grid.mesh()
        string_grid = Grid(bounds=((0, 2 * np.pi),), counts=(16,),
                           bc="periodic")
        (Z,) = string_grid.mesh()
        phi = np.stack([np.sin(Z), 0.5 * np.cos(2 * Z)])
        return [
            ("membrane-2d-dirichlet", membrane(mu=1.0, gamma=0.2),
             membrane_grid,
             SimState(phi=(np.sin(X) * np.cos(Y / 3))[None],
                      phidot=np.zeros((1, 9, 11)), s1=np.zeros((9, 11)))),
            ("string-1d-periodic",
             string(rho=1.0, tau=1.0, gamma=0.3, B=1.0, lam=0.5),
             string_grid,
             SimState(phi=phi, phidot=0.1 * phi[::-1], s1=np.zeros(16))),
            ("oscillator-0d", damped_oscillator(gamma=0.3),
             Grid(bounds=(), counts=()),
             SimState(phi=np.ones(1), phidot=np.zeros(1), s1=np.zeros(()))),
        ]

    def test_export_is_byte_identical(self, tmp_path, writers, monkeypatch):
        # two writer processes format what the in-process formatter did,
        # whether save_trace sends the frames or run hands them over as
        # it records them
        pin_writers(monkeypatch, 2)
        for label, model, grid, init in self.export_cases():
            live = tmp_path / label / "live"
            with sim._TraceExport(live, grid, model.n) as export:
                trace = run(model, grid, 0.05, 0.3, init, output_every=2,
                            on_frame=export.frame)
                export.finish(trace)
            save_trace(trace, tmp_path / label / "saved")
            for path in (live, tmp_path / label / "saved"):
                self.assert_exported(trace, path)
        assert len(writers) == 12  # two writers for each of 6 exports
        assert_reaped(writers)

    @staticmethod
    def random_trace(frames, counts=(8, 9)):
        """A trace of `frames` frames of random floats on an 8x9 grid, or
        one of `counts` points."""
        grid = Grid(bounds=((0, 1), (0, 2)), counts=counts)
        rng = np.random.default_rng(frames)
        return SimTrace(model_name="string", params={"gamma": 0.3},
                        grid=grid, dt=0.05, output_every=1,
                        t=0.05 * np.arange(frames),
                        phi=rng.standard_normal((frames, 2) + grid.shape),
                        phidot=rng.standard_normal((frames, 2) + grid.shape),
                        s1=rng.standard_normal((frames,) + grid.shape))

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_every_writer_count_is_byte_identical(self, tmp_path, writers,
                                                  monkeypatch, cpus):
        # frames dealt round-robin to 1, 2 or 3 writers, with fewer frames
        # than writers and frame counts the writer count does not divide;
        # every export starts a writer per CPU, and a writer that gets no
        # frame exits at the end of its input
        pin_writers(monkeypatch, cpus)
        started = 0
        for frames in (1, 2, 4, 7):
            trace = self.random_trace(frames)
            live = tmp_path / f"{frames}" / "live"
            with sim._TraceExport(live, trace.grid, 2) as export:
                for idx in range(frames):
                    export.frame(trace.state(idx))
                export.finish(trace)
            save_trace(trace, tmp_path / f"{frames}" / "saved")
            for path in (live, tmp_path / f"{frames}" / "saved"):
                self.assert_exported(trace, path)
            started += 2 * cpus
            assert len(writers) == started
        assert [p.returncode for p in writers] == [0] * started

    def test_writer_count(self, monkeypatch):
        # one writer per CPU this process may run on, or per CPU of the
        # machine where there is no affinity call, and no more than
        # MAX_WRITERS
        monkeypatch.setattr(sim.os, "sched_getaffinity",
                            lambda pid: set(range(64)))
        assert sim.MAX_WRITERS == 2
        assert sim._writer_count() == 2
        pin_writers(monkeypatch, 3)
        assert sim._writer_count() == 3
        monkeypatch.setattr(sim, "MAX_WRITERS", 8)
        monkeypatch.delattr(sim.os, "sched_getaffinity")
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 5)
        assert sim._writer_count() == 5
        monkeypatch.setattr(sim.os, "cpu_count", lambda: None)
        assert sim._writer_count() == 1

    def test_export_covers_every_repr_form(self, tmp_path):
        # signed zeros, the smallest subnormal, exponent forms on both
        # sides and a plain float with a long mantissa
        specials = [0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e16, -1e16,
                    123456789.0, 0.1, 1e-4, 1e15, 1.7976931348623157e308]
        grid = Grid(bounds=((-1e16, 1e16), (5e-324, 1.0)), counts=(8, 9))
        rng = np.random.default_rng(3)
        S = grid.shape
        trace = SimTrace(model_name="string", params={"gamma": 0.3},
                         grid=grid, dt=1e-5, output_every=1,
                         t=np.array([-0.0, 5e-324, 1e16]),
                         phi=rng.choice(specials, size=(3, 2) + S),
                         phidot=rng.choice(specials, size=(3, 2) + S),
                         s1=rng.choice(specials, size=(3,) + S))
        text = self.column_formatter_reference(trace).decode()
        for form in ("-0.0", "5e-324", "1e-05", "1e+16", "123456789.0"):
            assert f",{form}," in text or f",{form}\r\n" in text
        save_trace(trace, tmp_path / "out")
        self.assert_exported(trace, tmp_path / "out")

    def test_frame_hook_sees_every_recorded_state(self):
        model, grid, init = growing_speed()
        seen = []
        trace = run(model, grid, 0.01, 0.1, init, output_every=3,
                    on_frame=seen.append)
        assert [s.t for s in seen] == trace.t.tolist()
        for idx, state in enumerate(seen):
            assert np.array_equal(state.phi, trace.phi[idx])
            assert np.array_equal(state.s1, trace.s1[idx])

    def test_killed_writer_raises_config_error(self, tmp_path, writers,
                                               monkeypatch):
        # the writer of the second frame, one of two, is killed before
        # that frame is sent; its record is missing when the fourth
        # frame is sent
        pin_writers(monkeypatch, 2)
        frame = sim._TraceExport.frame

        def kill_at_second_frame(export, state):
            if export.sent == 1:
                export.procs[1].kill()
            frame(export, state)

        monkeypatch.setattr(sim._TraceExport, "frame", kill_at_second_frame)
        model, grid, init = self.export_cases()[0][1:]
        trace = run(model, grid, 0.05, 0.3, init, output_every=2)
        (tmp_path / "old").mkdir()
        for path in (tmp_path / "new" / "out", tmp_path / "old"):
            with pytest.raises(ConfigError, match="trace.csv writer"):
                save_trace(trace, path)
        # a directory the export created is removed; in one that was
        # there, no trace file is written
        assert not (tmp_path / "new").exists()
        assert list((tmp_path / "old").iterdir()) == []
        # the killed writers, and the first writers, killed when the
        # export stops
        assert [p.returncode for p in writers] == [-9] * 4
        assert_reaped(writers)

    def test_writer_ending_mid_record_raises_config_error(self, tmp_path,
                                                          writers,
                                                          monkeypatch):
        # a writer that reads its first frame, writes the length of a
        # record and three bytes of it, and exits 3
        fake = tmp_path / "fake_writer.py"
        fake.write_text("""\
import sys
points, dims, width = map(int, sys.argv[1:])
sys.stdin.buffer.read(8 * (dims * points + 1 + width * points))
sys.stdout.buffer.write((100).to_bytes(8, "little") + b"t,x")
sys.stdout.buffer.flush()
sys.stderr.write("cut short\\n")
sys.exit(3)
""")
        monkeypatch.setattr(sim, "CSV_WRITER", fake)
        pin_writers(monkeypatch, 2)
        with pytest.raises(ConfigError, match=(
                r"trace.csv writer for .* failed \(exit 3\): cut short")
                           ) as info:
            save_trace(self.random_trace(4), tmp_path / "out")
        # found when frame 0's record is read, before frame 2 is sent
        assert any(entry.name == "_append" for entry in info.traceback)
        assert not (tmp_path / "out").exists()
        assert len(writers) == 2
        assert_reaped(writers)

    @pytest.mark.parametrize("link, where", [
        ("trace.csv.part", "_append"), ("trace.csv.part", "finish"),
        ("manifest.json", "finish")])
    def test_full_device_raises_config_error(self, tmp_path, writers,
                                             monkeypatch, link, where):
        # trace.csv.part on /dev/full: frames of 40x40 rows fail at the
        # exporting process's write, one frame of zeros on 8x9 points,
        # which its buffer holds, at its close; manifest.json on
        # /dev/full fails once trace.csv is complete
        pin_writers(monkeypatch, 2)
        out = tmp_path / "out"
        out.mkdir()
        (out / link).symlink_to("/dev/full")
        if where == "_append":
            trace = self.random_trace(4, (40, 40))
        else:
            trace = self.random_trace(1)
            trace = dataclasses.replace(trace, phi=0 * trace.phi,
                                        phidot=0 * trace.phidot,
                                        s1=0 * trace.s1)
        with pytest.raises(ConfigError, match=(
                r"cannot write a trace to .*No space left on device")
                           ) as info:
            save_trace(trace, out)
        assert any(entry.name == where for entry in info.traceback)
        assert [p.name for p in out.iterdir()] == (
            [] if link == "trace.csv.part" else [link])
        assert len(writers) == 2
        assert_reaped(writers)

    @pytest.mark.parametrize("error", [SimulationError, KeyboardInterrupt])
    def test_failed_run_leaves_no_trace(self, tmp_path, writers, error,
                                        monkeypatch):
        # a CFL violation at step 18 or an interrupt at step 10, after
        # frames were sent: the writer is stopped and reaped, and the
        # directory the export created is removed
        model, grid, init = growing_speed()
        h = grid.spacing[0]
        steps = []

        def interrupted(*args, **kwargs):
            steps.append(1)
            if len(steps) == 10:
                raise KeyboardInterrupt
            return step(*args, **kwargs)

        if error is KeyboardInterrupt:
            monkeypatch.setattr(sim, "step", interrupted)
        with pytest.raises(error):
            with sim._TraceExport(tmp_path / "out", grid,
                                  model.n) as export:
                trace = run(model, grid, 0.2 * h, 60 * 0.2 * h, init,
                            output_every=4, on_frame=export.frame)
                export.finish(trace)
        assert not (tmp_path / "out").exists()
        assert_reaped(writers)

    def test_point_arrays_shapes(self):
        model = membrane(mu=1.0, gamma=0.2)
        N = 9
        grid = Grid(bounds=((0, np.pi), (0, np.pi)), counts=(N, N))
        trace = run(model, grid, 0.05, 0.5, zero_state(model, grid),
                    output_every=2)
        q, v, s, spacings = trace_point_arrays(model, trace)
        T = trace.t.size
        assert q.shape == (1, T, N, N)
        assert v.shape == (1, 3, T, N, N)
        assert s.shape == (3, T, N, N)
        assert spacings.shape == (3,)
        assert spacings[0] == pytest.approx(trace.dt_out)


def test_determinism():
    model = membrane(mu=1.0, gamma=0.2)
    N = 17
    grid = Grid(bounds=((0, np.pi), (0, np.pi)), counts=(N, N))
    mesh = grid.mesh()
    init = SimState(phi=(np.sin(mesh[0]) * np.sin(mesh[1]))[None],
                    phidot=np.zeros((1, N, N)), s1=np.zeros((N, N)))
    t1 = run(model, grid, 0.05, 0.5, init)
    t2 = run(model, grid, 0.05, 0.5, init)
    assert np.array_equal(t1.phi, t2.phi)
    assert np.array_equal(t1.s1, t2.s1)


def test_membrane_rhs_stencils_only_what_the_jet_multiplies(monkeypatch):
    # the membrane's W is diagonal and it stores no d2L/dv ds: one right-
    # hand side takes the two spatial velocities (_d1) and the two
    # diagonal second derivatives (_d2), and no mixed, cross or d_x s^1
    # stencil
    calls = {"_d1": 0, "_d2": 0}
    for name in calls:
        def counted(*args, _f=getattr(sim, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(sim, name, counted)
    model = membrane(mu=1.0, gamma=0.2)
    grid = Grid(bounds=((0, np.pi), (0, np.pi)), counts=(21, 21))
    X, Y = grid.mesh()
    phi = (np.sin(X) * np.sin(Y))[None]
    _state_rhs(model, grid, phi, 0.5 * phi, 0.1 * phi[0])
    assert calls == {"_d1": 2, "_d2": 2}


def reference_rhs(model, grid, phi, phidot, s1):
    """`_state_rhs` with dense arrays throughout: np.roll and np.gradient
    stencils, every jet block broadcast to the points, every second-jet
    entry, einsum contractions and one np.linalg.solve per point."""
    n, k, d = model.n, model.k, grid.ndim
    periodic = grid.bc == "periodic"
    S, hs, axes = phi.shape[1:], grid.spacing, range(-d, 0)

    def d1(f, x):
        if periodic:
            return ((np.roll(f, -1, axes[x]) - np.roll(f, 1, axes[x]))
                    / (2 * hs[x]))
        return np.gradient(f, hs[x], axis=axes[x], edge_order=2)

    def d2(f, x):
        out = (np.roll(f, -1, axes[x]) - 2 * f
               + np.roll(f, 1, axes[x])) / hs[x] ** 2
        if not periodic:  # the edges copy their neighbours
            idx = np.arange(f.shape[axes[x]])
            idx[0], idx[-1] = 1, idx[-2]
            out = np.take(out, idx, axis=axes[x])
        return out

    v = np.stack([phidot] + [d1(phi, x) for x in range(d)], axis=1)
    s = np.zeros((k,) + S)
    s[0] = s1
    jet = evaluate_jet_batch(model, phi, v, s)
    L, dLdq, dLdv, dLds, W, Q, Sv = (
        np.array(np.broadcast_to(getattr(jet, name), lead + S))
        for name, lead in (("L", ()), ("dLdq", (n,)), ("dLdv", (n, k)),
                           ("dLds", (k,)), ("d2Ldvdv", (n, k, n, k)),
                           ("d2Ldvdq", (n, k, n)), ("d2Ldvds", (n, k, k))))
    a = np.zeros((n, k, k) + S)  # a[:, 0, 0] = 0: solved for below
    dsdt = np.zeros((k, k) + S)
    dsdt[0, 0] = L  # the evolution gauge
    for x in range(d):
        a[:, 0, 1 + x] = a[:, 1 + x, 0] = d1(phidot, x)
        a[:, 1 + x, 1 + x] = d2(phi, x)
        for y in range(x + 1, d):
            a[:, 1 + x, 1 + y] = a[:, 1 + y, 1 + x] = d1(v[:, 1 + x], y)
        dsdt[1 + x, 0] = d1(s1, x)
    rEL = (np.einsum("iajb...,jba...->i...", W, a)
           + np.einsum("iaj...,ja...->i...", Q, v)
           + np.einsum("iab...,ab...->i...", Sv, dsdt) - dLdq
           - np.einsum("a...,ia...->i...", dLds, dLdv))
    accel = np.linalg.solve(np.moveaxis(W[:, 0, :, 0], (0, 1), (-2, -1)),
                            np.moveaxis(-rEL, 0, -1)[..., None])
    accel = np.moveaxis(accel[..., 0], -1, 0)
    dphi = phidot.copy()
    if not periodic:
        for x in range(d):
            for arr in (accel, dphi):
                np.moveaxis(arr, 1 + x, 0)[[0, -1]] = 0.0
    return dphi, accel, L


def rhs_cases():
    """Born-Infeld and the charged string (n = 2) on a periodic grid,
    and the membrane on a 21x21 Dirichlet grid: (id, model, grid, phi,
    phidot, s1)."""
    x = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    ring = Grid(bounds=((0.0, 2 * np.pi),), counts=(64,), bc="periodic")
    square = Grid(bounds=((0, np.pi), (0, np.pi)), counts=(21, 21))
    X, Y = square.mesh()
    return [
        ("born-infeld", born_infeld(), ring, 0.5 * np.sin(x)[None],
         -0.5 * np.cos(x)[None], 0.1 * np.sin(2 * x)),
        ("string", string(lam=0.5, gamma=0.3, B=1.0), ring,
         np.stack([np.sin(x), 0.3 * np.cos(2 * x)]),
         np.stack([0.2 * np.cos(x), np.sin(3 * x)]), 0.1 * np.cos(x)),
        ("membrane", membrane(mu=1.0, gamma=0.2), square,
         (np.sin(X) * np.sin(Y))[None],
         (0.3 * np.sin(2 * X) * np.sin(Y))[None],
         0.1 * np.sin(X) * np.cos(Y))]


@pytest.mark.parametrize("case", rhs_cases(), ids=lambda c: c[0])
def test_rhs_equals_dense_reference_bitwise(case):
    _, model, grid, phi, phidot, s1 = case
    got = _state_rhs(model, grid, phi, phidot, s1)[:3]
    for x, want in zip(got, reference_rhs(model, grid, phi, phidot, s1)):
        x = np.broadcast_to(x, want.shape)
        assert x.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", rhs_cases()[:2], ids=lambda c: c[0])
def test_periodic_rhs_pads_each_field_once(case, monkeypatch):
    # one right-hand side pads each field it differences once: phi, for
    # its first and second differences, and phidot, for the mixed
    # entries of Born-Infeld's W; s1 is never differenced
    name, model, grid, phi, phidot, s1 = case
    concatenate, padded = np.concatenate, []

    def recording(arrays, axis=0):
        padded.append(arrays[1])
        return concatenate(arrays, axis=axis)

    monkeypatch.setattr(np, "concatenate", recording)
    _state_rhs(model, grid, phi, phidot, s1)
    want = [phi, phidot] if name == "born-infeld" else [phi]
    assert len(padded) == len(want)
    assert all(np.array_equal(f, g) for f, g in zip(padded, want))
