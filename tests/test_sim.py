"""Method-of-lines integrator: stability guards, accuracy, export."""

import csv
import io

import numpy as np
import pytest

from kcontact import (Grid, LagrangianModel, PdeSpec, SimState,
                      SimulationError, build_lagrangian, damped_oscillator,
                      el_convergence, energy_monitor, load_trace, membrane,
                      run, s_accumulation_check, save_trace, step, string,
                      trace_el_residual, trace_point_arrays)
from kcontact import sim
from kcontact.sim import (CFL_FACTOR, _boundary_mask, _d1, _state_rhs,
                          char_speeds, check_cfl, zero_state)
from kcontact.taylor import cos
from test_jet import born_infeld


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

    def test_cfl_violation(self):
        model = membrane(mu=2.0, gamma=0.0)
        grid = Grid(bounds=((0, np.pi), (0, np.pi)), counts=(17, 17))
        h = grid.spacing[0]
        state = zero_state(model, grid)
        with pytest.raises(SimulationError, match="CFL"):
            check_cfl(model, state, grid, h)  # dt = h > 0.4 h / 2
        check_cfl(model, state, grid, 0.4 * h / 2.0)  # at the limit: ok

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
        c0 = char_speeds(model, init, grid)[0]
        dt = 0.98 * CFL_FACTOR * grid.spacing[0] / c0
        with pytest.raises(SimulationError, match="CFL"):
            run(model, grid, dt, 20.0, init, output_every=10)

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
        c = char_speeds(model, init, grid)[0]
        assert c == pytest.approx(np.sqrt(1 + 3 * np.max(ux ** 2)))
        dt = 0.3 * h  # inside the limit at the samples, not at the bump
        with pytest.raises(SimulationError, match="CFL"):
            run(model, grid, dt, 4 * dt, init, output_every=4)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
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
            state = step(model, state, grid, dt, _skip_cfl=True)
        assert state.t < steps * dt
        with pytest.raises(SimulationError,
                           match=f"blow-up detected at t={state.t:.6g}$"):
            run(model, grid, dt, steps * dt, init, output_every=steps)

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

    def test_el_convergence_order(self):
        mu, gamma = 1.0, 0.2
        model = membrane(mu=mu, gamma=gamma)
        grids = [Grid(bounds=((0, np.pi), (0, np.pi)), counts=(N, N))
                 for N in (9, 17, 33)]
        rep = el_convergence(model, membrane_exact(mu, gamma), grids,
                             t_end=0.5, dt_factor=0.4)
        assert rep["order"] == pytest.approx(2.0, abs=0.2)
        assert rep["errors"][0] > rep["errors"][-1]

    def test_el_convergence_zero_error_reported(self):
        model = membrane(mu=1.0, gamma=0.0)
        grids = [Grid(bounds=((0, np.pi), (0, np.pi)), counts=(N, N))
                 for N in (9, 17)]
        rep = el_convergence(model, lambda t, mesh: np.zeros(
            (1,) + mesh[0].shape), grids, t_end=0.2)
        assert rep["order"] is None

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
        # L = u_t^2/2 - u_x^2/2 + 0.2 s u_t cos u - u_t^4/40 couples
        # velocity and dissipation (d2L/du_t ds = 0.2 cos u) and has a
        # point-dependent time-time Hessian
        model = LagrangianModel(
            n=1, k=2, name="coupled_wave",
            lagrangian=lambda q, v, s: (0.5 * v[0][0] * v[0][0]
                                        - 0.5 * v[0][1] * v[0][1]
                                        + 0.2 * s[0] * v[0][0] * cos(q[0])
                                        - 0.025 * v[0][0] ** 4))
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
        # copies, not views that keep the whole parsed CSV block alive
        for arr in (loaded.t, loaded.phi, loaded.phidot, loaded.s1):
            assert arr.base is None

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
    _state_rhs(model, grid, phi, 0.5 * phi, 0.1 * phi[0],
               _boundary_mask(grid))
    assert calls == {"_d1": 2, "_d2": 2}
