"""Contact symmetries, dissipated quantities, and the dissipation law."""

import numpy as np
import pytest

from kcontact import (Grid, LagrangianModel, SimState, builtin_models,
                      builtin_symmetry_field, check_contact_symmetry,
                      constant_field, dissipated_quantity,
                      dissipation_law_check, evaluate_jet, free, hessian,
                      lie_derivative_eta, membrane,
                      momentum_dissipation_check, random_phase_point,
                      reeb, reeb_bracket_check, reeb_derivative_of_energy,
                      run, stack_points, string)
from kcontact.sim import _map_slabs, _trace_div, _trace_trim
from kcontact.symmetry import SymmetryField, SymmetryJacobian
from kcontact.taylor import cos, exp, sin
from conftest import cubic
from test_jet import born_infeld
from test_sim import coupled_wave
from test_trace_slabs import periodic_trace


def nonlinear_field():
    """A user field with products and transcendental entries in every
    component, on the n = k = 2 phase space of the string."""
    return SymmetryField(
        n=2, k=2,
        Yq=lambda q, v, s: [q[0] * v[0][1], sin(s[0])],
        Yv=lambda q, v, s: [[v[1][0] * v[1][0], q[1]],
                            [exp(0.5 * s[1]), 0.0]],
        Ys=lambda q, v, s: [cos(q[0]) * v[1][1], s[1] * q[1]],
        name="nonlinear")


class CentralDifferenceField:
    """The components of `Y` with a central-difference Jacobian."""

    def __init__(self, Y, h=1e-6):
        self.Y, self.h = Y, h

    def components(self, q, v, s):
        return self.Y.components(q, v, s)

    def jacobian_blocks(self, q, v, s):
        n, k = self.Y.n, self.Y.k
        x = np.concatenate([q, v.reshape((n * k,) + q.shape[1:]), s])
        cols = []
        for j in range(x.shape[0]):
            comps = []
            for sign in (1.0, -1.0):
                xs = x.copy()
                xs[j] += sign * self.h
                comps.append(self.Y.components(
                    xs[:n], xs[n:n + n * k].reshape(v.shape),
                    xs[n + n * k:]))
            cols.append([(p - m) / (2 * self.h) for p, m in zip(*comps)])
        # the coordinate axis goes between the component and batch axes
        batch_ndim = q.ndim - 1
        return SymmetryJacobian(*(
            np.stack([c[b] for c in cols], axis=cols[0][b].ndim - batch_ndim)
            for b in range(3)))


@pytest.fixture(scope="module")
def membrane_model():
    return membrane(mu=1.0, gamma=0.2)


@pytest.fixture(scope="module")
def membrane_points(membrane_model):
    rng = np.random.default_rng(42)
    return [random_phase_point(membrane_model, rng) for _ in range(100)]


@pytest.fixture(scope="module")
def membrane_trace(membrane_model):
    N = 25
    grid = Grid(bounds=((0, np.pi), (0, np.pi)), counts=(N, N))
    X, Y = grid.mesh()
    init = SimState(phi=(np.sin(X) * np.sin(Y))[None],
                    phidot=np.zeros((1, N, N)), s1=np.zeros((N, N)))
    dt = 0.4 * grid.spacing[0]
    return grid, run(membrane_model, grid, dt, 2.0, init, output_every=2)


class TestSymmetryCheck:
    def test_field_translation_is_symmetry(self, membrane_model,
                                           membrane_points):
        Y = builtin_symmetry_field(membrane_model, "du")
        z = stack_points(membrane_points)
        res = check_contact_symmetry(evaluate_jet(membrane_model, z), Y, z)
        assert res["is_symmetry"]
        assert res["max_residual"] <= 1e-9

    def test_scaling_is_not_symmetry(self, membrane_model, membrane_points):
        Y = builtin_symmetry_field(membrane_model, "scaling")
        z = stack_points(membrane_points)
        res = check_contact_symmetry(evaluate_jet(membrane_model, z), Y, z)
        assert not res["is_symmetry"]
        assert res["max_residual"] > 1e-3

    def test_rotation_of_magnetic_string(self):
        model = string(rho=1.0, tau=1.0, lam=0.1, gamma=0.3, B=1.0)
        rng = np.random.default_rng(7)
        pts = [random_phase_point(model, rng) for _ in range(100)]
        Y = builtin_symmetry_field(model, "paperY")
        z = stack_points(pts)
        res = check_contact_symmetry(evaluate_jet(model, z), Y, z)
        assert res["max_residual"] <= 1e-9

    def test_nonlinear_field_matches_central_differences(self):
        model = string(rho=1.0, tau=2.0, lam=0.3, gamma=0.1, B=0.5)
        Y = nonlinear_field()
        fd = CentralDifferenceField(Y)
        rng = np.random.default_rng(8)
        z = stack_points([random_phase_point(model, rng)
                          for _ in range(20)])
        q, v, s = z.q, z.v, z.s
        exact = Y.jacobian_blocks(q, v, s)
        approx = fd.jacobian_blocks(q, v, s)
        for name in ("dYq", "dYv", "dYs"):
            a, b = getattr(exact, name), getattr(approx, name)
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) < 1e-8
        jet = evaluate_jet(model, z)
        for a, b in zip(lie_derivative_eta(jet, Y, q, v, s)[0],
                        lie_derivative_eta(jet, fd, q, v, s)[0]):
            assert np.max(np.abs(a - b)) < 1e-8

    def test_constant_components_stay_broadcast_views(self, membrane_model):
        Y = builtin_symmetry_field(membrane_model, "du")
        batch = (7, 5)
        q, v, s = np.zeros((1,) + batch), np.zeros((1, 3) + batch), \
            np.zeros((3,) + batch)
        for comp, lead in zip(Y.components(q, v, s), ((1,), (1, 3), (3,))):
            assert comp.shape == lead + batch
            assert comp.strides[-2:] == (0, 0)
        Yq, _, _ = Y.components(q, v, s)
        assert np.all(Yq == 1.0)

    def test_unknown_field_name(self, membrane_model):
        with pytest.raises(ValueError, match="unknown symmetry"):
            builtin_symmetry_field(membrane_model, "nope")


class TestReebBracket:
    def test_translation_commutes_with_reeb(self, membrane_model,
                                            membrane_points):
        Y = builtin_symmetry_field(membrane_model, "du")
        assert reeb_bracket_check(membrane_model, Y,
                                  stack_points(membrane_points[:10])) <= 1e-9

    def test_scaling_commutes_too(self, membrane_model, membrane_points):
        # [u d/du, d/ds] = 0 even though scaling is not a contact symmetry
        Y = builtin_symmetry_field(membrane_model, "scaling")
        assert reeb_bracket_check(membrane_model, Y,
                                  stack_points(membrane_points[:5])) <= 1e-9


class TestDissipatedQuantity:
    def test_membrane_current_components(self, membrane_model):
        # F = -i(Y) eta for Y = d/du gives (u_t, -mu^2 u_x, -mu^2 u_y)
        Y = builtin_symmetry_field(membrane_model, "du")
        F = dissipated_quantity(Y)
        z = random_phase_point(membrane_model, np.random.default_rng(3))
        vals = F(evaluate_jet(membrane_model, z), z.q, z.v, z.s)
        mu2 = membrane_model.params["mu"] ** 2
        assert np.allclose(vals, [z.v[0, 0], -mu2 * z.v[0, 1],
                                  -mu2 * z.v[0, 2]])

    def test_constant_field_with_s_component(self, membrane_model):
        Y = constant_field(membrane_model, Ys=[1.0, 0.0, 0.0])
        F = dissipated_quantity(Y)
        z = random_phase_point(membrane_model, np.random.default_rng(4))
        assert np.allclose(F(evaluate_jet(membrane_model, z), z.q, z.v, z.s),
                           [-1.0, 0.0, 0.0])


def reeb_dissipation_law(model, F, trace):
    """div(F o sigma) + R_a(E_L) F^a o sigma over the trace interior,
    slab by slab, with R_a(E_L) from the Reeb fields `reeb` solves."""
    def law(q, v, s, spacings, jet):
        Fvals = F(jet, q, v, s)
        rE = reeb_derivative_of_energy(jet, v, reeb(jet))
        k = len(spacings)
        return (_trace_div(Fvals, spacings, 1)
                + np.einsum("a...,a...->...", _trace_trim(rE, k, 1),
                            _trace_trim(Fvals, k, 1)))

    return np.concatenate(_map_slabs(law, model, trace), axis=-model.k)


def string_trace(model, N=33):
    grid = Grid(bounds=((0, np.pi),), counts=(N,))
    Z = grid.mesh()[0]
    init = SimState(phi=np.stack([np.sin(Z), 0.5 * np.sin(2 * Z)]),
                    phidot=np.zeros((2, N)), s1=np.zeros(N))
    return run(model, grid, 0.4 * grid.spacing[0], 1.0, init,
               output_every=2)


class TestDissipationLaw:
    @pytest.mark.parametrize(
        "model", builtin_models() + [
            born_infeld(), coupled_wave(),
            LagrangianModel(n=1, k=2, name="cubic", lagrangian=cubic)],
        ids=lambda m: m.name)
    def test_reeb_energy_derivative_is_minus_dLds(self, model):
        # W vcomp_a = -d2L/dvds^a turns R_a(E_L) into -dL/ds^a, which the
        # trace law reads in its place
        z = random_phase_point(model, np.random.default_rng(6), scale=0.5,
                               size=50)
        jet = evaluate_jet(model, z)
        assert np.all(hessian(jet).regular)
        dE = reeb_derivative_of_energy(jet, z.v, reeb(jet))
        assert np.all(np.abs(dE + jet.dLds)
                      <= 1e-14 * np.maximum(1.0, np.abs(jet.dLds)))

    @pytest.mark.parametrize("field", ["du", "scaling"])
    def test_membrane_law_is_the_reeb_law(self, membrane_model,
                                          membrane_trace, field):
        # R_a(E_L) = -dL/ds^a bit for bit for the membrane
        _, trace = membrane_trace
        F = dissipated_quantity(builtin_symmetry_field(membrane_model, field))
        assert np.array_equal(
            dissipation_law_check(membrane_model, F, trace),
            reeb_dissipation_law(membrane_model, F, trace))

    @pytest.mark.parametrize("field", ["du", "paperY"])
    def test_string_law_is_the_reeb_law(self, field):
        model = string(rho=1.0, tau=1.0, lam=0.1, gamma=0.3, B=1.0)
        trace = string_trace(model)
        F = dissipated_quantity(builtin_symmetry_field(model, field))
        assert np.array_equal(dissipation_law_check(model, F, trace),
                              reeb_dissipation_law(model, F, trace))

    @pytest.mark.parametrize("make", [coupled_wave, born_infeld],
                             ids=["coupled_wave", "born_infeld"])
    @pytest.mark.parametrize("field", ["du", "scaling"])
    def test_nonlinear_law_is_the_reeb_law(self, make, field):
        # point-dependent Hessians; coupled_wave couples v and s
        model = make()
        trace = periodic_trace(model)
        F = dissipated_quantity(builtin_symmetry_field(model, field))
        ref = reeb_dissipation_law(model, F, trace)
        got = dissipation_law_check(model, F, trace)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_momentum_law_is_the_du_law(self, membrane_model,
                                        membrane_trace):
        # F of d/du is p_0, so both checks compute the same residual
        _, trace = membrane_trace
        F = dissipated_quantity(builtin_symmetry_field(membrane_model, "du"))
        assert momentum_dissipation_check(membrane_model, 0, trace) == float(
            np.max(np.abs(dissipation_law_check(membrane_model, F, trace))))

    def test_law_holds_along_membrane_trace(self, membrane_model,
                                            membrane_trace):
        _, trace = membrane_trace
        Y = builtin_symmetry_field(membrane_model, "du")
        F = dissipated_quantity(Y)
        res = dissipation_law_check(membrane_model, F, trace)
        assert np.max(np.abs(res)) < 0.05  # O(h^2 + dt_out^2)

    def test_momentum_dissipation_cyclic(self, membrane_model,
                                         membrane_trace):
        _, trace = membrane_trace
        assert momentum_dissipation_check(membrane_model, 0,
                                          trace) < 0.05

    def test_non_cyclic_coordinate_rejected(self):
        model = string(rho=1.0, tau=1.0, lam=0.5, gamma=0.0, B=1.0)
        grid = Grid(bounds=((0, np.pi),), counts=(16,))
        Z = grid.mesh()[0]
        phi = np.zeros((2, 16))
        phi[0] = np.sin(Z)
        init = SimState(phi=phi, phidot=np.zeros((2, 16)),
                        s1=np.zeros(16))
        trace = run(model, grid, 0.05, 0.5, init)
        with pytest.raises(ValueError, match="not cyclic"):
            momentum_dissipation_check(model, 0, trace)

    def test_free_model_conserves(self):
        # gamma = 0: the law degenerates to a plain conservation law
        model = free(n=1, k=2)
        grid = Grid(bounds=((0, 2 * np.pi),), counts=(32,),
                    bc="periodic")
        Z = grid.mesh()[0]
        init = SimState(phi=np.sin(Z)[None],
                        phidot=np.zeros((1, 32)), s1=np.zeros(32))
        # NOTE: free has L = (v_t^2 + v_z^2)/2 (elliptic); integrate only
        # a very short time so nothing blows up, the law is pointwise
        trace = run(model, grid, 0.02, 0.2, init)
        Y = builtin_symmetry_field(model, "du")
        F = dissipated_quantity(Y)
        res = dissipation_law_check(model, F, trace)
        assert np.max(np.abs(res)) < 0.05
