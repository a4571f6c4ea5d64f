"""Contact forms, Legendre map, Hessian regularity, Reeb fields."""

import numpy as np
import pytest

from kcontact import (LagrangianModel, NotRegularError, PhasePoint,
                      builtin_models, energy, evaluate_jet,
                      free, hessian, legendre, membrane, random_phase_point,
                      reeb, reeb_derivative_of_energy, stack_points, string,
                      sv_coupling, verify_reeb)
from kcontact.contact import solve_batch
from kcontact.taylor import cos


def coupled_quartic(eps=0.2):
    """L = v^2/2 + eps s v cos q - v^4/40: d2L/dvds = eps cos q is not
    zero and W = 1 - 0.3 v^2 varies from point to point."""
    return LagrangianModel(
        n=1, k=1, name="coupled_quartic",
        lagrangian=lambda q, v, s: (0.5 * v[0][0] * v[0][0]
                                    + eps * s[0] * v[0][0] * cos(q[0])
                                    - 0.025 * v[0][0] ** 4))


@pytest.fixture
def membrane_point():
    model = membrane(mu=2.0, gamma=0.5)
    z = PhasePoint(q=[0.5], v=[[1.0, 2.0, -1.0]], s=[0.1, 0.0, 0.0])
    return model, z


class TestDerivedValues:
    """Hand-computed reference values for the damped membrane at
    q=0.5, v=(1,2,-1), s=(0.1,0,0) with mu=2, gamma=0.5."""

    def test_lagrangian_value(self, membrane_point):
        model, z = membrane_point
        jet = evaluate_jet(model, z)
        # 0.5*1 - 2*(4+1) - 0.05
        assert jet.L == pytest.approx(-9.55, abs=1e-12)

    def test_energy(self, membrane_point):
        model, z = membrane_point
        jet = evaluate_jet(model, z)
        assert energy(jet, z) == pytest.approx(-9.45, abs=1e-12)

    def test_momenta(self, membrane_point):
        model, z = membrane_point
        jet = evaluate_jet(model, z)
        assert np.allclose(jet.dLdv, [[1.0, -8.0, 4.0]])
        mp = legendre(jet, z)
        assert np.allclose(mp.p, [[1.0, -8.0, 4.0]])

    def test_hessian(self, membrane_point):
        model, z = membrane_point
        hw = hessian(evaluate_jet(model, z))
        assert hw.regular
        assert np.allclose(hw.W, np.diag([1.0, -4.0, -4.0]))
        assert hw.cond == pytest.approx(4.0)


class TestReeb:
    @pytest.mark.parametrize(
        "model",
        [free(n=1, k=2), membrane(mu=1.0, gamma=0.2),
         string(rho=1.0, tau=1.0, lam=0.1, gamma=0.3, B=1.0),
         sv_coupling(eps=0.1), coupled_quartic()],
        ids=lambda m: m.name)
    def test_defining_relations(self, model):
        rng = np.random.default_rng(2)
        for _ in range(100):
            z = random_phase_point(model, rng)
            jet = evaluate_jet(model, z)
            res = verify_reeb(jet, reeb(jet))
            assert res["eta"] <= 1e-9
            assert res["deta"] <= 1e-9

    def test_sv_coupling_component(self):
        # L = v^2/2 + eps*s*v: W = 1, d2L/dvds = eps, so the Reeb field
        # is d/ds - eps d/dv
        model = sv_coupling(eps=0.3)
        z = PhasePoint(q=[0.2], v=[[0.5]], s=[0.4])
        jet = evaluate_jet(model, z)
        assert reeb(jet).reshape(()) == pytest.approx(-0.3, abs=1e-14)

    def test_membrane_energy_derivative(self):
        # E does not depend on s except through -dL/ds = gamma
        model = membrane(mu=1.0, gamma=0.2)
        z = random_phase_point(model, np.random.default_rng(3))
        jet = evaluate_jet(model, z)
        dE = reeb_derivative_of_energy(jet, z.v, reeb(jet))
        assert np.allclose(dE, [0.2, 0.0, 0.0], atol=1e-14)

    def test_string_energy_derivative(self):
        # the string carries +gamma*s^t, so R_t(E) = -gamma
        model = string(rho=1.0, tau=1.0, lam=0.1, gamma=0.3, B=1.0)
        z = random_phase_point(model, np.random.default_rng(4))
        jet = evaluate_jet(model, z)
        dE = reeb_derivative_of_energy(jet, z.v, reeb(jet))
        assert np.allclose(dE, [-0.3, 0.0], atol=1e-14)

    def test_batch_energy_derivative_matches_pointwise(self):
        for model in (sv_coupling(eps=0.2), coupled_quartic()):
            rng = np.random.default_rng(5)
            pts = [random_phase_point(model, rng) for _ in range(6)]
            zs = stack_points(pts)
            jets = evaluate_jet(model, zs)
            batch = reeb_derivative_of_energy(jets, zs.v, reeb(jets))
            for idx, z in enumerate(pts):
                jet = evaluate_jet(model, z)
                assert np.allclose(batch[:, idx], reeb_derivative_of_energy(
                    jet, z.v, reeb(jet)))


class TestSolveBatch:
    """A W with one batch element is factored once against every column
    of b; the result must be bit for bit that of the per-point solves."""

    @pytest.mark.parametrize("r", [1, 2])
    def test_batch_constant_matches_per_point(self, r):
        rng = np.random.default_rng(r)
        W = rng.normal(size=(r, r)) + 2 * np.eye(r)
        W = W + W.T
        b = rng.normal(size=(r, 3, 4, 5))
        x = solve_batch(W[:, :, None, None], b, "singular")
        assert x.shape == b.shape
        for idx in np.ndindex(4, 5):
            assert np.array_equal(x[(...,) + idx],
                                  np.linalg.solve(W, b[(...,) + idx]))
        full = np.array(np.broadcast_to(W[:, :, None, None], (r, r, 4, 5)))
        assert np.array_equal(x, solve_batch(full, b, "singular"))

    @pytest.mark.parametrize("W", [[[0.0]], [[1.0, 2.0], [2.0, 4.0]]])
    def test_singular_batch_constant_raises(self, W):
        W = np.array(W)[:, :, None]
        with pytest.raises(NotRegularError, match="singular"):
            solve_batch(W, np.ones((W.shape[0], 1, 6)), "singular")

    @pytest.mark.parametrize("wb, bb, c", [
        ((), (), 1), ((), (), 3), ((1, 1), (4, 5), 1), ((1, 1), (4, 5), 2),
        ((4, 5), (4, 5), 1), ((4, 5), (4, 5), 3), ((4, 1), (4, 5), 1),
        ((), (6,), 1)])
    def test_one_by_one_is_a_division(self, wb, bb, c):
        # 1x1 systems skip LAPACK; the quotient is LAPACK's within 1 ulp
        rng = np.random.default_rng(len(wb) + len(bb) + c)
        W = rng.normal(size=(1, 1) + wb) * 10.0 ** rng.uniform(-3, 3, wb)
        b = rng.normal(size=(1, c) + bb)
        batch = np.broadcast_shapes(wb, bb)
        x = solve_batch(W, b, "singular")
        assert x.shape == (1, c) + batch
        Wb = np.broadcast_to(W, (1, 1) + batch).reshape(1, 1, -1)
        bb_ = np.broadcast_to(b, (1, c) + batch).reshape(1, c, -1)
        want = np.linalg.solve(Wb.transpose(2, 0, 1), bb_.transpose(2, 0, 1))
        np.testing.assert_array_max_ulp(
            x, want.transpose(1, 2, 0).reshape((1, c) + batch), maxulp=1)

    def test_one_by_one_zero_raises(self):
        W = np.ones((1, 1, 6))
        W[..., 4] = 0.0
        with pytest.raises(NotRegularError, match="singular"):
            solve_batch(W, np.ones((1, 1, 6)), "singular")


class TestDegenerate:
    def test_linear_lagrangian_not_regular(self):
        model = LagrangianModel(n=1, k=1, name="linear",
                                lagrangian=lambda q, v, s: v[0][0])
        z = PhasePoint(q=[0.0], v=[[1.0]], s=[0.0])
        jet = evaluate_jet(model, z)
        hw = hessian(jet)
        assert not hw.regular
        with pytest.raises(NotRegularError):
            reeb(jet)
