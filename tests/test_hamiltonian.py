"""Legendre inversion, Hamiltonian duality, HDW residuals."""

import numpy as np
import pytest

from kcontact import (LagrangianModel, MomentumPoint, NewtonError, NotRegularError,
                      PhasePoint, builtin_models, damped_oscillator,
                      energy, evaluate_jet, evaluate_jet_batch,
                      hamiltonian_value, hdw_residual,
                      legendre, legendre_inverse, membrane,
                      momentum_path_from_arrays, random_phase_point,
                      stack_points)
from kcontact import hamiltonian
from test_jet import born_infeld


def oscillator_path(gamma, omega, t_end, num):
    """Analytic damped-oscillator trajectory with the matching s(t).

    q'' + gamma q' + omega^2 q = 0 with q(0)=1, q'(0)=0; s solves the
    linear equation s' = (v^2 - omega^2 q^2)/2 - gamma s by an
    integrating-factor trapezoid rule (second order, enough to sit well
    under the central-difference error of the path check).
    """
    wd = np.sqrt(omega ** 2 - gamma ** 2 / 4)
    t = np.linspace(0.0, t_end, num)
    dt = t[1] - t[0]
    e = np.exp(-gamma * t / 2)
    q = e * (np.cos(wd * t) + gamma / (2 * wd) * np.sin(wd * t))
    v = e * (-(wd + gamma ** 2 / (4 * wd)) * np.sin(wd * t))
    f = 0.5 * v ** 2 - 0.5 * omega ** 2 * q ** 2
    s = np.zeros(num)
    decay = np.exp(-gamma * dt)
    for i in range(num - 1):
        s[i + 1] = (s[i] + 0.5 * dt * (f[i] + f[i + 1] / decay)) * decay
    return t, q[None], v[None, None], s[None]


class TestLegendreInverse:
    @pytest.mark.parametrize("model", builtin_models(),
                             ids=lambda m: m.name)
    def test_roundtrip_and_duality(self, model):
        rng = np.random.default_rng(21)
        for _ in range(100):
            z = random_phase_point(model, rng)
            jet = evaluate_jet(model, z)
            mp = legendre(jet, z)
            back = legendre_inverse(model, mp, v0=z.v + 0.1)
            assert np.max(np.abs(back.v - z.v)) <= 1e-10
            assert abs(hamiltonian_value(model, mp)
                       - energy(jet, z)) <= 1e-10

    def test_default_guess_is_momenta(self):
        model = builtin_models()[0]  # free: p = v
        mp = MomentumPoint(q=[0.4], p=[[1.0, -2.0]], s=[0.1, 0.2])
        z = legendre_inverse(model, mp)
        assert np.allclose(z.v, mp.p)

    def test_unreachable_momentum_raises(self):
        # p = v/sqrt(1+v^2) is bounded by 1, so p = 2 has no preimage;
        # the iterates run off to where W underflows
        from kcontact.taylor import sqrt as tsqrt
        model = LagrangianModel(
            n=1, k=1, name="bounded",
            lagrangian=lambda q, v, s: tsqrt(1.0 + v[0][0] * v[0][0]))
        mp = MomentumPoint(q=[0.0], p=[[2.0]], s=[0.0])
        with pytest.raises(NotRegularError):
            legendre_inverse(model, mp, v0=[[0.0]])

    def test_cycling_newton_raises_with_residual(self):
        # p(v) = v^3 - 2v + 2 puts Newton from v=0 on the classic
        # 0 -> 1 -> 0 two-cycle: regular W, no convergence
        def lag(q, v, s):
            w = v[0][0]
            return 0.25 * w ** 4 - w ** 2 + 2.0 * w

        model = LagrangianModel(n=1, k=1, name="cycling", lagrangian=lag)
        mp = MomentumPoint(q=[0.0], p=[[0.0]], s=[0.0])
        with pytest.raises(NewtonError) as err:
            legendre_inverse(model, mp)
        assert err.value.residual > 0

    def test_batched_preimages_match_single_point_solves(self,
                                                         monkeypatch):
        # Born-Infeld guesses at distances 1e-12 .. 1e-1 from the
        # preimage need 0 to several Newton steps; every point stops on
        # its own, so the batch returns the single-point preimages
        model = born_infeld()
        rng = np.random.default_rng(8)
        num = 12
        z = stack_points([random_phase_point(model, rng, scale=0.4)
                          for _ in range(num)])
        mp = legendre(evaluate_jet(model, z), z)
        v0 = z.v + rng.choice([-1.0, 1.0], size=(1, 2, num)) * np.logspace(
            -12, -1, num)
        sizes = []
        jet_batch = hamiltonian.evaluate_jet_batch

        def counted(model, q, v, s):
            sizes.append(q.shape[1:])
            return jet_batch(model, q, v, s)

        monkeypatch.setattr(hamiltonian, "evaluate_jet_batch", counted)
        batch = legendre_inverse(model, mp, v0=v0)
        assert len(set(sizes)) > 2  # the points stop at different steps
        monkeypatch.undo()
        for j in range(num):
            single = legendre_inverse(
                model, MomentumPoint(q=mp.q[:, j], p=mp.p[:, :, j],
                                     s=mp.s[:, j]), v0=v0[..., j])
            assert batch.v[..., j].tobytes() == single.v.tobytes(), j

    @pytest.mark.parametrize("start", ["preimage", "default", "off"])
    def test_preimage_shares_no_memory_with_its_input(self, start):
        # whether v0 is already the preimage (the free model's p) or
        # Newton updates it, the point returned owns its arrays and the
        # inputs keep their values
        model = builtin_models()[0]  # free: p = v
        mp = MomentumPoint(q=[0.4], p=[[1.0, -2.0]], s=[0.1, 0.2])
        v0 = {"preimage": mp.p.copy(), "default": None,
              "off": mp.p + 0.5}[start]
        before = [np.copy(x) for x in (mp.q, mp.p, mp.s, v0)]
        z = legendre_inverse(model, mp, v0=v0)
        assert np.array_equal(z.v, mp.p)
        for out in (z.q, z.v, z.s):
            for given in (mp.q, mp.p, mp.s, v0):
                assert not np.shares_memory(out, given)
        for x, old in zip((mp.q, mp.p, mp.s, v0), before):
            assert np.array_equal(x, old)

    def test_shape_mismatch_rejected(self):
        model = builtin_models()[2]
        mp = MomentumPoint(q=[0.0], p=[[1.0]], s=[0.0])
        with pytest.raises(ValueError):
            legendre_inverse(model, mp)


class TestHdw:
    def test_oscillator_residual_converges(self):
        gamma, omega = 0.2, 1.3
        model = damped_oscillator(gamma=gamma, omega=omega)
        maxima = []
        for num in (1001, 2001):
            t, q, v, s = oscillator_path(gamma, omega, 5.0, num)
            path = momentum_path_from_arrays(
                evaluate_jet_batch(model, q, v, s), q, s, [t[1] - t[0]])
            maxima.append(hdw_residual(model, path, v0=v).max())
        assert maxima[-1] < 1e-4
        assert 3.0 < maxima[0] / maxima[1] < 5.0

    def test_membrane_static_solution(self):
        # u = 0 identically solves the field equations; every residual
        # of the pushed path vanishes
        model = membrane(mu=1.0, gamma=0.2)
        shape = (9, 9, 9)
        q = np.zeros((1,) + shape)
        v = np.zeros((1, 3) + shape)
        s = np.zeros((3,) + shape)
        path = momentum_path_from_arrays(evaluate_jet_batch(model, q, v, s),
                                         q, s, [0.1, 0.1, 0.1])
        res = hdw_residual(model, path)
        assert res.max() == 0.0

    @pytest.mark.parametrize("start", ["default", "preimage"])
    def test_no_jet_at_the_first_or_last_frame(self, monkeypatch, start):
        # the residuals read the frames 1 ... T-2 only, so Newton solves
        # for the preimage there, and its jets cover those frames alone:
        # two jets from v0 = p (one step of a quadratic density), one
        # from the preimage itself
        model = membrane(mu=1.0, gamma=0.2)
        rng = np.random.default_rng(4)
        shape = (9, 8, 7)
        q, v, s = (rng.standard_normal(lead + shape)
                   for lead in ((1,), (1, 3), (3,)))
        path = momentum_path_from_arrays(evaluate_jet_batch(model, q, v, s),
                                         q, s, [0.1, 0.2, 0.3])
        original, points = hamiltonian.evaluate_jet_batch, []

        def counting(model, q, v, s):
            points.append(q.shape[1:])
            return original(model, q, v, s)

        monkeypatch.setattr(hamiltonian, "evaluate_jet_batch", counting)
        res = hdw_residual(model, path,
                           v0=None if start == "default" else v)
        assert points == [(7, 8, 7)] * {"default": 2, "preimage": 1}[start]
        assert res.r_s.shape == (5, 4, 3)

    def test_spacings_validated(self):
        model = damped_oscillator()
        t, q, v, s = oscillator_path(0.1, 1.0, 1.0, 101)
        jet = evaluate_jet_batch(model, q, v, s)
        path = momentum_path_from_arrays(jet, q, s, [0.01])
        bad = momentum_path_from_arrays(jet, q, s, [0.01, 0.01])
        hdw_residual(model, path)  # fine
        with pytest.raises(ValueError):
            hdw_residual(model, bad)
