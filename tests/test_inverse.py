"""Inverse problem: PDE spec -> Lagrangian -> Euler-Lagrange roundtrip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcontact import (ConfigError, PdeSpec, PhasePoint, SecondJet,
                      build_lagrangian, direct_residual, el_residual,
                      evaluate_jet, membrane_spec, roundtrip_check,
                      telegraph_spec)
from kcontact.dynamics import el_residual_batch
from kcontact.inverse import render_lagrangian
from kcontact.jet import stack_points


def random_invertible_spec(rng, k):
    while True:
        A = rng.uniform(-3.0, 3.0, (k, k))
        A = 0.5 * (A + A.T)
        sv = np.linalg.svd(A, compute_uv=False)
        if sv[-1] > 1e-3:
            break
    D = rng.uniform(-3.0, 3.0, k)
    return PdeSpec(A=A, D=D)


class TestRoundtrip:
    def test_membrane_spec(self):
        assert roundtrip_check(membrane_spec(mu=1.0, gamma=0.2),
                               n_samples=100) <= 1e-10

    def test_telegraph_spec(self):
        assert roundtrip_check(telegraph_spec(c=0.4, m=0.25),
                               n_samples=100) <= 1e-10

    def test_free_spec_is_exact(self):
        spec = PdeSpec(A=np.diag([1.0, -1.0]), D=np.zeros(2))
        assert roundtrip_check(spec, n_samples=20) == 0.0

    def test_random_invertible_specs(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            spec = random_invertible_spec(rng, rng.integers(1, 4))
            assert roundtrip_check(spec, n_samples=25, rng=rng) <= 1e-9

    def test_scaling_property(self):
        # scaling (A, D, G) by a constant scales the EL residual too
        rng = np.random.default_rng(5)
        spec = PdeSpec(A=np.diag([1.0, -2.0]), D=np.array([0.3, -0.1]),
                       G=lambda u: 0.5 * u, gbar=lambda u: 0.25 * u * u)
        scaled = PdeSpec(A=3.0 * spec.A, D=3.0 * spec.D,
                         G=lambda u: 1.5 * u,
                         gbar=lambda u: 0.75 * u * u)
        m1, m2 = build_lagrangian(spec), build_lagrangian(scaled)
        for _ in range(10):
            z = PhasePoint(q=rng.uniform(-1, 1, 1),
                           v=rng.uniform(-1, 1, (1, 2)),
                           s=rng.uniform(-1, 1, 2))
            a = rng.uniform(-1, 1, (1, 2, 2))
            a = 0.5 * (a + np.swapaxes(a, 1, 2))
            sj = SecondJet(z=z, a=a, dsdt=rng.uniform(-1, 1, (2, 2)))
            r1, _ = el_residual(m1, sj)
            r2, _ = el_residual(m2, sj)
            assert r2[0] == pytest.approx(3.0 * r1[0], rel=1e-9,
                                          abs=1e-12)


def per_sample_roundtrip(spec, n_samples, rng):
    """`roundtrip_check` drawing and validating one sample at a time: the
    reference of its one-draw form."""
    model = build_lagrangian(spec)
    k = spec.k
    jets = []
    for _ in range(n_samples):
        z = PhasePoint(q=rng.uniform(-1.0, 1.0, 1),
                       v=rng.uniform(-1.0, 1.0, (1, k)),
                       s=rng.uniform(-1.0, 1.0, k))
        a = rng.uniform(-1.0, 1.0, (1, k, k))
        a = 0.5 * (a + np.swapaxes(a, 1, 2))
        jets.append(SecondJet(z=z, a=a,
                              dsdt=rng.uniform(-1.0, 1.0, (k, k))))
    direct = [direct_residual(spec, sj) for sj in jets]
    z = stack_points([sj.z for sj in jets])
    rEL, _ = el_residual_batch(
        evaluate_jet(model, z), z.v, np.stack([sj.a for sj in jets], axis=-1),
        np.stack([sj.dsdt for sj in jets], axis=-1))
    return float(np.max(np.abs(rEL[0] - direct)))


class TestOneDraw:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_columns_are_the_per_sample_draws(self, k):
        for seed in (0, 7, 123):
            rows = np.random.default_rng(seed).uniform(
                -1.0, 1.0, (9, 1 + 2 * k + 2 * k * k))
            rng = np.random.default_rng(seed)
            for row in rows:
                draws = [rng.uniform(-1.0, 1.0, 1),
                         rng.uniform(-1.0, 1.0, (1, k)),
                         rng.uniform(-1.0, 1.0, k),
                         rng.uniform(-1.0, 1.0, (1, k, k)),
                         rng.uniform(-1.0, 1.0, (k, k))]
                assert np.array_equal(
                    row, np.concatenate([d.ravel() for d in draws]))

    @pytest.mark.parametrize("spec", [
        membrane_spec(mu=1.0, gamma=0.2), telegraph_spec(c=0.4, m=0.25),
        random_invertible_spec(np.random.default_rng(3), 3),
        random_invertible_spec(np.random.default_rng(4), 4)],
        ids=["membrane", "telegraph", "k3", "k4"])
    @pytest.mark.parametrize("n_samples", [1, 7, 100])
    def test_same_float_as_per_sample_draws(self, spec, n_samples):
        for seed in range(4):
            rng, ref = (np.random.default_rng(seed) for _ in range(2))
            assert roundtrip_check(spec, n_samples, rng) == \
                per_sample_roundtrip(spec, n_samples, ref)
            # both leave the stream at the same place
            assert rng.uniform() == ref.uniform()


class TestConstruction:
    def test_parabolic_spec_rejected(self):
        spec = PdeSpec(A=np.array([[1.0, 1.0], [1.0, 1.0]]),
                       D=np.zeros(2))
        with pytest.raises(ConfigError, match="parabolic"):
            build_lagrangian(spec)

    def test_asymmetric_A_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            PdeSpec(A=np.array([[1.0, 2.0], [0.0, 1.0]]), D=np.zeros(2))

    def test_built_model_derivatives(self):
        # L = A v v / 2 - (A^-1 D) s - gbar(u): check the jet blocks
        spec = telegraph_spec(c=0.4, m=0.25)
        model = build_lagrangian(spec)
        z = PhasePoint(q=[0.6], v=[[0.3, -0.7]], s=[0.1, 0.2])
        jet = evaluate_jet(model, z)
        assert np.allclose(jet.d2Ldvdv.reshape(2, 2), spec.A)
        c = np.linalg.solve(spec.A, spec.D)
        assert np.allclose(jet.dLds, -c)
        assert jet.dLdq[0] == pytest.approx(-0.25 * 0.6, abs=1e-13)

    def test_G_without_antiderivative_refused(self):
        # gbar enters the Lagrangian; no quadrature stands in for it
        with pytest.raises(ValueError, match="antiderivative gbar"):
            PdeSpec(A=np.diag([1.0, -1.0]), D=np.zeros(2),
                    G=lambda u: 0.4 * u)

    def test_from_dict(self):
        spec = PdeSpec.from_dict({"A": [[1.0, 0.0], [0.0, -1.0]],
                                  "D": [0.0, 0.4],
                                  "G": {"poly": [0.0, 0.25]}})
        assert roundtrip_check(spec, n_samples=20) <= 1e-10
        with pytest.raises(ConfigError, match="unknown"):
            PdeSpec.from_dict({"A": [[1.0]], "D": [0.0], "bogus": 1})

    def test_direct_residual_is_the_pde(self):
        spec = membrane_spec(mu=2.0, gamma=0.5)
        z = PhasePoint(q=[0.1], v=[[0.7, 0.2, -0.3]], s=[0.0, 0.0, 0.0])
        a = np.zeros((1, 3, 3))
        a[0, 0, 0], a[0, 1, 1], a[0, 2, 2] = 0.9, 0.4, -0.2
        sj = SecondJet(z=z, a=a, dsdt=np.zeros((3, 3)))
        expect = 0.9 - 4.0 * (0.4 - 0.2) + 0.5 * 0.7
        assert direct_residual(spec, sj) == pytest.approx(expect,
                                                          abs=1e-13)

    def test_render(self):
        text = render_lagrangian(telegraph_spec(c=0.4, m=0.25))
        assert "u_t*u_t" in text and "s_x" in text and "u^2" in text


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    spec = random_invertible_spec(rng, int(rng.integers(1, 4)))
    assert roundtrip_check(spec, n_samples=5, rng=rng) <= 1e-9
