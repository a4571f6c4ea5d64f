"""Euler-Lagrange residuals, evolution form, and SOPDE assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcontact import (Jet2, LagrangianModel, NotRegularError, PhasePoint,
                      SecondJet, SopdeData, assemble_sopde,
                      builtin_models, builtin_symmetry_field,
                      check_contact_symmetry, damped_oscillator,
                      el_residual, energy, evaluate_jet, hamiltonian_value,
                      hessian, legendre, legendre_inverse, membrane,
                      random_phase_point, reeb,
                      reeb_bracket_check, reeb_derivative_of_energy,
                      stack_points, string, sv_coupling, verify_reeb,
                      verify_sopde)
from kcontact.dynamics import (_el_operator, el_residual_batch,
                               evolution_rhs_batch, gauge_s_velocities)
from test_contact import coupled_quartic
from test_jet import born_infeld

MODELS = builtin_models()


def membrane_second_jet(mu, gamma, u, ut, ux, uy, utt, uxx, uyy, s1):
    """Second jet of a membrane configuration with the s-gauge applied
    (s^t carries the density, the cross second derivatives vanish)."""
    z = PhasePoint(q=[u], v=[[ut, ux, uy]], s=[s1, 0.0, 0.0])
    a = np.zeros((1, 3, 3))
    a[0, 0, 0], a[0, 1, 1], a[0, 2, 2] = utt, uxx, uyy
    L = 0.5 * ut ** 2 - 0.5 * mu ** 2 * (ux ** 2 + uy ** 2) - gamma * s1
    dsdt = np.zeros((3, 3))
    dsdt[0, 0] = L
    return z, SecondJet(z=z, a=a, dsdt=dsdt)


class TestElResidual:
    def test_membrane_equation_recovered(self):
        # residual must equal u_tt - mu^2(u_xx + u_yy) + gamma*u_t
        mu, gamma = 1.3, 0.4
        model = membrane(mu=mu, gamma=gamma)
        vals = dict(u=0.2, ut=0.7, ux=-0.3, uy=0.5,
                    utt=0.9, uxx=-0.6, uyy=0.4, s1=0.25)
        z, sj = membrane_second_jet(mu, gamma, **vals)
        rEL, rS = el_residual(model, sj)
        expect = (vals["utt"] - mu ** 2 * (vals["uxx"] + vals["uyy"])
                  + gamma * vals["ut"])
        assert rEL[0] == pytest.approx(expect, abs=1e-13)
        assert rS == pytest.approx(0.0, abs=1e-13)

    def test_exact_solution_jet_has_zero_residual(self):
        # pick u_tt so the field equation holds
        mu, gamma = 1.0, 0.2
        model = membrane(mu=mu, gamma=gamma)
        uxx, uyy, ut = -0.6, 0.4, 0.7
        utt = mu ** 2 * (uxx + uyy) - gamma * ut
        z, sj = membrane_second_jet(mu, gamma, u=0.2, ut=ut, ux=-0.3,
                                    uy=0.5, utt=utt, uxx=uxx, uyy=uyy,
                                    s1=0.25)
        rEL, rS = el_residual(model, sj)
        assert abs(rEL[0]) < 1e-13 and abs(rS) < 1e-13

    def test_asymmetric_second_jet_rejected(self):
        z = PhasePoint(q=[0.0], v=[[0.0, 0.0]], s=[0.0, 0.0])
        a = np.zeros((1, 2, 2))
        a[0, 0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            SecondJet(z=z, a=a, dsdt=np.zeros((2, 2)))


def evolution_jet(z, spatial, mixed):
    """SecondJet with the given spatial and mixed second derivatives;
    the time-time entries and dsdt are zero."""
    n, k = z.n, z.k
    a = np.zeros((n, k, k))
    a[:, 1:, 1:] = spatial
    a[:, 0, 1:] = a[:, 1:, 0] = mixed
    return SecondJet(z=z, a=a, dsdt=np.zeros((k, k)))


def accelerations(model, sj):
    """The time-time second derivatives that solve the field equations
    at the single-point second jet `sj` (its time-time entries and
    dsdt[0, 0] are ignored)."""
    return evolution_rhs_batch(evaluate_jet(model, sj.z), sj.z.v, sj.a,
                               sj.dsdt)[0]


class TestEvolutionRhs:
    def test_membrane_acceleration(self):
        mu, gamma = 1.5, 0.3
        model = membrane(mu=mu, gamma=gamma)
        z = PhasePoint(q=[0.1], v=[[0.7, -0.2, 0.4]], s=[0.05, 0.0, 0.0])
        spatial = np.array([[[-0.6, 0.1], [0.1, 0.3]]])
        mixed = np.array([[0.2, -0.1]])
        acc = accelerations(model, evolution_jet(z, spatial, mixed))
        expect = mu ** 2 * (spatial[0, 0, 0] + spatial[0, 1, 1]) \
            - gamma * z.v[0, 0]
        assert acc[0] == pytest.approx(expect, abs=1e-13)

    def test_string_coupled_accelerations(self):
        # with B != 0 the magnetic force couples the polarizations
        model = string(rho=2.0, tau=1.0, lam=0.5, gamma=0.0, B=1.0)
        z = PhasePoint(q=[0.3, -0.2], v=[[0.4, 0.1], [-0.3, 0.6]],
                       s=[0.0, 0.0])
        spatial = np.array([[[0.5]], [[-0.7]]])
        mixed = np.zeros((2, 1))
        acc = accelerations(model, evolution_jet(z, spatial, mixed))
        # rho*x_tt = tau*x_zz + lam*B*y_t, rho*y_tt = tau*y_zz - lam*B*x_t
        assert acc[0] == pytest.approx((0.5 + 0.5 * (-0.3)) / 2.0, abs=1e-13)
        assert acc[1] == pytest.approx((-0.7 - 0.5 * 0.4) / 2.0, abs=1e-13)

    @pytest.mark.parametrize("model", [sv_coupling(eps=0.1),
                                       coupled_quartic()],
                             ids=lambda m: m.name)
    def test_s_coupled_accelerations_solve_equations(self, model):
        # the accelerations returned in the evolution gauge zero the
        # Euler-Lagrange residual, including its d2L/dvds term
        rng = np.random.default_rng(4)
        for _ in range(20):
            z = random_phase_point(model, rng)
            a = np.zeros((1, 1, 1))
            a[0, 0, 0] = accelerations(model, SecondJet(
                z=z, a=a, dsdt=np.zeros((1, 1))))[0]
            dsdt = gauge_s_velocities(evaluate_jet(model, z).L, 1)
            rEL, rS = el_residual(model, SecondJet(z=z, a=a, dsdt=dsdt))
            assert np.max(np.abs(rEL)) <= 1e-12 and abs(rS) <= 1e-12

    def test_degenerate_time_block_refused(self):
        model = LagrangianModel(
            n=1, k=2, name="spaceonly",
            lagrangian=lambda q, v, s: 0.5 * v[0][1] * v[0][1])
        z = PhasePoint(q=[0.0], v=[[1.0, 1.0]], s=[0.0, 0.0])
        with pytest.raises(NotRegularError, match="direction t"):
            accelerations(model, SecondJet(z=z, a=np.zeros((1, 2, 2)),
                                           dsdt=np.zeros((2, 2))))


class TestSopde:
    @pytest.mark.parametrize("model", builtin_models(),
                             ids=lambda m: m.name)
    def test_assembled_coefficients_solve_equations(self, model):
        rng = np.random.default_rng(9)
        for _ in range(20):
            z = random_phase_point(model, rng)
            jet = evaluate_jet(model, z)
            sopde = assemble_sopde(jet, z)
            assert verify_sopde(jet, z, sopde) <= 1e-9
            assert np.allclose(sopde.Gamma,
                               np.swapaxes(sopde.Gamma, 1, 2))

    def test_oscillator_brute_force(self):
        # for k=1 the system is determined: Gamma = -omega^2 q - gamma v
        gamma, omega = 0.3, 1.4
        model = damped_oscillator(gamma=gamma, omega=omega)
        z = PhasePoint(q=[0.6], v=[[-0.8]], s=[0.2])
        sopde = assemble_sopde(evaluate_jet(model, z), z)
        assert sopde.Gamma.reshape(()) == pytest.approx(
            -omega ** 2 * 0.6 - gamma * (-0.8), abs=1e-13)
        L = 0.5 * 0.64 - 0.5 * omega ** 2 * 0.36 - gamma * 0.2
        assert sopde.g.reshape(()) == pytest.approx(L, abs=1e-13)

    def test_pure_damping_case(self):
        # without the spring term, Gamma = -gamma*v exactly
        model = damped_oscillator(gamma=0.25, omega=0.0)
        z = PhasePoint(q=[1.1], v=[[0.4]], s=[-0.3])
        sopde = assemble_sopde(evaluate_jet(model, z), z)
        assert sopde.Gamma.reshape(()) == pytest.approx(-0.25 * 0.4,
                                                        abs=1e-14)

    def test_gauge_velocities(self):
        g = gauge_s_velocities(-2.5, 3)
        assert g[0, 0] == -2.5
        assert np.all(g.ravel()[1:] == 0.0)

    def test_irregular_point_rejected(self):
        model = LagrangianModel(n=1, k=1, name="linear",
                                lagrangian=lambda q, v, s: v[0][0])
        z = PhasePoint(q=[0.0], v=[[1.0]], s=[0.0])
        with pytest.raises(NotRegularError):
            assemble_sopde(evaluate_jet(model, z), z)


@settings(max_examples=60, deadline=None)
@given(index=st.integers(0, len(MODELS) - 1),
       seed=st.integers(0, 2 ** 32 - 1))
def test_single_point_paths_agree_bitwise(index, seed):
    """el_residual, el_residual_batch and verify_sopde evaluate the same
    Euler-Lagrange operator: equal bit for bit at single points.  Every
    pointwise quantity at a single point equals its slice of a stacked
    batch bit for bit, except the SOPDE Gamma."""
    model = MODELS[index]
    n, k = model.n, model.k
    rng = np.random.default_rng(seed)
    z = random_phase_point(model, rng)
    a = rng.uniform(-1, 1, (n, k, k))
    a = a + np.swapaxes(a, 1, 2)
    dsdt = rng.uniform(-1, 1, (k, k))
    jet = evaluate_jet(model, z)
    rEL, rS = el_residual(model, SecondJet(z=z, a=a, dsdt=dsdt))
    bEL, bS = el_residual_batch(jet, z.v, a, dsdt)
    assert np.array_equal(rEL, bEL) and rS == bS
    for sopde in (SopdeData(Gamma=a, g=dsdt.T), assemble_sopde(jet, z)):
        rEL, rS = el_residual(model, SecondJet(z=z, a=sopde.Gamma,
                                               dsdt=sopde.g.T))
        assert verify_sopde(jet, z, sopde) == max(np.max(np.abs(rEL)),
                                                  abs(rS))
    assert evolution_rhs_batch(jet, z.v, a, dsdt)[1] == jet.L

    # the same bodies over a stack: the single point is slice 0
    points = [z] + [random_phase_point(model, rng) for _ in range(3)]
    zs = stack_points(points)
    jets = evaluate_jet(model, zs)
    for name in Jet2.__dataclass_fields__:
        if name == "layout":  # structural: shared, no batch axes
            assert jet.layout is jets.layout
        else:
            assert np.array_equal(getattr(jet, name),
                                  getattr(jets, name)[..., 0])
    assert energy(jet, z) == energy(jets, zs)[0]
    hw, hws = hessian(jet), hessian(jets)
    assert np.array_equal(hw.W, hws.W[..., 0])
    assert hw.regular == hws.regular[0] and hw.cond == hws.cond[0]
    rf, rfs = reeb(jet), reeb(jets)
    assert np.array_equal(rf, rfs[..., 0])
    assert np.array_equal(reeb_derivative_of_energy(jet, z.v, rf),
                          reeb_derivative_of_energy(jets, zs.v, rfs)[..., 0])
    one, many = verify_reeb(jet, rf), verify_reeb(jets, rfs)
    assert all(one[key] == many[key][0] for key in one)
    one, many = assemble_sopde(jet, z), assemble_sopde(jets, zs)
    # pinv of one matrix and of a stack may round differently
    assert np.max(np.abs(one.Gamma - many.Gamma[..., 0])) <= 1e-15
    assert np.array_equal(one.g, many.g[..., 0])
    sliced = SopdeData(Gamma=many.Gamma[..., 0], g=many.g[..., 0])
    assert verify_sopde(jet, z, sliced) == verify_sopde(jets, zs, many)[0]
    mp, mps = legendre(jet, z), legendre(jets, zs)
    assert np.array_equal(legendre_inverse(model, mp).v,
                          legendre_inverse(model, mps).v[..., 0])
    assert hamiltonian_value(model, mp) == hamiltonian_value(model, mps)[0]
    # checks that reduce over their points: the stack gives the largest
    # single-point result
    Y = builtin_symmetry_field(model, "du")
    assert check_contact_symmetry(jets, Y, zs)["max_residual"] == max(
        check_contact_symmetry(evaluate_jet(model, p), Y, p)["max_residual"]
        for p in points)
    assert reeb_bracket_check(model, Y, zs) == max(
        reeb_bracket_check(model, Y, p) for p in points)


def dense_el_operator(jet, v, a, dsdt):
    """The Euler-Lagrange field residual as three dense einsums over every
    entry of the second-derivative blocks: the reference for the masked
    sum of `_el_operator`."""
    return (np.einsum("iajb...,jba...->i...", jet.d2Ldvdv, a)
            + np.einsum("iaj...,ja...->i...", jet.d2Ldvdq, v)
            + np.einsum("iab...,ab...->i...", jet.d2Ldvds, dsdt)
            - jet.dLdq
            - np.einsum("a...,ia...->i...", jet.dLds, jet.dLdv))


@pytest.mark.parametrize("batch", [(5,), (3, 4)], ids=str)
@pytest.mark.parametrize("model", MODELS + [born_infeld(), coupled_quartic()],
                         ids=lambda m: f"{m.name}-n{m.n}k{m.k}")
def test_masked_operator_equals_dense_einsums_bitwise(model, batch):
    # dense random a and dsdt: the masks skip entries that are not zero
    # in the operands, only in the blocks
    n, k = model.n, model.k
    rng = np.random.default_rng(7)
    q = rng.uniform(-0.5, 0.5, (n,) + batch)
    v = rng.uniform(-0.5, 0.5, (n, k) + batch)
    s = rng.uniform(-0.5, 0.5, (k,) + batch)
    a = rng.standard_normal((n, k, k) + batch)
    a = a + np.swapaxes(a, 1, 2)
    dsdt = rng.standard_normal((k, k) + batch)
    jet = evaluate_jet(model, PhasePoint(q=q, v=v, s=s))
    assert np.array_equal(_el_operator(jet, v, a, dsdt),
                          dense_el_operator(jet, v, a, dsdt))
    # the evolution form reads a[:, 0, 0] as 0 and dsdt[0, 0] as L
    a_ev, dsdt_ev = a.copy(), dsdt.copy()
    a_ev[:, 0, 0] = 0.0
    dsdt_ev[0, 0] = jet.L
    assert np.array_equal(_el_operator(jet, v, a, dsdt, evolution=True),
                          dense_el_operator(jet, v, a_ev, dsdt_ev))


def test_evolution_rhs_batch_leaves_its_inputs_alone():
    model = string(rho=1.0, tau=1.0, lam=0.1, gamma=0.3, B=1.0)
    rng = np.random.default_rng(4)
    z = stack_points(random_phase_point(model, rng) for _ in range(5))
    a = rng.standard_normal((2, 2, 2, 5))
    a = a + np.swapaxes(a, 1, 2)
    dsdt = rng.standard_normal((2, 2, 5))
    a0, dsdt0 = a.copy(), dsdt.copy()
    jet = evaluate_jet(model, z)
    acc, L = evolution_rhs_batch(jet, z.v, a, dsdt)
    assert np.array_equal(a, a0) and np.array_equal(dsdt, dsdt0)
    assert np.array_equal(L, jet.L)
