"""End-to-end acceptance gate.

Eleven numbered criteria covering the full pipeline: reproduction of the
damped-membrane and charged-string reference solutions, the dissipation
law, symmetry/Reeb/Legendre/SOPDE identities, the inverse-problem
roundtrip, momentum-form consistency, the s-accumulation identity and
the undamped energy limit.

Each criterion prints a single pass/fail line (routed past pytest's
capture so it shows up in any run) and asserts at the stated tolerance.
The expensive membrane runs are session fixtures shared with conftest.
"""

import numpy as np
import pytest

from kcontact import (Grid, PdeSpec, SimState, assemble_sopde,
                      builtin_models, builtin_symmetry_field,
                      check_contact_symmetry, damped_oscillator,
                      dissipated_quantity, dissipation_law_check,
                      energy, energy_monitor, evaluate_jet,
                      evaluate_jet_batch, free,
                      hamiltonian_value, hdw_residual, legendre,
                      legendre_inverse, membrane, membrane_spec,
                      momentum_path_from_arrays, random_phase_point, reeb,
                      roundtrip_check, run, s_accumulation_check,
                      stack_points, string, sv_coupling, telegraph_spec,
                      trace_el_residual, trace_lagrangian,
                      trace_point_arrays, verify_reeb, verify_sopde)
from kcontact.cli import REFINEMENT_BAND
from conftest import GAMMA, MU, membrane_exact

LO, HI = REFINEMENT_BAND
BAND = f"({LO}-{HI})"


@pytest.fixture
def report(capsys):
    """One pass/fail line per criterion, emitted past pytest's capture."""

    def _report(num, ok, desc, detail):
        line = (f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] "
                f"{desc}: {detail}")
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def final_frame_error(trace, mesh):
    return float(np.max(np.abs(trace.phi[-1]
                               - membrane_exact(trace.t[-1], mesh))))


def test_criterion_01_membrane_reproduction(report, membrane_run_101,
                                            membrane_run_201_final):
    grid_f, trace_f, elapsed = membrane_run_101
    grid_2, trace_2, _ = membrane_run_201_final
    err_f = final_frame_error(trace_f, grid_f.mesh())
    err_2 = final_frame_error(trace_2, grid_2.mesh())
    ratio = err_f / err_2
    ok = err_f <= 1e-3 and elapsed <= 60.0 and LO <= ratio <= HI
    report(1, ok, "membrane damped mode, 101x101, t_end=5",
           f"err={err_f:.3e} (tol 1e-3), runtime={elapsed:.1f}s (max 60), "
           f"refinement ratio={ratio:.2f} {BAND}")


def test_criterion_02_dissipation_law(report, membrane_model, membrane_run_51,
                                      membrane_run_101):
    Y = builtin_symmetry_field(membrane_model, "du")
    F = dissipated_quantity(Y)
    res = [float(np.max(np.abs(dissipation_law_check(membrane_model, F,
                                                     trace))))
           for _, trace, _ in (membrane_run_51, membrane_run_101)]
    ratio = res[0] / res[1]
    ok = LO <= ratio <= HI
    report(2, ok, "div(F) = -gamma F^t along the membrane run",
           f"residuals {res[0]:.3e} -> {res[1]:.3e}, "
           f"ratio={ratio:.2f} {BAND}")


def test_criterion_03_symmetry_checker(report, membrane_model):
    rng = np.random.default_rng(101)
    pts = stack_points([random_phase_point(membrane_model, rng)
                        for _ in range(100)])
    jet = evaluate_jet(membrane_model, pts)
    good = check_contact_symmetry(
        jet, builtin_symmetry_field(membrane_model, "du"), pts)
    bad = check_contact_symmetry(
        jet, builtin_symmetry_field(membrane_model, "scaling"), pts)
    ok = (good["is_symmetry"] and good["max_residual"] <= 1e-9
          and not bad["is_symmetry"] and bad["max_residual"] > 1e-3)
    report(3, ok, "d/du is a contact symmetry, u d/du is not",
           f"d/du residual={good['max_residual']:.2e} (tol 1e-9), "
           f"u d/du residual={bad['max_residual']:.2e} (> 1e-3)")


def test_criterion_04_reeb_relations(report):
    models = [free(n=1, k=2), membrane(mu=MU, gamma=GAMMA),
              string(rho=1.0, tau=1.0, lam=0.1, gamma=0.3, B=1.0),
              sv_coupling(eps=0.1)]
    rng = np.random.default_rng(202)
    worst = 0.0
    for model in models:
        for _ in range(100):
            jet = evaluate_jet(model, random_phase_point(model, rng))
            res = verify_reeb(jet, reeb(jet))
            worst = max(worst, res["eta"], res["deta"])
    ok = worst <= 1e-9
    report(4, ok, "Reeb contraction identities, 100 points x 4 models",
           f"max residual={worst:.2e} (tol 1e-9)")


def test_criterion_05_legendre_roundtrip(report):
    rng = np.random.default_rng(303)
    worst_v, worst_h = 0.0, 0.0
    for model in builtin_models():
        for _ in range(100):
            z = random_phase_point(model, rng)
            jet = evaluate_jet(model, z)
            mp = legendre(jet, z)
            z2 = legendre_inverse(model, mp)
            worst_v = max(worst_v, float(np.max(np.abs(z2.v - z.v))))
            worst_h = max(worst_h,
                          abs(hamiltonian_value(model, mp)
                              - energy(jet, z)))
    ok = worst_v <= 1e-10 and worst_h <= 1e-10
    report(5, ok, "Legendre inversion and H = E_L duality",
           f"max |v - v'|={worst_v:.2e}, max |H - E_L|={worst_h:.2e} "
           "(tol 1e-10)")


def test_criterion_06_inverse_roundtrip(report):
    rng = np.random.default_rng(404)
    worst = max(roundtrip_check(membrane_spec(mu=MU, gamma=GAMMA),
                                n_samples=100),
                roundtrip_check(telegraph_spec(c=0.4, m=0.25),
                                n_samples=100))
    for _ in range(20):
        k = int(rng.integers(1, 4))
        while True:
            A = rng.uniform(-3.0, 3.0, (k, k))
            A = 0.5 * (A + A.T)
            if np.linalg.svd(A, compute_uv=False)[-1] > 1e-3:
                break
        spec = PdeSpec(A=A, D=rng.uniform(-3.0, 3.0, k))
        worst = max(worst, roundtrip_check(spec, n_samples=25, rng=rng))
    ok = worst <= 1e-9
    report(6, ok, "PDE -> Lagrangian -> PDE roundtrip, 22 specs",
           f"max residual={worst:.2e} (tol 1e-9)")


def test_criterion_07_sopde_assembly(report):
    rng = np.random.default_rng(505)
    worst = 0.0
    for model in builtin_models():
        for _ in range(20):
            z = random_phase_point(model, rng)
            jet = evaluate_jet(model, z)
            worst = max(worst, verify_sopde(jet, z, assemble_sopde(jet, z)))
    # k=1 exactness: pure damping has Gamma = -gamma v and g = L
    gamma = 0.2
    model = damped_oscillator(gamma=gamma, omega=0.0)
    z = random_phase_point(model, rng)
    jet = evaluate_jet(model, z)
    data = assemble_sopde(jet, z)
    L = jet.L
    exact = (np.array_equal(data.Gamma, -gamma * z.v[..., None])
             and data.g[0, 0] == L)
    ok = worst <= 1e-9 and exact
    report(7, ok, "SOPDE coefficients solve the field equations",
           f"max residual={worst:.2e} (tol 1e-9), "
           f"k=1 closed form exact={exact}")


def test_criterion_08_hdw_consistency(report, membrane_model, membrane_run_51,
                                      membrane_run_101):
    res = []
    for _, trace, _ in (membrane_run_51, membrane_run_101):
        q, v, s, spacings = trace_point_arrays(membrane_model, trace)
        path = momentum_path_from_arrays(
            evaluate_jet_batch(membrane_model, q, v, s), q, s, spacings)
        res.append(hdw_residual(membrane_model, path).max())
    ratio = res[0] / res[1]
    ok = LO <= ratio <= HI
    report(8, ok, "canonical momentum-form residual under refinement",
           f"residuals {res[0]:.3e} -> {res[1]:.3e}, "
           f"ratio={ratio:.2f} {BAND}")


def test_criterion_09_s_accumulation(report):
    checks = []
    # membrane, 2 space dims
    model = membrane(mu=MU, gamma=GAMMA)
    N = 17
    grid = Grid(bounds=((0, np.pi), (0, np.pi)), counts=(N, N))
    X, Y = grid.mesh()
    init = SimState(phi=(np.sin(X) * np.sin(Y))[None],
                    phidot=np.zeros((1, N, N)), s1=np.zeros((N, N)))
    checks.append((model, run(model, grid, 1e-3, 1.0, init)))
    # string, 1 space dim, two polarizations
    model = string(rho=1.0, tau=1.0, gamma=0.3, B=0.0, lam=0.0)
    N = 33
    grid = Grid(bounds=((0, np.pi),), counts=(N,))
    Z = grid.mesh()[0]
    phi = np.stack([np.sin(Z), 0.5 * np.sin(2 * Z)])
    init = SimState(phi=phi, phidot=np.zeros((2, N)), s1=np.zeros(N))
    checks.append((model, run(model, grid, 1e-3, 1.0, init)))

    ok = True
    details = []
    for model, trace in checks:
        tol = 1e-4 * float(np.max(np.abs(trace_lagrangian(model, trace)))) \
            * float(trace.t[-1] - trace.t[0])
        disc = s_accumulation_check(trace, model)
        ok = ok and disc <= tol
        details.append(f"{model.name}: {disc:.2e} (tol {tol:.2e})")
    report(9, ok, "ds^t/dt accumulates the Lagrangian", "; ".join(details))


def string_mode(gamma, m, t):
    """Analytic growth factor of spatial mode m of the B=0 string."""
    wm = np.sqrt(m ** 2 - gamma ** 2 / 4)
    return np.exp(gamma * t / 2) * (np.cos(wm * t)
                                    - gamma / (2 * wm) * np.sin(wm * t))


def test_criterion_10_string_example(report):
    gamma = 0.3
    model = string(rho=1.0, tau=1.0, gamma=gamma, B=0.0, lam=0.0)
    errs = []
    amp2 = 0.25  # second-mode amplitude (its stencil error is ~4x mode 1)
    for N in (51, 101):
        grid = Grid(bounds=((0, np.pi),), counts=(N,))
        Z = grid.mesh()[0]
        phi = np.stack([np.sin(Z), amp2 * np.sin(2 * Z)])
        init = SimState(phi=phi, phidot=np.zeros((2, N)), s1=np.zeros(N))
        trace = run(model, grid, 0.4 * grid.spacing[0], 5.0, init,
                    output_every=8)
        tf = trace.t[-1]
        errs.append((
            float(np.max(np.abs(trace.phi[-1, 0]
                                - string_mode(gamma, 1, tf) * np.sin(Z)))),
            float(np.max(np.abs(trace.phi[-1, 1]
                                - amp2 * string_mode(gamma, 2, tf)
                                * np.sin(2 * Z))))))
    ratios = (errs[0][0] / errs[1][0], errs[0][1] / errs[1][1])
    decoupled_ok = (max(errs[1]) <= 1e-3
                    and all(LO <= r <= HI for r in ratios))

    # B != 0 couples the polarizations: no closed form, check that the
    # field-equation residual of the trace refines at second order
    model = string(rho=1.0, tau=1.0, gamma=gamma, B=1.0, lam=0.1)
    res = []
    for N in (33, 65):
        grid = Grid(bounds=((0, np.pi),), counts=(N,))
        Z = grid.mesh()[0]
        phi = np.stack([np.sin(Z), 0.5 * np.sin(2 * Z)])
        init = SimState(phi=phi, phidot=np.zeros((2, N)), s1=np.zeros(N))
        trace = run(model, grid, 0.4 * grid.spacing[0], 2.0, init,
                    output_every=2)
        rEL, rS = trace_el_residual(model, trace)
        res.append(max(rEL, rS))
    order = float(np.log2(res[0] / res[1]))
    coupled_ok = 1.5 <= order <= 2.5
    ok = decoupled_ok and coupled_ok
    report(10, ok, "charged string: decoupled modes and coupled residual",
           f"B=0 errs x={errs[1][0]:.2e} y={errs[1][1]:.2e} (tol 1e-3), "
           f"ratios {ratios[0]:.2f}/{ratios[1]:.2f} {BAND}; "
           f"B=1 residual order={order:.2f} (2 +/- 0.5)")


def test_criterion_11_energy_monitor(report, membrane_model, membrane_run_101,
                                     membrane_undamped_run):
    model0, grid0, trace0 = membrane_undamped_run
    E0 = np.array([energy_monitor(model0, trace0.state(i), grid0)
                   for i in range(trace0.t.size)])
    drift = float(np.max(np.abs(E0 - E0[0])) / abs(E0[0]))

    grid, trace, _ = membrane_run_101
    E = np.array([energy_monitor(membrane_model, trace.state(i), grid)
                  for i in range(trace.t.size)])
    monotone = bool(np.all(np.diff(E) <= 1e-10 * abs(E[0])))
    ok = drift <= 1e-6 and monotone
    report(11, ok, "gamma=0 conserves energy, gamma>0 dissipates it",
           f"undamped relative drift={drift:.2e} (tol 1e-6) over t=10, "
           f"damped monotone non-increasing={monotone}")
