"""Exact jets vs pure finite differences of the Lagrangian density."""

import threading
import tracemalloc

import numpy as np
import pytest

from kcontact import (Jet2, KContactError, LagrangianModel, PhasePoint,
                      builtin_models, evaluate_jet, evaluate_jet_batch,
                      fd_check, membrane, random_phase_point, stack_points,
                      sv_coupling)
from kcontact import jet as jet_module
from kcontact.contact import _energy_gradients
from kcontact.models import MODELS
from kcontact.taylor import TaylorContext, sqrt, variables
from conftest import cubic
from test_contact import coupled_quartic


@pytest.mark.parametrize("model", builtin_models(),
                         ids=lambda m: f"{m.name}-n{m.n}k{m.k}")
def test_fd_check_all_models(model):
    rng = np.random.default_rng(11)
    for _ in range(5):
        z = random_phase_point(model, rng)
        assert fd_check(model, z) < 1e-6


def test_jet_shapes():
    model = builtin_models()[3]  # string, n=2, k=2
    rng = np.random.default_rng(0)
    z = random_phase_point(model, rng)
    jet = evaluate_jet(model, z)
    n, k = model.n, model.k
    assert jet.dLdq.shape == (n,)
    assert jet.dLdv.shape == (n, k)
    assert jet.dLds.shape == (k,)
    assert jet.d2Ldvdv.shape == (n, k, n, k)
    assert jet.d2Ldvdq.shape == (n, k, n)
    assert jet.d2Ldvds.shape == (n, k, k)


def born_infeld():
    """L = 1 - sqrt(1 - u_t^2 + u_x^2): every Hessian block varies from
    point to point."""
    return LagrangianModel(
        n=1, k=2, name="born_infeld",
        lagrangian=lambda q, v, s: 1.0 - sqrt(1.0 - v[0][0] * v[0][0]
                                              + v[0][1] * v[0][1]))


def test_batch_matches_single():
    # broadcast to the batch, every block equals the stacked single-point
    # jets bit for bit, whether it is batch-constant or not
    rng = np.random.default_rng(5)
    for model in builtin_models() + [born_infeld(), coupled_quartic()]:
        pts = [random_phase_point(model, rng, scale=0.5) for _ in range(7)]
        z = stack_points(pts)
        jb = evaluate_jet_batch(model, z.q, z.v, z.s)
        singles = [evaluate_jet(model, p) for p in pts]
        for name in Jet2.__dataclass_fields__:
            block = getattr(jb, name)
            if name == "layout":  # structural: shared, no batch axes
                assert all(j.layout is block for j in singles), model
                continue
            single = np.stack([getattr(j, name) for j in singles], axis=-1)
            assert np.array_equal(
                np.broadcast_to(block, single.shape), single), (model, name)


def test_membrane_masks():
    # L = u_t^2/2 - mu^2 (u_x^2 + u_y^2)/2 - gamma s^t: W is diagonal,
    # and no second derivative pairs a velocity with q or s
    jet = evaluate_jet(membrane(), random_phase_point(
        membrane(), np.random.default_rng(0)))
    layout = jet.layout
    assert np.array_equal(layout.mask_vv[0, :, 0, :], np.eye(3, dtype=bool))
    assert layout.mask_vv.shape == (1, 3, 1, 3)
    assert layout.mask_vq.shape == (1, 3, 1) and not layout.mask_vq.any()
    assert layout.mask_vs.shape == (1, 3, 3) and not layout.mask_vs.any()


def test_born_infeld_stores_every_velocity_entry():
    jet = evaluate_jet(born_infeld(), random_phase_point(
        born_infeld(), np.random.default_rng(0), scale=0.5))
    assert jet.layout.mask_vv.all()
    assert not jet.layout.mask_vq.any() and not jet.layout.mask_vs.any()


def test_sv_coupling_stores_one_s_entry():
    # L = v^2/2 + eps s v: d2L/dv ds is the single entry [0, 0, 0]
    jet = evaluate_jet(sv_coupling(), random_phase_point(
        sv_coupling(), np.random.default_rng(0)))
    assert np.argwhere(jet.layout.mask_vs).tolist() == [[0, 0, 0]]


@pytest.mark.parametrize("model", builtin_models() + [born_infeld(),
                                                      coupled_quartic()],
                         ids=lambda m: f"{m.name}-n{m.n}k{m.k}")
def test_masks_cover_every_nonzero_entry(model):
    # the masks come from the kernel's keys; every entry with a nonzero
    # value at some point must be marked, and the masks do not depend
    # on the point or the batch shape
    rng = np.random.default_rng(3)
    z = stack_points(random_phase_point(model, rng, scale=0.5)
                     for _ in range(6))
    jet = evaluate_jet(model, z)
    single = evaluate_jet(model, random_phase_point(model, rng))
    for block, mask in (("d2Ldvdv", "mask_vv"), ("d2Ldvdq", "mask_vq"),
                        ("d2Ldvds", "mask_vs")):
        values, marks = getattr(jet, block), getattr(jet.layout, mask)
        assert marks.dtype == bool and marks.shape == values.shape[:-1]
        nonzero = np.any(values != 0, axis=-1)
        assert not np.any(nonzero & ~marks), (block, np.argwhere(nonzero))
        assert np.array_equal(marks, getattr(single.layout, mask))


def test_layout_keyed_on_stored_entries():
    # same (n, k), different stored entries: different layouts, masks
    # and entry lists; the same entries share one layout, whatever the
    # model object, and a density whose stored set changes between two
    # calls gets the layout of each call
    cross = [False]

    def density(q, v, s):
        ut, ux = v[0]
        return ut * ux if cross[0] else 0.5 * ut * ut - 0.5 * ux * ux

    model = LagrangianModel(n=1, k=2, name="switch", lagrangian=density)
    z = random_phase_point(model, np.random.default_rng(4))
    diag = evaluate_jet(model, z)
    again = evaluate_jet(LagrangianModel(n=1, k=2, name="other",
                                         lagrangian=density), z)
    cross[0] = True
    off = evaluate_jet(model, z)
    assert again.layout is diag.layout and off.layout is not diag.layout
    assert np.argwhere(diag.layout.mask_vv).tolist() == [[0, 0, 0, 0],
                                                  [0, 1, 0, 1]]
    assert np.argwhere(off.layout.mask_vv).tolist() == [[0, 0, 0, 1],
                                                 [0, 1, 0, 0]]
    assert diag.layout.vv == ((0, 0, 0, 0), (0, 1, 0, 1))
    assert diag.layout.vv_evolution == ((0, 1, 0, 1),)
    assert off.layout.vv == off.layout.vv_evolution == ((0, 0, 0, 1),
                                                        (0, 1, 0, 0))
    assert off.d2Ldvdv[0, 0, 0, 1] == 1.0 and off.d2Ldvdv[0, 0, 0, 0] == 0


def test_shared_arrays_are_read_only():
    # masks, seed rows and zero blocks are shared between jets: a write
    # raises instead of changing every later jet
    model = membrane()
    jet = evaluate_jet(model, random_phase_point(model,
                                                 np.random.default_rng(1)))
    seeds = variables(TaylorContext(1, 3), np.zeros((1, 4)),
                      np.zeros((1, 3, 4)), np.zeros((3, 4)))
    shared = [jet.layout.mask_vv, jet.layout.mask_vq, jet.layout.mask_vs,
              jet.dLdq, seeds[0][0].grad[0], seeds[1][0][2].grad[3]]
    assert seeds[0][0].grad[0] is seeds[2][1].grad[5]  # one row per rank
    for arr in shared:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 1


@pytest.mark.parametrize("model", builtin_models() + [born_infeld(),
                                                      coupled_quartic()],
                         ids=lambda m: f"{m.name}-n{m.n}k{m.k}")
def test_coordinates_not_written(model):
    # seeds are views of the coordinates; neither the density nor a
    # write into every writeable jet block reaches them
    rng = np.random.default_rng(9)
    q, v, s = (rng.uniform(-0.5, 0.5, lead + (3, 4)) for lead in
               ((model.n,), (model.n, model.k), (model.k,)))
    q[..., 0] = -0.0
    before = [x.copy() for x in (q, v, s)]
    jet = evaluate_jet_batch(model, q, v, s)
    for name in Jet2.__dataclass_fields__:
        block = getattr(jet, name)
        if name != "layout" and block.flags.writeable:
            block[...] = np.nan
    for x, x0 in zip((q, v, s), before):
        assert x.tobytes() == x0.tobytes()


@pytest.mark.parametrize("batch", [(), (3, 4)], ids=["point", "batch"])
@pytest.mark.parametrize("model", builtin_models() + [
    born_infeld(), LagrangianModel(n=1, k=2, name="cubic", lagrangian=cubic)],
    ids=lambda m: f"{m.name}-n{m.n}k{m.k}")
def test_unit_row_folding_is_exact(model, batch, monkeypatch):
    # the shared unit row of a seed multiplies as the identity; seeds
    # with a private writable ones row are multiplied out instead, and
    # every block agrees bit for bit
    rng = np.random.default_rng(4)
    q, v, s = (rng.uniform(-0.5, 0.5, lead + batch) for lead in
               ((model.n,), (model.n, model.k), (model.k,)))
    want = evaluate_jet_batch(model, q, v, s)

    def private_rows(ctx, q, v, s):
        seeds = variables(ctx, q, v, s)
        for x in [*seeds[0], *(x for row in seeds[1] for x in row),
                  *seeds[2]]:
            x.grad = {j: np.ones_like(g) for j, g in x.grad.items()}
        return seeds

    monkeypatch.setattr(jet_module, "variables", private_rows)
    got = evaluate_jet_batch(model, q, v, s)
    for name in Jet2.__dataclass_fields__:
        if name != "layout":
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_asymmetric_velocity_hessian_is_a_kcontact_error():
    jet = evaluate_jet(born_infeld(), PhasePoint(q=[0.0], v=[[0.3, 0.2]],
                                                 s=[0.0, 0.0]))
    W = jet.d2Ldvdv.copy()
    W[0, 0, 0, 1] += 1.0
    with pytest.raises(KContactError, match="not symmetric"):
        Jet2(**{**jet.__dict__, "d2Ldvdv": W}).check()


@pytest.mark.parametrize("model", builtin_models(),
                         ids=lambda m: f"{m.name}-n{m.n}k{m.k}")
def test_quadratic_hessian_blocks_batch_constant(model):
    # the built-ins are quadratic in v: second-derivative blocks keep
    # size-1 batch axes, first-derivative blocks carry the batch
    q = np.zeros((model.n, 3, 4))
    v = np.ones((model.n, model.k, 3, 4))
    s = np.zeros((model.k, 3, 4))
    jet = evaluate_jet_batch(model, q, v, s)
    assert jet.dLdv.shape == (model.n, model.k, 3, 4)
    for name in ("d2Ldvdv", "d2Ldvdq", "d2Ldvds"):
        assert getattr(jet, name).shape[-2:] == (1, 1), name


@pytest.mark.parametrize("model", [membrane(), born_infeld()],
                         ids=lambda m: m.name)
def test_take_is_the_jet_at_the_points_taken(model):
    # every block equals the jet evaluated at the points taken, bit for
    # bit; the membrane's batch-constant Hessian blocks stay size 1
    z = random_phase_point(model, np.random.default_rng(4), scale=0.5,
                           size=6)
    at = np.array([True, False, False, True, True, False])
    jet = evaluate_jet(model, z).take(at)
    ref = evaluate_jet(model, PhasePoint(q=z.q[:, at], v=z.v[:, :, at],
                                         s=z.s[:, at]))
    assert jet.layout is ref.layout
    for name in Jet2.__dataclass_fields__:
        if name != "layout":
            block, want = getattr(jet, name), getattr(ref, name)
            assert block.shape == want.shape, name
            assert block.tobytes() == want.tobytes(), name
    assert (jet.d2Ldvdv.shape[-1] == 1) == (model.name == "membrane")


def test_take_from_one_point_slices_every_block():
    # over a batch of one point every block has size 1 on the batch
    # axis, so each is sliced: taking no point leaves none
    model = membrane()
    z = random_phase_point(model, np.random.default_rng(5), size=1)
    jet = evaluate_jet(model, z)
    for at, size in (([True], 1), ([False], 0), ([0], 1)):
        taken = jet.take(np.array(at))
        for name in Jet2.__dataclass_fields__:
            if name != "layout":
                assert getattr(taken, name).shape[-1] == size, (at, name)


# the 101x101 membrane trace: 51 frames of a 101x101 grid
TRACE_BATCH = (51, 101, 101)


@pytest.fixture(scope="module")
def membrane_trace_points():
    rng = np.random.default_rng(2)
    return (rng.standard_normal((1,) + TRACE_BATCH),
            rng.standard_normal((1, 3) + TRACE_BATCH),
            rng.standard_normal((3,) + TRACE_BATCH))


def test_unstored_rows_are_broadcast_zeros(membrane_trace_points):
    # the membrane density is free of q: dLdq has no stored row and is
    # a read-only zero-stride view, not a batch-sized array
    jet = evaluate_jet_batch(membrane(), *membrane_trace_points)
    assert jet.dLdq.shape == (1,) + TRACE_BATCH
    assert jet.dLdq.strides == (0,) * jet.dLdq.ndim
    assert not jet.dLdq.flags.writeable
    assert not jet.dLdq.any()
    assert not jet.d2Ldvdq.any() and not jet.d2Ldvds.any()


def test_jet_memory_bounded_by_stored_rows(membrane_trace_points):
    # L = u_t^2/2 - mu^2 (u_x^2 + u_y^2)/2 - gamma s^t stores 4 gradient
    # rows; a kernel carrying all m = 7 rows at full batch size peaks at
    # about 8x (stored rows x batch bytes), the sparse one near 2.25x
    batch_bytes = np.prod(TRACE_BATCH) * 8
    model = membrane()
    tracemalloc.start()
    try:
        evaluate_jet_batch(model, *membrane_trace_points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 4 * batch_bytes


def test_multidim_batch_axes():
    model = builtin_models()[0]  # free n=1 k=2
    q = np.zeros((1, 3, 4))
    v = np.arange(24, dtype=float).reshape(1, 2, 3, 4)
    s = np.zeros((2, 3, 4))
    jet = evaluate_jet_batch(model, q, v, s)
    assert jet.L.shape == (3, 4)
    assert np.allclose(jet.L, 0.5 * (v ** 2).sum(axis=(0, 1)))
    assert np.allclose(jet.dLdv, v)


def test_phase_point_validation():
    with pytest.raises(ValueError, match="inconsistent"):
        PhasePoint(q=[0.0, 1.0], v=[[1.0, 2.0]], s=[0.0, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        PhasePoint(q=[np.nan], v=[[1.0]], s=[0.0])


def test_point_dim_mismatch_rejected():
    model = builtin_models()[2]
    z = PhasePoint(q=[0.0], v=[[1.0]], s=[0.0])
    with pytest.raises(ValueError, match="do not match"):
        evaluate_jet(model, z)


def test_constant_lagrangian():
    model = LagrangianModel(n=1, k=1, name="const",
                            lagrangian=lambda q, v, s: 2.5)
    z = PhasePoint(q=[0.3], v=[[0.7]], s=[0.1])
    jet = evaluate_jet(model, z)
    assert jet.L == 2.5
    assert np.all(jet.dLdv == 0.0)
    assert np.all(jet.d2Ldvdv == 0.0)


def test_fd_check_rejects_bad_step():
    model = builtin_models()[0]
    z = random_phase_point(model, np.random.default_rng(1))
    with pytest.raises(ValueError):
        fd_check(model, z, h=0.0)


@pytest.mark.parametrize("scale", [1.0, 0.5])
@pytest.mark.parametrize("model", builtin_models(),
                         ids=lambda m: f"{m.name}-n{m.n}k{m.k}")
def test_batched_draw_is_the_single_draws_stacked(model, scale):
    z = random_phase_point(model, np.random.default_rng(5), scale=scale,
                           size=9)
    rng = np.random.default_rng(5)
    ref = stack_points([random_phase_point(model, rng, scale=scale)
                        for _ in range(9)])
    for x in "qvs":
        got, want = getattr(z, x), getattr(ref, x)
        assert got.shape == want.shape and got.dtype == np.float64
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("model", builtin_models(),
                         ids=lambda m: f"{m.name}-n{m.n}k{m.k}")
def test_single_draw_is_three_uniform_calls(model):
    # the three draws random_phase_point made before it drew once
    rng = np.random.default_rng(8)
    q = rng.uniform(-0.5, 0.5, size=model.n)
    v = rng.uniform(-0.5, 0.5, size=(model.n, model.k))
    s = rng.uniform(-0.5, 0.5, size=model.k)
    z = random_phase_point(model, np.random.default_rng(8), scale=0.5)
    for got, want in ((z.q, q), (z.v, v), (z.s, s)):
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("model", [factory() for factory, _ in MODELS.values()]
                         + [born_infeld(), coupled_quartic()],
                         ids=lambda m: f"{m.name}-n{m.n}k{m.k}")
def test_energy_gradients_equal_the_dense_einsums(model):
    # the stored-entry contractions give the bytes of the dense einsums,
    # signed zeros included: some velocities are +0 and some -0
    z = random_phase_point(model, np.random.default_rng(12), size=24)
    v = z.v.copy()
    v[..., :6] = 0.0
    v[..., 6:12] = -0.0
    v[0, 0, 12:18] = -0.0
    jet = evaluate_jet_batch(model, z.q, v, z.s)
    want = (np.einsum("jg...,jga...->a...", v, jet.d2Ldvds) - jet.dLds,
            np.einsum("jg...,jgib...->ib...", v, jet.d2Ldvdv))
    for got, dense in zip(_energy_gradients(jet, v), want):
        assert got.shape == dense.shape
        assert got.tobytes() == dense.tobytes()


def test_threads_missing_the_layout_cache_share_one_layout():
    # two threads that first meet a sparsity pattern at the same moment
    # get the same layout object; with n=20 and k=10 building the layout
    # takes milliseconds, so both threads miss the cache
    model = LagrangianModel(n=20, k=10, name="fresh",
                            lagrangian=lambda q, v, s: v[19][9] * v[17][3])
    z = random_phase_point(model, np.random.default_rng(6), size=3)
    barrier, layouts = threading.Barrier(2), []

    def evaluate():
        barrier.wait()
        layouts.append(evaluate_jet(model, z).layout)

    threads = [threading.Thread(target=evaluate) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    assert len(layouts) == 2 and layouts[0] is layouts[1]
