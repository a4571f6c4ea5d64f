"""Exact jets vs pure finite differences of the Lagrangian density."""

import tracemalloc

import numpy as np
import pytest

from kcontact import (Jet2, LagrangianModel, PhasePoint, builtin_models,
                      evaluate_jet, evaluate_jet_batch, fd_check, membrane,
                      random_phase_point, stack_points, sv_coupling)
from kcontact.taylor import sqrt
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
            if name.startswith("mask"):  # structural: no batch axes
                assert all(np.array_equal(block, getattr(j, name))
                           for j in singles), (model, name)
                continue
            single = np.stack([getattr(j, name) for j in singles], axis=-1)
            assert np.array_equal(
                np.broadcast_to(block, single.shape), single), (model, name)


def test_membrane_masks():
    # L = u_t^2/2 - mu^2 (u_x^2 + u_y^2)/2 - gamma s^t: W is diagonal,
    # and no second derivative pairs a velocity with q or s
    jet = evaluate_jet(membrane(), random_phase_point(
        membrane(), np.random.default_rng(0)))
    assert np.array_equal(jet.mask_vv[0, :, 0, :], np.eye(3, dtype=bool))
    assert jet.mask_vv.shape == (1, 3, 1, 3)
    assert jet.mask_vq.shape == (1, 3, 1) and not jet.mask_vq.any()
    assert jet.mask_vs.shape == (1, 3, 3) and not jet.mask_vs.any()


def test_born_infeld_stores_every_velocity_entry():
    jet = evaluate_jet(born_infeld(), random_phase_point(
        born_infeld(), np.random.default_rng(0), scale=0.5))
    assert jet.mask_vv.all()
    assert not jet.mask_vq.any() and not jet.mask_vs.any()


def test_sv_coupling_stores_one_s_entry():
    # L = v^2/2 + eps s v: d2L/dv ds is the single entry [0, 0, 0]
    jet = evaluate_jet(sv_coupling(), random_phase_point(
        sv_coupling(), np.random.default_rng(0)))
    assert np.argwhere(jet.mask_vs).tolist() == [[0, 0, 0]]


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
        values, marks = getattr(jet, block), getattr(jet, mask)
        assert marks.dtype == bool and marks.shape == values.shape[:-1]
        nonzero = np.any(values != 0, axis=-1)
        assert not np.any(nonzero & ~marks), (block, np.argwhere(nonzero))
        assert np.array_equal(marks, getattr(single, mask))


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
