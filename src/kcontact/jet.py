"""Phase-space points and exact second-order differentiation of Lagrangians.

The central object is `LagrangianModel`: a field count n, a direction
count k, and a Lagrangian written with overloaded arithmetic so that it
evaluates both on plain numpy arrays (fast path for simulation) and on
`T2` Taylor values (exact derivatives).  `evaluate_jet` produces the
`Jet2` derivative bundle every other module consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import KContactError
from .taylor import T2, TaylorContext, variables


def _as_point_arrays(point, names, what):
    """Convert the fields of a phase or momentum point to float arrays
    and check their shapes (n, *B), (n, k, *B), (k, *B) and finiteness."""
    q, v, s = arrs = [np.asarray(getattr(point, x), dtype=float)
                      for x in names]
    for name, arr in zip(names, arrs):
        object.__setattr__(point, name, arr)
    batch = v.shape[2:]
    if (v.ndim < 2 or q.shape != (v.shape[0],) + batch
            or s.shape != (v.shape[1],) + batch):
        raise ValueError(f"inconsistent {what} point shapes q={q.shape} "
                         f"{names[1]}={v.shape} s={s.shape}")
    if not all(np.isfinite(arr).all() for arr in arrs):
        raise ValueError(f"non-finite {what} point entries")


@dataclass(frozen=True)
class PhasePoint:
    """A point (q^i, v^i_a, s^a) of the dissipative velocity bundle, or a
    stack of them: batch axes trail as in `Jet2`, and a single point has
    batch shape ()."""

    q: np.ndarray  # (n, *B)
    v: np.ndarray  # (n, k, *B)
    s: np.ndarray  # (k, *B)

    def __post_init__(self):
        _as_point_arrays(self, ("q", "v", "s"), "phase")

    @property
    def n(self) -> int:
        return self.v.shape[0]

    @property
    def k(self) -> int:
        return self.v.shape[1]


@dataclass(frozen=True)
class MomentumPoint:
    """A point (q^i, p^a_i, s^a) of the momentum bundle, p[i, a] = p^a_i,
    or a stack of them with trailing batch axes like `PhasePoint`."""

    q: np.ndarray  # (n, *B)
    p: np.ndarray  # (n, k, *B)
    s: np.ndarray  # (k, *B)

    def __post_init__(self):
        _as_point_arrays(self, ("q", "p", "s"), "momentum")


def stack_points(points) -> PhasePoint:
    """One PhasePoint whose last batch axis runs over `points`."""
    points = list(points)
    return PhasePoint(*(np.stack([getattr(z, x) for z in points], axis=-1)
                        for x in "qvs"))


def _read_only(arr):
    arr.flags.writeable = False
    return arr


def _entries(mask):
    """The marked entries of `mask` in C order, as tuples of ints."""
    return tuple(zip(*(x.tolist() for x in mask.nonzero())))


@dataclass(frozen=True, eq=False)
class JetLayout:
    """Everything about a jet that depends only on which derivative rows
    the Taylor kernel stored, worked out once per sparsity pattern by
    `_layout` and shared by every jet with that pattern.

    `rows` holds, for each of the six derivative blocks of `Jet2` in
    field order, the block's row count and the (position, key) pairs of
    its stored rows.  The masks mark the stored entries of the three
    second-derivative blocks over their lead axes (see `Jet2`); the
    entry tuples list them in C order, as `_el_operator` multiplies
    them, `vv_evolution` without W[:, 0, :, 0].  `need_a[b, c]` and
    `need_s[b, c]` tell whether a stored entry multiplies a[:, b, c] and
    dsdt[b, c].  Every array is read-only.
    """

    rows: tuple
    mask_vv: np.ndarray
    mask_vq: np.ndarray
    mask_vs: np.ndarray
    vv: tuple
    vv_evolution: tuple
    vq: tuple
    vs: tuple
    need_a: np.ndarray
    need_s: np.ndarray


@lru_cache(maxsize=64)
def _layout(n, k, grad_keys, hess_keys):
    """The `JetLayout` of a T2 over (n, k) that stores the gradient rows
    `grad_keys` and the Hessian entries `hess_keys` (frozensets).  The
    key is the stored set itself, never the model, so a density whose
    stored set changes gets another layout."""
    nv = n * k
    q_cols, v_cols = range(n), range(n, n + nv)
    s_cols = range(n + nv, n + nv + k)

    def rows(present, keys):
        keys = list(keys)
        return len(keys), tuple((i, key) for i, key in enumerate(keys)
                                if key in present)

    def hess(cols):
        return rows(hess_keys, ((r, j) for r in range(nv) for j in cols))

    stored = np.zeros((nv, n + nv + k), dtype=bool)
    for rj in hess_keys:
        stored[rj] = True
    mask_vv = _read_only(stored[:, n:n + nv].reshape(n, k, n, k))
    mask_vq = _read_only(stored[:, :n].reshape(n, k, n))
    mask_vs = _read_only(stored[:, n + nv:].reshape(n, k, k))
    vv = _entries(mask_vv)
    return JetLayout(
        rows=(rows(grad_keys, q_cols), rows(grad_keys, v_cols),
              rows(grad_keys, s_cols), hess(v_cols), hess(q_cols),
              hess(s_cols)),
        mask_vv=mask_vv, mask_vq=mask_vq, mask_vs=mask_vs,
        vv=vv, vv_evolution=tuple(e for e in vv if e[1] or e[3]),
        vq=_entries(mask_vq), vs=_entries(mask_vs),
        need_a=_read_only(mask_vv.any(axis=(0, 2)).T),
        need_s=_read_only(mask_vs.any(axis=0)))


@dataclass(frozen=True)
class Jet2:
    """Value and derivative blocks of L at a point (or a batch of points).

    For a single point the shapes are L: scalar, dLdq: (n,), dLdv: (n,k),
    dLds: (k,), d2Ldvdv: (n,k,n,k), d2Ldvdq: (n,k,n), d2Ldvds: (n,k,k).
    Batched evaluations append the batch axes on the right.  L and the
    first-derivative blocks carry the full batch; the three
    second-derivative blocks carry trailing axes that broadcast against
    it, of size 1 where they do not vary from point to point.  Blocks
    stack the Taylor kernel's stored rows and may be broadcast views,
    read-only and sharing memory with the coordinates; a block with no
    stored row (dLdq of a density free of q) is a shared read-only
    broadcast zero.  Never write into them.

    `layout` is the shared, cached, read-only `JetLayout` of the kernel's
    stored rows; jets of densities that store the same rows hold the
    same layout object.  The layout's masks `mask_vv` (n,k,n,k) for
    d2Ldvdv, `mask_vq` (n,k,n) for d2Ldvdq and `mask_vs` (n,k,k) for
    d2Ldvds mark the entries the kernel stored over the blocks' lead
    axes.  They are read off the kernel's row keys, not the values, so
    they are the same at every point and for every batch shape; an
    unmarked entry is an exact zero, a marked one may be zero at some
    points.
    """

    L: np.ndarray
    dLdq: np.ndarray
    dLdv: np.ndarray
    dLds: np.ndarray
    d2Ldvdv: np.ndarray
    d2Ldvdq: np.ndarray
    d2Ldvds: np.ndarray
    layout: JetLayout

    def check(self):
        """Validate finiteness (KContactError) and v-v symmetry of
        d2Ldvdv (ValueError, rtol 1e-12)."""
        for name in self.__dataclass_fields__:
            if name == "layout":
                continue
            if not np.isfinite(getattr(self, name)).all():
                raise KContactError(f"non-finite entries in jet block {name}")
        W = self.d2Ldvdv
        Wt = np.moveaxis(W, (0, 1, 2, 3), (2, 3, 0, 1))
        scale = max(np.max(np.abs(W)), 1.0)
        if np.max(np.abs(W - Wt)) > 1e-12 * scale:
            raise ValueError("velocity Hessian block is not symmetric")
        return self


@dataclass(frozen=True)
class LagrangianModel:
    """A field theory: dimensions (n, k) and a Lagrangian density.

    `lagrangian(q, v, s)` receives the coordinates as nested lists
    (q[i], v[i][a], s[a]) of either numpy arrays or T2 values and must
    combine them with overloaded arithmetic only.
    """

    n: int
    k: int
    name: str
    lagrangian: Callable
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError("model dimensions must satisfy n >= 1, k >= 1")

    def check_point(self, z: PhasePoint):
        if z.n != self.n or z.k != self.k:
            raise ValueError(
                f"phase point dims ({z.n},{z.k}) do not match model "
                f"({self.n},{self.k})")

    def lagrangian_value(self, q, v, s):
        """Plain evaluation of L on (batched) coordinate arrays."""
        qs = [np.asarray(q[i], dtype=float) for i in range(self.n)]
        vs = [[np.asarray(v[i][a], dtype=float) for a in range(self.k)]
              for i in range(self.n)]
        ss = [np.asarray(s[a], dtype=float) for a in range(self.k)]
        out = self.lagrangian(qs, vs, ss)
        shape = np.broadcast_shapes(*(x.shape for x in qs + ss))
        return np.broadcast_to(np.asarray(out, dtype=float), shape)


@lru_cache(maxsize=128)
def _zeros(shape):
    # the read-only broadcast zero of a block with no stored row
    return np.broadcast_to(0.0, shape)


def _common_shape(xs, ndim):
    """The broadcast shape of the arrays `xs`, with at least `ndim` axes."""
    shapes = {np.shape(x) for x in xs}
    if len(shapes) == 1:
        (shape,) = shapes
        if len(shape) == ndim:
            return shape
    return np.broadcast_shapes(*shapes, (1,) * ndim)


def _block(rows, layout_rows, lead, tail):
    """The rows of a T2 derivative dict that `layout_rows` = (size,
    ((position, key), ...)) places as one array of shape lead + tail.
    Only the stored rows are stacked, at their broadcast shape, with
    zeros for the absent ones; a block with no stored row is a shared
    read-only broadcast zero."""
    size, stored = layout_rows
    if not stored:
        return _zeros(lead + tail)
    xs = [rows[key] for _, key in stored]
    b = _common_shape(xs, len(tail))
    block = np.zeros((size,) + b)
    for (i, _), x in zip(stored, xs):
        block[i] = x
    block = block.reshape(lead + b)
    return block if b == tail else np.broadcast_to(block, lead + tail)


def evaluate_jet_batch(model: LagrangianModel, q, v, s) -> Jet2:
    """Exact Jet2 blocks at a batch of points.

    q: (n, *B), v: (n, k, *B), s: (k, *B); batch axes trail everywhere.
    The coordinate arrays are not written.
    """
    n, k = model.n, model.k
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    s = np.asarray(s, dtype=float)
    batch = q.shape[1:]
    ctx = TaylorContext(n, k)
    out = model.lagrangian(*variables(ctx, q, v, s))
    if not isinstance(out, T2):  # constant Lagrangian
        out = T2(ctx, out, {}, {})
    layout = _layout(n, k, frozenset(out.grad), frozenset(out.hess))
    dq, dv, ds, hvv, hvq, hvs = layout.rows
    # the second-derivative blocks keep the stored entries' shape, which
    # broadcasts against the batch (size-1 axes where L is quadratic in v)
    hb = _common_shape(out.hess.values(), len(batch))
    # L may share memory with the coordinates: a read-only view either way
    L = np.asarray(out.val, dtype=float)
    L = _read_only(L.view()) if L.shape == batch else np.broadcast_to(L, batch)
    return Jet2(
        L=L,
        dLdq=_block(out.grad, dq, (n,), batch),
        dLdv=_block(out.grad, dv, (n, k), batch),
        dLds=_block(out.grad, ds, (k,), batch),
        d2Ldvdv=_block(out.hess, hvv, (n, k, n, k), hb),
        d2Ldvdq=_block(out.hess, hvq, (n, k, n), hb),
        d2Ldvds=_block(out.hess, hvs, (n, k, k), hb),
        layout=layout,
    )


def evaluate_jet(model: LagrangianModel, z: PhasePoint) -> Jet2:
    """Exact, validated Jet2 at a phase point (or a stack of them).  An
    overflow or invalid operation in the density raises no numpy
    warning: `Jet2.check` reports the non-finite block it leaves."""
    model.check_point(z)
    with np.errstate(all="ignore"):
        jet = evaluate_jet_batch(model, z.q, z.v, z.s)
    return jet.check()


def fd_check(model: LagrangianModel, z: PhasePoint, h: float = 1e-4) -> float:
    """Worst relative discrepancy between `evaluate_jet` and central
    finite differences of L.  Independent of the Taylor kernel: it only
    evaluates L itself."""
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    jet = evaluate_jet(model, z)
    n, k = model.n, model.k
    m = n + n * k + k

    def L_at(delta):
        x = np.concatenate([z.q, z.v.ravel(), z.s]) + delta
        return float(model.lagrangian_value(
            x[:n], x[n:n + n * k].reshape(n, k), x[n + n * k:]))

    e = np.eye(m)
    grad_fd = np.array([(L_at(h * e[j]) - L_at(-h * e[j])) / (2 * h)
                        for j in range(m)])
    grad_ad = np.concatenate([jet.dLdq, jet.dLdv.ravel(), jet.dLds])

    # second derivatives: velocity rows against every coordinate
    hess_fd = np.zeros((n * k, m))
    L0 = L_at(np.zeros(m))
    for r in range(n * k):
        I = n + r
        for j in range(m):
            if I == j:
                hess_fd[r, j] = (L_at(h * e[I]) - 2 * L0
                                 + L_at(-h * e[I])) / h ** 2
            else:
                hess_fd[r, j] = (L_at(h * (e[I] + e[j]))
                                 - L_at(h * (e[I] - e[j]))
                                 - L_at(h * (e[j] - e[I]))
                                 + L_at(-h * (e[I] + e[j]))) / (4 * h ** 2)
    # blocks in coordinate order q | v | s
    hess_ad = np.concatenate(
        [jet.d2Ldvdq.reshape(n * k, n),
         jet.d2Ldvdv.reshape(n * k, n * k),
         jet.d2Ldvds.reshape(n * k, k)], axis=1)

    def rel(a, b):
        return np.abs(a - b) / np.maximum(1.0, np.abs(b))

    return float(max(rel(grad_fd, grad_ad).max(),
                     rel(hess_fd, hess_ad).max()))


def _from_rows(x, n: int, k: int) -> PhasePoint:
    """The point of the coordinate row x = (q | v | s), v row-major, or
    the stack of the rows of x (N, m), as C-contiguous arrays."""
    cols = np.ascontiguousarray(x.T)
    return PhasePoint(q=cols[:n], v=cols[n:n + n * k].reshape(
        (n, k) + cols.shape[1:]), s=cols[n + n * k:])


def random_phase_point(model: LagrangianModel, rng, scale: float = 1.0,
                       size=None) -> PhasePoint:
    """Uniform random point in [-scale, scale] per coordinate, or `size`
    of them stacked: one draw, ordered as `size` draws of q, v and s."""
    m = model.n * (model.k + 1) + model.k
    return _from_rows(rng.uniform(-scale, scale, m if size is None
                                  else (size, m)), model.n, model.k)
