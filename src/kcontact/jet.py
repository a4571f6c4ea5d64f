"""Phase-space points and exact second-order differentiation of Lagrangians.

The central object is `LagrangianModel`: a field count n, a direction
count k, and a Lagrangian written with overloaded arithmetic so that it
evaluates both on plain numpy arrays (fast path for simulation) and on
`T2` Taylor values (exact derivatives).  `evaluate_jet` produces the
`Jet2` derivative bundle every other module consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

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
    stored row (dLdq of a density free of q) is a read-only broadcast
    zero.  Never write into them.
    """

    L: np.ndarray
    dLdq: np.ndarray
    dLdv: np.ndarray
    dLds: np.ndarray
    d2Ldvdv: np.ndarray
    d2Ldvdq: np.ndarray
    d2Ldvds: np.ndarray

    def check(self):
        """Validate finiteness and v-v symmetry of d2Ldvdv (rtol 1e-12)."""
        for name in self.__dataclass_fields__:
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"non-finite entries in jet block {name}")
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


def _block(rows, keys, lead, tail):
    """The rows `keys` of a T2 derivative dict as one array of shape
    lead + tail.  Only the stored rows are stacked, at their broadcast
    shape, with zeros for the absent ones; a block with no stored row is
    a read-only broadcast zero."""
    stored = [(i, rows[key]) for i, key in enumerate(keys) if key in rows]
    if not stored:
        return np.broadcast_to(0.0, lead + tail)
    b = np.broadcast_shapes(*(np.shape(x) for _, x in stored),
                            (1,) * len(tail))
    block = np.zeros((len(keys),) + b)
    for i, x in stored:
        block[i] = x
    block = block.reshape(lead + b)
    return block if b == tail else np.broadcast_to(block, lead + tail)


def evaluate_jet_batch(model: LagrangianModel, q, v, s) -> Jet2:
    """Exact Jet2 blocks at a batch of points.

    q: (n, *B), v: (n, k, *B), s: (k, *B); batch axes trail everywhere.
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
    nv = ctx.nv
    qs, vs, ss = range(n), range(n, n + nv), range(n + nv, ctx.m)
    # the second-derivative blocks keep the stored entries' shape, which
    # broadcasts against the batch (size-1 axes where L is quadratic in v)
    hb = np.broadcast_shapes(*map(np.shape, out.hess.values()),
                             (1,) * len(batch))

    def hess(cols, lead):
        return _block(out.hess, [(r, j) for r in range(nv) for j in cols],
                      (n, k) + lead, hb)

    return Jet2(
        L=np.broadcast_to(np.asarray(out.val, dtype=float), batch),
        dLdq=_block(out.grad, qs, (n,), batch),
        dLdv=_block(out.grad, vs, (n, k), batch),
        dLds=_block(out.grad, ss, (k,), batch),
        d2Ldvdv=hess(vs, (n, k)),
        d2Ldvdq=hess(qs, (n,)),
        d2Ldvds=hess(ss, (k,)),
    )


def evaluate_jet(model: LagrangianModel, z: PhasePoint) -> Jet2:
    """Exact, validated Jet2 at a phase point (or a stack of them)."""
    model.check_point(z)
    return evaluate_jet_batch(model, z.q, z.v, z.s).check()


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


def random_phase_point(model: LagrangianModel, rng, scale: float = 1.0
                       ) -> PhasePoint:
    """Uniform random point in [-scale, scale] per coordinate."""
    return PhasePoint(
        q=rng.uniform(-scale, scale, size=model.n),
        v=rng.uniform(-scale, scale, size=(model.n, model.k)),
        s=rng.uniform(-scale, scale, size=model.k),
    )
