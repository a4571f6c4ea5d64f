"""Truncated second-order Taylor arithmetic with sparse derivative rows.

A `T2` carries a value, its gradient with respect to the phase-space
coordinates (q^i, v^i_a, s^a), and the second-derivative rows paired with
the velocity coordinates only.  Those are exactly the blocks the field
equations ever contract against, so the q-q, q-s and s-s second
derivatives are never formed.

Coordinates are numbered in the flat layout q | v | s, m = n + n*k + k
of them, the velocity pair (i, a) at n + i*k + a.  Derivatives are kept
by row, and only the rows that can be nonzero are stored:

  grad  {j: dL/dx^j}                     j in range(m)
  hess  {(r, j): d2L/dv^r dx^j}          r in range(n*k), j in range(m)

A row that is absent is structurally zero.  Values may be plain floats
or numpy arrays of an arbitrary batch shape, and each stored row need
only broadcast against the batch: a seeded coordinate has the one row
1.0 of shape (1, ..., 1), so a product of two velocities stores no q or
s rows, and the Hessian of a density quadratic in the velocities stays
of shape (1, ..., 1) per entry.  Every operation touches only the rows
its operands carry; `dense` lays them out as full arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class TaylorContext:
    """Coordinate layout for a phase space with n fields and k directions."""

    n: int
    k: int

    @property
    def nv(self) -> int:
        return self.n * self.k

    @property
    def m(self) -> int:
        return self.n + self.nv + self.k


def _add_into(rows, key, x):
    # rows[key] += x, where an absent row is zero
    rows[key] = rows[key] + x if key in rows else x


class T2:
    """Second-order Taylor value over a `TaylorContext`.

    `grad` maps a coordinate index to its gradient row and `hess` maps
    (velocity row, coordinate index) to a second-derivative entry; an
    absent key is zero (see the module docstring).  Operations never
    mutate the dicts of their operands, so results may share rows.
    """

    __slots__ = ("ctx", "val", "grad", "hess")

    def __init__(self, ctx, val, grad, hess):
        self.ctx = ctx
        self.val = val
        self.grad = grad
        self.hess = hess

    def dense(self):
        """The gradient (m, *b) and the velocity Hessian rows (nv, m, *b)
        as arrays, absent rows filled with zeros; b is the broadcast shape
        of the stored rows."""
        ctx = self.ctx
        rows = [*self.grad.values(), *self.hess.values()]
        b = np.broadcast_shapes(*map(np.shape, rows))
        grad = np.zeros((ctx.m,) + b)
        for j, g in self.grad.items():
            grad[j] = g
        hess = np.zeros((ctx.nv, ctx.m) + b)
        for rj, h in self.hess.items():
            hess[rj] = h
        return grad, hess

    def _vrows(self):
        # the stored velocity rows of the gradient as (r, row) pairs
        n, nv = self.ctx.n, self.ctx.nv
        return [(j - n, g) for j, g in self.grad.items() if n <= j < n + nv]

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, T2):
            return T2(self.ctx, self.val + other, self.grad, self.hess)
        grad, hess = dict(self.grad), dict(self.hess)
        for j, g in other.grad.items():
            _add_into(grad, j, g)
        for rj, h in other.hess.items():
            _add_into(hess, rj, h)
        return T2(self.ctx, self.val + other.val, grad, hess)

    __radd__ = __add__

    def __neg__(self):
        return T2(self.ctx, -self.val,
                  {j: -g for j, g in self.grad.items()},
                  {rj: -h for rj, h in self.hess.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, T2):
            return T2(self.ctx, self.val * other,
                      {j: g * other for j, g in self.grad.items()},
                      {rj: h * other for rj, h in self.hess.items()})
        a, b = self.val, other.val
        grad = {j: g * b for j, g in self.grad.items()}
        for j, g in other.grad.items():
            _add_into(grad, j, g * a)
        # cross terms first, then the operands' own Hessians scaled by the
        # other value, so each entry sums its terms in a fixed order
        hess = {}
        for x, y in ((self, other), (other, self)):
            for r, gr in x._vrows():
                for j, g in y.grad.items():
                    _add_into(hess, (r, j), gr * g)
        for h2, w in ((self.hess, b), (other.hess, a)):
            for rj, h in h2.items():
                _add_into(hess, rj, h * w)
        return T2(self.ctx, self.val * other.val, grad, hess)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, T2):
            return self * (1.0 / other)
        return self * other.apply(lambda x: 1.0 / x,
                                  lambda x: -1.0 / x ** 2,
                                  lambda x: 2.0 / x ** 3)

    def __rtruediv__(self, other):
        return self.apply(lambda x: other / x,
                          lambda x: -other / x ** 2,
                          lambda x: 2.0 * other / x ** 3)

    def __pow__(self, p):
        if p == 2:
            return self * self
        return self.apply(lambda x: x ** p,
                          lambda x: p * x ** (p - 1),
                          lambda x: p * (p - 1) * x ** (p - 2))

    # -- chain rule ----------------------------------------------------

    def apply(self, f, df, d2f):
        """Compose with a scalar function given its first two derivatives."""
        f0, f1, f2 = f(self.val), df(self.val), d2f(self.val)
        hess = {(r, j): f2 * (gr * g)
                for r, gr in self._vrows() for j, g in self.grad.items()}
        for rj, h in self.hess.items():
            _add_into(hess, rj, f1 * h)
        return T2(self.ctx, f0, {j: f1 * g for j, g in self.grad.items()},
                  hess)

    def __repr__(self):
        return f"T2(val={self.val!r})"


@lru_cache(maxsize=None)
def _unit_row(ndim):
    # the read-only gradient row 1.0 of a seed, shared by every seed of
    # that rank (one entry per rank, so the cache stays small)
    row = np.ones((1,) * ndim)
    row.flags.writeable = False
    return row


def variable(ctx, index, value):
    """Seed coordinate `index` (flat layout q | v | s) with `value`; its
    one gradient row 1.0 has shape (1, ..., 1), broadcasts against it and
    is a shared read-only array."""
    value = np.asarray(value, dtype=float)
    return T2(ctx, value, {index: _unit_row(value.ndim)}, {})


def variables(ctx, q, v, s):
    """Seed every coordinate of the batched arrays q (n, *B), v (n, k, *B)
    and s (k, *B).  Returns the nested lists (q[i], v[i][a], s[a]) of T2
    values that densities and symmetry fields receive."""
    batch = np.shape(q)[1:]
    index = iter(range(ctx.m))  # consumed in the flat order q | v | s

    def seed(x):
        if np.shape(x) != batch:
            x = np.broadcast_to(x, batch)
        return variable(ctx, next(index), x)

    return ([seed(x) for x in q], [[seed(x) for x in row] for row in v],
            [seed(x) for x in s])


# elementwise functions usable on T2 values and plain arrays alike

def _lift(name, f, df, d2f):
    def wrapped(x):
        if isinstance(x, T2):
            return x.apply(f, df, d2f)
        return f(x)
    wrapped.__name__ = name
    return wrapped


sin = _lift("sin", np.sin, np.cos, lambda x: -np.sin(x))
cos = _lift("cos", np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x))
exp = _lift("exp", np.exp, np.exp, np.exp)
log = _lift("log", np.log, lambda x: 1.0 / x, lambda x: -1.0 / x ** 2)
sqrt = _lift("sqrt", np.sqrt,
             lambda x: 0.5 / np.sqrt(x),
             lambda x: -0.25 * x ** -1.5)
tanh = _lift("tanh", np.tanh,
             lambda x: 1.0 / np.cosh(x) ** 2,
             lambda x: -2.0 * np.tanh(x) / np.cosh(x) ** 2)
