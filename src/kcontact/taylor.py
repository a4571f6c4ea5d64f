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
from functools import cached_property, lru_cache

import numpy as np


@dataclass(frozen=True)
class TaylorContext:
    """Coordinate layout for a phase space with n fields and k directions."""

    n: int
    k: int

    @cached_property
    def nv(self) -> int:
        return self.n * self.k

    @cached_property
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
        if not isinstance(other, T2):  # val - c is val + (-c), bit for bit
            return T2(self.ctx, self.val - other, self.grad, self.hess)
        return self + (-other)

    def __rsub__(self, other):
        # c - x in one pass: IEEE defines c - x as c + (-x)
        return T2(self.ctx, other - self.val,
                  {j: -g for j, g in self.grad.items()},
                  {rj: -h for rj, h in self.hess.items()})

    def __mul__(self, other):
        if not isinstance(other, T2):
            return T2(self.ctx, self.val * other,
                      {j: g * other for j, g in self.grad.items()},
                      {rj: h * other for rj, h in self.hess.items()})
        a, b = self.val, other.val
        if other is self:  # a square sums each term with itself
            grad = {j: (t := _times(g, a)) + t for j, g in self.grad.items()}
            hess = {(r, j): (t := _times(gr, g)) + t
                    for r, gr in self._vrows() for j, g in self.grad.items()}
            for rj, h in self.hess.items():
                t = _times(h, a)
                hess[rj] = hess[rj] + t + t if rj in hess else t + t
            return T2(self.ctx, a * a, grad, hess)
        grad = {j: _times(g, b) for j, g in self.grad.items()}
        for j, g in other.grad.items():
            _add_into(grad, j, _times(g, a))
        # cross terms first, then the operands' own Hessians scaled by the
        # other value, so each entry sums its terms in a fixed order
        hess = {}
        for x, y in ((self, other), (other, self)):
            for r, gr in x._vrows():
                for j, g in y.grad.items():
                    _add_into(hess, (r, j), _times(gr, g))
        for h2, w in ((self.hess, b), (other.hess, a)):
            for rj, h in h2.items():
                _add_into(hess, rj, _times(h, w))
        return T2(self.ctx, self.val * other.val, grad, hess)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, T2):
            return self * (1.0 / other)
        x = other.val
        return self * other.apply(1.0 / x, -1.0 / x ** 2, 2.0 / x ** 3)

    def __rtruediv__(self, other):
        x = self.val
        return self.apply(other / x, -other / x ** 2, 2.0 * other / x ** 3)

    def __pow__(self, p):
        if p == 2:
            return self * self
        x = self.val
        return self.apply(x ** p, p * x ** (p - 1),
                          p * (p - 1) * x ** (p - 2))

    # -- chain rule ----------------------------------------------------

    def apply(self, f0, f1, f2):
        """Compose with a function whose value and first two derivatives at
        self.val are f0, f1, f2.  Entries (r, n + r2) and (r2, n + r) share
        their product of two velocity rows: it commutes, bit for bit."""
        n = self.ctx.n
        hess = {}
        for r, gr in self._vrows():
            for j, g in self.grad.items():
                twin = (j - n, n + r)
                hess[r, j] = (hess[twin] if twin in hess
                              else f2 * _times(gr, g))
        for rj, h in self.hess.items():
            _add_into(hess, rj, _times(h, f1))
        return T2(self.ctx, f0,
                  {j: _times(g, f1) for j, g in self.grad.items()}, hess)

    def __repr__(self):
        return f"T2(val={self.val!r})"


_UNITS = {}  # id -> each row below, kept alive so its id stays unique


@lru_cache(maxsize=None)
def _unit_row(ndim):
    # the read-only gradient row 1.0 shared by the seeds of one rank; the
    # common ranks are made at import, as one made in a run pins the heap
    row = np.ones((1,) * ndim)
    row.flags.writeable = False
    _UNITS[id(row)] = row
    return row


list(map(_unit_row, range(5)))


def _times(x, y):
    # x * y, where a shared unit row multiplies as the identity (1.0 * y
    # is y, bit for bit); a private ones row is multiplied out
    if id(x) in _UNITS:
        return y
    return x if id(y) in _UNITS else x * y


def variables(ctx, q, v, s):
    """Seed every coordinate of the float64 arrays q (n, *B), v (n, k, *B)
    and s (k, *B), which share the batch shape B.  Returns the nested
    lists (q[i], v[i][a], s[a]) of T2 values that densities and symmetry
    fields receive."""
    unit = _unit_row(q.ndim - 1)
    n, k = ctx.n, ctx.k
    seeds = [T2(ctx, x, {j: unit}, {}) for j, x in enumerate(
        (*q, *(x for row in v for x in row), *s))]
    return (seeds[:n], [seeds[n + i * k:n + i * k + k] for i in range(n)],
            seeds[n + ctx.nv:])


# elementwise functions usable on T2 values and plain arrays alike

def _lift(name, f, derivs):
    # derivs(x) gives f(x), f'(x) and f''(x), sharing their common work
    def wrapped(x):
        if isinstance(x, T2):
            return x.apply(*derivs(x.val))
        return f(x)
    wrapped.__name__ = name
    return wrapped


sin = _lift("sin", np.sin,
            lambda x: ((s := np.sin(x)), np.cos(x), -s))
cos = _lift("cos", np.cos,
            lambda x: ((c := np.cos(x)), -np.sin(x), -c))
exp = _lift("exp", np.exp, lambda x: ((e := np.exp(x)), e, e))
log = _lift("log", np.log,
            lambda x: (np.log(x), 1.0 / x, -1.0 / x ** 2))
sqrt = _lift("sqrt", np.sqrt,
             lambda x: ((r := np.sqrt(x)), 0.5 / r, -0.25 * x ** -1.5))
tanh = _lift("tanh", np.tanh,
             lambda x: ((t := np.tanh(x)), 1.0 / (c2 := np.cosh(x) ** 2),
                        -2.0 * t / c2))
