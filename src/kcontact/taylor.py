"""Truncated second-order Taylor arithmetic.

A `T2` carries a value, its gradient with respect to all phase-space
coordinates (q^i, v^i_a, s^a), and the second-derivative rows paired with
the velocity coordinates only.  Those are exactly the blocks the field
equations ever contract against, so the q-q, q-s and s-s second
derivatives are never materialized.

Values may be plain floats or numpy arrays of an arbitrary batch shape;
the gradient then has shape (m, *batch) and the Hessian rows
(nv, m, *batch), with m = n + n*k + k and nv = n*k.  Gradients and
Hessian rows need only broadcast against the batch: a seeded coordinate
has the one-hot gradient (m, 1, ..., 1), so derivatives that do not vary
from point to point (the Hessian of a density quadratic in the
velocities) stay of shape (nv, m, 1, ..., 1).  A velocity pair (i, a)
maps to flat index i*k + a.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @property
    def vslice(self) -> slice:
        # rows/columns of the velocity coordinates inside the gradient
        return slice(self.n, self.n + self.nv)


class T2:
    """Second-order Taylor value over a `TaylorContext`.

    `hess` may be None, meaning identically zero; linear operations
    preserve that, which keeps affine models cheap.
    """

    __slots__ = ("ctx", "val", "grad", "hess")

    def __init__(self, ctx, val, grad, hess=None):
        self.ctx = ctx
        self.val = val
        self.grad = grad
        self.hess = hess

    # -- helpers -------------------------------------------------------

    def _materialized_hess(self):
        if self.hess is not None:
            return self.hess
        shape = (self.ctx.nv,) + np.shape(self.grad)
        return np.zeros(shape)

    @staticmethod
    def _add_hess(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return a + b

    def _vgrad(self):
        # gradient restricted to the velocity rows, shape (nv, *batch)
        return self.grad[self.ctx.vslice]

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, T2):
            return T2(self.ctx, self.val + other.val, self.grad + other.grad,
                      self._add_hess(self.hess, other.hess))
        return T2(self.ctx, self.val + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return T2(self.ctx, -self.val, -self.grad,
                  None if self.hess is None else -self.hess)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, T2):
            return T2(self.ctx, self.val * other, self.grad * other,
                      None if self.hess is None else self.hess * other)
        cross = (self._vgrad()[:, None] * other.grad[None, :]
                 + other._vgrad()[:, None] * self.grad[None, :])
        hess = cross
        if self.hess is not None:
            hess = hess + self.hess * other.val
        if other.hess is not None:
            hess = hess + other.hess * self.val
        return T2(self.ctx, self.val * other.val,
                  self.grad * other.val + other.grad * self.val, hess)

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
        hess = f2 * (self._vgrad()[:, None] * self.grad[None, :])
        if self.hess is not None:
            hess = hess + f1 * self.hess
        return T2(self.ctx, f0, f1 * self.grad, hess)

    def __repr__(self):
        return f"T2(val={self.val!r})"


def variable(ctx, index, value):
    """Seed coordinate `index` (flat layout q | v | s) with `value`; the
    one-hot gradient has shape (m, 1, ..., 1) and broadcasts against it."""
    value = np.asarray(value, dtype=float)
    grad = np.zeros((ctx.m,) + (1,) * value.ndim)
    grad[index] = 1.0
    return T2(ctx, value, grad, None)


def variables(ctx, q, v, s):
    """Seed every coordinate of the batched arrays q (n, *B), v (n, k, *B)
    and s (k, *B).  Returns the nested lists (q[i], v[i][a], s[a]) of T2
    values that densities and symmetry fields receive."""
    batch = np.shape(q)[1:]
    index = iter(range(ctx.m))  # consumed in the flat order q | v | s

    def seed(x):
        return variable(ctx, next(index), np.broadcast_to(x, batch))

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
