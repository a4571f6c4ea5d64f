"""Tests for the second-order Taylor arithmetic kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcontact import membrane
from kcontact.taylor import T2, TaylorContext, cos, exp, log, sin, sqrt, \
    tanh, variables


def fd_second(f, x0, i, j, h=1e-4):
    """Central second difference of a scalar function of a flat vector."""
    ei = np.zeros_like(x0)
    ej = np.zeros_like(x0)
    ei[i] = 1.0
    ej[j] = 1.0
    if i == j:
        return (f(x0 + h * ei) - 2 * f(x0) + f(x0 - h * ei)) / h ** 2
    return (f(x0 + h * (ei + ej)) - f(x0 + h * (ei - ej))
            - f(x0 + h * (ej - ei)) + f(x0 - h * (ei + ej))) / (4 * h ** 2)


def seed_all(ctx, x0):
    """The seeds of every coordinate at the flat point x0 (q | v | s),
    each value of x0's trailing shape, as `variables` makes them."""
    n, k, nv = ctx.n, ctx.k, ctx.nv
    q, v, s = variables(ctx, x0[:n], x0[n:n + nv].reshape(
        (n, k) + x0.shape[1:]), x0[n + nv:])
    return [*q, *(x for row in v for x in row), *s]


def variable(ctx, index, value):
    """The seed of coordinate `index` at `value`."""
    x0 = np.zeros((ctx.m,) + np.shape(value))
    x0[index] = value
    return seed_all(ctx, x0)[index]


class TestArithmetic:
    def test_polynomial_gradient_and_hessian(self):
        ctx = TaylorContext(1, 2)  # m = 1 + 2 + 2 = 5, nv = 2
        x0 = np.array([0.7, -0.3, 1.1, 0.4, -0.9])
        xs = seed_all(ctx, x0)

        def f(x):
            return x[0] * x[1] ** 2 + 3.0 * x[2] * x[1] - x[3] / (2.0 + x[4])

        out = f(xs)
        val = f(x0)
        assert out.val == pytest.approx(val, rel=1e-14)
        # analytic gradient
        grad = np.array([
            x0[1] ** 2,
            2 * x0[0] * x0[1] + 3 * x0[2],
            3 * x0[1],
            -1.0 / (2.0 + x0[4]),
            x0[3] / (2.0 + x0[4]) ** 2,
        ])
        assert np.allclose(out.dense()[0], grad, rtol=1e-13)
        # velocity rows of the Hessian (coords 1 and 2) vs finite differences
        hess = out.dense()[1]
        for r, i in enumerate((1, 2)):
            for j in range(5):
                assert hess[r, j] == pytest.approx(
                    fd_second(f, x0, i, j), abs=2e-6)

    def test_division_and_power(self):
        ctx = TaylorContext(1, 1)
        x0 = np.array([0.5, 1.3, -0.2])
        xs = seed_all(ctx, x0)
        out = (xs[1] ** 3) / (1.0 + xs[0] ** 2) - 2.0 ** 2
        expect = x0[1] ** 3 / (1.0 + x0[0] ** 2) - 4.0
        assert out.val == pytest.approx(expect, rel=1e-14)
        # d/dv of v^3/(1+q^2)
        assert out.dense()[0][1] == pytest.approx(
            3 * x0[1] ** 2 / (1.0 + x0[0] ** 2), rel=1e-13)
        assert out.dense()[1][0, 1] == pytest.approx(
            6 * x0[1] / (1.0 + x0[0] ** 2), rel=1e-13)

    def test_scalar_and_reverse_ops(self):
        ctx = TaylorContext(1, 1)
        v = variable(ctx, 1, 2.0)
        assert (3.0 - v).val == 1.0
        assert (3.0 / v).val == 1.5
        assert (-v).val == -2.0
        assert (v - 1.0).dense()[0][1] == 1.0
        assert (1.0 / v).dense()[0][1] == pytest.approx(-0.25)

    def test_batched_values(self):
        ctx = TaylorContext(1, 1)
        vals = np.linspace(-1.0, 1.0, 7).reshape(7)
        v = variable(ctx, 1, vals)
        out = v * v * 0.5
        assert out.val.shape == (7,)
        assert np.allclose(out.val, 0.5 * vals ** 2)
        assert np.allclose(out.dense()[0][1], vals)
        assert np.allclose(out.dense()[1][0, 1], 1.0)


class TestSparseRows:
    def test_membrane_density_stores_only_nonzero_rows(self):
        # coordinates q | u_t u_x u_y | s^t s^x s^y: the density stores the
        # gradient rows u_t, u_x, u_y, s^t and the three diagonal velocity
        # Hessian entries, nothing for q, s^x or s^y
        model = membrane(mu=1.5, gamma=0.2)
        ctx = TaylorContext(model.n, model.k)
        batch = (4, 5)
        rng = np.random.default_rng(0)
        out = model.lagrangian(*variables(
            ctx, rng.standard_normal((1,) + batch),
            rng.standard_normal((1, 3) + batch),
            rng.standard_normal((3,) + batch)))
        assert sorted(out.grad) == [1, 2, 3, 4]
        assert sorted(out.hess) == [(0, 1), (1, 2), (2, 3)]
        # the Hessian of a quadratic density does not vary with the point
        assert all(h.shape == (1, 1) for h in out.hess.values())
        assert out.grad[4].shape == (1, 1)

    def test_dense_layout(self):
        ctx = TaylorContext(1, 1)
        q, v, s = (variable(ctx, j, x) for j, x in enumerate((0.5, 2.0,
                                                               -1.0)))
        grad, hess = (v * v * q).dense()
        assert np.array_equal(grad, [4.0, 2.0, 0.0])
        assert np.array_equal(hess, [[4.0, 1.0, 0.0]])


class TestLiftedFunctions:
    @pytest.mark.parametrize("fn,dfn", [
        (sin, np.cos),
        (exp, np.exp),
        (tanh, lambda x: 1.0 / np.cosh(x) ** 2),
    ])
    def test_chain_rule(self, fn, dfn):
        ctx = TaylorContext(1, 1)
        x0 = np.array([0.3, 0.8, -0.5])
        xs = seed_all(ctx, x0)
        out = fn(xs[1] * xs[0])
        assert out.dense()[0][1] == pytest.approx(
            dfn(x0[1] * x0[0]) * x0[0], rel=1e-12)

    def test_second_derivative_of_composition(self):
        ctx = TaylorContext(1, 1)
        x0 = np.array([0.0, 0.6, 0.0])
        xs = seed_all(ctx, x0)
        out = cos(xs[1]) + log(1.0 + xs[1] ** 2) + sqrt(2.0 + xs[1])
        v = x0[1]

        def f(x):
            return np.cos(x) + np.log(1 + x ** 2) + np.sqrt(2 + x)

        h = 1e-4
        expect = (f(v + h) - 2 * f(v) + f(v - h)) / h ** 2
        assert out.dense()[1][0, 1] == pytest.approx(expect, abs=1e-6)

    def test_works_on_plain_arrays(self):
        x = np.linspace(0, 1, 5)
        assert np.allclose(sin(x), np.sin(x))
        assert np.allclose(exp(x), np.exp(x))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
def test_product_rule_property(coords):
    """(fg)'' cross terms agree with finite differences for random inputs."""
    ctx = TaylorContext(1, 2)  # coords: q, v0, v1, s... m=5; pad
    x0 = np.array(coords + [0.0])
    xs = seed_all(ctx, x0)
    out = (xs[1] + 0.5 * xs[0]) * (xs[2] - xs[3] * xs[1])

    def f(x):
        return (x[1] + 0.5 * x[0]) * (x[2] - x[3] * x[1])

    hess = out.dense()[1]
    for r, i in enumerate((1, 2)):
        for j in range(4):
            assert hess[r, j] == pytest.approx(fd_second(f, x0, i, j),
                                               abs=5e-5)
