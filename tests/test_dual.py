"""Dual-number forward differentiation against closed forms and FD."""

import numpy as np
import pytest

from detmin.dual import (Dual, finite_difference_gradient,
                         finite_difference_hessian, gradient_of, hessian_of,
                         value)


def test_first_order_arithmetic():
    z = Dual(3.0, 1.0)
    w = (z * z + 2.0 * z + 1.0) / (z + 1.0)  # (z+1)^2 / (z+1) = z + 1
    assert w.val == pytest.approx(4.0)
    assert w.eps == pytest.approx(1.0)


def test_power_and_rdiv():
    z = Dual(2.0, 1.0)
    assert (z ** 3).val == 8.0
    assert (z ** 3).eps == 12.0
    w = 1.0 / z
    assert w.val == pytest.approx(0.5)
    assert w.eps == pytest.approx(-0.25)
    assert (z ** 0).eps == 0.0


def test_value_strips_nesting():
    nested = Dual(Dual(5.0, 1.0), Dual(2.0, 3.0))
    assert value(nested) == 5.0


def test_gradient_of_polynomial_map():
    def f(x):
        return np.array([x[0] * x[1], x[1] ** 2 + x[2]], dtype=object)

    x = np.array([1.5, -2.0, 0.5])
    jac = gradient_of(f, x)
    expected = np.array([[-2.0, 1.5, 0.0], [0.0, -4.0, 1.0]])
    assert jac.shape == (2, 3)
    assert np.allclose(jac, expected, atol=1e-14)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    x = rng.normal(size=4)

    def f(v):
        m = np.empty((2, 2), dtype=object)
        m[0, 0], m[0, 1], m[1, 0], m[1, 1] = v[0], v[1], v[2], v[3]
        return np.array([np.dot(m, m)[0, 0], np.dot(m, m).trace()],
                        dtype=object)

    assert np.allclose(gradient_of(f, x), finite_difference_gradient(f, x),
                       atol=1e-7)


def test_hessian_of_cubic():
    def f(v):
        return v[0] ** 3 + v[0] * v[1] * v[2]

    x = np.array([2.0, 3.0, -1.0])
    h = hessian_of(f, x)
    expected = np.array([[12.0, -1.0, 3.0],
                         [-1.0, 0.0, 2.0],
                         [3.0, 2.0, 0.0]])
    assert np.allclose(h, expected, atol=1e-13)
    assert np.allclose(h, h.T)


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(1)
    x = rng.normal(size=5)

    def f(v):
        return (v[0] * v[1] - v[2] * v[3]) * v[4] + v[1] ** 2

    assert np.allclose(hessian_of(f, x), finite_difference_hessian(f, x),
                       atol=1e-6)


# ---------------------------------------------------------------------------
# one vector-seeded pass against the scalar-seeded pass per direction


def _scalar_gradient(f, x):
    """One dual pass per coordinate, seeded with a scalar 1."""
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.zeros(np.asarray(f(x), dtype=float).shape + (n,))
    for i in range(n):
        z = np.empty(n, dtype=object)
        z[:] = [float(t) for t in x]
        z[i] = Dual(x[i], 1.0)
        w = np.asarray(f(z), dtype=object)
        deriv = np.frompyfunc(
            lambda t: value(t.eps if isinstance(t, Dual) else 0.0), 1, 1)(w)
        out[..., i] = np.asarray(deriv, dtype=float)
    return out


def _scalar_hessian(f, x):
    """One nested-dual pass per pair j <= i: e_j inside, e_i outside."""
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.zeros(np.asarray(f(x), dtype=float).shape + (n, n))

    def innermost(t):
        for _ in range(2):
            t = t.eps if isinstance(t, Dual) else 0.0
        return value(t)

    for i in range(n):
        for j in range(i + 1):
            z = np.empty(n, dtype=object)
            for k in range(n):
                z[k] = Dual(Dual(x[k], 1.0 if k == j else 0.0),
                            Dual(1.0 if k == i else 0.0, 0.0))
            hij = np.asarray(np.frompyfunc(innermost, 1, 1)(
                np.asarray(f(z), dtype=object)), dtype=float)
            out[..., i, j] = hij
            out[..., j, i] = hij
    return out


def _assert_both_passes_equal(f, x):
    assert np.array_equal(gradient_of(f, x), _scalar_gradient(f, x))
    assert np.array_equal(hessian_of(f, x), _scalar_hessian(f, x))


CHART_SHAPES = [(p, q, r) for q in range(1, 5) for p in range(q, 5)
                for r in range(q)]


@pytest.mark.parametrize("p,q,r", CHART_SHAPES)
def test_one_pass_equals_scalar_passes_on_the_chart_map(p, q, r):
    from detmin.linalg import make_rng
    from detmin.parametric import chart_map_generic, sample_chart_point

    cp = sample_chart_point(p, q, r, make_rng(300 + 10 * p + q + r))

    def flat_chart(vec):
        a = vec[:p * r].reshape(p, r)
        lam = vec[p * r:].reshape(r, q - r)
        return chart_map_generic(a, lam).ravel()

    _assert_both_passes_equal(
        flat_chart, np.concatenate([cp.a.ravel(), cp.lam.ravel()]))


@pytest.mark.parametrize("n", [2, 3])
def test_one_pass_equals_scalar_passes_on_the_constraint_pairs(n):
    from detmin.kahler import TwinHarmonicPair
    from detmin.levelset import ConstraintSystem

    rng = np.random.default_rng(40 + n)
    system = ConstraintSystem(n)
    flat = rng.normal(size=(n + 1) * n)
    _assert_both_passes_equal(system.values_generic, flat)
    _assert_both_passes_equal(lambda v: system.values_generic(v)[1], flat)
    pair = TwinHarmonicPair(n)
    point = rng.normal(size=2 * n * n)
    _assert_both_passes_equal(pair.values_generic, point)
    _assert_both_passes_equal(lambda v: pair.values_generic(v)[0], point)


def test_one_pass_equals_scalar_passes_on_scalar_and_affine_outputs():
    x = np.random.default_rng(0).normal(size=4)

    def scalar(v):
        # a product of two quadratics: the upper triangle of a one-pass
        # Hessian, read directly, sums its terms in another order
        return ((v[0] * v[1] + v[2] * v[3])
                * (v[0] * v[2] - v[1] * (v[3] + 3.0) + v[1] * v[1]))

    def mixed(v):
        # a constant, linear terms and a product: the constant and the
        # linear outputs carry a scalar 0 as their innermost part
        return np.array([2.5, 3.0 * v[0] - v[2], v[1] * v[3] + v[0], v[3]],
                        dtype=object)

    _assert_both_passes_equal(scalar, x)
    _assert_both_passes_equal(mixed, x)
    assert np.array_equal(hessian_of(mixed, x)[:2], np.zeros((2, 4, 4)))
    assert np.array_equal(gradient_of(mixed, x)[0], np.zeros(4))


def test_each_pass_evaluates_once():
    calls = []

    def f(v):
        calls.append(1)
        return np.array([v[0] * v[1], v[1] * v[2] + v[0]], dtype=object)

    x = np.array([1.0, 2.0, -0.5])
    hessian_of(f, x)
    assert len(calls) == 1
    gradient_of(f, x)
    assert len(calls) == 2
