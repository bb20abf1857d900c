"""Forward-mode automatic differentiation on scalars.

Every map differentiated in this package is polynomial in its inputs, so
evaluating it on dual numbers gives derivatives that are exact up to float
rounding, with no step-size tuning.  ``HyperDual`` carries a value, its
gradient and its Hessian, so one scalar type gives exact first and second
derivatives.  The perturbations are numpy arrays seeded with unit vectors
(vector-mode forward differentiation), so one evaluation of the map gives
a whole gradient and Hessian; :func:`gradient_of` reads the first and
:func:`hessian_of` the second.  This is the primary differentiation
route.  Its cross-check oracles live in the tests: a first-order ``Dual``
scalar, nested one level for second derivatives, which the hyper-dual
pass reproduces bit for bit, and central finite differences.

Maps are evaluated on object-dtype numpy arrays holding ``HyperDual``
entries.  ``np.dot`` and elementwise arithmetic work on such arrays;
``np.matmul`` does not accept object dtype, so generic code paths use
``np.dot``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class HyperDual:
    """A scalar with its gradient and Hessian: ``val``, ``grad``, ``hess``.

    It performs the float operations of a ``Dual`` nested one level deep,
    ``Dual(Dual(val, grad as a row), Dual(grad as a column, hess))``, whose
    inner and outer perturbations carry the same gradient twice; here it is
    carried once.  ``grad`` is an (n,) array; ``hess`` is an (n, n) array,
    or a scalar 0 until a product makes one.  Every map this package
    differentiates is polynomial, so division is by constants only.  It
    defines operators only, so the perfbench tracer, which times every
    public method, adds no span to an arithmetic step.
    """

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad, hess):
        self.val = val
        self.grad = grad
        self.hess = hess

    def __add__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(self.val + other.val, self.grad + other.grad,
                             self.hess + other.hess)
        return HyperDual(self.val + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return HyperDual(-self.val, -self.grad, -self.hess)

    # x - y is x + (-y) in IEEE arithmetic, so subtracting directly keeps
    # the nested pass's bits without building the negation
    def __sub__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(self.val - other.val, self.grad - other.grad,
                             self.hess - other.hess)
        return HyperDual(self.val - other, self.grad, self.hess)

    def __rsub__(self, other):
        return HyperDual(other - self.val, -self.grad, -self.hess)

    def __mul__(self, other):
        if isinstance(other, HyperDual):
            v1, g1, h1 = self.val, self.grad, self.hess
            v2, g2, h2 = other.val, other.grad, other.hess
            # the nested pass forms outer(g2, g1) and outer(g1, g2); products
            # commute, so the first is the transpose of the second
            cross = g1[:, None] * g2
            return HyperDual(v1 * v2, v1 * g2 + g1 * v2,
                             (v1 * h2 + cross.T) + (cross + h1 * v2))
        return HyperDual(self.val * other, self.grad * other,
                         self.hess * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, HyperDual):
            raise TypeError("HyperDual divides only by constants")
        return HyperDual(self.val / other, self.grad / other,
                         self.hess / other)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise TypeError("HyperDual ** only supports non-negative integers")
        out = 1.0
        for _ in range(n):
            out = out * self
        return out


def _hyper_dual_pass(f, x):
    """``f`` evaluated once, coordinate k of ``x`` seeded as
    ``HyperDual(x[k], e_k, 0)``; the outputs as an object array."""
    x = np.asarray(x, dtype=float)
    n = x.size
    eye = np.eye(n)
    z = np.empty(n, dtype=object)
    for k in range(n):
        z[k] = HyperDual(x[k], eye[k], 0.0)
    return np.asarray(f(z), dtype=object)


def gradient_of(f, x):
    """Exact gradient of ``f`` at ``x`` from one hyper-dual pass.

    Coordinate k carries the unit vector e_k as its perturbation, so the
    single evaluation of ``f`` returns every partial derivative at once.
    Each entry is built from the same float operations as a dual pass
    seeding coordinate k alone with 1.  ``f`` takes a 1-d array (float or
    object dtype) and returns a scalar or an ndarray; the result has shape
    ``f(x).shape + (len(x),)``.
    """
    w = _hyper_dual_pass(f, x)
    out = np.empty(w.shape + (np.size(x),))
    for idx, t in np.ndenumerate(w):
        # a constant output is a plain float, with gradient 0
        out[idx] = t.grad if isinstance(t, HyperDual) else 0.0
    return out


def hessian_of(f, x):
    """Exact Hessian of ``f`` at ``x`` from one hyper-dual pass.

    Coordinate k is seeded as ``HyperDual(x[k], e_k, 0)``, so entry (i, j)
    of each output's ``hess`` is d2f / dx_i dx_j, built from the same float
    operations as a nested-dual scalar pass seeded with e_j inside and e_i
    outside.  The lower triangle is mirrored onto the upper one.  Returns an
    array of shape ``f(x).shape + (n, n)``.
    """
    w = _hyper_dual_pass(f, x)
    n = np.size(x)
    out = np.empty(w.shape + (n, n))
    for idx, t in np.ndenumerate(w):
        # constant and linear outputs have a scalar 0 there, which broadcasts
        out[idx] = t.hess if isinstance(t, HyperDual) else 0.0
    i, j = _upper_triangle(n)
    out[..., i, j] = out[..., j, i]
    return out


# one entry per Hessian size, shared read-only: over the bench's oracle
# grid, building the index pair took about 30% of each hessian_of call
@lru_cache(maxsize=64)
def _upper_triangle(n):
    i, j = np.triu_indices(n, 1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j
