"""Forward-mode automatic differentiation on scalars.

Every map differentiated in this package is polynomial in its inputs, so
evaluating it on dual numbers gives derivatives that are exact up to float
rounding, with no step-size tuning.  Nesting duals one level deep gives
exact second derivatives.  The perturbations are numpy arrays seeded with
unit vectors (vector-mode forward differentiation), so one evaluation of
the map gives a whole gradient or Hessian.  This is the primary
differentiation route; central finite differences are provided only as an
independent cross-check oracle and are never used to certify a result.

Maps are evaluated on object-dtype numpy arrays holding ``Dual`` entries.
``np.dot`` and elementwise arithmetic work on such arrays; ``np.matmul``
does not accept object dtype, so generic code paths use ``np.dot``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Dual:
    """A scalar carrying a first-order perturbation: ``val + eps * t``.

    ``val`` and ``eps`` may themselves be ``Dual`` instances; one level of
    nesting is what :func:`hessian_of` uses for second derivatives.
    """

    val: object
    eps: object = 0.0

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.eps + other.eps)
        return Dual(self.val + other, self.eps)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.eps)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val * other.val,
                        self.val * other.eps + self.eps * other.val)
        return Dual(self.val * other, self.eps * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.val
            q = self.val * inv
            return Dual(q, (self.eps - q * other.eps) * inv)
        return Dual(self.val / other, self.eps / other)

    def __rtruediv__(self, other):
        inv = 1.0 / self.val
        q = other * inv
        return Dual(q, -q * self.eps * inv)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise TypeError("Dual ** only supports non-negative integers")
        out = Dual(1.0, 0.0)
        for _ in range(n):
            out = out * self
        return out


def value(z):
    """Strip all perturbation levels off ``z``."""
    while isinstance(z, Dual):
        z = z.val
    return z


def _eps(z):
    return z.eps if isinstance(z, Dual) else 0.0


def gradient_of(f, x):
    """Exact gradient of ``f`` at ``x`` from one vector-seeded dual pass.

    Coordinate k carries the unit vector e_k as its perturbation, so the
    single evaluation of ``f`` returns every partial derivative at once.
    On maps built from +, - and * (all this package differentiates) each
    entry equals that of a pass seeding coordinate k alone with 1.
    ``f`` takes a 1-d array (float or object dtype) and returns a scalar or
    an ndarray; the result has shape ``f(x).shape + (len(x),)``.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    eye = np.eye(n)
    z = np.empty(n, dtype=object)
    for k in range(n):
        z[k] = Dual(x[k], eye[k])
    w = np.asarray(f(z), dtype=object)
    out = np.empty(w.shape + (n,))
    for idx, t in np.ndenumerate(w):
        # a constant output has a scalar 0 perturbation, which broadcasts
        out[idx] = value(_eps(t))
    return out


def hessian_of(f, x):
    """Exact Hessian of ``f`` at ``x`` from one nested-dual pass.

    Coordinate k carries e_k as a (1, n) row in the inner perturbation and
    as an (n, 1) column in the outer one, so entry (i, j) of each output's
    innermost part is d2f / dx_i dx_j, built from the same float operations
    as a scalar pass seeded with e_j inside and e_i outside.  The lower
    triangle is mirrored onto the upper one.  Returns an array of shape
    ``f(x).shape + (n, n)``.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    eye = np.eye(n)
    z = np.empty(n, dtype=object)
    for k in range(n):
        z[k] = Dual(Dual(x[k], eye[k:k + 1]), Dual(eye[:, k:k + 1], 0.0))
    w = np.asarray(f(z), dtype=object)
    out = np.empty(w.shape + (n, n))
    for idx, t in np.ndenumerate(w):
        # constant and linear outputs have a scalar 0 there, which broadcasts
        out[idx] = value(_eps(_eps(t)))
    i, j = np.triu_indices(n, 1)
    out[..., i, j] = out[..., j, i]
    return out


def _fd_step(x, scale=None):
    # cube-root-of-eps step, scaled to the point, balances truncation
    # against rounding for central differences
    if scale is None:
        scale = 1.0 + float(np.max(np.abs(x))) if np.size(x) else 1.0
    return np.cbrt(np.finfo(float).eps) * scale


def finite_difference_gradient(f, x, scale=None):
    """Central-difference gradient; cross-check oracle for :func:`gradient_of`."""
    x = np.asarray(x, dtype=float)
    h = _fd_step(x, scale)
    n = x.size
    base = np.asarray(f(x), dtype=float)
    out = np.zeros(base.shape + (n,))
    for i in range(n):
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        out[..., i] = (np.asarray(f(xp), dtype=float)
                       - np.asarray(f(xm), dtype=float)) / (2.0 * h)
    return out


def finite_difference_hessian(f, x, scale=None):
    """Central-difference Hessian; cross-check oracle for :func:`hessian_of`."""
    x = np.asarray(x, dtype=float)
    h = _fd_step(x, scale)
    n = x.size
    base = np.asarray(f(x), dtype=float)
    out = np.zeros(base.shape + (n, n))
    for i in range(n):
        for j in range(i + 1):
            xpp = x.copy(); xpp[i] += h; xpp[j] += h
            xpm = x.copy(); xpm[i] += h; xpm[j] -= h
            xmp = x.copy(); xmp[i] -= h; xmp[j] += h
            xmm = x.copy(); xmm[i] -= h; xmm[j] -= h
            hij = (np.asarray(f(xpp), dtype=float) - np.asarray(f(xpm), dtype=float)
                   - np.asarray(f(xmp), dtype=float) + np.asarray(f(xmm), dtype=float)
                   ) / (4.0 * h * h)
            out[..., i, j] = hij
            out[..., j, i] = hij
    return out
