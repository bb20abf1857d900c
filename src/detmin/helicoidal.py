"""Reflection isometries that exhibit the rank-r stratum as helicoidal.

For X of rank r, the reflection B = 2 Q Q^T - I (Q an orthonormal basis of
the column space of X) is an ambient isometry of the matrix space acting by
left multiplication.  It fixes X, preserves rank, maps the stratum to
itself, and reverses every normal direction at X, because normals have
their columns inside the orthogonal complement of the column space.  A
fixed point of an isometry that reverses all normals cannot have a mean
curvature vector, which is the synthetic (derivative-free) minimality
argument this module certifies numerically.

Everything below the top stratum of the rank-bounded variety is a union of
lower strata of strictly smaller dimension, hence has measure zero in it;
the certificates here therefore speak about every smooth point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InvalidChartPoint
from .linalg import max_abs, svd_rank
from .parametric import ChartPoint, chart_jacobian, chart_map, normal_frame


@dataclass(frozen=True)
class Reflection:
    """B = 2 Q Q^T - I with Q spanning the column space of the base point."""

    matrix: np.ndarray
    r: int

    def invariant_residuals(self, x):
        """Orthogonality, involution and fixed-point residuals, plus spectrum."""
        b = self.matrix
        p = b.shape[0]
        eig = np.sort(np.linalg.eigvalsh(b))
        expected = np.sort(np.concatenate([-np.ones(p - self.r),
                                           np.ones(self.r)]))
        return {
            "orthogonal": max_abs(b.T @ b - np.eye(p)),
            "involution": max_abs(b @ b - np.eye(p)),
            "fixes_point": max_abs(b @ x - x) / max(1.0, max_abs(x)),
            "determinant": abs(float(np.linalg.det(b)) - (-1.0) ** (p - self.r)),
            "spectrum": max_abs(eig - expected),
        }


def reflection(x, r=None):
    """Reflection through the column space of ``x``.

    ``r`` declares the stratum; a mismatch with the numerical rank raises
    :class:`InvalidChartPoint` rather than silently reflecting through the
    wrong subspace.
    """
    x = np.asarray(x, dtype=float)
    rr = svd_rank(x)
    if r is None:
        r = rr.rank
    elif rr.rank != r:
        raise InvalidChartPoint(
            f"declared rank {r} but numerical rank is {rr.rank} "
            f"(singular values {rr.singular_values})")
    q = np.linalg.svd(x, full_matrices=False)[0][:, :r]
    b = 2.0 * q @ q.T - np.eye(x.shape[0])
    return Reflection(b, r)


def isometry_check(a, q, rng, samples=8):
    """Is left multiplication by ``a`` an isometry of the p x q trace metric?

    Samples random matrix pairs and compares <aX, aY> with <X, Y>; returns
    (verdict, worst relative deviation).  Left multiplication is an isometry
    exactly when ``a`` is orthogonal.
    """
    a = np.asarray(a, dtype=float)
    worst = 0.0
    for _ in range(samples):
        x = rng.normal(size=(a.shape[1], q))
        y = rng.normal(size=(a.shape[1], q))
        lhs = float(((a @ x) * (a @ y)).sum())
        rhs = float((x * y).sum())
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst <= 1e-12, worst


def align_chart(x, r, tol=1e-10):
    """Chart data for an ambient rank-r matrix.

    Picks the first column set (lexicographic order) that has full rank,
    solves for the dependent columns, and returns (chart point, column
    placement) such that ``chart_map(cp, col_perm)`` reproduces ``x``.
    """
    x = np.asarray(x, dtype=float)
    p, q = x.shape
    if svd_rank(x).rank != r:
        raise InvalidChartPoint(f"matrix is not rank {r}")
    if r == 0:
        return ChartPoint(np.zeros((p, 0)), np.zeros((0, q))), tuple(range(q))
    for cols in combinations(range(q), r):
        a = x[:, list(cols)]
        if svd_rank(a).rank != r:
            continue
        rest = [j for j in range(q) if j not in cols]
        lam, *_ = np.linalg.lstsq(a, x[:, rest], rcond=None)
        cp = ChartPoint(a, lam)
        col_perm = tuple(cols) + tuple(rest)
        resid = max_abs(chart_map(cp, col_perm) - x) / max(1.0, max_abs(x))
        if resid <= tol:
            return cp, col_perm
    raise InvalidChartPoint("no admissible column patch reproduces the matrix")


def tangent_basis(x, r):
    """Orthonormal basis (columns) of the stratum tangent space at ``x``."""
    cp, col_perm = align_chart(x, r)
    jac = chart_jacobian(cp, col_perm)
    if jac.size == 0:
        return np.zeros((x.size, 0))
    return np.linalg.qr(jac)[0]


def normal_basis(x, r):
    """Orthonormalised frame of the normal space at ``x``."""
    cp, col_perm = align_chart(x, r)
    frame = normal_frame(cp, col_perm)
    if frame.frame_size == 0:
        return np.zeros((x.size, 0))
    return np.linalg.qr(frame.flat().T)[0]


def _off_span(basis, y):
    """Relative norm of the part of ``y`` outside the span of ``basis``."""
    v = np.asarray(y, dtype=float).ravel()
    return float(np.linalg.norm(v - basis @ (basis.T @ v))
                 / max(1.0, np.linalg.norm(v)))


def tangent_membership(x, y, r, tol=1e-9):
    """Does ``y`` lie in the stratum tangent space at ``x``?"""
    resid = _off_span(tangent_basis(x, r), y)
    return resid <= tol, resid


def sample_tangent_family(x, r, rng, kind="column"):
    """Random matrix whose column (or row) space sits inside that of ``x``.

    Such matrices are tangent to the stratum at ``x``; they are the
    derivative-free tangent vectors the synthetic argument is built on.
    """
    x = np.asarray(x, dtype=float)
    p, q = x.shape
    u, s, vt = np.linalg.svd(x)
    if kind == "column":
        return u[:, :r] @ rng.normal(size=(r, q))
    if kind == "row":
        return rng.normal(size=(p, r)) @ vt[:r, :]
    raise ValueError(f"unknown tangent family {kind!r}")


def _reversal(b, normals, shape):
    """Worst max-norm of B W + W over the columns W of ``normals``."""
    worst = 0.0
    for k in range(normals.shape[1]):
        w = normals[:, k].reshape(shape)
        worst = max(worst, max_abs(b @ w + w))
    return worst


def normal_reversal(x, r):
    """Worst residual of B W = -W over an orthonormal normal basis at ``x``."""
    return _reversal(reflection(x, r).matrix, normal_basis(x, r),
                     np.asarray(x).shape)


@dataclass(frozen=True)
class Certificate:
    """Bundle of residuals behind the synthetic minimality verdict."""

    reflection_residuals: dict
    isometry_residual: float
    rank_preserved: bool
    tangent_residuals: dict
    normal_reversal: float
    counter_control: float

    def ok(self, reflection_tol=1e-12, reversal_tol=1e-10, tangent_tol=1e-9):
        if max(self.reflection_residuals.values()) > reflection_tol:
            return False
        if self.isometry_residual > reflection_tol:
            return False
        if not self.rank_preserved:
            return False
        if max(self.tangent_residuals.values()) > tangent_tol:
            return False
        if self.normal_reversal > reversal_tol:
            return False
        # a generic normal direction must *not* test tangent
        return self.counter_control > 1e-3


def helicoidal_certificate(x, r, rng):
    """Run the full synthetic-minimality checklist at one stratum point."""
    x = np.asarray(x, dtype=float)
    refl = reflection(x, r)
    residuals = refl.invariant_residuals(x)
    _, iso = isometry_check(refl.matrix, x.shape[1], rng)
    z = chart_map(ChartPoint(rng.normal(size=(x.shape[0], r)),
                             rng.uniform(-2, 2, size=(r, x.shape[1] - r))))
    rank_preserved = svd_rank(refl.matrix @ z).rank == r == svd_rank(z).rank
    tb = tangent_basis(x, r)
    nb = normal_basis(x, r)
    tangents = {
        "cone_direction": _off_span(tb, x),
        "column_family": _off_span(
            tb, sample_tangent_family(x, r, rng, "column")),
        "row_family": _off_span(tb, sample_tangent_family(x, r, rng, "row")),
    }
    reversal = _reversal(refl.matrix, nb, x.shape)
    counter = _off_span(tb, nb[:, 0]) if nb.shape[1] else 1.0
    return Certificate(residuals, iso, rank_preserved, tangents, reversal, counter)
