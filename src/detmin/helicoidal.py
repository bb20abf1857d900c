"""Reflection isometries that exhibit the rank-r stratum as helicoidal.

For X of rank r, the reflection B = 2 Q Q^T - I (Q an orthonormal basis of
the column space of X) is an ambient isometry of the matrix space acting by
left multiplication.  It fixes X, preserves rank, maps the stratum to
itself, and reverses every normal direction at X, because normals have
their columns inside the orthogonal complement of the column space.  A
fixed point of an isometry that reverses all normals cannot have a mean
curvature vector, which is the synthetic (derivative-free) minimality
argument this module certifies numerically.

The tangent and normal spaces the certificate tests against come from the
orbit description of the stratum, not from a chart: the rank-r matrices are
one orbit of X -> g X h^-1, so the tangent space at X is spanned by the
matrices A X + X B, and the normal space is its orthocomplement, read off
one rank decision in :func:`detmin.linalg.stratum_bases`.  No chart search
or column placement is involved, so a point whose leading r columns are
dependent is certified like any other.

Everything below the top stratum of the rank-bounded variety is a union of
lower strata of strictly smaller dimension, hence has measure zero in it;
the certificates here therefore speak about every smooth point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (column_reflection, declared_rank, max_abs,
                     numerical_rank, reflection_residuals, relative,
                     reversal, stratum_bases)


def reflection(x_rank):
    """Reflection B = 2 Q Q^T - I through the column space of a matrix.

    ``x_rank`` is the matrix's :func:`~detmin.linalg.declared_rank`
    result, whose ``range_basis`` is Q; declaring the rank there refuses a
    point off the stratum rather than reflecting through the wrong
    subspace.
    """
    return column_reflection(x_rank, np.ones(x_rank.range_basis.shape[0]))


def isometry_check(a, q, rng):
    """How far left multiplication by ``a`` is from a p x q trace isometry.

    Samples eight random matrix pairs and compares <aX, aY> with <X, Y>;
    returns the worst relative deviation.  Left multiplication is an
    isometry exactly when ``a`` is orthogonal.  The pairs are drawn in one
    call, X before Y for each pair, and evaluated as one stacked product.
    """
    a = np.asarray(a, dtype=float)
    xy = rng.normal(size=(8, 2, a.shape[1], q))
    x, y = xy[:, 0], xy[:, 1]
    lhs = ((a @ x) * (a @ y)).reshape(8, -1).sum(axis=1)
    rhs = (x * y).reshape(8, -1).sum(axis=1)
    deviation = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))
    return max([0.0, *deviation.tolist()])


def off_span(basis, y):
    """Norm of the part of ``y`` outside the span of ``basis``, over |y|."""
    v = np.asarray(y, dtype=float).ravel()
    return float(relative(np.linalg.norm(v - basis @ (basis.T @ v)),
                          np.linalg.norm(v)))


def tangent_family(x_rank, rng, kind):
    """Random matrix whose column (or row) space sits inside that of x.

    ``x_rank`` is the :func:`~detmin.linalg.declared_rank` result of x and
    ``kind`` is ``"column"`` or ``"row"``.  Such matrices are tangent to
    the stratum at x; they are the derivative-free tangent vectors the
    synthetic argument is built on.
    """
    p, r = x_rank.range_basis.shape
    q = x_rank.row_basis.shape[0]
    if kind == "column":
        return x_rank.range_basis @ rng.normal(size=(r, q))
    if kind == "row":
        return rng.normal(size=(p, r)) @ x_rank.row_basis.T
    raise ValueError(f"unknown tangent family {kind!r}")


@dataclass(frozen=True)
class Certificate:
    """Residuals behind the synthetic minimality argument at one point.

    ``sample_ranks`` are the numerical ranks of a random rank-r sample z
    and of its reflection B z, in that order; B preserves the stratum when
    both equal r.
    """

    reflection_residuals: dict
    isometry_residual: float
    sample_ranks: tuple
    tangent_residuals: dict
    normal_reversal: float
    counter_control: float


def helicoidal_certificate(x, r, rng):
    """Run the full synthetic-minimality checklist at one stratum point."""
    x = np.asarray(x, dtype=float)
    p, q = x.shape
    x_rank = declared_rank(x, r)
    b = reflection(x_rank)
    # euclidean only: det B = (-1)^(p - r), and the symmetric B has the
    # spectrum of p - r reversed and r fixed directions (ascending)
    expected = np.concatenate([-np.ones(p - r), np.ones(r)])
    residuals = {
        **reflection_residuals(b, np.ones(p), x),
        "determinant": abs(float(np.linalg.det(b)) - (-1.0) ** (p - r)),
        "spectrum": max_abs(np.linalg.eigvalsh(b) - expected),
    }
    iso = isometry_check(b, q, rng)
    a = rng.normal(size=(p, r))
    z = np.concatenate([a, a @ rng.uniform(-2, 2, size=(r, q - r))], axis=1)
    ranks = (numerical_rank(z), numerical_rank(b @ z))
    tb, nb = stratum_bases(x, r)
    tangents = {
        "cone_direction": off_span(tb, x),
        "column_family": off_span(tb, tangent_family(x_rank, rng, "column")),
        "row_family": off_span(tb, tangent_family(x_rank, rng, "row")),
    }
    worst_reversal = reversal(b, nb, x.shape)
    counter = off_span(tb, nb[:, 0]) if nb.shape[1] else 1.0
    return Certificate(residuals, iso, ranks, tangents,
                       worst_reversal, counter)
