"""Level-set description of the top singular stratum in the (n+1) x n space.

A real (n+1) x n matrix A of rank n - 1 is cut out (near such a point) by
two determinant constraints,

    chi_1(A) = det(rows 1..n),
    chi_2(A) = (-1)^(n-1) * det(rows 2..n+1),

whose sign convention makes the shared cofactor identity
d chi_1 / d A_{1a} = d chi_2 / d A_{n+1,a} hold exactly everywhere.  The
matrix is flattened row-major, x_{a + (K-1) n} = A_{K a}, so gradients and
Hessians of the constraints are indexed by that same order.

Gradients are cofactor vectors, signed (n-1)-minors of the constraint
blocks, and Hessian entries are their signed (n-2)-minors; both are exact
multilinear-algebra evaluations (no differencing), and the Hessian diagonal
is an exact zero, which makes both constraints harmonic on the nose.
:meth:`ConstraintSystem.evaluate` returns them as one ``ConstraintJet``
(linalg), whose norms, sandwiches and Hessian products every function
below reads, and whose norms scale each residual (see ``ConstraintJet``);
only the closed forms they are compared against live here.

Minimality of the stratum is the statement tr(P d2chi_alpha) = 0 on the
variety, with P the orthoprojector onto the common tangent space of the two
level sets, which the jet reads (``ConstraintJet.trace_residual``).  The
module also exposes the curvature-free contraction identities relating
gradients and Hessians of the pair, the row-coefficient conventions, the
rank-one structure of cofactor matrices on the singular locus, and an
evidence-only probe of a conjectured mixed contraction identity (it never
gates a verdict; see :func:`conjecture_evidence`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConventionFailure, InvalidChartPoint
from .linalg import (ConstraintJet, cofactors, max_abs, near_zero,
                     numerical_rank, second_cofactors)

# Draws each sampler below makes before giving up.
MAX_DRAWS = 100


class ConstraintSystem:
    """The two determinant constraints for (n+1) x n matrices of rank n-1."""

    def __init__(self, n):
        if n < 2:
            raise ValueError("need n >= 2")
        self.n = n
        self.ambient_dim = (n + 1) * n
        self.sign2 = (-1.0) ** (n - 1)

    def values(self, a):
        a = np.asarray(a, dtype=float)
        return (float(np.linalg.det(a[:self.n])),
                self.sign2 * float(np.linalg.det(a[1:])))

    def gradients(self, a):
        """Cofactor gradients, stacked (2, n+1, n) in matrix layout."""
        a = np.asarray(a, dtype=float)
        n = self.n
        out = np.zeros((2, n + 1, n))
        for k, sign in enumerate((1.0, self.sign2)):
            out[k, k:k + n] = sign * cofactors(a[k:k + n])
        return out

    def hessians(self, a):
        """Flat Hessians, stacked (2, N, N); each nonzero entry is a signed
        (n-2)-minor."""
        a = np.asarray(a, dtype=float)
        n = self.n
        out = np.zeros((2, self.ambient_dim, self.ambient_dim))
        for k, sign in enumerate((1.0, self.sign2)):
            block = slice(k * n, (k + n) * n)
            out[k, block, block] = sign * second_cofactors(
                a[k:k + n]).reshape(n * n, n * n)
        return out

    def evaluate(self, a):
        """Values, flat gradients and Hessians of both minors at ``a``."""
        a = np.asarray(a, dtype=float)
        return ConstraintJet(a, np.array(self.values(a)),
                             self.gradients(a).reshape(2, -1),
                             self.hessians(a))


def sample_on_variety(system, rng):
    """The jet of a rank-(n-1) point (a, a lam), rescaled to unit norm.

    The constructed matrix is verified on-variety rather than projected
    there: both constraint values are ``near_zero`` (linalg) against the
    jet's gradients.  Its first and last rows are kept away from zero so the
    row-coefficient conventions are realisable.
    """
    n = system.n
    for _ in range(MAX_DRAWS):
        a = rng.normal(size=(n + 1, n - 1))
        a = np.concatenate([a, a @ rng.uniform(-2.0, 2.0, size=(n - 1, 1))],
                           axis=1)
        a = a / np.linalg.norm(a)
        rows_ok = (np.linalg.norm(a[0]) > 0.05 and np.linalg.norm(a[-1]) > 0.05)
        if rows_ok and numerical_rank(a[1:n, :]) == n - 1:
            jet = system.evaluate(a)
            if near_zero(jet.values, a, jet.grad_norms).all():
                return jet
    raise InvalidChartPoint(f"no admissible on-variety point for n={n} "
                            f"after {MAX_DRAWS} draws")


def tangent_projector(jet):
    """Rank of the jet's tangent projector, n^2 + n - 2 on the variety."""
    # for an idempotent matrix the eigenvalues cluster at 0 and 1, so the
    # robust rank is the count above 1/2; a raw singular-value cutoff can
    # miscount when the Gram solve leaves noise above machine precision
    return int((np.linalg.eigvalsh(jet.projector) > 0.5).sum())


def levelset_mean_curvature(jet):
    """max_alpha |tr(P d2chi_alpha)| / |d2chi_alpha| at the jet's point."""
    return jet.trace_residual


@dataclass(frozen=True)
class IdentityReport:
    """Relative residuals of the identities that hold at every ambient point.

    ``square`` and ``mixed`` are the gradient/Hessian contraction
    identities, each over its sandwich's ``sandwich_scale``; ``harmonicity``
    is exact by construction and reported as the literal trace.
    """

    square: np.ndarray
    mixed: np.ndarray
    harmonicity: np.ndarray


def identity_suite(jet):
    # g_a.H_a.g_a = chi_a tr(H_a^2) / 2 and g_b.H_a.g_b = chi_b tr(H_1 H_2) / 2
    chi, s, scale = jet.values, jet.sandwiches, jet.sandwich_scale
    own = np.arange(2)
    other = own[::-1]
    hh = jet.hessian_products
    square = (np.abs(s[own, own, own] - 0.5 * chi * hh[own, own])
              / scale[own, own, own])
    mixed = (np.abs(s[other, own, other] - 0.5 * hh[0, 1] * chi[other])
             / scale[other, own, other])
    return IdentityReport(square, mixed, jet.laplacians)


@dataclass(frozen=True)
class ContractionReport:
    """Relative residuals of the contractions that vanish on the variety.

    ``contractions`` holds all eight grad/Hess/grad sandwiches and
    ``four_term`` the symmetrised four-term contraction, each a (2, 2, 2)
    table indexed [alpha, beta, gamma] like ``ConstraintJet.sandwiches``
    and over the same ``sandwich_scale``.
    """

    contractions: np.ndarray
    four_term: np.ndarray


def on_variety_contractions(jet):
    shape = jet.point.shape
    hess = jet.hessians.reshape(2, *shape, *shape)
    g = jet.grads.reshape(2, *shape)
    four_term = (np.einsum("blikj,ali,ckj->abc", hess, g, g)
                 + np.einsum("blikj,akj,cli->abc", hess, g, g)
                 - np.einsum("blikj,alj,cki->abc", hess, g, g)
                 - np.einsum("blikj,aki,clj->abc", hess, g, g))
    return ContractionReport(np.abs(jet.sandwiches) / jet.sandwich_scale,
                             np.abs(four_term) / jet.sandwich_scale)


@dataclass(frozen=True)
class RowCoefficients:
    """Row dependence coefficients with the pinned-sign conventions.

    ``lam`` has lam[0] = -1 and lam[n] = 0 and expresses row 1 through the
    middle rows; ``mu`` has mu[0] = 0 and mu[n] = -1 and expresses the last
    row through the middle rows.  In both cases sum_k coeff_k row_k = 0.
    """

    lam: np.ndarray
    mu: np.ndarray
    residuals: np.ndarray


def row_coefficients(a):
    """Least-squares row coefficients of ``a`` and their relative residuals.

    Raises :class:`ConventionFailure` only when the middle rows do not span
    the row space.  Off the variety the first or last row leaves that span
    and the residuals grow; they are returned for the caller to judge.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[1]
    middle = a[1:n, :]
    if numerical_rank(middle) != n - 1:
        raise ConventionFailure("middle rows do not span the row space")
    sol_first, *_ = np.linalg.lstsq(middle.T, a[0], rcond=None)
    sol_last, *_ = np.linalg.lstsq(middle.T, a[n], rcond=None)
    lam = np.concatenate([[-1.0], sol_first, [0.0]])
    mu = np.concatenate([[0.0], sol_last, [-1.0]])
    res = np.linalg.norm([lam @ a, mu @ a], axis=1) / np.linalg.norm(a)
    return RowCoefficients(lam, mu, res)


def gradient_proportionality(jet, coeffs):
    """Relative residuals of the gradient row structure.

    Checks, entrywise: grad chi_1 row K = -lam_K * (row 1 of grad chi_1),
    grad chi_2 row K = -mu_K * (last row of grad chi_2), and the exact
    shared-cofactor equality of those two reference rows.  ``coeffs`` are
    the :func:`row_coefficients` of the point of ``jet``.
    """
    g1, g2 = jet.grads.reshape(2, *jet.point.shape)
    scale = max_abs(jet.grads)
    res1 = max_abs(g1 + np.outer(coeffs.lam, g1[0]))
    res2 = max_abs(g2 + np.outer(coeffs.mu, g2[-1]))
    shared = max_abs(g1[0] - g2[-1])
    return {"first_constraint": res1 / scale,
            "second_constraint": res2 / scale,
            "shared_cofactor": shared / scale}


def logarithmic_gradient_residual(jet):
    """max | grad chi_alpha - chi_alpha * inv(block_alpha)^T |, relative.

    Each gradient is compared on the rows of its own block, rows 1..n for
    chi_1 and 2..n+1 for chi_2 (the other row of each gradient is an exact
    zero).
    """
    a = jet.point
    n = a.shape[1]
    g1, g2 = jet.grads.reshape(2, *a.shape)
    chi1, chi2 = jet.values
    r1 = max_abs(g1[:n] - chi1 * np.linalg.inv(a[:n]).T)
    r2 = max_abs(g2[1:] - chi2 * np.linalg.inv(a[1:]).T)
    return max(r1, r2) / max_abs(jet.grads)


@dataclass(frozen=True)
class RankOneReport:
    """Cofactor-matrix degeneracy on the singular locus of square matrices."""

    sigma_ratio: float
    factor_residual: float


def leading_pivot(cof):
    """Whether cof[0, 0] = det m[1:, 1:] can pivot :func:`gradient_rank_one`:
    at least 1e-8 of the largest cofactor in modulus."""
    return abs(cof[0, 0]) > 1e-8 * max_abs(cof)


def gradient_rank_one(m):
    """Rank-one structure of the cofactor matrix of a singular square matrix.

    cof[i, j] = d det / d m_{ij} as a matrix has rank one on det = 0; with
    row coefficients lam (lam_1 = -1) and column coefficients rho (rho_1 =
    -1) it factors as cof[i, j] = lam_i rho_j cof[0, 0].  Requires the
    leading cofactor to pass :func:`leading_pivot`.
    """
    m = np.asarray(m, dtype=float)
    k = m.shape[0]
    if m.shape != (k, k):
        raise ValueError("square matrix required")
    cof = cofactors(m)
    if not leading_pivot(cof):
        raise ConventionFailure("leading cofactor too small to factor through")
    s = np.linalg.svd(cof, compute_uv=False)
    lam = np.linalg.lstsq(m[1:].T, m[0], rcond=None)[0]
    rho = np.linalg.lstsq(m[:, 1:], m[:, 0], rcond=None)[0]
    predicted = np.outer(np.r_[-1.0, lam], np.r_[-1.0, rho]) * cof[0, 0]
    factor_residual = max_abs(cof - predicted) / max_abs(cof)
    return RankOneReport(float(s[1] / s[0]), factor_residual)


def sample_singular_matrix(n, rng):
    """Unit-norm n x n matrix of rank n - 1 passing :func:`leading_pivot`."""
    for _ in range(MAX_DRAWS):
        m = rng.normal(size=(n, n - 1)) @ rng.normal(size=(n - 1, n))
        m /= np.linalg.norm(m)
        if numerical_rank(m) == n - 1 and leading_pivot(cofactors(m)):
            return m
    raise InvalidChartPoint(f"no admissible singular matrix for n={n}")


@dataclass(frozen=True)
class ConjectureEvidence:
    """Evidence record for the conjectured mixed contraction identity.

    ``printed_residual`` is the relative residual of the identity as
    conjectured:  grad2 . H1 . grad1 = chi2/4 tr(H1 H2) + chi1/4 tr(H2^2).
    ``swapped_residual`` probes the trace-swapped reading
    chi2/4 tr(H1^2) + chi1/4 tr(H1 H2).  Neither residual ever gates a
    verdict; this is observational data about a conjecture.
    """

    printed_residual: float
    swapped_residual: float


def conjecture_evidence(jet):
    chi1, chi2 = jet.values
    (tr11, tr12), (_, tr22) = jet.hessian_products
    lhs = jet.sandwiches[1, 0, 0]
    printed = 0.25 * chi2 * tr12 + 0.25 * chi1 * tr22
    swapped = 0.25 * chi2 * tr11 + 0.25 * chi1 * tr12
    den = jet.sandwich_scale[1, 0, 0]
    return ConjectureEvidence(abs(lhs - printed) / den,
                              abs(lhs - swapped) / den)
