"""Level-set description of the top singular stratum in the (n+1) x n space.

A real (n+1) x n matrix A of rank n - 1 is cut out (near such a point) by
two determinant constraints,

    chi_1(A) = det(rows 1..n),
    chi_2(A) = (-1)^(n-1) * det(rows 2..n+1),

whose sign convention makes the shared cofactor identity
d chi_1 / d A_{1a} = d chi_2 / d A_{n+1,a} hold exactly everywhere.  The
matrix is flattened row-major, x_{a + (K-1) n} = A_{K a}, so gradients and
Hessians of the constraints are indexed by that same order.

Gradients are cofactor vectors and Hessian entries are determinants of the
constraint blocks with two rows replaced by coordinate rows; both are exact
multilinear-algebra evaluations (no differencing), and the Hessian diagonal
vanishes identically, which makes both constraints harmonic on the nose.

Minimality of the stratum is the statement tr(P d2chi_alpha) = 0 on the
variety, with P the orthoprojector onto the common tangent space of the two
level sets.  The module also exposes the curvature-free contraction
identities relating gradients and Hessians of the pair, the row-coefficient
conventions, the rank-one structure of cofactor matrices on the singular
locus, and an evidence-only probe of a conjectured mixed contraction
identity (it never gates a verdict; see :func:`conjecture_evidence`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ConventionFailure, InvalidChartPoint
from .linalg import (cofactors, gradient_projector, max_abs, projected_traces,
                     second_cofactors, svd_rank)
from .parametric import ChartPoint, chart_map


@dataclass(frozen=True)
class ConstraintValues:
    """Values, gradients and Hessians of the two constraints at a point.

    Gradients come as (n+1, n) arrays in matrix layout; Hessians as
    ((n+1)n, (n+1)n) in the flat row-major layout.
    """

    chi1: float
    chi2: float
    grad1: np.ndarray
    grad2: np.ndarray
    hess1: np.ndarray
    hess2: np.ndarray

    def grads_flat(self):
        return self.grad1.ravel(), self.grad2.ravel()


class ConstraintSystem:
    """The two determinant constraints for (n+1) x n matrices of rank n-1."""

    def __init__(self, n):
        if n < 2:
            raise ValueError("need n >= 2")
        self.n = n
        self.ambient_dim = (n + 1) * n
        self.sign2 = (-1.0) ** (n - 1)

    def _block(self, a, which):
        return a[:self.n, :] if which == 1 else a[1:, :]

    def values(self, a):
        a = np.asarray(a, dtype=float)
        return (float(np.linalg.det(self._block(a, 1))),
                self.sign2 * float(np.linalg.det(self._block(a, 2))))

    def values_generic(self, flat):
        """Constraint pair on a flat object array; dual-number oracle path."""
        a = np.asarray(flat, dtype=object).reshape(self.n + 1, self.n)
        return np.array([_det_generic(a[:self.n, :]),
                         self.sign2 * _det_generic(a[1:, :])], dtype=object)

    def gradients(self, a):
        """Cofactor gradients, each as an (n+1, n) array in matrix layout."""
        a = np.asarray(a, dtype=float)
        n = self.n
        out = []
        for row0, sign in ((0, 1.0), (1, self.sign2)):
            grad = np.zeros((n + 1, n))
            grad[row0:row0 + n, :] = sign * cofactors(a[row0:row0 + n])
            out.append(grad)
        return out[0], out[1]

    def hessians(self, a):
        """Flat Hessians; each nonzero entry is a two-row-replaced determinant."""
        a = np.asarray(a, dtype=float)
        n = self.n
        out = []
        for row0, sign in ((0, 1.0), (1, self.sign2)):
            c2 = second_cofactors(a[row0:row0 + n]).reshape(n * n, n * n)
            hess = np.zeros((self.ambient_dim, self.ambient_dim))
            block = slice(row0 * n, (row0 + n) * n)
            hess[block, block] = sign * c2
            out.append(hess)
        return out[0], out[1]

    def evaluate(self, a):
        chi1, chi2 = self.values(a)
        grad1, grad2 = self.gradients(a)
        hess1, hess2 = self.hessians(a)
        return ConstraintValues(chi1, chi2, grad1, grad2, hess1, hess2)


def _det_generic(m):
    """Determinant by cofactor expansion; works on object (dual) entries."""
    k = m.shape[0]
    if k == 1:
        return m[0, 0]
    total = 0.0
    sign = 1.0
    for j in range(k):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total = total + sign * m[0, j] * _det_generic(minor)
        sign = -sign
    return total


def sample_on_variety(n, rng, tol=1e-12, max_tries=100):
    """Rank-(n-1) point via the chart embedding, rescaled to unit norm.

    The constructed matrix is verified on-variety (both constraint values
    below ``tol`` after normalisation) rather than projected there, and its
    first and last rows are kept away from zero so the row-coefficient
    conventions are realisable.
    """
    system = ConstraintSystem(n)
    for _ in range(max_tries):
        cp = ChartPoint(rng.normal(size=(n + 1, n - 1)),
                        rng.uniform(-2.0, 2.0, size=(n - 1, 1)))
        a = chart_map(cp)
        a = a / np.linalg.norm(a)
        chi1, chi2 = system.values(a)
        rows_ok = (np.linalg.norm(a[0]) > 0.05 and np.linalg.norm(a[-1]) > 0.05)
        middle = a[1:n, :]
        if (abs(chi1) <= tol and abs(chi2) <= tol and rows_ok
                and svd_rank(middle).rank == n - 1):
            return a
    raise InvalidChartPoint(f"no admissible on-variety point for n={n} "
                            f"after {max_tries} draws")


@dataclass(frozen=True)
class GramProjector:
    """Orthoprojector onto the intersection of the two tangent hyperplanes."""

    projector: np.ndarray
    gram: np.ndarray
    rank: int


def tangent_projector(cv):
    """P = I - grad_alpha (M^{-1})^{alpha beta} grad_beta at an on-variety point.

    ``cv`` holds the constraint values there.
    """
    p, gram = gradient_projector(np.stack(cv.grads_flat()))
    # for an idempotent matrix the eigenvalues cluster at 0 and 1, so the
    # robust rank is the count above 1/2; a raw singular-value cutoff can
    # miscount when the Gram solve leaves noise above machine precision
    rank = int((np.linalg.eigvalsh(p) > 0.5).sum())
    return GramProjector(p, gram, rank)


def levelset_mean_curvature(cv, proj):
    """Minimality residuals of both constraints at an on-variety point.

    ``proj`` is the :func:`tangent_projector` built from the same ``cv``.
    """
    return projected_traces(proj.projector, (cv.hess1, cv.hess2))


@dataclass(frozen=True)
class IdentityReport:
    """Relative residuals of the gradient/Hessian contraction identities.

    ``square`` and ``mixed`` hold at *every* ambient point; ``contractions``
    (all eight grad/Hess/grad sandwiches) and ``four_term`` (the symmetrised
    four-term contraction) vanish only on the variety.  ``harmonicity`` is
    exact by construction and reported as the literal trace.
    """

    square: np.ndarray
    mixed: np.ndarray
    contractions: np.ndarray
    four_term: np.ndarray
    harmonicity: np.ndarray


def identity_suite(cv, on_variety=True):
    n = cv.grad1.shape[1]
    g = cv.grads_flat()
    h = (cv.hess1, cv.hess2)
    chi = (cv.chi1, cv.chi2)
    gnorm = [np.linalg.norm(v) for v in g]
    hnorm = [np.linalg.norm(m) for m in h]

    def rel(err, *idx):
        den = 1.0
        for kind, k in idx:
            den *= gnorm[k] if kind == "g" else hnorm[k]
        return abs(err) / max(1.0, den)

    square = np.array([
        rel(g[k] @ h[k] @ g[k] - 0.5 * chi[k] * (h[k] * h[k]).sum(),
            ("g", k), ("h", k), ("g", k))
        for k in range(2)])
    tr12 = (h[0] * h[1]).sum()
    mixed = np.array([
        rel(g[1] @ h[0] @ g[1] - 0.5 * tr12 * chi[1], ("g", 1), ("h", 0), ("g", 1)),
        rel(g[0] @ h[1] @ g[0] - 0.5 * tr12 * chi[0], ("g", 0), ("h", 1), ("g", 0)),
    ])

    contractions = np.full(8, np.nan)
    four_term = np.full(8, np.nan)
    if on_variety:
        hess4 = [m.reshape(n + 1, n, n + 1, n) for m in h]
        gmat = [v.reshape(n + 1, n) for v in g]
        for idx, (al, be, ga) in enumerate(product(range(2), repeat=3)):
            contractions[idx] = rel(g[al] @ h[be] @ g[ga],
                                    ("g", al), ("h", be), ("g", ga))
            t1 = np.einsum("likj,li,kj->", hess4[be], gmat[al], gmat[ga])
            t2 = np.einsum("likj,kj,li->", hess4[be], gmat[al], gmat[ga])
            t3 = np.einsum("likj,lj,ki->", hess4[be], gmat[al], gmat[ga])
            t4 = np.einsum("likj,ki,lj->", hess4[be], gmat[al], gmat[ga])
            four_term[idx] = rel(t1 + t2 - t3 - t4,
                                 ("g", al), ("h", be), ("g", ga))

    harmonicity = np.array([float(np.trace(h[0])), float(np.trace(h[1]))])
    return IdentityReport(square, mixed, contractions, four_term, harmonicity)


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


def row_coefficients(a, tol=1e-9):
    a = np.asarray(a, dtype=float)
    n = a.shape[1]
    middle = a[1:n, :]
    if svd_rank(middle).rank != n - 1:
        raise ConventionFailure("middle rows do not span the row space")
    scale = max(1.0, np.linalg.norm(a))
    sol_first, *_ = np.linalg.lstsq(middle.T, a[0], rcond=None)
    sol_last, *_ = np.linalg.lstsq(middle.T, a[n], rcond=None)
    lam = np.concatenate([[-1.0], sol_first, [0.0]])
    mu = np.concatenate([[0.0], sol_last, [-1.0]])
    res = np.array([np.linalg.norm(lam @ a), np.linalg.norm(mu @ a)]) / scale
    if res.max() > tol:
        raise ConventionFailure(
            f"row-coefficient residuals {res} exceed {tol:.1e}")
    return RowCoefficients(lam, mu, res)


def gradient_proportionality(cv, coeffs):
    """Relative residuals of the gradient row structure.

    Checks, entrywise: grad chi_1 row K = -lam_K * (row 1 of grad chi_1),
    grad chi_2 row K = -mu_K * (last row of grad chi_2), and the exact
    shared-cofactor equality of those two reference rows.  ``coeffs`` are
    the :func:`row_coefficients` of the point ``cv`` was evaluated at.
    """
    g1, g2 = cv.grad1, cv.grad2
    scale = max(1.0, max_abs(g1), max_abs(g2))
    res1 = max_abs(g1 + np.outer(coeffs.lam, g1[0]))
    res2 = max_abs(g2 + np.outer(coeffs.mu, g2[-1]))
    shared = max_abs(g1[0] - g2[-1])
    return {"first_constraint": res1 / scale,
            "second_constraint": res2 / scale,
            "shared_cofactor": shared / scale}


@dataclass(frozen=True)
class MinorInverses:
    """Padded inverses of the two n x n constraint blocks.

    ``m1`` is inv(rows 1..n) padded with a zero column for row n+1, ``m2``
    inv(rows 2..n+1) padded with a zero column for row 1; both have shape
    (n, n+1) and satisfy grad chi_alpha[K, i] = chi_alpha * m_alpha[i, K]
    away from the singular locus.
    """

    m1: np.ndarray
    m2: np.ndarray


def minor_inverses(a):
    a = np.asarray(a, dtype=float)
    n = a.shape[1]
    m1 = np.zeros((n, n + 1))
    m2 = np.zeros((n, n + 1))
    m1[:, :n] = np.linalg.inv(a[:n, :])
    m2[:, 1:] = np.linalg.inv(a[1:, :])
    return MinorInverses(m1, m2)


def logarithmic_gradient_residual(a, cv):
    """max | grad chi_alpha - chi_alpha * padded-inverse | relative, both alpha.

    ``cv`` holds the constraint values of ``a``.
    """
    g1, g2 = cv.grad1, cv.grad2
    mi = minor_inverses(a)
    r1 = max_abs(g1 - cv.chi1 * mi.m1.T)
    r2 = max_abs(g2 - cv.chi2 * mi.m2.T)
    return max(r1, r2) / max(1.0, max_abs(g1), max_abs(g2))


@dataclass(frozen=True)
class RankOneReport:
    """Cofactor-matrix degeneracy on the singular locus of square matrices."""

    singular_values: np.ndarray
    sigma_ratio: float
    factor_residual: float


def gradient_rank_one(m, tol_pivot=1e-8):
    """Rank-one structure of the cofactor matrix of a singular square matrix.

    cof[i, j] = d det / d m_{ij} as a matrix has rank one on det = 0; with
    row coefficients lam (lam_1 = -1) and column coefficients rho (rho_1 =
    -1) it factors as cof[i, j] = lam_i rho_j cof[0, 0].  Requires the
    leading cofactor to be usable as a pivot.
    """
    m = np.asarray(m, dtype=float)
    k = m.shape[0]
    if m.shape != (k, k):
        raise ValueError("square matrix required")
    cof = cofactors(m)
    s = np.linalg.svd(cof, compute_uv=False)
    ratio = float(s[1] / s[0]) if s[0] > 0 else 0.0

    scale = max(1.0, max_abs(cof))
    if abs(cof[0, 0]) < tol_pivot * scale:
        raise ConventionFailure("leading cofactor too small to factor through")
    rows = m[1:, :]
    cols = m[:, 1:]
    lam = np.concatenate([[-1.0], np.linalg.lstsq(rows.T, m[0], rcond=None)[0]])
    rho = np.concatenate([[-1.0], np.linalg.lstsq(cols, m[:, 0], rcond=None)[0]])
    predicted = np.outer(lam, rho) * cof[0, 0]
    factor_residual = max_abs(cof - predicted) / scale
    return RankOneReport(s, ratio, factor_residual)


def sample_singular_matrix(n, rng, max_tries=100):
    """Unit-norm n x n matrix of rank exactly n-1 with a usable leading pivot."""
    for _ in range(max_tries):
        m = rng.normal(size=(n, n - 1)) @ rng.normal(size=(n - 1, n))
        m /= np.linalg.norm(m)
        if svd_rank(m).rank != n - 1:
            continue
        if svd_rank(m[1:, :]).rank == n - 1 and svd_rank(m[:, 1:]).rank == n - 1:
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

    lhs: float
    printed_rhs: float
    swapped_rhs: float
    printed_residual: float
    swapped_residual: float


def conjecture_evidence(cv):
    g1, g2 = cv.grads_flat()
    h1, h2 = cv.hess1, cv.hess2
    lhs = float(g2 @ h1 @ g1)
    tr11 = float((h1 * h1).sum())
    tr12 = float((h1 * h2).sum())
    tr22 = float((h2 * h2).sum())
    printed = 0.25 * cv.chi2 * tr12 + 0.25 * cv.chi1 * tr22
    swapped = 0.25 * cv.chi2 * tr11 + 0.25 * cv.chi1 * tr12
    den = max(1.0, np.linalg.norm(g1) * np.linalg.norm(g2) * np.linalg.norm(h1))
    return ConjectureEvidence(lhs, printed, swapped,
                              abs(lhs - printed) / den,
                              abs(lhs - swapped) / den)
