"""Rank strata in indefinite matrix geometries.

The pairing (A, B) = tr(zeta A^T eta B) on p x q matrices, with eta and
zeta diagonal sign forms, bends the euclidean picture in a controlled
way.  The flat-coordinate Gram matrix is the Kronecker product of the two
sign diagonals, so the ambient signature is a counting exercise.  Strata
acquire genuinely degenerate loci: for the rank-1 chart (a, lam a) of
2 x 2 matrices with zeta = diag(1, -1) the induced Gram determinant is
a^T a (lam^2 - 1), which crosses zero on the lam^2 = 1 cone.  The good
open pieces are carved out by demanding that the column space be
eta-nondegenerate and the row space zeta-nondegenerate; there a
form-compatible reflection through the column space reverses every normal
direction and minimality survives verbatim.

Closed-form signature counts are kept in competing readings (the crossed
vs paired ambient count, and the duplicated vs symmetric induced count)
and adjudicated against brute-force eigenvalue counts, so any discrepancy
is part of the verified record rather than silently patched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetric, InvalidChartPoint
from .linalg import max_abs, stratum_bases, svd_rank
from .parametric import (ChartPoint, chart_jacobian, chart_map,
                         chart_second_derivatives, sample_chart_point)

INERTIA_BAND = 1e-10


@dataclass(frozen=True)
class IndefiniteForm:
    """Diagonal +-1 form; order of signs is part of the convention."""

    signs: np.ndarray

    def __post_init__(self):
        signs = np.asarray(self.signs, dtype=float)
        object.__setattr__(self, "signs", signs)
        if signs.ndim != 1 or not np.all(np.abs(signs) == 1.0):
            raise ValueError("signs must be a vector of +-1")

    @classmethod
    def from_string(cls, text):
        """Parse "++-" style sign patterns."""
        table = {"+": 1.0, "-": -1.0}
        try:
            return cls(np.array([table[c] for c in text.strip()]))
        except KeyError:
            raise ValueError(f"bad sign pattern {text!r}") from None

    @classmethod
    def from_counts(cls, n_plus, n_minus):
        return cls(np.concatenate([np.ones(n_plus), -np.ones(n_minus)]))

    @property
    def dim(self):
        return self.signs.shape[0]

    @property
    def n_plus(self):
        return int((self.signs > 0).sum())

    @property
    def n_minus(self):
        return int((self.signs < 0).sum())

    @property
    def matrix(self):
        return np.diag(self.signs)

    def is_definite(self):
        return self.n_minus == 0 or self.n_plus == 0

    def __str__(self):
        return "".join("+" if s > 0 else "-" for s in self.signs)


def ambient_gram(eta, zeta):
    """Gram diagonal of tr(zeta A^T eta B) in row-major flat coordinates."""
    return np.kron(eta.signs, zeta.signs)


def inertia(eigenvalues):
    """(n_plus, n_minus, n_zero) with the relative zero band INERTIA_BAND."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    tol = INERTIA_BAND * max(1.0, max_abs(eigenvalues))
    n_pos = int((eigenvalues > tol).sum())
    n_neg = int((eigenvalues < -tol).sum())
    return n_pos, n_neg, eigenvalues.shape[0] - n_pos - n_neg


def signature_adjudication(eta, zeta):
    """Eigenvalue count of the ambient form vs the two closed-form readings.

    The paired count (p1 q1 + p2 q2 positives) matches the Kronecker
    diagonal; the crossed count (p1 p2 + q1 q2 positives) does not even
    conserve the total dimension for eta = ++, zeta = +-.
    """
    p1, p2 = eta.n_plus, eta.n_minus
    q1, q2 = zeta.n_plus, zeta.n_minus
    diag = ambient_gram(eta, zeta)
    eigen = (int((diag > 0).sum()), int((diag < 0).sum()))
    paired = (p1 * q1 + p2 * q2, p1 * q2 + p2 * q1)
    crossed = (p1 * p2 + q1 * q2, p1 * q2 + p2 * q1)
    return {
        "eigen": eigen,
        "paired": paired,
        "crossed": crossed,
        "paired_ok": paired == eigen,
        "crossed_ok": crossed == eigen,
    }


# ---------------------------------------------------------------------------
# induced metric on a chart


def _check_shapes(cp, eta, zeta):
    if eta.dim != cp.p or zeta.dim != cp.q:
        raise ValueError("form dimensions must match the chart ambient")


def induced_gram(cp, eta, zeta):
    """G-hat = J^T K J for the rank-r chart in the indefinite ambient."""
    _check_shapes(cp, eta, zeta)
    jac = chart_jacobian(cp)
    return jac.T @ (ambient_gram(eta, zeta)[:, None] * jac)


@dataclass(frozen=True)
class DegeneracyReport:
    gram: np.ndarray
    determinant: float
    signature: tuple

    @property
    def degenerate(self):
        return self.signature[2] > 0


def degeneracy_scan(cp, eta, zeta):
    gram = induced_gram(cp, eta, zeta)
    eig = np.linalg.eigvalsh(gram)
    det = float(np.prod(eig)) if eig.size else 1.0
    return DegeneracyReport(gram, det, inertia(eig))


def hyperbolic_det_residual(a, lam):
    """|det G-hat - a^T a (lam^2 - 1)| for the 2 x 2 rank-1 chart.

    The closed form is specific to eta = I, zeta = diag(1, -1); its zero
    set is the degenerate cone lam^2 = 1 inside the stratum.
    """
    a = np.asarray(a, dtype=float).reshape(2, 1)
    cp = ChartPoint(a, np.array([[float(lam)]]))
    eta = IndefiniteForm.from_counts(2, 0)
    zeta = IndefiniteForm.from_string("+-")
    det = np.linalg.det(induced_gram(cp, eta, zeta))
    expected = float((a * a).sum()) * (float(lam) ** 2 - 1.0)
    return abs(det - expected) / max(1.0, abs(expected))


# ---------------------------------------------------------------------------
# the nondegenerate open piece


def restricted_signature(subspace_basis, form):
    """Signature of the form restricted to the span of the given columns."""
    gram = subspace_basis.T @ (form.signs[:, None] * subspace_basis)
    return inertia(np.linalg.eigvalsh(gram))


def zprime_membership(x, eta, zeta, r=None):
    """Restricted signatures of column and row space of a rank-r matrix.

    Membership in the open piece requires both restrictions to be
    nondegenerate; the returned signatures identify which piece.
    """
    x = np.asarray(x, dtype=float)
    rank = svd_rank(x)
    if r is not None and rank.rank != r:
        raise InvalidChartPoint(f"rank {rank.rank}, expected {r}")
    r = rank.rank
    u, _, vt = np.linalg.svd(x)
    col = restricted_signature(u[:, :r], eta)
    row = restricted_signature(vt[:r, :].T, zeta)
    return {
        "column_signature": col,
        "row_signature": row,
        "member": col[2] == 0 and row[2] == 0,
    }


def induced_signature_readings(col_signature, row_signature, eta, zeta):
    """The two closed-form candidates for the induced stratum signature.

    Arguments are the restricted signatures (pt1, pt2) of the column space
    and (qt1, qt2) of the row space.  The symmetric reading completes the
    positive count with pt1 q1 + pt2 q2; the duplicated reading repeats
    pt1 q1 instead and in general does not even total the stratum
    dimension.
    """
    pt1, pt2 = col_signature[0], col_signature[1]
    qt1, qt2 = row_signature[0], row_signature[1]
    p1, p2 = eta.n_plus, eta.n_minus
    q1, q2 = zeta.n_plus, zeta.n_minus
    neg = (-pt1 * qt2 - pt2 * qt1
           + p1 * qt2 + p2 * qt1 + pt1 * q2 + pt2 * q1)
    pos_common = -pt1 * qt1 - pt2 * qt2 + p1 * qt1 + p2 * qt2 + pt1 * q1
    return {
        "symmetric": (pos_common + pt2 * q2, neg),
        "duplicated": (pos_common + pt1 * q1, neg),
    }


def induced_signature_check(cp, eta, zeta):
    """Eigenvalue inertia of G-hat vs both closed-form readings."""
    report = degeneracy_scan(cp, eta, zeta)
    if report.degenerate:
        raise DegenerateMetric("induced metric is degenerate at this point")
    membership = zprime_membership(chart_map(cp), eta, zeta, r=cp.r)
    if not membership["member"]:
        raise DegenerateMetric("column or row space restriction degenerate")
    readings = induced_signature_readings(
        membership["column_signature"], membership["row_signature"],
        eta, zeta)
    observed = report.signature[:2]
    return {
        "observed": observed,
        "symmetric": readings["symmetric"],
        "duplicated": readings["duplicated"],
        "symmetric_ok": readings["symmetric"] == observed,
        "duplicated_ok": readings["duplicated"] == observed,
        "column_signature": membership["column_signature"],
        "row_signature": membership["row_signature"],
    }


def sample_pseudo_point(p, q, r, eta, zeta, rng, cond_limit=1e6,
                        max_tries=200):
    """Chart point whose induced indefinite metric is safely nondegenerate."""
    for _ in range(max_tries):
        cp = sample_chart_point(p, q, r, rng)
        gram = induced_gram(cp, eta, zeta)
        eig = np.linalg.eigvalsh(gram)
        if eig.size == 0:
            return cp
        if inertia(eig)[2] > 0:
            continue
        small, big = np.abs(eig).min(), np.abs(eig).max()
        if big / small <= cond_limit:
            return cp
    raise InvalidChartPoint(
        f"no nondegenerate point found for ({p}, {q}, {r}) "
        f"with eta={eta}, zeta={zeta}")


# ---------------------------------------------------------------------------
# minimality in the indefinite ambient


@dataclass(frozen=True)
class PseudoMinimality:
    """Normal part of the inverse-metric trace of second derivatives.

    ``normal_flat`` is (I - Pi) T where Pi = J Ghat^-1 J^T K is the
    K-orthogonal projector onto the tangent space and T is the flat
    contraction Ghat^{mu nu} d2 X / (du^mu du^nu).  Minimality is the
    statement that T is tangent, i.e. the normal part vanishes.
    """

    normal_flat: np.ndarray
    trace_flat: np.ndarray
    projector_residual: float
    signature: tuple
    metric_scale: float

    @property
    def max_component(self):
        return max_abs(self.normal_flat)

    def verdict(self, tol=1e-9):
        return self.max_component <= tol * self.metric_scale


def pseudo_minimality(cp, eta, zeta):
    _check_shapes(cp, eta, zeta)
    kdiag = ambient_gram(eta, zeta)
    jac = chart_jacobian(cp)
    gram = jac.T @ (kdiag[:, None] * jac)
    eig = np.linalg.eigvalsh(gram)
    sig = inertia(eig)
    if sig[2] > 0:
        raise DegenerateMetric("degenerate induced metric; no projector")
    ginv = np.linalg.inv(gram)
    trace = np.einsum("fab,ab->f", chart_second_derivatives(cp), ginv)
    tangent_part = jac @ (ginv @ (jac.T @ (kdiag * trace)))
    normal = trace - tangent_part
    # Pi must be idempotent; feeds the report as a conditioning witness
    pi_j = jac @ (ginv @ (jac.T @ (kdiag[:, None] * jac)))
    proj_residual = max_abs(pi_j - jac) / max(1.0, max_abs(jac))
    scale = max(1.0, max_abs(ginv))
    return PseudoMinimality(normal, trace, proj_residual, sig, scale)


# ---------------------------------------------------------------------------
# form-compatible reflection


def form_normal_basis(x, eta, zeta):
    """Orthonormal basis of the K-orthocomplement of the tangent space at x.

    K = kron(eta, zeta) is a +-1 diagonal, so K maps the euclidean normal
    space onto the K-orthocomplement and keeps the basis orthonormal.
    """
    return ambient_gram(eta, zeta)[:, None] * stratum_bases(x)[1]


@dataclass(frozen=True)
class FormReflection:
    matrix: np.ndarray

    def invariant_residuals(self, x, eta):
        b, k = self.matrix, eta.matrix
        return {
            "isometry": max_abs(b.T @ k @ b - k),
            "involution": max_abs(b @ b - np.eye(b.shape[0])),
            "fixes_point": max_abs(b @ x - x) / max(1.0, max_abs(x)),
        }


def form_reflection(x, eta, r=None):
    """B = 2 P_V - I with P_V the eta-orthogonal projection onto col(x).

    Requires the restriction of eta to the column space to be
    nondegenerate, otherwise the eta-complement fails to be a complement
    and no such reflection exists (raises :class:`DegenerateMetric`).
    """
    x = np.asarray(x, dtype=float)
    rank = svd_rank(x)
    if r is not None and rank.rank != r:
        raise InvalidChartPoint(f"rank {rank.rank}, expected {r}")
    basis = rank.range_basis
    gram = basis.T @ (eta.signs[:, None] * basis)
    eig = np.linalg.eigvalsh(gram) if gram.size else np.array([])
    if gram.size and inertia(eig)[2] > 0:
        raise DegenerateMetric("eta restricted to the column space "
                               "is degenerate; no reflection")
    if gram.size:
        proj = basis @ np.linalg.solve(gram, basis.T * eta.signs[None, :])
    else:
        proj = np.zeros((x.shape[0], x.shape[0]))
    return FormReflection(2.0 * proj - np.eye(x.shape[0]))


def normal_reversal(x, eta, zeta, refl):
    """Worst norm of B W + W over an orthonormal basis of form-normals at x.

    ``refl`` is the :func:`form_reflection` of ``x``.
    """
    kernel = form_normal_basis(x, eta, zeta)
    p, q = np.asarray(x).shape
    worst = 0.0
    for k in range(kernel.shape[1]):
        w = kernel[:, k].reshape(p, q)
        worst = max(worst, float(np.linalg.norm(refl.matrix @ w + w)))
    return worst
