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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateMetric, InvalidChartPoint
from .linalg import (COND_LIMIT, column_reflection, inertia, max_abs,
                     reversal, stratum_bases)
from .parametric import (MAX_DRAWS, ChartPoint, chart_second_derivatives,
                         sample_chart_point)


@dataclass(frozen=True)
class IndefiniteForm:
    """Diagonal +-1 form; order of signs is part of the convention."""

    signs: np.ndarray

    def __post_init__(self):
        # a read-only copy, so the cached pattern and counts cannot go stale
        signs = np.array(self.signs, dtype=float)
        signs.setflags(write=False)
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

    @cached_property
    def n_plus(self):
        return int((self.signs > 0).sum())

    @cached_property
    def n_minus(self):
        return int((self.signs < 0).sum())

    def is_definite(self):
        return self.n_minus == 0 or self.n_plus == 0

    @cached_property
    def _pattern(self):
        return "".join("+" if s > 0 else "-" for s in self.signs)

    def __str__(self):
        return self._pattern


def ambient_gram(eta, zeta):
    """Gram diagonal of tr(zeta A^T eta B) in row-major flat coordinates."""
    return np.outer(eta.signs, zeta.signs).ravel()


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
    return degeneracy_scan(cp, eta, zeta).gram


@dataclass(frozen=True)
class DegeneracyReport:
    """G-hat = J^T K J at one chart point with its spectrum.

    ``kdiag`` is the ambient Gram diagonal K; ``eigenvalues`` are those of
    G-hat, whose inertia is ``signature``.
    """

    kdiag: np.ndarray
    gram: np.ndarray
    eigenvalues: np.ndarray
    determinant: float
    signature: tuple

    @property
    def degenerate(self):
        return self.signature[2] > 0


def degeneracy_scan(cp, eta, zeta):
    """K, G-hat and its eigenvalues at ``cp``, once per form pair.

    The report is kept in the chart point's memo, so the sampler's
    acceptance test, the minimality trace and the signature check all read
    the one G-hat the sampler accepted.
    """
    key = ("pseudo.degeneracy_scan", str(eta), str(zeta))
    report = cp.memo.get(key)
    if report is None:
        _check_shapes(cp, eta, zeta)
        kdiag = ambient_gram(eta, zeta)
        jac = cp.jacobian
        gram = jac.T @ (kdiag[:, None] * jac)
        gram.setflags(write=False)
        eig = np.linalg.eigvalsh(gram)
        det = float(np.prod(eig)) if eig.size else 1.0
        report = cp.memo[key] = DegeneracyReport(kdiag, gram, eig, det,
                                                 inertia(eig))
    return report


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


def zprime_membership(x_rank, eta, zeta):
    """Restricted signatures of column and row space of a matrix.

    ``x_rank`` is the matrix's :func:`~detmin.linalg.svd_rank` result (or
    :func:`~detmin.linalg.declared_rank`, to pin the stratum).  Membership
    in the open piece requires both restrictions to be nondegenerate; the
    returned signatures identify which piece.
    """
    col = restricted_signature(x_rank.range_basis, eta)
    row = restricted_signature(x_rank.row_basis, zeta)
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
    membership = zprime_membership(cp.x_rank, eta, zeta)
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


def sample_pseudo_point(p, q, r, eta, zeta, rng):
    """Chart point whose induced indefinite metric is safely nondegenerate.

    G-hat must have no null eigenvalue and an eigenvalue-modulus ratio of
    at most COND_LIMIT, since the minimality trace inverts it.
    """
    for _ in range(MAX_DRAWS):
        cp = sample_chart_point(p, q, r, rng)
        report = degeneracy_scan(cp, eta, zeta)
        eig = report.eigenvalues
        if eig.size == 0:
            return cp
        if report.degenerate:
            continue
        small, big = np.abs(eig).min(), np.abs(eig).max()
        if big / small <= COND_LIMIT:
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

    ``projector_residual`` is computed on first read, from J, Ghat^-1 and
    Ghat kept in hidden fields: no check reads it.
    """

    normal_flat: np.ndarray
    trace_flat: np.ndarray
    signature: tuple
    metric_scale: float
    _jacobian: np.ndarray = field(repr=False, compare=False)
    _ginv: np.ndarray = field(repr=False, compare=False)
    _gram: np.ndarray = field(repr=False, compare=False)

    @property
    def max_component(self):
        return max_abs(self.normal_flat)

    @cached_property
    def projector_residual(self):
        """Idempotence of Pi: ||Pi J - J||max, relative to J."""
        jac = self._jacobian
        pi_j = jac @ (self._ginv @ self._gram)
        return max_abs(pi_j - jac) / max(1.0, max_abs(jac))


def pseudo_minimality(cp, eta, zeta):
    report = degeneracy_scan(cp, eta, zeta)
    if report.degenerate:
        raise DegenerateMetric("degenerate induced metric; no projector")
    kdiag, sig, jac = report.kdiag, report.signature, cp.jacobian
    # pseudo inverts its own G-hat, so the euclidean reduction compares two
    # independent inverses of the same metric
    ginv = np.linalg.inv(report.gram)
    trace = np.einsum("fab,ab->f", chart_second_derivatives(cp), ginv)
    tangent_part = jac @ (ginv @ (jac.T @ (kdiag * trace)))
    normal = trace - tangent_part
    scale = max(1.0, max_abs(ginv))
    return PseudoMinimality(normal, trace, sig, scale, jac, ginv, report.gram)


# ---------------------------------------------------------------------------
# form-compatible reflection


def form_normal_basis(x, r, eta, zeta):
    """Orthonormal basis of the K-orthocomplement of the tangent space at x.

    K = kron(eta, zeta) is a +-1 diagonal, so K maps the euclidean normal
    space onto the K-orthocomplement and keeps the basis orthonormal.  ``r``
    declares the stratum; see :func:`~detmin.linalg.stratum_bases`.
    """
    return ambient_gram(eta, zeta)[:, None] * stratum_bases(x, r)[1]


def form_reflection(x_rank, eta):
    """B = 2 P_V - I with P_V the eta-orthogonal projection onto col(x).

    ``x_rank`` is the :func:`~detmin.linalg.svd_rank` (or
    :func:`~detmin.linalg.declared_rank`) result of x; see
    :func:`~detmin.linalg.column_reflection`, which raises
    :class:`DegenerateMetric` when eta is (nearly) degenerate on the column
    space.
    """
    return column_reflection(x_rank, eta.signs)


def normal_reversal(x, r, eta, zeta, b):
    """Worst norm of B W + W over an orthonormal basis of form-normals at x.

    ``b`` is the :func:`form_reflection` of ``x``.
    """
    return reversal(b, form_normal_basis(x, r, eta, zeta),
                    np.asarray(x).shape)
