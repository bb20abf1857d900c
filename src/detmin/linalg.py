"""Shared numerical substrate: rank decisions, block inversion, cofactor
determinants, constraint projectors, stratum tangent/normal bases, seeded
RNG.

Every pipeline routes its rank questions through :func:`svd_rank` so that a
single tolerance policy governs the whole package, and its partitioned
inversions through :func:`block_inverse` so that condition-number guards are
applied uniformly.  Cofactors and the codimension-k trace tr(P d2 chi) live
here as substrate only; each pipeline keeps its own closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetric, SingularGram

# Multiplier on the usual sigma_max * max(shape) * eps rank threshold.
RANK_TOL_FACTOR = 4.0

# Condition-number guard applied before any block inversion.  Beyond this
# the point is treated as near-boundary and reported, not inverted.
COND_LIMIT = 1e6

# Condition-number guard on the Gram matrix of constraint gradients, and
# the floor under its largest diagonal entry below which the gradients
# count as collapsed.
GRAM_COND_LIMIT = 1e8
GRAM_SCALE_FLOOR = 1e-16


def make_rng(seed):
    """Seeded generator on the Philox counter-based bit stream.

    Philox is counter-based, so a given seed reproduces the same stream on
    every platform and process layout; reports quote the seed and are then
    reproducible byte for byte.
    """
    return np.random.Generator(np.random.Philox(seed))


def derived_rng(seed, *context):
    """Independent substream keyed by (seed, context ints).

    Sweeps give every parameter cell its own stream so that records do not
    depend on cell execution order and partial runs reproduce exactly.
    """
    entropy = [abs(int(seed))] + [abs(int(c)) for c in context]
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy)))


def require_finite(m, name="matrix"):
    """Reject NaN/inf input with a diagnostic instead of letting LAPACK fail."""
    m = np.asarray(m, dtype=float)
    bad = ~np.isfinite(m)
    if bad.any():
        raise ValueError(f"{name} has {int(bad.sum())} non-finite entries "
                         f"at positions {np.argwhere(bad)[:4].tolist()}...")
    return m


@dataclass(frozen=True)
class RankResult:
    """Numerical rank together with the evidence for it.

    ``range_basis`` holds ``rank`` orthonormal columns spanning the input's
    column space; ``kernel_basis`` holds orthonormal columns spanning the
    kernel of the transpose of the input, i.e. the orthogonal complement of
    that column space.  Together they fill the row count.
    """

    rank: int
    singular_values: np.ndarray
    range_basis: np.ndarray
    kernel_basis: np.ndarray
    tolerance: float


def svd_rank(m, tol_factor=RANK_TOL_FACTOR):
    """Rank decision via singular values, with an explicit tolerance policy.

    The threshold is ``sigma_max * max(m.shape) * eps * tol_factor``; the
    range and kernel bases are the left singular vectors up to and beyond
    the rank.
    """
    m = require_finite(m, "svd_rank input")
    rows = m.shape[0]
    if m.size == 0:
        return RankResult(0, np.zeros(0), np.zeros((rows, 0)), np.eye(rows),
                          0.0)
    u, s, _ = np.linalg.svd(m, full_matrices=True)
    tol = s[0] * max(m.shape) * np.finfo(float).eps * tol_factor
    rank = int((s > tol).sum())
    return RankResult(rank, s, u[:, :rank], u[:, rank:], tol)


def stratum_bases(x):
    """Orthonormal tangent and normal bases of the rank stratum at ``x``.

    The stratum through a p x q matrix X is the orbit of X under
    X -> g X h^-1, so its tangent space is {A X + X B} (Vandereycken, SIAM
    J. Optim. 2013).  In row-major flat coordinates the generators
    A = E_ij and B = E_ij are the columns of kron(I_p, X^T) and
    kron(X, I_q); one rank decision on them splits the ambient space into
    the tangent span and its orthocomplement.  Returns (tangent, normal)
    as column matrices with r(p + q - r) and (p - r)(q - r) columns.
    """
    x = np.asarray(x, dtype=float)
    p, q = x.shape
    gens = np.hstack([np.kron(np.eye(p), x.T), np.kron(x, np.eye(q))])
    rank = svd_rank(gens)
    return rank.range_basis, rank.kernel_basis


def spectral_cond(m):
    """2-norm condition number; empty matrices count as perfectly conditioned."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return 1.0
    s = np.linalg.svd(m, compute_uv=False)
    if s[-1] == 0.0:
        return np.inf
    return float(s[0] / s[-1])


@dataclass(frozen=True)
class BlockInverse:
    """Inverse of ``[[G, B], [B^T, D]]`` by one Schur elimination.

    Both pivots yield the same ``full`` matrix in exact arithmetic; keeping
    the routes separate lets callers cross-check them.
    """

    full: np.ndarray
    pivot: str
    cond_g: float
    cond_d: float


def block_inverse(g, b, d, pivot="leading"):
    """Invert a symmetric 2x2 block matrix by Schur complement.

    ``pivot="leading"`` eliminates through ``G`` first, ``pivot="trailing"``
    through ``D``.  Raises :class:`DegenerateMetric` when the pivot block's
    or the Schur complement's condition number exceeds ``COND_LIMIT``.
    """
    g = require_finite(g, "G block")
    d = require_finite(d, "D block")
    b = np.asarray(b, dtype=float)
    ng, nd = g.shape[0], d.shape[0]
    if b.shape != (ng, nd):
        raise ValueError(f"off-diagonal block has shape {b.shape}, expected {(ng, nd)}")
    cond_g, cond_d = spectral_cond(g), spectral_cond(d)
    if pivot not in ("leading", "trailing"):
        raise ValueError(f"unknown pivot {pivot!r}")
    primary = cond_g if pivot == "leading" else cond_d
    if primary > COND_LIMIT:
        raise DegenerateMetric(
            f"{pivot} pivot block condition {primary:.3e} exceeds {COND_LIMIT:.1e} "
            f"(cond G = {cond_g:.3e}, cond D = {cond_d:.3e})")

    if ng == 0 and nd == 0:
        return BlockInverse(np.zeros((0, 0)), pivot, cond_g, cond_d)
    if nd == 0:
        return BlockInverse(np.linalg.inv(g), pivot, cond_g, cond_d)
    if ng == 0:
        return BlockInverse(np.linalg.inv(d), pivot, cond_g, cond_d)

    if pivot == "leading":
        gi_b = np.linalg.solve(g, b)
        schur = d - b.T @ gi_b
        if spectral_cond(schur) > COND_LIMIT:
            raise DegenerateMetric(
                f"Schur complement condition {spectral_cond(schur):.3e} "
                f"exceeds {COND_LIMIT:.1e}")
        rho = np.linalg.inv(schur)
        gi = np.linalg.inv(g)
        top_left = gi + gi_b @ rho @ gi_b.T
        top_right = -gi_b @ rho
        full = np.block([[top_left, top_right], [top_right.T, rho]])
        return BlockInverse(full, pivot, cond_g, cond_d)

    di_bt = np.linalg.solve(d, b.T)
    schur = g - b @ di_bt
    if spectral_cond(schur) > COND_LIMIT:
        raise DegenerateMetric(
            f"Schur complement condition {spectral_cond(schur):.3e} "
            f"exceeds {COND_LIMIT:.1e}")
    gp_inv = np.linalg.inv(schur)
    di = np.linalg.inv(d)
    top_right = -gp_inv @ di_bt.T
    bottom_right = di + di_bt @ gp_inv @ di_bt.T
    full = np.block([[gp_inv, top_right], [top_right.T, bottom_right]])
    return BlockInverse(full, pivot, cond_g, cond_d)


def max_abs(m):
    """Max-norm helper that tolerates empty arrays."""
    m = np.asarray(m)
    return float(np.abs(m).max()) if m.size else 0.0


def _float_or_complex(m):
    m = np.asarray(m)
    return m.astype(complex if np.iscomplexobj(m) else float, copy=False)


def _row_replaced(m, rows, cols):
    """Copies of ``m``; in copy t, row rows[s][t] becomes e_{cols[s][t]} for each s."""
    stacked = np.repeat(m[None, :, :], len(rows[0]), axis=0)
    idx = np.arange(len(rows[0]))
    for row, col in zip(rows, cols):
        stacked[idx, row, :] = 0.0
        stacked[idx, row, col] = 1.0
    return stacked


def cofactors(m):
    """Cofactor matrix cof[i, j] = d det / d m_{ij} of a real or complex matrix.

    Entry (i, j) is the determinant of ``m`` with row i replaced by the unit
    row e_j: an exact multilinear evaluation, one batched determinant call.
    """
    m = _float_or_complex(m)
    k = m.shape[0]
    i, j = np.indices((k, k)).reshape(2, -1)
    return np.linalg.det(_row_replaced(m, [i], [j])).reshape(k, k)


def second_cofactors(m):
    """Second derivatives c2[i, j, k, l] = d2 det / (d m_{ij} d m_{kl}).

    For i < k the entry is the determinant of ``m`` with rows i and k
    replaced by e_j and e_l; it is mirrored to (k, l, i, j), and entries
    with i == k vanish exactly, since det is linear in each row.
    """
    m = _float_or_complex(m)
    n = m.shape[0]
    idx = np.indices((n,) * 4).reshape(4, -1)
    i, j, k, l = idx[:, idx[0] < idx[2]]
    dets = np.linalg.det(_row_replaced(m, [i, k], [j, l]))
    c2 = np.zeros((n, n, n, n), dtype=dets.dtype)
    c2[i, j, k, l] = dets
    c2[k, l, i, j] = dets
    return c2


def gradient_projector(grads):
    """Orthoprojector off the rows of ``grads``, and their Gram matrix.

    P = I - grads^T (grads grads^T)^{-1} grads projects onto the common
    tangent space of the level sets whose gradients are the rows.  Raises
    :class:`SingularGram` when the gradients are collapsed or dependent.
    """
    gram = grads @ grads.T
    scale = gram.diagonal().max()
    if scale < GRAM_SCALE_FLOOR or np.linalg.cond(gram) > GRAM_COND_LIMIT:
        raise SingularGram(
            f"constraint-gradient Gram is numerically singular (scale {scale:.3e})")
    proj = np.eye(grads.shape[1]) - grads.T @ np.linalg.solve(gram, grads)
    return proj, gram


@dataclass(frozen=True)
class ProjectedTraces:
    """tr(P d2chi_alpha) per constraint, normalised by the Hessian norms."""

    traces: np.ndarray
    hessian_norms: np.ndarray

    def residuals(self):
        return np.abs(self.traces) / np.maximum(self.hessian_norms, 1.0)

    @property
    def max_residual(self):
        return float(self.residuals().max())


def projected_traces(proj, hessians):
    """Minimality traces of each Hessian against the tangent projector."""
    return ProjectedTraces(
        np.array([float((proj * h).sum()) for h in hessians]),
        np.array([np.linalg.norm(h) for h in hessians]))
