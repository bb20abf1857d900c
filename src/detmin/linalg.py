"""Shared numerical substrate: rank decisions, block inversion, Kronecker
products, cofactor determinants, constraint jets, stratum tangent/normal
bases, column-space reflections and their invariant residuals, inertia,
and the one seeded stream constructor, :func:`derived_rng`.

Every pipeline routes its rank questions through :func:`svd_rank`, or
through :func:`numerical_rank` where only the count is read (of one matrix
or of each matrix in a stack); both threshold the singular values with the
one expression in ``_rank_tolerance``, so a single tolerance policy governs
the whole package.  So does one scale rule, :func:`relative`: an error over
a norm of its own inputs, never floored, and a zero test of degree 0 in the
point, :func:`near_zero`.  :func:`block_inverse` estimates no condition
number: its caller decides whether a matrix may be inverted, for the chart
metric once, in closed form (``ChartPoint.invertible_metric``).  Matrices
assembled from 2 x 2 blocks are filled in place by :func:`fill_blocks`, and
identity operands come from :func:`identity`, one cached read-only array
per size.  Cofactors and :class:`ConstraintJet`, the one record of a
constraint system at a point that both determinant routes read (its one
gradient Gram gives the tangent projector P and the codimension-k trace
tr(P d2 chi)), live here as substrate only; each pipeline keeps its own
closed forms.  Every exact derivative of a determinant is a signed minor
of the input: :func:`cofactors` takes the (n-1)-minors and
:func:`second_cofactors` the (n-2)-minors, each in one batched
determinant call indexed by one table cached per n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DegenerateMetric, InvalidChartPoint, SingularGram

# Multiplier on the usual sigma_max * max(shape) * eps rank threshold.
RANK_TOL_FACTOR = 4.0

# Condition-number guard on the matrices the pipelines invert.  Beyond this
# the point is treated as near-boundary and reported, not inverted.
COND_LIMIT = 1e6

# Condition-number guard on the Gram matrix of constraint gradients.
GRAM_COND_LIMIT = 1e8

# Relative band around zero inside which an eigenvalue counts as null.
INERTIA_BAND = 1e-10


def checked_seed(seed):
    """``seed`` as an int, refused when negative: no two seeds share a stream."""
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def derived_rng(seed, *context):
    """The package's one seeded generator: a Philox stream keyed by (seed,
    context ints), all non-negative.

    Philox is counter-based, so a given key reproduces the same stream on
    every platform and process layout; reports quote the seed and are then
    reproducible byte for byte.  Sweeps give every parameter cell its own
    context, so records do not depend on cell execution order and partial
    runs reproduce exactly.
    """
    entropy = [checked_seed(seed)] + [int(c) for c in context]
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy)))


@lru_cache(maxsize=64)
def identity(n):
    """The n x n identity, one cached read-only array per size.

    An operand only: callers combine it into new arrays and never hand it
    out as a result.  The sizes a sweep uses (p, q, r, q - r, p r and the
    chart dimension) fit the cache many times over.
    """
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def fill_blocks(top_left, top_right, bottom_left, bottom_right):
    """``np.block([[top_left, top_right], [bottom_left, bottom_right]])``.

    The four blocks are copied into one preallocated C-ordered array, so the
    result holds the same entries in the same layout without ``np.block``'s
    general-nesting bookkeeping.  Zero-size blocks are allowed.
    """
    rows, cols = top_left.shape
    out = np.empty((rows + bottom_left.shape[0], cols + top_right.shape[1]),
                   dtype=np.result_type(top_left, top_right, bottom_left,
                                        bottom_right))
    out[:rows, :cols] = top_left
    out[:rows, cols:] = top_right
    out[rows:, :cols] = bottom_left
    out[rows:, cols:] = bottom_right
    return out


def require_finite(m, name):
    """Reject NaN/inf input with a diagnostic instead of letting LAPACK fail.

    Real input comes back as float, complex input as complex.
    """
    m = _float_or_complex(m)
    if not np.isfinite(m).all():
        bad = ~np.isfinite(m)
        raise ValueError(f"{name} has {int(bad.sum())} non-finite entries "
                         f"at positions {np.argwhere(bad)[:4].tolist()}...")
    return m


@dataclass(frozen=True)
class RankResult:
    """Numerical rank together with the evidence for it.

    ``range_basis`` holds ``rank`` orthonormal columns spanning the input's
    column space; ``kernel_basis`` holds orthonormal columns spanning the
    kernel of the transpose of the input, i.e. the orthogonal complement of
    that column space.  Together they fill the row count.  ``row_basis``
    holds ``rank`` orthonormal columns spanning the input's row space.
    """

    rank: int
    singular_values: np.ndarray
    range_basis: np.ndarray
    kernel_basis: np.ndarray
    row_basis: np.ndarray


def _rank_tolerance(s, shape):
    """``sigma_max * max(shape) * eps * RANK_TOL_FACTOR`` per matrix.

    ``s`` holds each matrix's singular values descending along its last
    axis and ``shape`` is the shape of the matrix or of the stack of them.
    """
    return s[..., 0] * max(shape[-2:]) * np.finfo(float).eps * RANK_TOL_FACTOR


def svd_rank(m):
    """Rank decision via singular values, with an explicit tolerance policy.

    The threshold is :func:`_rank_tolerance`; the range and kernel bases
    are the left singular vectors up to and beyond the rank, the row basis
    the right singular vectors up to it.
    """
    m = require_finite(m, "svd_rank input")
    rows, cols = m.shape
    if m.size == 0:
        return RankResult(0, np.zeros(0), np.zeros((rows, 0)), np.eye(rows),
                          np.zeros((cols, 0)))
    # a wide input's reduced U is square; a tall one's kernel needs full U
    u, s, vt = np.linalg.svd(m, full_matrices=rows > cols)
    rank = int(np.count_nonzero(s > _rank_tolerance(s, m.shape)))
    return RankResult(rank, s, u[:, :rank], u[:, rank:], vt[:rank].T)


def numerical_rank(m):
    """The rank :func:`svd_rank` decides, from the singular values alone.

    ``m`` is one matrix, giving an int, or a stack of matrices along leading
    axes, giving an integer array of one rank per matrix.
    """
    m = require_finite(m, "numerical_rank input")
    if 0 in m.shape[-2:]:
        return 0 if m.ndim == 2 else np.zeros(m.shape[:-2], dtype=int)
    s = np.linalg.svd(m, compute_uv=False)
    above = s > _rank_tolerance(s, m.shape)[..., None]
    return (int(np.count_nonzero(above)) if m.ndim == 2
            else np.count_nonzero(above, axis=-1))


def declared_rank(m, r):
    """:func:`svd_rank` of ``m``, refused when it contradicts a declared rank.

    ``r`` declares the stratum ``m`` should lie on; a different numerical
    rank raises :class:`InvalidChartPoint` rather than letting a caller
    work with the wrong column space.
    """
    rank = svd_rank(m)
    if rank.rank != r:
        raise InvalidChartPoint(
            f"declared rank {r} but numerical rank is {rank.rank} "
            f"(singular values {rank.singular_values})")
    return rank


def kron(a, b):
    """Kronecker product of two matrices as one broadcast multiply.

    The same products in the same C layout as ``np.kron`` on 2-d operands,
    without its general-dimension bookkeeping.
    """
    a, b = np.asarray(a), np.asarray(b)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def stratum_bases(x, r):
    """Orthonormal tangent and normal bases of the rank-``r`` stratum at ``x``.

    The stratum through a p x q matrix X is the orbit of X under
    X -> g X h^-1, so its tangent space is {A X + X B} (Vandereycken, SIAM
    J. Optim. 2013).  In row-major flat coordinates the generators
    A = E_ij and B = E_ij are the columns of kron(I_p, X^T) and
    kron(X, I_q); one rank decision on them splits the ambient space into
    the tangent span and its orthocomplement.  Returns (tangent, normal)
    as column matrices with r(p + q - r) and (p - r)(q - r) columns; a
    tangent span of another dimension contradicts the declared rank and
    raises :class:`InvalidChartPoint`.
    """
    x = np.asarray(x, dtype=float)
    p, q = x.shape
    gens = np.concatenate([kron(identity(p), x.T), kron(x, identity(q))],
                          axis=1)
    rank = svd_rank(gens)
    if rank.rank != r * (p + q - r):
        raise InvalidChartPoint(
            f"declared rank {r} but the tangent space has dimension "
            f"{rank.rank}, not r(p + q - r) = {r * (p + q - r)}")
    return rank.range_basis, rank.kernel_basis


def inertia(eigenvalues):
    """(n_plus, n_minus, n_zero) with the relative zero band INERTIA_BAND."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    tol = INERTIA_BAND * max(1.0, max_abs(eigenvalues))
    n_pos = int(np.count_nonzero(eigenvalues > tol))
    n_neg = int(np.count_nonzero(eigenvalues < -tol))
    return n_pos, n_neg, eigenvalues.shape[0] - n_pos - n_neg


def column_reflection(x_rank, signs):
    """B = 2 P_V - I, P_V the form-orthogonal projection onto col(x).

    ``x_rank`` is the :func:`svd_rank` (or :func:`declared_rank`) result of
    x and ``signs`` the diagonal of the form on its rows; all ones give the
    euclidean reflection 2 Q Q^T - I.  The form restricted to the column
    space, G = Q^T S Q, must be safely nondegenerate: B = 2 Q G^-1 Q^T S - I
    has ||B||_2 <= 2 ||G^-1||_2 + 1, so a ||G^-1||_2 = 1 / min |lambda(G)|
    beyond COND_LIMIT raises :class:`DegenerateMetric` (at a null column
    space the form-complement fails to be a complement and no reflection
    exists at all).
    """
    basis = x_rank.range_basis
    n = basis.shape[0]
    if not basis.size:
        return -identity(n)
    gram = basis.T @ (signs[:, None] * basis)
    if np.abs(np.linalg.eigvalsh(gram)).min() * COND_LIMIT < 1.0:
        raise DegenerateMetric("the form restricted to the column space "
                               "is (nearly) degenerate; no reflection")
    proj = basis @ np.linalg.solve(gram, basis.T * signs[None, :])
    return 2.0 * proj - identity(n)


def reflection_residuals(b, signs, x):
    """Invariant residuals of B as a reflection of S = diag(signs) fixing x.

    ``isometry`` is ||B^T S B - S||_max and ``involution`` ||B B - I||_max,
    both :func:`relative` to ||B||_2^2, and ``fixes_point`` is
    ||B x - x||_max relative to ||x||_max ||B||_2.  That makes all three
    backward errors: a B with B^T S B = S has cond_2(B) = ||B||_2^2
    (Higham, SIAM Rev. 45, 2003), so rounding alone leaves raw residuals of
    that size times eps, and rounding in B x alone is about
    ||B||_2 ||x|| eps.  All ones in ``signs`` make ``isometry`` the
    euclidean orthogonality residual.
    """
    norm = float(np.linalg.svd(b, compute_uv=False)[0])
    isometry = max_abs((b.T * signs) @ b - np.diag(signs))
    return {
        "isometry": relative(isometry, norm ** 2),
        "involution": relative(max_abs(b @ b - identity(len(b))), norm ** 2),
        "fixes_point": relative(max_abs(b @ x - x), max_abs(x) * norm),
    }


def reversal(b, normals, shape):
    """Worst Frobenius norm of B W + W over the columns W of ``normals``.

    Each column is a p x q matrix flattened row-major; B acts on it from
    the left, all columns in one product.  Zero when B reverses every
    normal direction.
    """
    p, q = shape
    w = normals.reshape(p, -1)
    if not w.size:
        return 0.0
    moved = (b @ w + w).reshape(p, q, -1)
    return float(np.linalg.norm(moved, axis=(0, 1)).max())


def block_inverse(g, b, d, pivot):
    """Inverse of the symmetric block matrix ``[[G, B], [B^T, D]]``.

    ``pivot="leading"`` eliminates through ``G`` first, ``pivot="trailing"``
    through ``D``; both give the same inverse in exact arithmetic, and
    keeping the routes separate lets callers cross-check them.  The caller
    bounds cond(M); for symmetric positive definite M that bounds every
    pivot block and Schur complement inverted here (Cauchy interlacing), so
    no condition number is estimated.
    """
    g = require_finite(g, "G block")
    d = require_finite(d, "D block")
    b = np.asarray(b, dtype=float)
    ng, nd = g.shape[0], d.shape[0]
    if b.shape != (ng, nd):
        raise ValueError(f"off-diagonal block has shape {b.shape}, expected {(ng, nd)}")
    if pivot not in ("leading", "trailing"):
        raise ValueError(f"unknown pivot {pivot!r}")

    if ng == 0 and nd == 0:
        return np.zeros((0, 0))
    if nd == 0:
        return np.linalg.inv(g)
    if ng == 0:
        return np.linalg.inv(d)

    if pivot == "leading":
        gi_b = np.linalg.solve(g, b)
        schur = d - b.T @ gi_b
        rho = np.linalg.inv(schur)
        gi = np.linalg.inv(g)
        top_left = gi + gi_b @ rho @ gi_b.T
        top_right = -gi_b @ rho
        return fill_blocks(top_left, top_right, top_right.T, rho)

    di_bt = np.linalg.solve(d, b.T)
    schur = g - b @ di_bt
    gp_inv = np.linalg.inv(schur)
    di = np.linalg.inv(d)
    top_right = -gp_inv @ di_bt.T
    bottom_right = di + di_bt @ gp_inv @ di_bt.T
    return fill_blocks(gp_inv, top_right, top_right.T, bottom_right)


def relative(err, scale):
    """``err / scale``, the package's one residual scale rule: ``scale`` is
    a norm of the residual's own inputs, never floored, so the ratio is a
    normwise backward error (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., 2002, ch. 1-2) that reads the same at x and t x.
    An exact 0 reads 0 at any scale, as at the vertex x = 0 of a rank-0
    stratum; any other error over a zero scale reads ``inf``."""
    return err / scale if scale else (0.0 if err == 0 else np.inf)


def near_zero(values, point, grad_norms):
    """|c| <= 1e-12 |x| |grad c| per constraint value c at ``point``: of
    degree 0 for a homogeneous c, as x . grad c = (deg c) c."""
    return np.abs(values) <= 1e-12 * np.linalg.norm(point) * grad_norms


def max_abs(m):
    """Max-norm helper that tolerates empty arrays."""
    m = np.asarray(m)
    return float(np.abs(m).max()) if m.size else 0.0


def _float_or_complex(m):
    m = np.asarray(m)
    return m.astype(complex if np.iscomplexobj(m) else float, copy=False)


@dataclass(frozen=True)
class _MinorTable:
    """Index sets of the signed minors of an n x n matrix, built once per n.

    ``keep_at[i, j]`` holds the flat positions of the (n-1)-minor that drops
    row i and column j, and ``sign[i, j]`` is (-1)^(i + j).  Entry (a, b) of
    ``pair_keep_at`` holds those of the (n-2)-minor that drops the a-th row
    pair i < k and the b-th column pair j < l (lexicographic).
    ``pair_at`` holds the four flat positions in an (n, n, n, n) array that
    this minor fills, (i, j, k, l), (k, l, i, j), (i, l, k, j) and
    (k, j, i, l), and ``pair_sign`` their signs, +-(-1)^(i + j + k + l).
    """

    keep_at: np.ndarray
    sign: np.ndarray
    pair_keep_at: np.ndarray
    pair_at: np.ndarray
    pair_sign: np.ndarray


@lru_cache(maxsize=16)
def _minor_table(n):
    idx = np.arange(n)
    keep = np.array([np.delete(idx, i) for i in idx])
    i, k = np.triu_indices(n, 1)
    pair_keep = np.array([np.delete(idx, pair) for pair in zip(i, k)],
                         dtype=int).reshape(len(i), max(n - 2, 0))
    # row pair (ri, rk) against column pair (cj, cl), row pairs outermost
    ri, rk = np.repeat(i, len(i)), np.repeat(k, len(i))
    cj, cl = np.tile(i, len(i)), np.tile(k, len(i))
    sign = (-1.0) ** (ri + rk + cj + cl)
    pair_at = np.ravel_multi_index(
        (np.stack([ri, rk, ri, rk]), np.stack([cj, cl, cl, cj]),
         np.stack([rk, ri, rk, ri]), np.stack([cl, cj, cj, cl])), (n,) * 4)
    table = _MinorTable(_submatrices_at(keep, n),
                        (-1.0) ** np.add.outer(idx, idx),
                        _submatrices_at(pair_keep, n), pair_at,
                        np.stack([sign, sign, -sign, -sign]))
    for array in vars(table).values():
        array.setflags(write=False)
    return table


def _submatrices_at(keep, n):
    """Flat positions of m[keep[a], keep[b]] in an n x n m, for every (a, b)."""
    return keep[:, None, :, None] * n + keep[None, :, None, :]


def cofactors(m):
    """Cofactor matrix cof[i, j] = d det / d m_{ij} of a real or complex matrix.

    Entry (i, j) is the signed (n-1)-minor (-1)^(i+j) det m[~i, ~j]: an
    exact multilinear evaluation, one batched determinant call.
    """
    m = _float_or_complex(m)
    table = _minor_table(m.shape[0])
    return np.linalg.det(np.take(m, table.keep_at)) * table.sign


def second_cofactors(m):
    """Second derivatives c2[i, j, k, l] = d2 det / (d m_{ij} d m_{kl}).

    For i < k and j < l the entry is the signed (n-2)-minor
    (-1)^(i+j+k+l) det m[~{i, k}, ~{j, l}], one batched determinant call
    over the C(n, 2)^2 row and column pairs.  It is mirrored to (k, l, i, j)
    and enters (i, l, k, j) and (k, j, i, l) with the opposite sign, since
    det is antisymmetric in its columns; entries with i == k or j == l are
    exact zeros, since det is linear in each row and each column.
    """
    m = _float_or_complex(m)
    n = m.shape[0]
    table = _minor_table(n)
    dets = np.linalg.det(np.take(m, table.pair_keep_at)).ravel()
    c2 = np.zeros(n ** 4, dtype=dets.dtype)
    c2[table.pair_at] = table.pair_sign * dets
    return c2.reshape((n,) * 4)


@dataclass(frozen=True)
class ConstraintJet:
    """Values (k,), gradients (k, N) and Hessians (k, N, N) of k constraints
    in the flat coordinates of ``point``; each contraction the determinant
    routes read is a cached property, formed once per point.  Its norms (or
    the point's) scale their residuals, by :func:`relative`'s rule.
    """

    point: np.ndarray
    values: np.ndarray
    grads: np.ndarray
    hessians: np.ndarray

    @cached_property
    def grad_gram(self):
        """(k, k): [a, b] is g_a . g_b, the package's one gradient Gram."""
        return np.array([[ga @ gb for gb in self.grads] for ga in self.grads])

    @cached_property
    def grad_norms(self):
        return np.sqrt(self.grad_gram.diagonal())

    @cached_property
    def hessian_norms(self):
        return np.array([np.linalg.norm(h) for h in self.hessians])

    @cached_property
    def laplacians(self):
        return np.array([float(np.trace(h)) for h in self.hessians])

    @cached_property
    def products(self):
        """(k, k, N): [a, b] is g_a . H_b."""
        return np.array([[g @ h for h in self.hessians] for g in self.grads])

    @cached_property
    def sandwiches(self):
        """(k, k, k): [a, b, c] is (g_a . H_b) . g_c."""
        return np.array([[[gh @ g for g in self.grads] for gh in row]
                         for row in self.products])

    @cached_property
    def hessian_products(self):
        """(k, k): [a, b] is tr(H_a H_b), summed entrywise."""
        return np.array([[(ha * hb).sum() for hb in self.hessians]
                         for ha in self.hessians])

    @cached_property
    def sandwich_scale(self):
        """(k, k, k): [a, b, c] is |g_a| |H_b| |g_c|."""
        g, h = self.grad_norms, self.hessian_norms
        return g[:, None, None] * h[:, None] * g

    @cached_property
    def gram_cond(self):
        """2-norm condition number of ``grad_gram``."""
        return float(np.linalg.cond(self.grad_gram))

    @cached_property
    def projector(self):
        """P = I - G^T M^-1 G onto the common tangent space of the level
        sets, G the gradients and M ``grad_gram``; :class:`SingularGram`
        when ``gram_cond`` exceeds GRAM_COND_LIMIT."""
        if self.gram_cond > GRAM_COND_LIMIT:
            raise SingularGram("gradient Gram is numerically singular")
        return (identity(self.grads.shape[1])
                - self.grads.T @ np.linalg.solve(self.grad_gram, self.grads))

    @cached_property
    def trace_residual(self):
        """max_a |tr(P H_a)| / |H_a|, 0 where the level set is minimal."""
        traces = np.array([(self.projector * h).sum() for h in self.hessians])
        return float((np.abs(traces) / self.hessian_norms).max())
