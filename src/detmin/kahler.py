"""Complex rank strata as real minimal submanifolds.

Two complementary certifications live here.

First, the 3 x 2 complex chart Z(x, y, lam, mu) = (x + iy, (lam + i mu)
(x + iy)) with x, y in R^3, realified to R^12 in the block order
(x, y, Re of second column, Im of second column).  Its pullback metric has
a rigid closed-form block structure built from the two vectors E1 = (x; y)
and E2 = (-y; x); the inverse-metric mixed block is spanned by those same
vectors, and all four normal mean-curvature components vanish.

Second, the determinant pair on n x n complex matrices: u = Re det,
v = Im det as functions on R^{2 n^2}.  Points are flattened with all real
parts first, then all imaginary parts, column-major within each block.
Both functions are harmonic with gradients of equal length that are
mutually orthogonal everywhere, and the cubic contractions of their
gradients against their Hessians all reduce to one scalar multiplier
rho(x), homogeneous of degree 2n - 4 (identically 2 for n = 2).  On the
common zero set u = v = 0 those contractions vanish, which is exactly the
minimality of the complex hypersurface det = 0 as a real submanifold of
codimension two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidChartPoint, SingularGram
from .linalg import (ProjectedTraces, cofactors, fill_blocks,
                     gradient_projector, max_abs, numerical_rank,
                     projected_traces, second_cofactors, svd_rank)

# Draws each sampler below makes before giving up.
MAX_DRAWS = 100


# ---------------------------------------------------------------------------
# the 3 x 2 chart


@dataclass(frozen=True)
class ComplexChartPoint:
    """Chart data for rank-1 3 x 2 complex matrices: column and multiplier."""

    x: np.ndarray
    y: np.ndarray
    lam: float
    mu: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.shape != (3,) or y.shape != (3,):
            raise InvalidChartPoint("x and y must be 3-vectors")
        if x @ x + y @ y < 1e-24:
            raise InvalidChartPoint("first column must be nonzero")

    @property
    def e1(self):
        return np.concatenate([self.x, self.y])

    @property
    def e2(self):
        return np.concatenate([-self.y, self.x])

    @property
    def s(self):
        """Squared length of the first complex column."""
        return float(self.x @ self.x + self.y @ self.y)


def complex_chart_embedding(cp):
    """R^12 realification (x, y, Re col2, Im col2)."""
    re2 = cp.lam * cp.x - cp.mu * cp.y
    im2 = cp.lam * cp.y + cp.mu * cp.x
    return np.concatenate([cp.x, cp.y, re2, im2])


def complex_chart_jacobian(cp):
    """Analytic 12 x 8 Jacobian; columns ordered (x1..3, y1..3, lam, mu)."""
    jac = np.zeros((12, 8))
    for i in range(3):
        jac[i, i] = 1.0
        jac[6 + i, i] = cp.lam
        jac[9 + i, i] = cp.mu
        jac[3 + i, 3 + i] = 1.0
        jac[6 + i, 3 + i] = -cp.mu
        jac[9 + i, 3 + i] = cp.lam
    jac[6:9, 6] = cp.x
    jac[9:12, 6] = cp.y
    jac[6:9, 7] = -cp.y
    jac[9:12, 7] = cp.x
    return jac


def complex_chart_second_derivatives(cp):
    """Closed-form (12, 8, 8) second derivatives; only x/y cross lam/mu.

    The tensor depends on no input and is shared read-only.
    """
    return _COMPLEX_SECOND_DERIVATIVES


def _complex_second_derivatives():
    d2 = np.zeros((12, 8, 8))
    for i in range(3):
        for (coord, par, block, sign) in (
                (i, 6, 6, 1.0),       # d(x_i) d(lam) -> Re slot
                (i, 7, 9, 1.0),       # d(x_i) d(mu)  -> Im slot
                (3 + i, 6, 9, 1.0),   # d(y_i) d(lam) -> Im slot
                (3 + i, 7, 6, -1.0)): # d(y_i) d(mu)  -> -Re slot
            d2[block + i, coord, par] += sign
            d2[block + i, par, coord] += sign
    d2.setflags(write=False)
    return d2


_COMPLEX_SECOND_DERIVATIVES = _complex_second_derivatives()


@dataclass(frozen=True)
class ComplexChartGeometry:
    """Metric, inverse, normals and mean curvature of the 3 x 2 chart."""

    metric: np.ndarray
    inverse: np.ndarray
    normals: np.ndarray           # (4, 12)
    mean_curvature: np.ndarray    # (4,)
    block_residual: float         # metric vs closed-form blocks
    schur_residual: float         # trailing Schur block vs s/(1+lam^2+mu^2)
    offdiag_residual: float       # inverse mixed block vs -(1/s)(E columns)
    normal_residual: float        # normals vs tangent space


def complex_chart_geometry(cp):
    jac = complex_chart_jacobian(cp)
    metric = jac.T @ jac

    conformal = 1.0 + cp.lam ** 2 + cp.mu ** 2
    closed = np.zeros((8, 8))
    closed[:6, :6] = conformal * np.eye(6)
    closed[6:, 6:] = cp.s * np.eye(2)
    b = np.column_stack([cp.lam * cp.e1 - cp.mu * cp.e2,
                         cp.lam * cp.e2 + cp.mu * cp.e1])
    closed[:6, 6:] = b
    closed[6:, :6] = b.T
    block_residual = max_abs(metric - closed) / max(1.0, max_abs(metric))

    inverse = np.linalg.inv(metric)
    rho_inv_expected = cp.s / conformal * np.eye(2)
    schur = metric[6:, 6:] - metric[6:, :6] @ np.linalg.solve(
        metric[:6, :6], metric[:6, 6:])
    schur_residual = max_abs(schur - rho_inv_expected) / max(1.0, cp.s)
    offdiag_expected = -b / cp.s
    offdiag_residual = (max_abs(inverse[:6, 6:] - offdiag_expected)
                        / max(1.0, max_abs(inverse)))

    # normals: last-6 block orthogonal to span{E1, E2}, leading block chosen
    # to kill the pairing with the x/y tangent directions
    span = np.column_stack([cp.e1, cp.e2])
    kernel = svd_rank(span).kernel_basis  # (6, 4)
    normals = np.zeros((4, 12))
    for k in range(4):
        n1, n2 = kernel[:3, k], kernel[3:, k]
        normals[k, :3] = -cp.lam * n1 - cp.mu * n2
        normals[k, 3:6] = cp.mu * n1 - cp.lam * n2
        normals[k, 6:] = kernel[:, k]
    normal_residual = max_abs(normals @ jac)

    d2 = complex_chart_second_derivatives(cp)
    trace = np.einsum("fab,ab->f", d2, inverse)
    h = normals @ trace
    return ComplexChartGeometry(metric, inverse, normals, h, block_residual,
                                schur_residual, offdiag_residual,
                                normal_residual)


def sample_complex_chart_point(rng):
    for _ in range(MAX_DRAWS):
        x = rng.normal(size=3)
        y = rng.normal(size=3)
        if x @ x + y @ y > 0.1:
            return ComplexChartPoint(x, y, float(rng.uniform(-2, 2)),
                                     float(rng.uniform(-2, 2)))
    raise InvalidChartPoint(f"no 3 x 2 chart point after {MAX_DRAWS} draws")


# ---------------------------------------------------------------------------
# determinant twin pair on R^{2 n^2}


def unflatten(n, point):
    """Flat real vector -> complex n x n matrix (column-major per block)."""
    point = np.asarray(point, dtype=float)
    if point.shape != (2 * n * n,):
        raise ValueError(f"expected length {2 * n * n}, got {point.shape}")
    re = point[:n * n].reshape((n, n), order="F")
    im = point[n * n:].reshape((n, n), order="F")
    return re + 1j * im


def flatten(z):
    """Complex n x n matrix -> flat real vector, reals first, column-major."""
    z = np.asarray(z, dtype=complex)
    return np.concatenate([z.real.ravel(order="F"), z.imag.ravel(order="F")])


class TwinHarmonicPair:
    """u = Re det, v = Im det on realified n x n complex matrices."""

    def __init__(self, n):
        if n < 2:
            raise ValueError("need n >= 2")
        self.n = n
        self.ambient_dim = 2 * n * n

    def values(self, point):
        det = complex(np.linalg.det(unflatten(self.n, point)))
        return det.real, det.imag

    def gradients(self, point):
        """Real gradients of u and v from the complex cofactor matrix.

        d det = sum cof_{ij} dz_{ij} splits as du = Re(cof) dx - Im(cof) dy
        and dv = Im(cof) dx + Re(cof) dy.
        """
        cof = cofactors(unflatten(self.n, point))
        re = cof.real.ravel(order="F")
        im = cof.imag.ravel(order="F")
        gu = np.concatenate([re, -im])
        gv = np.concatenate([im, re])
        return gu, gv

    def hessians(self, point):
        n = self.n
        c2 = second_cofactors(unflatten(self.n, point))
        # flatten complex index pairs column-major to match the layout
        c2 = c2.transpose(1, 0, 3, 2).reshape(n * n, n * n)
        re, im = c2.real, c2.imag
        neg_im = -im
        hu = fill_blocks(re, neg_im, neg_im, -re)
        hv = fill_blocks(im, re, re, neg_im)
        return hu, hv

    def values_generic(self, flat):
        """(u, v) via pair arithmetic; dual-number oracle path."""
        n = self.n
        flat = np.asarray(flat, dtype=object)
        re = flat[:n * n].reshape((n, n)).T  # column-major
        im = flat[n * n:].reshape((n, n)).T
        u, v = _complex_det_generic(re, im)
        return np.array([u, v], dtype=object)


def _complex_det_generic(re, im):
    """Cofactor-expansion determinant on (re, im) pair entries."""
    k = re.shape[0]
    if k == 1:
        return re[0, 0], im[0, 0]
    total_re, total_im = 0.0, 0.0
    sign = 1.0
    for j in range(k):
        mre = np.delete(np.delete(re, 0, axis=0), j, axis=1)
        mim = np.delete(np.delete(im, 0, axis=0), j, axis=1)
        sub_re, sub_im = _complex_det_generic(mre, mim)
        total_re = total_re + sign * (re[0, j] * sub_re - im[0, j] * sub_im)
        total_im = total_im + sign * (re[0, j] * sub_im + im[0, j] * sub_re)
        sign = -sign
    return total_re, total_im


@dataclass(frozen=True)
class TwinHarmonicReport:
    """Ambient identities of the pair and the scalar multiplier rho.

    All residuals are relative with the floored-product normalisation.  The
    contraction table lists the eight grad/Hess/grad sandwiches against
    their closed forms +-rho u or +-rho v, with rho fitted from
    u.Hu.u / u (the ``rho`` field; ``rho_alt`` is the v-route value).
    """

    grad_norm_gap: float
    grad_orthogonality: float
    harmonic: np.ndarray
    pair_vector: float
    pair_cross: float
    contraction_table: np.ndarray
    rho: float
    rho_alt: float


def twin_harmonic_suite(n, point):
    pair = TwinHarmonicPair(n)
    u, v = pair.values(point)
    gu, gv = pair.gradients(point)
    hu, hv = pair.hessians(point)
    gn = np.linalg.norm(gu)
    scale2 = max(1.0, gn * gn)

    grad_norm_gap = abs(gu @ gu - gv @ gv) / scale2
    grad_orth = abs(gu @ gv) / scale2
    harmonic = np.array([float(np.trace(hu)), float(np.trace(hv))])
    hn = max(np.linalg.norm(hu), 1.0)
    pair_vector = max_abs(gu @ hu - gv @ hv) / max(1.0, gn * hn)
    pair_cross = max_abs(gu @ hv + gv @ hu) / max(1.0, gn * hn)

    if abs(u) < 1e-12 or abs(v) < 1e-12:
        raise SingularGram("rho is defined only away from u = 0 = v")
    rho = float(gu @ hu @ gu) / u
    rho_alt = float(gv @ hv @ gv) / v
    expectations = [
        (gu, hu, gu, rho * u), (gv, hv, gu, rho * u),
        (gu, hu, gv, rho * v), (gv, hv, gv, rho * v),
        (gu, hv, gu, -rho * v), (gv, hu, gu, rho * v),
        (gv, hu, gv, -rho * u), (gu, hv, gv, rho * u),
    ]
    den = max(1.0, gn * gn * hn)
    table = np.array([abs(float(x @ h @ y) - want) / den
                      for x, h, y, want in expectations])
    return TwinHarmonicReport(grad_norm_gap, grad_orth, harmonic,
                              pair_vector, pair_cross, table, rho, rho_alt)


def rho_value(n, point):
    """The cubic-contraction multiplier u.Hu.u / u at a point with u != 0.

    u.Hu.u is the second derivative of u along its own gradient.  With Z
    the complex matrix of the point and W that of grad u, it is
    d2/dt2 Re det(Z + t W) at t = 0: twice the sum, over row pairs i < k,
    of Re det Z with rows i and k taken from W.  That is C(n, 2)
    determinants of size n, and no Hessian.
    """
    pair = TwinHarmonicPair(n)
    u, _ = pair.values(point)
    if abs(u) < 1e-12:
        raise SingularGram("rho undefined where u vanishes")
    gu, _ = pair.gradients(point)
    z, w = unflatten(n, point), unflatten(n, gu)
    i, k = np.triu_indices(n, 1)
    polar = np.repeat(z[None], len(i), axis=0)
    at = np.arange(len(i))
    polar[at, i] = w[i]
    polar[at, k] = w[k]
    return 2.0 * float(np.linalg.det(polar).sum().real) / u


@dataclass(frozen=True)
class ZetaMinimality(ProjectedTraces):
    """Minimality residuals of the det = 0 locus as a real submanifold."""

    gram_conformality: float


def zeta_minimality(n, point):
    """tr(P d2 u) and tr(P d2 v) at a point of the realified det = 0 locus.

    P projects off the two constraint gradients.  Their Gram matrix is
    conformal on the nose (an ambient identity), and its conformality
    residual is reported; on deeper strata the gradients collapse and
    :class:`SingularGram` is raised.
    """
    pair = TwinHarmonicPair(n)
    proj, gram = gradient_projector(np.stack(pair.gradients(point)))
    conf = (max(abs(gram[0, 1]), abs(gram[0, 0] - gram[1, 1]))
            / max(gram[0, 0], gram[1, 1]))
    minim = projected_traces(proj, pair.hessians(point))
    return ZetaMinimality(minim.traces, minim.hessian_norms, conf)


def sample_zeta_point(n, rng):
    """Unit-norm flat point with det = 0 and complex rank exactly n - 1."""
    pair = TwinHarmonicPair(n)
    for _ in range(MAX_DRAWS):
        a = rng.normal(size=(n, n - 1)) + 1j * rng.normal(size=(n, n - 1))
        lam = rng.normal(size=(n - 1,)) + 1j * rng.normal(size=(n - 1,))
        z = np.concatenate([a, (a @ lam)[:, None]], axis=1)
        z = z / np.linalg.norm(z)
        point = flatten(z)
        u, v = pair.values(point)
        if (abs(u) <= 1e-12 and abs(v) <= 1e-12
                and numerical_rank(z) == n - 1):
            return point
    raise InvalidChartPoint(f"no admissible det = 0 point for n = {n}")
