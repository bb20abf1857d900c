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
codimension two.  :meth:`TwinHarmonicPair.evaluate` returns the pair at a
point as one ``ConstraintJet`` (linalg), whose norms, g.H products,
sandwiches, gradient Gram and tangent projector the suite and the locus
read, as residual scales, in zero tests and as the minimality trace (see
``relative``, ``near_zero``); only their closed forms live here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidChartPoint, SingularGram
from .linalg import (ConstraintJet, cofactors, fill_blocks, max_abs,
                     near_zero, numerical_rank, second_cofactors, svd_rank)

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


def complex_chart_second_derivatives():
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
    """Normals, mean curvature and block residuals of the 3 x 2 chart."""

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
    block_residual = max_abs(metric - closed) / max_abs(metric)

    inverse = np.linalg.inv(metric)
    rho_inv_expected = cp.s / conformal * np.eye(2)
    schur = metric[6:, 6:] - metric[6:, :6] @ np.linalg.solve(
        metric[:6, :6], metric[:6, 6:])
    schur_residual = max_abs(schur - rho_inv_expected) / cp.s
    offdiag_expected = -b / cp.s
    offdiag_residual = (max_abs(inverse[:6, 6:] - offdiag_expected)
                        / max_abs(inverse))

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

    d2 = complex_chart_second_derivatives()
    trace = np.einsum("fab,ab->f", d2, inverse)
    h = normals @ trace
    return ComplexChartGeometry(normals, h, block_residual, schur_residual,
                                offdiag_residual, normal_residual)


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
        return np.concatenate([re, -im, im, re]).reshape(2, -1)

    def hessians(self, point):
        """Hessians of u and v, stacked (2, 2 n^2, 2 n^2)."""
        n = self.n
        c2 = second_cofactors(unflatten(self.n, point))
        # flatten complex index pairs column-major to match the layout
        c2 = c2.transpose(1, 0, 3, 2).reshape(n * n, n * n)
        re, im = c2.real, c2.imag
        neg_im = -im
        return np.stack([fill_blocks(re, neg_im, neg_im, -re),
                         fill_blocks(im, re, re, neg_im)])

    def evaluate(self, point):
        """Values, gradients and Hessians of u and v at ``point``."""
        point = np.asarray(point, dtype=float)
        return ConstraintJet(point, np.array(self.values(point)),
                             self.gradients(point), self.hessians(point))


@dataclass(frozen=True)
class TwinHarmonicReport:
    """Ambient identities of the pair and the scalar multiplier rho.

    Residuals are relative to the jet's norms of their degree.  The
    contraction table holds the eight grad/Hess/grad sandwiches, indexed
    like the jet's (0 for u, 1 for v), against their closed forms +-rho u
    or +-rho v, with rho fitted from u.Hu.u / u (the ``rho`` field;
    ``rho_alt`` is the v-route value).
    """

    grad_norm_gap: float
    grad_orthogonality: float
    harmonic: np.ndarray
    pair_vector: float
    pair_cross: float
    contraction_table: np.ndarray
    rho: float
    rho_alt: float


def twin_harmonic_suite(jet):
    u, v = jet.values
    if near_zero(jet.values, jet.point, jet.grad_norms).any():
        raise SingularGram("rho is defined only away from u = 0 = v")
    gram, gh, s = jet.grad_gram, jet.products, jet.sandwiches
    gn, hn = jet.grad_norms[0], jet.hessian_norms[0]
    grad_norm_gap = abs(gram[0, 0] - gram[1, 1]) / gram[0, 0]
    grad_orth = abs(gram[0, 1]) / gram[0, 0]
    pair_vector = max_abs(gh[0, 0] - gh[1, 1]) / (gn * hn)
    pair_cross = max_abs(gh[0, 1] + gh[1, 0]) / (gn * hn)

    rho = float(s[0, 0, 0]) / u
    rho_alt = float(s[1, 1, 1]) / v
    ru, rv = rho * u, rho * v
    closed = np.array([[[ru, rv], [-rv, ru]], [[rv, -ru], [ru, rv]]])
    table = np.abs(s - closed) / jet.sandwich_scale
    return TwinHarmonicReport(grad_norm_gap, grad_orth, jet.laplacians,
                              pair_vector, pair_cross, table, rho, rho_alt)


def rho_value(pair, point):
    """The cubic-contraction multiplier u.Hu.u / u at a point with u != 0.

    u.Hu.u is the second derivative of u along its own gradient.  With Z
    the complex matrix of the point and W that of grad u, it is
    d2/dt2 Re det(Z + t W) at t = 0: twice the sum, over row pairs i < k,
    of Re det Z with rows i and k taken from W.  That is C(n, 2)
    determinants of size n, and no Hessian.
    """
    u, _ = pair.values(point)
    w = unflatten(pair.n, pair.gradients(point)[0])
    if near_zero(u, point, np.linalg.norm(w)):
        raise SingularGram("rho undefined where u vanishes")
    z = unflatten(pair.n, point)
    i, k = np.triu_indices(pair.n, 1)
    polar = np.repeat(z[None], len(i), axis=0)
    at = np.arange(len(i))
    polar[at, i] = w[i]
    polar[at, k] = w[k]
    return 2.0 * float(np.linalg.det(polar).sum().real) / u


def zeta_minimality(jet):
    """The jet's trace residual, max |tr(P d2 u)|, |tr(P d2 v)| over the
    Hessian norms, and the conformality of its gradient Gram, at a point
    of the realified det = 0 locus.

    The Gram is conformal on the nose (an ambient identity); on deeper
    strata the gradients collapse and :class:`SingularGram` is raised.
    """
    # the residual first: it raises before a collapsed Gram is divided
    residual, gram = jet.trace_residual, jet.grad_gram
    return residual, (max(abs(gram[0, 1]), abs(gram[0, 0] - gram[1, 1]))
                      / max(gram[0, 0], gram[1, 1]))


def sample_zeta_point(pair, rng):
    """The jet of a unit-norm flat point of complex rank exactly n - 1, whose
    u and v are ``near_zero`` (linalg) against the jet's gradients."""
    n = pair.n
    for _ in range(MAX_DRAWS):
        a = rng.normal(size=(n, n - 1)) + 1j * rng.normal(size=(n, n - 1))
        lam = rng.normal(size=(n - 1,)) + 1j * rng.normal(size=(n - 1,))
        z = np.concatenate([a, (a @ lam)[:, None]], axis=1)
        z = z / np.linalg.norm(z)
        if numerical_rank(z) == n - 1:
            jet = pair.evaluate(flatten(z))
            if near_zero(jet.values, jet.point, jet.grad_norms).all():
                return jet
    raise InvalidChartPoint(f"no admissible det = 0 point for n = {n}")
