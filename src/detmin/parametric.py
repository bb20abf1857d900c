"""Chart geometry of the rank-r stratum inside the p x q matrix space.

A neighbourhood of a rank-r matrix whose leading r columns are independent
is parametrised by

    X(a, lam) = (a, a @ lam),   a: p x r of full rank,   lam: r x (q - r),

so the stratum has dimension r*(p - r) + q*r.  The ambient inner product is
<X, Y> = tr(X^T Y) and matrices are flattened row-major (numpy C order)
throughout.  Left/right multiplication operators turn into Kronecker
products under that flattening: the pullback metric in chart coordinates
(c, mu), with derivative DX(c, mu) = (c, c lam + a mu), has blocks

    G = kron(I_p, I_r + lam lam^T)        (c, c pairing)
    B = kron(a, lam)                      (c, mu pairing)
    D = kron(a^T a, I_{q-r})              (mu, mu pairing)

The full inverse of the assembled metric also has a closed multiplicative
form (see :func:`operator_form_inverse`); the generic Schur-complement
routes and the closed form are computed independently and compared rather
than trusted.

The only nonvanishing second derivatives of the chart are the mixed
a/lam ones: d2 X / (d a_{Js} d lam_{s s'}) places a single 1 in ambient
position (J, r + s').  Contracting them against the inverse-metric trace
yields a tangent vector, which is why every normal mean-curvature component
vanishes; the functions below verify that numerically rather than assume it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import dual
from .errors import DegenerateMetric, InvalidChartPoint
from .linalg import (COND_LIMIT, block_inverse, declared_rank, fill_blocks,
                     identity, kron, max_abs, numerical_rank, svd_rank)


# Sampler limits: sample_chart_point keeps cond(a^T a) <= A_COND_LIMIT and
# the assembled metric's condition <= METRIC_COND_LIMIT, within MAX_DRAWS
# draws.
A_COND_LIMIT = 1e4
METRIC_COND_LIMIT = 1e5
MAX_DRAWS = 200


def _read_only(m):
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class ChartPoint:
    """Chart data (a, lam) for a point of the rank-r stratum.

    ``a`` must have full column rank r; ``lam`` is unconstrained.  The
    ambient shape is p x q with q = r + lam.shape[1], and p >= q is
    required so the leading-columns chart convention makes sense.

    The point carries its geometry: the Jacobian, metric, guarded inverse,
    normal frame and rank of the ambient point are each computed on first
    use and kept as long as the point.  ``a`` and ``lam`` are stored as
    read-only copies, so none of it can go stale.
    """

    a: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        a = _read_only(np.array(self.a, dtype=float))
        lam = _read_only(np.array(self.lam, dtype=float))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "lam", lam)
        if a.ndim != 2 or lam.ndim != 2:
            raise InvalidChartPoint("a and lam must be 2-d arrays")
        p, r = a.shape
        if lam.shape[0] != r:
            raise InvalidChartPoint(
                f"lam has {lam.shape[0]} rows, expected r = {r}")
        q = r + lam.shape[1]
        if not (0 <= r < q <= p):
            raise InvalidChartPoint(
                f"need 0 <= r < q <= p, got p={p}, q={q}, r={r}")
        if r > 0 and self.a_rank.rank != r:
            raise InvalidChartPoint("a is column-rank deficient")

    @property
    def p(self):
        return self.a.shape[0]

    @property
    def r(self):
        return self.a.shape[1]

    @property
    def q(self):
        return self.r + self.lam.shape[1]

    @property
    def dim(self):
        """Stratum dimension r(p - r) + qr, also the chart coordinate count."""
        return self.r * (self.p - self.r) + self.q * self.r

    @cached_property
    def memo(self):
        """Where other modules keep what they derive from this point, under
        their own keys; it lives exactly as long as the point."""
        return {}

    @cached_property
    def a_gram_inv(self):
        return np.linalg.inv(self.a.T @ self.a)

    @cached_property
    def a_rank(self):
        """Rank decision on ``a``; its kernel basis spans ker(a^T)."""
        return svd_rank(self.a)

    @cached_property
    def x_rank(self):
        """Rank decision on the ambient point, refused unless it is r."""
        return declared_rank(chart_map(self), self.r)

    @cached_property
    def jacobian(self):
        """Ambient Jacobian, shape (pq, dim); see :func:`chart_jacobian`.

        The closed form is [kron(I_p, [I_r | lam]^T), kron(a, [0; I_{q-r}])].
        It is stored Fortran-ordered, as the transpose of a C-ordered
        (dim, pq) array: a C-ordered copy has the same entries, but BLAS
        then sums J^T K J and its kin in another order and the residuals
        built on them move in their last bits.
        """
        p, q, r = self.p, self.q, self.r
        rows = np.concatenate([
            kron(identity(p), np.concatenate([identity(r), self.lam], axis=1)),
            kron(self.a.T, np.concatenate([np.zeros((q - r, r)),
                                           identity(q - r)], axis=1))])
        return _read_only(rows.T)

    @cached_property
    def metric(self):
        """Metric blocks G, B, D as Kronecker forms; see :func:`induced_metric`."""
        p, q, r = self.p, self.q, self.r
        return MetricBlocks(
            _read_only(kron(identity(p), identity(r) + self.lam @ self.lam.T)),
            _read_only(kron(self.a, self.lam)),
            _read_only(kron(self.a.T @ self.a, identity(q - r))))

    @cached_property
    def metric_cond(self):
        """2-norm condition number of the assembled metric, in closed form.

        Rotating c by the SVD of a and (c, mu) by the SVD of lam splits the
        metric into 2 x 2 blocks, one per singular value sigma of a and s of
        lam, whose eigenvalues are the squared singular values of
        [[1, s], [0, sigma]]: t+ = (T + sqrt(T^2 - 4 sigma^2)) / 2 with
        T = 1 + s^2 + sigma^2, and t- = sigma^2 / t+.  Every other
        eigenvalue lies between them; t+ and t- grow with sigma and t+
        grows with s while t- falls, so the condition number is
        t+(sigma_1, s_1) / t-(sigma_r, s_1), and no metric is assembled.
        """
        if self.r == 0:
            return 1.0
        sigma = self.a_rank.singular_values
        top, bottom = float(sigma[0]), float(sigma[-1])
        s = float(np.linalg.svd(self.lam, compute_uv=False)[0])

        def t_plus(sig):
            # T^2 - 4 sig^2 = (1 + s^2 - sig^2)^2 + (2 s sig)^2, never < 0
            return 0.5 * (1.0 + s * s + sig * sig
                          + math.hypot(1.0 + s * s - sig * sig, 2.0 * s * sig))

        low = bottom * bottom / t_plus(bottom)
        return t_plus(top) / low if low > 0.0 else math.inf

    def invertible_metric(self):
        """The metric blocks, refused beyond ``COND_LIMIT``: the one guard
        of every inverse of the metric M = [[G, B], [B^T, D]].

        By Cauchy interlacing (Horn & Johnson, Matrix Analysis, Thm 4.3.28)
        the spectra of G, D and both Schur complements (inverses of
        principal blocks of M^-1) lie in [lambda_min(M), lambda_max(M)], so
        :attr:`metric_cond` bounds every matrix a block elimination inverts.
        """
        if self.metric_cond > COND_LIMIT:
            raise DegenerateMetric(
                f"assembled metric condition {self.metric_cond:.3e} "
                f"exceeds {COND_LIMIT:.1e}")
        return self.metric

    @cached_property
    def metric_inv(self):
        """LU inverse of the assembled metric; see :meth:`invertible_metric`."""
        metric = self.invertible_metric().assembled
        if metric.size == 0:
            return metric
        return _read_only(np.linalg.inv(metric))

    @cached_property
    def frame(self):
        """Normal frame; see :class:`NormalFrame` and :func:`normal_fields`."""
        kernel = self.a_rank.kernel_basis
        normals, gamma = normal_fields(kernel[None], self.lam[None])
        return NormalFrame(_read_only(normals[0]), _read_only(gamma[0]),
                           _read_only(kernel))


def normal_fields(kernel, lam):
    """The normal frame elements at every point of a stack.

    ``kernel`` holds an orthonormal basis of ker(a^T) per point, shape
    (points, p, p - r), and ``lam`` the chart's lam, shape
    (points, r, q - r).  Returns the elements, shape
    (points, (q - r)(p - r), p, q), and gamma, shape (points, q - r).
    Element (s', s'') is gamma_{s'} [k_{s''} lam_{s'}^T | -k_{s''} e_{s'}],
    with gamma_{s'} = (1 + |lam_{s'}|^2)^{-1/2} for column s' of lam.
    """
    points, r, q_r = lam.shape
    p, p_r = kernel.shape[1:]
    kernel_t = np.swapaxes(kernel, 1, 2)
    gamma = 1.0 / np.sqrt(1.0 + (lam ** 2).sum(axis=1))
    fields = np.zeros((points, q_r, p_r, p, r + q_r))
    fields[..., :r] = (kernel_t[:, None, :, :, None]
                       * np.swapaxes(lam, 1, 2)[:, :, None, None, :])
    trailing = np.arange(q_r)
    fields[:, trailing, :, :, r + trailing] = -kernel_t
    fields *= gamma[:, :, None, None, None]
    return fields.reshape(points, q_r * p_r, p, r + q_r), gamma


def sample_chart_point(p, q, r, rng):
    """Draw a chart point: a ~ iid standard normal, lam ~ uniform[-2, 2].

    Rejection keeps cond(a^T a) <= A_COND_LIMIT and the assembled metric's
    condition below METRIC_COND_LIMIT.  The metric bound sits a decade
    under the evaluation guard COND_LIMIT: inverse residuals scale like
    eps * cond, and 1e5 keeps them clear of the 1e-10 identity tolerance.
    cond(a^T a) is (sigma_1 / sigma_r)^2 of the point's own rank decision
    on ``a``, and the metric's condition is a closed form in those singular
    values and lam's (:attr:`ChartPoint.metric_cond`), so a draw costs one
    SVD of ``a`` and one of ``lam`` and assembles no metric; a column-rank
    deficient draw, which the point refuses, is rejected like an
    ill-conditioned one.
    """
    for _ in range(MAX_DRAWS):
        a = rng.normal(size=(p, r))
        lam = rng.uniform(-2.0, 2.0, size=(r, q - r))
        if r == 0:
            return ChartPoint(a, lam)
        try:
            cp = ChartPoint(a, lam)
        except InvalidChartPoint:
            if not r < q <= p:
                raise   # a shape error would repeat on every draw
            continue
        s = cp.a_rank.singular_values
        if ((s[0] / s[r - 1]) ** 2 > A_COND_LIMIT
                or cp.metric_cond > METRIC_COND_LIMIT):
            continue
        return cp
    raise DegenerateMetric(
        f"no well-conditioned chart point for (p,q,r)=({p},{q},{r}) "
        f"after {MAX_DRAWS} draws")


def chart_map(cp):
    """Ambient p x q matrix (a, a lam)."""
    return np.concatenate([cp.a, cp.a @ cp.lam], axis=1)


def chart_map_generic(a, lam):
    """Chart map on object arrays (dual-number evaluation path)."""
    return np.concatenate([a, np.dot(a, lam)], axis=1)


def chart_derivative(cp, c, mu):
    """Directional derivative DX(c, mu) = (c, c lam + a mu)."""
    c = np.asarray(c, dtype=float)
    mu = np.asarray(mu, dtype=float)
    return np.concatenate([c, c @ cp.lam + cp.a @ mu], axis=1)


def chart_jacobian(cp):
    """Ambient Jacobian, shape (pq, dim); columns follow (a, lam) row-major order."""
    return cp.jacobian


def chart_second_derivatives(cp):
    """Second-derivative tensor of the chart map, shape (pq, dim, dim).

    Only mixed a/lam entries are nonzero: pairing a_{Js} with lam_{s s'}
    contributes the ambient elementary matrix at (J, r + s').  The tensor
    depends on the shape alone and is shared read-only.
    """
    return _second_derivatives(cp.p, cp.q, cp.r)


# Sweeps visit one shape at a time, so one entry serves a whole cell;
# keeping every shape would hold megabytes for the run's lifetime.
@lru_cache(maxsize=1)
def _second_derivatives(p, q, r):
    dim = r * (p - r) + q * r
    j, s, sp = np.indices((p, r, q - r)).reshape(3, -1)
    amb = j * q + r + sp              # flat ambient position (j, r + sp)
    ia = j * r + s                    # chart coordinate a_{js}
    il = p * r + s * (q - r) + sp     # chart coordinate lam_{s sp}
    d2 = np.zeros((p * q, dim, dim))
    d2[amb, ia, il] = 1.0
    d2[amb, il, ia] = 1.0
    return _read_only(d2)


def chart_hessian_autodiff(cp):
    """Chart second derivatives via nested dual numbers (oracle route).

    Kept read-only in the point's memo, so the autodiff curvature and its
    second fundamental form share one evaluation.
    """
    d2x = cp.memo.get("parametric.chart_hessian_autodiff")
    if d2x is None:
        p, q, r = cp.p, cp.q, cp.r
        x0 = np.concatenate([cp.a.ravel(), cp.lam.ravel()])

        def flat_chart(vec):
            a = np.asarray(vec[:p * r]).reshape(p, r)
            lam = np.asarray(vec[p * r:]).reshape(r, q - r)
            return chart_map_generic(a, lam).ravel()

        d2x = cp.memo["parametric.chart_hessian_autodiff"] = _read_only(
            dual.hessian_of(flat_chart, x0))
    return d2x


@dataclass(frozen=True)
class MetricBlocks:
    """Pullback metric blocks in chart coordinates."""

    g: np.ndarray
    b: np.ndarray
    d: np.ndarray

    @cached_property
    def assembled(self):
        return _read_only(fill_blocks(self.g, self.b, self.b.T, self.d))


def induced_metric(cp):
    """Metric blocks G, B, D as Kronecker forms of the defining operators."""
    return cp.metric


def operator_form_inverse(cp, bottom_left_sign=-1.0):
    """Closed multiplicative form of the inverse metric.

    With Q = a (a^T a)^{-1} a^T, P = I - Q and
    M = lam lam^T (I + lam lam^T)^{-1}, the blocks are

        top-left:     I - kron(P, M)
        top-right:    -kron(a (a^T a)^{-1}, lam)
        bottom-left:  sign * kron((a^T a)^{-1} a^T, lam^T)
        bottom-right: kron((a^T a)^{-1}, I + lam^T lam)

    Symmetry of the inverse forces ``bottom_left_sign = -1``; the positive
    reading is kept selectable so callers can demonstrate numerically that
    it does not invert the metric (see ``operator_sign_adjudication``).
    """
    p, q, r = cp.p, cp.q, cp.r
    iata = cp.a_gram_inv
    proj_out = identity(p) - cp.a @ iata @ cp.a.T
    m = cp.lam @ cp.lam.T @ np.linalg.inv(identity(r) + cp.lam @ cp.lam.T)
    top_left = identity(p * r) - kron(proj_out, m)
    top_right = -kron(cp.a @ iata, cp.lam)
    bottom_left = bottom_left_sign * kron(iata @ cp.a.T, cp.lam.T)
    bottom_right = kron(iata, identity(q - r) + cp.lam.T @ cp.lam)
    return fill_blocks(top_left, top_right, bottom_left, bottom_right)


@dataclass(frozen=True)
class MetricInverse:
    """The three independent inverse routes, kept separate for comparison."""

    leading: np.ndarray     # Schur elimination through G
    trailing: np.ndarray    # Schur elimination through D
    operator: np.ndarray    # closed multiplicative form
    assembled: np.ndarray   # the metric the routes invert

    def routes(self):
        return {"leading": self.leading, "trailing": self.trailing,
                "operator": self.operator}

    def identity_residuals(self):
        """max |route @ metric - I| per route."""
        eye = identity(self.assembled.shape[0])
        return {name: max_abs(m @ self.assembled - eye)
                for name, m in self.routes().items()}

    def pairwise_disagreement(self):
        """Largest relative entrywise gap between any two routes."""
        mats = list(self.routes().values())
        scale = max(1.0, *(max_abs(m) for m in mats))
        worst = 0.0
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                worst = max(worst, max_abs(mats[i] - mats[j]))
        return worst / scale


def metric_inverse(cp):
    """Invert the induced metric three ways; callers compare, never trust one."""
    mb = cp.invertible_metric()
    lead = block_inverse(mb.g, mb.b, mb.d, pivot="leading")
    trail = block_inverse(mb.g, mb.b, mb.d, pivot="trailing")
    op = operator_form_inverse(cp)
    return MetricInverse(lead, trail, op, mb.assembled)


def operator_sign_adjudication(cp):
    """Residuals of both sign readings of the closed-form lower-left block.

    Returns ``{-1.0: residual, +1.0: residual}`` of ``route @ metric - I``;
    the reading that inverts the metric is the negative one.
    """
    metric = cp.metric.assembled
    eye = identity(metric.shape[0])
    out = {}
    for sign in (-1.0, +1.0):
        out[sign] = max_abs(operator_form_inverse(cp, sign) @ metric - eye)
    return out


@dataclass(frozen=True)
class NormalFrame:
    """Basis of the normal space at a chart point.

    For each of the q - r trailing columns s' and each of the p - r kernel
    directions e_{s''} of a^T, the ambient matrix

        N_{s' s''} = gamma_{s'} * (lam_{1 s'} e_{s''}, ..., lam_{r s'} e_{s''},
                                   0, ..., -e_{s''} at column r + s', ..., 0)

    is orthogonal to every tangent vector; gamma_{s'} = (1 + sum_k
    lam_{k s'}^2)^{-1/2} makes each element unit length.  Elements sharing a
    kernel direction are *not* mutually orthogonal: the frame Gram is
    kron(diag(gamma) (I + lam^T lam) diag(gamma), I_{p-r}), which is what
    :meth:`gram_closed_form` returns and tests pin down.
    """

    normals: np.ndarray       # (frame_size, p, q)
    gamma: np.ndarray         # (q - r,)
    kernel_basis: np.ndarray  # (p, p - r), orthonormal, ker(a^T)

    @property
    def frame_size(self):
        return self.normals.shape[0]

    def flat(self):
        return self.normals.reshape(self.frame_size, -1)

    @cached_property
    def gram(self):
        """Frame Gram ``flat @ flat.T``, read-only, built once per frame."""
        f = self.flat()
        return _read_only(f @ f.T)

    def gram_closed_form(self, lam):
        qr = len(self.gamma)
        blk = np.diag(self.gamma) @ (np.eye(qr) + lam.T @ lam) @ np.diag(self.gamma)
        p_r = self.kernel_basis.shape[1]
        return kron(blk, np.eye(p_r))


def normal_frame(cp):
    """Normal frame of size (q - r)(p - r); see :class:`NormalFrame`."""
    return cp.frame


def second_fundamental_form(cp):
    """Scalar second fundamental forms h^{(s' s'')} in closed form.

    Shape (q - r, p - r, dim, dim).  Entry (s', s'') pairs coordinate
    a_{J s} with lam_{s t'} and equals -gamma_{s'} delta_{s' t'} e_{s'', J};
    the sign follows the frame's -e_{s''} column.
    """
    p, q, r = cp.p, cp.q, cp.r
    frame = cp.frame
    h = np.zeros((q - r, p - r, cp.dim, cp.dim))
    for sp in range(q - r):
        for spp in range(p - r):
            coeff = -frame.gamma[sp] * frame.kernel_basis[:, spp]
            for j in range(p):
                for s in range(r):
                    ia = j * r + s
                    il = p * r + s * (q - r) + sp
                    h[sp, spp, ia, il] += coeff[j]
                    h[sp, spp, il, ia] += coeff[j]
    return h


def second_fundamental_form_autodiff(cp):
    """h via contraction of the frame with the dual-number chart Hessian.

    Independent oracle for :func:`second_fundamental_form`: no closed-form
    structure is assumed, the full (pq, dim, dim) Hessian is contracted.
    """
    d2x = chart_hessian_autodiff(cp)
    flat = cp.frame.flat()
    return np.einsum("af,fmn->amn", flat, d2x).reshape(
        cp.q - cp.r, cp.p - cp.r, cp.dim, cp.dim)


@dataclass(frozen=True)
class MeanCurvature:
    """Unnormalised mean curvature data at a chart point.

    ``components[s', s'']`` is the inverse-metric trace of the second
    fundamental form against frame element (s', s'').  ``trace_vector`` is
    the ambient matrix sum G^{mu nu} d2X_{mu nu}; minimality is equivalent
    to it being tangent, and ``tangency_residual`` measures exactly that
    against the closed-form tangent value -2 DX(0, (a^T a)^{-1} lam).
    ``ambient_vector`` is the normal projection of the trace vector,
    assembled through the dual frame since the frame is not orthonormal.

    ``tangency_residual`` is computed on first read, from the chart point
    kept in a hidden field: of the checks, only the parametric tangency gate
    reads it.  ``ambient_vector`` is computed with the components: the
    euclidean reduction reads it, so deferring it would only move its cost
    to its first reader.
    """

    components: np.ndarray
    ambient_vector: np.ndarray
    trace_vector: np.ndarray
    metric_scale: float
    _chart: ChartPoint = field(repr=False, compare=False)

    @property
    def max_component(self):
        return max_abs(self.components)

    @cached_property
    def tangency_residual(self):
        cp = self._chart
        tangent_target = -2.0 * chart_derivative(
            cp, np.zeros((cp.p, cp.r)), cp.a_gram_inv @ cp.lam)
        return float(np.linalg.norm(self.trace_vector - tangent_target))


def mean_curvature(cp, use_autodiff=False):
    """Mean-curvature components against the normal frame.

    The metric inverse is generic (LU solve of the assembled metric); the
    second derivatives are analytic.  With ``use_autodiff`` the closed-form
    second derivatives are replaced by the dual-number Hessian route, which
    is slower but shares no code with the primary path.
    """
    p, q, r = cp.p, cp.q, cp.r
    ginv = cp.metric_inv
    frame = cp.frame

    if use_autodiff:
        h = second_fundamental_form_autodiff(cp)
        comps = np.einsum("abmn,mn->ab", h, ginv)
        d2x = chart_hessian_autodiff(cp)
        trace_flat = np.einsum("fmn,mn->f", d2x, ginv)
        trace = trace_flat.reshape(p, q)
    else:
        off = ginv[:p * r, p * r:].reshape(p, r, r, q - r)
        contracted = np.einsum("jsst->jt", off)       # (p, q - r)
        comps = -2.0 * frame.gamma[:, None] * (contracted.T @ frame.kernel_basis)
        trace = np.zeros((p, q))
        trace[:, r:] = 2.0 * contracted

    flat = frame.flat()
    dual_coeff = (np.linalg.solve(frame.gram, comps.ravel()) if flat.size
                  else comps.ravel())
    ambient = (dual_coeff @ flat).reshape(p, q) if flat.size else np.zeros((p, q))

    scale = max(1.0, max_abs(ginv))
    return MeanCurvature(comps, ambient, trace, scale, cp)


@dataclass(frozen=True)
class StructureCheck:
    """How the mixed inverse-metric block sits over the column space of a."""

    projection_residual: float
    closed_form_residual: float


def o_p_structure_check(cp):
    """Verify the mixed block of the inverse metric lives in span(columns of a).

    Each p-vector slice (fixed chart indices s, t, s') of the numerically
    inverted metric's a/lam block is projected onto the column space of a;
    the block must also match its closed form -(a (a^T a)^{-1})_{J t}
    lam_{s s'} entrywise.  Both residuals are relative, floored at scale 1.
    """
    p, q, r = cp.p, cp.q, cp.r
    ginv = cp.metric_inv
    off = ginv[:p * r, p * r:].reshape(p, r, r, q - r)
    if off.size == 0:
        return StructureCheck(0.0, 0.0)
    basis = cp.a_rank.range_basis
    slices = off.transpose(1, 2, 3, 0).reshape(-1, p)    # rows indexed by (s,t,s')
    resid = slices - (slices @ basis) @ basis.T
    num = np.linalg.norm(resid, axis=1)
    den = np.maximum(1.0, np.linalg.norm(slices, axis=1))
    projection = float((num / den).max())
    closed = -np.einsum("jt,su->jstu", cp.a @ cp.a_gram_inv, cp.lam)
    closed_resid = max_abs(off - closed) / max(1.0, max_abs(off))
    return StructureCheck(projection, closed_resid)


def stratum_dimension_check(cp):
    """Jacobian rank and frame size versus the closed-form dimension counts."""
    jac = cp.jacobian
    rank = numerical_rank(jac)
    expected_dim = cp.r * (cp.p - cp.r) + cp.q * cp.r
    frame_size = cp.frame.frame_size
    expected_frame = (cp.q - cp.r) * (cp.p - cp.r)
    return {
        "jacobian_rank": rank,
        "expected_dim": expected_dim,
        "frame_size": frame_size,
        "expected_frame": expected_frame,
        "ok": rank == expected_dim and frame_size == expected_frame,
    }
