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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import dual
from .errors import DegenerateMetric, InvalidChartPoint
from .linalg import (COND_LIMIT, block_inverse, max_abs, spectral_cond,
                     svd_rank)


@dataclass(frozen=True)
class ChartPoint:
    """Chart data (a, lam) for a point of the rank-r stratum.

    ``a`` must have full column rank r; ``lam`` is unconstrained.  The
    ambient shape is p x q with q = r + lam.shape[1], and p >= q is
    required so the leading-columns chart convention makes sense.
    """

    a: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        lam = np.asarray(self.lam, dtype=float)
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
        if r > 0 and svd_rank(a).rank != r:
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
    def a_gram_inv(self):
        return np.linalg.inv(self.a.T @ self.a)


def sample_chart_point(p, q, r, rng, cond_limit=1e4, lam_bound=2.0,
                       metric_cond_limit=1e5, max_tries=200):
    """Draw a chart point: a ~ iid standard normal, lam ~ uniform[-b, b].

    Rejection keeps cond(a^T a) <= cond_limit and the assembled metric's
    condition below ``metric_cond_limit``.  The metric bound sits a decade
    under the evaluation guard COND_LIMIT: inverse residuals scale like
    eps * cond, and 1e5 keeps them clear of the 1e-10 identity tolerance.
    """
    for _ in range(max_tries):
        a = rng.normal(size=(p, r))
        lam = rng.uniform(-lam_bound, lam_bound, size=(r, q - r))
        if r > 0:
            if spectral_cond(a.T @ a) > cond_limit:
                continue
            cp = ChartPoint(a, lam)
            if spectral_cond(induced_metric(cp).assembled) > metric_cond_limit:
                continue
            return cp
        return ChartPoint(a, lam)
    raise DegenerateMetric(
        f"no well-conditioned chart point for (p,q,r)=({p},{q},{r}) "
        f"after {max_tries} draws")


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
    p, q, r = cp.p, cp.q, cp.r
    cols = np.zeros((cp.dim, p * q))
    for k in range(p * r):
        c = np.zeros(p * r)
        c[k] = 1.0
        cols[k] = chart_derivative(cp, c.reshape(p, r),
                                   np.zeros((r, q - r))).ravel()
    for k in range(r * (q - r)):
        mu = np.zeros(r * (q - r))
        mu[k] = 1.0
        cols[p * r + k] = chart_derivative(cp, np.zeros((p, r)),
                                           mu.reshape(r, q - r)).ravel()
    return cols.T


def chart_second_derivatives(cp):
    """Second-derivative tensor of the chart map, shape (pq, dim, dim).

    Only mixed a/lam entries are nonzero: pairing a_{Js} with lam_{s s'}
    contributes the ambient elementary matrix at (J, r + s').
    """
    p, q, r = cp.p, cp.q, cp.r
    d2 = np.zeros((p * q, cp.dim, cp.dim))
    for j in range(p):
        for s in range(r):
            ia = j * r + s
            for sp in range(q - r):
                il = p * r + s * (q - r) + sp
                amb = np.zeros((p, q))
                amb[j, r + sp] = 1.0
                flat = amb.ravel()
                d2[:, ia, il] += flat
                d2[:, il, ia] += flat
    return d2


def chart_hessian_autodiff(cp):
    """Chart second derivatives via nested dual numbers (oracle route)."""
    p, q, r = cp.p, cp.q, cp.r
    x0 = np.concatenate([cp.a.ravel(), cp.lam.ravel()])

    def flat_chart(vec):
        a = np.asarray(vec[:p * r]).reshape(p, r)
        lam = np.asarray(vec[p * r:]).reshape(r, q - r)
        return chart_map_generic(a, lam).ravel()

    return dual.hessian_of(flat_chart, x0)


@dataclass(frozen=True)
class MetricBlocks:
    """Pullback metric blocks in chart coordinates."""

    g: np.ndarray
    b: np.ndarray
    d: np.ndarray

    @property
    def assembled(self):
        return np.block([[self.g, self.b], [self.b.T, self.d]])


def induced_metric(cp):
    """Metric blocks G, B, D as Kronecker forms of the defining operators."""
    p, q, r = cp.p, cp.q, cp.r
    g = np.kron(np.eye(p), np.eye(r) + cp.lam @ cp.lam.T)
    b = np.kron(cp.a, cp.lam)
    d = np.kron(cp.a.T @ cp.a, np.eye(q - r))
    return MetricBlocks(g, b, d)


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
    proj_out = np.eye(p) - cp.a @ iata @ cp.a.T
    m = cp.lam @ cp.lam.T @ np.linalg.inv(np.eye(r) + cp.lam @ cp.lam.T)
    top_left = np.eye(p * r) - np.kron(proj_out, m)
    top_right = -np.kron(cp.a @ iata, cp.lam)
    bottom_left = bottom_left_sign * np.kron(iata @ cp.a.T, cp.lam.T)
    bottom_right = np.kron(iata, np.eye(q - r) + cp.lam.T @ cp.lam)
    return np.block([[top_left, top_right], [bottom_left, bottom_right]])


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
        n = self.assembled.shape[0]
        eye = np.eye(n)
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
    mb = induced_metric(cp)
    lead = block_inverse(mb.g, mb.b, mb.d, pivot="leading").full
    trail = block_inverse(mb.g, mb.b, mb.d, pivot="trailing").full
    op = operator_form_inverse(cp)
    return MetricInverse(lead, trail, op, mb.assembled)


def operator_sign_adjudication(cp):
    """Residuals of both sign readings of the closed-form lower-left block.

    Returns ``{-1.0: residual, +1.0: residual}`` of ``route @ metric - I``;
    the reading that inverts the metric is the negative one.
    """
    metric = induced_metric(cp).assembled
    eye = np.eye(metric.shape[0])
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

    def gram(self):
        f = self.flat()
        return f @ f.T

    def gram_closed_form(self, lam):
        qr = len(self.gamma)
        blk = np.diag(self.gamma) @ (np.eye(qr) + lam.T @ lam) @ np.diag(self.gamma)
        p_r = self.kernel_basis.shape[1]
        return np.kron(blk, np.eye(p_r))


def normal_frame(cp):
    """Normal frame of size (q - r)(p - r); see :class:`NormalFrame`."""
    p, q, r = cp.p, cp.q, cp.r
    kernel = svd_rank(cp.a).kernel_basis
    gamma = 1.0 / np.sqrt(1.0 + (cp.lam ** 2).sum(axis=0))
    frames = np.zeros(((q - r) * (p - r), p, q))
    idx = 0
    for sp in range(q - r):
        for spp in range(p - r):
            n = np.zeros((p, q))
            n[:, :r] = np.outer(kernel[:, spp], cp.lam[:, sp])
            n[:, r + sp] = -kernel[:, spp]
            frames[idx] = gamma[sp] * n
            idx += 1
    return NormalFrame(frames, gamma, kernel)


def second_fundamental_form(cp, frame=None):
    """Scalar second fundamental forms h^{(s' s'')} in closed form.

    Shape (q - r, p - r, dim, dim).  Entry (s', s'') pairs coordinate
    a_{J s} with lam_{s t'} and equals -gamma_{s'} delta_{s' t'} e_{s'', J};
    the sign follows the frame's -e_{s''} column.
    """
    p, q, r = cp.p, cp.q, cp.r
    if frame is None:
        frame = normal_frame(cp)
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


def second_fundamental_form_autodiff(cp, frame=None):
    """h via contraction of the frame with the dual-number chart Hessian.

    Independent oracle for :func:`second_fundamental_form`: no closed-form
    structure is assumed, the full (pq, dim, dim) Hessian is contracted.
    """
    if frame is None:
        frame = normal_frame(cp)
    d2x = chart_hessian_autodiff(cp)
    flat = frame.flat()
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
    """

    components: np.ndarray
    ambient_vector: np.ndarray
    trace_vector: np.ndarray
    tangency_residual: float
    metric_scale: float

    @property
    def max_component(self):
        return max_abs(self.components)

    def verdict(self, tol=1e-9):
        return self.max_component <= tol * self.metric_scale


def _guarded_metric_inverse(cp):
    """LU inverse of the assembled metric, refused beyond ``COND_LIMIT``."""
    metric = induced_metric(cp).assembled
    if metric.size == 0:
        return metric
    if spectral_cond(metric) > COND_LIMIT:
        raise DegenerateMetric(
            f"assembled metric condition exceeds {COND_LIMIT:.1e}")
    return np.linalg.inv(metric)


def mean_curvature(cp, use_autodiff=False):
    """Mean-curvature components against the normal frame.

    The metric inverse is generic (LU solve of the assembled metric); the
    second derivatives are analytic.  With ``use_autodiff`` the closed-form
    second derivatives are replaced by the dual-number Hessian route, which
    is slower but shares no code with the primary path.
    """
    p, q, r = cp.p, cp.q, cp.r
    ginv = _guarded_metric_inverse(cp)
    frame = normal_frame(cp)

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

    tangent_target = -2.0 * chart_derivative(
        cp, np.zeros((p, r)), cp.a_gram_inv @ cp.lam)
    tangency = float(np.linalg.norm(trace - tangent_target))

    flat = frame.flat()
    gram = flat @ flat.T
    dual_coeff = np.linalg.solve(gram, comps.ravel()) if flat.size else comps.ravel()
    ambient = (dual_coeff @ flat).reshape(p, q) if flat.size else np.zeros((p, q))

    scale = max(1.0, max_abs(ginv))
    return MeanCurvature(comps, ambient, trace, tangency, scale)


@dataclass(frozen=True)
class StructureCheck:
    """How the mixed inverse-metric block sits over the column space of a."""

    projection_residual: float
    closed_form_residual: float

    def ok(self, tol=1e-10):
        return (self.projection_residual <= tol
                and self.closed_form_residual <= tol)


def o_p_structure_check(cp):
    """Verify the mixed block of the inverse metric lives in span(columns of a).

    Each p-vector slice (fixed chart indices s, t, s') of the numerically
    inverted metric's a/lam block is projected onto the column space of a;
    the block must also match its closed form -(a (a^T a)^{-1})_{J t}
    lam_{s s'} entrywise.  Both residuals are relative, floored at scale 1.
    """
    p, q, r = cp.p, cp.q, cp.r
    ginv = _guarded_metric_inverse(cp)
    off = ginv[:p * r, p * r:].reshape(p, r, r, q - r)
    if off.size == 0:
        return StructureCheck(0.0, 0.0)
    basis = np.linalg.svd(cp.a, full_matrices=False)[0]  # orthonormal, spans C(a)
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
    jac = chart_jacobian(cp)
    rank = svd_rank(jac).rank if jac.size else 0
    expected_dim = cp.r * (cp.p - cp.r) + cp.q * cp.r
    frame_size = normal_frame(cp).frame_size
    expected_frame = (cp.q - cp.r) * (cp.p - cp.r)
    return {
        "jacobian_rank": rank,
        "expected_dim": expected_dim,
        "frame_size": frame_size,
        "expected_frame": expected_frame,
        "ok": rank == expected_dim and frame_size == expected_frame,
    }
