"""Finite-difference first variation of the volume functional.

Independent oracle for vanishing mean curvature.  For a normal field N(u)
along the chart immersion X(u), the volume density A(u) = sqrt(det Gram)
of the deformed immersion X + t N satisfies, pointwise,

    d/dt log A |_{t=0} = -<H, N>,

because <dX, N> vanishes identically in u for a *field* of normals (not
just a single normal at the base point).  So differencing the density of
the deformed immersion in t, with the Jacobian itself obtained by central
differences in u, measures the mean-curvature component along N without
touching any analytic derivative used by the primary pipeline.

The frame's kernel directions come from an SVD, whose gauge (signs,
rotations inside the kernel) is not continuous in u.  The field therefore
transports the base point's kernel basis: project it onto ker(a^T) with
I - a (a^T a)^{-1} a^T and re-orthonormalise with a sign-fixed QR, which is
smooth near the base point and agrees with the base basis at it.
"""

from __future__ import annotations

import numpy as np

from .parametric import ChartPoint, chart_map, normal_frame


def _sign_fixed_orthonormalize(m):
    q, r = np.linalg.qr(m)
    sign = np.sign(np.diag(r))
    sign[sign == 0] = 1.0
    return q * sign


def _transported_kernel(a, base_kernel):
    gram_inv = np.linalg.inv(a.T @ a) if a.shape[1] else np.zeros((0, 0))
    proj = base_kernel - a @ (gram_inv @ (a.T @ base_kernel))
    return _sign_fixed_orthonormalize(proj)


def _normal_fields(kernel, lam):
    """Every frame element's field, shape (frame_size, p, q), at one point.

    Element (s', s'') is gamma_{s'} * [k_{s''} lam_{s'}^T | -k_{s''} e_{s'}]
    with k the transported kernel there.
    """
    r, q_r = lam.shape
    p, p_r = kernel.shape
    fields = np.zeros((q_r, p_r, p, r + q_r))
    for sp in range(q_r):
        fields[sp, ..., :r] = kernel.T[:, :, None] * lam[:, sp]
        fields[sp, ..., r + sp] = -kernel.T
        fields[sp] *= 1.0 / np.sqrt(1.0 + (lam[:, sp] ** 2).sum())
    return fields.reshape(-1, p, r + q_r)


def _offsets(cp, h):
    """Chart points at x0 + h e_k and x0 - h e_k for each chart coordinate k.

    Built as ``ChartPoint`` so that each one's rank is checked.
    """
    x0 = np.concatenate([cp.a.ravel(), cp.lam.ravel()])
    p, q, r = cp.p, cp.q, cp.r
    points = []
    for k in range(x0.size):
        for step in (h, -h):
            vec = x0.copy()
            vec[k] += step
            points.append(ChartPoint(vec[:p * r].reshape(p, r),
                                     vec[p * r:].reshape(r, q - r)))
    return points


def _density(x, n, t, h):
    """sqrt(det Gram) of u -> X(u) + t N(u), Jacobian by central differences.

    ``x`` and ``n`` hold X and N at the points of :func:`_offsets`, in its
    order, each as a p x q matrix; ``n`` may be a scalar 0.
    """
    p, q = x.shape[1:]
    values = (x + t * n).reshape(-1, 2, p * q)
    # C-ordered (pq, dim): the layout fixes how BLAS sums J^T J
    jac = np.ascontiguousarray(((values[:, 0] - values[:, 1]) / (2.0 * h)).T)
    gram = jac.T @ jac
    return float(np.sqrt(np.linalg.det(gram)))


def volume_variation(cp):
    """Normalised first variation of volume along every frame normal.

    Returns an array of length (q - r)(p - r) whose entry alpha approximates
    (d/dt) log A for the deformation along frame element alpha; up to the
    finite-difference error this equals minus the mean-curvature component
    against that element, so on a minimal stratum every entry is ~0.
    """
    scale = 1.0 + max(np.abs(cp.a).max(initial=0.0), np.abs(cp.lam).max(initial=0.0))
    # one central-difference step, in chart coordinates and along normals
    h = np.cbrt(np.finfo(float).eps) * scale
    frame = normal_frame(cp)
    points = _offsets(cp, h)
    x = np.zeros((len(points), cp.p, cp.q))
    n = np.zeros((len(points), frame.frame_size, cp.p, cp.q))
    for i, point in enumerate(points):
        x[i] = chart_map(point)
        n[i] = _normal_fields(
            _transported_kernel(point.a, frame.kernel_basis), point.lam)
    a0 = _density(x, 0.0, 0.0, h)
    out = np.zeros(frame.frame_size)
    for alpha in range(frame.frame_size):
        plus = _density(x, n[:, alpha], +h, h)
        minus = _density(x, n[:, alpha], -h, h)
        out[alpha] = (plus - minus) / (2.0 * h * a0)
    return out
