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


def _normal_field(cp, base_kernel, index):
    """Smooth extension u -> N_index(u) of the frame element at cp."""
    q_r = cp.q - cp.r
    p_r = cp.p - cp.r
    sp, spp = divmod(index, p_r)
    if not (0 <= sp < q_r):
        raise IndexError(f"frame index {index} out of range")

    def field(a, lam):
        kernel = _transported_kernel(a, base_kernel)
        gamma = 1.0 / np.sqrt(1.0 + (lam[:, sp] ** 2).sum())
        n = np.zeros((a.shape[0], cp.q))
        n[:, :cp.r] = np.outer(kernel[:, spp], lam[:, sp])
        n[:, cp.r + sp] = -kernel[:, spp]
        return gamma * n

    return field


def _density(cp, field, t, h):
    """sqrt(det Gram) of u -> X(u) + t N(u), Jacobian by central differences."""
    x0 = np.concatenate([cp.a.ravel(), cp.lam.ravel()])
    p, q, r = cp.p, cp.q, cp.r

    def immersion(vec):
        a = vec[:p * r].reshape(p, r)
        lam = vec[p * r:].reshape(r, q - r)
        return (chart_map(ChartPoint(a, lam)) + t * field(a, lam)).ravel()

    d = x0.size
    jac = np.zeros((p * q, d))
    for k in range(d):
        xp = x0.copy(); xp[k] += h
        xm = x0.copy(); xm[k] -= h
        jac[:, k] = (immersion(xp) - immersion(xm)) / (2.0 * h)
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
    base_kernel = frame.kernel_basis
    a0 = _density(cp, lambda a, lam: np.zeros((cp.p, cp.q)), 0.0, h)
    out = np.zeros(frame.frame_size)
    for alpha in range(frame.frame_size):
        field = _normal_field(cp, base_kernel, alpha)
        plus = _density(cp, field, +h, h)
        minus = _density(cp, field, -h, h)
        out[alpha] = (plus - minus) / (2.0 * h * a0)
    return out
