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

Evaluation is stacked: the 2 dim chart points of the difference stencil
are one (2 dim, p, r) / (2 dim, r, q - r) pair of arrays, admitted by one
closed-form guard on the singular values the base point already holds (no
SVD of any step), and the 1 + 2 (frame size) densities are one stacked
determinant.  Stacked numpy linear algebra runs the same LAPACK and BLAS
routine on every slice, and the elementwise steps are the same operations
in the same order, so every slice carries the same float operations as a
point evaluated alone.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidChartPoint
from .linalg import COND_LIMIT, _rank_tolerance
from .parametric import normal_fields, normal_frame


def _transported_kernel(a, base_kernel):
    """The base kernel basis moved to ker(a^T) at ``a``, a p x r matrix or a
    stack of them; each slice is projected and sign-fixed QR'd alone."""
    a_t = np.swapaxes(a, -1, -2)
    gram_inv = (np.linalg.inv(a_t @ a) if a.shape[-1]
                else np.zeros(a.shape[:-2] + (0, 0)))
    proj = base_kernel - a @ (gram_inv @ (a_t @ base_kernel))
    q, r = np.linalg.qr(proj)
    sign = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    sign[sign == 0] = 1.0
    return q * sign[..., None, :]


def _offsets(cp, h):
    """Chart coordinates x0 + h e_k and x0 - h e_k for each chart coordinate k.

    Returns the stacks of a, shape (2 dim, p, r), and lam, shape
    (2 dim, r, q - r), in the order k = 0, 1, ..., +h before -h.

    The stencil is guarded in closed form, from the singular values
    s_1 >= ... >= s_r the point's ``a_rank`` already holds.  A step moves
    one entry of a by h, so its perturbation has spectral norm h, and by
    Weyl's inequality (Horn & Johnson, Matrix Analysis, Cor. 7.3.5) every
    singular value of a step's a lies within h of the same one of a.  The
    rounding of a's SVD, of the stored step and of the step's own SVD is of
    order max(p, r) eps s_1, the size ``_rank_tolerance`` allows for; with
    hh = h + that tolerance, every step's a has

        s_r - hh <= sigma_r(step) <= sigma_1(step) <= s_1 + hh.

    The guard refuses the stencil (:class:`InvalidChartPoint`) unless
    s_r > hh and (s_1 + hh)^2 <= COND_LIMIT (s_r - hh)^2.  Then every
    step's a^T a, which ``_transported_kernel`` inverts, has condition
    (sigma_1 / sigma_r)^2 <= COND_LIMIT, and since
    sqrt(COND_LIMIT) max(p, r) eps RANK_TOL_FACTOR < 1, every sigma_r(step)
    >= sigma_1(step) / sqrt(COND_LIMIT) lies far above the ``svd_rank``
    threshold: each step has rank r.  A step in lam leaves a as it is, and
    an r = 0 stencil has no singular value to guard.
    """
    p, q, r = cp.p, cp.q, cp.r
    s = cp.a_rank.singular_values
    if s.size:
        hh = h + _rank_tolerance(s, cp.a.shape)
        if not (s[-1] > hh
                and (s[0] + hh) ** 2 <= COND_LIMIT * (s[-1] - hh) ** 2):
            raise InvalidChartPoint(
                f"a difference step of {h:.3e} may leave a column-rank "
                f"deficient or ill-conditioned (singular values {s})")
    x0 = np.concatenate([cp.a.ravel(), cp.lam.ravel()])
    dim = x0.size
    vecs = np.repeat(x0[None, :], 2 * dim, axis=0)
    k = np.arange(dim)
    vecs[2 * k, k] += h
    vecs[2 * k + 1, k] -= h
    return (vecs[:, :p * r].reshape(2 * dim, p, r),
            vecs[:, p * r:].reshape(2 * dim, r, q - r))


def _densities(x, fields, steps, h):
    """sqrt(det Gram) of u -> X(u) + t N(u) for each step t and its field N.

    ``x`` holds X at the points of :func:`_offsets`, in its order, shape
    (2 dim, p, q); ``fields`` holds one field N per step at the same points,
    shape (steps, 2 dim, p, q).  The Jacobians are central differences, and
    all Gram determinants are one stacked call.
    """
    count, points, p, q = fields.shape
    values = (x + steps[:, None, None, None] * fields).reshape(
        count, points // 2, 2, p * q)
    jac_t = (values[:, :, 0] - values[:, :, 1]) / (2.0 * h)
    return np.sqrt(np.linalg.det(jac_t @ np.swapaxes(jac_t, 1, 2)))


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
    a, lam = _offsets(cp, h)
    x = np.concatenate([a, a @ lam], axis=2)
    normals, _ = normal_fields(
        _transported_kernel(a, frame.kernel_basis), lam)
    n = np.moveaxis(normals, 1, 0)
    # the undeformed immersion, then +h and -h along each frame element
    steps = np.concatenate([[0.0], np.tile([h, -h], frame.frame_size)])
    fields = np.concatenate([np.zeros((1,) + x.shape),
                             np.repeat(n, 2, axis=0)])
    dens = _densities(x, fields, steps, h)
    return (dens[1::2] - dens[2::2]) / (2.0 * h * dens[0])
