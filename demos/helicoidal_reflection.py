"""
Minimality without derivatives
==============================

Reflect the matrix space through the column space of a rank-r point X.
That reflection is an ambient isometry, it fixes X, it maps the stratum
to itself, and it reverses every normal vector at X.  A mean curvature
vector would have to be fixed and reversed at once, so it is zero.  The
script checks each ingredient numerically at a sample point.
"""

import numpy as np

from detmin.helicoidal import (helicoidal_certificate, normal_reversal,
                               reflection, sample_tangent_family,
                               tangent_membership)
from detmin.linalg import make_rng, stratum_bases
from detmin.parametric import chart_map, sample_chart_point

rng = make_rng(13)
p, q, r = 5, 4, 2
x = chart_map(sample_chart_point(p, q, r, rng))

refl = reflection(x, r)
res = refl.invariant_residuals(x)
print(f"reflection at a rank-{r} point of the {p} x {q} space")
for name, value in res.items():
    print(f"  {name:<12} {value:.2e}")
print(f"  det B = {np.linalg.det(refl.matrix):+.0f} = (-1)^(p - r)")

# rank is preserved under left multiplication by any invertible matrix,
# in particular by B: the stratum maps to itself
y = chart_map(sample_chart_point(p, q, r, rng))
print(f"\nrank of B @ Y for another stratum point: "
      f"{np.linalg.matrix_rank(refl.matrix @ y)}")

# matrices whose column (or row) space sits inside that of x are tangent
for kind in ("column", "row"):
    ok, resid = tangent_membership(
        x, sample_tangent_family(x, r, rng, kind), r)
    print(f"{kind:>6}-family tangent vector: residual {resid:.2e}")

# the tangent space is spanned by the orbit directions A X + X B and the
# normal space is its orthocomplement.  Every normal has its columns in
# the orthocomplement of col(x), so B multiplies it by -1; a generic
# normal is nowhere near tangent
print(f"\nnormal reversal |B W + W|      = {normal_reversal(x, r):.2e}")
w = stratum_bases(x)[1][:, 0].reshape(p, q)
print(f"same normal tested as tangent = "
      f"{tangent_membership(x, w, r)[1]:.2f}  (should be order one)")

cert = helicoidal_certificate(x, r, rng)
print(f"\nfull certificate passes: {cert.ok()}")

# the orbit description needs no chart, so a point whose leading pair of
# columns is dependent (out of reach of the leading-columns chart) is
# certified like any other
degenerate = x.copy()
degenerate[:, 0] = degenerate[:, 1]  # leading pair now rank one
print(f"certificate with a dependent leading pair passes: "
      f"{helicoidal_certificate(degenerate, r, rng).ok()}")

# the origin is the whole rank-0 stratum; the reflection degenerates to
# minus the identity and still reverses everything
origin_cert = helicoidal_certificate(np.zeros((p, q)), 0, rng)
print(f"rank-0 certificate at the cone point passes: {origin_cert.ok()}")
