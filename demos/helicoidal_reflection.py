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

from detmin.helicoidal import (helicoidal_certificate, off_span, reflection,
                               tangent_family)
from detmin.linalg import (declared_rank, derived_rng, reflection_residuals,
                           reversal, stratum_bases)
from detmin.parametric import chart_map, sample_chart_point
from detmin.sweep import CHECKS


def against(name, value):
    """A residual next to the tolerance the sweep's registry gives it."""
    return f"{value:.2e}  (tol {CHECKS[name].tolerance:.0e}, {name})"


def show_certificate(title, cert):
    print(title)
    for name, value in (
            ("helicoidal.reflection", max(cert.reflection_residuals.values())),
            ("helicoidal.isometry", cert.isometry_residual),
            ("helicoidal.tangent-membership",
             max(cert.tangent_residuals.values())),
            ("helicoidal.normal-reversal", cert.normal_reversal),
            # evidence, not a gate: it must stay far above its tolerance
            ("helicoidal.counter-control", cert.counter_control)):
        print(f"  {against(name, value)}")
    print(f"  ranks of z and B z: {cert.sample_ranks}")


rng = derived_rng(13)
p, q, r = 5, 4, 2
x = chart_map(sample_chart_point(p, q, r, rng))
# declaring the rank refuses a point off the stratum; the column space,
# the row space and the orbit bases are each read once
x_rank = declared_rank(x, r)
tangent, normal = stratum_bases(x, r)

b = reflection(x_rank)
res = reflection_residuals(b, np.ones(p), x)
print(f"reflection at a rank-{r} point of the {p} x {q} space")
for name, value in res.items():
    print(f"  {name:<12} {value:.2e}")
print(f"  det B = {np.linalg.det(b):+.0f} = (-1)^(p - r)")

# rank is preserved under left multiplication by any invertible matrix,
# in particular by B: the stratum maps to itself
y = chart_map(sample_chart_point(p, q, r, rng))
print(f"\nrank of B @ Y for another stratum point: "
      f"{np.linalg.matrix_rank(b @ y)}")

# matrices whose column (or row) space sits inside that of x are tangent
for kind in ("column", "row"):
    resid = off_span(tangent, tangent_family(x_rank, rng, kind))
    print(f"{kind:>6}-family tangent vector: "
          f"{against('helicoidal.tangent-membership', resid)}")

# the tangent space is spanned by the orbit directions A X + X B and the
# normal space is its orthocomplement.  Every normal has its columns in
# the orthocomplement of col(x), so B multiplies it by -1; a generic
# normal is nowhere near tangent
print(f"\nnormal reversal |B W + W|: "
      f"{against('helicoidal.normal-reversal', reversal(b, normal, x.shape))}")
w = normal[:, 0].reshape(p, q)
print(f"same normal tested as tangent (should be order one): "
      f"{against('helicoidal.counter-control', off_span(tangent, w))}")

show_certificate("\nfull certificate:", helicoidal_certificate(x, r, rng))

# the orbit description needs no chart, so a point whose leading pair of
# columns is dependent (out of reach of the leading-columns chart) is
# certified like any other
degenerate = x.copy()
degenerate[:, 0] = degenerate[:, 1]  # leading pair now rank one
show_certificate("certificate with a dependent leading pair:",
                 helicoidal_certificate(degenerate, r, rng))

# the origin is the whole rank-0 stratum; the reflection degenerates to
# minus the identity and still reverses everything
show_certificate("rank-0 certificate at the cone point:",
                 helicoidal_certificate(np.zeros((p, q)), 0, rng))
