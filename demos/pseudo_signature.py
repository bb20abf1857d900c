"""
Indefinite ambient forms
========================

Replace tr(X^T Y) by tr(zeta X^T eta Y) with diagonal +-1 forms eta and
zeta.  The flat ambient Gram is the Kronecker product of the two sign
vectors, strata acquire signatures and a degenerate cone, and away from
the cone the trace of the second derivatives against the inverse metric
is still tangent.  The reflection argument survives too, now through the
eta-orthogonal projection.
"""

import numpy as np

from detmin.linalg import derived_rng, max_abs, reflection_residuals
from detmin.parametric import ChartPoint, chart_map, mean_curvature, \
    sample_chart_point
from detmin.pseudo import (IndefiniteForm, degeneracy_scan, form_reflection,
                           hyperbolic_det_residual, induced_signature_check,
                           normal_reversal, pseudo_minimality,
                           sample_pseudo_point, signature_adjudication)

rng = derived_rng(19)

# ambient signature: eigenvalue counts of kron(eta, zeta) against the two
# closed-form readings.  The paired count is right for every pattern; the
# crossed one already fails for a definite eta.
eta2 = IndefiniteForm.from_counts(2, 0)
zeta2 = IndefiniteForm.from_string("+-")
adj = signature_adjudication(eta2, zeta2)
print(f"eta = {eta2}, zeta = {zeta2}:")
print(f"  eigen   {adj['eigen']}")
print(f"  paired  {adj['paired']}")
print(f"  crossed {adj['crossed']}")

# the 2 x 2 rank-1 stratum in this ambient: det Ghat = a^T a (lam^2 - 1),
# so lam = +-1 is a genuine degenerate cone inside the stratum
a = np.array([1.0, 0.0])
print(f"\ndet formula residual at a = (1, 0), lam = 2: "
      f"{hyperbolic_det_residual(a, 2.0):.2e}")
for lam in (0.5, 1.0, 2.0):
    cp = ChartPoint(a.reshape(2, 1), np.array([[lam]]))
    sig = degeneracy_scan(cp, eta2, zeta2).signature
    print(f"  lam = {lam:<4} induced signature (+, -, 0) = {sig}")

# on the nondegenerate piece, the observed signature matches the closed
# form built from the restricted column and row signatures; the variant
# that repeats the column term does not even total the dimension
cp = ChartPoint(a.reshape(2, 1), np.array([[2.0]]))
check = induced_signature_check(cp, eta2, zeta2)
print(f"\nsignature readings at lam = 2: observed {check['observed']}, "
      f"symmetric {check['symmetric']}, duplicated {check['duplicated']}")

# minimality with indefinite forms, a larger stratum
eta = IndefiniteForm.from_string("++-")
zeta = IndefiniteForm.from_string("+-+")
cp = sample_pseudo_point(3, 3, 2, eta, zeta, rng)
pm = pseudo_minimality(cp, eta, zeta)
print(f"\n(3, 3, 2) stratum with eta = {eta}, zeta = {zeta}:")
print(f"  signature {pm.signature}, projector residual "
      f"{pm.projector_residual:.2e}")
print(f"  max normal component of the trace = {pm.max_component:.2e}")

# the form-compatible reflection still fixes the point, preserves the
# form, and reverses the form-normals
x = chart_map(cp)
b = form_reflection(cp.x_rank, eta)
res = reflection_residuals(b, eta.signs, x)
print(f"  reflection: isometry {res['isometry']:.2e}, involution "
      f"{res['involution']:.2e}, fixes point {res['fixes_point']:.2e}")
print(f"  normal reversal = {normal_reversal(x, cp.r, eta, zeta, b):.2e}")

# identity forms reduce everything to the euclidean pipeline
cp = sample_chart_point(3, 2, 1, rng)
plus3 = IndefiniteForm.from_counts(3, 0)
plus2 = IndefiniteForm.from_counts(2, 0)
pm = pseudo_minimality(cp, plus3, plus2)
mc = mean_curvature(cp)
gap = max(max_abs(pm.trace_flat.reshape(3, 2) - mc.trace_vector),
          max_abs(pm.normal_flat.reshape(3, 2) - mc.ambient_vector))
print(f"\neuclidean reduction gap with identity forms = {gap:.2e}")
