"""
Rank strata through the explicit chart
======================================

A p x q matrix of rank r whose first r columns are independent is
X(a, lam) = (a, a lam) with a of full column rank r.  This script walks
through the induced geometry at one such point: the block metric, its
three independent inverses, and the mean curvature vector, which is the
whole point of the exercise: it vanishes.
"""

import numpy as np

from detmin.linalg import derived_rng
from detmin.parametric import (ChartPoint, chart_map, induced_metric,
                               mean_curvature, metric_inverse,
                               operator_sign_adjudication,
                               sample_chart_point, stratum_dimension_check)
from detmin.sweep import CHECKS

rng = derived_rng(7)
p, q, r = 5, 4, 2
cp = sample_chart_point(p, q, r, rng)
x = chart_map(cp)

print(f"stratum (p, q, r) = ({p}, {q}, {r})")
print(f"matrix rank {np.linalg.matrix_rank(x)}, "
      f"chart dimension {cp.dim} = r(p-r) + qr")

# the metric splits into kron blocks; the assembled matrix is J^T J
mb = induced_metric(cp)
print(f"\nmetric blocks: G {mb.g.shape}, B {mb.b.shape}, D {mb.d.shape}")

# three routes to the inverse: Schur elimination through either diagonal
# block, and a closed multiplicative form with no Kronecker assembly
mi = metric_inverse(cp)
for name, resid in mi.identity_residuals().items():
    print(f"  route {name:<9} |ginv @ g - I| = {resid:.2e}")
print(f"  pairwise disagreement        = {mi.pairwise_disagreement():.2e}")

# the closed form only inverts the metric with the minus sign on its
# lower-left block; the other reading misses at order one
signs = operator_sign_adjudication(cp)
print(f"  lower-left sign: -1 gives {signs[-1.0]:.2e}, "
      f"+1 gives {signs[+1.0]:.2e}")

# mean curvature: inverse-metric trace of the second fundamental form
mc = mean_curvature(cp)
print(f"\nmax |H| component  = {mc.max_component:.2e}")
print(f"trace tangency     = {mc.tangency_residual:.2e}  "
      "(the trace vector is exactly the tangent value -2 DX(0, (a^T a)^-1 lam))")
# the sweep's registry holds the tolerance; the residual is relative to
# the size of the inverse metric
check = CHECKS["parametric.mean-curvature"]
print(f"{check.name}: {mc.max_component / mc.metric_scale:.2e} "
      f"against tol {check.tolerance:.0e}")

# the stratum is a cone: t X(a, lam) = X(t a, lam) is again a chart
# point, and minimality survives the scaling
print("\ncone scaling:")
for t in (0.5, 2.0, 10.0):
    scaled = mean_curvature(ChartPoint(t * cp.a, cp.lam))
    print(f"  t = {t:<5} max |H| = {scaled.max_component:.2e}")

counts = stratum_dimension_check(cp)
print(f"\njacobian rank {counts['jacobian_rank']} "
      f"(expected {counts['expected_dim']}), "
      f"normal frame size {counts['frame_size']} "
      f"(expected {counts['expected_frame']})")
