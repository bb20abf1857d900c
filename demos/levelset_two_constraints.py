"""
The top stratum as a level set
==============================

Inside the (n+1) x n matrices, rank n - 1 is cut out by two minors: the
determinant of the first n rows and (a sign convention away) the
determinant of the last n rows.  Both are harmonic, their Hessians have
an exactly zero diagonal, and the trace of each Hessian against the
joint tangent projector vanishes on the variety.  No chart needed.
"""

import numpy as np

from detmin.levelset import (ConstraintSystem, conjecture_evidence,
                             gradient_rank_one, levelset_mean_curvature,
                             on_variety_contractions, row_coefficients,
                             sample_on_variety, sample_singular_matrix,
                             tangent_projector)
from detmin.linalg import derived_rng

rng = derived_rng(11)
n = 3
system = ConstraintSystem(n)

# values, cofactor gradients and Hessians of both minors, evaluated once,
# at a point the sampler verified on the variety against those gradients
jet = sample_on_variety(system, rng)
a = jet.point
print(f"n = {n}: ambient dimension {(n + 1) * n}, "
      f"constraint values ({jet.values[0]:.1e}, {jet.values[1]:.1e})")

# both constraints are harmonic everywhere, not just on the variety,
# because no matrix entry appears twice in any monomial of a determinant
print(f"Hessian diagonals identically zero: "
      f"{not any(h.diagonal().any() for h in jet.hessians)}")

proj = tangent_projector(jet)
print(f"tangent projector rank {proj.rank} = n^2 + n - 2")

mc = levelset_mean_curvature(jet, proj)
print(f"max |tr(P d2 chi)| = {mc.max_residual:.2e}")

# the middle rows span everything, so the first and last row are linear
# combinations of them; those coefficients drive the gradient identities
rc = row_coefficients(a)
print(f"row coefficient residuals = {rc.residuals.max():.2e}")

rep = on_variety_contractions(jet)
print(f"on-variety contractions   = {rep.contractions.max():.2e} "
      f"(four-term {rep.four_term.max():.2e})")

# the gradient of a determinant is the cofactor matrix; on the singular
# locus it collapses to rank one
m = sample_singular_matrix(4, rng)
rk = gradient_rank_one(m)
print(f"\ncofactor rank-1 on a singular 4 x 4: "
      f"sigma_2 / sigma_1 = {rk.sigma_ratio:.2e}")

# a conjectured mixed-contraction identity: the stated form disagrees at
# order one, the trace-swapped form holds to machine precision.  Recorded
# as evidence; it never gates anything.
print("\nconjectured identity, 5 ambient points:")
for k in range(5):
    ev = conjecture_evidence(system.evaluate(rng.normal(size=(n + 1, n))))
    print(f"  stated {ev.printed_residual:.3e}   "
          f"swapped {ev.swapped_residual:.3e}")
