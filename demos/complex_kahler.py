"""
Complex strata and the determinant twins
========================================

Two complex stories.  First, the rank-1 stratum of complex 3 x 2
matrices realified into R^12: its induced metric has closed-form blocks
and its mean curvature vanishes (the Kahler ambient makes this automatic
for a complex submanifold; here it is recomputed with bare calculus).
Second, u = Re det and v = Im det on realified n x n matrices: a pair of
degree-n harmonics whose gradients are everywhere orthogonal and of
equal length, and whose zero locus is again minimal.
"""

import numpy as np

from detmin.kahler import (TwinHarmonicPair, complex_chart_geometry,
                           flatten, rho_value, sample_complex_chart_point,
                           sample_zeta_point, twin_harmonic_suite,
                           zeta_minimality)
from detmin.linalg import derived_rng

rng = derived_rng(17)

# --- the 3 x 2 chart -------------------------------------------------------

cp = sample_complex_chart_point(rng)
geo = complex_chart_geometry(cp)
print("rank-1 complex 3 x 2 chart in R^12")
print(f"  metric block residual    {geo.block_residual:.2e}")
print(f"  Schur complement         {geo.schur_residual:.2e}  "
      "(equals s / (1 + lam^2 + mu^2) times the identity)")
print(f"  inverse mixed block      {geo.offdiag_residual:.2e}")
print(f"  normals against tangents {geo.normal_residual:.2e}  "
      f"({geo.normals.shape[0]} of them, real codimension 4)")
print(f"  max |H| component        {np.abs(geo.mean_curvature).max():.2e}")

# --- the twin pair ---------------------------------------------------------

n = 3
pair = TwinHarmonicPair(n)
point = rng.normal(size=2 * n * n)
while min(abs(v) for v in pair.values(point)) < 0.3:
    point = rng.normal(size=2 * n * n)

# values, gradients and Hessians of u and v, evaluated once
rep = twin_harmonic_suite(pair.evaluate(point))
print(f"\ntwin harmonics of the {n} x {n} complex determinant")
print(f"  |grad u|^2 - |grad v|^2  {rep.grad_norm_gap:.2e}")
print(f"  grad u . grad v          {rep.grad_orthogonality:.2e}")
print(f"  traces of both Hessians  {np.abs(rep.harmonic).max():.2e}  (exact)")
print(f"  eight contractions       {rep.contraction_table.max():.2e}")
print(f"  multiplier rho           {rep.rho:.6f} "
      f"(v-route gives {rep.rho_alt:.6f})")

# rho is homogeneous of degree 2n - 4: constant for n = 2, quadratic here
base = rho_value(pair, point)
print("  homogeneity of rho:")
for t in (2.0, 3.0):
    print(f"    rho(t x) / (t^2 rho(x)) at t = {t}: "
          f"{rho_value(pair, t * point) / (t ** 2 * base):.12f}")

# for n = 2 the multiplier is the constant 2, no scaling involved
pair2 = TwinHarmonicPair(2)
point2 = rng.normal(size=8)
while min(abs(v) for v in pair2.values(point2)) < 0.5:
    point2 = rng.normal(size=8)
print(f"  n = 2: rho = {rho_value(pair2, point2):.15f}")

# --- the zero locus --------------------------------------------------------

zm = zeta_minimality(sample_zeta_point(pair, rng))
print(f"\ndet = 0 locus, complex rank n - 1 point:")
print(f"  gram conformality        {zm.gram_conformality:.2e}")
print(f"  max |tr(P d2)| residual  {zm.max_residual:.2e}")
