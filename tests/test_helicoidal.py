"""Synthetic (reflection-based) minimality certificates."""

import numpy as np
import pytest

from detmin.helicoidal import (helicoidal_certificate, isometry_check,
                               off_span, reflection, tangent_family)
from detmin.linalg import (declared_rank, derived_rng, max_abs,
                           reflection_residuals, reversal, stratum_bases)
from detmin.parametric import chart_map, sample_chart_point

from conftest import assert_certificate

TRIPLES = [(2, 2, 1), (3, 2, 1), (4, 3, 2), (5, 5, 3), (6, 4, 1), (3, 3, 0)]


class TestFrozenRankOnePoint:
    """x = e1 e1^T in the 2 x 2 space: the reflection is diag(1, -1)."""

    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = reflection(declared_rank(x, 1))

    def test_reflection_matrix(self):
        assert np.allclose(self.b, np.diag([1.0, -1.0]))

    def test_invariants_vanish(self):
        res = reflection_residuals(self.b, np.ones(2), self.x)
        assert max(res.values()) < 1e-15

    def test_determinant_sign(self):
        # det B = (-1)^(p - r): one reversed direction here
        assert np.linalg.det(self.b) == pytest.approx(-1.0)

    def test_normal_space_is_bottom_right_corner(self):
        nb = stratum_bases(self.x, 1)[1]
        assert nb.shape == (4, 1)
        w = nb[:, 0].reshape(2, 2)
        assert abs(w[1, 1]) == pytest.approx(1.0)
        assert reversal(self.b, nb, self.x.shape) < 1e-15

    def test_tangent_space(self):
        tb = stratum_bases(self.x, 1)[0]
        assert off_span(tb, np.array([[2.0, 3.0], [5.0, 0.0]])) <= 1e-9
        resid = off_span(tb, np.diag([0.0, 1.0]))
        assert resid > 1e-9 and resid == pytest.approx(1.0)


@pytest.mark.parametrize("p,q,r", [(3, 2, 1), (4, 3, 2), (5, 4, 2)])
def test_tangent_families_are_tangent(p, q, r):
    rng = derived_rng(100 + p * q + r)
    x = chart_map(sample_chart_point(p, q, r, rng))
    x_rank = declared_rank(x, r)
    tb = stratum_bases(x, r)[0]
    for kind in ("column", "row"):
        resid = off_span(tb, tangent_family(x_rank, rng, kind))
        assert resid <= 1e-9, (kind, resid)
    # the sum of the two families stays tangent (the space is linear)
    y = tangent_family(x_rank, rng, "column") + \
        tangent_family(x_rank, rng, "row")
    assert off_span(tb, y) <= 1e-9


@pytest.mark.parametrize("p,q,r", [(3, 2, 1), (4, 3, 2)])
def test_generic_normal_is_not_tangent(p, q, r):
    rng = derived_rng(200 + p + q + r)
    x = chart_map(sample_chart_point(p, q, r, rng))
    tb, nb = stratum_bases(x, r)
    for k in range(nb.shape[1]):
        resid = off_span(tb, nb[:, k].reshape(p, q))
        assert resid > 0.9  # orthonormal normal: residual is 1


def test_tangent_basis_dimension():
    rng = derived_rng(7)
    for p, q, r in TRIPLES:
        x = chart_map(sample_chart_point(p, q, r, rng))
        tb, nb = stratum_bases(x, r)
        assert tb.shape[1] == r * (p - r) + q * r
        assert nb.shape[1] == (q - r) * (p - r)
        assert tb.shape[1] + nb.shape[1] == p * q - (p - r) * (q - r) \
            + (q - r) * (p - r)
        if tb.size and nb.size:
            assert max_abs(tb.T @ nb) < 1e-12


def test_isometry_check_accepts_orthogonal_rejects_other():
    rng = derived_rng(8)
    q_mat = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    assert isometry_check(q_mat, 3, rng) < 1e-12
    assert isometry_check(np.diag([2.0, 1.0, 1.0, 1.0]), 3, rng) > 1e-3


def _isometry_loop(a, q, rng):
    """Worst deviation of the isometry check, one probe pair at a time."""
    worst = 0.0
    for _ in range(8):
        x = rng.normal(size=(a.shape[1], q))
        y = rng.normal(size=(a.shape[1], q))
        lhs = float(((a @ x) * (a @ y)).sum())
        rhs = float((x * y).sum())
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst


def test_batched_isometry_check_equals_the_loop():
    mats = []
    for p, q, r in TRIPLES + [(6, 6, 5), (4, 4, 2)]:
        x = chart_map(sample_chart_point(p, q, r, derived_rng(40 + p + q + r)))
        mats.append((reflection(declared_rank(x, r)), q))
    rng = derived_rng(41)
    mats += [(np.diag([2.0, 1.0, 1.0]), 2), (rng.normal(size=(5, 5)), 4),
             (np.eye(1), 1), (rng.normal(size=(3, 2)), 6)]
    for seed, (a, q) in enumerate(mats):
        ours, ref = derived_rng(seed), derived_rng(seed)
        assert isometry_check(a, q, ours) == _isometry_loop(a, q, ref)
        assert str(ours.bit_generator.state) == str(ref.bit_generator.state)


@pytest.mark.parametrize("p,q,r", TRIPLES)
def test_certificate_passes_on_stratum(p, q, r):
    rng = derived_rng(300 + 10 * p + q + r)
    points = [chart_map(sample_chart_point(p, q, r, rng)) for _ in range(5)]
    if 0 < r < q:
        # zeroing a leading column keeps the rank (it lies in the span of
        # the others) but makes the leading r columns dependent, so the
        # leading-columns chart does not reach this point
        dependent = points[-1].copy()
        dependent[:, 0] = 0.0
        assert np.linalg.matrix_rank(dependent) == r
        points.append(dependent)
    for x in points:
        cert = helicoidal_certificate(x, r, rng)
        assert_certificate(cert, r)
        assert max(cert.reflection_residuals.values()) < 1e-12
        assert cert.normal_reversal < 1e-10


def test_certificate_rank_zero_reflects_through_origin():
    rng = derived_rng(9)
    x = np.zeros((3, 2))
    assert np.allclose(reflection(declared_rank(x, 0)), -np.eye(3))
    assert_certificate(helicoidal_certificate(x, 0, rng), 0)
    # every ambient direction is normal at the origin of the cone
    assert stratum_bases(x, 0)[1].shape == (6, 6)
