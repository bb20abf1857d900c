"""Synthetic (reflection-based) minimality certificates."""

import numpy as np
import pytest

from detmin.errors import InvalidChartPoint
from detmin.helicoidal import (helicoidal_certificate, isometry_check,
                               normal_reversal, reflection,
                               sample_tangent_family, tangent_membership)
from detmin.linalg import make_rng, max_abs, stratum_bases
from detmin.parametric import chart_map, sample_chart_point

TRIPLES = [(2, 2, 1), (3, 2, 1), (4, 3, 2), (5, 5, 3), (6, 4, 1), (3, 3, 0)]


class TestFrozenRankOnePoint:
    """x = e1 e1^T in the 2 x 2 space: the reflection is diag(1, -1)."""

    x = np.array([[1.0, 0.0], [0.0, 0.0]])

    def test_reflection_matrix(self):
        refl = reflection(self.x, 1)
        assert np.allclose(refl.matrix, np.diag([1.0, -1.0]))

    def test_invariants_vanish(self):
        res = reflection(self.x, 1).invariant_residuals(self.x)
        assert max(res.values()) < 1e-15

    def test_determinant_sign(self):
        # det B = (-1)^(p - r): one reversed direction here
        assert np.linalg.det(reflection(self.x, 1).matrix) == pytest.approx(-1.0)

    def test_normal_space_is_bottom_right_corner(self):
        nb = stratum_bases(self.x)[1]
        assert nb.shape == (4, 1)
        w = nb[:, 0].reshape(2, 2)
        assert abs(w[1, 1]) == pytest.approx(1.0)
        assert normal_reversal(self.x, 1) < 1e-15

    def test_tangent_space(self):
        ok, _ = tangent_membership(self.x, np.array([[2.0, 3.0], [5.0, 0.0]]), 1)
        assert ok
        ok, resid = tangent_membership(self.x, np.diag([0.0, 1.0]), 1)
        assert not ok and resid == pytest.approx(1.0)


def test_reflection_rejects_rank_mismatch():
    with pytest.raises(InvalidChartPoint):
        reflection(np.eye(3), 1)
    with pytest.raises(InvalidChartPoint):
        tangent_membership(np.eye(3), np.eye(3), 1)


@pytest.mark.parametrize("p,q,r", [(3, 2, 1), (4, 3, 2), (5, 4, 2)])
def test_tangent_families_are_tangent(p, q, r):
    rng = make_rng(100 + p * q + r)
    x = chart_map(sample_chart_point(p, q, r, rng))
    for kind in ("column", "row"):
        y = sample_tangent_family(x, r, rng, kind)
        ok, resid = tangent_membership(x, y, r)
        assert ok, (kind, resid)
    # the sum of the two families stays tangent (the space is linear)
    y = sample_tangent_family(x, r, rng, "column") + \
        sample_tangent_family(x, r, rng, "row")
    assert tangent_membership(x, y, r)[0]


@pytest.mark.parametrize("p,q,r", [(3, 2, 1), (4, 3, 2)])
def test_generic_normal_is_not_tangent(p, q, r):
    rng = make_rng(200 + p + q + r)
    x = chart_map(sample_chart_point(p, q, r, rng))
    nb = stratum_bases(x)[1]
    for k in range(nb.shape[1]):
        ok, resid = tangent_membership(x, nb[:, k].reshape(p, q), r)
        assert not ok and resid > 0.9  # orthonormal normal: residual is 1


def test_tangent_basis_dimension():
    rng = make_rng(7)
    for p, q, r in TRIPLES:
        x = chart_map(sample_chart_point(p, q, r, rng))
        tb, nb = stratum_bases(x)
        assert tb.shape[1] == r * (p - r) + q * r
        assert nb.shape[1] == (q - r) * (p - r)
        assert tb.shape[1] + nb.shape[1] == p * q - (p - r) * (q - r) \
            + (q - r) * (p - r)
        if tb.size and nb.size:
            assert max_abs(tb.T @ nb) < 1e-12


def test_isometry_check_accepts_orthogonal_rejects_other():
    rng = make_rng(8)
    q_mat = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    ok, worst = isometry_check(q_mat, 3, rng)
    assert ok and worst < 1e-12
    bad, worst = isometry_check(np.diag([2.0, 1.0, 1.0, 1.0]), 3, rng)
    assert not bad and worst > 1e-3


@pytest.mark.parametrize("p,q,r", TRIPLES)
def test_certificate_passes_on_stratum(p, q, r):
    rng = make_rng(300 + 10 * p + q + r)
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
        assert cert.ok(), cert
        assert max(cert.reflection_residuals.values()) < 1e-12
        assert cert.normal_reversal < 1e-10


def test_certificate_rank_zero_reflects_through_origin():
    rng = make_rng(9)
    x = np.zeros((3, 2))
    refl = reflection(x, 0)
    assert np.allclose(refl.matrix, -np.eye(3))
    cert = helicoidal_certificate(x, 0, rng)
    assert cert.ok()
    # every ambient direction is normal at the origin of the cone
    assert stratum_bases(x)[1].shape == (6, 6)
