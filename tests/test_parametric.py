"""Chart geometry of the rank strata: frozen examples, oracles, invariances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmin import parametric
from detmin.dual import gradient_of
from detmin.errors import InvalidChartPoint
from detmin.linalg import make_rng, max_abs
from detmin.parametric import (ChartPoint, chart_jacobian, chart_map,
                               chart_second_derivatives, induced_metric,
                               mean_curvature, metric_inverse, normal_frame,
                               o_p_structure_check,
                               operator_sign_adjudication, sample_chart_point,
                               second_fundamental_form,
                               second_fundamental_form_autodiff,
                               stratum_dimension_check)

TRIPLES = [(2, 2, 1), (3, 2, 1), (3, 3, 1), (4, 3, 2), (5, 3, 1), (4, 4, 3),
           (5, 4, 0), (6, 5, 4)]


def rank_one_2x2(a1, a2, c):
    return ChartPoint(np.array([[a1], [a2]]), np.array([[c]]))


class TestFrozenSmallCase:
    """The 2 x 2 rank-1 chart where every object has a hand closed form."""

    def test_chart_map(self):
        cp = rank_one_2x2(1.0, 2.0, 3.0)
        assert np.array_equal(chart_map(cp), [[1.0, 3.0], [2.0, 6.0]])

    def test_metric_blocks(self):
        cp = rank_one_2x2(1.0, 2.0, 3.0)
        mb = induced_metric(cp)
        assert np.allclose(mb.g, 10.0 * np.eye(2))       # (1 + c^2) I_p
        assert np.allclose(mb.b, [[3.0], [6.0]])         # c * a
        assert np.allclose(mb.d, [[5.0]])                # a^T a
        jac = chart_jacobian(cp)
        assert np.allclose(mb.assembled, jac.T @ jac)

    def test_normal_direction(self):
        # with a = e1 the kernel is e2 and the lone normal is
        # gamma * [c * e2 | -e2], i.e. proportional to [[0, 0], [c, -1]]
        c = 3.0
        cp = rank_one_2x2(1.0, 0.0, c)
        frame = normal_frame(cp)
        assert frame.normals.shape == (1, 2, 2)
        n = frame.normals[0]
        target = np.array([[0.0, 0.0], [c, -1.0]]) / np.sqrt(1 + c * c)
        assert np.allclose(n, target) or np.allclose(n, -target)

    def test_mean_curvature_vanishes(self):
        mc = mean_curvature(rank_one_2x2(0.7, -1.3, 2.1))
        assert mc.max_component < 1e-14
        assert mc.tangency_residual < 1e-14


@pytest.mark.parametrize("p,q,r", TRIPLES)
def test_jacobian_matches_dual_numbers(p, q, r):
    rng = make_rng(100 + p * 10 + q + r)
    cp = sample_chart_point(p, q, r, rng)

    def flat_chart(vec):
        a = vec[:p * r].reshape(p, r)
        lam = vec[p * r:].reshape(r, q - r)
        return parametric.chart_map_generic(a, lam).ravel()

    vec = np.concatenate([cp.a.ravel(), cp.lam.ravel()])
    jac_ad = gradient_of(flat_chart, vec)
    assert np.allclose(chart_jacobian(cp), jac_ad, atol=1e-12)


@pytest.mark.parametrize("p,q,r", [(2, 2, 1), (3, 2, 1), (4, 3, 2),
                                   (3, 3, 2), (4, 4, 1)])
def test_second_derivatives_match_autodiff(p, q, r):
    rng = make_rng(17 + p + 10 * q + 100 * r)
    cp = sample_chart_point(p, q, r, rng)
    closed = chart_second_derivatives(cp)
    auto = parametric.chart_hessian_autodiff(cp)
    assert np.allclose(closed, auto, atol=1e-12)


@pytest.mark.parametrize("p,q,r", TRIPLES)
def test_metric_assembly_equals_jacobian_gram(p, q, r):
    rng = make_rng(31 + p + q + r)
    cp = sample_chart_point(p, q, r, rng)
    mb = induced_metric(cp)
    jac = chart_jacobian(cp)
    assert max_abs(mb.assembled - jac.T @ jac) < 1e-12 * max(1.0,
                                                             max_abs(mb.assembled))


@pytest.mark.parametrize("p,q,r", TRIPLES)
def test_inverse_routes_agree(p, q, r):
    rng = make_rng(7 * p + q + 3 * r)
    cp = sample_chart_point(p, q, r, rng)
    inv = metric_inverse(cp)
    for name, resid in inv.identity_residuals().items():
        assert resid < 1e-10, name
    assert inv.pairwise_disagreement() < 1e-10


def test_operator_sign_adjudication_picks_minus():
    rng = make_rng(5)
    cp = sample_chart_point(4, 3, 2, rng)
    resid = operator_sign_adjudication(cp)
    assert resid[-1.0] < 1e-10
    # the sign printed with a plus does not invert the metric at all
    assert resid[+1.0] > 1e-3


@pytest.mark.parametrize("p,q,r", TRIPLES)
def test_normal_frame_is_normal_and_counted(p, q, r):
    rng = make_rng(61 + 2 * p + q + r)
    cp = sample_chart_point(p, q, r, rng)
    frame = normal_frame(cp)
    flat = frame.flat()
    assert flat.shape[0] == (q - r) * (p - r)
    assert max_abs(flat @ chart_jacobian(cp)) < 1e-12
    closed = frame.gram_closed_form(cp.lam)
    assert np.allclose(frame.gram(), closed, atol=1e-12)


def test_frame_gram_is_not_identity_when_codim_rich():
    # the pinned frame is unit-norm but not pairwise orthogonal: its Gram
    # couples distinct s' indices through I + lam^T lam
    rng = make_rng(23)
    cp = sample_chart_point(5, 4, 2, rng)
    gram = normal_frame(cp).gram()
    assert np.allclose(np.diag(gram), 1.0, atol=1e-12)
    off = gram - np.diag(np.diag(gram))
    assert max_abs(off) > 1e-3


@pytest.mark.parametrize("p,q,r", [(2, 2, 1), (3, 2, 1), (3, 3, 2),
                                   (4, 3, 1), (4, 4, 2)])
def test_second_fundamental_form_closed_vs_autodiff(p, q, r):
    rng = make_rng(41 + p + q + r)
    cp = sample_chart_point(p, q, r, rng)
    assert np.allclose(second_fundamental_form(cp),
                       second_fundamental_form_autodiff(cp), atol=1e-11)


@pytest.mark.parametrize("p,q,r", TRIPLES)
def test_mean_curvature_vanishes_everywhere(p, q, r):
    rng = make_rng(83 + 5 * p + q + r)
    for _ in range(10):
        cp = sample_chart_point(p, q, r, rng)
        mc = mean_curvature(cp)
        assert mc.verdict(1e-9)
        assert mc.tangency_residual < 1e-9
        assert max_abs(mc.ambient_vector) < 1e-9 * mc.metric_scale


def test_autodiff_route_agrees_with_analytic():
    rng = make_rng(9)
    cp = sample_chart_point(4, 3, 2, rng)
    fast = mean_curvature(cp)
    slow = mean_curvature(cp, use_autodiff=True)
    assert np.allclose(fast.components, slow.components, atol=1e-11)
    assert slow.max_component < 1e-11


def test_cone_scaling_preserves_minimality():
    # the stratum is a cone: scaling a scales the point, and the scaled
    # point is again a chart point with the same lam
    rng = make_rng(37)
    cp = sample_chart_point(3, 3, 2, rng)
    for t in (0.5, 2.0, 10.0):
        scaled = ChartPoint(t * cp.a, cp.lam)
        assert np.allclose(chart_map(scaled), t * chart_map(cp))
        assert mean_curvature(scaled).verdict(1e-9)


@pytest.mark.parametrize("p,q,r", TRIPLES)
def test_o_p_structure(p, q, r):
    rng = make_rng(3 * p + 7 * q + r)
    cp = sample_chart_point(p, q, r, rng)
    st_check = o_p_structure_check(cp)
    assert st_check.ok(1e-10)


@pytest.mark.parametrize("p,q,r", TRIPLES)
def test_stratum_dimension_counts(p, q, r):
    rng = make_rng(p + q + r)
    cp = sample_chart_point(p, q, r, rng)
    out = stratum_dimension_check(cp)
    assert out["ok"]
    assert out["jacobian_rank"] == r * (p - r) + q * r
    assert out["frame_size"] == (q - r) * (p - r)


def test_chart_point_validates_rank():
    a = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])  # rank 1, r = 2
    with pytest.raises(InvalidChartPoint):
        ChartPoint(a, np.zeros((2, 1)))
    with pytest.raises(InvalidChartPoint):
        ChartPoint(np.ones((2, 3)), np.zeros((3, 1)))   # r > q


def test_sampler_respects_condition_limits():
    rng = make_rng(55)
    for _ in range(20):
        cp = sample_chart_point(5, 4, 3, rng)
        gram = cp.a.T @ cp.a
        assert np.linalg.cond(gram) <= 1e4
        assert np.linalg.cond(induced_metric(cp).assembled) <= 1e5


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 4),
       st.integers(0, 10 ** 6))
def test_minimality_property(p, q, r, seed):
    if q > p:
        p, q = q, p
    r = min(r, q - 1)
    cp = sample_chart_point(p, q, r, make_rng(seed))
    mc = mean_curvature(cp)
    assert mc.verdict(1e-9)
    assert mc.tangency_residual < 1e-9
