"""Chart geometry of the rank strata: frozen examples, oracles, invariances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmin import parametric, sweep
from detmin.dual import gradient_of
from detmin.errors import DegenerateMetric, InvalidChartPoint
from detmin.linalg import COND_LIMIT, derived_rng, kron, max_abs
from detmin.parametric import (ChartPoint, chart_derivative, chart_jacobian,
                               chart_map, chart_second_derivatives,
                               induced_metric,
                               mean_curvature, metric_inverse, normal_frame,
                               o_p_structure_check,
                               operator_sign_adjudication, sample_chart_point,
                               stratum_dimension_check)
from detmin.sweep import RunConfig

TRIPLES = [(2, 2, 1), (3, 2, 1), (3, 3, 1), (4, 3, 2), (5, 3, 1), (4, 4, 3),
           (5, 4, 0), (6, 5, 4)]


def frame_gram_closed_form(frame, lam):
    """kron(diag(gamma) (I + lam^T lam) diag(gamma), I_{p-r}), the Gram the
    normal frame's docstring states."""
    gamma = np.diag(frame.gamma)
    blk = gamma @ (np.eye(len(frame.gamma)) + lam.T @ lam) @ gamma
    return kron(blk, np.eye(frame.kernel_basis.shape[1]))


def second_fundamental_form(cp):
    """Scalar second fundamental forms h^{(s' s'')} in closed form.

    Shape (q - r, p - r, dim, dim).  Entry (s', s'') pairs coordinate
    a_{J s} with lam_{s t'} and equals -gamma_{s'} delta_{s' t'} e_{s'', J};
    the sign follows the frame's -e_{s''} column.
    """
    p, q, r = cp.p, cp.q, cp.r
    frame = normal_frame(cp)
    h = np.zeros((q - r, p - r, cp.dim, cp.dim))
    for sp in range(q - r):
        for spp in range(p - r):
            coeff = -frame.gamma[sp] * frame.kernel_basis[:, spp]
            for j in range(p):
                for s in range(r):
                    ia = j * r + s
                    il = p * r + s * (q - r) + sp
                    h[sp, spp, ia, il] += coeff[j]
                    h[sp, spp, il, ia] += coeff[j]
    return h


def second_fundamental_form_autodiff(cp):
    """h via contraction of the frame with the dual-number chart Hessian.

    No closed-form structure is assumed: the full (pq, dim, dim) Hessian is
    contracted.  It is the reference the closed form is held against.
    """
    d2x = parametric.chart_hessian_autodiff(cp)
    return np.einsum("af,fmn->amn", normal_frame(cp).flat(), d2x).reshape(
        cp.q - cp.r, cp.p - cp.r, cp.dim, cp.dim)


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
    rng = derived_rng(100 + p * 10 + q + r)
    cp = sample_chart_point(p, q, r, rng)

    def flat_chart(vec):
        a = vec[:p * r].reshape(p, r)
        lam = vec[p * r:].reshape(r, q - r)
        return parametric.chart_map_generic(a, lam).ravel()

    vec = np.concatenate([cp.a.ravel(), cp.lam.ravel()])
    jac_ad = gradient_of(flat_chart, vec)
    assert np.allclose(chart_jacobian(cp), jac_ad, atol=1e-12)


def _loop_jacobian(cp):
    """Jacobian columns DX(e_k) built one chart coordinate at a time."""
    p, q, r = cp.p, cp.q, cp.r
    cols = np.zeros((cp.dim, p * q))
    for k in range(p * r):
        c = np.zeros(p * r)
        c[k] = 1.0
        cols[k] = chart_derivative(cp, c.reshape(p, r),
                                   np.zeros((r, q - r))).ravel()
    for k in range(r * (q - r)):
        mu = np.zeros(r * (q - r))
        mu[k] = 1.0
        cols[p * r + k] = chart_derivative(cp, np.zeros((p, r)),
                                           mu.reshape(r, q - r)).ravel()
    return cols.T


SHAPES_TO_6 = [(p, q, r) for p in range(2, 7) for q in range(2, p + 1)
               for r in range(q)]


@pytest.mark.parametrize("p,q,r", SHAPES_TO_6)
def test_closed_form_jacobian_equals_the_column_built_one(p, q, r):
    cp = sample_chart_point(p, q, r, derived_rng(200 + 10 * p + q + r))
    jac = chart_jacobian(cp)
    assert np.array_equal(jac, _loop_jacobian(cp))
    # the column-built layout, which fixes BLAS summation order downstream
    assert jac.flags.f_contiguous


def _loop_frame(cp):
    """Frame elements built one (s', s'') pair at a time."""
    p, q, r = cp.p, cp.q, cp.r
    kernel = cp.a_rank.kernel_basis
    gamma = 1.0 / np.sqrt(1.0 + (cp.lam ** 2).sum(axis=0))
    frames = np.zeros(((q - r) * (p - r), p, q))
    idx = 0
    for sp in range(q - r):
        for spp in range(p - r):
            n = np.zeros((p, q))
            n[:, :r] = np.outer(kernel[:, spp], cp.lam[:, sp])
            n[:, r + sp] = -kernel[:, spp]
            frames[idx] = gamma[sp] * n
            idx += 1
    return frames


@pytest.mark.parametrize("p,q,r", [(p, q, r) for p in range(1, 7)
                                   for q in range(1, p + 1) for r in range(q)])
def test_broadcast_frame_equals_the_loop_built_one(p, q, r):
    cp = sample_chart_point(p, q, r, derived_rng(500 + 10 * p + q + r))
    normals = normal_frame(cp).normals
    loop = _loop_frame(cp)
    assert normals.shape == loop.shape
    assert normals.tobytes() == loop.tobytes()


def test_chart_point_geometry_cannot_go_stale():
    a, lam = np.array([[1.0], [2.0], [0.5]]), np.array([[3.0, -1.0]])
    cp = ChartPoint(a, lam)
    jac = chart_jacobian(cp).copy()
    a[0, 0] = 7.0  # the point keeps its own copy of its data
    assert cp.a[0, 0] == 1.0
    for arr in (cp.a, cp.lam, chart_jacobian(cp), chart_second_derivatives(cp),
                induced_metric(cp).assembled):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    assert np.array_equal(chart_jacobian(cp), jac)


@pytest.mark.parametrize("p,q,r", [(2, 2, 1), (3, 2, 1), (4, 3, 2),
                                   (3, 3, 2), (4, 4, 1)])
def test_second_derivatives_match_autodiff(p, q, r):
    rng = derived_rng(17 + p + 10 * q + 100 * r)
    cp = sample_chart_point(p, q, r, rng)
    closed = chart_second_derivatives(cp)
    auto = parametric.chart_hessian_autodiff(cp)
    assert np.allclose(closed, auto, atol=1e-12)


@pytest.mark.parametrize("p,q,r", TRIPLES)
def test_metric_assembly_equals_jacobian_gram(p, q, r):
    rng = derived_rng(31 + p + q + r)
    cp = sample_chart_point(p, q, r, rng)
    mb = induced_metric(cp)
    jac = chart_jacobian(cp)
    assert max_abs(mb.assembled - jac.T @ jac) < 1e-12 * max(1.0,
                                                             max_abs(mb.assembled))


@pytest.mark.parametrize("p,q,r", TRIPLES)
def test_inverse_routes_agree(p, q, r):
    rng = derived_rng(7 * p + q + 3 * r)
    cp = sample_chart_point(p, q, r, rng)
    inv = metric_inverse(cp)
    for name, resid in inv.identity_residuals().items():
        assert resid < 1e-10, name
    assert inv.pairwise_disagreement() < 1e-10


def test_operator_sign_adjudication_picks_minus():
    rng = derived_rng(5)
    cp = sample_chart_point(4, 3, 2, rng)
    resid = operator_sign_adjudication(cp)
    assert resid[-1.0] < 1e-10
    # the sign printed with a plus does not invert the metric at all
    assert resid[+1.0] > 1e-3


@pytest.mark.parametrize("p,q,r", TRIPLES)
def test_normal_frame_is_normal_and_counted(p, q, r):
    rng = derived_rng(61 + 2 * p + q + r)
    cp = sample_chart_point(p, q, r, rng)
    frame = normal_frame(cp)
    flat = frame.flat()
    assert flat.shape[0] == (q - r) * (p - r)
    assert max_abs(flat @ chart_jacobian(cp)) < 1e-12
    closed = frame_gram_closed_form(frame, cp.lam)
    assert np.allclose(frame.gram, closed, atol=1e-12)


def test_frame_gram_is_not_identity_when_codim_rich():
    # the pinned frame is unit-norm but not pairwise orthogonal: its Gram
    # couples distinct s' indices through I + lam^T lam
    rng = derived_rng(23)
    cp = sample_chart_point(5, 4, 2, rng)
    gram = normal_frame(cp).gram
    assert np.allclose(np.diag(gram), 1.0, atol=1e-12)
    off = gram - np.diag(np.diag(gram))
    assert max_abs(off) > 1e-3


@pytest.mark.parametrize("p,q,r", [(2, 2, 1), (3, 2, 1), (3, 3, 2),
                                   (4, 3, 1), (4, 4, 2)])
def test_second_fundamental_form_closed_vs_autodiff(p, q, r):
    rng = derived_rng(41 + p + q + r)
    cp = sample_chart_point(p, q, r, rng)
    assert np.allclose(second_fundamental_form(cp),
                       second_fundamental_form_autodiff(cp), atol=1e-11)


@pytest.mark.parametrize("p,q,r", TRIPLES)
def test_mean_curvature_vanishes_everywhere(p, q, r):
    rng = derived_rng(83 + 5 * p + q + r)
    for _ in range(10):
        cp = sample_chart_point(p, q, r, rng)
        mc = mean_curvature(cp)
        assert mc.max_component <= 1e-9 * mc.metric_scale
        assert mc.tangency_residual < 1e-9
        assert max_abs(mc.ambient_vector) < 1e-9 * mc.metric_scale


def test_autodiff_route_agrees_with_analytic():
    rng = derived_rng(9)
    cp = sample_chart_point(4, 3, 2, rng)
    fast = mean_curvature(cp)
    slow = mean_curvature(cp, use_autodiff=True)
    assert np.allclose(fast.components, slow.components, atol=1e-11)
    assert slow.max_component < 1e-11


def test_autodiff_curvature_evaluates_one_dual_hessian(monkeypatch):
    from detmin import dual

    calls = []
    hessian_of = dual.hessian_of

    def counted(f, x):
        calls.append(x.size)
        return hessian_of(f, x)

    monkeypatch.setattr(dual, "hessian_of", counted)
    cp = sample_chart_point(4, 3, 2, derived_rng(9))
    mean_curvature(cp, use_autodiff=True)
    assert calls == [cp.dim]


def _counted_solves(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


def _autodiff_reference(cp):
    """Components, trace and ambient vector of the dual-number route, each
    formed as the route formed all three before it deferred the last."""
    p, q, r = cp.p, cp.q, cp.r
    trace = np.einsum("fmn,mn->f", parametric.chart_hessian_autodiff(cp),
                      cp.metric_inv)
    flat = cp.frame.flat()
    comps = (flat @ trace).reshape(q - r, p - r)
    coeff = np.linalg.solve(flat @ flat.T, comps.ravel())
    return comps, trace.reshape(p, q), (coeff @ flat).reshape(p, q)


@pytest.mark.parametrize("p,q,r", [(4, 3, 2), (3, 2, 1), (5, 3, 0)])
def test_autodiff_route_forms_only_components_and_trace(monkeypatch, p, q, r):
    cp = sample_chart_point(p, q, r, derived_rng(10 * p + q + r))
    comps, trace, ambient = _autodiff_reference(cp)
    calls = _counted_solves(monkeypatch)
    mc = mean_curvature(cp, use_autodiff=True)
    assert calls == []
    assert np.array_equal(mc.components, comps)
    assert np.array_equal(mc.trace_vector, trace)
    # a reader who asks for the ambient vector still gets it, once
    assert np.array_equal(mc.ambient_vector, ambient) and len(calls) == 1
    assert mc.ambient_vector is mc.ambient_vector and len(calls) == 1


def test_analytic_route_forms_its_ambient_vector_in_the_call(monkeypatch):
    # the euclidean reduction reads it, so it is timed with the curvature
    cp = sample_chart_point(4, 3, 2, derived_rng(9))
    calls = _counted_solves(monkeypatch)
    mc = mean_curvature(cp)
    assert calls == [1]
    mc.ambient_vector
    assert calls == [1]


def test_cone_scaling_preserves_minimality():
    # the stratum is a cone: scaling a scales the point, and the scaled
    # point is again a chart point with the same lam
    rng = derived_rng(37)
    cp = sample_chart_point(3, 3, 2, rng)
    for t in (0.5, 2.0, 10.0):
        scaled = ChartPoint(t * cp.a, cp.lam)
        assert np.allclose(chart_map(scaled), t * chart_map(cp))
        mc = mean_curvature(scaled)
        assert mc.max_component <= 1e-9 * mc.metric_scale


@pytest.mark.parametrize("p,q,r", TRIPLES)
def test_o_p_structure(p, q, r):
    rng = derived_rng(3 * p + 7 * q + r)
    cp = sample_chart_point(p, q, r, rng)
    st_check = o_p_structure_check(cp)
    assert st_check.projection_residual <= 1e-10
    assert st_check.closed_form_residual <= 1e-10


@pytest.mark.parametrize("p,q,r", TRIPLES)
def test_stratum_dimension_counts(p, q, r):
    rng = derived_rng(p + q + r)
    cp = sample_chart_point(p, q, r, rng)
    out = stratum_dimension_check(cp)
    assert out["jacobian_rank"] == out["expected_dim"]
    assert out["frame_size"] == out["expected_frame"]
    assert out["jacobian_rank"] == r * (p - r) + q * r
    assert out["frame_size"] == (q - r) * (p - r)


def test_chart_point_validates_rank():
    a = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])  # rank 1, r = 2
    with pytest.raises(InvalidChartPoint):
        ChartPoint(a, np.zeros((2, 1)))
    with pytest.raises(InvalidChartPoint):
        ChartPoint(np.ones((2, 3)), np.zeros((3, 1)))   # r > q


def test_sampler_respects_condition_limits():
    rng = derived_rng(55)
    for _ in range(20):
        cp = sample_chart_point(5, 4, 3, rng)
        gram = cp.a.T @ cp.a
        assert np.linalg.cond(gram) <= 1e4
        assert np.linalg.cond(induced_metric(cp).assembled) <= 1e5


def _second_derivatives_loop(p, q, r):
    """The chart's second-derivative tensor, one unit matrix at a time."""
    dim = r * (p - r) + q * r
    d2 = np.zeros((p * q, dim, dim))
    for j in range(p):
        for s in range(r):
            ia = j * r + s
            for sp in range(q - r):
                il = p * r + s * (q - r) + sp
                amb = np.zeros((p, q))
                amb[j, r + sp] = 1.0
                flat = amb.ravel()
                d2[:, ia, il] += flat
                d2[:, il, ia] += flat
    return d2


def test_second_derivatives_equal_the_loop_built_tensor():
    for p in range(1, 7):
        for q in range(1, p + 1):
            for r in range(q):
                got = parametric._second_derivatives(p, q, r)
                assert got.tobytes() == _second_derivatives_loop(
                    p, q, r).tobytes(), (p, q, r)


def _two_svd_sampler(p, q, r, rng):
    """The sampler's rule with cond(a^T a) taken from an SVD of a^T a."""
    for _ in range(parametric.MAX_DRAWS):
        a = rng.normal(size=(p, r))
        lam = rng.uniform(-2.0, 2.0, size=(r, q - r))
        if _two_svd_accepts(a, lam):
            return ChartPoint(a, lam)
    raise AssertionError("reference sampler ran out of draws")


def _two_svd_accepts(a, lam):
    metric = ChartPoint(a, lam).metric.assembled
    return (np.linalg.cond(a.T @ a) <= parametric.A_COND_LIMIT
            and np.linalg.cond(metric) <= parametric.METRIC_COND_LIMIT)


SAMPLER_SHAPES = [(p, q, r) for p in range(2, 9) for q in range(2, p + 1)
                  for r in range(1, q)]


def test_sampler_draws_the_points_of_the_two_svd_rule():
    for p, q, r in SAMPLER_SHAPES:
        ours = derived_rng(1000 + 100 * p + 10 * q + r)
        ref = derived_rng(1000 + 100 * p + 10 * q + r)
        for _ in range(10):
            got = sample_chart_point(p, q, r, ours)
            want = _two_svd_sampler(p, q, r, ref)
            assert got.a.tobytes() == want.a.tobytes()
            assert got.lam.tobytes() == want.lam.tobytes()
        assert str(ours.bit_generator.state) == str(ref.bit_generator.state)


class _ScriptedRng:
    """Generator stand-in that hands out scripted (a, lam) draws."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.lam = None

    def normal(self, size):
        a, self.lam = self.draws.pop(0)
        return a.reshape(size)

    def uniform(self, low, high, size):
        return self.lam.reshape(size)


def test_sampler_rejects_as_the_two_svd_rule_near_the_limit():
    # Gaussian draws are rarely rejected, so these are built with
    # cond(a^T a) spread over 1e3..1e5, around A_COND_LIMIT = 1e4
    rng = derived_rng(77)
    accepted = []
    for p, q, r in SAMPLER_SHAPES:
        fallback = (np.eye(p, r), np.zeros((r, q - r)))
        for _ in range(20):
            u = np.linalg.qr(rng.normal(size=(p, r)))[0]
            v = np.linalg.qr(rng.normal(size=(r, r)))[0]
            sigma = np.geomspace(1.0, 10 ** rng.uniform(1.5, 2.5), r)
            a = (u * sigma) @ v.T
            lam = rng.uniform(-2.0, 2.0, size=(r, q - r))
            cp = sample_chart_point(p, q, r,
                                    _ScriptedRng([(a, lam), fallback]))
            kept = cp.a.tobytes() == a.tobytes()
            assert kept == _two_svd_accepts(a, lam), (p, q, r)
            accepted.append(kept)
    assert 200 < sum(accepted) < len(accepted) - 200


def test_sampler_rejects_as_the_assembled_svd_rule_near_the_metric_limit():
    # a and lam scaled so the assembled metric's condition spreads over
    # 1e3..1e6, around METRIC_COND_LIMIT = 1e5, with cond(a^T a) <= 1e4
    rng = derived_rng(78)
    kept_count = 0
    for p, q, r in SAMPLER_SHAPES:
        fallback = (np.eye(p, r), np.zeros((r, q - r)))
        for _ in range(20):
            u = np.linalg.qr(rng.normal(size=(p, r)))[0]
            v = np.linalg.qr(rng.normal(size=(r, r)))[0]
            sigma = (np.geomspace(1.0, 10 ** rng.uniform(0.0, 1.5), r)
                     * 10 ** rng.uniform(-0.6, 0.4))
            a = (u * sigma) @ v.T
            lam = (rng.uniform(-2.0, 2.0, size=(r, q - r))
                   * 10 ** rng.uniform(0.4, 1.1))
            assert np.linalg.cond(a.T @ a) <= parametric.A_COND_LIMIT
            cp = sample_chart_point(p, q, r,
                                    _ScriptedRng([(a, lam), fallback]))
            kept = cp.a.tobytes() == a.tobytes()
            assert kept == _two_svd_accepts(a, lam), (p, q, r)
            kept_count += kept
    assert 300 < kept_count < 20 * len(SAMPLER_SHAPES) - 300


def test_metric_cond_equals_the_assembled_metric_condition():
    for p, q, r in SAMPLER_SHAPES:
        rng = derived_rng(2000 + 100 * p + 10 * q + r)
        for _ in range(40):
            cp = ChartPoint(rng.normal(size=(p, r)),
                            rng.uniform(-2.0, 2.0, size=(r, q - r)))
            assert cp.metric_cond == pytest.approx(
                np.linalg.cond(cp.metric.assembled), rel=1e-10), (p, q, r)
    assert ChartPoint(np.zeros((3, 0)), np.zeros((0, 2))).metric_cond == 1.0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_metric_cond_bounds_every_block_and_schur_complement(seed):
    # Cauchy interlacing: G, D and the two Schur complements have their
    # spectra inside the metric's, so the one guard on metric_cond covers
    # every matrix the block-inverse routes invert
    rng = derived_rng(seed)
    for p, q, r in SAMPLER_SHAPES:
        u = np.linalg.qr(rng.normal(size=(p, r)))[0]
        v = np.linalg.qr(rng.normal(size=(r, r)))[0]
        # spread and scaled so that metric_cond ranges over 1..1e7
        sigma = (np.geomspace(1.0, 10 ** rng.uniform(0.0, 3.5), r)
                 * 10 ** rng.uniform(-2.0, 2.0))
        cp = ChartPoint((u * sigma) @ v.T,
                        rng.uniform(-2.0, 2.0, size=(r, q - r)))
        if cp.metric_cond > 1e7:
            continue
        mb = cp.metric
        schur_leading = mb.d - mb.b.T @ np.linalg.solve(mb.g, mb.b)
        schur_trailing = mb.g - mb.b @ np.linalg.solve(mb.d, mb.b.T)
        for block in (mb.g, mb.d, schur_leading, schur_trailing):
            assert (np.linalg.cond(block)
                    <= cp.metric_cond * (1.0 + 1e-9)), (p, q, r)


def _past_the_guard():
    """A (3, 3, 2) point with metric_cond about 3e6: past COND_LIMIT, yet
    far from where LU stops inverting."""
    return ChartPoint(np.array([[1.0, 0.0], [0.0, 1e-3], [0.0, 0.0]]),
                      np.full((2, 1), 0.5))


def test_one_guard_refuses_both_metric_inverses(monkeypatch):
    assert COND_LIMIT < _past_the_guard().metric_cond < 10 * COND_LIMIT
    with pytest.raises(DegenerateMetric, match="exceeds"):
        _past_the_guard().metric_inv
    with pytest.raises(DegenerateMetric, match="exceeds"):
        metric_inverse(_past_the_guard())
    # a sweep sample there is reported as degenerate, not inverted
    monkeypatch.setattr(parametric, "sample_chart_point",
                        lambda *args: _past_the_guard())
    monkeypatch.setattr(sweep, "_can_fork", lambda: False)
    report = sweep.run_sweep(RunConfig(pipeline="parametric", p_values=(3,),
                                       q_values=(3,), r_values=(2,),
                                       samples=1))
    assert len(report.records) == 6
    assert {rec.verdict for rec in report.records} == {"SKIPPED-DEGENERATE"}
    # the refusal is that one comparison: above the point's condition,
    # both inverses go through and agree
    monkeypatch.setattr(parametric, "COND_LIMIT", 10 * COND_LIMIT)
    cp = _past_the_guard()
    inv = metric_inverse(cp)
    assert max_abs(cp.metric_inv - inv.leading) < 1e-6 * max_abs(inv.leading)
    assert max(inv.identity_residuals().values()) < 1e-8


def test_sampler_rejects_a_rank_deficient_draw():
    deficient = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    good = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    lam = np.full((2, 1), 0.5)
    with pytest.raises(InvalidChartPoint):
        ChartPoint(deficient, lam)
    cp = sample_chart_point(3, 3, 2, _ScriptedRng([(deficient, lam),
                                                   (good, lam)]))
    assert np.array_equal(cp.a, good)
    # a chart shape that can never hold is refused at once, not redrawn
    with pytest.raises(InvalidChartPoint):
        sample_chart_point(2, 3, 1, _ScriptedRng([(good[:2, :1],
                                                   np.zeros((1, 2)))]))


@pytest.mark.parametrize("use_autodiff", [False, True])
def test_tangency_residual_is_computed_when_read(monkeypatch, use_autodiff):
    cp = sample_chart_point(4, 3, 2, derived_rng(21))
    calls = []
    real = parametric.chart_derivative

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(parametric, "chart_derivative", counted)
    mc = mean_curvature(cp, use_autodiff=use_autodiff)
    assert calls == []
    first = mc.tangency_residual
    assert mc.tangency_residual == first < 1e-9
    assert calls == [1]


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 4),
       st.integers(0, 10 ** 6))
def test_minimality_property(p, q, r, seed):
    if q > p:
        p, q = q, p
    r = min(r, q - 1)
    cp = sample_chart_point(p, q, r, derived_rng(seed))
    mc = mean_curvature(cp)
    assert mc.max_component <= 1e-9 * mc.metric_scale
    assert mc.tangency_residual < 1e-9
