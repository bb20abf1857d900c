"""First variation of area along normal fields, by finite differences.

Minimality says the derivative of the log volume density vanishes along
every normal field; the oracle below shares no code with the curvature
computation (it builds Jacobians by central differences and never touches
the closed-form metric blocks).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmin import linalg, variation
from detmin.errors import InvalidChartPoint
from detmin.linalg import COND_LIMIT, derived_rng, numerical_rank
from detmin.parametric import (ChartPoint, chart_jacobian, chart_map,
                               normal_frame, sample_chart_point)
from detmin.variation import _densities, _offsets, volume_variation


@pytest.mark.parametrize("p,q,r", [(3, 2, 1), (4, 3, 2), (3, 3, 1),
                                   (4, 2, 1)])
def test_volume_variation_vanishes(p, q, r):
    rng = derived_rng(p * 100 + q * 10 + r)
    for _ in range(3):
        cp = sample_chart_point(p, q, r, rng)
        dv = volume_variation(cp)
        assert dv.shape == ((q - r) * (p - r),)
        assert np.abs(dv).max() < 1e-5


def _fields_at_offsets(cp, field, h):
    """X and field(a, lam) at the central-difference points of ``cp``."""
    points = list(zip(*_offsets(cp, h)))
    return (np.array([chart_map(ChartPoint(a, lam)) for a, lam in points]),
            np.array([field(a, lam) for a, lam in points]))


def _per_field_variation(cp):
    """The rates with every density rebuilding its own perturbed points."""
    p, q, r = cp.p, cp.q, cp.r
    x0 = np.concatenate([cp.a.ravel(), cp.lam.ravel()])
    scale = 1.0 + max(np.abs(cp.a).max(initial=0.0),
                      np.abs(cp.lam).max(initial=0.0))
    h = np.cbrt(np.finfo(float).eps) * scale
    frame = normal_frame(cp)

    def field_of(alpha):
        sp, spp = divmod(alpha, p - r)

        def field(a, lam):
            kernel = variation._transported_kernel(a, frame.kernel_basis)
            gamma = 1.0 / np.sqrt(1.0 + (lam[:, sp] ** 2).sum())
            n = np.zeros((p, q))
            n[:, :r] = np.outer(kernel[:, spp], lam[:, sp])
            n[:, r + sp] = -kernel[:, spp]
            return gamma * n

        return field

    def density(field, t):
        jac = np.zeros((p * q, x0.size))
        for k in range(x0.size):
            xp = x0.copy(); xp[k] += h
            xm = x0.copy(); xm[k] -= h
            ends = []
            for vec in (xp, xm):
                a = vec[:p * r].reshape(p, r)
                lam = vec[p * r:].reshape(r, q - r)
                ends.append((chart_map(ChartPoint(a, lam))
                             + t * field(a, lam)).ravel())
            jac[:, k] = (ends[0] - ends[1]) / (2.0 * h)
        return float(np.sqrt(np.linalg.det(jac.T @ jac)))

    a0 = density(lambda a, lam: np.zeros((p, q)), 0.0)
    return np.array([(density(field_of(alpha), +h)
                      - density(field_of(alpha), -h)) / (2.0 * h * a0)
                     for alpha in range(frame.frame_size)])


@pytest.mark.parametrize("p,q,r", [(3, 2, 1), (4, 3, 2), (4, 4, 1),
                                   (3, 2, 0)])
def test_rates_equal_the_per_field_densities(p, q, r):
    cp = sample_chart_point(p, q, r, derived_rng(900 + 10 * p + q + r))
    assert np.array_equal(volume_variation(cp), _per_field_variation(cp))


def test_each_perturbed_point_is_built_once(monkeypatch):
    # one stacked kernel transport and determinant serve every perturbed
    # point, no chart point is built for any of them, and no rank is
    # decided: the guard reads the singular values the point holds
    cp = sample_chart_point(4, 3, 1, derived_rng(4))
    frame = normal_frame(cp)
    calls = {name: [] for name in ("numerical_rank", "_transported_kernel",
                                   "svd", "inv", "qr", "det")}
    for module in (variation, linalg, np.linalg):
        for name, shapes in calls.items():
            if hasattr(module, name):
                def counted(m, *args, fn=getattr(module, name), shapes=shapes,
                            **kwargs):
                    shapes.append(np.shape(m))
                    return fn(m, *args, **kwargs)
                monkeypatch.setattr(module, name, counted)
    built = []
    monkeypatch.setattr(ChartPoint, "__post_init__",
                        lambda self: built.append(self))
    volume_variation(cp)
    assert calls["numerical_rank"] == calls["svd"] == []
    assert calls["_transported_kernel"] == [(2 * cp.dim, cp.p, cp.r)]
    assert calls["inv"] == [(2 * cp.dim, cp.r, cp.r)]
    assert calls["qr"] == [(2 * cp.dim, cp.p, cp.p - cp.r)]
    assert calls["det"] == [(1 + 2 * frame.frame_size, cp.dim, cp.dim)]
    assert built == []


def test_offsets_refuse_a_rank_deficient_step():
    # the -h step on a_00 zeroes the first column of a
    cp = ChartPoint(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]),
                    np.full((2, 1), 0.5))
    with pytest.raises(InvalidChartPoint):
        _offsets(cp, 1.0)
    a, lam = _offsets(cp, 0.5)
    assert a.shape == (2 * cp.dim, 3, 2) and lam.shape == (2 * cp.dim, 2, 1)


ORACLE_SHAPES = [(p, q, r) for q in range(2, 5) for p in range(q, 5)
                 for r in range(q)] + [(5, 4, 2), (6, 3, 1)]


def _step(cp):
    """The central-difference step ``volume_variation`` takes at ``cp``."""
    return np.cbrt(np.finfo(float).eps) * (
        1.0 + max(np.abs(cp.a).max(initial=0.0),
                  np.abs(cp.lam).max(initial=0.0)))


def _conditions(a):
    """cond(a^T a) of each step, the matrices the kernel transport inverts."""
    s = np.linalg.svd(a, compute_uv=False)
    return (s[:, 0] / s[:, -1]) ** 2


def _a_steps(cp, h):
    """a + h E_ij and a - h E_ij for every entry (i, j) of a, unguarded."""
    units = np.eye(cp.a.size).reshape(-1, *cp.a.shape)
    return np.concatenate([cp.a + h * units, cp.a - h * units])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ORACLE_SHAPES), st.integers(0, 2 ** 32 - 1))
def test_the_guard_admits_every_sampled_stencil(shape, seed):
    # numerical_rank of the whole stack, the decision the guard replaced,
    # is the reference here and below
    cp = sample_chart_point(*shape, derived_rng(seed))
    a, _ = _offsets(cp, _step(cp))
    assert (numerical_rank(a) == cp.r).all()
    if cp.r:
        assert _conditions(a).max() <= COND_LIMIT


def test_the_guard_on_each_side_of_the_rank_bound():
    # both singular values of a are 1, so the condition bound holds on
    # either side and the rank bound s_r > h alone decides
    cp = ChartPoint(np.eye(3, 2), np.full((2, 1), 0.5))
    a, _ = _offsets(cp, 0.5)
    assert (numerical_rank(a) == 2).all()
    # h = s_r: the -h step on a_00 zeroes the first column
    assert (numerical_rank(_a_steps(cp, 1.0)) == 1).any()
    with pytest.raises(InvalidChartPoint):
        _offsets(cp, 1.0)
    # h = 2 s_r flips that column through zero: every step has rank 2, as
    # the stacked decision saw it, but the stencil straddles a deficient a
    assert (numerical_rank(_a_steps(cp, 2.0)) == 2).all()
    with pytest.raises(InvalidChartPoint):
        _offsets(cp, 2.0)


@pytest.mark.parametrize("small,admitted", [(1.1e-3, True),
                                            (1.0005e-3, False)])
def test_the_guard_bounds_the_condition_of_every_step(small, admitted):
    # cond(a^T a) = small^-2 <= COND_LIMIT at the point itself, and every
    # step has rank 2; the -h step on a_11 takes the condition past
    # COND_LIMIT when small - h < 1e-3
    cp = ChartPoint(np.diag([1.0, small, 0.0])[:, :2], np.full((2, 1), 0.5))
    h = 1e-6
    steps = _a_steps(cp, h)
    assert (numerical_rank(steps) == 2).all()
    assert (_conditions(steps).max() <= COND_LIMIT) == admitted
    if admitted:
        a, _ = _offsets(cp, h)
        assert _conditions(a).max() <= COND_LIMIT
    else:
        with pytest.raises(InvalidChartPoint):
            _offsets(cp, h)


def test_the_guard_passes_an_r0_stencil():
    # no singular value to guard: no step of any size is refused
    cp = ChartPoint(np.zeros((3, 0)), np.zeros((0, 2)))
    for h in (1e-6, 1.0, 1e6):
        a, lam = _offsets(cp, h)
        assert a.shape == (0, 3, 0) and lam.shape == (0, 0, 2)
    assert volume_variation(cp).shape == (2 * 3,)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ORACLE_SHAPES), st.integers(0, 2 ** 32 - 1))
def test_stacked_rates_equal_the_per_field_densities(shape, seed):
    cp = sample_chart_point(*shape, derived_rng(seed))
    assert np.array_equal(volume_variation(cp), _per_field_variation(cp))


def test_variation_detects_a_non_minimal_perturbation():
    # control: transporting along a *tangent*-contaminated direction with a
    # position-dependent scale must register a nonzero volume derivative,
    # otherwise the oracle could pass vacuously
    rng = derived_rng(77)
    cp = sample_chart_point(3, 2, 1, rng)

    def bogus_field(a, lam):
        return np.linalg.norm(a) * np.concatenate(
            [a, a @ lam], axis=1)  # radial stretch, scale-dependent

    h = 1e-5
    x, n = _fields_at_offsets(cp, bogus_field, 1e-6)
    d_plus, d_minus = _densities(x, np.stack([n, n]), np.array([h, -h]), 1e-6)
    rate = (np.log(d_plus) - np.log(d_minus)) / (2 * h)
    assert abs(rate) > 1e-2


def test_density_matches_jacobian_gram_at_zero():
    rng = derived_rng(5)
    cp = sample_chart_point(3, 2, 1, rng)

    def zero_field(a, lam):
        return np.zeros((3, 2))

    jac = chart_jacobian(cp)
    want = np.sqrt(np.linalg.det(jac.T @ jac))
    x, n = _fields_at_offsets(cp, zero_field, 1e-6)
    got = _densities(x, n[None], np.zeros(1), 1e-6)[0]
    assert got == pytest.approx(want, rel=1e-7)


@pytest.mark.parametrize("p,q,r", [(3, 2, 1), (4, 3, 2), (4, 4, 1),
                                   (5, 3, 2), (6, 4, 3)])
def test_transported_kernel_against_independent_facts(p, q, r):
    # the rate tests compare against a reference that transports with
    # _transported_kernel too, so the transport is checked here on its own
    cp = sample_chart_point(p, q, r, derived_rng(700 + 10 * p + q + r))
    base = cp.frame.kernel_basis
    h = _step(cp)
    a, _ = _offsets(cp, h)
    kernel = variation._transported_kernel(a, base)
    kernel_t = np.swapaxes(kernel, 1, 2)
    # orthonormal at every stencil point
    assert np.abs(kernel_t @ kernel - np.eye(p - r)).max() < 1e-13
    # spanning ker(a^T) there: the same projector as the left singular
    # vectors past rank r of an SVD of that point's a
    left = np.linalg.svd(a)[0][..., r:]
    assert np.abs(kernel @ kernel_t
                  - left @ np.swapaxes(left, 1, 2)).max() < 1e-12
    # the base basis itself at the base point, column signs included
    assert np.abs(variation._transported_kernel(cp.a, base)
                  - base).max() < 1e-13
    # and a step of h moves it by O(h): a flipped column moves by O(1)
    smallest = np.linalg.svd(cp.a, compute_uv=False)[-1]
    assert np.abs(kernel - base).max() < 4.0 * h / smallest
