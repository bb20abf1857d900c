"""The steps have no scale.

det = 0, the level sets of the determinant pairs and the rank strata are
cones: with x, every t x lies on the same stratum.  So each step of the
levelset and complex routes, and each step that reads a stratum point x
(helicoidal, and pseudo's reflection and normal reversal), must give x and
its dilate 2^k x the same verdict against every tolerance and the same
guard decisions (a metamorphic relation; Segura et al., IEEE TSE 42(9),
2016).  Powers of two scale the input without rounding, so only the
evaluation itself differs; a residual that is an error over a norm of its
own inputs (``linalg.relative``) reads bit-equal at the dilate.
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmin import kahler, levelset, parametric, sweep
from detmin.helicoidal import off_span
from detmin.linalg import (column_reflection, declared_rank, derived_rng,
                           reflection_residuals, stratum_bases)
from detmin.parametric import MetricInverse, chart_map


def _unchanged(point):
    return point


def _levelset_on(n, rng):
    system = levelset.ConstraintSystem(n)
    return (levelset, "sample_on_variety", sweep._levelset_on, system,
            levelset.sample_on_variety(system, rng).point, system.evaluate)


def _levelset_off(n, rng):
    system = levelset.ConstraintSystem(n)
    return (sweep, "_generic_point", sweep._levelset_off, system,
            sweep._generic_point(system.values, (n + 1, n), 1e-3, rng),
            _unchanged)


def _levelset_rank_one(n, rng):
    return (levelset, "sample_singular_matrix", sweep._levelset_rank_one, n,
            levelset.sample_singular_matrix(n, rng), _unchanged)


def _complex_generic(n, rng):
    pair = kahler.TwinHarmonicPair(n)
    return (sweep, "_generic_point", sweep._complex_generic, pair,
            sweep._generic_point(pair.values, pair.ambient_dim, 0.05, rng),
            _unchanged)


def _complex_locus(n, rng):
    pair = kahler.TwinHarmonicPair(n)
    return (kahler, "sample_zeta_point", sweep._complex_locus, pair,
            kahler.sample_zeta_point(pair, rng).point, pair.evaluate)


def _outcome(step, *args):
    """Per check of ``step``, whether its residual at ``args`` is within
    the check's tolerance; or the name of the guard that refused it."""
    try:
        values = step(*args)
    except sweep.SKIP_ERRORS as exc:
        return type(exc).__name__
    return [bool(value <= check.tolerance)
            for check, value in zip(step.checks, values, strict=True)]


def _assert_certified(step, outcome):
    # the sampled point itself is certified, not refused by a guard
    assert isinstance(outcome, list), outcome
    assert all(outcome[i] for i, check in enumerate(step.checks)
               if check.gate)


@pytest.mark.parametrize("case", [_levelset_on, _levelset_off,
                                  _levelset_rank_one, _complex_generic,
                                  _complex_locus],
                         ids=lambda case: case.__name__.lstrip("_"))
@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), k=st.integers(-30, 30),
       seed=st.integers(0, 2 ** 16))
def test_a_dilate_gets_the_verdicts_of_its_point(case, n, k, seed):
    owner, sampler, step, arg, point, sampled = case(n, derived_rng(seed, n))

    def outcome(x):
        # the sampler hands the step x, in the form the step reads
        with patch.object(owner, sampler, lambda *_: sampled(x)):
            return _outcome(step, arg, None)

    here = outcome(point)
    _assert_certified(step, here)
    assert outcome(point * 2.0 ** k) == here


def _helicoidal(p, q, r):
    return sweep._helicoidal_point, (p, q, r)


def _pseudo(p, q, r):
    # the indefinite forms, whose reflection is no orthogonal matrix
    return sweep._pseudo_point, (p, q, r, sweep._form("+" * (p - 1) + "-"),
                                 sweep._form("+" * (q - 1) + "-"))


@st.composite
def _shapes(draw):
    p = draw(st.integers(2, 6))
    q = draw(st.integers(2, p))
    return p, q, draw(st.integers(0, q - 1))


@pytest.mark.parametrize("case", [_helicoidal, _pseudo],
                         ids=lambda case: case.__name__.lstrip("_"))
@settings(max_examples=60, deadline=None)
@given(shape=_shapes(), k=st.integers(-30, 30), seed=st.integers(0, 2 ** 16))
def test_a_dilated_stratum_point_gets_the_verdicts_of_its_point(
        case, shape, k, seed):
    step, args = case(*shape)

    def outcome(t):
        # the same chart point, read as the stratum point t x: pseudo's
        # metric is the chart's, so only its reflection and normal
        # reversal (and the column and row spaces) read the dilate
        with patch.object(parametric, "chart_map",
                          lambda cp: t * chart_map(cp)):
            return _outcome(step, *args, derived_rng(seed, *shape))

    here = outcome(1.0)
    _assert_certified(step, here)
    assert outcome(2.0 ** k) == here


def test_a_relative_residual_reads_bit_equal_at_every_dilate():
    # each residual over a norm of its own inputs, with no floor, is
    # invariant under an exact rescaling of those inputs
    rng = derived_rng(28)
    x = rng.normal(size=(4, 2)) @ rng.normal(size=(2, 3))
    signs = np.array([1.0, -1.0, 1.0, 1.0])
    b = column_reflection(declared_rank(x, 2), signs)
    tangent, _ = stratum_bases(x, 2)
    y = rng.normal(size=x.shape)
    inv = parametric.metric_inverse(parametric.sample_chart_point(4, 3, 2, rng))
    reflection = reflection_residuals(b, signs, x)
    off, pairwise = off_span(tangent, y), inv.pairwise_disagreement()
    assert min(reflection.values()) > 0 and off > 0 and pairwise > 0
    for k in range(-30, 31):
        t = 2.0 ** k
        assert reflection_residuals(b, signs, t * x) == reflection, k
        assert off_span(tangent, t * y) == off, k
        routes = MetricInverse(t * inv.leading, t * inv.trailing,
                               t * inv.operator, inv.assembled)
        assert routes.pairwise_disagreement() == pairwise, k
