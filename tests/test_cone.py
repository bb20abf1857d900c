"""The determinant routes have no scale.

det = 0 and the level sets of the determinant pairs are cones: with x,
every t x lies on the same stratum.  So each step of the levelset and
complex routes must give a point x and its dilate 2^k x the same verdict
against every tolerance and the same guard decisions (a metamorphic
relation; Segura et al., IEEE TSE 42(9), 2016).  Powers of two scale the
input without rounding, so only the evaluation itself differs.
"""

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmin import kahler, levelset, sweep
from detmin.linalg import derived_rng


def _levelset_on(n, rng):
    system = levelset.ConstraintSystem(n)
    return (levelset, "sample_on_variety", sweep._levelset_on, system,
            levelset.sample_on_variety(system, rng))


def _levelset_off(n, rng):
    system = levelset.ConstraintSystem(n)
    return (sweep, "_generic_point", sweep._levelset_off, system,
            sweep._generic_point(system.values, (n + 1, n), 1e-3, rng))


def _levelset_rank_one(n, rng):
    return (levelset, "sample_singular_matrix", sweep._levelset_rank_one, n,
            levelset.sample_singular_matrix(n, rng))


def _complex_generic(n, rng):
    pair = kahler.TwinHarmonicPair(n)
    return (sweep, "_generic_point", sweep._complex_generic, pair,
            sweep._generic_point(pair.values, pair.ambient_dim, 0.05, rng))


def _complex_locus(n, rng):
    pair = kahler.TwinHarmonicPair(n)
    return (kahler, "sample_zeta_point", sweep._complex_locus, pair,
            kahler.sample_zeta_point(pair, rng))


def _outcome(owner, sampler, step, arg, point):
    """Per check of ``step``, whether its residual at ``point`` is within
    the check's tolerance; or the name of the guard that refused it."""
    with patch.object(owner, sampler, lambda *_: point):
        try:
            values = step(arg, None)
        except sweep.SKIP_ERRORS as exc:
            return type(exc).__name__
    return [bool(value <= check.tolerance)
            for check, value in zip(step.checks, values, strict=True)]


@pytest.mark.parametrize("case", [_levelset_on, _levelset_off,
                                  _levelset_rank_one, _complex_generic,
                                  _complex_locus],
                         ids=lambda case: case.__name__.lstrip("_"))
@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), k=st.integers(-30, 30),
       seed=st.integers(0, 2 ** 16))
def test_a_dilate_gets_the_verdicts_of_its_point(case, n, k, seed):
    owner, sampler, step, arg, point = case(n, derived_rng(seed, n))
    here = _outcome(owner, sampler, step, arg, point)
    # the sampled point itself is certified, not refused by a guard
    assert isinstance(here, list), here
    assert all(here[i] for i, check in enumerate(step.checks) if check.gate)
    assert _outcome(owner, sampler, step, arg, point * 2.0 ** k) == here
