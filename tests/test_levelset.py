"""Level-set route: two minor constraints cutting the top stratum."""

import numpy as np
import pytest

from detmin import levelset
from detmin.dual import gradient_of, hessian_of
from detmin.errors import ConventionFailure, SingularGram
from detmin.levelset import (ConstraintSystem, conjecture_evidence,
                             gradient_proportionality, gradient_rank_one,
                             identity_suite, levelset_mean_curvature,
                             logarithmic_gradient_residual, minor_inverses,
                             row_coefficients, sample_on_variety,
                             sample_singular_matrix, tangent_projector)
from detmin.linalg import make_rng, max_abs


class TestFrozenRepeatedRow:
    """A = three copies of (1, 0): every quantity is computable by hand."""

    A = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])

    def test_values_vanish(self):
        chi1, chi2 = ConstraintSystem(2).values(self.A)
        assert chi1 == 0.0 and chi2 == 0.0

    def test_gradients(self):
        g1, g2 = ConstraintSystem(2).gradients(self.A)
        assert np.array_equal(g1.ravel(), [0, -1, 0, 1, 0, 0])
        assert np.array_equal(g2.ravel(), [0, 0, 0, 1, 0, -1])

    def test_gram_matrix(self):
        proj = tangent_projector(ConstraintSystem(2).evaluate(self.A))
        assert np.array_equal(proj.gram, [[2.0, 1.0], [1.0, 2.0]])
        assert proj.rank == 4  # n^2 + n - 2

    def test_row_coefficients(self):
        rc = row_coefficients(self.A)
        assert np.allclose(rc.lam, [-1.0, 1.0, 0.0])
        assert np.allclose(rc.mu, [0.0, 1.0, -1.0])

    def test_minimality(self):
        cv = ConstraintSystem(2).evaluate(self.A)
        mc = levelset_mean_curvature(cv, tangent_projector(cv))
        assert mc.max_residual < 1e-15


@pytest.mark.parametrize("n", [2, 3])
def test_gradients_and_hessians_match_dual_numbers(n):
    rng = make_rng(n)
    system = ConstraintSystem(n)
    a = rng.normal(size=(n + 1, n))
    flat = a.ravel()

    grads_ad = gradient_of(system.values_generic, flat)
    g1, g2 = system.gradients(a)
    assert np.allclose(np.stack([g1.ravel(), g2.ravel()]), grads_ad,
                       atol=1e-12)

    h1, h2 = system.hessians(a)
    h1_ad = hessian_of(lambda v: system.values_generic(v)[0], flat)
    h2_ad = hessian_of(lambda v: system.values_generic(v)[1], flat)
    assert np.allclose(h1, h1_ad, atol=1e-12)
    assert np.allclose(h2, h2_ad, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hessians_are_exactly_traceless(n):
    rng = make_rng(10 + n)
    system = ConstraintSystem(n)
    for _ in range(5):
        h1, h2 = system.hessians(rng.normal(size=(n + 1, n)))
        assert np.all(np.diag(h1) == 0.0)
        assert np.all(np.diag(h2) == 0.0)


def test_boundary_gradient_rows_agree_exactly():
    # the sign pinned into chi2 makes d chi1 / d(first row) identical to
    # d chi2 / d(last row) as polynomials, hence equal in floating point
    rng = make_rng(3)
    system = ConstraintSystem(3)
    a = rng.normal(size=(4, 3))
    g1, g2 = system.gradients(a)
    assert np.array_equal(g1[0], g2[-1])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_minimality_on_variety(n):
    rng = make_rng(20 + n)
    system = ConstraintSystem(n)
    for _ in range(10):
        cv = system.evaluate(sample_on_variety(n, rng))
        proj = tangent_projector(cv)
        assert levelset_mean_curvature(cv, proj).max_residual < 1e-9
        assert proj.rank == n * n + n - 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_identities_everywhere_and_on_variety(n):
    rng = make_rng(30 + n)
    system = ConstraintSystem(n)
    off = rng.normal(size=(n + 1, n))
    rep = identity_suite(system.evaluate(off), on_variety=False)
    assert rep.square.max() < 1e-10
    assert rep.mixed.max() < 1e-10
    assert max_abs(rep.harmonicity) == 0.0

    on = sample_on_variety(n, rng)
    rep_on = identity_suite(system.evaluate(on), on_variety=True)
    assert rep_on.contractions.max() < 1e-9
    assert rep_on.four_term.max() < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gradient_proportionality_on_variety(n):
    rng = make_rng(40 + n)
    system = ConstraintSystem(n)
    for _ in range(5):
        a = sample_on_variety(n, rng)
        rep = gradient_proportionality(system.evaluate(a), row_coefficients(a))
        assert max(rep.values()) < 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_minor_inverse_identity_off_variety(n):
    rng = make_rng(50 + n)
    system = ConstraintSystem(n)
    for _ in range(10):
        a = rng.normal(size=(n + 1, n))
        chi1, chi2 = system.values(a)
        if min(abs(chi1), abs(chi2)) < 1e-2:
            continue
        assert logarithmic_gradient_residual(a, system.evaluate(a)) < 1e-10
        mi = minor_inverses(a)
        assert np.allclose(a[:n] @ mi.m1[:, :n], np.eye(n), atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cofactor_rank_one_on_singular_matrices(n):
    rng = make_rng(60 + n)
    for _ in range(10):
        m = sample_singular_matrix(n, rng)
        rep = gradient_rank_one(m)
        assert rep.sigma_ratio < 1e-10
        assert rep.factor_residual < 1e-9


def test_rank_one_factorization_recovers_coefficients():
    # hand case: diag(0, 1, 1) has its single nonzero cofactor at (1, 1),
    # which is exactly the pivot the factorization routes through
    m = np.diag([0.0, 1.0, 1.0])
    rep = gradient_rank_one(m)
    assert rep.singular_values[0] == pytest.approx(1.0)
    assert rep.singular_values[1] == pytest.approx(0.0, abs=1e-15)
    assert rep.factor_residual < 1e-15


def test_rank_one_factorization_needs_leading_pivot():
    # diag(1, 1, 0) concentrates the cofactor at (3, 3): the leading
    # cofactor vanishes and the lam/rho factorization cannot proceed
    with pytest.raises(ConventionFailure):
        gradient_rank_one(np.diag([1.0, 1.0, 0.0]))


class TestConjecture:
    """The mixed-sandwich closed form: stated reading vs swapped reading.

    Numerically the stated right-hand side disagrees at order one while
    swapping the two trace factors produces an identity that holds to
    machine precision at every ambient point tried.  Both residuals are
    reported as evidence and neither ever gates a verdict.
    """

    def test_printed_reading_fails_generically(self):
        rng = make_rng(71)
        system = ConstraintSystem(2)
        worst = 0.0
        for _ in range(20):
            a = rng.normal(size=(3, 2))
            ev = conjecture_evidence(system.evaluate(a))
            worst = max(worst, ev.printed_residual)
        assert worst > 1e-3

    def test_swapped_reading_holds(self):
        rng = make_rng(72)
        for n in (2, 3, 4):
            system = ConstraintSystem(n)
            for _ in range(10):
                cv = system.evaluate(rng.normal(size=(n + 1, n)))
                assert conjecture_evidence(cv).swapped_residual < 1e-12

    def test_n2_closed_form_collapse(self):
        # for n = 2 the Hessians are constant with tr(H1 H2) = 0 and
        # tr(H_alpha^2) = 4, so the two sides reduce to chi2 vs chi1
        rng = make_rng(73)
        system = ConstraintSystem(2)
        a = rng.normal(size=(3, 2))
        cv = system.evaluate(a)
        lhs = cv.grads_flat()[1] @ cv.hess1 @ cv.grads_flat()[0]
        assert lhs == pytest.approx(cv.chi2, rel=1e-12)
        printed_rhs = 0.25 * cv.chi2 * (cv.hess1 * cv.hess2).sum() + \
            0.25 * cv.chi1 * (cv.hess2 * cv.hess2).sum()
        assert printed_rhs == pytest.approx(cv.chi1, rel=1e-12)


def test_row_coefficients_require_spanning_middle_rows():
    a = np.zeros((3, 2))
    a[0, 0] = 1.0  # middle row is zero, cannot express anything
    with pytest.raises(ConventionFailure):
        row_coefficients(a)


def test_tangent_projector_rejects_collapsed_gradients():
    # a rank-1 matrix kills every 2 x 2 minor, hence both gradients
    a = np.outer(np.arange(1.0, 5.0), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(SingularGram):
        tangent_projector(ConstraintSystem(3).evaluate(a))


def test_sample_on_variety_contract():
    rng = make_rng(81)
    for n in (2, 3, 4):
        a = sample_on_variety(n, rng)
        chi1, chi2 = ConstraintSystem(n).values(a)
        assert abs(chi1) < 1e-12 and abs(chi2) < 1e-12
        assert np.linalg.norm(a) == pytest.approx(1.0)
        assert np.linalg.matrix_rank(a) == n - 1
