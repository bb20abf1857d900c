"""Level-set route: two minor constraints cutting the top stratum."""

from functools import partial

import numpy as np
import pytest

from detmin import levelset
from detmin.dual import gradient_of, hessian_of
from detmin.errors import ConventionFailure, SingularGram
from detmin.levelset import (ConstraintSystem, conjecture_evidence,
                             gradient_proportionality, gradient_rank_one,
                             identity_suite, levelset_mean_curvature,
                             logarithmic_gradient_residual,
                             on_variety_contractions, row_coefficients,
                             sample_on_variety, sample_singular_matrix,
                             tangent_projector)
from detmin.linalg import derived_rng, max_abs, near_zero


def _det_generic(m):
    """Determinant by cofactor expansion; works on object (dual) entries."""
    k = m.shape[0]
    if k == 1:
        return m[0, 0]
    total = 0.0
    sign = 1.0
    for j in range(k):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total = total + sign * m[0, j] * _det_generic(minor)
        sign = -sign
    return total


def constraint_pair_generic(system, flat):
    """The constraint pair of ``system`` on a flat object array, by cofactor
    expansion: the dual-number oracle for its cofactor derivatives."""
    n = system.n
    a = np.asarray(flat, dtype=object).reshape(n + 1, n)
    return np.array([_det_generic(a[:n, :]),
                     system.sign2 * _det_generic(a[1:, :])], dtype=object)


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
        jet = ConstraintSystem(2).evaluate(self.A)
        assert np.array_equal(jet.grad_gram, [[2.0, 1.0], [1.0, 2.0]])
        assert tangent_projector(jet) == 4  # n^2 + n - 2

    def test_row_coefficients(self):
        rc = row_coefficients(self.A)
        assert np.allclose(rc.lam, [-1.0, 1.0, 0.0])
        assert np.allclose(rc.mu, [0.0, 1.0, -1.0])

    def test_minimality(self):
        jet = ConstraintSystem(2).evaluate(self.A)
        assert levelset_mean_curvature(jet) < 1e-15


@pytest.mark.parametrize("n", [2, 3])
def test_gradients_and_hessians_match_dual_numbers(n):
    rng = derived_rng(n)
    system = ConstraintSystem(n)
    a = rng.normal(size=(n + 1, n))
    flat = a.ravel()

    pair = partial(constraint_pair_generic, system)
    grads_ad = gradient_of(pair, flat)
    g1, g2 = system.gradients(a)
    assert np.allclose(np.stack([g1.ravel(), g2.ravel()]), grads_ad,
                       atol=1e-12)

    h1, h2 = system.hessians(a)
    h1_ad = hessian_of(lambda v: pair(v)[0], flat)
    h2_ad = hessian_of(lambda v: pair(v)[1], flat)
    assert np.allclose(h1, h1_ad, atol=1e-12)
    assert np.allclose(h2, h2_ad, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hessians_are_exactly_traceless(n):
    rng = derived_rng(10 + n)
    system = ConstraintSystem(n)
    for _ in range(5):
        h1, h2 = system.hessians(rng.normal(size=(n + 1, n)))
        assert np.all(np.diag(h1) == 0.0)
        assert np.all(np.diag(h2) == 0.0)


def test_boundary_gradient_rows_agree_exactly():
    # the sign pinned into chi2 makes d chi1 / d(first row) identical to
    # d chi2 / d(last row) as polynomials, hence equal in floating point
    rng = derived_rng(3)
    system = ConstraintSystem(3)
    a = rng.normal(size=(4, 3))
    g1, g2 = system.gradients(a)
    assert np.array_equal(g1[0], g2[-1])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_minimality_on_variety(n):
    rng = derived_rng(20 + n)
    system = ConstraintSystem(n)
    for _ in range(10):
        jet = sample_on_variety(system, rng)
        assert levelset_mean_curvature(jet) < 1e-9
        assert tangent_projector(jet) == n * n + n - 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_identities_everywhere_and_on_variety(n):
    rng = derived_rng(30 + n)
    system = ConstraintSystem(n)
    off = rng.normal(size=(n + 1, n))
    rep = identity_suite(system.evaluate(off))
    assert rep.square.max() < 1e-10
    assert rep.mixed.max() < 1e-10
    assert max_abs(rep.harmonicity) == 0.0

    rep_on = on_variety_contractions(sample_on_variety(system, rng))
    assert rep_on.contractions.max() < 1e-9
    assert rep_on.four_term.max() < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gradient_proportionality_on_variety(n):
    rng = derived_rng(40 + n)
    system = ConstraintSystem(n)
    for _ in range(5):
        jet = sample_on_variety(system, rng)
        rep = gradient_proportionality(jet, row_coefficients(jet.point))
        assert max(rep.values()) < 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_minor_inverse_identity_off_variety(n):
    rng = derived_rng(50 + n)
    system = ConstraintSystem(n)
    for _ in range(10):
        a = rng.normal(size=(n + 1, n))
        chi1, chi2 = system.values(a)
        if min(abs(chi1), abs(chi2)) < 1e-2:
            continue
        assert logarithmic_gradient_residual(system.evaluate(a)) < 1e-10
        # each gradient is chi times the transposed inverse of its block,
        # and exactly zero on the row its block leaves out
        g1, g2 = system.gradients(a)
        assert np.allclose(g1[:n], chi1 * np.linalg.inv(a[:n]).T, atol=1e-10)
        assert not g1[n].any() and not g2[0].any()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cofactor_rank_one_on_singular_matrices(n):
    rng = derived_rng(60 + n)
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
    # cofactor singular values 1 and 0: the second over the first
    assert rep.sigma_ratio == pytest.approx(0.0, abs=1e-15)
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
        rng = derived_rng(71)
        system = ConstraintSystem(2)
        worst = 0.0
        for _ in range(20):
            a = rng.normal(size=(3, 2))
            ev = conjecture_evidence(system.evaluate(a))
            worst = max(worst, ev.printed_residual)
        assert worst > 1e-3

    def test_swapped_reading_holds(self):
        rng = derived_rng(72)
        for n in (2, 3, 4):
            system = ConstraintSystem(n)
            for _ in range(10):
                jet = system.evaluate(rng.normal(size=(n + 1, n)))
                assert conjecture_evidence(jet).swapped_residual < 1e-12

    def test_n2_closed_form_collapse(self):
        # for n = 2 the Hessians are constant with tr(H1 H2) = 0 and
        # tr(H_alpha^2) = 4, so the two sides reduce to chi2 vs chi1
        rng = derived_rng(73)
        system = ConstraintSystem(2)
        a = rng.normal(size=(3, 2))
        (chi1, chi2), (g1, g2) = system.values(a), system.gradients(a)
        h1, h2 = system.hessians(a)
        lhs = g2.ravel() @ h1 @ g1.ravel()
        assert lhs == pytest.approx(chi2, rel=1e-12)
        printed_rhs = 0.25 * chi2 * (h1 * h2).sum() + \
            0.25 * chi1 * (h2 * h2).sum()
        assert printed_rhs == pytest.approx(chi1, rel=1e-12)


def test_row_coefficients_require_spanning_middle_rows():
    a = np.zeros((3, 2))
    a[0, 0] = 1.0  # middle row is zero, cannot express anything
    with pytest.raises(ConventionFailure):
        row_coefficients(a)


def test_row_coefficients_return_off_variety_residuals():
    # a full-rank matrix is off the variety: both outer rows keep a unit
    # part outside the middle row e2, relative to |a| = 2
    a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert np.allclose(row_coefficients(a).residuals, [0.5, 0.5])


def test_tangent_projector_rejects_collapsed_gradients():
    # a rank-1 matrix kills every 2 x 2 minor, hence both gradients
    a = np.outer(np.arange(1.0, 5.0), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(SingularGram):
        tangent_projector(ConstraintSystem(3).evaluate(a))


def test_sample_on_variety_contract():
    rng = derived_rng(81)
    for n in (2, 3, 4):
        system = ConstraintSystem(n)
        a = sample_on_variety(system, rng).point
        chi1, chi2 = system.values(a)
        assert abs(chi1) < 1e-12 and abs(chi2) < 1e-12
        assert np.linalg.norm(a) == pytest.approx(1.0)
        assert np.linalg.matrix_rank(a) == n - 1


def test_the_on_variety_test_refuses_generic_draws_at_n_16():
    # the values have degree 16, so at unit norm they fall below 1e-12 off
    # the variety too: a test on |chi| alone accepted all 200 of these
    system = ConstraintSystem(16)
    rng = derived_rng(5)
    for _ in range(200):
        a = rng.normal(size=(17, 16))
        a /= np.linalg.norm(a)
        grad_norms = np.linalg.norm(system.gradients(a).reshape(2, -1),
                                    axis=1)
        assert max(map(abs, system.values(a))) <= 1e-12
        assert not near_zero(system.values(a), a, grad_norms).all()
    jet = sample_on_variety(system, rng)
    assert near_zero(jet.values, jet.point, jet.grad_norms).all()
