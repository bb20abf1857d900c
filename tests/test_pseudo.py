"""Indefinite ambient forms: signatures, degeneracy, minimality, reflections."""

import numpy as np
import pytest

from detmin.errors import DegenerateMetric, InvalidChartPoint
from detmin.linalg import (declared_rank, inertia, make_rng, max_abs,
                           reflection_residuals, stratum_bases, svd_rank)
from detmin.parametric import ChartPoint, chart_map, mean_curvature, \
    sample_chart_point
from detmin.pseudo import (IndefiniteForm, ambient_gram, degeneracy_scan,
                           form_normal_basis, form_reflection,
                           hyperbolic_det_residual, induced_gram,
                           induced_signature_check,
                           induced_signature_readings,
                           normal_reversal, pseudo_minimality,
                           sample_pseudo_point, signature_adjudication,
                           zprime_membership)

EYE2 = IndefiniteForm.from_counts(2, 0)
HYP = IndefiniteForm.from_string("+-")


class TestIndefiniteForm:

    def test_parsing_and_counts(self):
        f = IndefiniteForm.from_string("++-")
        assert np.array_equal(f.signs, [1.0, 1.0, -1.0])
        assert (f.n_plus, f.n_minus, f.dim) == (2, 1, 3)
        assert str(f) == "++-"
        assert not f.is_definite()

    def test_from_counts_matches_string(self):
        assert str(IndefiniteForm.from_counts(2, 1)) == "++-"
        assert IndefiniteForm.from_counts(3, 0).is_definite()

    def test_bad_pattern_rejected(self):
        with pytest.raises(ValueError):
            IndefiniteForm.from_string("+x-")

    def test_inertia_counts_with_zero_band(self):
        assert inertia(np.array([2.0, -1.0, 1e-14])) == (1, 1, 1)
        assert inertia(np.array([])) == (0, 0, 0)


class TestAmbientSignature:

    def test_frozen_kronecker_diagonal(self):
        # eta = +-, zeta = ++ interleaves row sign over column blocks
        assert np.array_equal(ambient_gram(HYP, IndefiniteForm.from_counts(2, 0)),
                              [1.0, 1.0, -1.0, -1.0])

    def test_paired_reading_everywhere(self):
        for p in range(1, 5):
            for q in range(1, 5):
                for p1 in range(p + 1):
                    for q1 in range(q + 1):
                        adj = signature_adjudication(
                            IndefiniteForm.from_counts(p1, p - p1),
                            IndefiniteForm.from_counts(q1, q - q1))
                        assert adj["paired_ok"], (p, q, p1, q1)
                        assert sum(adj["paired"]) == p * q

    def test_crossed_reading_fails_on_definite_into_split(self):
        adj = signature_adjudication(EYE2, HYP)
        assert adj["eigen"] == (2, 2)
        assert adj["crossed"] == (1, 2)
        assert not adj["crossed_ok"]


class TestHyperbolicChart:
    """The 2 x 2 rank-1 chart with eta = I, zeta = diag(1, -1)."""

    def test_frozen_determinant(self):
        cp = ChartPoint(np.array([[1.0], [0.0]]), np.array([[2.0]]))
        det = np.linalg.det(induced_gram(cp, EYE2, HYP))
        assert det == pytest.approx(3.0, rel=1e-12)
        assert hyperbolic_det_residual(np.array([1.0, 0.0]), 2.0) < 1e-12

    def test_det_formula_generic(self):
        rng = make_rng(1)
        for _ in range(20):
            a = rng.normal(size=2)
            lam = float(rng.uniform(-3, 3))
            assert hyperbolic_det_residual(a, lam) < 1e-12

    def test_degenerate_cone(self):
        cp = ChartPoint(np.array([[1.0], [0.0]]), np.array([[1.0]]))
        report = degeneracy_scan(cp, EYE2, HYP)
        assert report.degenerate
        assert report.signature[2] >= 1
        assert abs(report.determinant) < 1e-12
        with pytest.raises(DegenerateMetric):
            pseudo_minimality(cp, EYE2, HYP)

    def test_signature_jumps_across_cone(self):
        inside = ChartPoint(np.array([[1.0], [0.0]]), np.array([[0.5]]))
        outside = ChartPoint(np.array([[1.0], [0.0]]), np.array([[2.0]]))
        assert degeneracy_scan(inside, EYE2, HYP).signature == (2, 1, 0)
        assert degeneracy_scan(outside, EYE2, HYP).signature == (1, 2, 0)

    def test_membership_and_row_signature(self):
        inside = chart_map(ChartPoint(np.array([[1.0], [0.0]]),
                                      np.array([[0.5]])))
        member = zprime_membership(svd_rank(inside), EYE2, HYP)
        assert member["member"]
        assert member["column_signature"] == (1, 0, 0)
        assert member["row_signature"] == (1, 0, 0)

        outside = chart_map(ChartPoint(np.array([[1.0], [0.0]]),
                                       np.array([[2.0]])))
        member = zprime_membership(svd_rank(outside), EYE2, HYP)
        assert member["row_signature"] == (0, 1, 0)

        cone = chart_map(ChartPoint(np.array([[1.0], [0.0]]),
                                    np.array([[1.0]])))
        assert not zprime_membership(svd_rank(cone), EYE2, HYP)["member"]

    def test_induced_signature_readings(self):
        inside = ChartPoint(np.array([[1.0], [0.0]]), np.array([[0.5]]))
        check = induced_signature_check(inside, EYE2, HYP)
        assert check["observed"] == (2, 1)
        assert check["symmetric_ok"] and not check["duplicated_ok"]
        assert sum(check["duplicated"]) == 4  # stratum dimension is 3

        outside = ChartPoint(np.array([[1.0], [0.0]]), np.array([[2.0]]))
        check = induced_signature_check(outside, EYE2, HYP)
        assert check["observed"] == (1, 2)
        assert check["symmetric_ok"] and not check["duplicated_ok"]

    def test_readings_by_hand(self):
        readings = induced_signature_readings((1, 0, 0), (0, 1, 0), EYE2, HYP)
        assert readings["symmetric"] == (1, 2)
        assert readings["duplicated"] == (2, 2)


CASES = [
    (2, 2, 1, "++", "+-"),
    (3, 2, 1, "+-+", "++"),
    (3, 3, 2, "++-", "+-+"),
    (4, 3, 2, "+++-", "++-"),
]


@pytest.mark.parametrize("p,q,r,es,zs", CASES)
def test_minimality_on_nondegenerate_points(p, q, r, es, zs):
    eta, zeta = IndefiniteForm.from_string(es), IndefiniteForm.from_string(zs)
    rng = make_rng(100 + 10 * p + q + r)
    for _ in range(3):
        cp = sample_pseudo_point(p, q, r, eta, zeta, rng)
        pm = pseudo_minimality(cp, eta, zeta)
        assert pm.max_component <= 1e-9 * pm.metric_scale, pm.max_component
        assert pm.projector_residual < 1e-9
        assert pm.signature[2] == 0
        assert sum(pm.signature[:2]) == r * (p - r) + q * r


def test_projector_residual_is_computed_when_read(monkeypatch):
    eta, zeta = IndefiniteForm.from_string("++-"), HYP
    cp = sample_pseudo_point(3, 2, 1, eta, zeta, make_rng(22))
    products = []

    class CountedInverse(np.ndarray):
        """An inverse that records the rank of each operand it multiplies."""

        def __matmul__(self, other):
            products.append(np.ndim(other))
            return np.asarray(self) @ other

    real_inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv",
                        lambda m: real_inv(m).view(CountedInverse))
    pm = pseudo_minimality(cp, eta, zeta)
    # G-hat^-1 meets only the vector J^T K T until Pi J is asked for
    assert 2 not in products
    first = pm.projector_residual
    assert pm.projector_residual == first < 1e-9
    assert products.count(2) == 1


@pytest.mark.parametrize("p,q,r,es,zs", CASES)
def test_induced_signature_symmetric_reading(p, q, r, es, zs):
    eta, zeta = IndefiniteForm.from_string(es), IndefiniteForm.from_string(zs)
    rng = make_rng(200 + 10 * p + q + r)
    for _ in range(5):
        cp = sample_pseudo_point(p, q, r, eta, zeta, rng)
        try:
            check = induced_signature_check(cp, eta, zeta)
        except DegenerateMetric:
            continue  # restriction degeneracy is possible off the open piece
        assert check["symmetric_ok"], check
        assert sum(check["observed"]) == r * (p - r) + q * r


class TestFormReflection:

    def test_definite_case_is_euclidean_reflection(self):
        rng = make_rng(7)
        x = chart_map(sample_chart_point(3, 3, 2, rng))
        eta = IndefiniteForm.from_counts(3, 0)
        b = form_reflection(svd_rank(x), eta)
        q = np.linalg.qr(x[:, :2])[0]
        assert np.allclose(b, 2.0 * q @ q.T - np.eye(3), atol=1e-12)

    def test_invariants_on_admissible_points(self):
        eta = IndefiniteForm.from_string("++-")
        rng = make_rng(8)
        for _ in range(10):
            cp = sample_pseudo_point(3, 2, 1, eta,
                                     IndefiniteForm.from_counts(2, 0), rng)
            x = chart_map(cp)
            b = form_reflection(svd_rank(x), eta)
            res = reflection_residuals(b, eta.signs, x)
            assert max(res.values()) < 1e-12, res

    def test_null_column_space_has_no_reflection(self):
        # the single column is eta-null: the complement is not a complement;
        # along (1, 1 + 1e-7) it is nearly null, |u^T eta u| about 1e-7, and
        # the reflection's norm near 2e7 is beyond COND_LIMIT
        for second in (1.0, 1.0 + 1e-7):
            x = np.array([[1.0, 0.0], [second, 0.0]])
            with pytest.raises(DegenerateMetric):
                form_reflection(svd_rank(x), HYP)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(InvalidChartPoint):
            form_reflection(declared_rank(np.eye(3), 1),
                            IndefiniteForm.from_counts(3, 0))

    def test_rank_zero_reflects_through_origin(self):
        b = form_reflection(declared_rank(np.zeros((2, 2)), 0), HYP)
        assert np.allclose(b, -np.eye(2))


class TestTangentAndNormal:

    @pytest.mark.parametrize("p,q,r", [(2, 2, 1), (3, 2, 1), (4, 3, 2)])
    def test_tangent_dimension(self, p, q, r):
        rng = make_rng(300 + 10 * p + q + r)
        x = chart_map(sample_chart_point(p, q, r, rng))
        basis = stratum_bases(x, r)[0]
        dim = r * (p - r) + q * r
        assert basis.shape == (p * q, dim)
        forms = [(IndefiniteForm.from_counts(p, 0),
                  IndefiniteForm.from_counts(q, 0)),
                 (IndefiniteForm.from_counts(p - 1, 1),
                  IndefiniteForm.from_counts(1, q - 1))]
        for eta, zeta in forms:
            nb = form_normal_basis(x, r, eta, zeta)
            assert nb.shape == (p * q, (p - r) * (q - r))
            assert max_abs(nb.T @ nb - np.eye(nb.shape[1])) < 1e-12
            k_tangent = ambient_gram(eta, zeta)[:, None] * basis
            assert max_abs(nb.T @ k_tangent) < 1e-12

    def test_normal_basis_refuses_a_wrong_declared_rank(self):
        x = chart_map(sample_chart_point(3, 2, 1, make_rng(17)))
        eta = IndefiniteForm.from_string("+-+")
        assert form_normal_basis(x, 1, eta, HYP).shape == (6, 2)
        for r in (0, 2):
            with pytest.raises(InvalidChartPoint):
                form_normal_basis(x, r, eta, HYP)

    def test_normal_reversal_frozen(self):
        x = chart_map(ChartPoint(np.array([[1.0], [0.0]]), np.array([[2.0]])))
        b = form_reflection(svd_rank(x), EYE2)
        assert normal_reversal(x, 1, EYE2, HYP, b) < 1e-12

    @pytest.mark.parametrize("p,q,r,es,zs", CASES)
    def test_normal_reversal_sampled(self, p, q, r, es, zs):
        eta = IndefiniteForm.from_string(es)
        zeta = IndefiniteForm.from_string(zs)
        rng = make_rng(400 + 10 * p + q + r)
        for _ in range(3):
            x = chart_map(sample_pseudo_point(p, q, r, eta, zeta, rng))
            try:
                b = form_reflection(svd_rank(x), eta)
                assert normal_reversal(x, r, eta, zeta, b) < 1e-10
            except DegenerateMetric:
                continue


@pytest.mark.parametrize("p,q,r", [(2, 2, 1), (3, 3, 2), (4, 3, 1)])
def test_definite_forms_reduce_to_euclidean_curvature(p, q, r):
    eta = IndefiniteForm.from_counts(p, 0)
    zeta = IndefiniteForm.from_counts(q, 0)
    rng = make_rng(500 + 10 * p + q + r)
    for _ in range(3):
        cp = sample_chart_point(p, q, r, rng)
        pm = pseudo_minimality(cp, eta, zeta)
        mc = mean_curvature(cp)
        scale = max(1.0, max_abs(mc.trace_vector))
        assert max_abs(pm.trace_flat.reshape(p, q) - mc.trace_vector) < 1e-12 * scale
        assert max_abs(pm.normal_flat.reshape(p, q) - mc.ambient_vector) < 1e-12 * scale
