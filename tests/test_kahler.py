"""Complex chart, determinant twin pair, and the det = 0 locus."""

from functools import partial

import numpy as np
import pytest

from detmin import kahler
from detmin.dual import gradient_of, hessian_of
from detmin.errors import InvalidChartPoint, SingularGram
from detmin.kahler import (ComplexChartPoint, TwinHarmonicPair,
                           complex_chart_geometry, complex_chart_jacobian,
                           complex_chart_second_derivatives, flatten,
                           rho_value, sample_complex_chart_point,
                           sample_zeta_point, twin_harmonic_suite, unflatten,
                           zeta_minimality)
from detmin.linalg import derived_rng, max_abs, near_zero
from detmin.sweep import RunConfig, run_sweep


def _embed_generic(flat):
    x, y = flat[:3], flat[3:6]
    lam, mu = flat[6], flat[7]
    re2 = [lam * x[i] - mu * y[i] for i in range(3)]
    im2 = [lam * y[i] + mu * x[i] for i in range(3)]
    return np.array(list(x) + list(y) + re2 + im2, dtype=object)


def _flat(cp):
    return np.concatenate([cp.x, cp.y, [cp.lam, cp.mu]])


def _complex_det_generic(re, im):
    """Cofactor-expansion determinant on (re, im) pair entries."""
    k = re.shape[0]
    if k == 1:
        return re[0, 0], im[0, 0]
    total_re, total_im = 0.0, 0.0
    sign = 1.0
    for j in range(k):
        mre = np.delete(np.delete(re, 0, axis=0), j, axis=1)
        mim = np.delete(np.delete(im, 0, axis=0), j, axis=1)
        sub_re, sub_im = _complex_det_generic(mre, mim)
        total_re = total_re + sign * (re[0, j] * sub_re - im[0, j] * sub_im)
        total_im = total_im + sign * (re[0, j] * sub_im + im[0, j] * sub_re)
        sign = -sign
    return total_re, total_im


def twin_pair_generic(pair, flat):
    """(u, v) of ``pair`` on a flat object array by pair arithmetic: the
    dual-number oracle for its cofactor derivatives."""
    n = pair.n
    flat = np.asarray(flat, dtype=object)
    re = flat[:n * n].reshape((n, n)).T  # column-major
    im = flat[n * n:].reshape((n, n)).T
    return np.array(_complex_det_generic(re, im), dtype=object)


class TestComplexChart:

    def test_point_validation(self):
        with pytest.raises(InvalidChartPoint):
            ComplexChartPoint(np.zeros(3), np.zeros(3), 1.0, 0.0)
        with pytest.raises(InvalidChartPoint):
            ComplexChartPoint(np.zeros(2), np.zeros(3), 1.0, 0.0)

    def test_jacobian_matches_dual_numbers(self):
        rng = derived_rng(1)
        for _ in range(5):
            cp = sample_complex_chart_point(rng)
            jac_ad = gradient_of(_embed_generic, _flat(cp))
            assert np.allclose(complex_chart_jacobian(cp), jac_ad, atol=1e-13)

    def test_second_derivatives_match_dual_numbers(self):
        rng = derived_rng(2)
        cp = sample_complex_chart_point(rng)
        d2 = complex_chart_second_derivatives()
        assert not d2.flags.writeable
        flat = _flat(cp)
        for f in range(12):
            h_ad = hessian_of(lambda v: _embed_generic(v)[f], flat)
            assert np.allclose(d2[f], h_ad, atol=1e-13), f

    def test_identity_point_metric(self):
        # x = e1, y = 0, lam = mu = 0: metric is the identity and the
        # normals live purely in the second-column slots
        cp = ComplexChartPoint(np.array([1.0, 0, 0]), np.zeros(3), 0.0, 0.0)
        geo = complex_chart_geometry(cp)
        jac = complex_chart_jacobian(cp)
        assert np.allclose(jac.T @ jac, np.eye(8))
        assert max_abs(geo.normals[:, :6]) == 0.0
        assert max_abs(geo.mean_curvature) < 1e-15

    def test_geometry_residuals(self):
        rng = derived_rng(3)
        for _ in range(10):
            geo = complex_chart_geometry(sample_complex_chart_point(rng))
            assert geo.block_residual < 1e-13
            assert geo.schur_residual < 1e-12
            assert geo.offdiag_residual < 1e-12
            assert geo.normal_residual < 1e-12
            assert geo.normals.shape == (4, 12)
            assert max_abs(geo.mean_curvature) < 1e-12

    def test_sampler_gives_up_after_its_draw_cap(self, monkeypatch):
        class NeverPasses:
            """Generator stand-in whose normal draws are all zero."""
            draws = 0

            def normal(self, size):
                self.draws += 1
                assert self.draws <= 10 * kahler.MAX_DRAWS, "no draw cap"
                return np.zeros(size)

        rng = NeverPasses()
        with pytest.raises(InvalidChartPoint):
            sample_complex_chart_point(rng)
        assert rng.draws == 2 * kahler.MAX_DRAWS
        monkeypatch.setattr(kahler, "sample_complex_chart_point",
                            lambda _: sample_complex_chart_point(
                                NeverPasses()))
        report = run_sweep(RunConfig(pipeline="complex", q_values=(2,),
                                     samples=2))
        chart = [r for r in report.records if r.check in
                 ("complex.chart-minimality", "complex.chart-blocks")]
        assert len(chart) == 4
        assert all(r.verdict == "SKIPPED-DEGENERATE"
                   and r.point.endswith("[InvalidChartPoint]") for r in chart)
        assert report.exit_status() == 0

    def test_embedding_matches_complex_product(self):
        rng = derived_rng(4)
        cp = sample_complex_chart_point(rng)
        z1 = cp.x + 1j * cp.y
        z2 = (cp.lam + 1j * cp.mu) * z1
        emb = _embed_generic(_flat(cp)).astype(float)
        assert np.allclose(emb, np.concatenate([z1.real, z1.imag,
                                                z2.real, z2.imag]))


def _generic_point(n, rng, floor=0.3):
    pair = TwinHarmonicPair(n)
    while True:
        point = rng.normal(size=2 * n * n)
        u, v = pair.values(point)
        if min(abs(u), abs(v)) > floor:
            return point


class TestTwinPair:

    def test_flatten_round_trip(self):
        rng = derived_rng(10)
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.allclose(unflatten(3, flatten(z)), z)

    def test_values_match_determinant(self):
        rng = derived_rng(11)
        for n in (2, 3, 4):
            z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            u, v = TwinHarmonicPair(n).values(flatten(z))
            det = complex(np.linalg.det(z))
            assert u == pytest.approx(det.real, rel=1e-12)
            assert v == pytest.approx(det.imag, rel=1e-12)

    def test_identity_matrix_gradients(self):
        gu, gv = TwinHarmonicPair(2).gradients(flatten(np.eye(2)))
        assert np.array_equal(gu, [1, 0, 0, 1, 0, 0, 0, 0])
        assert np.array_equal(gv, [0, 0, 0, 0, 1, 0, 0, 1])

    @pytest.mark.parametrize("n", [2, 3])
    def test_gradients_match_dual_numbers(self, n):
        rng = derived_rng(12 + n)
        pair = TwinHarmonicPair(n)
        point = rng.normal(size=2 * n * n)
        grads_ad = gradient_of(partial(twin_pair_generic, pair), point)
        gu, gv = pair.gradients(point)
        assert np.allclose(np.stack([gu, gv]), grads_ad, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_hessians_match_dual_numbers(self, n):
        rng = derived_rng(14 + n)
        pair = TwinHarmonicPair(n)
        point = rng.normal(size=2 * n * n)
        hu, hv = pair.hessians(point)
        hu_ad = hessian_of(lambda v: twin_pair_generic(pair, v)[0], point)
        hv_ad = hessian_of(lambda v: twin_pair_generic(pair, v)[1], point)
        assert np.allclose(hu, hu_ad, atol=1e-12)
        assert np.allclose(hv, hv_ad, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hessians_traceless_exactly(self, n):
        rng = derived_rng(16 + n)
        pair = TwinHarmonicPair(n)
        hu, hv = pair.hessians(rng.normal(size=2 * n * n))
        assert np.trace(hu) == 0.0
        assert np.trace(hv) == 0.0

    def test_same_row_second_derivatives_vanish(self):
        n = 3
        rng = derived_rng(19)
        pair = TwinHarmonicPair(n)
        hu, hv = pair.hessians(rng.normal(size=2 * n * n))
        for h in (hu, hv):
            for i in range(n):
                for j in range(n):
                    for l in range(n):
                        # both real blocks pair the same complex row here
                        assert h[j * n + i, l * n + i] == 0.0
                        assert h[j * n + i, n * n + l * n + i] == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ambient_identities(self, n):
        rng = derived_rng(20 + n)
        for _ in range(5):
            rep = twin_harmonic_suite(
                TwinHarmonicPair(n).evaluate(_generic_point(n, rng)))
            assert rep.grad_norm_gap < 1e-12
            assert rep.grad_orthogonality < 1e-12
            assert max_abs(rep.harmonic) == 0.0
            assert rep.pair_vector < 1e-12
            assert rep.pair_cross < 1e-12
            assert rep.contraction_table.max() < 1e-12

    def test_rho_is_two_for_n2(self):
        rng = derived_rng(24)
        pair = TwinHarmonicPair(2)
        for _ in range(20):
            point = _generic_point(2, rng, floor=0.5)
            assert abs(rho_value(pair, point) - 2.0) < 1e-12
            rep = twin_harmonic_suite(pair.evaluate(point))
            assert abs(rep.rho - rep.rho_alt) < 1e-10

    @pytest.mark.parametrize("n,degree", [(2, 0), (3, 2)])
    def test_rho_homogeneity(self, n, degree):
        rng = derived_rng(26 + n)
        pair = TwinHarmonicPair(n)
        point = _generic_point(n, rng, floor=0.5)
        base = rho_value(pair, point)
        for t in (2.0, 3.0):
            scaled = rho_value(pair, t * point)
            assert scaled == pytest.approx(t ** degree * base, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_rho_value_equals_the_hessian_sandwich(self, n):
        # rho_value reads u.Hu.u from C(n, 2) determinants, the suite from
        # the full Hessian
        rng = derived_rng(40 + n)
        pair = TwinHarmonicPair(n)
        for _ in range(5):
            point = _generic_point(n, rng)
            u, _ = pair.values(point)
            gu, _ = pair.gradients(point)
            hu, _ = pair.hessians(point)
            rho = rho_value(pair, point)
            assert rho == pytest.approx(float(gu @ hu @ gu) / u, rel=1e-12)
            assert rho == pytest.approx(
                twin_harmonic_suite(pair.evaluate(point)).rho, rel=1e-12)

    def test_suite_refuses_vanishing_twin(self):
        # real entries force v = 0 identically
        with pytest.raises(SingularGram):
            twin_harmonic_suite(
                TwinHarmonicPair(2).evaluate(flatten(np.eye(2))))


class TestZetaLocus:

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sample_contract(self, n):
        rng = derived_rng(30 + n)
        pair = TwinHarmonicPair(n)
        point = sample_zeta_point(pair, rng).point
        u, v = pair.values(point)
        assert abs(u) < 1e-12 and abs(v) < 1e-12
        assert np.linalg.norm(point) == pytest.approx(1.0)
        assert np.linalg.matrix_rank(unflatten(n, point)) == n - 1

    def test_generic_draws_are_refused_at_n_16(self):
        # u and v have degree 16, so at unit norm they fall below 1e-12 off
        # the locus too: a test on |u|, |v| alone accepted all 50 of these
        pair = TwinHarmonicPair(16)
        rng = derived_rng(5)
        for _ in range(50):
            z = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
            point = flatten(z / np.linalg.norm(z))
            grad_norms = np.linalg.norm(pair.gradients(point), axis=1)
            assert max(map(abs, pair.values(point))) <= 1e-12
            assert not near_zero(pair.values(point), point, grad_norms).all()
        jet = sample_zeta_point(pair, rng)
        assert near_zero(jet.values, jet.point, jet.grad_norms).all()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_minimality_and_conformality(self, n):
        rng = derived_rng(34 + n)
        pair = TwinHarmonicPair(n)
        for _ in range(5):
            zm = zeta_minimality(sample_zeta_point(pair, rng))
            assert zm.max_residual < 1e-10
            assert zm.gram_conformality < 1e-12

    def test_deeper_stratum_collapses_gradients(self):
        # rank n - 2 kills every complex cofactor
        z = np.zeros((3, 3), dtype=complex)
        z[0, 0] = 1.0 + 0.5j
        with pytest.raises(SingularGram):
            zeta_minimality(TwinHarmonicPair(3).evaluate(flatten(z)))
