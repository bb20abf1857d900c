"""Acceptance suite: one test and one printed verdict line per criterion.

Each test states its tolerance inline; run with ``-s`` to see the verdict
lines as they complete.  The full parametric grid (criteria 1 and 2) is
shared through a module fixture so the 11200-point survey runs once.
"""

import time

import numpy as np
import pytest

from detmin.helicoidal import helicoidal_certificate
from detmin.kahler import (TwinHarmonicPair, complex_chart_geometry,
                           rho_value, sample_complex_chart_point,
                           twin_harmonic_suite)
from detmin.levelset import (ConstraintSystem, gradient_rank_one,
                             identity_suite, levelset_mean_curvature,
                             sample_on_variety, sample_singular_matrix,
                             tangent_projector)
from detmin.linalg import make_rng, max_abs
from detmin.parametric import (ChartPoint, chart_map, mean_curvature,
                               metric_inverse, sample_chart_point,
                               stratum_dimension_check)
from detmin.pseudo import (IndefiniteForm, hyperbolic_det_residual,
                           pseudo_minimality, sample_pseudo_point,
                           signature_adjudication)
from detmin.sweep import RunConfig, run_sweep
from detmin.variation import volume_variation

FULL_GRID = [(p, q, r)
             for q in range(2, 9) for p in range(q, 9) for r in range(q)]
HELICOIDAL_GRID = [(p, q, r)
                   for q in range(2, 7) for p in range(q, 7) for r in range(q)]
SMALL_GRID = [(p, q, r)
              for q in range(2, 5) for p in range(q, 5) for r in range(q)]


def _verdict(num, title, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} "
          f"{title}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def parametric_survey():
    """Worst residuals over 100 points for every stratum with p, q <= 8."""
    rng = make_rng(2026)
    start = time.perf_counter()
    worst_h = 0.0
    worst_tangency = 0.0
    count = 0
    for p, q, r in FULL_GRID:
        for _ in range(100):
            mc = mean_curvature(sample_chart_point(p, q, r, rng))
            worst_h = max(worst_h, mc.max_component)
            worst_tangency = max(worst_tangency, mc.tangency_residual)
            count += 1
    elapsed = time.perf_counter() - start
    return {"worst_h": worst_h, "worst_tangency": worst_tangency,
            "points": count, "elapsed": elapsed}


def test_criterion_01_parametric_minimality(parametric_survey):
    s = parametric_survey
    assert s["points"] == len(FULL_GRID) * 100
    ok = s["worst_h"] <= 1e-9 and s["elapsed"] < 120.0
    _verdict(1, "parametric minimality, every stratum p,q <= 8", ok,
             f"max |H| component {s['worst_h']:.3e} (tol 1e-09) over "
             f"{s['points']} points in {s['elapsed']:.1f}s (budget 120s)")


def test_criterion_02_trace_tangency(parametric_survey):
    s = parametric_survey
    ok = s["worst_tangency"] <= 1e-9
    _verdict(2, "inverse-metric trace is tangent", ok,
             f"max residual {s['worst_tangency']:.3e} (tol 1e-09) at the "
             f"same {s['points']} points")


def test_criterion_03_block_inverse_routes():
    rng = make_rng(3)
    worst_id = 0.0
    worst_pair = 0.0
    for p, q, r in FULL_GRID:
        for _ in range(10):
            mi = metric_inverse(sample_chart_point(p, q, r, rng))
            worst_id = max(worst_id, *mi.identity_residuals().values())
            worst_pair = max(worst_pair, mi.pairwise_disagreement())
    ok = worst_id <= 1e-10 and worst_pair <= 1e-10
    _verdict(3, "three inverse routes agree", ok,
             f"worst identity residual {worst_id:.3e}, worst pairwise "
             f"gap {worst_pair:.3e} (tol 1e-10)")


def test_criterion_04_dimension_counts():
    rng = make_rng(4)
    checked = 0
    for p, q, r in FULL_GRID:
        for _ in range(10):
            res = stratum_dimension_check(sample_chart_point(p, q, r, rng))
            assert res["ok"], (p, q, r, res)
            assert res["jacobian_rank"] == r * (p - r) + q * r
            assert res["frame_size"] == (q - r) * (p - r)
            checked += 1
    _verdict(4, "dimension and frame counts exact", True,
             f"{checked} points, jacobian rank r(p-r)+qr and frame size "
             f"(q-r)(p-r) exact at every one")


def test_criterion_05_levelset_minimality_and_identities():
    worst_min = 0.0
    worst_contr = 0.0
    worst_ident = 0.0
    for n in (2, 3, 4):
        rng = make_rng(50 + n)
        system = ConstraintSystem(n)
        for _ in range(50):
            cv = system.evaluate(sample_on_variety(n, rng))
            mc = levelset_mean_curvature(cv, tangent_projector(cv))
            worst_min = max(worst_min, mc.max_residual)
            rep = identity_suite(cv, on_variety=True)
            worst_contr = max(worst_contr, rep.contractions.max(),
                              rep.four_term.max())
        for _ in range(50):
            rep = identity_suite(system.evaluate(rng.normal(size=(n + 1, n))),
                                 on_variety=False)
            worst_ident = max(worst_ident, rep.square.max(),
                              rep.mixed.max())
    ok = worst_min <= 1e-9 and worst_ident <= 1e-10 and worst_contr <= 1e-9
    _verdict(5, "level-set minimality and gradient identities", ok,
             f"tr(P d2 chi) {worst_min:.3e} (tol 1e-09), ambient "
             f"identities {worst_ident:.3e} (tol 1e-10), on-variety "
             f"contractions {worst_contr:.3e} (tol 1e-09)")


def test_criterion_06_cofactor_rank_one():
    worst = 0.0
    for n in (2, 3, 4, 5):
        rng = make_rng(60 + n)
        for _ in range(50):
            rep = gradient_rank_one(sample_singular_matrix(n, rng))
            worst = max(worst, rep.sigma_ratio)
    _verdict(6, "cofactor matrix is rank one on the singular locus",
             worst <= 1e-10,
             f"max sigma_2 / sigma_1 = {worst:.3e} (tol 1e-10) over 200 "
             f"singular matrices, n = 2..5")


def test_criterion_07_helicoidal_certificates():
    worst_refl = 0.0
    worst_rev = 0.0
    count = 0
    for p, q, r in HELICOIDAL_GRID:
        rng = make_rng(700 + 36 * p + 6 * q + r)
        for _ in range(50):
            x = chart_map(sample_chart_point(p, q, r, rng))
            cert = helicoidal_certificate(x, r, rng)
            assert cert.ok(), (p, q, r, cert)
            worst_refl = max(worst_refl,
                             *cert.reflection_residuals.values(),
                             cert.isometry_residual)
            worst_rev = max(worst_rev, cert.normal_reversal)
            count += 1
    ok = worst_refl <= 1e-12 and worst_rev <= 1e-10
    _verdict(7, "helicoidal reflection certificates", ok,
             f"{count} points over {len(HELICOIDAL_GRID)} strata p,q <= 6; "
             f"worst invariant {worst_refl:.3e} (tol 1e-12), worst normal "
             f"reversal {worst_rev:.3e} (tol 1e-10)")


def test_criterion_08_complex_pipeline():
    rng = make_rng(8)
    pair = TwinHarmonicPair(2)
    worst_rho = 0.0
    accepted = 0
    while accepted < 100:
        point = rng.normal(size=8)
        u, v = pair.values(point)
        if min(abs(u), abs(v)) < 0.5:
            continue  # rho is a ratio; stay away from its singular set
        worst_rho = max(worst_rho, abs(rho_value(2, point) - 2.0))
        accepted += 1

    worst_twin = 0.0
    for n in (2, 3):
        for _ in range(25):
            while True:
                point = rng.normal(size=2 * n * n)
                u, v = TwinHarmonicPair(n).values(point)
                if min(abs(u), abs(v)) > 0.3:
                    break
            rep = twin_harmonic_suite(n, point)
            worst_twin = max(worst_twin, rep.grad_norm_gap,
                             rep.grad_orthogonality, max_abs(rep.harmonic),
                             rep.pair_vector, rep.pair_cross,
                             rep.contraction_table.max())

    worst_chart = 0.0
    for _ in range(100):
        geo = complex_chart_geometry(sample_complex_chart_point(rng))
        worst_chart = max(worst_chart, max_abs(geo.mean_curvature))

    ok = worst_rho <= 1e-12 and worst_twin <= 1e-10 and worst_chart <= 1e-10
    _verdict(8, "complex multiplier, twin identities, chart curvature", ok,
             f"|rho - 2| {worst_rho:.3e} (tol 1e-12) at 100 points; twin "
             f"residuals {worst_twin:.3e} (tol 1e-10); chart |H| "
             f"{worst_chart:.3e} (tol 1e-10)")


def test_criterion_09_pseudo_pipeline():
    rng = make_rng(9)
    worst_det = hyperbolic_det_residual(np.array([1.0, 0.0]), 2.0)
    for _ in range(50):
        worst_det = max(worst_det, hyperbolic_det_residual(
            rng.normal(size=2), float(rng.uniform(-3, 3))))

    totals_ok = True
    for p in range(1, 5):
        for q in range(1, 5):
            for p1 in range(p + 1):
                for q1 in range(q + 1):
                    adj = signature_adjudication(
                        IndefiniteForm.from_counts(p1, p - p1),
                        IndefiniteForm.from_counts(q1, q - q1))
                    totals_ok &= sum(adj["eigen"]) == p * q
                    totals_ok &= adj["paired_ok"]
    flagged = signature_adjudication(IndefiniteForm.from_counts(2, 0),
                                     IndefiniteForm.from_counts(1, 1))
    flag_ok = (flagged["eigen"] == (2, 2) and flagged["crossed"] == (1, 2)
               and not flagged["crossed_ok"])

    worst_h = 0.0
    cases = [(2, 2, 1, "++", "+-"), (3, 2, 1, "+-+", "++"),
             (3, 3, 2, "++-", "+-+"), (4, 3, 2, "+++-", "++-")]
    for p, q, r, es, zs in cases:
        eta = IndefiniteForm.from_string(es)
        zeta = IndefiniteForm.from_string(zs)
        for _ in range(10):
            cp = sample_pseudo_point(p, q, r, eta, zeta, rng)
            pm = pseudo_minimality(cp, eta, zeta)
            worst_h = max(worst_h, pm.max_component / pm.metric_scale)

    ok = worst_det <= 1e-12 and totals_ok and flag_ok and worst_h <= 1e-9
    _verdict(9, "indefinite ambient: det formula, signatures, minimality",
             ok,
             f"det residual {worst_det:.3e} (tol 1e-12); eigen counts "
             f"total pq for all patterns p,q <= 4; crossed reading flagged "
             f"at (2,0,1,1) as (1,2) vs eigen (2,2); worst scaled |H| "
             f"{worst_h:.3e} (tol 1e-09)")


def test_criterion_10_cross_pipeline_agreement():
    worst_param = 0.0
    worst_level = 0.0
    for n in (2, 3):
        rng = make_rng(100 + n)
        system = ConstraintSystem(n)
        for _ in range(10):
            x = sample_on_variety(n, rng)
            # chart over the leading n - 1 columns, which span the column
            # space here; the chart must reproduce the sampled matrix
            lead = x[:, :n - 1]
            lam = np.linalg.lstsq(lead, x[:, n - 1:], rcond=None)[0]
            cp = ChartPoint(lead, lam)
            assert max_abs(chart_map(cp) - x) <= 1e-10
            mc = mean_curvature(cp)
            assert mc.verdict(1e-9)
            worst_param = max(worst_param, mc.max_component)
            cv = system.evaluate(x)
            worst_level = max(worst_level, levelset_mean_curvature(
                cv, tangent_projector(cv)).max_residual)
            assert helicoidal_certificate(x, n - 1, rng).ok()

    worst_fd = 0.0
    rng = make_rng(105)
    for p, q, r in SMALL_GRID:
        for _ in range(10):
            rates = volume_variation(sample_chart_point(p, q, r, rng))
            if rates.size:
                worst_fd = max(worst_fd, max_abs(rates))
    ok = worst_param <= 1e-9 and worst_level <= 1e-9 and worst_fd <= 1e-5
    _verdict(10, "pipelines agree at shared points; volume oracle", ok,
             f"parametric {worst_param:.3e} and level-set "
             f"{worst_level:.3e} at the same matrices (tol 1e-09), "
             f"helicoidal certificates pass there, finite-difference "
             f"volume rate {worst_fd:.3e} (tol 1e-05)")


def test_criterion_11_conjecture_is_evidence_only():
    config = RunConfig(pipeline="levelset", q_values=(2, 3), samples=3,
                       seed=5)
    report = run_sweep(config)
    printed = [r for r in report.records
               if r.check == "levelset.conjecture-printed"]
    swapped = [r for r in report.records
               if r.check == "levelset.conjecture-swapped"]
    ok = (bool(printed) and all(r.verdict == "EVIDENCE" for r in printed)
          and any(r.residual > 1e-3 for r in printed)
          and all(r.verdict == "EVIDENCE" for r in swapped)
          and report.exit_status() == 0)
    _verdict(11, "conjectured identity reported, never gates", ok,
             f"{len(printed)} evidence records, largest printed-form "
             f"residual {max(r.residual for r in printed):.3e}, exit "
             f"status {report.exit_status()}")


def test_criterion_12_deterministic_reports():
    config = RunConfig(p_values=(2, 3), q_values=(2, 3), samples=2, seed=12)
    first = run_sweep(config).records_json()
    second = run_sweep(config).records_json()
    ok = first == second
    _verdict(12, "record sections byte-identical across runs", ok,
             f"{len(first)} bytes, identical={first == second}")
