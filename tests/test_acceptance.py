"""Acceptance suite: one test and one printed verdict line per criterion.

Each test states its tolerance inline; run with ``-s`` to see the verdict
lines as they complete.  Criteria 3 to 8 read four ``run_sweep`` reports
at fixed seeds, each shared through a module fixture: a run must have no
FAIL, no skipped sample and its number of records of each check read.
Criteria 1 and 2 bound the raw mean curvature, which the sweep divides by
the metric scale, so their 11200-point survey is a fixture of its own.
Criteria 9 and 10 keep library loops: no sweep check reads criterion 9's
signature bookkeeping, and no sweep cell shares criterion 10's points.
"""

import time
from collections import Counter

import numpy as np
import pytest

from detmin.helicoidal import helicoidal_certificate
from detmin.levelset import (ConstraintSystem, levelset_mean_curvature,
                             sample_on_variety, tangent_projector)
from detmin.linalg import derived_rng, max_abs
from detmin.parametric import (ChartPoint, chart_map, mean_curvature,
                               sample_chart_point, stratum_dimension_check)
from detmin.pseudo import (IndefiniteForm, hyperbolic_det_residual,
                           pseudo_minimality, sample_pseudo_point,
                           signature_adjudication)
from detmin.sweep import RunConfig, run_sweep
from detmin.variation import volume_variation

from conftest import assert_certificate

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


def _worst(report, points, *checks):
    """Worst residual of each of ``checks``, each with ``points`` records,
    in a run with no FAIL and no skipped sample."""
    summary = report.summary()
    assert summary["counts"]["FAIL"] == 0, [
        (r.check, r.point, r.residual) for r in report.records
        if r.verdict == "FAIL"]
    assert summary["counts"]["SKIPPED-DEGENERATE"] == 0
    counts = Counter(r.check for r in report.records)
    assert [counts[c] for c in checks] == [points] * len(checks), counts
    return [summary["worst_residual"][c] for c in checks]


@pytest.fixture(scope="module")
def parametric_survey():
    """Worst residuals over 100 points for every stratum with p, q <= 8."""
    rng = derived_rng(2026)
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


@pytest.fixture(scope="module")
def parametric_sweep():
    """Criteria 3 and 4: ten points on every stratum with p, q <= 8."""
    return run_sweep(RunConfig(pipeline="parametric", p_values=range(2, 9),
                               q_values=range(2, 9), samples=10, seed=3))


def test_criterion_03_block_inverse_routes(parametric_sweep):
    points = len(FULL_GRID) * 10
    worst_id, worst_pair = _worst(parametric_sweep, points,
                                  "parametric.inverse-routes",
                                  "parametric.route-agreement")
    ok = worst_id <= 1e-10 and worst_pair <= 1e-10
    _verdict(3, "three inverse routes agree", ok,
             f"worst identity residual {worst_id:.3e}, worst pairwise "
             f"gap {worst_pair:.3e} (tol 1e-10) over {points} points")


def test_criterion_04_dimension_counts(parametric_sweep):
    points = len(FULL_GRID) * 10
    # the sweep compares the jacobian rank and frame size with the closed
    # forms; the closed forms themselves are checked once per stratum
    (worst,) = _worst(parametric_sweep, points, "parametric.dimension")
    for p, q, r in FULL_GRID:
        res = stratum_dimension_check(
            ChartPoint(np.eye(p, r), np.zeros((r, q - r))))
        assert res["jacobian_rank"] == r * (p - r) + q * r, (p, q, r, res)
        assert res["frame_size"] == (q - r) * (p - r), (p, q, r, res)
    _verdict(4, "dimension and frame counts exact", worst == 0,
             f"{points} points, jacobian rank r(p-r)+qr and frame size "
             f"(q-r)(p-r) exact at every one")


@pytest.fixture(scope="module")
def levelset_sweep():
    """Criteria 5 and 6: fifty points for each n = 2..5."""
    return run_sweep(RunConfig(pipeline="levelset", q_values=(2, 3, 4, 5),
                               samples=50, seed=5))


def test_criterion_05_levelset_minimality_and_identities(levelset_sweep):
    # off the variety, the identities hold at generic draws whose two
    # constraint values both exceed 1e-3 in modulus
    worst_min, worst_ident, worst_contr = _worst(
        levelset_sweep, 200, "levelset.minimality", "levelset.identities",
        "levelset.contractions")
    ok = worst_min <= 1e-9 and worst_ident <= 1e-10 and worst_contr <= 1e-9
    _verdict(5, "level-set minimality and gradient identities", ok,
             f"tr(P d2 chi) {worst_min:.3e} (tol 1e-09), ambient "
             f"identities {worst_ident:.3e} (tol 1e-10), on-variety "
             f"contractions {worst_contr:.3e} (tol 1e-09), 200 points each, "
             f"n = 2..5")


def test_criterion_06_cofactor_rank_one(levelset_sweep):
    # the residual is the larger of sigma_2 / sigma_1 and the rank-one
    # factor's residual
    (worst,) = _worst(levelset_sweep, 200, "levelset.rank-one")
    _verdict(6, "cofactor matrix is rank one on the singular locus",
             worst <= 1e-10,
             f"max rank-one residual {worst:.3e} (tol 1e-10) over 200 "
             f"singular matrices, n = 2..5")


@pytest.fixture(scope="module")
def helicoidal_sweep():
    """Criterion 7: fifty points on every stratum with p, q <= 6."""
    return run_sweep(RunConfig(pipeline="helicoidal", p_values=range(2, 7),
                               q_values=range(2, 7), samples=50, seed=7))


def test_criterion_07_helicoidal_certificates(helicoidal_sweep):
    points = len(HELICOIDAL_GRID) * 50
    refl, iso, rank, tangent, reversal = _worst(
        helicoidal_sweep, points, "helicoidal.reflection",
        "helicoidal.isometry", "helicoidal.rank-preserved",
        "helicoidal.tangent-membership", "helicoidal.normal-reversal")
    # a generic normal direction must not test tangent: evidence records
    controls = [r.residual for r in helicoidal_sweep.records
                if r.check == "helicoidal.counter-control"]
    assert len(controls) == points
    ok = (max(refl, iso) <= 1e-12 and rank == 0 and tangent <= 1e-9
          and reversal <= 1e-10 and min(controls) > 1e-3)
    _verdict(7, "helicoidal reflection certificates", ok,
             f"{points} points over {len(HELICOIDAL_GRID)} strata p,q <= 6; "
             f"worst invariant {max(refl, iso):.3e} (tol 1e-12), worst "
             f"tangency {tangent:.3e} (tol 1e-09), worst normal reversal "
             f"{reversal:.3e} (tol 1e-10), smallest counter-control "
             f"{min(controls):.3e} (floor 1e-03)")


@pytest.fixture(scope="module")
def complex_sweep():
    """Criterion 8: a hundred points for each n = 2, 3."""
    return run_sweep(RunConfig(pipeline="complex", q_values=(2, 3),
                               samples=100, seed=8))


def test_criterion_08_complex_pipeline(complex_sweep):
    # rho = 2 holds for n = 2 only, so it has one cell's points
    (worst_rho,) = _worst(complex_sweep, 100, "complex.rho-quadratic")
    worst_twin = max(_worst(complex_sweep, 200, "complex.twin-identities",
                            "complex.contractions"))
    (worst_chart,) = _worst(complex_sweep, 200, "complex.chart-minimality")
    ok = worst_rho <= 1e-12 and worst_twin <= 1e-10 and worst_chart <= 1e-10
    _verdict(8, "complex multiplier, twin identities, chart curvature", ok,
             f"|rho - 2| {worst_rho:.3e} (tol 1e-12) at 100 points; twin "
             f"residuals {worst_twin:.3e} (tol 1e-10) at 100 points per n; "
             f"chart |H| {worst_chart:.3e} (tol 1e-10) at 200 points")


def test_criterion_09_pseudo_pipeline():
    rng = derived_rng(9)
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
                    totals_ok &= adj["paired"] == adj["eigen"]
    flagged = signature_adjudication(IndefiniteForm.from_counts(2, 0),
                                     IndefiniteForm.from_counts(1, 1))
    flag_ok = (flagged["eigen"] == (2, 2) and flagged["crossed"] == (1, 2)
               and flagged["crossed"] != flagged["eigen"])

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
        rng = derived_rng(100 + n)
        system = ConstraintSystem(n)
        for _ in range(10):
            x = sample_on_variety(system, rng).point
            # chart over the leading n - 1 columns, which span the column
            # space here; the chart must reproduce the sampled matrix
            lead = x[:, :n - 1]
            lam = np.linalg.lstsq(lead, x[:, n - 1:], rcond=None)[0]
            cp = ChartPoint(lead, lam)
            assert max_abs(chart_map(cp) - x) <= 1e-10
            mc = mean_curvature(cp)
            assert mc.max_component <= 1e-9 * mc.metric_scale
            worst_param = max(worst_param, mc.max_component)
            jet = system.evaluate(x)
            worst_level = max(worst_level, levelset_mean_curvature(
                jet, tangent_projector(jet)).max_residual)
            assert_certificate(helicoidal_certificate(x, n - 1, rng), n - 1, n)

    worst_fd = 0.0
    rng = derived_rng(105)
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
