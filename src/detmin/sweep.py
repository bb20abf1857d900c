"""Seeded verification sweeps over parameter grids.

Every check the package can run is registered here with a stable name, a
slug for the mathematical statement it certifies (the ``anchor``), a
default tolerance and whether it gates the exit status.  A sweep walks a
parameter grid, draws seeded sample points per cell and emits one record
per check per point.  Each cell gets its own derived random stream, so
the record list depends only on the configuration and seed.

Grid semantics: the ``parametric``, ``helicoidal`` and ``pseudo``
pipelines run over matrix shape triples (p, q, r) with q <= p and
0 <= r < q; the ``levelset`` and ``complex`` pipelines are indexed by the
single size n of the square determinant and take n from the q range.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import helicoidal, kahler, levelset, parametric, pseudo
from .errors import (ConventionFailure, DegenerateMetric, InvalidChartPoint,
                     SingularGram)
from .linalg import derived_rng, max_abs
from .report import VerificationReport, record, skipped

SKIP_ERRORS = (DegenerateMetric, InvalidChartPoint, SingularGram,
               ConventionFailure)

PIPELINES = ("parametric", "levelset", "helicoidal", "complex", "pseudo")


@dataclass(frozen=True)
class CheckInfo:
    name: str
    pipeline: str
    anchor: str
    tolerance: float
    gate: bool
    summary: str


_CHECK_LIST = [
    # parametric
    CheckInfo("parametric.mean-curvature", "parametric",
              "rank-stratum-minimality", 1e-9, True,
              "all frame components of the mean curvature vanish"),
    CheckInfo("parametric.tangency", "parametric",
              "trace-contraction-tangency", 1e-9, True,
              "inverse-metric trace of second derivatives is tangent"),
    CheckInfo("parametric.inverse-routes", "parametric",
              "metric-inverse-identity", 1e-10, True,
              "each inverse route satisfies route @ metric = I"),
    CheckInfo("parametric.route-agreement", "parametric",
              "metric-inverse-consistency", 1e-10, True,
              "Schur (both pivots) and operator-form inverses agree"),
    CheckInfo("parametric.dimension", "parametric",
              "stratum-dimension-count", 0.5, True,
              "jacobian rank r(p-r)+qr and frame count (q-r)(p-r)"),
    CheckInfo("parametric.o-p-structure", "parametric",
              "offdiag-inverse-column-space", 1e-10, True,
              "mixed inverse block lies in the column space of a"),
    # levelset
    CheckInfo("levelset.minimality", "levelset",
              "constraint-trace-vanishing", 1e-9, True,
              "tangent-projected Hessian traces of both minors vanish"),
    CheckInfo("levelset.projector-rank", "levelset",
              "tangent-projector-rank", 0.5, True,
              "tangent projector has rank n^2 + n - 2"),
    CheckInfo("levelset.identities", "levelset",
              "determinant-pair-ambient-identities", 1e-10, True,
              "square and mixed grad/Hess/grad identities, all points"),
    CheckInfo("levelset.harmonicity", "levelset",
              "minor-harmonicity", 1e-12, True,
              "both minors have identically traceless Hessians"),
    CheckInfo("levelset.contractions", "levelset",
              "on-variety-contraction-vanishing", 1e-9, True,
              "all eight sandwiches and four-term contractions vanish"),
    CheckInfo("levelset.row-coefficients", "levelset",
              "row-dependency-coefficients", 1e-9, True,
              "pinned row coefficients and gradient proportionality"),
    CheckInfo("levelset.minor-inverse", "levelset",
              "log-gradient-minor-inverse", 1e-10, True,
              "gradient equals value times transposed minor inverse"),
    CheckInfo("levelset.rank-one", "levelset",
              "cofactor-rank-collapse", 1e-10, True,
              "cofactor matrix of a singular matrix has rank one"),
    CheckInfo("levelset.conjecture-printed", "levelset",
              "mixed-contraction-conjecture", 1e-10, False,
              "conjectured mixed sandwich closed form, as stated"),
    CheckInfo("levelset.conjecture-swapped", "levelset",
              "mixed-contraction-conjecture-swapped", 1e-10, False,
              "same conjecture with the trace factors swapped"),
    # helicoidal
    CheckInfo("helicoidal.reflection", "helicoidal",
              "reflection-invariants", 1e-12, True,
              "2QQ^T - I is an orthogonal involution fixing the point"),
    CheckInfo("helicoidal.isometry", "helicoidal",
              "conjugation-isometry", 1e-12, True,
              "left action of the reflection preserves inner products"),
    CheckInfo("helicoidal.rank-preserved", "helicoidal",
              "reflection-preserves-stratum", 0.5, True,
              "reflected stratum samples keep their rank"),
    CheckInfo("helicoidal.tangent-membership", "helicoidal",
              "cone-directions-tangent", 1e-9, True,
              "cone direction and matched-space families are tangent"),
    CheckInfo("helicoidal.normal-reversal", "helicoidal",
              "normal-reversal", 1e-10, True,
              "the reflection acts as -1 on every normal direction"),
    CheckInfo("helicoidal.counter-control", "helicoidal",
              "generic-normal-not-tangent", 1e-3, False,
              "separation: a normal direction must fail the tangency test"),
    # complex
    CheckInfo("complex.chart-minimality", "complex",
              "complex-chart-mean-curvature", 1e-10, True,
              "all four normal components vanish on the 3 x 2 chart"),
    CheckInfo("complex.chart-blocks", "complex",
              "complex-chart-metric-blocks", 1e-10, True,
              "metric, Schur and inverse blocks match their closed forms"),
    CheckInfo("complex.twin-identities", "complex",
              "determinant-pair-complex-identities", 1e-10, True,
              "Re det / Im det gradients: equal norm, orthogonal, harmonic"),
    CheckInfo("complex.contractions", "complex",
              "twin-contraction-table", 1e-10, True,
              "all eight cubic contractions reduce to one multiplier"),
    CheckInfo("complex.rho-quadratic", "complex",
              "rho-constant-small-case", 1e-12, True,
              "the multiplier is identically 2 for 2 x 2 matrices"),
    CheckInfo("complex.rho-homogeneity", "complex",
              "rho-homogeneity-degree", 1e-10, True,
              "the multiplier is homogeneous of degree 2n - 4"),
    CheckInfo("complex.zeta-minimality", "complex",
              "complex-hypersurface-minimality", 1e-9, True,
              "projected Hessian traces vanish on the det = 0 locus"),
    CheckInfo("complex.conformal-gram", "complex",
              "gradient-gram-conformal", 1e-12, True,
              "the two constraint gradients stay conformal on the locus"),
    # pseudo
    CheckInfo("pseudo.ambient-signature", "pseudo",
              "ambient-signature-count", 0.5, True,
              "paired closed-form count matches the Kronecker eigenvalues"),
    CheckInfo("pseudo.ambient-signature-crossed", "pseudo",
              "ambient-signature-crossed-reading", 0.5, False,
              "the crossed count variant, kept for the record"),
    CheckInfo("pseudo.det-formula", "pseudo",
              "degenerate-cone-determinant", 1e-12, True,
              "2 x 2 hyperbolic Gram determinant a^T a (lam^2 - 1)"),
    CheckInfo("pseudo.minimality", "pseudo",
              "indefinite-stratum-minimality", 1e-9, True,
              "normal part of the metric-trace vanishes off the cone"),
    CheckInfo("pseudo.reflection", "pseudo",
              "form-reflection-invariants", 1e-12, True,
              "column-space reflection is a form isometry fixing the point"),
    CheckInfo("pseudo.normal-reversal", "pseudo",
              "form-normal-reversal", 1e-9, True,
              "the form reflection reverses the form-orthogonal normals"),
    CheckInfo("pseudo.induced-signature", "pseudo",
              "induced-signature-count", 0.5, True,
              "symmetric closed-form stratum signature matches inertia"),
    CheckInfo("pseudo.induced-signature-duplicated", "pseudo",
              "induced-signature-duplicated-reading", 0.5, False,
              "the duplicated-term variant, kept for the record"),
    CheckInfo("pseudo.euclidean-reduction", "pseudo",
              "definite-forms-reduce", 1e-12, True,
              "identity forms reproduce the euclidean trace and curvature"),
]

CHECKS = {c.name: c for c in _CHECK_LIST}


@dataclass(frozen=True)
class RunConfig:
    pipeline: str = "all"
    p_values: tuple = (2, 3, 4)
    q_values: tuple = (2, 3, 4)
    r_values: tuple | None = None
    samples: int = 5
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    forms: tuple = ()

    def tol(self, name):
        return float(self.tolerances.get(name, CHECKS[name].tolerance))

    def pipelines(self):
        if self.pipeline == "all":
            return PIPELINES
        if self.pipeline not in PIPELINES:
            raise ValueError(f"unknown pipeline {self.pipeline!r}")
        return (self.pipeline,)


def shape_triples(config):
    for p in sorted(set(config.p_values)):
        for q in sorted(set(config.q_values)):
            if q > p:
                continue
            rs = config.r_values if config.r_values is not None else range(q)
            for r in sorted(set(rs)):
                if 0 <= r < q:
                    yield p, q, r


def n_values(config):
    return [q for q in sorted(set(config.q_values)) if q >= 2]


def _emit(report, config, point, items):
    """items: (check name, residual) pairs; gating from the registry."""
    for name, residual in items:
        info = CHECKS[name]
        report.add(record(name, info.anchor, point, residual,
                          config.tol(name), gate=info.gate))


def _skip_all(report, config, point, names, exc):
    for name in names:
        report.add(skipped(name, CHECKS[name].anchor, point,
                           type(exc).__name__, config.tol(name)))


# ---------------------------------------------------------------------------
# pipeline runners


_PARAMETRIC_PER_SAMPLE = [
    "parametric.mean-curvature", "parametric.tangency",
    "parametric.inverse-routes", "parametric.route-agreement",
    "parametric.dimension", "parametric.o-p-structure"]


def run_parametric(config, report):
    for p, q, r in shape_triples(config):
        rng = derived_rng(config.seed, 1, p, q, r)
        for i in range(config.samples):
            point = f"p={p} q={q} r={r} i={i}"
            try:
                cp = parametric.sample_chart_point(p, q, r, rng)
                mc = parametric.mean_curvature(cp)
                inv = parametric.metric_inverse(cp)
                struct = parametric.o_p_structure_check(cp)
                dims = parametric.stratum_dimension_check(cp)
            except SKIP_ERRORS as exc:
                _skip_all(report, config, point, _PARAMETRIC_PER_SAMPLE, exc)
                continue
            _emit(report, config, point, [
                ("parametric.mean-curvature",
                 mc.max_component / mc.metric_scale),
                ("parametric.tangency",
                 mc.tangency_residual / mc.metric_scale),
                ("parametric.inverse-routes",
                 max(inv.identity_residuals().values())),
                ("parametric.route-agreement", inv.pairwise_disagreement()),
                ("parametric.dimension", 0.0 if dims["ok"] else 1.0),
                ("parametric.o-p-structure",
                 max(struct.projection_residual,
                     struct.closed_form_residual)),
            ])


_LEVELSET_ON = ["levelset.minimality", "levelset.projector-rank",
                "levelset.contractions", "levelset.row-coefficients"]
_LEVELSET_OFF = ["levelset.identities", "levelset.harmonicity",
                 "levelset.minor-inverse", "levelset.conjecture-printed",
                 "levelset.conjecture-swapped"]


def _generic_nonsingular(system, rng, max_tries=50):
    for _ in range(max_tries):
        a = rng.normal(size=(system.n + 1, system.n))
        chi1, chi2 = system.values(a)
        if min(abs(chi1), abs(chi2)) > 1e-3:
            return a
    raise SingularGram("could not draw a comfortably nonsingular matrix")


def run_levelset(config, report):
    for n in n_values(config):
        system = levelset.ConstraintSystem(n)
        rng = derived_rng(config.seed, 2, n)
        for i in range(config.samples):
            point = f"n={n} i={i}"
            try:
                on = levelset.sample_on_variety(n, rng)
                cv_on = system.evaluate(on)
                proj = levelset.tangent_projector(cv_on)
                minim = levelset.levelset_mean_curvature(cv_on, proj)
                ids_on = levelset.identity_suite(cv_on, on_variety=True)
                rows = levelset.row_coefficients(on)
                grads = levelset.gradient_proportionality(cv_on, rows)
            except SKIP_ERRORS as exc:
                _skip_all(report, config, point, _LEVELSET_ON, exc)
            else:
                _emit(report, config, point, [
                    ("levelset.minimality", minim.max_residual),
                    ("levelset.projector-rank",
                     0.0 if proj.rank == n * n + n - 2 else 1.0),
                    ("levelset.contractions",
                     max(ids_on.contractions.max(), ids_on.four_term.max())),
                    ("levelset.row-coefficients",
                     max(float(rows.residuals.max()),
                         max(grads.values()))),
                ])
            try:
                off = _generic_nonsingular(system, rng)
                cv_off = system.evaluate(off)
                ids_off = levelset.identity_suite(cv_off, on_variety=False)
                logres = levelset.logarithmic_gradient_residual(off, cv_off)
                conj = levelset.conjecture_evidence(cv_off)
            except SKIP_ERRORS as exc:
                _skip_all(report, config, point, _LEVELSET_OFF, exc)
            else:
                _emit(report, config, point, [
                    ("levelset.identities",
                     max(ids_off.square.max(), ids_off.mixed.max())),
                    ("levelset.harmonicity",
                     max_abs(ids_off.harmonicity)),
                    ("levelset.minor-inverse", logres),
                    ("levelset.conjecture-printed", conj.printed_residual),
                    ("levelset.conjecture-swapped", conj.swapped_residual),
                ])
            try:
                singular = levelset.sample_singular_matrix(n, rng)
                rank_one = levelset.gradient_rank_one(singular)
            except SKIP_ERRORS as exc:
                _skip_all(report, config, point, ["levelset.rank-one"], exc)
            else:
                _emit(report, config, point, [
                    ("levelset.rank-one",
                     max(rank_one.sigma_ratio, rank_one.factor_residual)),
                ])


_HELICOIDAL_PER_SAMPLE = [
    "helicoidal.reflection", "helicoidal.isometry",
    "helicoidal.rank-preserved", "helicoidal.tangent-membership",
    "helicoidal.normal-reversal", "helicoidal.counter-control"]


def run_helicoidal(config, report):
    for p, q, r in shape_triples(config):
        rng = derived_rng(config.seed, 3, p, q, r)
        for i in range(config.samples):
            point = f"p={p} q={q} r={r} i={i}"
            try:
                cp = parametric.sample_chart_point(p, q, r, rng)
                x = parametric.chart_map(cp)
                cert = helicoidal.helicoidal_certificate(x, r, rng)
            except SKIP_ERRORS as exc:
                _skip_all(report, config, point, _HELICOIDAL_PER_SAMPLE, exc)
                continue
            _emit(report, config, point, [
                ("helicoidal.reflection",
                 max(cert.reflection_residuals.values())),
                ("helicoidal.isometry", cert.isometry_residual),
                ("helicoidal.rank-preserved",
                 0.0 if cert.rank_preserved else 1.0),
                ("helicoidal.tangent-membership",
                 max(cert.tangent_residuals.values())),
                ("helicoidal.normal-reversal", cert.normal_reversal),
                ("helicoidal.counter-control", cert.counter_control),
            ])


_COMPLEX_CHART = ["complex.chart-minimality", "complex.chart-blocks"]
_COMPLEX_GENERIC = ["complex.twin-identities", "complex.contractions",
                    "complex.rho-homogeneity"]
_COMPLEX_LOCUS = ["complex.zeta-minimality", "complex.conformal-gram"]


def _generic_twin_point(pair, rng, floor=0.05, max_tries=50):
    for _ in range(max_tries):
        pt = rng.normal(size=pair.ambient_dim)
        u, v = pair.values(pt)
        if min(abs(u), abs(v)) > floor:
            return pt
    raise SingularGram("no comfortably generic point for the pair")


def run_complex(config, report):
    for n in n_values(config):
        pair = kahler.TwinHarmonicPair(n)
        rng = derived_rng(config.seed, 4, n)
        for i in range(config.samples):
            point = f"n={n} i={i}"
            try:
                ccp = kahler.sample_complex_chart_point(rng)
                geo = kahler.complex_chart_geometry(ccp)
            except SKIP_ERRORS as exc:
                _skip_all(report, config, point, _COMPLEX_CHART, exc)
            else:
                _emit(report, config, point, [
                    ("complex.chart-minimality",
                     max_abs(geo.mean_curvature)),
                    ("complex.chart-blocks",
                     max(geo.block_residual, geo.schur_residual,
                         geo.offdiag_residual, geo.normal_residual)),
                ])
            try:
                pt = _generic_twin_point(pair, rng)
                suite = kahler.twin_harmonic_suite(n, pt)
                rho_base = suite.rho
                homog = 0.0
                for t in (2.0, 3.0):
                    expected = t ** (2 * n - 4) * rho_base
                    homog = max(homog,
                                abs(kahler.rho_value(n, t * pt) - expected)
                                / max(1.0, abs(expected)))
            except SKIP_ERRORS as exc:
                _skip_all(report, config, point, _COMPLEX_GENERIC, exc)
            else:
                _emit(report, config, point, [
                    ("complex.twin-identities",
                     max(suite.grad_norm_gap, suite.grad_orthogonality,
                         max_abs(suite.harmonic), suite.pair_vector,
                         suite.pair_cross)),
                    ("complex.contractions", suite.contraction_table.max()),
                    ("complex.rho-homogeneity", homog),
                ])
            if n == 2:
                try:
                    pt2 = _generic_twin_point(pair, rng, floor=0.5)
                    rho = kahler.rho_value(n, pt2)
                except SKIP_ERRORS as exc:
                    _skip_all(report, config, point,
                              ["complex.rho-quadratic"], exc)
                else:
                    _emit(report, config, point,
                          [("complex.rho-quadratic", abs(rho - 2.0))])
            try:
                zp = kahler.sample_zeta_point(n, rng)
                zm = kahler.zeta_minimality(n, zp)
            except SKIP_ERRORS as exc:
                _skip_all(report, config, point, _COMPLEX_LOCUS, exc)
            else:
                _emit(report, config, point, [
                    ("complex.zeta-minimality", zm.max_residual),
                    ("complex.conformal-gram", zm.gram_conformality),
                ])


def _form_code(text):
    return int("1" + "".join("1" if c == "+" else "0" for c in text), 2)


def _forms_for(config, p, q):
    chosen = [(e, z) for e, z in config.forms
              if len(e) == p and len(z) == q]
    if chosen:
        return chosen
    defaults = [("+" * p, "+" * q)]
    if p >= 1 and q >= 1:
        defaults.append(("+" * (p - 1) + "-", "+" * (q - 1) + "-"))
    return defaults


_PSEUDO_PER_SAMPLE = ["pseudo.minimality", "pseudo.reflection",
                      "pseudo.normal-reversal", "pseudo.induced-signature",
                      "pseudo.induced-signature-duplicated"]


def run_pseudo(config, report):
    # signature counting is form-only: sweep every count pattern per shape
    shapes = sorted({(p, q) for p, q, _ in shape_triples(config)})
    for p, q in shapes:
        for p1 in range(p + 1):
            for q1 in range(q + 1):
                eta = pseudo.IndefiniteForm.from_counts(p1, p - p1)
                zeta = pseudo.IndefiniteForm.from_counts(q1, q - q1)
                adj = pseudo.signature_adjudication(eta, zeta)
                point = f"p={p} q={q} eta={eta} zeta={zeta}"
                _emit(report, config, point, [
                    ("pseudo.ambient-signature",
                     0.0 if adj["paired_ok"] else 1.0),
                    ("pseudo.ambient-signature-crossed",
                     0.0 if adj["crossed_ok"] else 1.0),
                ])

    for p, q, r in shape_triples(config):
        for eta_s, zeta_s in _forms_for(config, p, q):
            eta = pseudo.IndefiniteForm.from_string(eta_s)
            zeta = pseudo.IndefiniteForm.from_string(zeta_s)
            rng = derived_rng(config.seed, 5, p, q, r,
                              _form_code(eta_s), _form_code(zeta_s))
            for i in range(config.samples):
                point = (f"p={p} q={q} r={r} eta={eta} zeta={zeta} i={i}")
                try:
                    cp = pseudo.sample_pseudo_point(p, q, r, eta, zeta, rng)
                    pm = pseudo.pseudo_minimality(cp, eta, zeta)
                    x = parametric.chart_map(cp)
                    refl = pseudo.form_reflection(x, eta, r=r)
                    reversal = pseudo.normal_reversal(x, eta, zeta, refl)
                    sig = pseudo.induced_signature_check(cp, eta, zeta)
                except SKIP_ERRORS as exc:
                    _skip_all(report, config, point, _PSEUDO_PER_SAMPLE, exc)
                    continue
                _emit(report, config, point, [
                    ("pseudo.minimality",
                     pm.max_component / pm.metric_scale),
                    ("pseudo.reflection",
                     max(refl.invariant_residuals(x, eta).values())),
                    ("pseudo.normal-reversal", reversal),
                    ("pseudo.induced-signature",
                     0.0 if sig["symmetric_ok"] else 1.0),
                    ("pseudo.induced-signature-duplicated",
                     0.0 if sig["duplicated_ok"] else 1.0),
                ])

        rng = derived_rng(config.seed, 6, p, q, r)
        eye_eta = pseudo.IndefiniteForm.from_counts(p, 0)
        eye_zeta = pseudo.IndefiniteForm.from_counts(q, 0)
        for i in range(config.samples):
            point = f"p={p} q={q} r={r} i={i}"
            try:
                cp = parametric.sample_chart_point(p, q, r, rng)
                pm = pseudo.pseudo_minimality(cp, eye_eta, eye_zeta)
                mc = parametric.mean_curvature(cp)
            except SKIP_ERRORS as exc:
                _skip_all(report, config, point,
                          ["pseudo.euclidean-reduction"], exc)
                continue
            scale = max(1.0, max_abs(mc.trace_vector))
            gap = max(
                max_abs(pm.trace_flat.reshape(p, q) - mc.trace_vector),
                max_abs(pm.normal_flat.reshape(p, q) - mc.ambient_vector))
            _emit(report, config, point,
                  [("pseudo.euclidean-reduction", gap / scale)])
            if (p, q, r) == (2, 2, 1):
                a = rng.normal(size=2)
                lam = float(rng.uniform(-2, 2))
                _emit(report, config, point,
                      [("pseudo.det-formula",
                        pseudo.hyperbolic_det_residual(a, lam))])


_RUNNERS = {
    "parametric": run_parametric,
    "levelset": run_levelset,
    "helicoidal": run_helicoidal,
    "complex": run_complex,
    "pseudo": run_pseudo,
}


def run_sweep(config):
    """Execute the configured pipelines; returns the assembled report."""
    report = VerificationReport(meta={
        "pipeline": config.pipeline,
        "p": list(config.p_values),
        "q": list(config.q_values),
        "r": None if config.r_values is None else list(config.r_values),
        "samples": config.samples,
        "seed": config.seed,
        "tolerances": {k: float(v) for k, v in
                       sorted(config.tolerances.items())},
        "forms": [list(f) for f in config.forms],
    })
    for name in config.pipelines():
        _RUNNERS[name](config, report)
    return report


# ---------------------------------------------------------------------------
# configuration files


def parse_range(text):
    """"2..5" -> (2,3,4,5); "3" -> (3,); "2,4,7" -> (2,4,7)."""
    text = str(text).strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return tuple(range(lo, hi + 1))
    if "," in text:
        return tuple(int(part) for part in text.split(",") if part.strip())
    return (int(text),)


def _parse_form(text):
    """"eta=++-,zeta=+-" -> ("++-", "+-")."""
    parts = dict(
        piece.split("=", 1) for piece in str(text).strip().split(","))
    missing = {"eta", "zeta"} - set(parts)
    if missing:
        raise ValueError(f"form spec {text!r} missing {sorted(missing)}")
    return (parts["eta"].strip(), parts["zeta"].strip())


def config_from_mapping(raw):
    """Build a RunConfig from a loosely-typed mapping (JSON or key=value)."""
    config = RunConfig()
    updates = {}
    if "pipeline" in raw:
        updates["pipeline"] = str(raw["pipeline"]).strip()
    for key, attr in (("p", "p_values"), ("q", "q_values")):
        if key in raw and raw[key] is not None:
            updates[attr] = _as_values(raw[key])
    if "r" in raw:
        updates["r_values"] = (None if raw["r"] is None
                               else _as_values(raw["r"]))
    if "samples" in raw:
        updates["samples"] = int(raw["samples"])
        if updates["samples"] < 1:
            raise ValueError(f"samples must be at least 1, got {raw['samples']}")
    if "seed" in raw:
        updates["seed"] = int(raw["seed"])
    if "tol" in raw or "tolerances" in raw:
        tols = dict(raw.get("tolerances") or raw.get("tol"))
        for name in tols:
            if name not in CHECKS:
                raise ValueError(f"unknown check {name!r} in tolerances")
        updates["tolerances"] = {k: float(v) for k, v in tols.items()}
    if "forms" in raw and raw["forms"]:
        forms = []
        for entry in raw["forms"]:
            if isinstance(entry, str):
                forms.append(_parse_form(entry))
            elif isinstance(entry, dict):
                forms.append((str(entry["eta"]), str(entry["zeta"])))
            else:
                forms.append((str(entry[0]), str(entry[1])))
        updates["forms"] = tuple(forms)
    unknown = set(raw) - {"pipeline", "p", "q", "r", "samples", "seed",
                          "tol", "tolerances", "forms"}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return replace(config, **updates)


def _as_values(value):
    if isinstance(value, (list, tuple)):
        return tuple(int(v) for v in value)
    if isinstance(value, int):
        return (value,)
    return parse_range(value)


def load_config(path):
    """Read a sweep configuration: JSON object or key=value lines.

    The key=value form accepts one pair per line, '#' comments, repeated
    ``form=`` lines, and ``tol.<check>=<value>`` entries.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return config_from_mapping(json.loads(text))
    raw = {}
    tols = {}
    forms = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line {line!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key.startswith("tol."):
            tols[key[4:]] = float(value)
        elif key == "form":
            forms.append(_parse_form(value))
        else:
            raw[key] = value
    if tols:
        raw["tolerances"] = tols
    if forms:
        raw["forms"] = forms
    return config_from_mapping(raw)
