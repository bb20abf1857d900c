"""Seeded verification sweeps over parameter grids.

Every check the package can run is registered here with a stable name, a
slug for the mathematical statement it certifies (the ``anchor``), a
default tolerance and whether it gates the exit status.  A sweep walks a
parameter grid, draws seeded sample points per cell and emits one record
per check per point.  Each cell gets its own derived random stream, so
the record list depends only on the configuration and seed.

``RunConfig`` alone decides whether a run is valid, when it is made, so
``run_sweep``, its cells and the worker raise no configuration error.

No cell reads another's stream, so a cell can run in another process: on
Linux with at least two usable CPUs, ``run_sweep`` forks one worker that
runs every other cell and streams its records back, and the report is byte
for byte the one a one-process run writes.

Grid semantics: the ``parametric``, ``helicoidal`` and ``pseudo``
pipelines run over matrix shape triples (p, q, r) with q <= p and
0 <= r < q; the ``levelset`` and ``complex`` pipelines are indexed by the
single size n of the square determinant and take n from the q range.
"""

from __future__ import annotations

import gc
import json
import math
import os
import pickle
import signal
import threading
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import count
from types import MappingProxyType

from . import helicoidal, kahler, levelset, parametric, pseudo
from .errors import (ConventionFailure, DegenerateMetric, InvalidChartPoint,
                     SingularGram)
from .linalg import checked_seed, derived_rng, max_abs, reflection_residuals
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
    """A sweep's configuration; ``ValueError`` if it is no valid run.

    The command line, config files and library callers all build one, so
    they get the same errors, before any cell runs or any worker forks.
    """

    pipeline: str = "all"
    p_values: tuple = (2, 3, 4)
    q_values: tuple = (2, 3, 4)
    r_values: tuple | None = None
    samples: int = 5
    seed: int = 0
    tolerances: Mapping = field(default_factory=dict)
    forms: tuple = ()

    def __post_init__(self):
        if self.pipeline != "all" and self.pipeline not in PIPELINES:
            raise ValueError(f"unknown pipeline {self.pipeline!r}")
        if not isinstance(self.samples, int) or self.samples < 1:
            raise ValueError(
                f"samples must be an integer of at least 1, "
                f"got {self.samples!r}")
        if not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        checked_seed(self.seed)
        for name in ("p_values", "q_values", "r_values"):
            values = getattr(self, name)
            # true and false are ints to Python, not grid entries
            if values is not None and not all(
                    isinstance(v, int) and not isinstance(v, bool)
                    for v in values):
                raise ValueError(f"{name[0]} grid entries must be "
                                 f"integers, got {list(values)!r}")
        tolerances = {}
        for name, value in self.tolerances.items():
            if name not in CHECKS:
                raise ValueError(f"unknown check {name!r} in tolerances")
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"tolerance of {name!r} must be a finite "
                                 f"number, got {value!r}")
            tolerances[name] = float(value)
        object.__setattr__(self, "tolerances", MappingProxyType(tolerances))
        names = self.pipelines()
        if not any(_CELLS[name](self) for name in names):
            r = None if self.r_values is None else list(self.r_values)
            raise ValueError(
                f"no parameter cell for pipeline {self.pipeline!r}: "
                f"p={list(self.p_values)} q={list(self.q_values)} r={r} "
                f"(cells need q <= p and 0 <= r < q, or n >= 2 from q for "
                f"levelset and complex)")
        if self.forms and "pseudo" not in names:
            raise ValueError(
                f"a form is read only by the pseudo pipeline, which pipeline "
                f"{self.pipeline!r} does not run")
        shapes = {(p, q) for p, q, _ in shape_triples(self)}
        for eta, zeta in self.forms:
            for signs in (eta, zeta):
                _form(signs)  # raises on a bad sign pattern
            if (len(eta), len(zeta)) not in shapes:
                raise ValueError(
                    f"form eta={eta},zeta={zeta} matches no pseudo cell: "
                    f"its lengths ({len(eta)}, {len(zeta)}) are no (p, q) "
                    f"of the grid")

    def tol(self, name):
        return self.tolerances.get(name, CHECKS[name].tolerance)

    def pipelines(self):
        return PIPELINES if self.pipeline == "all" else (self.pipeline,)


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


def _checked(config, point, names, residuals):
    """Records of ``residuals()`` under ``names``, or a skip for every name.

    ``residuals`` computes one sample point's residuals in the order of
    ``names``; gating and anchors come from the registry.  A degenerate
    sample (any of ``SKIP_ERRORS``) gives one ``SKIPPED-DEGENERATE`` record
    per name instead.
    """
    try:
        values = residuals()
    except SKIP_ERRORS as exc:
        return [skipped(name, CHECKS[name].anchor, point,
                        type(exc).__name__, config.tol(name))
                for name in names]
    return [record(name, CHECKS[name].anchor, point, residual,
                   config.tol(name), gate=CHECKS[name].gate)
            for name, residual in zip(names, values, strict=True)]


def _flag(ok):
    return 0.0 if ok else 1.0


# ---------------------------------------------------------------------------
# pipeline runners
#
# A runner walks its grid as a list of cells in record order: one per
# (p, q, r) or per n, each drawing from its own derived stream, and pseudo's
# form-only signature block.  A cell is an unstarted generator that yields
# one sample point's records at a time.  ``deal`` (see ``run_sweep``) maps
# a cell to the batches to write in its place; without it every cell runs
# here.


def _write(report, cells, deal):
    for cell in cells:
        for batch in (cell if deal is None else deal(cell)):
            for rec in batch:
                report.add(rec)


def run_parametric(config, report, deal=None):
    _write(report, _parametric_cells(config), deal)


def _parametric_cells(config):
    def cell(p, q, r):
        rng = derived_rng(config.seed, 1, p, q, r)
        for i in range(config.samples):
            yield _checked(config, f"p={p} q={q} r={r} i={i}", (
                "parametric.mean-curvature", "parametric.tangency",
                "parametric.inverse-routes", "parametric.route-agreement",
                "parametric.dimension", "parametric.o-p-structure"),
                lambda: _parametric_point(p, q, r, rng))

    return [cell(*triple) for triple in shape_triples(config)]


def _parametric_point(p, q, r, rng):
    cp = parametric.sample_chart_point(p, q, r, rng)
    mc = parametric.mean_curvature(cp)
    inv = parametric.metric_inverse(cp)
    struct = parametric.o_p_structure_check(cp)
    dims = parametric.stratum_dimension_check(cp)
    return (mc.max_component / mc.metric_scale,
            mc.tangency_residual / mc.metric_scale,
            max(inv.identity_residuals().values()),
            inv.pairwise_disagreement(),
            _flag(dims["ok"]),
            max(struct.projection_residual, struct.closed_form_residual))


def _generic_nonsingular(system, rng):
    for _ in range(50):
        a = rng.normal(size=(system.n + 1, system.n))
        chi1, chi2 = system.values(a)
        if min(abs(chi1), abs(chi2)) > 1e-3:
            return a
    raise SingularGram("could not draw a comfortably nonsingular matrix")


def run_levelset(config, report, deal=None):
    _write(report, _levelset_cells(config), deal)


def _levelset_cells(config):
    def cell(n):
        system = levelset.ConstraintSystem(n)
        rng = derived_rng(config.seed, 2, n)
        for i in range(config.samples):
            point = f"n={n} i={i}"
            batch = _checked(config, point, (
                "levelset.minimality", "levelset.projector-rank",
                "levelset.contractions", "levelset.row-coefficients"),
                lambda: _levelset_on(system, rng))
            batch += _checked(config, point, (
                "levelset.identities", "levelset.harmonicity",
                "levelset.minor-inverse", "levelset.conjecture-printed",
                "levelset.conjecture-swapped"),
                lambda: _levelset_off(system, rng))
            yield batch + _checked(config, point, ("levelset.rank-one",),
                                   lambda: _levelset_rank_one(n, rng))

    return [cell(n) for n in n_values(config)]


def _levelset_on(system, rng):
    n = system.n
    on = levelset.sample_on_variety(n, rng)
    cv = system.evaluate(on)
    proj = levelset.tangent_projector(cv)
    minim = levelset.levelset_mean_curvature(cv, proj)
    ids = levelset.identity_suite(cv, on_variety=True)
    rows = levelset.row_coefficients(on)
    grads = levelset.gradient_proportionality(cv, rows)
    return (minim.max_residual,
            _flag(proj.rank == n * n + n - 2),
            max(ids.contractions.max(), ids.four_term.max()),
            max(float(rows.residuals.max()), max(grads.values())))


def _levelset_off(system, rng):
    off = _generic_nonsingular(system, rng)
    cv = system.evaluate(off)
    ids = levelset.identity_suite(cv, on_variety=False)
    logres = levelset.logarithmic_gradient_residual(off, cv)
    conj = levelset.conjecture_evidence(cv)
    return (max(ids.square.max(), ids.mixed.max()),
            max_abs(ids.harmonicity),
            logres,
            conj.printed_residual,
            conj.swapped_residual)


def _levelset_rank_one(n, rng):
    rank_one = levelset.gradient_rank_one(
        levelset.sample_singular_matrix(n, rng))
    return (max(rank_one.sigma_ratio, rank_one.factor_residual),)


def run_helicoidal(config, report, deal=None):
    _write(report, _helicoidal_cells(config), deal)


def _helicoidal_cells(config):
    def cell(p, q, r):
        rng = derived_rng(config.seed, 3, p, q, r)
        for i in range(config.samples):
            yield _checked(config, f"p={p} q={q} r={r} i={i}", (
                "helicoidal.reflection", "helicoidal.isometry",
                "helicoidal.rank-preserved", "helicoidal.tangent-membership",
                "helicoidal.normal-reversal", "helicoidal.counter-control"),
                lambda: _helicoidal_point(p, q, r, rng))

    return [cell(*triple) for triple in shape_triples(config)]


def _helicoidal_point(p, q, r, rng):
    cp = parametric.sample_chart_point(p, q, r, rng)
    cert = helicoidal.helicoidal_certificate(parametric.chart_map(cp), r, rng)
    return (max(cert.reflection_residuals.values()),
            cert.isometry_residual,
            _flag(cert.rank_preserved),
            max(cert.tangent_residuals.values()),
            cert.normal_reversal,
            cert.counter_control)


def _generic_twin_point(pair, rng, floor=0.05):
    for _ in range(50):
        pt = rng.normal(size=pair.ambient_dim)
        u, v = pair.values(pt)
        if min(abs(u), abs(v)) > floor:
            return pt
    raise SingularGram("no comfortably generic point for the pair")


def run_complex(config, report, deal=None):
    _write(report, _complex_cells(config), deal)


def _complex_cells(config):
    def cell(n):
        pair = kahler.TwinHarmonicPair(n)
        rng = derived_rng(config.seed, 4, n)
        for i in range(config.samples):
            point = f"n={n} i={i}"
            batch = _checked(config, point, (
                "complex.chart-minimality", "complex.chart-blocks"),
                lambda: _complex_chart(rng))
            batch += _checked(config, point, (
                "complex.twin-identities", "complex.contractions",
                "complex.rho-homogeneity"),
                lambda: _complex_generic(pair, n, rng))
            if n == 2:
                batch += _checked(config, point, ("complex.rho-quadratic",),
                                  lambda: _complex_rho_quadratic(pair, rng))
            yield batch + _checked(config, point, (
                "complex.zeta-minimality", "complex.conformal-gram"),
                lambda: _complex_locus(n, rng))

    return [cell(n) for n in n_values(config)]


def _complex_chart(rng):
    geo = kahler.complex_chart_geometry(kahler.sample_complex_chart_point(rng))
    return (max_abs(geo.mean_curvature),
            max(geo.block_residual, geo.schur_residual,
                geo.offdiag_residual, geo.normal_residual))


def _complex_generic(pair, n, rng):
    pt = _generic_twin_point(pair, rng)
    suite = kahler.twin_harmonic_suite(n, pt)
    homog = 0.0
    for t in (2.0, 3.0):
        expected = t ** (2 * n - 4) * suite.rho
        homog = max(homog, abs(kahler.rho_value(n, t * pt) - expected)
                    / max(1.0, abs(expected)))
    return (max(suite.grad_norm_gap, suite.grad_orthogonality,
                max_abs(suite.harmonic), suite.pair_vector, suite.pair_cross),
            suite.contraction_table.max(),
            homog)


def _complex_rho_quadratic(pair, rng):
    return (abs(kahler.rho_value(2, _generic_twin_point(pair, rng, floor=0.5))
                - 2.0),)


def _complex_locus(n, rng):
    zm = kahler.zeta_minimality(n, kahler.sample_zeta_point(n, rng))
    return (zm.max_residual, zm.gram_conformality)


@lru_cache(maxsize=256)
def _form(signs):
    """One shared form per sign pattern such as "++-"; forms are read-only."""
    return pseudo.IndefiniteForm.from_string(signs)


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


def run_pseudo(config, report, deal=None):
    _write(report, _pseudo_cells(config), deal)


def _pseudo_cells(config):
    def signatures(shapes):
        # signature counting is form-only: every count pattern per shape
        for p, q in shapes:
            for p1 in range(p + 1):
                for q1 in range(q + 1):
                    eta = _form("+" * p1 + "-" * (p - p1))
                    zeta = _form("+" * q1 + "-" * (q - q1))
                    adj = pseudo.signature_adjudication(eta, zeta)
                    yield _checked(
                        config, f"p={p} q={q} eta={eta} zeta={zeta}",
                        ("pseudo.ambient-signature",
                         "pseudo.ambient-signature-crossed"),
                        lambda: (_flag(adj["paired_ok"]),
                                 _flag(adj["crossed_ok"])))

    def cell(p, q, r):
        for eta_s, zeta_s in _forms_for(config, p, q):
            eta, zeta = _form(eta_s), _form(zeta_s)
            rng = derived_rng(config.seed, 5, p, q, r,
                              _form_code(eta_s), _form_code(zeta_s))
            for i in range(config.samples):
                yield _checked(
                    config, f"p={p} q={q} r={r} eta={eta} zeta={zeta} i={i}",
                    ("pseudo.minimality", "pseudo.reflection",
                     "pseudo.normal-reversal", "pseudo.induced-signature",
                     "pseudo.induced-signature-duplicated"),
                    lambda: _pseudo_point(p, q, r, eta, zeta, rng))

        rng = derived_rng(config.seed, 6, p, q, r)
        for i in range(config.samples):
            point = f"p={p} q={q} r={r} i={i}"
            batch = _checked(config, point, ("pseudo.euclidean-reduction",),
                             lambda: _euclidean_reduction(p, q, r, rng))
            # the 2 x 2 closed form draws from the stream only after a
            # reduction that did not skip
            if ((p, q, r) == (2, 2, 1)
                    and batch[0].verdict != "SKIPPED-DEGENERATE"):
                batch += _checked(config, point, ("pseudo.det-formula",),
                                  lambda: _det_formula(rng))
            yield batch

    triples = list(shape_triples(config))
    shapes = sorted({(p, q) for p, q, _ in triples})
    return ([signatures(shapes)] if shapes else []) + [
        cell(*triple) for triple in triples]


def _pseudo_point(p, q, r, eta, zeta, rng):
    cp = pseudo.sample_pseudo_point(p, q, r, eta, zeta, rng)
    pm = pseudo.pseudo_minimality(cp, eta, zeta)
    x = parametric.chart_map(cp)
    b = pseudo.form_reflection(cp.x_rank, eta)
    reversal = pseudo.normal_reversal(x, r, eta, zeta, b)
    sig = pseudo.induced_signature_check(cp, eta, zeta)
    return (pm.max_component / pm.metric_scale,
            max(reflection_residuals(b, eta.signs, x).values()),
            reversal,
            _flag(sig["symmetric_ok"]),
            _flag(sig["duplicated_ok"]))


def _euclidean_reduction(p, q, r, rng):
    """Identity forms against the euclidean trace and mean curvature."""
    cp = parametric.sample_chart_point(p, q, r, rng)
    pm = pseudo.pseudo_minimality(cp, _form("+" * p), _form("+" * q))
    mc = parametric.mean_curvature(cp)
    scale = max(1.0, max_abs(mc.trace_vector))
    gap = max(max_abs(pm.trace_flat.reshape(p, q) - mc.trace_vector),
              max_abs(pm.normal_flat.reshape(p, q) - mc.ambient_vector))
    return (gap / scale,)


def _det_formula(rng):
    a = rng.normal(size=2)
    lam = float(rng.uniform(-2, 2))
    return (pseudo.hyperbolic_det_residual(a, lam),)


_RUNNERS = {
    "parametric": run_parametric,
    "levelset": run_levelset,
    "helicoidal": run_helicoidal,
    "complex": run_complex,
    "pseudo": run_pseudo,
}
_CELLS = {
    "parametric": _parametric_cells,
    "levelset": _levelset_cells,
    "helicoidal": _helicoidal_cells,
    "complex": _complex_cells,
    "pseudo": _pseudo_cells,
}


def run_sweep(config):
    """Execute the configured pipelines; returns the assembled report.

    On Linux with at least two CPUs this process may run on and no other
    thread running, a forked worker runs every other cell (the odd ones,
    counted over all pipelines in record order) while this process runs the
    even ones and writes every record, the worker's as they arrive, in the
    order of a one-process run.  Each cell draws from its own stream, so the
    records are the same either way.
    """
    report = VerificationReport(meta={
        "pipeline": config.pipeline,
        "p": list(config.p_values),
        "q": list(config.q_values),
        "r": None if config.r_values is None else list(config.r_values),
        "samples": config.samples,
        "seed": config.seed,
        "tolerances": dict(sorted(config.tolerances.items())),
        "forms": [list(f) for f in config.forms],
    })
    names = config.pipelines()
    cells = [cell for name in names for cell in _CELLS[name](config)]
    if len(cells) < 2 or not _can_fork():
        for name in names:
            _RUNNERS[name](config, report)
        return report
    # frozen objects are left out of collections, so neither process
    # writes to the heap pages they share after the fork
    gc.freeze()
    try:
        with _worker(cells[1::2]) as deal:
            for name in names:
                _RUNNERS[name](config, report, deal)
    finally:
        gc.unfreeze()
    return report


# ---------------------------------------------------------------------------
# the forked worker


def _can_fork():
    """Linux, two CPUs this process may run on, and no other thread.

    A thread could hold a lock at the fork that the worker then never sees
    released.
    """
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)


@contextmanager
def _worker(cells):
    """Fork a worker that runs ``cells``; yield the parent's ``deal``.

    ``cells`` are the odd cells of the run.  The parent runs each even cell
    itself and, for each odd one, reads the worker's batches from a one-way
    pipe as the worker sends them.  A worker exception is re-raised in the
    parent at its cell's turn; a worker that dies is a
    ``ChildProcessError``.  On any exception in the parent the worker is
    killed, and the worker is always reaped.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _work(cells, write_fd)
    os.close(write_fd)
    turn = count()
    with os.fdopen(read_fd, "rb") as pipe:
        try:
            yield lambda cell: cell if next(turn) % 2 == 0 else _relay(pipe)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            os.waitpid(pid, 0)


def _relay(pipe):
    """One worker cell's batches, read from the pipe as they are sent."""
    while True:
        try:
            message = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError) as exc:
            raise ChildProcessError(
                "the sweep worker stopped before finishing its cells") from exc
        if message is None:
            return
        if isinstance(message, BaseException):
            raise message
        yield message


def _work(cells, write_fd):
    """The worker: run ``cells``, send each point's records, exit.

    A message is a pickled list of records (one sample point), None
    (the end of a cell) or the exception that stopped the worker, which the
    parent raises.  Exits with ``os._exit``, so nothing of the parent's
    stack runs here.
    """
    status = 1
    try:
        with os.fdopen(write_fd, "wb") as pipe:
            def send(message):
                pipe.write(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
                pipe.flush()

            try:
                for cell in cells:
                    for batch in cell:
                        send(batch)
                    send(None)
                status = 0
            except BaseException as exc:
                try:
                    send(exc)
                except Exception:
                    send(ChildProcessError(
                        f"the sweep worker raised {type(exc).__name__}: {exc}"))
    finally:
        os._exit(status)


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
    parts = {}
    for piece in str(text).split(","):
        key, _, value = piece.partition("=")
        parts[key.strip()] = value.strip()
    if set(parts) != {"eta", "zeta"}:
        raise ValueError(f"form spec {text!r} is not eta=<signs>,zeta=<signs>")
    return parts["eta"], parts["zeta"]


def config_from_mapping(raw):
    """A RunConfig from ``pipeline``, ``p``, ``q``, ``r``, ``samples``,
    ``seed``, ``tol.<check>`` and ``form`` (one spec or a list) keys.

    Values are text (key=value files, the command line) or JSON values.
    """
    unknown = [key for key in raw if not key.startswith("tol.") and key not in
               ("pipeline", "p", "q", "r", "samples", "seed", "form")]
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    fields = {"tolerances": {key[4:]: _parsed(value, float)
                             for key, value in raw.items()
                             if key.startswith("tol.")}}
    if "pipeline" in raw:
        fields["pipeline"] = raw["pipeline"]
    for key in ("p", "q", "r"):
        if raw.get(key) is not None:
            fields[f"{key}_values"] = _as_values(raw[key])
    for key in ("samples", "seed"):
        if key in raw:
            fields[key] = _parsed(raw[key], int)
    if "form" in raw:
        specs = raw["form"] if isinstance(raw["form"], list) else [raw["form"]]
        fields["forms"] = tuple(_parse_form(spec) for spec in specs)
    return RunConfig(**fields)


def _parsed(value, kind):
    return kind(value) if isinstance(value, str) else value


def _as_values(value):
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return parse_range(value)


def load_config(path):
    """Read a sweep configuration: JSON object or key=value lines.

    Both use the vocabulary of ``config_from_mapping``.  The key=value form
    takes one pair per line, '#' comments and repeated ``form=`` lines.  Any
    other repeated key is refused; JSON lists its forms in one array.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        def unique(pairs):
            keys = [key for key, _ in pairs]
            repeated = sorted({key for key in keys if keys.count(key) > 1})
            if repeated:
                raise ValueError(f"repeated config keys: {repeated}")
            return dict(pairs)

        return config_from_mapping(json.loads(text, object_pairs_hook=unique))
    raw = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"bad config line {line!r}")
        key, value = key.strip(), value.strip()
        if key == "form":
            raw.setdefault("form", []).append(value)
        elif key in raw:
            raise ValueError(f"repeated config keys: [{key!r}]")
        else:
            raw[key] = value
    return config_from_mapping(raw)
