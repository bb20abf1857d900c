"""Seeded verification sweeps over parameter grids.

Every check the package can run is declared once, by ``_step`` at the
step function whose residuals it gates, with a stable name, a slug for
the mathematical statement it certifies (the ``anchor``), a default
tolerance and whether it gates the exit status; ``CHECKS`` holds them in
the order their records come out.  A sweep walks a parameter grid as
cells: a cell is a stream key, the fields that name its points and the
steps each point runs, and one loop, ``_sampled``, draws every cell's
seeded sample points and emits one record per check per point.
Each cell gets its own derived random stream, so the record list depends
only on the configuration and seed.

``RunConfig`` alone decides whether a run is valid, when it is made, so
``run_sweep``, its cells and the worker raise no configuration error.

No cell reads another's stream, so a cell can run in another process: on
Linux with at least two usable CPUs, ``run_sweep`` forks one worker that
runs every other cell of the run's one cell list and streams its records
back, and the report is byte for byte the one a one-process run writes.

Grid semantics: the ``parametric``, ``helicoidal`` and ``pseudo``
pipelines run over matrix shape triples (p, q, r) with q <= p and
0 <= r < q; the ``levelset`` and ``complex`` pipelines are indexed by the
single size n of the square determinant and take n from the q range.
"""

from __future__ import annotations

import gc
import json
import math
import numbers
import os
import pickle
import signal
import threading
from collections.abc import Mapping
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

from . import helicoidal, kahler, levelset, parametric, pseudo
from .errors import (ConventionFailure, DegenerateMetric, InvalidChartPoint,
                     SingularGram)
from .linalg import checked_seed, derived_rng, max_abs, reflection_residuals
from .report import VerificationReport, record, skipped

SKIP_ERRORS = (DegenerateMetric, InvalidChartPoint, SingularGram,
               ConventionFailure)


@dataclass(frozen=True)
class CheckInfo:
    name: str
    pipeline: str
    anchor: str
    tolerance: float
    gate: bool
    summary: str


# every check by name, in the order the steps below declare them, which is
# the order of their records
CHECKS = {}


def _step(pipeline, *rows):
    """Declare the checks of a step, one per residual it returns.

    Each row is ``(suffix, anchor, tolerance, gate, summary)``, in the order
    of the step's residuals, and registers ``<pipeline>.<suffix>``.
    """
    checks = tuple(CheckInfo(f"{pipeline}.{suffix}", pipeline, *row)
                   for suffix, *row in rows)
    CHECKS.update((c.name, c) for c in checks)

    def declare(step):
        step.checks = checks
        return step

    return declare


def _integer(value):
    # numpy's integers count; true and false are ints to Python (numpy's
    # bools are not Integral), not counts, seeds, grid entries or tolerances
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
        # stored as tuples first: an iterator would be used up by a check,
        # and a list form would pass the repeated-form check
        for name in ("p_values", "q_values", "r_values"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(getattr(self, name)))
        forms = tuple(self.forms)
        for form in forms:
            # a bare string would be read as its characters
            if not (isinstance(form, (tuple, list)) and len(form) == 2
                    and all(isinstance(signs, str) for signs in form)):
                raise ValueError(f"form {form!r} is not a pair of sign "
                                 f"strings (eta, zeta)")
        object.__setattr__(self, "forms", tuple(map(tuple, forms)))
        if self.pipeline != "all" and self.pipeline not in PIPELINES:
            raise ValueError(f"unknown pipeline {self.pipeline!r}")
        if not _integer(self.samples) or self.samples < 1:
            raise ValueError(
                f"samples must be an integer of at least 1, "
                f"got {self.samples!r}")
        if not _integer(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        # integers are stored as Python ints, which json writes
        object.__setattr__(self, "seed", checked_seed(self.seed))
        object.__setattr__(self, "samples", int(self.samples))
        for name in ("p_values", "q_values", "r_values"):
            values = getattr(self, name)
            if values is not None and not all(_integer(v) for v in values):
                raise ValueError(f"{name[0]} grid entries must be "
                                 f"integers, got {list(values)!r}")
            if values is not None:
                object.__setattr__(self, name, tuple(map(int, values)))
        tolerances = {}
        for name, value in self.tolerances.items():
            if name not in CHECKS:
                raise ValueError(f"unknown check {name!r} in tolerances")
            # residuals are norms or 0/1 flags: a negative bound fails all
            # numpy floats of any width are Real, numpy bools are not
            if (not isinstance(value, numbers.Real) or isinstance(value, bool)
                    or not math.isfinite(value) or value < 0):
                raise ValueError(f"tolerance of {name!r} must be a finite, "
                                 f"non-negative number, got {value!r}")
            tolerances[name] = float(value)
        object.__setattr__(self, "tolerances", MappingProxyType(tolerances))
        names = self.pipelines()
        shapes = {(p, q) for p, q, _ in shape_triples(self)}
        # levelset and complex list a cell per n, the others one per
        # (p, q, r) and pseudo its signature block when it has a shape
        empty = [name for name in names if not (
            n_values(self) if name in ("levelset", "complex") else shapes)]
        if empty:
            r = None if self.r_values is None else list(self.r_values)
            raise ValueError(
                f"no parameter cell for pipeline {', '.join(empty)}: "
                f"p={list(self.p_values)} q={list(self.q_values)} r={r} "
                f"(cells need q <= p and 0 <= r < q, or n >= 2 from q for "
                f"levelset and complex)")
        if self.forms and "pseudo" not in names:
            raise ValueError(
                f"a form is read only by the pseudo pipeline, which pipeline "
                f"{self.pipeline!r} does not run")
        for k, (eta, zeta) in enumerate(self.forms):
            for signs in (eta, zeta):
                _form(signs)  # raises on a bad sign pattern
            if (len(eta), len(zeta)) not in shapes:
                raise ValueError(
                    f"form eta={eta},zeta={zeta} matches no pseudo cell: "
                    f"its lengths ({len(eta)}, {len(zeta)}) are no (p, q) "
                    f"of the grid")
            # a second copy would only repeat the first's records
            if (eta, zeta) in self.forms[:k]:
                raise ValueError(f"form eta={eta},zeta={zeta} is given twice")

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


def _checked(config, point, step, *args):
    """Records of ``step(*args)`` under its checks, or a skip for each.

    ``step`` computes one sample point's residuals in the order of the
    checks ``_step`` declared for it; a degenerate sample (any of
    ``SKIP_ERRORS``) gives one ``SKIPPED-DEGENERATE`` record per check.
    """
    try:
        values = step(*args)
    except SKIP_ERRORS as exc:
        return [skipped(c.name, c.anchor, point, type(exc).__name__,
                        config.tol(c.name))
                for c in step.checks]
    return [record(c.name, c.anchor, point, residual, config.tol(c.name),
                   gate=c.gate)
            for c, residual in zip(step.checks, values, strict=True)]


def _flag(ok):
    return 0.0 if ok else 1.0


# ---------------------------------------------------------------------------
# pipeline runners
#
# A pipeline's cell builder lists its grid as cells in record order: one per
# (p, q, r) or per n, each drawing from its own derived stream, and pseudo's
# form-only signature block.  A cell is an unstarted generator that yields
# one sample point's records at a time.  A runner writes the cells
# ``run_sweep`` hands it, some of which may be the worker's relayed ones.


def _sampled(config, stream, steps, **fields):
    """A cell of ``config.samples`` points on ``derived_rng(seed, *stream)``.

    The stream opens when the cell first runs.  Point ``i`` is named by
    ``fields`` and ``i`` (``p=2 q=2 r=1 i=0``); its records are those of
    each ``(step, *args)`` of ``steps`` in order, called with the stream.
    """
    rng = derived_rng(config.seed, *stream)
    where = " ".join(f"{key}={value}" for key, value in fields.items())
    for i in range(config.samples):
        point = f"{where} i={i}"
        yield [rec for step, *args in steps
               for rec in _checked(config, point, step, *args, rng)]


def _shape_cells(config, tag, step):
    """One cell per (p, q, r) on stream ``tag``, running ``step``."""
    return [_sampled(config, (tag, p, q, r), [(step, p, q, r)], p=p, q=q, r=r)
            for p, q, r in shape_triples(config)]


def _write(report, cells):
    for cell in cells:
        for batch in cell:
            for rec in batch:
                report.add(rec)


def run_parametric(report, cells):
    _write(report, cells)


def _parametric_cells(config):
    return _shape_cells(config, 1, _parametric_point)


@_step("parametric",
       ("mean-curvature", "rank-stratum-minimality", 1e-9, True,
        "all frame components of the mean curvature vanish"),
       ("tangency", "trace-contraction-tangency", 1e-9, True,
        "inverse-metric trace of second derivatives is tangent"),
       ("inverse-routes", "metric-inverse-identity", 1e-10, True,
        "each inverse route satisfies route @ metric = I"),
       ("route-agreement", "metric-inverse-consistency", 1e-10, True,
        "Schur (both pivots) and operator-form inverses agree"),
       ("dimension", "stratum-dimension-count", 0.5, True,
        "jacobian rank r(p-r)+qr and frame count (q-r)(p-r)"),
       ("o-p-structure", "offdiag-inverse-column-space", 1e-10, True,
        "mixed inverse block lies in the column space of a"))
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
            _flag(dims["jacobian_rank"] == dims["expected_dim"]
                  and dims["frame_size"] == dims["expected_frame"]),
            max(struct.projection_residual, struct.closed_form_residual))


def _generic_point(values, shape, floor, rng):
    """A standard-normal draw of ``shape`` whose two constraint values both
    exceed ``floor`` in modulus; ``InvalidChartPoint`` after 50 draws."""
    for _ in range(50):
        pt = rng.normal(size=shape)
        u, v = values(pt)
        if min(abs(u), abs(v)) > floor:
            return pt
    raise InvalidChartPoint(f"no draw with both values above {floor}")


def run_levelset(report, cells):
    _write(report, cells)


def _levelset_cells(config):
    def steps(n):
        system = levelset.ConstraintSystem(n)
        return [(_levelset_on, system), (_levelset_off, system),
                (_levelset_rank_one, n)]

    return [_sampled(config, (2, n), steps(n), n=n) for n in n_values(config)]


@_step("levelset",
       ("minimality", "constraint-trace-vanishing", 1e-9, True,
        "tangent-projected Hessian traces of both minors vanish"),
       ("projector-rank", "tangent-projector-rank", 0.5, True,
        "tangent projector has rank n^2 + n - 2"),
       ("contractions", "on-variety-contraction-vanishing", 1e-9, True,
        "all eight sandwiches and four-term contractions vanish"),
       ("row-coefficients", "row-dependency-coefficients", 1e-9, True,
        "pinned row coefficients and gradient proportionality"))
def _levelset_on(system, rng):
    n = system.n
    jet = levelset.sample_on_variety(system, rng)
    rank = levelset.tangent_projector(jet)
    minim = levelset.levelset_mean_curvature(jet)
    contr = levelset.on_variety_contractions(jet)
    rows = levelset.row_coefficients(jet.point)
    grads = levelset.gradient_proportionality(jet, rows)
    return (minim,
            _flag(rank == n * n + n - 2),
            max(contr.contractions.max(), contr.four_term.max()),
            max(float(rows.residuals.max()), max(grads.values())))


@_step("levelset",
       ("identities", "determinant-pair-ambient-identities", 1e-10, True,
        "square and mixed grad/Hess/grad identities, all points"),
       ("harmonicity", "minor-harmonicity", 1e-12, True,
        "both minors have identically traceless Hessians"),
       ("minor-inverse", "log-gradient-minor-inverse", 1e-10, True,
        "gradient equals value times transposed minor inverse"),
       ("conjecture-printed", "mixed-contraction-conjecture", 1e-10, False,
        "conjectured mixed sandwich closed form, as stated"),
       ("conjecture-swapped", "mixed-contraction-conjecture-swapped", 1e-10,
        False, "same conjecture with the trace factors swapped"))
def _levelset_off(system, rng):
    n = system.n
    jet = system.evaluate(
        _generic_point(system.values, (n + 1, n), 1e-3, rng))
    ids = levelset.identity_suite(jet)
    conj = levelset.conjecture_evidence(jet)
    return (max(ids.square.max(), ids.mixed.max()),
            max_abs(ids.harmonicity),
            levelset.logarithmic_gradient_residual(jet),
            conj.printed_residual,
            conj.swapped_residual)


@_step("levelset",
       ("rank-one", "cofactor-rank-collapse", 1e-10, True,
        "cofactor matrix of a singular matrix has rank one"))
def _levelset_rank_one(n, rng):
    rank_one = levelset.gradient_rank_one(
        levelset.sample_singular_matrix(n, rng))
    return (max(rank_one.sigma_ratio, rank_one.factor_residual),)


def run_helicoidal(report, cells):
    _write(report, cells)


def _helicoidal_cells(config):
    return _shape_cells(config, 3, _helicoidal_point)


@_step("helicoidal",
       ("reflection", "reflection-invariants", 1e-12, True,
        "2QQ^T - I is an orthogonal involution fixing the point"),
       ("isometry", "conjugation-isometry", 1e-12, True,
        "left action of the reflection preserves inner products"),
       ("rank-preserved", "reflection-preserves-stratum", 0.5, True,
        "reflected stratum samples keep their rank"),
       ("tangent-membership", "cone-directions-tangent", 1e-9, True,
        "cone direction and matched-space families are tangent"),
       ("normal-reversal", "normal-reversal", 1e-10, True,
        "the reflection acts as -1 on every normal direction"),
       ("counter-control", "generic-normal-not-tangent", 1e-3, False,
        "separation: a normal direction must fail the tangency test"))
def _helicoidal_point(p, q, r, rng):
    cp = parametric.sample_chart_point(p, q, r, rng)
    cert = helicoidal.helicoidal_certificate(parametric.chart_map(cp), r, rng)
    return (max(cert.reflection_residuals.values()),
            cert.isometry_residual,
            _flag(cert.sample_ranks == (r, r)),
            max(cert.tangent_residuals.values()),
            cert.normal_reversal,
            cert.counter_control)


def run_complex(report, cells):
    _write(report, cells)


def _complex_cells(config):
    def steps(n):
        pair = kahler.TwinHarmonicPair(n)
        quadratic = [(_complex_rho_quadratic, pair)] if n == 2 else []
        return [(_complex_chart,), (_complex_generic, pair), *quadratic,
                (_complex_locus, pair)]

    return [_sampled(config, (4, n), steps(n), n=n) for n in n_values(config)]


@_step("complex",
       ("chart-minimality", "complex-chart-mean-curvature", 1e-10, True,
        "all four normal components vanish on the 3 x 2 chart"),
       ("chart-blocks", "complex-chart-metric-blocks", 1e-10, True,
        "metric, Schur and inverse blocks match their closed forms"))
def _complex_chart(rng):
    geo = kahler.complex_chart_geometry(kahler.sample_complex_chart_point(rng))
    return (max_abs(geo.mean_curvature),
            max(geo.block_residual, geo.schur_residual,
                geo.offdiag_residual, geo.normal_residual))


@_step("complex",
       ("twin-identities", "determinant-pair-complex-identities", 1e-10, True,
        "Re det / Im det gradients: equal norm, orthogonal, harmonic"),
       ("contractions", "twin-contraction-table", 1e-10, True,
        "all eight cubic contractions reduce to one multiplier"),
       ("rho-homogeneity", "rho-homogeneity-degree", 1e-10, True,
        "the multiplier is homogeneous of degree 2n - 4"))
def _complex_generic(pair, rng):
    pt = _generic_point(pair.values, pair.ambient_dim, 0.05, rng)
    jet = pair.evaluate(pt)
    suite = kahler.twin_harmonic_suite(jet)
    homog = max(abs(kahler.rho_value(pair, t * pt) / t ** (2 * pair.n - 4)
                    - suite.rho) for t in (2.0, 3.0))
    return (max(suite.grad_norm_gap, suite.grad_orthogonality,
                max_abs(suite.harmonic), suite.pair_vector, suite.pair_cross),
            suite.contraction_table.max(),
            # |rho| <= |grad u|^2 |H_u| / |u|, a scale that cannot vanish
            homog * abs(jet.values[0]) / jet.sandwich_scale[0, 0, 0])


@_step("complex",
       ("rho-quadratic", "rho-constant-small-case", 1e-12, True,
        "the multiplier is identically 2 for 2 x 2 matrices"))
def _complex_rho_quadratic(pair, rng):
    pt = _generic_point(pair.values, pair.ambient_dim, 0.5, rng)
    return (abs(kahler.rho_value(pair, pt) - 2.0),)


@_step("complex",
       ("zeta-minimality", "complex-hypersurface-minimality", 1e-9, True,
        "projected Hessian traces vanish on the det = 0 locus"),
       ("conformal-gram", "gradient-gram-conformal", 1e-12, True,
        "the two constraint gradients stay conformal on the locus"))
def _complex_locus(pair, rng):
    return kahler.zeta_minimality(kahler.sample_zeta_point(pair, rng))


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


def run_pseudo(report, cells):
    _write(report, cells)


def _pseudo_cells(config):
    def signatures(shapes):
        # signature counting is form-only: every count pattern per shape
        for p, q in shapes:
            for p1 in range(p + 1):
                for q1 in range(q + 1):
                    eta = _form("+" * p1 + "-" * (p - p1))
                    zeta = _form("+" * q1 + "-" * (q - q1))
                    yield _checked(
                        config, f"p={p} q={q} eta={eta} zeta={zeta}",
                        _signature_counts, eta, zeta)

    def cell(p, q, r):
        for eta_s, zeta_s in _forms_for(config, p, q):
            eta, zeta = _form(eta_s), _form(zeta_s)
            yield from _sampled(
                config, (5, p, q, r, _form_code(eta_s), _form_code(zeta_s)),
                [(_pseudo_point, p, q, r, eta, zeta)],
                p=p, q=q, r=r, eta=eta, zeta=zeta)
        # the 2 x 2 closed form draws after the reduction, at every point
        closed = [(_det_formula,)] if (p, q, r) == (2, 2, 1) else []
        yield from _sampled(config, (6, p, q, r),
                            [(_euclidean_reduction, p, q, r), *closed],
                            p=p, q=q, r=r)

    triples = list(shape_triples(config))
    shapes = sorted({(p, q) for p, q, _ in triples})
    return ([signatures(shapes)] if shapes else []) + [
        cell(*triple) for triple in triples]


@_step("pseudo",
       ("ambient-signature", "ambient-signature-count", 0.5, True,
        "paired closed-form count matches the Kronecker eigenvalues"),
       ("ambient-signature-crossed", "ambient-signature-crossed-reading",
        0.5, False, "the crossed count variant, kept for the record"))
def _signature_counts(eta, zeta):
    adj = pseudo.signature_adjudication(eta, zeta)
    return (_flag(adj["paired"] == adj["eigen"]),
            _flag(adj["crossed"] == adj["eigen"]))


@_step("pseudo",
       ("minimality", "indefinite-stratum-minimality", 1e-9, True,
        "normal part of the metric-trace vanishes off the cone"),
       ("reflection", "form-reflection-invariants", 1e-12, True,
        "column-space reflection is a form isometry fixing the point"),
       ("normal-reversal", "form-normal-reversal", 1e-9, True,
        "the form reflection reverses the form-orthogonal normals"),
       ("induced-signature", "induced-signature-count", 0.5, True,
        "symmetric closed-form stratum signature matches inertia"),
       ("induced-signature-duplicated",
        "induced-signature-duplicated-reading", 0.5, False,
        "the duplicated-term variant, kept for the record"))
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
            _flag(sig["symmetric"] == sig["observed"]),
            _flag(sig["duplicated"] == sig["observed"]))


@_step("pseudo",
       ("euclidean-reduction", "definite-forms-reduce", 1e-12, True,
        "identity forms reproduce the euclidean trace and curvature"))
def _euclidean_reduction(p, q, r, rng):
    """Identity forms against the euclidean trace and mean curvature."""
    cp = parametric.sample_chart_point(p, q, r, rng)
    pm = pseudo.pseudo_minimality(cp, _form("+" * p), _form("+" * q))
    mc = parametric.mean_curvature(cp)
    scale = max(1.0, max_abs(mc.trace_vector))
    gap = max(max_abs(pm.trace_flat.reshape(p, q) - mc.trace_vector),
              max_abs(pm.normal_flat.reshape(p, q) - mc.ambient_vector))
    return (gap / scale,)


@_step("pseudo",
       ("det-formula", "degenerate-cone-determinant", 1e-12, True,
        "2 x 2 hyperbolic Gram determinant a^T a (lam^2 - 1)"))
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
PIPELINES = tuple(_CELLS)


def run_sweep(config):
    """Execute the configured pipelines; returns the assembled report.

    Each pipeline's cells are built once, and the run walks them in one
    loop.  On Linux with at least two CPUs this process may run on and no
    other thread running, a forked worker runs every other cell (the odd
    ones of that list, counted over all pipelines in record order) while
    this process runs the even ones and writes every record, the worker's
    as they arrive, in the order of a one-process run.  Each cell draws from
    its own stream, so the records are the same either way.
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
    cells = {name: _CELLS[name](config) for name in config.pipelines()}
    listed = [cell for own in cells.values() for cell in own]
    forked = len(listed) > 1 and _can_fork()
    with _worker(listed[1::2]) if forked else nullcontext() as pipe:
        start = 0
        for name, own in cells.items():
            _RUNNERS[name](report, [
                _relay(pipe) if forked and k % 2 else cell
                for k, cell in enumerate(own, start)])
            start += len(own)
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
    """Fork a worker that runs ``cells``; yield the pipe it writes to.

    ``cells`` are the odd cells of the run.  The parent runs each even cell
    itself and reads each odd one's batches through ``_relay(pipe)``, in
    cell order, as the worker sends them.  A worker exception is re-raised
    in the parent at its cell's turn; a worker that dies is a
    ``ChildProcessError``.  On any exception in the parent the worker is
    killed, and the worker is always reaped.
    """
    # frozen objects are left out of collections, so neither process
    # writes to the heap pages they share after the fork
    gc.freeze()
    try:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            _work(cells, write_fd)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as pipe:
            try:
                yield pipe
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                os.waitpid(pid, 0)
    finally:
        gc.unfreeze()


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
        key, _, value = (part.strip() for part in piece.partition("="))
        if key in parts:
            raise ValueError(f"form spec {text!r} repeats {key!r}")
        parts[key] = value
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
