"""The benchmark's workloads, each a repeatable pass over fixed inputs.

``run(seed, workdir, on_draw)`` is one timed pass.  It calls detmin only
through its public functions or ``detmin.cli.main`` and returns a ``Pass``
holding the wall time, the per-point latencies and the raw outputs.
``check(raw)`` is never timed or traced: it turns the raw outputs into
detmin records with ``detmin.report.record``, digests them and tallies the
verdicts.

Why these two (each bypasses layers the other one stresses):

- ``verify-all``: what users run, ``detmin verify all`` on p, q in 2..6.
  The pseudo and helicoidal pipelines dominate; reports are rendered, and
  the levelset and complex pipelines run for n in 2..6.
- ``oracles``: the dual-number, finite-difference and identity-form
  oracles on p, q <= 4, which run on no CLI path.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import Counter
from dataclasses import dataclass, field

# Timed code calls detmin through module attributes, so that the tracer's
# wrappers, which replace those attributes, see the calls.
from detmin import cli, linalg, parametric, pseudo, variation
from detmin.linalg import max_abs
from detmin.report import VerificationReport, record, skipped
from detmin.sweep import CHECKS, SKIP_ERRORS, CheckInfo

from tracing import CountingGenerator

ORACLE_GRID = [(p, q, r)
               for q in range(2, 5) for p in range(q, 5) for r in range(q)]
# sample points per stratum per pass, the CLI's default --samples
SAMPLES = 5
# derived_rng stream tag, apart from the sweep's pipeline tags 1..6
ORACLE_STREAM = 102

# A known open defect: pseudo.reflection FAILs at some sampled points where
# the restricted form Gram it inverts is small.  Those FAILs are counted
# as they are; any other FAIL is a wrong output.
KNOWN_FAILS = frozenset({"pseudo.reflection"})

ORACLE_CHECKS = {c.name: c for c in [
    CheckInfo("oracles.autodiff", "oracles", "dual-number-second-derivatives",
              CHECKS["parametric.mean-curvature"].tolerance, True,
              "analytic and dual-number mean-curvature components agree"),
    # the criterion-10 bound on the finite-difference volume rate
    CheckInfo("oracles.volume-variation", "oracles",
              "first-variation-of-volume", 1e-5, True,
              "finite-difference first variation of volume vanishes"),
]}
CHECK_INFO = {**CHECKS, **ORACLE_CHECKS}

clock = time.perf_counter


@dataclass
class Pass:
    seconds: float
    point_s: list
    raw: object
    draws: int = 0


@dataclass
class Outcome:
    """What ``check`` makes of one pass; equal passes give equal outcomes."""

    digest: str
    verdict_digest: str
    certified: int
    gating: int
    fails: int
    skips: int
    records: int
    runner_records: dict
    errors: list = field(default_factory=list)


def _sha(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _emit(report, point, items):
    for name, residual in items:
        info = CHECK_INFO[name]
        report.add(record(name, info.anchor, point, residual, info.tolerance,
                          gate=info.gate))


def _skip(report, point, names, exc):
    for name in names:
        info = CHECK_INFO[name]
        report.add(skipped(name, info.anchor, point, type(exc).__name__,
                           info.tolerance))


def tally(reports, digests, errors, per_pipeline=False):
    """Outcome of a pass from its reports.

    A point is certified when all its gating records PASS.  Skipped records
    carry the reason in their point string, so they never certify a point.
    With ``per_pipeline`` (CLI sweeps, where each pipeline samples its own
    points under shared point strings) a point is a (pipeline, point string)
    pair and records are counted per pipeline.
    """
    gating = fails = skips = records = 0
    points = {}
    runner_records = Counter()
    verdict_lines = []
    for report in reports:
        for rec in report.records:
            records += 1
            pipeline = rec.check.split(".", 1)[0] if per_pipeline else ""
            runner_records[pipeline] += 1
            verdict_lines.append(f"{rec.check}\t{rec.point}\t{rec.verdict}")
            if rec.verdict == "SKIPPED-DEGENERATE":
                skips += 1
            if not CHECK_INFO[rec.check].gate:
                continue
            gating += 1
            if rec.verdict == "FAIL":
                fails += 1
                if rec.check not in KNOWN_FAILS:
                    errors.append(f"unexpected FAIL {rec.check} at "
                                  f"{rec.point}")
            if rec.verdict in ("PASS", "FAIL"):
                key = (pipeline, rec.point)
                points[key] = points.get(key, True) and rec.verdict == "PASS"
    digest = digests[0] if len(digests) == 1 else _sha(digests)
    if not per_pipeline:
        runner_records.clear()
    return Outcome(digest, _sha(verdict_lines), sum(points.values()), gating,
                   fails, skips, records, dict(runner_records), errors)


# ---------------------------------------------------------------------------
# oracles


def oracles_run(seed, workdir, on_draw=None):
    outcomes, point_s = [], []
    draws = 0
    start = clock()
    for p, q, r in ORACLE_GRID:
        rng = CountingGenerator(
            linalg.derived_rng(seed, ORACLE_STREAM, p, q, r), on_draw)
        eta = pseudo.IndefiniteForm.from_counts(p, 0)
        zeta = pseudo.IndefiniteForm.from_counts(q, 0)
        for i in range(SAMPLES):
            t0 = clock()
            try:
                cp = parametric.sample_chart_point(p, q, r, rng)
                out = (parametric.mean_curvature(cp),
                       parametric.mean_curvature(cp, use_autodiff=True),
                       variation.volume_variation(cp),
                       pseudo.pseudo_minimality(cp, eta, zeta))
            except SKIP_ERRORS as exc:
                out = exc
            point_s.append(clock() - t0)
            outcomes.append((f"p={p} q={q} r={r} i={i}", out))
        draws += rng.calls["normal"]
    return Pass(clock() - start, point_s, outcomes, draws)


_ORACLE_CHECKS = ["parametric.mean-curvature", "oracles.autodiff",
                  "oracles.volume-variation", "pseudo.minimality",
                  "pseudo.euclidean-reduction"]


def oracles_check(raw):
    report = VerificationReport()
    for point, out in raw:
        if isinstance(out, Exception):
            _skip(report, point, _ORACLE_CHECKS, out)
            continue
        mc, ad, rates, pm = out
        shape = mc.trace_vector.shape
        # the euclidean-reduction residual exactly as the pseudo runner has it
        scale = max(1.0, max_abs(mc.trace_vector))
        gap = max(max_abs(pm.trace_flat.reshape(shape) - mc.trace_vector),
                  max_abs(pm.normal_flat.reshape(shape) - mc.ambient_vector))
        _emit(report, point, [
            ("parametric.mean-curvature", mc.max_component / mc.metric_scale),
            ("oracles.autodiff",
             max_abs(mc.components - ad.components) / mc.metric_scale),
            ("oracles.volume-variation", max_abs(rates)),
            ("pseudo.minimality", pm.max_component / pm.metric_scale),
            ("pseudo.euclidean-reduction", gap / scale)])
    return tally([report], [report.records_digest()], [])


# ---------------------------------------------------------------------------
# CLI sweeps


def point_latencies(events):
    """Seconds per point from ``(time, point)`` record events.

    A point's latency runs from the last record of the previous point (or
    the command's start, an event with point None) to its own last record;
    consecutive records with one point string belong to one point.
    """
    out = []
    since = last = None
    current = None
    for t, point in events:
        if point is None or point != current:
            if last is not None:
                out.append(last - since)
                since = last
            if point is None:
                since, last = t, None
        current = point
        if point is not None:
            last = t
    if last is not None:
        out.append(last - since)
    return out


def _cli_run(commands, workdir):
    """Run ``detmin.cli.main`` once per command, stamping each record added."""
    events = []
    add = VerificationReport.add

    def stamped_add(self, rec):
        add(self, rec)
        events.append((clock(), rec.point))

    outs = [os.path.join(workdir, f"report-{k}.json")
            for k in range(len(commands))]
    VerificationReport.add = stamped_add
    try:
        start = clock()
        codes = []
        for argv, out in zip(commands, outs):
            events.append((clock(), None))
            codes.append(cli.main(argv + ["--format", "json", "--out", out]))
        seconds = clock() - start
    finally:
        VerificationReport.add = add
    return Pass(seconds, point_latencies(events), list(zip(outs, codes)))


def _cli_check(raw):
    reports, digests, errors = [], [], []
    for out, code in raw:
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        report = VerificationReport.from_json(text)
        if report.to_json() != text:
            errors.append(f"{out} does not round-trip through from_json")
        if code != report.exit_status():
            errors.append(f"exit status {code}, records say "
                          f"{report.exit_status()}")
        reports.append(report)
        digests.append(report.records_digest())
    return tally(reports, digests, errors, per_pipeline=True)


@dataclass(frozen=True)
class Workload:
    run: object
    check: object
    first_call: object


def _first_oracle_point(workdir):
    cp = parametric.sample_chart_point(3, 2, 1, linalg.derived_rng(0, 0))
    parametric.mean_curvature(cp, use_autodiff=True)
    variation.volume_variation(cp)
    form = pseudo.IndefiniteForm.from_counts
    return pseudo.pseudo_minimality(cp, form(3, 0), form(2, 0))


def _cli_workload(commands, first_commands):
    """A workload of ``detmin.cli.main`` calls; the first call is tiny."""
    return Workload(
        lambda seed, workdir, on_draw=None: _cli_run(commands(seed), workdir),
        _cli_check,
        lambda workdir: _cli_run(first_commands, workdir))


WORKLOADS = {
    "verify-all": _cli_workload(
        lambda seed: [["verify", "all", "--p", "2..6", "--q", "2..6",
                       "--seed", str(seed)]],
        [["verify", "all", "--p", "2", "--q", "2", "--samples", "1"]]),
    "oracles": Workload(oracles_run, oracles_check, _first_oracle_point),
}
