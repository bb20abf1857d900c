"""Check registry consistency and whole-sweep behavior."""

import hashlib
import json
import re
from collections import Counter
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmin import kahler, levelset, parametric, pseudo, sweep
from detmin.errors import DegenerateMetric, InvalidChartPoint
from detmin.linalg import derived_rng
from detmin.parametric import ChartPoint, chart_map
from detmin.report import VERDICTS
from detmin.sweep import CHECKS, PIPELINES, RunConfig, run_sweep


def test_registry_names_are_pipeline_prefixed():
    for name, info in CHECKS.items():
        assert info.name == name
        assert info.pipeline in PIPELINES
        assert name.startswith(info.pipeline + ".")
        assert info.tolerance > 0
        assert info.anchor and " " not in info.anchor


# every registry entry as (tolerance, gate); the registry is the one table
# that turns residuals into verdicts, so a changed bound shows up here
REGISTRY = {
    "parametric.mean-curvature": (1e-9, True),
    "parametric.tangency": (1e-9, True),
    "parametric.inverse-routes": (1e-10, True),
    "parametric.route-agreement": (1e-10, True),
    "parametric.dimension": (0.5, True),
    "parametric.o-p-structure": (1e-10, True),
    "levelset.minimality": (1e-9, True),
    "levelset.projector-rank": (0.5, True),
    "levelset.identities": (1e-10, True),
    "levelset.harmonicity": (1e-12, True),
    "levelset.contractions": (1e-9, True),
    "levelset.row-coefficients": (1e-9, True),
    "levelset.minor-inverse": (1e-10, True),
    "levelset.rank-one": (1e-10, True),
    "levelset.conjecture-printed": (1e-10, False),
    "levelset.conjecture-swapped": (1e-10, False),
    "helicoidal.reflection": (1e-12, True),
    "helicoidal.isometry": (1e-12, True),
    "helicoidal.rank-preserved": (0.5, True),
    "helicoidal.tangent-membership": (1e-9, True),
    "helicoidal.normal-reversal": (1e-10, True),
    "helicoidal.counter-control": (1e-3, False),
    "complex.chart-minimality": (1e-10, True),
    "complex.chart-blocks": (1e-10, True),
    "complex.twin-identities": (1e-10, True),
    "complex.contractions": (1e-10, True),
    "complex.rho-quadratic": (1e-12, True),
    "complex.rho-homogeneity": (1e-10, True),
    "complex.zeta-minimality": (1e-9, True),
    "complex.conformal-gram": (1e-12, True),
    "pseudo.ambient-signature": (0.5, True),
    "pseudo.ambient-signature-crossed": (0.5, False),
    "pseudo.det-formula": (1e-12, True),
    "pseudo.minimality": (1e-9, True),
    "pseudo.reflection": (1e-12, True),
    "pseudo.normal-reversal": (1e-9, True),
    "pseudo.induced-signature": (0.5, True),
    "pseudo.induced-signature-duplicated": (0.5, False),
    "pseudo.euclidean-reduction": (1e-12, True),
}


def test_registry_tolerances_are_pinned():
    assert len(REGISTRY) == 39
    assert {name: (info.tolerance, info.gate)
            for name, info in CHECKS.items()} == REGISTRY


def test_evidence_checks_never_gate():
    evidence = {name for name, info in CHECKS.items() if not info.gate}
    assert evidence == {
        "levelset.conjecture-printed",
        "levelset.conjecture-swapped",
        "helicoidal.counter-control",
        "pseudo.ambient-signature-crossed",
        "pseudo.induced-signature-duplicated",
    }


def test_run_config_pipeline_selection():
    assert RunConfig(pipeline="all").pipelines() == PIPELINES
    assert RunConfig(pipeline="levelset").pipelines() == ("levelset",)
    with pytest.raises(ValueError):
        RunConfig(pipeline="bogus").pipelines()


def test_an_iterator_grid_is_read_once():
    # the entry check used to use the iterator up, leaving an empty grid
    config = RunConfig(pipeline="parametric", p_values=iter((2, 3)),
                       q_values=(2,), samples=1)
    assert config.p_values == (2, 3)
    assert run_sweep(config).records_json() == run_sweep(RunConfig(
        pipeline="parametric", p_values=(2, 3), q_values=(2,),
        samples=1)).records_json()


@pytest.mark.parametrize("field, value, stored", [
    ("seed", np.int64(3), 3), ("samples", np.int64(2), 2),
    ("p_values", np.arange(2, 4), (2, 3)),
    ("tolerances", {"parametric.dimension": np.int64(1)},
     {"parametric.dimension": 1.0})],
    ids=["seed", "samples", "p_values", "tolerance"])
def test_numpy_integers_are_accepted_and_stored_as_python_numbers(
        field, value, stored):
    config = RunConfig(pipeline="parametric", q_values=(2,),
                       **{"samples": 1, field: value})
    assert getattr(config, field) == stored
    # the meta block serialises, which numpy integers would refuse
    meta = run_sweep(config).meta
    assert json.loads(json.dumps(meta)) == meta


@pytest.mark.parametrize("field, value", [
    ("seed", np.True_), ("samples", np.True_), ("p_values", (np.True_, 3)),
    ("tolerances", {"parametric.dimension": np.True_})],
    ids=["seed", "samples", "p_values", "tolerance"])
def test_numpy_bools_are_no_integers(field, value):
    # numpy's bools are not Integral, as Python's are; neither is a count
    with pytest.raises(ValueError, match="True"):
        RunConfig(pipeline="parametric", q_values=(2,), **{field: value})


def test_a_generic_point_that_runs_out_of_draws_is_an_invalid_point():
    # the sampler found no draw; no Gram matrix was ever formed
    with pytest.raises(InvalidChartPoint, match="no draw"):
        sweep._generic_point(lambda pt: (0.0, 1.0), 4, 0.5, derived_rng(1))


def test_a_form_given_twice_as_lists_is_refused():
    # lists compared unequal to the tuples of the repeated-form check, so
    # the form ran twice
    with pytest.raises(ValueError, match="given twice"):
        RunConfig(pipeline="pseudo", p_values=(2,), q_values=(2,),
                  forms=(["++", "++"], ["++", "++"]))


@pytest.mark.parametrize("form", [("++",), ("++", "+-", "+"), (1, 2), "++"],
                         ids=["one-string", "three-strings", "not-strings",
                              "bare-string"])
def test_a_form_that_is_no_pair_of_strings_is_refused(form):
    # such forms were unpacked unchecked: Python's unpacking errors, an
    # AttributeError, and a bare "++" read as eta "+", zeta "+"
    with pytest.raises(ValueError, match=re.escape(repr(form))):
        RunConfig(pipeline="pseudo", p_values=(1, 2), q_values=(1, 2),
                  forms=(form,))


def test_a_list_grid_writes_the_records_of_a_tuple_grid():
    lists = RunConfig(p_values=[2, 3], q_values=[2, 3], r_values=[0, 1],
                      samples=1, forms=[["+-", "-+"]])
    tuples = RunConfig(p_values=(2, 3), q_values=(2, 3), r_values=(0, 1),
                       samples=1, forms=(("+-", "-+"),))
    assert lists == tuples
    assert run_sweep(lists).records_json() == run_sweep(tuples).records_json()


def test_each_pipeline_has_one_runner_and_one_cell_builder():
    # the runner table and the cell table list the same pipelines, in order
    assert list(sweep._RUNNERS) == list(sweep.PIPELINES)


@pytest.mark.parametrize("forked", [True, False])
def test_a_run_builds_each_pipelines_cells_once(monkeypatch, forked):
    config = RunConfig(p_values=(2, 3), q_values=(2, 3), samples=1)
    expected = run_sweep(config).records_json()
    builds = Counter()
    # counted however it is reached: through the table or by its own name
    for name, build in list(sweep._CELLS.items()):
        def counted(config, name=name, build=build):
            builds[name] += 1
            return build(config)
        monkeypatch.setitem(sweep._CELLS, name, counted)
        monkeypatch.setattr(sweep, build.__name__, counted)
    forks = []
    fork = sweep.os.fork
    monkeypatch.setattr(sweep.os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(sweep, "_can_fork", lambda: forked)
    assert run_sweep(config).records_json() == expected
    assert builds == {name: 1 for name in PIPELINES}
    assert len(forks) == forked


def test_a_valid_run_lists_its_cells_once(monkeypatch):
    # the config decides "no cell" from the grid, without listing cells
    builds = Counter()
    for name, build in list(sweep._CELLS.items()):
        def counted(config, name=name, build=build):
            builds[name] += 1
            return build(config)
        monkeypatch.setitem(sweep._CELLS, name, counted)
        monkeypatch.setattr(sweep, build.__name__, counted)
    run_sweep(RunConfig())
    assert builds == {name: 1 for name in PIPELINES}


@pytest.mark.parametrize("grid", [
    ((2, 3), (2, 3), None), ((2,), (3,), None), ((3,), (3,), (5,)),
    ((3,), (1,), None), ((3,), (1, 2), (1,)), ((4,), (2,), (-1, 2))])
@pytest.mark.parametrize("pipeline", PIPELINES)
def test_the_no_cell_decision_agrees_with_the_cell_builders(pipeline, grid):
    p_values, q_values, r_values = grid
    listed = sweep._CELLS[pipeline](SimpleNamespace(
        p_values=p_values, q_values=q_values, r_values=r_values))
    config = dict(pipeline=pipeline, p_values=p_values, q_values=q_values,
                  r_values=r_values)
    if listed:
        RunConfig(**config)
    else:
        with pytest.raises(ValueError, match="no parameter cell"):
            RunConfig(**config)


def _fails(report):
    return [(r.check, r.point, r.residual) for r in report.records
            if r.verdict == "FAIL"]


@pytest.mark.parametrize("seed", range(10))
def test_the_default_run_certifies(seed):
    assert not _fails(run_sweep(RunConfig(seed=seed)))


# sha256 of the check, point and verdict of every record of the default run
# at seed 0: 1932 PASS and 367 EVIDENCE records.  Verdicts, unlike
# residuals, do not move with the last bits of a BLAS, so a change of the
# program that must keep every verdict is held to this pin
DEFAULT_VERDICTS = (
    "460f178087d8d8760d41dde1a563dfedf26dfec51a60d10500cc474c9ec29b35")


def test_the_default_run_keeps_every_verdict():
    report = run_sweep(RunConfig(pipeline="all", seed=0))
    lines = [f"{r.check}\t{r.point}\t{r.verdict}" for r in report.records]
    assert Counter(r.verdict for r in report.records) == {"PASS": 1932,
                                                          "EVIDENCE": 367}
    assert (hashlib.sha256("\n".join(lines).encode()).hexdigest()
            == DEFAULT_VERDICTS)


BENCH_GRID = tuple(range(2, 7))


@pytest.mark.parametrize("seed", range(10))
def test_the_bench_grid_certifies(seed):
    # the grid of the bench's verify-all workload: every cell has its own
    # stream, so each pipeline's cells are those of its own run
    config = RunConfig(p_values=BENCH_GRID, q_values=BENCH_GRID, seed=seed)
    report = run_sweep(config)
    assert report.exit_status() == 0
    verdicts = Counter(r.verdict for r in report.records)
    assert verdicts["FAIL"] == 0, _fails(report)
    assert verdicts["SKIPPED-DEGENERATE"] == 0
    if seed == 0:
        # the bench holds every pass to the records of its first
        assert run_sweep(config).records_json() == report.records_json()


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_pseudo_certifies_at_any_seed(seed):
    assert not _fails(run_sweep(RunConfig(
        pipeline="pseudo", p_values=(2, 3, 4), q_values=(2, 3), samples=2,
        seed=seed)))


def test_all_pipelines_tiny_grid():
    config = RunConfig(p_values=(2, 3), q_values=(2, 3), samples=1, seed=2)
    report = run_sweep(config)
    assert report.exit_status() == 0
    assert {r.check for r in report.records} == set(CHECKS)
    for rec in report.records:
        assert rec.check in CHECKS
        assert rec.verdict in VERDICTS
    # the conjectured identity is reported but cannot gate
    printed = [r for r in report.records
               if r.check == "levelset.conjecture-printed"]
    assert printed and all(r.verdict == "EVIDENCE" for r in printed)
    assert any(r.residual > 1e-3 for r in printed)
    swapped = [r for r in report.records
               if r.check == "levelset.conjecture-swapped"]
    assert swapped and all(r.residual < 1e-10 for r in swapped)


SAMPLERS = [(parametric, "sample_chart_point"),
            (pseudo, "sample_pseudo_point"),
            (levelset, "sample_on_variety"),
            (levelset, "sample_singular_matrix"),
            (kahler, "sample_complex_chart_point"),
            (kahler, "sample_zeta_point"),
            (sweep, "_generic_point")]


def test_degenerate_samples_skip_every_check_of_their_block(monkeypatch):
    def degenerate(*args, **kwargs):
        raise DegenerateMetric("forced")

    for owner, name in SAMPLERS:
        monkeypatch.setattr(owner, name, degenerate)
    report = run_sweep(RunConfig(p_values=(2,), q_values=(2,), samples=1))

    expected = []

    def block(point, *names):
        expected.extend((name, f"{point} [DegenerateMetric]")
                        for name in names)

    for r in (0, 1):
        block(f"p=2 q=2 r={r} i=0", "parametric.mean-curvature",
              "parametric.tangency", "parametric.inverse-routes",
              "parametric.route-agreement", "parametric.dimension",
              "parametric.o-p-structure")
    block("n=2 i=0", "levelset.minimality", "levelset.projector-rank",
          "levelset.contractions", "levelset.row-coefficients")
    block("n=2 i=0", "levelset.identities", "levelset.harmonicity",
          "levelset.minor-inverse", "levelset.conjecture-printed",
          "levelset.conjecture-swapped")
    block("n=2 i=0", "levelset.rank-one")
    for r in (0, 1):
        block(f"p=2 q=2 r={r} i=0", "helicoidal.reflection",
              "helicoidal.isometry", "helicoidal.rank-preserved",
              "helicoidal.tangent-membership", "helicoidal.normal-reversal",
              "helicoidal.counter-control")
    block("n=2 i=0", "complex.chart-minimality", "complex.chart-blocks")
    block("n=2 i=0", "complex.twin-identities", "complex.contractions",
          "complex.rho-homogeneity")
    block("n=2 i=0", "complex.rho-quadratic")
    block("n=2 i=0", "complex.zeta-minimality", "complex.conformal-gram")
    for r in (0, 1):
        for eta, zeta in (("++", "++"), ("+-", "+-")):
            block(f"p=2 q=2 r={r} eta={eta} zeta={zeta} i=0",
                  "pseudo.minimality", "pseudo.reflection",
                  "pseudo.normal-reversal", "pseudo.induced-signature",
                  "pseudo.induced-signature-duplicated")
        block(f"p=2 q=2 r={r} i=0", "pseudo.euclidean-reduction")

    skipped = [r for r in report.records if r.verdict == "SKIPPED-DEGENERATE"]
    assert [(r.check, r.point) for r in skipped] == expected
    assert all(r.tolerance == CHECKS[r.check].tolerance for r in skipped)
    # signature counting and the 2 x 2 closed form need no sample point,
    # so they still report
    kept = Counter(r.check for r in report.records
                   if r.verdict != "SKIPPED-DEGENERATE")
    assert kept == {"pseudo.ambient-signature": 9,
                    "pseudo.ambient-signature-crossed": 9,
                    "pseudo.det-formula": 1}
    assert [(r.point, r.verdict) for r in report.records
            if r.check == "pseudo.det-formula"] == [("p=2 q=2 r=1 i=0",
                                                     "PASS")]
    assert report.exit_status() == 0


def test_off_variety_levelset_samples_fail(monkeypatch):
    # a 1e-6 step off the variety must FAIL the on-variety checks, not be
    # written off as a degenerate sample that never gates
    sample = levelset.sample_on_variety

    def off_variety(system, rng):
        a = sample(system, rng).point
        return system.evaluate(
            a + 1e-6 * derived_rng(system.n).normal(size=a.shape))

    monkeypatch.setattr(levelset, "sample_on_variety", off_variety)
    monkeypatch.setattr(sweep, "_can_fork", lambda: False)
    report = run_sweep(RunConfig(pipeline="levelset", samples=2))
    on_variety = ("levelset.minimality", "levelset.contractions",
                  "levelset.row-coefficients")
    verdicts = Counter((r.check, r.verdict) for r in report.records
                       if r.check in on_variety)
    assert verdicts == {(name, "FAIL"): 6 for name in on_variety}
    assert report.exit_status() == 1


def test_rank_filter_restricts_triples():
    config = RunConfig(pipeline="parametric", p_values=(3,), q_values=(3,),
                       r_values=(1,), samples=1, seed=0)
    report = run_sweep(config)
    points = {r.point for r in report.records}
    assert all("r=1" in pt for pt in points)
    assert report.exit_status() == 0


def test_meta_holds_configuration():
    config = RunConfig(pipeline="levelset", q_values=(2,), samples=1, seed=3)
    report = run_sweep(config)
    assert report.meta["pipeline"] == "levelset"
    assert report.meta["seed"] == 3
    assert report.meta["samples"] == 1


GEOMETRY = ("jacobian", "metric", "metric_inv", "x_rank")


@pytest.mark.parametrize("pipeline", ["parametric", "pseudo"])
def test_each_chart_point_builds_its_geometry_once(monkeypatch, pipeline):
    points, builds, svd_inputs, inv_inputs = [], Counter(), [], []
    post_init = ChartPoint.__post_init__

    def recorded_post_init(self):
        post_init(self)
        points.append(self)

    monkeypatch.setattr(ChartPoint, "__post_init__", recorded_post_init)
    for name in GEOMETRY:
        def counted(self, build=vars(ChartPoint)[name].func, name=name):
            builds[name, id(self)] += 1
            return build(self)
        prop = cached_property(counted)
        prop.__set_name__(ChartPoint, name)
        monkeypatch.setattr(ChartPoint, name, prop)
    for inputs, fn in ((svd_inputs, np.linalg.svd), (inv_inputs, np.linalg.inv)):
        def recorded(m, *args, inputs=inputs, fn=fn, **kwargs):
            inputs.append(np.array(m))
            return fn(m, *args, **kwargs)
        monkeypatch.setattr(np.linalg, fn.__name__, recorded)
    blocks, np_block = [], np.block
    monkeypatch.setattr(np, "block",
                        lambda *args: blocks.append(args) or np_block(*args))

    config = RunConfig(pipeline=pipeline, p_values=(3,), q_values=(3,),
                       r_values=(2,), samples=1, seed=0)
    # in this process: a forked worker's calls are not seen here
    monkeypatch.setattr(sweep, "_can_fork", lambda: False)
    report = run_sweep(config)
    assert report.exit_status() == 0
    assert all(n == 1 for n in builds.values())

    def taken(inputs, m):
        return sum(a.shape == m.shape and np.array_equal(a, m) for a in inputs)

    x_svds = [taken(svd_inputs, chart_map(cp)) for cp in points]
    # a sampler draw costs one SVD, of a; cond(a^T a) is read off it
    assert [taken(svd_inputs, cp.a) for cp in points] == [1] * len(points)
    ata_svds = [taken(svd_inputs, cp.a.T @ cp.a) for cp in points]
    assert not blocks
    metric_invs = [taken(inv_inputs, cp.metric.assembled) for cp in points
                   if ("metric", id(cp)) in builds]
    if pipeline == "parametric":
        # the sampler, mean curvature and the o(p) check share one metric
        assert len(points) == 1
        assert {n for n, _ in builds} == {"jacobian", "metric", "metric_inv"}
        assert metric_invs == [1] and x_svds == [0]
        # the block inverses estimate no condition number: the closed-form
        # metric_cond guards them
        assert ata_svds == [0]
    else:
        # form reflection and the Z' membership share one rank decision of x
        form_points = {key for n, key in builds if n == "x_rank"}
        assert len(form_points) == 2  # one sample per default form pair
        # the sampler's metric guard is closed-form: no form point
        # assembles the euclidean metric
        assert not {key for n, key in builds if n == "metric"} & form_points
        assert sorted(x_svds) == [0] * (len(points) - 2) + [1, 1]
        assert ata_svds == [0] * len(points)
