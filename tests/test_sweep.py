"""Check registry consistency and whole-sweep behavior."""

from collections import Counter
from functools import cached_property

import numpy as np
import pytest

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


def test_all_pipelines_tiny_grid():
    config = RunConfig(p_values=(2, 3), q_values=(2, 3), samples=1, seed=2)
    report = run_sweep(config)
    assert report.exit_status() == 0
    seen_pipelines = {r.check.split(".", 1)[0] for r in report.records}
    assert seen_pipelines == set(PIPELINES)
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

    config = RunConfig(pipeline=pipeline, p_values=(3,), q_values=(3,),
                       r_values=(2,), samples=1, seed=0)
    report = run_sweep(config)
    assert report.exit_status() == 0
    assert all(n == 1 for n in builds.values())

    def taken(inputs, m):
        return sum(a.shape == m.shape and np.array_equal(a, m) for a in inputs)

    x_svds = [taken(svd_inputs, chart_map(cp)) for cp in points]
    metric_invs = [taken(inv_inputs, cp.metric.assembled) for cp in points
                   if ("metric", id(cp)) in builds]
    if pipeline == "parametric":
        # the sampler, mean curvature and the o(p) check share one metric
        assert len(points) == 1
        assert {n for n, _ in builds} == {"jacobian", "metric", "metric_inv"}
        assert metric_invs == [1] and x_svds == [0]
    else:
        # form reflection and the Z' membership share one rank decision of x
        form_points = sum(n == "x_rank" for n, _ in builds)
        assert form_points == 2  # one sample per default form pair
        assert sorted(x_svds) == [0] * (len(points) - 2) + [1, 1]
