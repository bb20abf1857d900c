"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import inspect
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from detmin import report, sweep  # noqa: E402
from detmin.sweep import RunConfig, run_sweep  # noqa: E402
from tracing import CountingGenerator, Tracer, self_time  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
# fail_share and skip_share are 1 - pass_share and 1 - kept_share
END_TO_END = ["certified_per_s", "point_ms.p50", "point_ms.tail_mean",
              "pass_s.floor", "setup_s", "peak_rss_mb", "pass_share",
              "kept_share"]
PER_LAYER_SPANS = {
    "parametric": ["sample_chart_point", "induced_metric", "mean_curvature",
                   "normal_frame", "metric_inverse", "o_p_structure_check",
                   "stratum_dimension_check", "chart_jacobian",
                   "chart_hessian_autodiff"],
    "helicoidal": ["helicoidal_certificate", "normal_basis"],
    "pseudo": ["sample_pseudo_point", "pseudo_minimality", "form_reflection",
               "normal_reversal", "tangent_space_basis",
               "induced_signature_check", "signature_adjudication"],
    "levelset": ["ConstraintSystem.hessians", "sample_on_variety",
                 "tangent_projector", "levelset_mean_curvature",
                 "identity_suite", "conjecture_evidence",
                 "gradient_rank_one"],
    "kahler": ["TwinHarmonicPair.hessians", "complex_chart_geometry",
               "twin_harmonic_suite", "zeta_minimality", "rho_value",
               "sample_zeta_point"],
    "dual": ["hessian_of", "gradient_of"],
    "variation": ["volume_variation"],
    "report": ["to_json", "to_text", "to_csv", "records_digest", "summary"],
}
PER_LAYER_OTHER = [
    "parametric.sample_chart_point.draws_per_point",
    "pseudo.sample_pseudo_point.draws_per_point",
    "parametric.induced_metric.calls_per_point",
    "linalg.block_inverse.calls_per_point", "linalg.svd_rank.calls_per_point",
    "linalg.spectral_cond.calls_per_point",
    "numpy.linalg.svd.calls_per_point", "numpy.linalg.inv.calls_per_point",
    "numpy.kron.calls_per_point", "helicoidal.align_chart.calls_per_point",
    "helicoidal.tangent_basis.calls_per_point", "cli.main.self_s",
    "trace.overhead_s",
] + [f"sweep.run_{p}.{s}" for p in sweep.PIPELINES
     for s in ("s", "self_s", "records")]

# spans each workload must reach when traced
REACHED = {
    "verify-all": ["parametric.sample_chart_point.ms",
                   "parametric.mean_curvature.ms",
                   "numpy.linalg.svd.calls_per_point", "sweep.run_pseudo.s",
                   "helicoidal.helicoidal_certificate.ms",
                   "levelset.ConstraintSystem.hessians.ms",
                   "kahler.TwinHarmonicPair.hessians.ms",
                   "report.to_json.ms", "cli.main.self_s"],
    "oracles": ["dual.hessian_of.ms", "variation.volume_variation.ms",
                "parametric.chart_hessian_autodiff.ms",
                "pseudo.pseudo_minimality.ms"],
}


def required_per_layer_names():
    names = list(PER_LAYER_OTHER)
    for module, spans in PER_LAYER_SPANS.items():
        for span in spans:
            names += [f"{module}.{span}.ms", f"{module}.{span}.self_ms"]
    return names


def test_self_time_subtracts_only_covered_child_intervals():
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(5.0, 6.0), (1.0, 3.0)]) == 7.0
    # overlapping children count once, parts outside the parent not at all
    assert self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0)]) == 6.0
    assert self_time(2.0, 10.0, [(0.0, 3.0), (9.0, 12.0)]) == 6.0
    assert self_time(0.0, 10.0, [(11.0, 12.0)]) == 10.0
    assert self_time(0.0, 10.0, [(1.0, 8.0), (2.0, 3.0)]) == 3.0


def test_point_latencies_group_consecutive_records_per_command():
    events = [(0.0, None), (1.0, "a"), (1.5, "a"), (4.0, "b"),
              (5.0, None), (7.0, "a")]
    assert workloads.point_latencies(events) == [1.5, 2.5, 2.0]


def test_floors_take_each_segments_fastest_time():
    # segments: the points, then the rest of the pass after them
    slow_start = workloads.Pass(3.0, [1.0, 1.5], None)
    slow_end = workloads.Pass(2.5, [1.2, 0.8], None)
    assert run.segments(slow_start) == [1.0, 1.5, 0.5]
    assert run.floors([slow_start, slow_end]) == [1.0, 0.8, 0.5]
    assert run.floors([slow_end]) == run.segments(slow_end)


def test_counting_proxy_keeps_the_records_digest(monkeypatch):
    config = RunConfig(pipeline="all", samples=2, seed=3)
    plain = run_sweep(config).records_digest()
    proxies = []
    bare = sweep.derived_rng

    def counted(*args):
        proxies.append(CountingGenerator(bare(*args)))
        return proxies[-1]

    monkeypatch.setattr(sweep, "derived_rng", counted)
    assert run_sweep(config).records_digest() == plain
    assert sum(p.calls["normal"] for p in proxies) > 0


def test_tracer_keeps_records_and_restores_every_function():
    config = RunConfig(pipeline="all", samples=1, seed=4)
    plain = run_sweep(config).records_digest()
    static = inspect.getattr_static
    before = (sweep.run_sweep, dict(vars(sweep)["_RUNNERS"]),
              static(report.VerificationReport, "from_json"))
    tracer = Tracer()
    tracer.install()
    tracer.count_draws(sweep, "derived_rng")
    try:
        traced = sweep.run_sweep(config).records_digest()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert before == (sweep.run_sweep, dict(vars(sweep)["_RUNNERS"]),
                      static(report.VerificationReport, "from_json"))
    for pipeline in sweep.PIPELINES:
        assert tracer.stats[f"sweep.run_{pipeline}"][0] == 1
    calls, total, self_s, draws = tracer.stats["parametric.sample_chart_point"]
    assert draws >= calls > 0 and 0.0 < self_s < total
    assert tracer.counts["numpy.linalg.svd"] > 0


def test_benchmark_names_every_required_metric():
    assert [m["name"] for m in SPEC["end_to_end"]] == END_TO_END
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert len(per_layer) == len(set(per_layer))
    assert set(required_per_layer_names()) <= set(per_layer)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_emits_every_metric(workload, trace):
    out = _run("--workload", workload, "--seed", "0", "--seconds", "0.1",
               "--trace", trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    kind = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert math.isfinite(metric["value"]), name
    if trace == "0":
        assert any(line.startswith("fail_share ") for line in lines)
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert all(result["metrics"][name]["value"] > 0
                   for name in REACHED[workload])
    emitted = [line.split()[1] for line in lines
               if line.startswith(("span ", "count "))]
    assert all(NAME.fullmatch(name) for name in emitted)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "oracles", "--seed", "0", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert "metrics" not in out.stdout
