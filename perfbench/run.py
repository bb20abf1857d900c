"""detmin benchmark: certified sample points per second on fixed workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-all --seed 0 --seconds 55 --trace 0

It imports detmin from the checkout's ``src/`` with BLAS pinned to one
thread and runs the workload (see ``workloads.py``) in this one process as a
closed loop: one full pass after another over the same seed-derived inputs
until ``--seconds`` have passed.  An untimed warm-up pass gives the
reference records digest that every timed pass must reproduce.  Set-up time
is taken in fresh interpreters that import detmin and make the workload's
first call, started between the passes at times spread over the run.

Every pass does the same work, split the same way into segments: one per
sample point (from the end of the previous point to the point's last record)
and the rest of the pass after the last point (rendering and writing the
report).  The timings are built from each segment's floor, its fastest time
over the run's passes: ``pass_s.floor`` is the sum of the floors,
``certified_per_s`` the certified points of one pass over that sum,
``point_ms.p50`` the median point floor and ``point_ms.tail_mean`` the mean
of the slowest 5% of point floors, and of at least ten.  On a shared host a
pass is slowed by other tenants in bursts that hit some points and miss
others; the median pass time follows how much of the run such bursts
covered, while the floors keep only the work of the program.  The tail is a
mean rather than the 99th percentile because point costs come in clusters
(a few strata are far slower than the rest): a percentile that falls
between two clusters, or a mean over the few slowest points, jumps from one
seed to the next.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes (see ``tracing.py``) and
reports BENCHMARK.json's per-layer metrics and the tracing overhead.
Readable lines come first; the last line of standard output is one JSON
object.  The exit status is 1 when an output was wrong, 2 when detmin or
BENCHMARK.json is missing or an argument is bad, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# setup_s is the median of SETUP_PROBES set-up times, each the fastest of
# SETUP_TRIES fresh interpreters started at times spread over the run: the
# host's speed flips between two levels for seconds at a time, and the
# median of single tries follows whichever level most of them hit
SETUP_PROBES = 5
SETUP_TRIES = 3
# point_ms.tail_mean averages the slowest TAIL_SHARE of the points, and at
# least TAIL_POINTS of them
TAIL_SHARE = 0.05
TAIL_POINTS = 10
PROBE = """
import sys, tempfile, time
from workloads import WORKLOADS
with tempfile.TemporaryDirectory(dir=sys.argv[2]) as workdir:
    WORKLOADS[sys.argv[1]].first_call(workdir)
print(time.monotonic())
"""
WORKLOAD_NAMES = ("verify-all", "oracles")
# per-layer metric names whose span is a method, named without its class
SPAN_ALIASES = {f"report.{m}": f"report.VerificationReport.{m}"
                for m in ("to_json", "to_text", "to_csv", "records_digest",
                          "summary")}

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# host record (read-only)


def _read(path):
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except OSError:
        return None


def host_snapshot():
    """Load average and the aggregate cpu line of /proc/stat, if present."""
    stat = _read("/proc/stat")
    ticks = [int(v) for v in stat.split("\n", 1)[0].split()[1:]] \
        if stat else None
    load = _read("/proc/loadavg")
    return {"loadavg": load.split()[:3] if load else None, "ticks": ticks}


def host_record(before, after):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    steal = None
    if before["ticks"] and after["ticks"] and len(before["ticks"]) > 7:
        delta = [b - a for a, b in zip(before["ticks"], after["ticks"])]
        steal = {"ticks": delta[7], "share": delta[7] / max(1, sum(delta))}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg_before": before["loadavg"],
        "loadavg_after": after["loadavg"],
        "steal": steal,
    }


# ---------------------------------------------------------------------------
# measurement


def setup_time(workload, workdir):
    """Wall time of a fresh interpreter importing detmin plus a first call.

    The probe prints the time its first call ended on the monotonic clock,
    which all processes of the machine share; timing the wait here instead
    would add the interpreter's exit and the polling steps of the wait.
    """
    start = time.monotonic()
    probe = subprocess.run(
        [sys.executable, "-c", PROBE, workload, workdir], cwd=ROOT,
        env=os.environ, check=True, timeout=120, capture_output=True,
        text=True)
    return float(probe.stdout.split()[-1]) - start


def one_pass(workload, seed, workdir, reference, tracer):
    """One pass, traced when ``tracer`` is given; (Pass, Outcome, errors).

    ``reference`` is the warm-up's (Pass, Outcome), or None for the warm-up.
    """
    import detmin.sweep
    gc.collect()  # every pass starts from the same heap
    try:
        if tracer is not None:
            tracer.install()
            tracer.count_draws(detmin.sweep, "derived_rng")
        try:
            result = workload.run(seed, workdir,
                                  tracer.on_draw if tracer else None)
        finally:
            if tracer is not None:
                tracer.uninstall()
        outcome = workload.check(result.raw)
        result.raw = None  # keep only timings, so passes do not pile up
    except Exception:  # a wrong program must not stop the benchmark
        traceback.print_exc()
        return None, None, ["exception in pass"]
    errors = list(outcome.errors)
    if reference is not None:
        warm, expected = reference
        for key in ("digest", "verdict_digest", "certified", "records"):
            if getattr(outcome, key) != getattr(expected, key):
                errors.append(f"{key} differs from the warm-up pass")
        if len(result.point_s) != len(warm.point_s):
            errors.append("point count differs from the warm-up pass")
    return result, outcome, errors


def segments(p):
    """Seconds of a pass per point, then the rest of the pass after them."""
    return [*p.point_s, p.seconds - sum(p.point_s)]


def floors(passes):
    """Each segment's fastest time over the passes, which split alike."""
    return [min(times) for times in zip(*(segments(p) for p in passes))]


def end_to_end(rows, setup):
    done = [(p, o) for _, p, o, _ in rows if p is not None]
    exceptions = len(rows) - len(done)
    floor = floors([p for p, _ in done])
    point_ms = sorted((t * 1e3 for t in floor[:-1]), reverse=True)
    gating = sum(o.gating for _, o in done) + exceptions
    fails = sum(o.fails for _, o in done) + exceptions
    records = sum(o.records for _, o in done)
    skips = sum(o.skips for _, o in done)
    return {
        "certified_per_s": done[0][1].certified / sum(floor),
        "point_ms.p50": statistics.median(point_ms),
        "point_ms.tail_mean": statistics.mean(
            point_ms[:max(TAIL_POINTS, int(len(point_ms) * TAIL_SHARE))]),
        "pass_s.floor": sum(floor),
        "setup_s": statistics.median(setup),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_share": 1.0 - fails / max(1, gating),
        "kept_share": 1.0 - skips / max(1, records),
    }


def per_layer(names, tracer, traced, untraced):
    """Per-layer metrics from the traced passes; the suffix names the stat.

    ``ms`` and ``self_ms`` are means per call, ``s`` and ``self_s`` totals
    per pass, ``calls_per_point`` per certified point, ``draws_per_point``
    sampler draws per call, ``records`` records per pass by pipeline.
    ``trace.overhead_s`` is ``pass_s.floor`` traced minus untraced.
    """
    passes = len(traced)
    certified = max(1, sum(o.certified for _, o in traced))
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            out[name] = (sum(floors([p for p, _ in traced]))
                         - sum(floors([p for p, _ in untraced])))
            continue
        base, stat = name.rsplit(".", 1)
        if stat == "records":
            pipeline = base.split(".run_", 1)[1]
            out[name] = sum(o.runner_records.get(pipeline, 0)
                            for _, o in traced) / passes
            continue
        if base in tracer.counts:
            out[name] = tracer.counts[base] / certified
            continue
        calls, total, self_s, draws = tracer.stats.get(
            SPAN_ALIASES.get(base, base), (0, 0.0, 0.0, 0))
        per_call = 1.0 / max(1, calls)
        out[name] = {
            "ms": total * per_call * 1e3,
            "self_ms": self_s * per_call * 1e3,
            "s": total / passes,
            "self_s": self_s / passes,
            "calls_per_point": calls / certified,
            "draws_per_point": draws * per_call,
        }[stat]
    return out


def main(argv=None):
    args = parse_args(argv)
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if not (SRC / "detmin" / "__init__.py").is_file():
        print(f"perfbench: no detmin package under {SRC}", file=sys.stderr)
        return 2
    # before numpy is first imported, here and in the set-up probes
    os.environ.update(PINNED_ENV)
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    sys.path[:0] = [str(SRC), str(BENCH)]
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    before = host_snapshot()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as work:
        warm = (False, *one_pass(workload, args.seed, work, None, None))
        reference = warm[1:3] if warm[1] is not None else None
        rows = []  # (traced, Pass, Outcome, errors)
        tries = []  # set-up times, one due every `interval` seconds
        interval = args.seconds / (SETUP_PROBES * SETUP_TRIES)
        tracer = Tracer() if args.trace else None
        start = clock()
        while clock() < start + args.seconds or len(rows) < 1 + args.trace:
            if clock() >= start + len(tries) * interval \
                    and len(tries) < SETUP_PROBES * SETUP_TRIES:
                tries.append(setup_time(args.workload, work))
                continue
            traced = args.trace and len(rows) % 2 == 1
            rows.append((traced, *one_pass(workload, args.seed, work,
                                           reference,
                                           tracer if traced else None)))
        while len(tries) < SETUP_PROBES * SETUP_TRIES:
            tries.append(setup_time(args.workload, work))
    after = host_snapshot()
    # tries k, k + SETUP_PROBES, ... lie a share 1/SETUP_TRIES of the run apart
    setup = [min(tries[k::SETUP_PROBES]) for k in range(SETUP_PROBES)]

    failed = sum(1 for row in [warm, *rows] if row[3])
    problems = Counter(e for row in [warm, *rows] for e in set(row[3]))
    for error, count in problems.most_common(10):
        print(f"error in {count} passes: {error}")
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(rows)} failed={failed}")
    print("host " + json.dumps(host_record(before, after)))
    if reference is not None:
        expected = reference[1]
        print(f"records_digest {expected.digest}")
        print(f"verdict_digest {expected.verdict_digest}")
        print(f"per pass: certified={expected.certified} "
              f"records={expected.records} gating={expected.gating} "
              f"fail={expected.fails} skipped={expected.skips} "
              f"by pipeline={json.dumps(expected.runner_records)}")

    untraced = [(p, o) for t, p, o, _ in rows if not t and p is not None]
    if not untraced:
        print("perfbench: no pass completed", file=sys.stderr)
        return 1
    if args.trace:
        traced = [(p, o) for t, p, o, _ in rows if t and p is not None]
        metrics = per_layer([m["name"] for m in spec["per_layer"]], tracer,
                            traced, untraced)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, (calls, total, self_s, draws) in sorted(
                tracer.stats.items(), key=lambda kv: -kv[1][2]):
            print(f"span {name} calls={calls} total_s={total:.4f} "
                  f"self_s={self_s:.4f} draws={draws}")
        for name, count in sorted(tracer.counts.items()):
            print(f"count {name} calls={count}")
    else:
        metrics = end_to_end(rows, setup)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        points = sum(len(p.point_s) for p, _ in untraced)
        draws = sum(p.draws for p, _ in untraced)
        print(f"samples: {len(untraced)} passes, {points} points, "
              f"{SETUP_PROBES} set-ups of {SETUP_TRIES} tries, sampler draws "
              f"per point {draws / max(1, points):.4f}")
        print("setup_s tries " + " ".join(f"{t:.4f}" for t in tries))
        print("pass_s " + " ".join(f"{p.seconds:.4f}" for p, _ in untraced))
        median = statistics.median(p.seconds for p, _ in untraced)
        print(f"pass_s median {median!r} floor {metrics['pass_s.floor']!r}")
        print(f"fail_share {1.0 - metrics['pass_share']!r} "
              f"skip_share {1.0 - metrics['kept_share']!r}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(rows) + 1,  # with the warm-up pass
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
