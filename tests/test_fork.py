"""Sweeps on two processes: a forked worker runs every other cell.

The two-process run must write what the one-process run writes, byte for
byte and with the same exit status; the one-process reference comes from a
subprocess pinned to one CPU, where ``run_sweep`` does not fork.  A worker
that raises or dies must surface in the parent, which leaves no child
process and no frozen objects behind.
"""

import functools
import gc
import json
import os
import subprocess
import sys
import textwrap
import threading

import pytest

from detmin import sweep
from detmin.cli import main
from detmin.report import VerificationReport
from detmin.sweep import RunConfig, run_sweep

pytestmark = pytest.mark.skipif(
    not sweep._can_fork(), reason="needs two usable CPUs and os.fork")

CASES = [
    ["verify", "all", "--seed", "0"],
    ["verify", "all", "--p", "2..5", "--q", "2..5", "--samples", "2",
     "--seed", "1"],
    ["verify", "all", "--p", "2..5", "--q", "2..4", "--r", "1",
     "--samples", "2", "--seed", "3"],
    ["verify", "parametric", "--p", "2..5", "--q", "2..5", "--r", "0,2",
     "--samples", "3", "--seed", "4"],
    ["verify", "levelset", "--q", "2..5", "--samples", "2", "--seed", "5"],
    ["verify", "helicoidal", "--p", "2..4", "--q", "2..4", "--samples", "2",
     "--seed", "6"],
    ["verify", "complex", "--q", "2..4", "--samples", "2", "--seed", "7"],
    ["verify", "pseudo", "--p", "2..4", "--q", "2..3", "--samples", "2",
     "--form", "eta=+-+,zeta=-+", "--form", "eta=++-,zeta=+--",
     "--seed", "8"],
    # tolerances two checks cannot meet: their records FAIL, exit status 1
    ["verify", "all", "--p", "2..3", "--q", "2..3", "--samples", "1",
     "--tol", "parametric.mean-curvature=1e-300",
     "--tol", "pseudo.reflection=1e-300", "--seed", "9"],
    # a bad form is refused before any cell runs, so neither run forks
    ["verify", "pseudo", "--p", "2..3", "--q", "2..3",
     "--form", "eta=+x,zeta=+-"],
    ["verify", "pseudo", "--p", "2..3", "--q", "2..3", "--r", "0",
     "--form", "eta=+x,zeta=+-"],
]

ONE_CPU = textwrap.dedent("""
    import contextlib, io, json, os, sys
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from detmin import sweep
    from detmin.cli import main
    assert not sweep._can_fork()
    runs = []
    for argv, out in json.loads(sys.argv[1]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv + ["--format", "json", "--out", out])
        runs.append([code, err.getvalue()])
    print(json.dumps(runs))
""")


def _reports(outs):
    texts = []
    for out in outs:
        with open(out, encoding="utf-8") as fh:
            report = VerificationReport.from_json(fh.read())
        report.meta.pop("elapsed_seconds")
        texts.append(report.to_json())
    return texts


def _counted_forks(monkeypatch):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def test_forked_runs_equal_the_one_cpu_runs(tmp_path, monkeypatch, capsys):
    forks = _counted_forks(monkeypatch)
    outs = [str(tmp_path / f"two-{k}.json") for k in range(len(CASES))]
    runs = []
    for argv, out in zip(CASES, outs):
        code = main(argv + ["--format", "json", "--out", out])
        runs.append([code, capsys.readouterr().err])
        assert gc.get_freeze_count() == 0
    assert len(forks) == len(CASES) - 2

    one = [str(tmp_path / f"one-{k}.json") for k in range(len(CASES))]
    proc = subprocess.run(
        [sys.executable, "-c", ONE_CPU, json.dumps(list(zip(CASES, one)))],
        capture_output=True, text=True, timeout=300, check=True)
    assert runs == json.loads(proc.stdout)
    codes = [code for code, _ in runs]
    assert codes[-2:] == [2, 2] and 1 in codes and 0 in codes
    assert _reports(outs[:-2]) == _reports(one[:-2])


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert gc.get_freeze_count() == 0


def test_a_worker_error_is_raised_in_the_parent(monkeypatch):
    parent, point = os.getpid(), sweep._parametric_point

    @functools.wraps(point)  # the substitute carries the step's checks
    def refusing(p, q, r, rng):
        if os.getpid() != parent:
            raise ValueError(f"refused at p={p} q={q} r={r}")
        return point(p, q, r, rng)

    monkeypatch.setattr(sweep, "_parametric_point", refusing)
    config = RunConfig(pipeline="parametric", p_values=(2, 3),
                       q_values=(2,), samples=2)
    # cells (2, 2, 0), (2, 2, 1), (3, 2, 0), ...: the worker has the second
    with pytest.raises(ValueError, match=r"^refused at p=2 q=2 r=1$"):
        run_sweep(config)
    _no_child_left()


def test_an_error_in_the_parent_stops_the_worker(monkeypatch):
    parent, point = os.getpid(), sweep._parametric_point

    @functools.wraps(point)
    def refusing(p, q, r, rng):
        if os.getpid() == parent:
            raise ValueError(f"refused at p={p} q={q} r={r}")
        return point(p, q, r, rng)

    monkeypatch.setattr(sweep, "_parametric_point", refusing)
    # the parent's own first cell raises; the worker is killed
    with pytest.raises(ValueError, match=r"^refused at p=2 q=2 r=0$"):
        run_sweep(RunConfig(p_values=(2, 3), q_values=(2, 3)))
    _no_child_left()


def test_a_successful_run_leaves_nothing_behind():
    run_sweep(RunConfig(p_values=(2, 3), q_values=(2, 3), samples=1))
    _no_child_left()


def test_no_fork_while_another_thread_runs(monkeypatch):
    forks = _counted_forks(monkeypatch)
    config = RunConfig(p_values=(2, 3), q_values=(2, 3), samples=1)
    forked = run_sweep(config).records_json()
    assert len(forks) == 1
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        assert run_sweep(config).records_json() == forked
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert len(forks) == 1


DYING = textwrap.dedent("""
    import functools, gc, os, signal
    from detmin import sweep
    from detmin.cli import main
    parent, point = os.getpid(), sweep._parametric_point

    @functools.wraps(point)
    def dying(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return point(*args)

    sweep._parametric_point = dying
    try:
        sweep.run_sweep(sweep.RunConfig(pipeline="parametric",
                                        p_values=(2, 3), q_values=(2,)))
    except ChildProcessError as exc:
        print("raised:", exc)
    print("exit:", main(["verify", "parametric", "--p", "2,3", "--q", "2"]))
    print("frozen:", gc.get_freeze_count())
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no child left")
""")


def test_a_dead_worker_is_an_error_not_a_hang():
    # in a subprocess with a timeout, so that a hang fails the test
    proc = subprocess.run([sys.executable, "-c", DYING], capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.splitlines() == [
        "raised: the sweep worker stopped before finishing its cells",
        "exit: 2", "frozen: 0", "no child left"]
    assert proc.stderr == ("detmin: the sweep worker stopped before "
                           "finishing its cells\n")
