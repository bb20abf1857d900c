"""Command line behavior: exit codes, output formats, determinism."""

import json
import os
import re
import subprocess
import sys

import pytest

from detmin.cli import _config_from_args, build_parser, main
from detmin.report import VerificationReport
from detmin.sweep import (CHECKS, RunConfig, config_from_mapping, load_config,
                          parse_range, run_sweep)


def test_no_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_list_checks_prints_registry(capsys):
    assert main(["list-checks"]) == 0
    out = capsys.readouterr().out
    for name in CHECKS:
        assert name in out
    assert len(out.strip().splitlines()) == len(CHECKS)


def test_list_checks_pipeline_filter(capsys):
    assert main(["list-checks", "--pipeline", "levelset"]) == 0
    out = capsys.readouterr().out
    assert "levelset.minimality" in out
    assert "parametric.mean-curvature" not in out


def test_verify_small_grid_json(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "parametric", "--p", "2..3", "--q", "2",
                 "--samples", "2", "--seed", "1",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == "1"
    assert payload["records"]
    verdicts = {r["verdict"] for r in payload["records"]}
    assert "FAIL" not in verdicts
    assert payload["summary"]["counts"]["FAIL"] == 0


def test_verify_text_goes_to_stdout(capsys):
    code = main(["verify", "levelset", "--q", "2", "--samples", "1",
                 "--seed", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "levelset.minimality" in out
    assert out.strip().splitlines()[-1].startswith("--")


def test_verify_runs_are_deterministic(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert main(["verify", "complex", "--q", "2,3", "--samples", "2",
                     "--seed", "9", "--format", "json",
                     "--out", str(path)]) == 0
    a = json.loads(paths[0].read_text())
    b = json.loads(paths[1].read_text())
    assert a["records"] == b["records"]
    assert a["summary"] == b["summary"]


def test_tolerance_override_can_force_failure(tmp_path):
    out = tmp_path / "r.txt"
    code = main(["verify", "parametric", "--p", "2", "--q", "2",
                 "--samples", "1", "--seed", "0",
                 "--tol", "parametric.mean-curvature=1e-30",
                 "--out", str(out)])
    assert code == 1
    assert "FAIL" in out.read_text()


def test_unknown_check_in_tolerance_is_a_config_error(capsys):
    code = main(["verify", "parametric", "--p", "2", "--q", "2",
                 "--tol", "bogus.check=1"])
    assert code == 2
    assert "detmin:" in capsys.readouterr().err


def test_malformed_tolerance_is_a_config_error(capsys):
    code = main(["verify", "parametric", "--tol", "no-equals-sign"])
    assert code == 2
    assert "detmin:" in capsys.readouterr().err


def test_sweep_json_config(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "pipeline": "levelset", "q": "2..3", "samples": 1, "seed": 5,
    }))
    out = tmp_path / "report.csv"
    code = main(["sweep", "--config", str(config),
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("check,")
    assert len(lines) > 1


def test_sweep_key_value_config(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# pseudo pipeline over the hyperbolic pair\n"
        "pipeline = pseudo\n"
        "p = 2\n"
        "q = 2\n"
        "samples = 1\n"
        "seed = 11\n"
        "tol.pseudo.minimality = 1e-8\n"
        "form = eta=++,zeta=+-\n"
        "form = eta=+-,zeta=++\n")
    cfg = load_config(config)
    assert cfg.pipeline == "pseudo"
    # form is the one key that may repeat
    assert cfg.forms == (("++", "+-"), ("+-", "++"))
    assert cfg.tolerances == {"pseudo.minimality": 1e-8}
    assert main(["sweep", "--config", str(config), "--out",
                 str(tmp_path / "out.txt")]) == 0


def test_sweep_missing_config_file(tmp_path, capsys):
    code = main(["sweep", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2
    assert "detmin:" in capsys.readouterr().err


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        config_from_mapping({"pipeline": "all", "bogus": 1})


@pytest.mark.parametrize("samples", [0, -2])
def test_nonpositive_samples_is_a_config_error(samples, capsys):
    with pytest.raises(ValueError):
        config_from_mapping({"samples": samples})
    code = main(["verify", "parametric", "--samples", str(samples)])
    assert code == 2
    captured = capsys.readouterr()
    assert "samples" in captured.err
    assert captured.out == ""


def test_parse_range_forms():
    assert parse_range("2..5") == (2, 3, 4, 5)
    assert parse_range("3") == (3,)
    assert parse_range("2,4,7") == (2, 4, 7)
    with pytest.raises(ValueError):
        parse_range("5..2")


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "detmin", "list-checks"],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0
    assert "parametric.mean-curvature" in proc.stdout


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_records_do_not_depend_on_the_blas_threads_setting(tmp_path):
    # detmin pins BLAS to one thread when it loads before numpy; without the
    # pin, threaded OpenBLAS 0.3.31 on a two-CPU host wrote other records
    # (digest 0b4954fad590 against 7395e5c5d5b2 with one thread)
    unset = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    digests = []
    for name, env in (("unset", unset),
                      ("one", {**unset, "OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / f"{name}.json"
        subprocess.run([sys.executable, "-m", "detmin", "verify", "complex",
                        "--q", "8", "--seed", "1", "--format", "json",
                        "--out", str(out)],
                       env=env, timeout=300, check=True)
        digests.append(
            VerificationReport.from_json(out.read_text()).records_digest())
    assert digests[0] == digests[1]


@pytest.mark.parametrize("argv, status", [
    (["list-checks"], 0),
    # a FAIL verdict, as in test_tolerance_override_can_force_failure
    (["verify", "parametric", "--p", "2", "--q", "2", "--samples", "1",
      "--seed", "0", "--tol", "parametric.mean-curvature=1e-30"], 1),
], ids=["list-checks", "verify-fail"])
def test_a_closed_stdout_keeps_the_exit_status(argv, status):
    # a reader that has gone away is no configuration error: these used to
    # exit 2 with "detmin: [Errno 32] Broken pipe"
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    try:
        proc = subprocess.run([sys.executable, "-m", "detmin", *argv],
                              stdout=write_fd, stderr=subprocess.PIPE,
                              text=True, timeout=120, check=False)
    finally:
        os.close(write_fd)
    assert (proc.returncode, proc.stderr) == (status, "")


def test_an_unwritable_out_path_exits_2(tmp_path, capsys):
    code = main(["verify", "levelset", "--q", "2", "--samples", "1",
                 "--out", str(tmp_path / "absent" / "r.txt")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("detmin: ") and captured.out == ""


def test_list_checks_prints_in_record_order(capsys):
    # the tiny grid of test_all_pipelines_tiny_grid emits every check
    report = run_sweep(RunConfig(p_values=(2, 3), q_values=(2, 3), samples=1,
                                 seed=2))
    assert main(["list-checks"]) == 0
    listed = [line.split()[0]
              for line in capsys.readouterr().out.splitlines()]
    assert listed == list(dict.fromkeys(r.check for r in report.records))


@pytest.mark.parametrize("argv", [
    ["verify", "parametric", "--p", "2", "--q", "3"],   # q > p
    ["verify", "parametric", "--p", "3", "--q", "3", "--r", "5"],  # r >= q
    ["verify", "pseudo", "--p", "2", "--q", "3"],
    ["verify", "levelset", "--q", "1"],                 # n >= 2 only
    # levelset and complex have cells; the shape pipelines, which have
    # none, were once dropped from an exit-0 run
    ["verify", "all", "--q", "2..3", "--r", "5"],
    ["verify", "all", "--p", "2", "--q", "3"],
], ids=["q-above-p", "r-above-q", "pseudo-q-above-p", "levelset-n-1",
        "all-r-above-q", "all-q-above-p"])
def test_a_grid_without_cells_is_a_config_error(argv, capsys):
    # a run that certifies nothing must not exit 0
    with pytest.raises(ValueError, match="no parameter cell"):
        run_sweep(_config_from_args(build_parser().parse_args(argv)))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "no parameter cell" in captured.err
    assert captured.out == ""


def test_negative_seed_is_a_config_error(capsys):
    # derived streams used to fold the sign away, so seed -1 wrote seed 1's
    # records under meta.seed = -1
    with pytest.raises(ValueError, match="seed"):
        config_from_mapping({"seed": -1})
    with pytest.raises(ValueError, match="seed"):
        run_sweep(RunConfig(p_values=(2, 3), q_values=(2,), samples=1,
                            seed=-1))
    assert main(["verify", "levelset", "--q", "2", "--samples", "1",
                 "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert "seed must be non-negative" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["verify", "pseudo", "--p", "3", "--q", "3", "--r", "1",
     "--form", "eta=++,zeta=+-"],
    ["verify", "pseudo", "--p", "3", "--q", "3", "--form", "eta=+-+,zeta=+-"],
    # (2, 3) is a pair of the ranges but no cell, since q > p
    ["verify", "all", "--p", "2..3", "--q", "2..3",
     "--form", "eta=+-,zeta=+-+"],
    ["verify", "pseudo", "--p", "3", "--q", "2",
     "--form", "eta=+-+,zeta=+-", "--form", "eta=+-,zeta=+-"],
], ids=["both-lengths", "zeta-length", "shape-without-cell", "one-of-two"])
def test_a_form_matching_no_shape_is_a_config_error(argv, capsys):
    # such a form used to be dropped: the default forms ran in its place
    # while meta.forms still named it
    with pytest.raises(ValueError, match="matches no pseudo cell"):
        run_sweep(_config_from_args(build_parser().parse_args(argv)))
    assert main(argv + ["--samples", "1"]) == 2
    captured = capsys.readouterr()
    assert "matches no pseudo cell" in captured.err
    assert captured.out == ""


def test_a_form_without_the_pseudo_pipeline_is_a_config_error(capsys):
    # such a form used to be ignored while meta.forms still named it
    argv = ["verify", "levelset", "--q", "2", "--samples", "1",
            "--form", "eta=++,zeta=+-"]
    with pytest.raises(ValueError, match="read only by the pseudo pipeline"):
        run_sweep(_config_from_args(build_parser().parse_args(argv)))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "read only by the pseudo pipeline" in captured.err
    assert captured.out == ""


def test_a_form_is_used_where_its_shape_is(tmp_path):
    out = tmp_path / "r.json"
    # not a config error, and every record passes
    assert main(["verify", "pseudo", "--p", "2..3", "--q", "2", "--r", "1",
                 "--samples", "1", "--form", "eta=+-+,zeta=+-",
                 "--format", "json", "--out", str(out)]) == 0
    points = {r["point"] for r in json.loads(out.read_text())["records"]
              if r["check"] == "pseudo.minimality"}
    # the form replaces the defaults at p = 3 and leaves p = 2 alone
    assert points == {"p=2 q=2 r=1 eta=++ zeta=++ i=0",
                      "p=2 q=2 r=1 eta=+- zeta=+- i=0",
                      "p=3 q=2 r=1 eta=+-+ zeta=+- i=0"}


# every rule of a valid run, each as a config mapping in the README's
# vocabulary and, where a library caller can say the same, as RunConfig
# keywords; each is refused with one message by every entry point
INVALID = {
    "samples-0": ({"samples": 0}, {"samples": 0}),
    "samples-negative": ({"samples": -2}, {"samples": -2}),
    "seed-negative": ({"seed": -1}, {"seed": -1}),
    "unknown-tolerance": ({"tol.no.such": 1.0},
                          {"tolerances": {"no.such": 1.0}}),
    "tolerance-inf": ({"tol.parametric.tangency": float("inf")},
                      {"tolerances": {"parametric.tangency": float("inf")}}),
    "tolerance-nan": ({"tol.parametric.tangency": float("nan")},
                      {"tolerances": {"parametric.tangency": float("nan")}}),
    # every residual is a norm or a 0/1 flag, so a negative bound would
    # fail every record of its check
    "tolerance-negative": ({"tol.parametric.dimension": -1.0},
                           {"tolerances": {"parametric.dimension": -1.0}}),
    "bad-sign-pattern": (
        {"pipeline": "pseudo", "p": 2, "q": 2, "form": "eta=+x,zeta=+-"},
        {"pipeline": "pseudo", "p_values": (2,), "q_values": (2,),
         "forms": (("+x", "+-"),)}),
    "form-without-pseudo": (
        {"pipeline": "levelset", "q": 2, "form": "eta=++,zeta=+-"},
        {"pipeline": "levelset", "q_values": (2,),
         "forms": (("++", "+-"),)}),
    "form-matching-no-cell": (
        {"pipeline": "pseudo", "p": 3, "q": 3, "form": ["eta=++,zeta=+-"]},
        {"pipeline": "pseudo", "p_values": (3,), "q_values": (3,),
         "forms": (("++", "+-"),)}),
    "form-repeated": (
        {"pipeline": "pseudo", "p": 2, "q": 2,
         "form": ["eta=++,zeta=+-", "eta=++,zeta=+-"]},
        {"pipeline": "pseudo", "p_values": (2,), "q_values": (2,),
         "forms": (("++", "+-"), ("++", "+-"))}),
    # the spec used to keep its last eta and run only that form; a form
    # spec has no RunConfig spelling
    "form-repeated-key": ({"pipeline": "pseudo", "p": 2, "q": 2,
                           "form": "eta=++,zeta=+-,eta=+-"}, None),
    "grid-without-cell": ({"pipeline": "parametric", "p": 2, "q": 3},
                          {"pipeline": "parametric", "p_values": (2,),
                           "q_values": (3,)}),
    "unknown-key": ({"bogus": 1}, None),
    # a JSON null has no key=value or command-line spelling, so only the
    # JSON file runs
    "grid-entry-null": ({"pipeline": "parametric", "p": [2, None],
                         "q": [2]}, None),
    # spellings that were once accepted besides tol.<check> and form
    "tol-table": ({"tol": {"parametric.tangency": 1e-8}}, None),
    "tolerances-table": ({"tolerances": {"parametric.tangency": 1e-8}},
                         None),
    "forms-list": ({"pipeline": "pseudo", "p": 2, "q": 2,
                    "forms": [["++", "+-"]]}, None),
    # JSON true and false are ints to Python; like null, they have no
    # key=value or command-line spelling.  A true tolerance would read 1.0
    "samples-true": ({"pipeline": "levelset", "q": 2, "samples": True},
                     {"pipeline": "levelset", "q_values": (2,),
                      "samples": True}),
    "seed-false": ({"pipeline": "levelset", "q": 2, "seed": False},
                   {"pipeline": "levelset", "q_values": (2,), "seed": False}),
    "tolerance-true": (
        {"pipeline": "levelset", "q": 2, "samples": 1,
         "tol.levelset.minimality": True},
        {"pipeline": "levelset", "q_values": (2,), "samples": 1,
         "tolerances": {"levelset.minimality": True}}),
}


def _key_value_text(mapping):
    lines = []
    for key, value in mapping.items():
        for item in (value if isinstance(value, list) else [value]):
            if item is None or isinstance(item, bool):
                return None
            lines.append(f"{key} = {item}")
    return "\n".join(lines) + "\n"


def _verify_argv(mapping):
    argv = ["verify", mapping.get("pipeline", "all")]
    for key, value in mapping.items():
        if key.startswith("tol."):
            argv += ["--tol", f"{key[4:]}={value}"]
        elif key == "form":
            for spec in (value if isinstance(value, list) else [value]):
                argv += ["--form", spec]
        elif key != "pipeline":
            argv += [f"--{key}", str(value)]
    return argv


@pytest.mark.parametrize("mapping, keywords", INVALID.values(),
                         ids=list(INVALID))
def test_every_entry_point_refuses_an_invalid_run(mapping, keywords,
                                                   tmp_path, capsys):
    with pytest.raises(ValueError) as refused:
        config_from_mapping(mapping)
    message = str(refused.value)
    if keywords is not None:
        # before any cell runs, so nothing forks
        with pytest.raises(ValueError) as library:
            RunConfig(**keywords)
        assert str(library.value) == message
    json_file = tmp_path / "run.json"
    json_file.write_text(json.dumps(mapping))
    paths = [json_file]
    key_value_text = _key_value_text(mapping)
    if key_value_text is not None:
        key_value_file = tmp_path / "run.cfg"
        key_value_file.write_text(key_value_text)
        paths.append(key_value_file)
    runs = []
    for path in paths:
        with pytest.raises(ValueError) as loaded:
            load_config(path)
        assert str(loaded.value) == message
        runs.append(["sweep", "--config", str(path)])
    if keywords is not None and key_value_text is not None:
        runs.append(_verify_argv(mapping))
    for argv in runs:
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"detmin: {message}\n")


# a mapping cannot repeat a key, so these are files; JSON lists its forms
# in one array, so only a key=value file may repeat form
@pytest.mark.parametrize("name, text, key", [
    ("run.cfg", "seed = 1\nsamples = 1\nseed = 2\n", "seed"),
    ("run.json", '{"seed": 1, "samples": 1, "seed": 2}', "seed"),
    ("run.json", '{"form": "eta=++,zeta=++", "form": "eta=+-,zeta=+-"}',
     "form"),
])
def test_a_repeated_config_key_is_refused(name, text, key, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(text)
    message = f"repeated config keys: [{key!r}]"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config(path)
    assert main(["sweep", "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", f"detmin: {message}\n")


def test_a_json_config_shares_the_key_value_vocabulary(tmp_path):
    key_value_file = tmp_path / "run.cfg"
    key_value_file.write_text(
        "pipeline = pseudo\n"
        "p = 2\n"
        "q = 2\n"
        "samples = 1\n"
        "seed = 11\n"
        "tol.pseudo.minimality = 1e-8\n"
        "form = eta=++,zeta=+-\n")
    json_file = tmp_path / "run.json"
    json_file.write_text(json.dumps({
        "pipeline": "pseudo", "p": 2, "q": 2, "samples": 1, "seed": 11,
        "tol.pseudo.minimality": 1e-8, "form": ["eta=++,zeta=+-"]}))
    config = load_config(json_file)
    assert config == load_config(key_value_file)
    with pytest.raises(TypeError):
        config.tolerances["pseudo.minimality"] = 1.0
    assert config.tol("pseudo.minimality") == 1e-8
