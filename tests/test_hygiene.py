"""Source hygiene: every name a module imports is used in that module,
every function and method of the package is read by a run, the bench or a
demo, not by the tests alone, every parameter is read by its function,
no library function or result decides a verdict of its own, no check
name is written out in full and every sweep cell samples through one loop
that reads no verdict; the pipeline modules import from each other only
what is declared, every rank question goes through the one tolerance
policy in linalg, every random stream is built by ``linalg.derived_rng``,
a residual scale is floored at 1 only at the eight sites ``FLOORS`` pins
(each with its reason), no ``abs`` is compared with a bare number, and
hypothesis draws deterministically."""

import ast
import json
from collections import Counter
from pathlib import Path

import hypothesis
import pytest

from detmin.sweep import CHECKS

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "detmin").glob("*.py"))
# every file outside the package whose code may call into it, tests aside
READERS = sorted(path for part in ("demos", "perfbench")
                 for path in (ROOT / part).rglob("*.py"))


def _imported(tree):
    """(name bound by an import, line) for every import outside __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # names a package re-exports through __all__ count as used
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names.update(elt.value for elt in node.value.elts)
    return names


def test_sources_are_found():
    assert len(SOURCES) > 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"imported and never used: {unused}"


def _reads(nodes):
    """Names some code reads: its identifiers and attributes."""
    return ({node.id for node in nodes if isinstance(node, ast.Name)}
            | {node.attr for node in nodes if isinstance(node, ast.Attribute)})


def _defs(tree):
    """(qualified name, node) for each module-level function and each
    method of a module-level class; dunder methods are called by Python."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")):
                    yield f"{node.name}.{item.name}", item


def _bench_spans():
    """The function or method each per-layer span of the bench times, e.g.
    ``hessians`` for ``kahler.TwinHarmonicPair.hessians.ms``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"].split(".")[-2] for metric in spec["per_layer"]}


def test_every_def_is_read_outside_the_tests():
    # a def that only tests read is a test oracle kept in the package; it
    # belongs next to its test.  Reads are matched by name: a def is read
    # when a demo, the bench's code or span table, module-level code of the
    # package or another def of the package that is read itself names it
    outside = set()
    for path in READERS:
        outside |= _reads(list(ast.walk(ast.parse(path.read_text("utf-8")))))
    defs, module_level = {}, set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = set()
        for qualname, node in _defs(tree):
            body = list(ast.walk(node))
            inside |= {id(sub) for sub in body}
            defs[f"{path.name}:{node.lineno} {qualname}"] = (
                node.name, _reads(body))
        module_level |= _reads([sub for sub in ast.walk(tree)
                                if id(sub) not in inside])
    roots = outside | module_level | _bench_spans()
    unread = set()
    while True:
        newly = {where for where, (name, _) in defs.items()
                 if where not in unread and name not in roots
                 and not any(name in names
                             for other, (_, names) in defs.items()
                             if other != where and other not in unread)}
        if not newly:
            break
        unread |= newly
    assert not unread, f"defs only the tests read: {sorted(unread)}"


# process-level scheduling: modules that start processes, and os calls
# that fork
FORKING_MODULES = {"multiprocessing", "concurrent"}
FORK_CALLS = {"fork", "forkpty"}


def _forks(tree):
    """Lines that import a forking module or name a fork call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        elif isinstance(node, ast.Attribute) and node.attr in FORK_CALLS:
            yield node.lineno
            continue
        else:
            continue
        if any(name.split(".")[0] in FORKING_MODULES
               or name in {f"os.{call}" for call in FORK_CALLS}
               for name in names):
            yield node.lineno


def test_only_the_sweep_forks():
    # the decision to run cells in a second process stays in one module
    forking = {path.name: list(_forks(ast.parse(path.read_text("utf-8"))))
               for path in SOURCES + sorted((ROOT / "demos").glob("*.py"))}
    assert forking.pop("sweep.py"), "the check no longer sees the sweep fork"
    assert not {name: lines for name, lines in forking.items() if lines}


# the sweep registry turns residuals into verdicts; a library function named
# like a verdict would be a second tolerance table, and a library result
# with an ok key or a bool field a verdict decided before the sweep sees it
VERDICT_NAMES = {"ok", "verdict"}
VERDICT_MODULES = {"sweep.py", "report.py"}


def _verdict_slots(tree):
    """(line, name) of each dict key ``ok`` or ``*_ok`` and each class field
    annotated ``bool``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                name = getattr(key, "value", None)
                if isinstance(name, str) and (name == "ok"
                                              or name.endswith("_ok")):
                    yield key.lineno, name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.AnnAssign)
                        and isinstance(item.annotation, ast.Name)
                        and item.annotation.id == "bool"):
                    yield item.lineno, item.target.id


def test_no_library_function_decides_a_verdict():
    deciders = [f"{path.name}:{node.lineno} {node.name}" for path in SOURCES
                for node in ast.walk(ast.parse(path.read_text("utf-8")))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in VERDICT_NAMES]
    assert not deciders, f"functions deciding a verdict: {deciders}"
    slots = [f"{path.name}:{line} {name}" for path in SOURCES
             if path.name not in VERDICT_MODULES
             for line, name in _verdict_slots(
                 ast.parse(path.read_text("utf-8")))]
    assert not slots, f"library results carrying a verdict: {slots}"


def test_every_parameter_is_read():
    # a parameter no body reads makes every caller compute an argument for
    # nothing; self and cls are bound by Python
    unread = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = [arg.arg for arg in (*args.posonlyargs, *args.args,
                                          *args.kwonlyargs, args.vararg,
                                          args.kwarg)
                      if arg is not None and arg.arg not in {"self", "cls"}]
            loads = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                     if isinstance(sub, ast.Name)
                     and isinstance(sub.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno} {node.name}({name})"
                       for name in params if name not in loads]
    assert not unread, f"parameters never read: {unread}"


# RunConfig decides whether a run is valid; the parsers only read text
CONFIG_DECIDERS = {"RunConfig", "parse_range", "_parse_form",
                   "config_from_mapping", "load_config"}


def _raises_value_error(node):
    return any(isinstance(sub, ast.Raise) and sub.exc is not None
               and "ValueError" in {n.id for n in ast.walk(sub.exc)
                                    if isinstance(n, ast.Name)}
               for sub in ast.walk(node))


def test_only_the_config_refuses_a_run():
    # a configuration error raised by run_sweep, a runner, a cell or the
    # worker would come after the fork, or after some cells had run
    tree = ast.parse((ROOT / "src" / "detmin" / "sweep.py").read_text("utf-8"))
    raising = {getattr(node, "name", f"line {node.lineno}")
               for node in tree.body if _raises_value_error(node)}
    assert "RunConfig" in raising, "the check no longer sees RunConfig"
    assert raising <= CONFIG_DECIDERS, raising - CONFIG_DECIDERS


def _sample_loops(tree):
    """Names of the defs holding each ``range(<x>.samples)`` call."""
    for node in tree.body:
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "range" and sub.args
                    and isinstance(sub.args[0], ast.Attribute)
                    and sub.args[0].attr == "samples"):
                yield getattr(node, "name", f"line {node.lineno}")


def test_one_sample_loop():
    # a cell is a stream key, point fields and steps, run by one loop; a
    # second loop, or a step chosen by reading a verdict, is where a cell's
    # records would start to depend on more than its configuration
    loops = [f"{path.name} {name}" for path in SOURCES
             for name in _sample_loops(ast.parse(path.read_text("utf-8")))]
    assert loops == ["sweep.py _sampled"]
    tree = ast.parse((ROOT / "src" / "detmin" / "sweep.py").read_text("utf-8"))
    read = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "verdict"]
    assert not read, f"sweep.py reads a verdict on lines {read}"


def test_no_check_name_is_written_out():
    # a check is declared once, at its step, as a pipeline and a suffix; a
    # full name written anywhere else in the package would be a second list
    # of check names for the step's residual order to drift from
    written = [f"{path.name}:{node.lineno} {node.value}" for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text("utf-8")))
               if isinstance(node, ast.Constant) and node.value in CHECKS]
    assert CHECKS, "the check no longer sees the registry"
    assert not written, f"check names written out: {written}"


# what each pipeline module takes from the rest of the package besides the
# shared substrate: routes that must stay independent share code only
# through linalg, and a record two routes read belongs there, not in one
# route that the other imports
SUBSTRATE = {"linalg", "errors"}
PIPELINE_IMPORTS = {
    "parametric.py": {"dual"},
    "levelset.py": set(),
    "helicoidal.py": set(),
    "pseudo.py": {"parametric.MAX_DRAWS", "parametric.ChartPoint",
                  "parametric.chart_second_derivatives",
                  "parametric.sample_chart_point"},
    "variation.py": {"parametric.normal_fields", "parametric.normal_frame"},
    "kahler.py": set(),
    "dual.py": set(),
}


def _package_imports(tree):
    """``module.name`` for each name imported from the package, or
    ``module`` for an imported module, as written relative to it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "detmin":
                    continue
                module = module.partition(".")[2]
            for alias in node.names:
                yield f"{module}.{alias.name}" if module else alias.name
        elif isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[2] for alias in node.names
                        if alias.name.split(".")[0] == "detmin")


def test_pipeline_imports_are_the_declared_ones():
    found = {}
    for name in PIPELINE_IMPORTS:
        tree = ast.parse((ROOT / "src" / "detmin" / name).read_text("utf-8"))
        found[name] = {imported for imported in _package_imports(tree)
                       if imported.split(".")[0] not in SUBSTRATE}
    assert any(name.startswith("linalg.") for name in _package_imports(
        ast.parse((ROOT / "src" / "detmin" / "kahler.py").read_text("utf-8")))
    ), "the check no longer sees an import from linalg"
    assert found == PIPELINE_IMPORTS


def test_no_rank_decision_bypasses_the_linalg_policy():
    # np.linalg.matrix_rank thresholds without RANK_TOL_FACTOR
    callers = [path.name for path in SOURCES
               if "matrix_rank" in path.read_text(encoding="utf-8")]
    assert not callers, f"rank decided outside linalg's policy: {callers}"


# numpy names that seed or build a random stream
STREAM_MAKERS = {"Generator", "Philox", "SeedSequence", "default_rng",
                 "RandomState"}


def test_one_stream_constructor():
    # a seed names one stream only while one function turns seeds into
    # generators; a second constructor could key the same seed differently
    named, home = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text("utf-8"))
        inside = {id(sub) for node in tree.body
                  if path.name == "linalg.py"
                  and getattr(node, "name", None) == "derived_rng"
                  for sub in ast.walk(node)}
        nodes = list(ast.walk(tree))
        home |= _reads([node for node in nodes if id(node) in inside])
        elsewhere = (_reads([node for node in nodes if id(node) not in inside])
                     | {name for name, _ in _imported(tree)})
        named += [f"{path.name} {name}"
                  for name in sorted(elsewhere & STREAM_MAKERS)]
    assert home & STREAM_MAKERS, "the check no longer sees derived_rng"
    assert not named, f"random streams built outside derived_rng: {named}"


# every residual scale floored at 1 that is left, by ``file:function``
# and why it stays; a site whose floor goes leaves this table with it
FLOORS = {
    "parametric.py:mean_curvature": (1, "metric_scale: the bench divides by "
                                     "it at r = 0, where g^-1 is empty"),
    "pseudo.py:pseudo_minimality": (1, "metric_scale, as in parametric"),
    "sweep.py:_euclidean_reduction": (1, "FAILs at p = q = 9, r = 8, seed "
                                      "2 without it; the bench copies it"),
    "parametric.py:o_p_structure_check": (2, "both scales are outputs that "
                                          "vanish with lam; max|g^-1| "
                                          "loosened the check up to 98x"),
    "linalg.py:inertia": (1, "a 1 x 1 Gram's one eigenvalue is never small "
                          "against itself"),
    "helicoidal.py:isometry_check": (1, "|X||Y| caught B (1 + 1e-12) at 80 "
                                     "of 250 points, against 250"),
    "pseudo.py:hyperbolic_det_residual": (1, "a^T a (1 + lam^2) caught "
                                          "det (1 + 1e-12) in 7 of 2,000 "
                                          "draws, against 642"),
}


def _sites(path, test):
    """``file:function`` of each node of ``path`` that ``test`` accepts,
    by its innermost enclosing def."""
    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if test(node):
            yield f"{path.name}:{where}"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)

    yield from visit(ast.parse(path.read_text("utf-8")), "<module>")


def _floor(node):
    """A ``max(..)`` or ``*.maximum(..)`` call with an operand of 1."""
    return (isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == "max"
                 or getattr(node.func, "attr", None) == "maximum")
            and any(isinstance(arg, ast.Constant) and arg.value == 1
                    for arg in node.args))


def _abs_against_a_number(node):
    """An inequality between ``abs(..)`` or ``*.abs(..)`` and a bare
    number; an equality, such as a sign vector's |s| == 1, is no zero test."""
    if not (isinstance(node, ast.Compare)
            and all(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                    for op in node.ops)):
        return False
    operands = [node.left, *node.comparators]
    absolute = any(isinstance(op, ast.Call)
                   and "abs" in (getattr(op.func, "id", None),
                                 getattr(op.func, "attr", None))
                   for op in operands)
    return absolute and any(
        isinstance(op, ast.Constant) and type(op.value) in (int, float)
        for op in (getattr(op, "operand", op) for op in operands))


def test_residual_scales_are_floored_only_at_the_pinned_sites():
    # the cone has no scale: a floor at 1 leaves a residual absolute
    # wherever its scale falls below 1, so outside the pinned sites every
    # scale goes through linalg.relative, with no floor
    floors = Counter(site for path in SOURCES for site in _sites(path, _floor))
    assert floors == {site: count for site, (count, _) in FLOORS.items()}
    # a zero test on values of degree n accepts any point at large n;
    # linalg.near_zero states the degree-0 one
    tests = [site for path in SOURCES
             for site in _sites(path, _abs_against_a_number)]
    assert not tests, f"abs compared with a bare number: {tests}"
    # an absolute floor under the gradient Gram was the determinant routes'
    # one absolute guard; its condition number alone decides
    named = [path.name for path in SOURCES
             if "GRAM_SCALE_FLOOR" in path.read_text("utf-8")]
    assert not named, f"GRAM_SCALE_FLOOR is back in {named}"


def test_hypothesis_draws_deterministically():
    assert hypothesis.settings.default.derandomize is True
    assert hypothesis.settings.default.database is None
