"""Command line front end for verification sweeps.

Three subcommands: ``verify`` runs one pipeline (or all) over a parameter
grid given on the command line, ``sweep`` does the same from a config
file, and ``list-checks`` prints the registry.  The exit status is 0 when
no gating check failed; evidence and skipped records never gate.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .sweep import (CHECKS, PIPELINES, config_from_mapping, load_config,
                    run_sweep)


def _add_grid_options(parser):
    parser.add_argument("--p", default=None, metavar="RANGE",
                        help="row sizes, e.g. 3, 2..5 or 2,4 (default 2..4)")
    parser.add_argument("--q", default=None, metavar="RANGE",
                        help="column sizes; levelset/complex read n from "
                             "this range (default 2..4)")
    parser.add_argument("--r", default=None, metavar="RANGE",
                        help="ranks (default: every 0 <= r < q)")
    parser.add_argument("--samples", type=int, default=None, metavar="N",
                        help="sample points per parameter cell (default 5)")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed for all derived streams")
    parser.add_argument("--tol", action="append", default=[],
                        metavar="CHECK=VALUE",
                        help="override a tolerance, repeatable")
    parser.add_argument("--form", action="append", default=[],
                        metavar="eta=++-,zeta=+-",
                        help="indefinite form pair for the pseudo pipeline, "
                             "repeatable; must match the matrix shape")


def _add_output_options(parser):
    parser.add_argument("--format", choices=("json", "csv", "text"),
                        default="text")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the report here instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="detmin",
        description="verify minimality of rank strata of matrix spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify", help="run one pipeline over a parameter grid")
    verify.add_argument("pipeline", choices=PIPELINES + ("all",))
    _add_grid_options(verify)
    _add_output_options(verify)

    listing = sub.add_parser("list-checks", help="print the check registry")
    listing.add_argument("--pipeline", choices=PIPELINES, default=None)

    swp = sub.add_parser("sweep", help="run from a configuration file")
    swp.add_argument("--config", required=True, metavar="PATH")
    _add_output_options(swp)
    return parser


def _config_from_args(args):
    raw = {"pipeline": args.pipeline}
    for key in ("p", "q", "r", "samples", "seed"):
        value = getattr(args, key)
        if value is not None:
            raw[key] = value
    for item in args.tol:
        name, eq, value = item.partition("=")
        if not eq:
            raise ValueError(f"--tol expects CHECK=VALUE, got {item!r}")
        raw[f"tol.{name.strip()}"] = value
    if args.form:
        raw["form"] = args.form
    return config_from_mapping(raw)


def _write(text, out):
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout, which is no configuration error: the
        # rest goes to devnull, so the exit flush cannot fail, and the
        # command keeps its own exit status
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _run_and_render(config, args):
    start = time.perf_counter()
    report = run_sweep(config)
    report.meta["elapsed_seconds"] = round(time.perf_counter() - start, 3)
    _write(report.render(args.format), args.out)
    return report.exit_status()


def _list_checks(args):
    rows = [c for c in CHECKS.values()
            if args.pipeline in (None, c.pipeline)]
    width = max(len(c.name) for c in rows)
    lines = []
    for c in rows:
        kind = "gate" if c.gate else "evidence"
        lines.append(f"{c.name:<{width}}  {kind:<8} "
                     f"tol={c.tolerance:<8.1e} {c.summary}\n")
    _write("".join(lines), None)
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-checks":
            return _list_checks(args)
        if args.command == "verify":
            return _run_and_render(_config_from_args(args), args)
        config = load_config(args.config)
        return _run_and_render(config, args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"detmin: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
