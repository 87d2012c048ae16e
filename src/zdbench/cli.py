"""Command-line interface.

Exit codes: 0 on success or completed analysis, 1 when a theorem suite
reports failures (counterexamples are in the report), 2 on usage or input
errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from .errors import BoundExceeded, DslError
from .report import (analyze_report, canonical_json, revalidate_report,
                     render_text, search_report, theorems_report,
                     witness_report)
from .universe import DEFAULT_LIMITS, UniverseLimits


def _limits_from_args(args) -> UniverseLimits:
    overrides = {}
    for name in ("degree_bound", "series_precision", "max_module", "max_algebra",
                 "zmod_max"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "no_products", False):
        overrides["product_component_max"] = 0
    return dataclasses.replace(DEFAULT_LIMITS, **overrides) if overrides else DEFAULT_LIMITS


def _emit(report: dict, args, started: float) -> None:
    if args.timing:
        report = dict(report)
        report["timing"] = {"wall_seconds": round(time.monotonic() - started, 3)}
    if args.format == "text":
        sys.stdout.write(render_text(report))
    else:
        sys.stdout.write(canonical_json(report))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--timing", action="store_true",
                        help="attach wall-clock timing (non-deterministic field)")
    parser = argparse.ArgumentParser(
        prog="zdbench",
        description="zero-divisor analysis of finite commutative rings and modules")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", parents=[common],
                               help="full predicate report for one ring/module")
    p_analyze.add_argument("--ring", required=True)
    p_analyze.add_argument("--module", required=True)

    p_theorems = sub.add_parser("theorems", parents=[common], help="run registered statement suites")
    p_theorems.add_argument("--suite", default="all",
                            help="statement id glob, e.g. 'thm-2.*' (default: all)")
    p_theorems.add_argument("--degree-bound", type=int, dest="degree_bound")
    p_theorems.add_argument("--series-precision", type=int, dest="series_precision")
    p_theorems.add_argument("--max-module", type=int, dest="max_module")
    p_theorems.add_argument("--max-algebra", type=int, dest="max_algebra")
    p_theorems.add_argument("--zmod-max", type=int, dest="zmod_max")
    p_theorems.add_argument("--no-products", action="store_true", dest="no_products")
    p_theorems.add_argument("--revalidate", action="store_true",
                            help="re-check every emitted witness before exiting")

    p_search = sub.add_parser("search", parents=[common], help="search for hypothesis/conclusion gaps")
    p_search.add_argument("--hyp", required=True)
    p_search.add_argument("--concl", required=True)
    p_search.add_argument("--max-module", type=int, dest="max_module")
    p_search.add_argument("--zmod-max", type=int, dest="zmod_max")

    p_witness = sub.add_parser("witness", parents=[common], help="constructive annihilation witness")
    p_witness.add_argument("--f", required=True, dest="f")
    p_witness.add_argument("--g", required=True, dest="g")
    p_witness.add_argument("--ring", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        limits = _limits_from_args(args)
        if args.command == "analyze":
            report = analyze_report(args.ring, args.module, limits=limits)
        elif args.command == "theorems":
            report = theorems_report(args.suite, limits=limits)
            if args.revalidate:
                reval = revalidate_report(report)
                report["revalidation"] = {"total": reval["total"],
                                          "failed": len(reval["failed"])}
                if reval["failed"]:
                    report["passed"] = False
        elif args.command == "search":
            report = search_report(args.hyp, args.concl, limits=limits)
        else:
            report = witness_report(args.f, args.g, args.ring)
        _emit(report, args, started)
    except (DslError, ValueError, BoundExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.get("passed", True) else 1


if __name__ == "__main__":
    raise SystemExit(main())
