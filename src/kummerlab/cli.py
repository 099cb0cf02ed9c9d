"""Batch verification runner.

Usage: ``kummerlab [--check GLOB]... [--report text|json] [--list]``.
Exit codes: 0 when no check fails, 1 when any check fails, 2 on usage errors
(including a selection glob matching no registered check).  The JSON report
contains only schema fields, so two runs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fnmatch import fnmatchcase

from . import __version__
from ._frozen import Frozen
from .checks import FAIL, FLAGGED, PASS, CheckResult, REGISTRY, list_checks, run_checks


class Report(Frozen):
    __slots__ = ("version", "checks", "summary", "elapsed_ms")

    def __init__(
        self, version: str, checks: tuple[CheckResult, ...], summary: dict[str, int], elapsed_ms: int
    ) -> None:
        object.__setattr__(self, "version", version)
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "summary", summary)
        object.__setattr__(self, "elapsed_ms", elapsed_ms)


def select_ids(patterns: list[str] | None) -> list[str]:
    """Resolve selection globs against the registry, in registry (id) order.

    Raises ValueError when a pattern matches nothing.
    """
    if not patterns:
        return [d.id for d in REGISTRY]
    chosen: set[str] = set()
    for pattern in patterns:
        matched = [d.id for d in REGISTRY if fnmatchcase(d.id, pattern)]
        if not matched:
            raise ValueError(f"unknown check id or pattern: {pattern!r}")
        chosen.update(matched)
    return [d.id for d in REGISTRY if d.id in chosen]


def build_report(patterns: list[str] | None = None) -> Report:
    ids = select_ids(patterns)
    start = time.monotonic_ns()
    results = tuple(run_checks(ids))
    elapsed_ms = (time.monotonic_ns() - start) // 10**6
    summary = {
        "pass": sum(1 for r in results if r.status == PASS),
        "fail": sum(1 for r in results if r.status == FAIL),
        "flagged": sum(1 for r in results if r.status == FLAGGED),
    }
    return Report(__version__, results, summary, elapsed_ms)


def render_json(report: Report) -> str:
    payload = {
        "version": report.version,
        "checks": [
            {"id": r.id, "status": r.status, "detail": r.detail, "data": r.data}
            for r in report.checks
        ],
        "summary": report.summary,
    }
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def render_text(report: Report) -> str:
    lines = [f"kummerlab {report.version}"]
    width = max((len(r.id) for r in report.checks), default=0)
    for r in report.checks:
        tag = {PASS: "PASS", FAIL: "FAIL", FLAGGED: "FLAG"}[r.status]
        lines.append(f"{tag}  {r.id.ljust(width)}  {r.detail}")
    flagged = [r for r in report.checks if r.status == FLAGGED]
    if flagged:
        lines.append("")
        lines.append(f"{len(flagged)} flagged item(s) record known ambiguities; they never fail a run.")
    lines.append("")
    lines.append(
        f"summary: {report.summary['pass']} pass, {report.summary['fail']} fail, "
        f"{report.summary['flagged']} flagged ({report.elapsed_ms} ms)"
    )
    return "\n".join(lines) + "\n"


def render_check_list() -> str:
    lines = []
    for check_id, description, claim in list_checks():
        lines.append(check_id)
        lines.append(f"    does:   {description}")
        lines.append(f"    claims: {claim}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="kummerlab",
        description="Run the exact verification checks for the Kummer surface divisor combinatorics.",
    )
    parser.add_argument(
        "--check",
        action="append",
        metavar="GLOB",
        help="run only checks matching this glob (repeatable)",
    )
    parser.add_argument(
        "--report",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list all registered checks and exit",
    )
    args = parser.parse_args(argv)

    if args.list:
        sys.stdout.write(render_check_list())
        return 0

    try:
        report = build_report(args.check)
    except ValueError as exc:
        sys.stderr.write(f"kummerlab: {exc}\n")
        sys.stderr.write("use --list to see the registered check ids\n")
        return 2

    if args.report == "json":
        sys.stdout.write(render_json(report))
    else:
        sys.stdout.write(render_text(report))
    return 0 if report.summary["fail"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
