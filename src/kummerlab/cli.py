"""Batch verification runner.

Usage: ``kummerlab [--check GLOB]... [--report text|json] [--list]``.
Exit codes: 0 when no check fails, 1 when any check fails, 2 on usage errors
(including a selection glob matching no registered check).  The JSON report
contains only schema fields, so two runs produce byte-identical output.

The options are parsed by hand and the report is written without `json`, so
a run imports neither `argparse` (with `gettext` and `locale`) nor `json`;
the parser keeps argparse's messages, prefixes and exit codes.
"""

from __future__ import annotations

import sys
import time

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
    # only a selection needs `fnmatch`, which imports `re` and `enum`
    from fnmatch import fnmatchcase

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


# json's string escapes: the named ones, and \u00XX for the other control characters
_ESCAPES = str.maketrans({chr(i): f"\\u{i:04x}" for i in range(0x20)} | {
    '"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"
})


def _quote(s: str) -> str:
    """``s`` as a JSON string, as ``json.dumps(s, ensure_ascii=False)`` writes it;
    a printable string holds no control character to escape."""
    if s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    return '"' + s.translate(_ESCAPES) + '"'


def _render(value: object, pad: str) -> str:
    """``value`` as ``json.dumps(..., indent=2)`` writes it at indent ``pad``:
    each container's items are rendered into a list and joined once.  Only
    the exact types a check's data holds are accepted: str, int, bool, None,
    list, tuple and dict with str keys; anything else, a float included,
    raises TypeError."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    inner = pad + "  "
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        items = [_render(x, inner) for x in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if kind is dict:
        if not value:
            return "{}"
        items = []
        for key, x in value.items():
            if type(key) is not str:
                raise TypeError(f"report data cannot hold a {type(key).__name__} key")
            items.append(_quote(key) + ": " + _render(x, inner))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    raise TypeError(f"report data cannot hold a {kind.__name__}")


def render_json(report: Report) -> str:
    """The report byte for byte as ``json.dumps(payload, indent=2,
    ensure_ascii=False) + "\\n"`` writes it, with the fixed schema as text."""
    checks = ",\n    ".join(
        f'{{\n      "id": {_quote(r.id)},\n      "status": {_quote(r.status)},'
        f'\n      "detail": {_quote(r.detail)},\n      "data": {_render(r.data, "      ")}\n    }}'
        for r in report.checks
    )
    checks = f"[\n    {checks}\n  ]" if report.checks else "[]"
    return (
        f'{{\n  "version": {_quote(report.version)},\n  "checks": {checks},'
        f'\n  "summary": {_render(report.summary, "  ")}\n}}\n'
    )


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


_USAGE = "usage: kummerlab [-h] [--check GLOB] [--report {text,json}] [--list]\n"
_HELP = _USAGE + """
Run the exact verification checks for the Kummer surface divisor
combinatorics.

options:
  -h, --help            show this help message and exit
  --check GLOB          run only checks matching this glob (repeatable)
  --report {text,json}  output format (default: text)
  --list                list all registered checks and exit
"""
# the long options with their names in argparse's messages; their first
# letters differ, so any prefix of one, "--c" on, names it
_OPTIONS = {"--help": "-h/--help", "--check": "--check", "--report": "--report", "--list": "--list"}
_REPORTS = ("text", "json")


def _usage_error(message: str) -> SystemExit:
    sys.stderr.write(f"{_USAGE}kummerlab: error: {message}\n")
    return SystemExit(2)


def _parse_args(argv: list[str]) -> tuple[list[str], str, bool]:
    """``(checks, report, list)`` from the command line, as argparse parses it.

    ``--check GLOB`` appends (none selects every check), the last
    ``--report`` wins, ``--opt=value`` and prefixes are accepted, and every
    token from ``--`` on is left over.  A usage error writes the usage and
    argparse's message to stderr and raises SystemExit(2); ``-h`` writes the
    help to stdout and raises SystemExit(0).
    """
    checks, report, listing, unknown = [], "text", False, []
    args = iter(argv)
    for arg in args:
        if arg == "--":
            unknown += [arg, *args]
            break
        name, eq, value = arg.partition("=")
        if arg == "-h":
            option = "--help"
        elif name.startswith("--") and name != "--":
            option = next((o for o in _OPTIONS if o.startswith(name)), None)
        else:
            option = None
        if option is None:
            unknown.append(arg)
        elif option in ("--help", "--list"):
            if eq:
                raise _usage_error(f"argument {_OPTIONS[option]}: ignored explicit argument {value!r}")
            if option == "--help":
                sys.stdout.write(_HELP)
                raise SystemExit(0)
            listing = True
        else:
            if not eq:
                value = next(args, None)
                if value is None or value.startswith("-"):
                    raise _usage_error(f"argument {option}: expected one argument")
            if option == "--check":
                checks.append(value)
            elif value in _REPORTS:
                report = value
            else:
                choices = ", ".join(map(repr, _REPORTS))
                raise _usage_error(f"argument --report: invalid choice: {value!r} (choose from {choices})")
    if unknown:
        raise _usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    return checks, report, listing


def main(argv: list[str] | None = None) -> int:
    checks, report_format, listing = _parse_args(sys.argv[1:] if argv is None else argv)

    if listing:
        sys.stdout.write(render_check_list())
        return 0

    try:
        report = build_report(checks)
    except ValueError as exc:
        sys.stderr.write(f"kummerlab: {exc}\n")
        sys.stderr.write("use --list to see the registered check ids\n")
        return 2

    if report_format == "json":
        sys.stdout.write(render_json(report))
    else:
        sys.stdout.write(render_text(report))
    return 0 if report.summary["fail"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
