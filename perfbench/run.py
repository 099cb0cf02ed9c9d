#!/usr/bin/env python3
"""Benchmark of the kummerlab batch verifier.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client that runs one operation at a
time; no threads, and at most one child process at a time.  Every operation's
output is checked against a known answer.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The line before it stamps the run with
the interpreter, CPU count, source identity, seed, run length and sample
counts.  Details (samples, spans as JSONL, the per-check table) go to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden"

CHILD_TIMEOUT_S = 150
# fresh set-ups measured per run; setup_s is their median
SETUP_SAMPLES = {"cli_full_json": 25, "checks_warm": 9, "lattice_queries": 21}
# share of a traced run spent on untraced ops, the base of trace.overhead_ratio
UNTRACED_SHARE = 1 / 3
# length of the reference loop that op times are divided by (about 20 ms)
REFERENCE_STEPS = 6000
# setup_s is given in seconds of a machine that runs the reference loop in
# this time, so that it does not follow the speed of a shared host
REFERENCE_SECONDS = 0.020
# one-time builds that in-process workloads do during set-up; their traced
# values come from the traced set-up instead of the ops
ONE_TIME_METRICS = (
    "cli.import_ms",
    "kummer_ns.model_build_ms",
    "kummer_ns.even_sets_ms",
    "kummer_ns.even_sets.hit_ratio",
)

sys.path.insert(0, str(BENCH))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(cmd: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S, check=False,
    )


def import_cli(tracer):
    """Import the package's entry module, as a ``cli.import`` span when traced."""
    if tracer is None:
        import kummerlab.cli as cli
        return cli
    span = tracer.open("cli.import")
    import kummerlab.cli as cli
    tracer.close(span)
    tracer.install()
    return cli


def probe_setup(workload: str) -> float:
    """Seconds one fresh process needs for ``workload``'s in-process set-up."""
    proc = run_child([sys.executable, str(BENCH / "run.py"), "--setup-probe", workload])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-500:]}")
    return float(proc.stdout.split()[-1])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Defaults shared by the workloads: in-process, no per-op input."""

    name = ""
    in_process = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.errors: list[str] = []

    def cpu_ns(self) -> int:
        return time.process_time_ns()

    def prepare(self, i: int):
        return None

    def setup_sample(self) -> float:
        return probe_setup(self.name)


class CliFullJson(Workload):
    """One op: a fresh ``python -m kummerlab --report json`` over all checks."""

    name = "cli_full_json"
    in_process = False

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.report = (GOLDEN / "report.json").read_bytes()
        self.listing = (GOLDEN / "list.txt").read_bytes()
        self.traced = False
        self.spans_path = OUT / "cli_full_json-child-spans.json"

    def cpu_ns(self) -> int:
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return round((ru.ru_utime + ru.ru_stime) * 1e9)

    def setup(self, tracer) -> None:
        proc = run_child([sys.executable, "-m", "kummerlab", "--list"])
        if proc.returncode != 0 or proc.stdout != self.listing:
            self.errors.append("kummerlab --list differs from the golden listing")

    def setup_sample(self) -> float:
        start = time.perf_counter()
        proc = run_child([sys.executable, "-c", "import kummerlab.cli"])
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.decode()[-500:]}")
        return time.perf_counter() - start

    def run(self, _):
        if self.traced:
            self.spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH / "run.py"), "--traced-cli", str(self.spans_path)]
        else:
            cmd = [sys.executable, "-m", "kummerlab", "--report", "json"]
        return run_child(cmd)

    def verify(self, _, proc) -> dict:
        info = {"ok": proc.returncode == 0 and proc.stdout == self.report,
                "report_bytes": len(proc.stdout)}
        info["checks_failed"] = _summary_fail(proc.stdout)
        if self.traced:
            info["spans"] = json.loads(self.spans_path.read_text())
        return info


def _summary_fail(report: bytes | str) -> int:
    try:
        return int(json.loads(report)["summary"]["fail"])
    except (ValueError, KeyError, TypeError):
        return -1


class ChecksWarm(Workload):
    """One op: in-process ``build_report()`` plus ``render_json()`` with a
    fresh ``CheckContext``, after a cold pass filled the cached model."""

    name = "checks_warm"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.report = (GOLDEN / "report.json").read_text(encoding="utf-8")
        self.listing = (GOLDEN / "list.txt").read_text(encoding="utf-8")

    def setup(self, tracer) -> None:
        self.cli = import_cli(tracer)
        if self.cli.render_check_list() != self.listing:
            self.errors.append("render_check_list() differs from the golden listing")
        if self.run(None) != self.report:
            self.errors.append("the cold pass differs from the golden report")

    def run(self, _) -> str:
        return self.cli.render_json(self.cli.build_report())

    def verify(self, _, out: str) -> dict:
        return {"ok": out == self.report, "report_bytes": len(out.encode("utf-8")),
                "checks_failed": _summary_fail(out)}


class LatticeQueries(Workload):
    """One op: a seeded batch of reads and writes against the public lattice
    API, on the rank-17 divisor lattice and the rank-8 lattice."""

    name = "lattice_queries"

    def setup(self, tracer) -> None:
        import queries

        import_cli(tracer)
        from kummerlab import lattice, nikulin
        from kummerlab.kummer_ns import jacobian_kummer_ns
        from kummerlab.nodecode import NodeSet

        self.lattice, self.NodeSet = lattice, NodeSet
        self.model = jacobian_kummer_ns()
        nik = nikulin.nikulin_lattice()
        self.spaces = {"ns": (self.model.space, self.model.ns), "nik": (nik.space, nik.lattice)}
        self.labels = {"ns": ("L",) + queries.NODE_LABELS, "nik": nikulin.ROOT_BASIS_LABELS}
        self.generators, self.zbasis = {}, {}
        for key, (space, lat) in self.spaces.items():
            if space.labels != self.labels[key] or len(lat.generators) != queries.GENERATORS[key]:
                self.errors.append(f"unexpected shape of the {key} lattice")
            self.generators[key] = [list(g.coords) for g in lat.generators]
            self.zbasis[key] = [list(b.coords) for b in lat.zbasis()]

    def prepare(self, i: int) -> list[tuple]:
        import queries

        return queries.calls(queries.make_batch(self.seed, i), self.generators)

    def run(self, calls: list[tuple]) -> list:
        lattice, model = self.lattice, self.model
        out = []
        for c in calls:
            kind = c[0]
            if kind in ("member", "nonmember"):
                space, lat = self.spaces[c[1]]
                v = space.vector(c[2])
                out.append((lat.contains(v), lat.coordinates_of(v)))
            elif kind == "inner":
                space = self.spaces[c[1]][0]
                a, b = space.vector(c[2]), space.vector(c[3])
                out.append((space.inner(a, b), b.dot(a)))
            elif kind == "even":
                out.append(model.is_even_set(self.NodeSet(c[1])))
            elif kind == "json":
                space = self.spaces[c[1]][0]
                payload = lattice.vector_to_json(space.vector(c[2]))
                out.append((payload, lattice.vector_from_json(space, payload).coords))
            elif kind == "sublattice":
                space = self.spaces[c[1]][0]
                lat = lattice.SublatticeModel(space, tuple(space.vector(g) for g in c[2]))
                sub = lattice.SublatticeModel(space, tuple(space.vector(g) for g in c[3]))
                # the known order is None where the batch does not ask for it
                order = None if c[5] is None else lat.discriminant_group().order
                out.append((lat.rank, order, lat.index_of_sublattice(sub)))
            else:
                space = model.space
                section = model.ns.coordinate_section(c[1])
                span = lattice.SublatticeModel(space, tuple(space.basis_vector(x) for x in c[1]))
                out.append((section.rank, section.index_of_sublattice(span)))
        return out

    def verify(self, calls: list[tuple], out: list) -> dict:
        return {"ok": len(out) == len(calls) and all(map(self._agrees, calls, out)),
                "report_bytes": 0, "checks_failed": 0}

    def _agrees(self, c: tuple, got) -> bool:
        kind = c[0]
        if kind == "member":
            contained, coeffs = got
            if not contained or coeffs is None:
                return False
            basis = self.zbasis[c[1]]
            rebuilt = [sum(k * b[a] for k, b in zip(coeffs, basis)) for a in range(len(c[2]))]
            return len(coeffs) == len(basis) and rebuilt == c[2]
        if kind == "nonmember":
            return got == (False, None)
        if kind == "inner":
            return got == (c[4], c[4])
        if kind == "even":
            return got is c[2]
        if kind == "json":
            payload, back = got
            expected = {"basis": list(self.labels[c[1]]),
                        "coords": [[str(x.numerator), str(x.denominator)] for x in c[2]]}
            return payload == expected and list(back) == c[2]
        if kind == "sublattice":
            return got == c[4:]
        return got == c[2:]


WORKLOADS = {w.name: w for w in (CliFullJson, ChecksWarm, LatticeQueries)}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def reference_loop() -> Fraction:
    """Fixed CPU-bound work in the lattice layer's instruction mix: exact
    rational sums and small containers.  It never calls kummerlab."""
    total = Fraction(0)
    seen = {}
    for i in range(1, REFERENCE_STEPS):
        total += Fraction(i % 7 - 3, i % 97 + 1)
        seen[i % 53] = (total.numerator % 1000, i)
    return total


def time_reference() -> tuple[int, int]:
    """(wall ns, CPU ns) of one reference loop in this process."""
    c0, w0 = time.process_time_ns(), time.perf_counter_ns()
    reference_loop()
    return time.perf_counter_ns() - w0, time.process_time_ns() - c0


def timed_loop(wl, seconds: float, first_op: int, tracer=None, between=None) -> list[dict]:
    """Run ops back to back for ``seconds`` (at least one op).

    The reference loop runs, untimed, before the first op and after every
    op; each op records the mean of the two references around it.
    ``between(fraction)``, when given, runs after each op with the share of
    ``seconds`` used so far; the time it takes does not count.
    """
    cpu_ns = wl.cpu_ns
    records = []
    start = time.perf_counter()
    paused = 0.0
    i = first_op
    ref_before = time_reference()
    while not records or time.perf_counter() - paused < start + seconds:
        inp = wl.prepare(i)
        root = None
        c0, w0 = cpu_ns(), time.perf_counter_ns()
        try:
            if tracer is not None:
                tracer.op = i
                root = tracer.open("bench.op")
            out = wl.run(inp)
            error = None
        except Exception as exc:  # a crashed op is a failed op
            out, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            if root is not None:
                tracer.close(root)
        w1, c1 = time.perf_counter_ns(), cpu_ns()
        record = {"op": i, "wall_ns": w1 - w0, "cpu_ns": c1 - c0, "error": error}
        if error is None:
            try:
                record.update(wl.verify(inp, out))
            except Exception as exc:
                record.update(ok=False, error=f"verify: {type(exc).__name__}: {exc}")
        else:
            record.update(ok=False, report_bytes=0, checks_failed=-1)
        if tracer is not None:
            record["spans"] = tracer.take()
        ref_after = time_reference()
        record["ref_wall_ns"] = (ref_before[0] + ref_after[0]) / 2
        record["ref_cpu_ns"] = (ref_before[1] + ref_after[1]) / 2
        ref_before = ref_after
        records.append(record)
        i += 1
        if between is not None:
            t = time.perf_counter()
            between((t - paused - start) / seconds)
            paused += time.perf_counter() - t
    return records


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3


def with_reference(measure) -> tuple[float, float]:
    """(seconds ``measure()`` reports, mean seconds of a reference loop run
    just before and just after it)."""
    before = time_reference()[0]
    seconds = measure()
    after = time_reference()[0]
    return seconds, (before + after) / 2e9


def plain_run(wl, args) -> tuple[dict, dict]:
    def own_setup() -> float:
        start = time.perf_counter()
        wl.setup(None)
        return time.perf_counter() - start

    if wl.in_process:
        setup = [with_reference(own_setup)]
    else:
        wl.setup(None)
        setup = []
    wanted = SETUP_SAMPLES[wl.name]
    first = len(setup)

    def between(fraction: float) -> None:
        # fresh set-ups are spread over the run, so that they meet the same
        # machine conditions as the ops
        while len(setup) - first < min(wanted - first, int(fraction * (wanted - first))):
            setup.append(with_reference(wl.setup_sample))

    records = timed_loop(wl, args.seconds, 1, between=between)
    while len(setup) < wanted:
        setup.append(with_reference(wl.setup_sample))
    walls = [r["wall_ns"] / 1e6 for r in records]
    cpus = [r["cpu_ns"] / 1e6 for r in records]
    wall_refs = [r["wall_ns"] / r["ref_wall_ns"] for r in records]
    cpu_refs = [r["cpu_ns"] / r["ref_cpu_ns"] for r in records]
    rss_kb = resource.getrusage(
        resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "wall_ref.p50": (median(wall_refs), "ref"),
        "cpu_ref.p50": (median(cpu_refs), "ref"),
        "setup_s": (median([s / ref for s, ref in setup]) * REFERENCE_SECONDS, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    details = {"setup_s_raw": [s for s, _ in setup], "setup_ref_s": [ref for _, ref in setup],
               "setup_s_raw.p50": median([s for s, _ in setup]), "wall_ms": walls, "cpu_ms": cpus,
               "wall_ref": wall_refs, "cpu_ref": cpu_refs,
               "wall_ms.p50": median(walls), "wall_ms.min": min(walls),
               "cpu_ms.p50": median(cpus), "cpu_ms.min": min(cpus),
               "wall_ms_quartiles": quartiles(walls), "wall_ref_quartiles": quartiles(wall_refs),
               "ref_ms.p50": median([r["ref_wall_ns"] / 1e6 for r in records]),
               "ops_per_s": len(walls) / (sum(walls) / 1e3)}
    return _result(wl, records, metrics, True), {"records": _strip(records), **details}


def traced_run(wl, args) -> tuple[dict, dict]:
    from tracer import Tracer, per_op, write_jsonl

    tracer = Tracer()
    setup_op = None
    kept_spans: list[list] = []
    if wl.in_process:
        tracer.op = 0
        root = tracer.open("bench.setup")
        wl.setup(tracer)
        tracer.close(root)
        kept_spans = tracer.take()
        setup_op = per_op(kept_spans)[0]
        tracer.uninstall()
    else:
        wl.setup(None)
    untraced = timed_loop(wl, args.seconds * UNTRACED_SHARE, 1)
    if wl.in_process:
        tracer.install()
        traced = timed_loop(wl, args.seconds * (1 - UNTRACED_SHARE), len(untraced) + 1, tracer)
        tracer.uninstall()
    else:
        wl.traced = True
        traced = timed_loop(wl, args.seconds * (1 - UNTRACED_SHARE), len(untraced) + 1)
    ops = []
    for r in traced:
        if r.get("spans"):
            (op,) = per_op(r["spans"]).values()
            ops.append(op)
            if r is traced[0]:
                kept_spans += r["spans"]
    records = untraced + traced
    names = sorted({m for op in ops for m in op["metrics"]})
    metrics = {}
    for name in names:
        if setup_op is not None and name in ONE_TIME_METRICS:
            value = setup_op["metrics"][name]
        else:
            value = median([op["metrics"][name] for op in ops])
        metrics[name] = (value, _unit(name))
    checks_failed = [r["checks_failed"] for r in records if r.get("checks_failed", -1) >= 0]
    metrics["checks.failed"] = (median(checks_failed), "count")
    metrics["cli.report_bytes"] = (median([r.get("report_bytes", 0) for r in records]), "B")
    metrics["failed_ratio"] = (sum(not r["ok"] for r in records) / len(records), "ratio")
    # op times over the reference loop, as in the end-to-end timings
    untraced_wall = median([r["wall_ns"] / r["ref_wall_ns"] for r in untraced])
    traced_wall = median([r["wall_ns"] / r["ref_wall_ns"] for r in traced])
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    correct = bool(ops) and len(ops) == len(traced)

    write_jsonl(OUT / f"{wl.name}-spans.jsonl", kept_spans)
    table = _check_table(ops, setup_op)
    if table:
        (OUT / f"{wl.name}-checks.tsv").write_text(table, encoding="utf-8")
    details = {"untraced_wall_ms": [r["wall_ns"] / 1e6 for r in untraced],
               "traced_wall_ms": [r["wall_ns"] / 1e6 for r in traced],
               "traced_ops": ops,
               "records": _strip(records)}
    return _result(wl, records, metrics, correct), details


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def _check_table(ops: list[dict], setup_op: dict | None) -> str:
    """Per-check median ms over the traced ops, with shared context builds
    billed to their own rows."""
    ids = sorted({cid for op in ops for cid in op["checks_ms"]})
    if not ids:
        return ""
    lines = ["check\tms"]
    for cid in ids:
        lines.append(f"{cid}\t{median([op['checks_ms'].get(cid, 0.0) for op in ops]):.3f}")
    for part in ("model", "eights", "fibration", "transformed"):
        name = f"checks.context.{part}_ms"
        ms = median([op["metrics"][name] for op in ops])
        lines.append(f"context.{part}\t{ms:.3f}")
        if setup_op is not None:
            lines.append(f"context.{part} (set-up)\t{setup_op['metrics'][name]:.3f}")
    return "\n".join(lines) + "\n"


def _strip(records: list[dict]) -> list[dict]:
    return [{k: v for k, v in r.items() if k != "spans"} for r in records]


def _result(wl, records: list[dict], metrics: dict, correct: bool) -> dict:
    failed = sum(not r["ok"] for r in records)
    for message in wl.errors:
        sys.stderr.write(f"perfbench: {message}\n")
    return {
        "correct": correct and failed == 0 and not wl.errors,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "kummerlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else None
        else:
            commit = ref
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


# ---------------------------------------------------------------------------
# child entry points
# ---------------------------------------------------------------------------


def traced_cli(spans_path: str) -> int:
    """Traced ``kummerlab --report json``: report on stdout, spans to a file."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.op = 1
    root = tracer.open("bench.op")
    cli = import_cli(tracer)
    code = cli.main(["--report", "json"])
    sys.stdout.flush()
    tracer.close(root)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.take(), fh)
    return code


def setup_probe(workload: str) -> int:
    start = time.perf_counter()
    WORKLOADS[workload](0).setup(None)
    print(time.perf_counter() - start)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    parser.add_argument("--traced-cli", metavar="SPANS", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "kummerlab" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no kummerlab sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.setup_probe)
    if args.traced_cli:
        return traced_cli(args.traced_cli)
    if args.workload is None:
        parser.error("--workload is required")

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed)
    result, details = (traced_run if args.trace else plain_run)(wl, args)
    stamp = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), **source_identity(),
        "ops": result["attempted"], "setup_samples": len(details.get("setup_s_raw", ())),
        "traced_ops": len(details.get("traced_wall_ms", ())),
        "untraced_ops": len(details.get("untraced_wall_ms", ())),
        "ref_ms.p50": details.get("ref_ms.p50"), "wall_ms.p50": details.get("wall_ms.p50"),
    }
    with open(OUT / f"{wl.name}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"stamp": stamp, "result": result, **details}, fh, indent=1, default=str)
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
