#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (about a minute).

    python3 perfbench/selftest.py

It checks that:

- a one-second run of every workload, untraced and traced, prints exactly
  the metrics named in ``BENCHMARK.json``, each with its unit, and that every
  op is correct;
- the traced run writes a per-check table with all 88 checks;
- a deliberately corrupted golden report drives ``failed_ratio`` to 1, so the
  correctness gate can fail;
- the ``lattice_queries`` inputs are a pure function of the seed;
- the benchmark exits non-zero, printing no result, when the kummerlab
  sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, dict | None]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def metrics_match(result: dict, section: str) -> bool:
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    values_ok = all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    return got == wanted and values_ok and set(result) == {"correct", "attempted", "failed", "metrics"}


def test_metrics() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result = bench(workload, trace)
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} --trace {trace}: exit 0, every op correct")
            check(result is not None and metrics_match(result, section),
                  f"{workload} --trace {trace}: prints every {section} metric with its unit")
    table = (OUT / "checks_warm-checks.tsv").read_text().splitlines()
    check(sum(1 for line in table[1:] if not line.startswith("context.")) == 88,
          "checks_warm trace: per-check table has 88 rows")


def copy_tree(name: str, with_sources: bool) -> Path:
    """A fresh checkout under ``out/`` with the benchmark files, and the
    kummerlab sources when ``with_sources``."""
    tree = OUT / name
    shutil.rmtree(tree, ignore_errors=True)
    shutil.copytree(BENCH, tree / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    if with_sources:
        shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def test_corrupted_golden() -> None:
    tree = copy_tree("selftest-corrupted", with_sources=True)
    report = tree / "perfbench" / "golden" / "report.json"
    report.write_text(report.read_text().replace('"pass"', '"PASS"', 1))
    code, result = bench("checks_warm", 1, cwd=tree)
    check(code != 0 and result is not None and not result["correct"]
          and result["metrics"]["failed_ratio"]["value"] == 1.0,
          "checks_warm with a corrupted golden: failed_ratio 1, correct false")
    code, result = bench("cli_full_json", 0, cwd=tree)
    check(code != 0 and result is not None and not result["correct"]
          and result["failed"] == result["attempted"] >= 1,
          "cli_full_json with a corrupted golden: every op failed, correct false")
    shutil.rmtree(tree)

def test_pure_inputs() -> None:
    script = "import json, queries; print(json.dumps([queries.make_batch(7, i) for i in range(3)]))"
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(BENCH))
        outputs.append(subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                                      stdout=subprocess.PIPE, text=True, check=True).stdout)
    sys.path.insert(0, str(BENCH))
    import queries

    here = json.dumps([queries.make_batch(7, i) for i in range(3)]) + "\n"
    other = json.dumps([queries.make_batch(8, i) for i in range(3)]) + "\n"
    check(outputs[0] == outputs[1] == here, "lattice_queries inputs repeat for the same seed")
    check(other != here, "lattice_queries inputs change with the seed")
    weights = sorted(m.bit_count() for m in queries.EVEN_SETS)
    check(weights == [0] + [8] * 30 + [16], "known even sets: 1 empty, 30 eights, 1 full")


def test_refuses_without_sources() -> None:
    tree = copy_tree("selftest-bare", with_sources=False)
    code, result = bench("checks_warm", 0, cwd=tree)
    check(code != 0 and result is None, "exits non-zero with no result when sources are missing")
    shutil.rmtree(tree)

def main() -> int:
    OUT.mkdir(exist_ok=True)
    test_pure_inputs()
    test_refuses_without_sources()
    test_corrupted_golden()
    test_metrics()
    print(f"{len(failures)} failure(s)" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
