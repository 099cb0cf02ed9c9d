"""Start-up stays light: importing the CLI pulls in no heavy standard modules.

`dataclasses` imports `inspect` (and through it `ast`, `dis`, `tokenize`)
and generates each class's methods from source at import time, and `typing`
is a large module the package does not need at run time, since its
annotations are strings.  Running the report adds neither `argparse` (with
`gettext`, which imports `locale` for its messages) nor `json`, whose
decoder and scanner come with its encoder, nor `fractions`, which imports
`decimal` and `numbers`: the report reads integers, and only the public
views that return one rational import `fractions`, inside the call.  Nor does
it add `fnmatch`, which imports `re` and `enum`: only ``--check GLOB`` reads
it.  A cold ``kummerlab --report json`` pays for every module it imports, so
these stay off its path.
"""

import ast
import os
import pathlib
import subprocess
import sys

import kummerlab

SRC_DIR = pathlib.Path(kummerlab.__file__).parent
HEAVY = ("dataclasses", "inspect", "typing")
CLI_HEAVY = ("argparse", "gettext", "locale", "json", "fractions", "decimal", "numbers", "fnmatch", "re", "enum")


def test_cli_import_adds_no_heavy_module():
    # ``-S`` skips ``site``: a ``.pth`` file in site-packages may import
    # `typing` before any user code runs (one does on some installs), and a
    # run with ``site`` could then not tell whether the package imports it.
    # The benchmark's cold runs keep ``site``, so on such an interpreter they
    # do not see the `typing` part of this guard; users' interpreters may.
    # The first line lists the modules the import adds, the second those
    # that the JSON report's run adds on top, with its stdout discarded.
    code = (
        "import os, sys\n"
        "before = set(sys.modules)\n"
        "import kummerlab.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
        "imported = set(sys.modules)\n"
        "with open(os.devnull, 'w', encoding='utf-8') as sys.stdout:\n"
        "    code = kummerlab.cli.main(['--report', 'json'])\n"
        "sys.stdout = sys.__stdout__\n"
        "print(code, ' '.join(sorted(set(sys.modules) - imported)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    imports, run = proc.stdout.splitlines()
    status, *run_added = run.split()
    added = set(imports.split())
    assert "kummerlab.cli" in added and status == "0"
    heavy = added.union(run_added).intersection(HEAVY + CLI_HEAVY)
    assert not heavy, sorted(heavy)


def test_no_module_imports_dataclasses_or_typing():
    for path in sorted(SRC_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in HEAVY, f"{path.name}:{node.lineno} imports {name}"


def test_fractions_imported_only_inside_functions():
    for path in sorted(SRC_DIR.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ImportFrom):
                assert node.module != "fractions", f"{path.name}:{node.lineno} imports fractions"
            elif isinstance(node, ast.Import):
                assert "fractions" not in [a.name for a in node.names], f"{path.name}:{node.lineno}"
