"""Start-up stays light: importing the CLI pulls in no heavy standard modules.

`dataclasses` imports `inspect` (and through it `ast`, `dis`, `tokenize`)
and generates each class's methods from source at import time, and `typing`
is a large module the package does not need at run time, since its
annotations are strings.  A cold ``kummerlab --report json`` pays for every
module it imports, so these stay off its import path.
"""

import ast
import os
import pathlib
import subprocess
import sys

import kummerlab

SRC_DIR = pathlib.Path(kummerlab.__file__).parent
HEAVY = ("dataclasses", "inspect", "typing")


def test_cli_import_adds_no_heavy_module():
    # ``-S`` skips ``site``: a ``.pth`` file in site-packages may import
    # `typing` before any user code runs (one does on some installs), and a
    # run with ``site`` could then not tell whether the package imports it.
    # The benchmark's cold runs keep ``site``, so on such an interpreter they
    # do not see the `typing` part of this guard; users' interpreters may.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import kummerlab.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    added = set(proc.stdout.split())
    assert "kummerlab.cli" in added
    assert not added.intersection(HEAVY), sorted(added.intersection(HEAVY))


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
