"""Every numeric value in the package must be an integer or exact rational.

Two complementary enforcements: a static scan of the package source for
float/complex literals and float conversions, and a runtime walk over the
full report payload and the core model objects.
"""

import ast
import json
import pathlib
from fractions import Fraction

import kummerlab
from kummerlab.cli import build_report, render_json
from kummerlab.kummer_ns import jacobian_kummer_ns
from kummerlab.nikulin import nikulin_lattice

SRC_DIR = pathlib.Path(kummerlab.__file__).parent
ALLOWED_MATH_IMPORTS = {"gcd", "lcm", "isqrt", "prod"}


def _source_trees():
    for path in sorted(SRC_DIR.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


class TestStaticExactness:
    def test_no_float_or_complex_literals(self):
        for path, tree in _source_trees():
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant):
                    assert not isinstance(node.value, (float, complex)), (
                        f"{path.name}:{node.lineno} has literal {node.value!r}"
                    )

    def test_no_float_conversions(self):
        for path, tree in _source_trees():
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    assert node.id != "float", f"{path.name}:{node.lineno} uses float"
                if isinstance(node, ast.Attribute):
                    assert node.attr != "float", f"{path.name}:{node.lineno} uses .float"

    def test_math_imports_are_integer_only(self):
        for path, tree in _source_trees():
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        assert alias.name.split(".")[0] != "math", (
                            f"{path.name} imports the math module wholesale"
                        )
                if isinstance(node, ast.ImportFrom) and node.module == "math":
                    for alias in node.names:
                        assert alias.name in ALLOWED_MATH_IMPORTS, (
                            f"{path.name} imports math.{alias.name}"
                        )


def _walk(value, where):
    assert not isinstance(value, float), f"float {value!r} at {where}"
    if isinstance(value, dict):
        for k, v in value.items():
            _walk(k, f"{where}.{k}")
            _walk(v, f"{where}.{k}")
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _walk(v, f"{where}[{i}]")


class TestRuntimeExactness:
    def test_report_payload_has_no_floats(self):
        report = build_report()
        payload = json.loads(render_json(report))
        _walk(payload, "report")
        assert isinstance(report.elapsed_ms, int)

    def test_model_coordinates_are_fractions(self):
        model = jacobian_kummer_ns()
        vectors = list(model.ns.generators) + list(model.ns.zbasis())
        vectors += [model.trope_class(t) for t in ("C0", "C16", "C23")]
        for v in vectors:
            for c in v.coords:
                assert isinstance(c, Fraction)

    def test_root_enumeration_is_exact(self):
        from kummerlab.nikulin import roots

        for v in roots(nikulin_lattice()):
            for c in v.coords:
                assert isinstance(c, Fraction)
