"""Acceptance suite: every finite quantity the package certifies, one test
per criterion, each printing a pass/fail line.  All comparisons are exact;
there are no tolerances anywhere.
"""

import ast
import json
import pathlib
from fractions import Fraction

import kummerlab
from kummerlab import covers
from kummerlab.cli import build_report, render_json
from kummerlab.fibration import (
    build_fibration,
    even_eight_from_fibers,
    transform_double_cover,
)
from kummerlab.kummer_ns import (
    even_eight,
    isogeny_polarization_type,
    jacobian_kummer_ns,
)
from kummerlab.labels import NODE_LABELS, TROPE_LABELS
from kummerlab.nikulin import (
    nikulin_lattice,
    roots,
    saturation,
    saturation_gram_matches,
)
from kummerlab.nodecode import (
    EMPTY,
    FULL,
    NodeSet,
    check_affine_hyperplane_family,
    code_from_even_sets,
    weight_enumerator,
)

MODEL = jacobian_kummer_ns()
PAIRS = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]


def _verdict(number, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_even_set_census():
    evens = MODEL.even_sets
    eights = [s for s in evens if s.weight == 8]
    no_e0 = {s for s in eights if "E0" not in s}
    deltas = {even_eight(i, j) for i, j in PAIRS}
    ok = (
        len(evens) == 32
        and EMPTY in evens
        and FULL in evens
        and len(eights) == 30
        and sorted(s.weight for s in evens) == [0] + [8] * 30 + [16]
        and len(no_e0) == 15
        and no_e0 == deltas
    )
    _verdict(1, "even-set census: empty + 30 eights + full; 15 avoid E0 and match the index-pair family", ok)


def test_criterion_02_code_structure():
    code = code_from_even_sets(MODEL.even_sets)
    eights = MODEL.even_eights()
    pairwise = all(
        (a & b).weight in (0, 4)
        for idx, a in enumerate(eights)
        for b in eights[idx + 1 :]
    )
    ok = (
        code.dimension == 5
        and weight_enumerator(code) == {0: 1, 8: 30, 16: 1}
        and pairwise
        and check_affine_hyperplane_family(eights)
    )
    _verdict(2, "even sets form a dimension-5 code with enumerator 1 + 30z^8 + z^16; eights meet in 0 or 4", ok)


def test_criterion_03_divisor_lattice_model():
    tropes_in = all(MODEL.ns.contains(MODEL.trope_class(t)) for t in TROPE_LABELS)
    table = MODEL.incidence_matrix()
    table_ok = (
        all(x in (0, 1) for row in table for x in row)
        and all(sum(row) == 6 for row in table)
        and all(sum(table[r][c] for r in range(16)) == 6 for c in range(16))
    )
    images = MODEL.covering_involution_images()
    involution_ok = all(
        MODEL.covering_involution(MODEL.covering_involution(MODEL.space.basis_vector(lab)))
        == MODEL.space.basis_vector(lab)
        for lab in MODEL.space.labels
    )
    ok = tropes_in and table_ok and MODEL.ns.is_isometry(images) and involution_ok
    _verdict(3, "all 16 tropes lie in the lattice; (16,6) incidence; the covering involution is an involutive isometry", ok)


def test_criterion_04_even_eight_identity():
    ok = all(MODEL.even_eight_identity(i, j) for i, j in PAIRS)
    _verdict(4, "the trope identity for the even eight holds exactly for all 15 index pairs", ok)


def test_criterion_05_rank8_lattice():
    lattice = nikulin_lattice()
    found = roots(lattice)
    expected = set()
    for lab in lattice.space.labels:
        v = lattice.space.basis_vector(lab)
        expected.add(v.coords)
        expected.add((-v).coords)
    group = lattice.lattice.discriminant_group()
    saturations = all(
        saturation(even_eight(i, j), MODEL)[0] == 2
        and saturation_gram_matches(even_eight(i, j), MODEL)
        for i, j in PAIRS
    )
    ok = (
        len(found) == 16
        and {v.coords for v in found} == expected
        and all(v.is_integral for v in found)
        and group.order == 2**6
        and saturations
    )
    _verdict(5, "root enumeration gives the 16 signed basis vectors, none from the half-integer branch; discriminant order 2^6; all saturations isometric", ok)


def test_criterion_06_containment_and_discriminant():
    q1 = NodeSet.from_labels(["E13", "E14", "E23", "E24"])
    matches = MODEL.even_eights_containing(q1)
    restricted = {s for s in matches if "E0" not in s}
    # among E0-avoiding even eights (the family the argument uses) the answer
    # is exactly the (1,2) and (3,4) eights; the full census also contains the
    # complement of the (5,6) eight, which holds E0
    containment_ok = restricted == {even_eight(1, 2), even_eight(3, 4)}
    full_ok = set(matches) == restricted | {even_eight(5, 6).complement()}
    ok = containment_ok and full_ok and MODEL.independent_discriminant_elements()
    _verdict(6, "containment query yields the (1,2) and (3,4) eights among E0-avoiding ones; the two half-sums are independent dual classes", ok)


def test_criterion_07_fibration():
    fib = build_fibration(MODEL)
    types = [f.kodaira_type for f in fib.fibers]
    out = transform_double_cover(fib, even_eight(1, 2), MODEL)
    sweep = True
    for i, j in PAIRS:
        f = build_fibration(MODEL, i, j)
        o = transform_double_cover(f, even_eight(i, j), MODEL)
        sweep = sweep and (
            f.fiber_class.norm() == 0
            and f.euler == 24
            and even_eight_from_fibers(f, MODEL)
            and sum(1 for x in o.fibers if x.kodaira_type == "I2") == 12
            and o.euler == 24
        )
    ok = (
        fib.fiber_class.norm() == 0
        and len(fib.sections) == 4
        and all(MODEL.curve_table.classes[s].dot(fib.fiber_class) == 1 for s in fib.sections)
        and types == ["I0*", "I0*"] + ["I2"] * 6
        and fib.euler == 2 * 6 + 6 * 2 == 24
        and even_eight_from_fibers(fib, MODEL)
        and sum(1 for f in out.fibers if f.kodaira_type == "I2") == 12
        and out.euler == 24
        and sweep
    )
    _verdict(7, "fiber class isotropic, 4 sections, fiber types and Euler sums as stated, 12 two-component fibers on the cover, 15-pair sweep", ok)


def test_criterion_08_cover_calculus():
    t = covers.build_quartic_cover()
    table = covers.curve_table_T()
    x = covers.build_final_cover()
    _, inventory = covers.sixteen_curves_on_X()
    ok = (
        t.euler == 10
        and t.k_squared == 2
        and covers.noether_chi(t) == 1
        and not covers.weak_del_pezzo_defects(t)
        and table["E1.E1"] == 2
        and table["W1.W1"] == 0
        and table["E1.E2"] == 2
        and table["W1.W2"] == 4
        and table["W1.E2"] == 2
        and table["E1.E1"] + table["E2.E2"] + 2 * table["E1.E2"] == 8
        and table["W1.W1"] + table["W2.W2"] + 2 * table["W1.W2"] == 8
        and table["W1.E2"] + table["W2.E1"] + table["W1.E1+W2.E2"] == 8
        and x.euler == 24
        and x.canonical.is_zero()
        and covers.noether_chi(x) == 2
        and inventory["total"] == 16
        and inventory["split_preimages_of_exceptional"] == 12
        and inventory["exceptional_of_cover"] == 2
        and inventory["aggregate_cross"] == 8
    )
    _verdict(8, "e(T)=10, K^2=2, chi=1, weak dP2; curve table and all three aggregates = 8; e(X)=24, trivial canonical, chi=2; 12+2+2 inventory", ok)


def test_criterion_09_polarization():
    ok = isogeny_polarization_type((1, 1), 2) == (1, 2)
    _verdict(9, "type (1,1) pulls back to (1,2) along a degree-2 isogeny", ok)


def test_criterion_10_determinism_and_exactness():
    first = render_json(build_report())
    second = render_json(build_report())
    payload = json.loads(first)

    def no_floats(value):
        if isinstance(value, float):
            return False
        if isinstance(value, dict):
            return all(no_floats(k) and no_floats(v) for k, v in value.items())
        if isinstance(value, list):
            return all(no_floats(v) for v in value)
        return True

    src = pathlib.Path(kummerlab.__file__).parent
    literal_free = True
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                literal_free = False
            if isinstance(node, ast.Name) and node.id == "float":
                literal_free = False

    coords_exact = all(
        isinstance(c, Fraction)
        for v in MODEL.ns.zbasis()
        for c in v.coords
    )
    summary = payload["summary"]
    ok = (
        first == second
        and no_floats(payload)
        and literal_free
        and coords_exact
        and summary["fail"] == 0
    )
    _verdict(10, "byte-stable JSON report; no floating point in any code path; zero failing checks", ok)
