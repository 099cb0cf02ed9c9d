from fractions import Fraction

import pytest

from kummerlab.fibration import (
    I0_STAR,
    SMOOTH,
    Fiber,
    FiberComponent,
    Fibration,
    FibrationError,
    _kodaira_type,
    build_fibration,
    even_eight_from_fibers,
    kodaira_euler,
    transform_double_cover,
)
from kummerlab.kummer_ns import JacobianKummerNS, even_eight, jacobian_kummer_ns, trope_support
from kummerlab.labels import INDEX_PAIRS, NODE_LABELS, node_label
from kummerlab.lattice import _integral_table
from kummerlab.nodecode import EMPTY

MODEL = jacobian_kummer_ns()
FIB = build_fibration(MODEL)


def ramification_trope(k):
    """The label of the trope C_1k; C_11 is C0."""
    return "C0" if k == 1 else f"C1{k}"


def kodaira_type(comps):
    """The type of components with integral pairings, typed from their Gram
    by `_kodaira_type`, as `build_fibration` types its sub-tables."""
    pairing = _integral_table(*MODEL.space.gram([c.divisor for c in comps]))
    return _kodaira_type(pairing, [c.multiplicity for c in comps])


class TestClassification:
    def test_star_fiber(self):
        comps = [FiberComponent(MODEL.trope_class("C0"), 2)] + [
            FiberComponent(MODEL.node_class(f"E1{k}"), 1) for k in (3, 4, 5, 6)
        ]
        assert kodaira_type(comps) == "I0*"

    def test_two_component_fiber(self):
        fiber_class = FIB.fiber_class
        node = MODEL.node_class("E45")
        first = fiber_class - node
        assert first.norm() == -2
        assert first.dot(node) == 2
        comps = [FiberComponent(first, 1), FiberComponent(node, 1)]
        assert kodaira_type(comps) == "I2"

    def test_single_component_rejected(self):
        with pytest.raises(FibrationError, match="unrecognized"):
            kodaira_type([FiberComponent(MODEL.node_class("E12"), 1)])

    def test_empty_and_non_integral_rejected(self, monkeypatch):
        with pytest.raises(FibrationError, match="unrecognized"):
            _kodaira_type([], [])
        # a table over three times its scale: the curves orthogonal to F pair
        # in thirds
        original = JacobianKummerNS.curve_table.func

        def thirds(self):
            labels, classes, table, scale = original(self)
            return labels, classes, table, 3 * scale

        monkeypatch.setattr(JacobianKummerNS, "curve_table", property(thirds))
        with pytest.raises(FibrationError, match="non-integral"):
            build_fibration(MODEL)

    def test_norm_enforced(self, monkeypatch):
        wrong = [
            FiberComponent(MODEL.space.basis_vector("L"), 1),
            FiberComponent(MODEL.node_class("E12"), 1),
        ]
        with pytest.raises(FibrationError, match="norm -2"):
            kodaira_type(wrong)
        # every star fiber is then centred on a trope of norm 4
        original = JacobianKummerNS.curve_table.func

        def heavy_tropes(self):
            labels, classes, table, scale = original(self)
            table = [row[:] for row in table]
            for k in range(labels.index("C0"), len(labels)):
                table[k][k] = 4 * scale
            return labels, classes, table, scale

        monkeypatch.setattr(JacobianKummerNS, "curve_table", property(heavy_tropes))
        with pytest.raises(FibrationError, match="norm -2"):
            build_fibration(MODEL)

    def test_euler_table(self):
        assert kodaira_euler("smooth") == 0
        assert kodaira_euler("I0*") == 6
        assert kodaira_euler("I2") == 2
        for tag in ("I7", "IV*"):
            with pytest.raises(FibrationError):
                kodaira_euler(tag)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: FiberComponent(MODEL.node_class("E12"), 1.5),
            lambda: FiberComponent(MODEL.node_class("E12"), True),
            lambda: FiberComponent(MODEL.node_class("E12"), Fraction(1)),
            lambda: kodaira_euler(3),
        ],
        ids=["float", "bool", "Fraction", "int-tag"],
    )
    def test_non_int_multiplicity_or_non_ascii_tag_rejected(self, make):
        with pytest.raises(FibrationError):
            make()


class TestJacobianFibration:
    def test_fiber_class_is_isotropic(self):
        assert FIB.fiber_class.norm() == 0

    def test_component_sums(self):
        for fiber in FIB.fibers:
            assert fiber.weighted_sum() == FIB.fiber_class

    @pytest.mark.parametrize("i, j", INDEX_PAIRS)
    def test_component_sums_every_pencil(self, i, j):
        # the build sums only the star fibers; this also sums the others
        fib = build_fibration(MODEL, i, j)
        for fiber in fib.fibers:
            assert fiber.weighted_sum() == fib.fiber_class

    def test_star_fiber_expansion(self):
        # E15 + E16 + 2 C0 + E13 + E14 collapses to L - E0 - E12
        total = (
            MODEL.node_class("E15")
            + MODEL.node_class("E16")
            + 2 * MODEL.trope_class("C0")
            + MODEL.node_class("E13")
            + MODEL.node_class("E14")
        )
        assert total == FIB.fiber_class

    def test_types(self):
        types = [f.kodaira_type for f in FIB.fibers]
        assert types == ["I0*", "I0*"] + ["I2"] * 6

    def test_sections(self):
        assert len(FIB.sections) == 4
        expected = {MODEL.trope_class(f"C1{k}").coords for k in (3, 4, 5, 6)}
        assert {s.coords for s in FIB.sections} == expected
        for s in FIB.sections:
            assert s.dot(FIB.fiber_class) == 1

    def test_euler_sum(self):
        assert FIB.euler == 2 * 6 + 6 * 2 == 24

    def test_empty_fiber_list(self):
        empty = Fibration((1, 2), FIB.fiber_class, (), ())
        assert empty.euler == 0


class TestEvenEightIdentity:
    def test_identity_holds(self):
        assert even_eight_from_fibers(FIB, MODEL)

    def test_multiplicity_one_components(self):
        stars = [f for f in FIB.fibers if f.kodaira_type == "I0*"]
        mult_one = set()
        for fiber in stars:
            mult_one |= {c.coords for c in fiber.multiplicity_one_components()}
        expected = {MODEL.node_class(lab).coords for lab in even_eight(1, 2).labels()}
        assert mult_one == expected

    def test_wrong_trope_breaks_identity(self):
        lhs = MODEL.node_set_sum(even_eight(1, 2))
        f1 = FIB.fibers[0].weighted_sum()
        f2 = FIB.fibers[1].weighted_sum()
        good = f1 + f2 - 2 * (MODEL.trope_class("C0") + MODEL.trope_class("C12"))
        bad = f1 + f2 - 2 * (MODEL.trope_class("C0") + MODEL.trope_class("C13"))
        assert lhs == good
        assert lhs != bad


class TestDoubleCoverTransform:
    def test_twelve_two_component_fibers(self):
        out = transform_double_cover(FIB, even_eight(1, 2), MODEL)
        types = [f.kodaira_type for f in out.fibers]
        assert types.count("I2") == 12
        assert types.count("smooth") == 2
        assert out.euler == 24
        assert len(out.sections) == 4

    def test_star_fibers_become_smooth(self):
        out = transform_double_cover(FIB, even_eight(1, 2), MODEL)
        assert out.fibers[0].kodaira_type == "smooth"
        assert out.fibers[0].euler_number == 0
        assert out.fibers[1].kodaira_type == "smooth"

    def test_empty_branch_rejected(self):
        # an unramified double cover would double every fiber and the Euler
        # sum; a K3 surface has no connected one
        with pytest.raises(FibrationError, match="even eight"):
            transform_double_cover(FIB, EMPTY, MODEL)

    def test_partial_incidence_rejected(self):
        # the (1,3) eight meets both stars of the (1,2) pencil without holding
        # their leaves, and meets every isolated fiber: each fiber is kept
        # once, unsplit, so the count falls below twelve
        out = transform_double_cover(FIB, even_eight(1, 3), MODEL)
        assert sum(1 for f in out.fibers if f.kodaira_type == "I2") < 12
        assert out.fibers == FIB.fibers

    def test_non_even_branch_rejected(self):
        from kummerlab.nodecode import NodeSet

        bad = NodeSet.from_labels(
            ["E0", "E12", "E13", "E14", "E15", "E16", "E23", "E24"]
        )
        with pytest.raises(FibrationError, match="even eight"):
            transform_double_cover(FIB, bad, MODEL)


def transform_by_dot(fib, branch, model):
    """The double-cover transform with incidence from full pairings <c, b>
    against every branch node; a fiber that meets the branch without being a
    star fiber inside it is kept once."""
    branch_vectors = [model.node_class(label) for label in branch.labels()]
    fibers = []
    for fiber in fib.fibers:
        mult_one = fiber.multiplicity_one_components()
        if fiber.kodaira_type == I0_STAR and mult_one and all(c in branch_vectors for c in mult_one):
            fibers.append(Fiber((), SMOOTH))
        elif any(c.divisor.dot(b) != 0 for c in fiber.components for b in branch_vectors):
            fibers.append(fiber)
        else:
            fibers += [fiber, fiber]
    return Fibration(fib.pair, fib.fiber_class, tuple(fibers), fib.sections)


class TestCoordinateIncidence:
    @pytest.mark.parametrize("pair", INDEX_PAIRS)
    def test_against_dot_oracle(self, pair):
        # differential, exhaustive: this pencil against all thirty even eights
        fib = build_fibration(MODEL, *pair)
        accepted = []
        for eight in MODEL.even_eights():
            out = transform_double_cover(fib, eight, MODEL)
            assert out == transform_by_dot(fib, eight, MODEL)
            if out.euler == 24 and sum(1 for f in out.fibers if f.kodaira_type == "I2") == 12:
                accepted.append(eight)
        assert accepted == [even_eight(*pair)]


class TestSweep:
    def test_all_fifteen_pairs(self):
        for i in range(1, 7):
            for j in range(i + 1, 7):
                fib = build_fibration(MODEL, i, j)
                assert fib.pair == (i, j)
                assert fib.fiber_class.norm() == 0
                types = sorted(f.kodaira_type for f in fib.fibers)
                assert types == ["I0*", "I0*"] + ["I2"] * 6
                assert fib.euler == 24
                assert even_eight_from_fibers(fib, MODEL)
                assert all(s.dot(fib.fiber_class) == 1 for s in fib.sections)
                out = transform_double_cover(fib, even_eight(i, j), MODEL)
                assert sum(1 for f in out.fibers if f.kodaira_type == "I2") == 12
                assert out.euler == 24

    def test_bad_pair_rejected(self):
        with pytest.raises(FibrationError):
            build_fibration(MODEL, 3, 3)


class TestInvariants:
    def test_components_norms_and_pairings(self):
        for fiber in FIB.fibers:
            comps = fiber.components
            for c in comps:
                assert c.divisor.norm() == -2
            for a in range(len(comps)):
                for b in range(a + 1, len(comps)):
                    assert comps[a].divisor.dot(comps[b].divisor) >= 0


def hand_sorted_fibration(model, i, j):
    """The (i, j) pencil assembled by hand, as the package built it before the
    fibers were discovered from the curve table: the stars around C1i and C1j
    (C0 for i = 1) with the nodes E_ik resp. E_jk, k outside {i, j}, in pair
    order; one (F - E_ab, E_ab) fiber per pair disjoint from {i, j}, in pair
    order; the trope sections C1k, k outside {i, j}."""
    space = model.space
    stars = {i: [], j: []}
    i2_nodes = []
    for pair, label in zip(INDEX_PAIRS, NODE_LABELS[1:]):
        shared = [k for k in pair if k in stars]
        if not shared:
            i2_nodes.append(model.node_class(label))
        elif len(shared) == 1:
            stars[shared[0]].append(FiberComponent(model.node_class(label), 1))
    fiber_class = space.combination(
        (1, -1, -1),
        (space.basis_vector("L"), space.basis_vector("E0"), model.node_class(node_label(i, j))),
    )
    fibers = []
    for center_index, nodes in stars.items():
        comps = (FiberComponent(model.trope_class(ramification_trope(center_index)), 2), *nodes)
        fiber = Fiber(comps, kodaira_type(comps))
        assert fiber.weighted_sum() == fiber_class
        fibers.append(fiber)
    for node in i2_nodes:
        comps = (FiberComponent(fiber_class - node, 1), FiberComponent(node, 1))
        fibers.append(Fiber(comps, kodaira_type(comps)))
    sections = tuple(model.trope_class(ramification_trope(k)) for k in range(1, 7) if k not in stars)
    return Fibration((i, j), fiber_class, tuple(fibers), sections)


def f_dot(model, i, j):
    """F.X for every curve X of the curve table, F = L - E0 - E_ij, by label."""
    labels, _, table, scale = model.curve_table
    e0, eij = labels.index("E0"), labels.index(node_label(i, j))
    return {
        labels[x]: (table[0][x] - table[e0][x] - table[eij][x]) // scale
        for x in range(1, len(labels))
    }


class TestDiscovery:
    """The pencils read off the curve table against the hand-sorted oracle."""

    @pytest.mark.parametrize("i, j", INDEX_PAIRS)
    def test_matches_hand_sorted_oracle(self, i, j):
        found, oracle = build_fibration(MODEL, i, j), hand_sorted_fibration(MODEL, i, j)
        assert found.fiber_class == oracle.fiber_class
        assert [f.kodaira_type for f in found.fibers] == [f.kodaira_type for f in oracle.fibers]
        for got, want in zip(found.fibers, oracle.fibers):
            assert got.components == want.components  # same components, same order
        assert found.sections == oracle.sections
        assert found == oracle

    @pytest.mark.parametrize("i, j", INDEX_PAIRS)
    def test_two_stars_and_six_isolated_nodes(self, i, j):
        labels, classes, _, _ = MODEL.curve_table
        name = dict(zip(classes, labels))
        fib = build_fibration(MODEL, i, j)
        stars = [
            [(name[c.divisor], c.multiplicity) for c in f.components]
            for f in fib.fibers
            if f.kodaira_type == I0_STAR
        ]
        centre = {k: ramification_trope(k) for k in (i, j)}
        rest = [k for k in range(1, 7) if k not in (i, j)]
        assert stars == [
            [(centre[c], 2)] + [(node_label(c, k), 1) for k in rest] for c in (i, j)
        ]
        isolated = [name[f.components[1].divisor] for f in fib.fibers if f.kodaira_type == "I2"]
        assert isolated == [node_label(a, b) for a, b in INDEX_PAIRS if not {a, b} & {i, j}]
        # the stars and the isolated nodes are all the curves orthogonal to F
        dots = f_dot(MODEL, i, j)
        assert sorted(label for label, d in dots.items() if d == 0) == sorted(
            [label for star in stars for label, _ in star] + isolated
        )

    @pytest.mark.parametrize("i, j", INDEX_PAIRS)
    def test_eight_curves_meet_f_once(self, i, j):
        dots = f_dot(MODEL, i, j)
        once = [label for label, d in dots.items() if d == 1]
        assert len(once) == 8 and all(label.startswith("C") for label in once)
        assert sorted(dots.values()) == [0] * 16 + [1] * 8 + [2] * 8
        # the sections are the four of them that meet E0
        labels, classes, _, _ = MODEL.curve_table
        name = dict(zip(classes, labels))
        sections = [name[s] for s in build_fibration(MODEL, i, j).sections]
        assert sections == [t for t in once if "E0" in trope_support(t)]
        assert len(sections) == 4

    @pytest.mark.parametrize("i, j", INDEX_PAIRS)
    def test_shioda_tate_rank_one(self, i, j):
        # rank NS = 17, minus the hyperbolic plane of F and a section, minus
        # the non-identity components of the singular fibers: 2 * 4 + 6 * 1
        fib = build_fibration(MODEL, i, j)
        trivial = sum(len(f.components) - 1 for f in fib.fibers)
        assert trivial == 14
        assert MODEL.ns.rank - 2 - trivial == 1

    def test_configuration_outside_star_or_isolated_rejected(self, monkeypatch):
        # E34 also meets E35: the two isolated nodes of the (1,2) pencil become
        # a two-curve component, neither a star nor an isolated curve
        original = JacobianKummerNS.curve_table.func

        def joined(self):
            labels, classes, table, scale = original(self)
            table = [row[:] for row in table]
            a, b = labels.index("E34"), labels.index("E35")
            table[a][b] = table[b][a] = scale
            return labels, classes, table, scale

        monkeypatch.setattr(JacobianKummerNS, "curve_table", property(joined))
        with pytest.raises(FibrationError, match="neither a star nor an isolated"):
            build_fibration(MODEL, 1, 2)

    def test_star_that_misses_f_rejected(self, monkeypatch):
        # the table still reads a star around C0 in the (1,2) pencil, but the
        # class behind it is C13's, so the star sums to 2 C13 + E13 + ... + E16
        original = JacobianKummerNS.curve_table.func

        def swapped(self):
            labels, classes, table, scale = original(self)
            classes = list(classes)
            classes[labels.index("C0")] = classes[labels.index("C13")]
            return labels, tuple(classes), table, scale

        monkeypatch.setattr(JacobianKummerNS, "curve_table", property(swapped))
        with pytest.raises(FibrationError, match="star fiber at C0 does not sum"):
            build_fibration(MODEL, 1, 2)

    def test_missing_star_rejected(self, monkeypatch):
        # C12 no longer meets E23 in the table: its leaves drop to three, so
        # E23 is isolated and E24 lies in no star
        original = JacobianKummerNS.curve_table.func

        def cut(self):
            labels, classes, table, scale = original(self)
            table = [row[:] for row in table]
            a, b = labels.index("C12"), labels.index("E23")
            table[a][b] = table[b][a] = 0
            return labels, classes, table, scale

        monkeypatch.setattr(JacobianKummerNS, "curve_table", property(cut))
        with pytest.raises(FibrationError, match="neither a star nor an isolated"):
            build_fibration(MODEL, 1, 2)

    def test_one_star_rejected(self, monkeypatch):
        # C12 meets L once more in the table, so F.C12 = 1: the star at 2 is
        # gone and its four leaves are read as isolated nodes
        original = JacobianKummerNS.curve_table.func

        def lifted(self):
            labels, classes, table, scale = original(self)
            table = [row[:] for row in table]
            c = labels.index("C12")
            table[0][c] = table[c][0] = table[0][c] + scale
            return labels, classes, table, scale

        monkeypatch.setattr(JacobianKummerNS, "curve_table", property(lifted))
        with pytest.raises(FibrationError, match="1 star fibers"):
            build_fibration(MODEL, 1, 2)
