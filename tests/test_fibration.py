import pytest

from kummerlab.fibration import (
    I0_STAR,
    SMOOTH,
    Fiber,
    Fibration,
    FibrationError,
    build_fibration,
    discover_fibers,
    even_eight_from_fibers,
    kodaira_euler,
    transform_double_cover,
)
from kummerlab.kummer_ns import CurveTable, JacobianKummerNS, even_eight, jacobian_kummer_ns, trope_support
from kummerlab.labels import INDEX_PAIRS, NODE_LABELS, TROPE_LABELS, node_label
from kummerlab.nodecode import EMPTY

MODEL = jacobian_kummer_ns()
FIB = build_fibration(MODEL)
TABLE = MODEL.curve_table
ROW = {label: x for x, label in enumerate(TABLE.labels)}


def ramification_trope(k):
    """The label of the trope C_1k; C_11 is C0."""
    return "C0" if k == 1 else f"C1{k}"


def sub_table(labels, fiber_class):
    """The curve table of the labelled curves, and the fiber class's pairings
    with them times the table's scale."""
    classes = tuple(TABLE.classes[ROW[label]] for label in labels)
    t = CurveTable(tuple(labels), classes, *MODEL.space.gram(classes))
    return t, tuple(int(t.scale * fiber_class.dot(c)) for c in classes)


def component_classes(fib, fiber):
    """The fiber's components as (class, multiplicity): row x is the class of
    the curve-table row, ~e is F minus the class of row e."""
    return [
        (TABLE.classes[x] if x >= 0 else fib.fiber_class - TABLE.classes[~x], m)
        for x, m in fiber.components
    ]


def weighted_sum(fib, fiber):
    comps = component_classes(fib, fiber)
    return MODEL.space.combination([m for _, m in comps], [v for v, _ in comps])


def patched_table(monkeypatch, edit):
    """Serve the curve table that `edit` makes from a copy of the model's
    labels, classes, table rows and scale; its masks are derived from it."""
    original = JacobianKummerNS.curve_table.func

    def patched(self):
        t = original(self)
        labels, classes, table, scale = edit(list(t.labels), list(t.classes), [row[:] for row in t.table], t.scale)
        return CurveTable(tuple(labels), tuple(classes), table, scale)

    monkeypatch.setattr(JacobianKummerNS, "curve_table", property(patched))


def keeping(keep):
    """A table edit keeping the rows and columns whose labels pass `keep`."""

    def edit(labels, classes, table, scale):
        rows = [a for a, label in enumerate(labels) if keep(label)]
        return [labels[a] for a in rows], [classes[a] for a in rows], [[table[a][b] for b in rows] for a in rows], scale

    return edit


class TestClassification:
    def test_star_fiber(self):
        # a trope meeting four nodes orthogonal to F is a star around it
        t, f = sub_table(["C0", "E13", "E14", "E15", "E16"], FIB.fiber_class)
        stars, pairs, sections = discover_fibers(t, f, 0)
        assert stars == (Fiber(((0, 2), (1, 1), (2, 1), (3, 1), (4, 1)), I0_STAR),)
        assert pairs == sections == ()

    def test_two_component_fiber(self):
        fiber_class = FIB.fiber_class
        node = MODEL.node_class("E45")
        first = fiber_class - node
        assert first.norm() == -2
        assert first.dot(node) == 2
        # an isolated curve is completed by F minus it; C13 meets F once
        t, f = sub_table(["E45", "C13"], fiber_class)
        assert discover_fibers(t, f, 0) == ((), (Fiber(((~0, 1), (0, 1)), "I2"),), (1,))

    def test_empty_and_non_integral_rejected(self, monkeypatch):
        # an empty table has no fibers, so a pencil on L, E0 and E12 alone has
        # no star
        assert discover_fibers(CurveTable((), (), [], 1), (), 0) == ((), (), ())
        with monkeypatch.context() as patch:
            patched_table(patch, keeping(lambda label: label in ("L", "E0", "E12")))
            with pytest.raises(FibrationError, match="0 star fibers"):
                build_fibration(MODEL)
        # a table over three times its scale: the curves orthogonal to F pair
        # in thirds
        patched_table(monkeypatch, lambda labels, classes, table, scale: (labels, classes, table, 3 * scale))
        with pytest.raises(FibrationError, match="non-integral"):
            build_fibration(MODEL)

    def test_norm_enforced(self, monkeypatch):
        # an isolated node of norm -4: F - E34 and E34 would not be a fiber
        def heavy_e34(labels, classes, table, scale):
            k = labels.index("E34")
            table[k][k] = -4 * scale
            return labels, classes, table, scale

        with monkeypatch.context() as patch:
            patched_table(patch, heavy_e34)
            with pytest.raises(FibrationError, match="norm -2, not E34"):
                build_fibration(MODEL)

        # every star fiber is then centred on a trope of norm 4
        def heavy_tropes(labels, classes, table, scale):
            for k in range(labels.index("C0"), len(labels)):
                table[k][k] = 4 * scale
            return labels, classes, table, scale

        patched_table(monkeypatch, heavy_tropes)
        with pytest.raises(FibrationError, match="norm -2"):
            build_fibration(MODEL)

    def test_isotropic_fiber_class_enforced(self):
        # F^2 = 0 is the norm -2 of every F - E: a class of square 1 is refused
        with pytest.raises(FibrationError, match="square 1, not 0"):
            discover_fibers(TABLE, FIB.pairings, TABLE.scale)

    def test_centre_meets_each_leaf_once(self, monkeypatch):
        # C0 meets E13 twice: the dual graph is still a star, its shape is not
        def doubled(labels, classes, table, scale):
            a, b = labels.index("C0"), labels.index("E13")
            table[a][b] = table[b][a] = 2 * scale
            return labels, classes, table, scale

        patched_table(monkeypatch, doubled)
        with pytest.raises(FibrationError, match="centre C0 meets a leaf other than once"):
            build_fibration(MODEL)

    def test_square_zero_curve_is_skipped(self):
        # a curve of square 0 orthogonal to F is a fiber of class F, here F
        # itself: it is neither a component nor isolated
        labels = ("F", "E34", "C13")
        classes = (FIB.fiber_class, MODEL.node_class("E34"), MODEL.trope_class("C13"))
        t = CurveTable(labels, classes, *MODEL.space.gram(classes))
        stars, pairs, sections = discover_fibers(t, t.table[0], t.table[0][0])
        assert stars == () and pairs == (Fiber(((~1, 1), (1, 1)), "I2"),) and sections == (2,)

    def test_euler_table(self):
        assert kodaira_euler("smooth") == 0
        assert kodaira_euler("I0*") == 6
        assert kodaira_euler("I2") == 2
        for tag in ("I7", "IV*"):
            with pytest.raises(FibrationError):
                kodaira_euler(tag)

    @pytest.mark.parametrize("make", [lambda: kodaira_euler(3)], ids=["int-tag"])
    def test_non_int_multiplicity_or_non_ascii_tag_rejected(self, make):
        with pytest.raises(FibrationError):
            make()


class TestJacobianFibration:
    def test_fiber_class_is_isotropic(self):
        assert FIB.fiber_class.norm() == 0

    def test_component_sums(self):
        for fiber in FIB.fibers:
            assert weighted_sum(FIB, fiber) == FIB.fiber_class

    @pytest.mark.parametrize("i, j", INDEX_PAIRS)
    def test_component_sums_every_pencil(self, i, j):
        # the build compares only the star fibers with F, and by pairings;
        # this sums the classes of every fiber
        fib = build_fibration(MODEL, i, j)
        for fiber in fib.fibers:
            assert weighted_sum(fib, fiber) == fib.fiber_class

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
        assert [TABLE.labels[s] for s in FIB.sections] == [f"C1{k}" for k in (3, 4, 5, 6)]
        for s in FIB.sections:
            assert TABLE.classes[s].dot(FIB.fiber_class) == 1

    def test_pairings_are_those_of_the_fiber_class(self):
        assert FIB.pairings == tuple(TABLE.scale * FIB.fiber_class.dot(c) for c in TABLE.classes)

    def test_euler_sum(self):
        assert FIB.euler == 2 * 6 + 6 * 2 == 24

    def test_empty_fiber_list(self):
        empty = Fibration((1, 2), FIB.fiber_class, (), (), ())
        assert empty.euler == 0


def node_bit(divisor):
    """1 << k if the divisor is node k, the basis vector e_(k+1), else 0."""
    nums = divisor.nums
    if divisor.den != 1 or nums.count(0) != len(nums) - 1 or 1 not in nums[1:]:
        return 0
    return 1 << nums.index(1) - 1


def even_eight_by_vectors(fib, model):
    """The even-eight identity as the package decided it from vectors: the
    node sum of the pair's eight equals 2F - 2*(central tropes), summed by
    `combination`, and the multiplicity-one components of the two stars are
    the eight nodes, each read off its coordinates by `node_bit`."""
    eight = even_eight(*fib.pair)
    stars = [component_classes(fib, f) for f in fib.fibers if f.kodaira_type == I0_STAR]
    centers = [v for comps in stars for v, m in comps if m == 2]
    if len(stars) != 2 or len(centers) != 2:
        return False
    bits = [node_bit(v) for comps in stars for v, m in comps if m == 1]
    identity_rhs = model.space.combination((2, -2, -2), (fib.fiber_class, *centers))
    nodes_ok = len(bits) == len(set(bits)) == 8 and sum(bits) == eight.bits
    return model.node_set_sum(eight) == identity_rhs and nodes_ok


def recentred(fib, centre_label):
    """The pencil with its first star's centre moved to another curve row; the
    leaves, and so the eight by bits, stay."""
    first, *rest = fib.fibers
    comps = tuple((ROW[centre_label] if m == 2 else x, m) for x, m in first.components)
    return Fibration(fib.pair, fib.fiber_class, (Fiber(comps, I0_STAR), *rest), fib.sections, fib.pairings)


class TestEvenEightIdentity:
    def test_identity_holds(self):
        assert even_eight_from_fibers(FIB, MODEL)

    def test_multiplicity_one_components(self):
        stars = [f for f in FIB.fibers if f.kodaira_type == "I0*"]
        mult_one = {TABLE.labels[x] for fiber in stars for x, m in fiber.components if m == 1}
        assert mult_one == set(even_eight(1, 2).labels())

    def test_wrong_trope_breaks_identity(self):
        lhs = MODEL.node_set_sum(even_eight(1, 2))
        f1 = weighted_sum(FIB, FIB.fibers[0])
        f2 = weighted_sum(FIB, FIB.fibers[1])
        good = f1 + f2 - 2 * (MODEL.trope_class("C0") + MODEL.trope_class("C12"))
        bad = f1 + f2 - 2 * (MODEL.trope_class("C0") + MODEL.trope_class("C13"))
        assert lhs == good
        assert lhs != bad

    @pytest.mark.parametrize("i, j", INDEX_PAIRS)
    def test_against_vector_oracle(self, i, j):
        # differential: the column-by-column identity against the vector one,
        # with the pencil's own eight, with each of the fourteen wrong eights
        # (the same fibers under another pair) and with a star recentred on a
        # trope, where the bits still match and only the sum fails
        fib = build_fibration(MODEL, i, j)
        for pair in INDEX_PAIRS:
            moved = Fibration(pair, fib.fiber_class, fib.fibers, fib.sections, fib.pairings)
            assert even_eight_from_fibers(moved, MODEL) is even_eight_by_vectors(moved, MODEL) is (pair == (i, j))
        centres = {TABLE.labels[f.components[0][0]] for f in fib.fibers[:2]}
        wrong = recentred(fib, next(label for label in TROPE_LABELS if label not in centres))
        assert even_eight_from_fibers(wrong, MODEL) is even_eight_by_vectors(wrong, MODEL) is False


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


def cover_fibers(fib, verdicts):
    """The fibers upstairs when each fiber of the pencil is made smooth, kept
    once or doubled, as the verdicts say."""
    fibers = []
    for fiber, verdict in zip(fib.fibers, verdicts, strict=True):
        fibers += {"smooth": [Fiber((), SMOOTH)], "kept": [fiber], "doubled": [fiber, fiber]}[verdict]
    return tuple(fibers)


def verdicts_by_dot(fib, branch, model):
    """Each fiber's fate on the double cover with incidence from full pairings
    <c, b> against every branch node; a fiber that meets the branch without
    being a star fiber inside it is kept once."""
    branch_vectors = [model.node_class(label) for label in branch.labels()]
    verdicts = []
    for fiber in fib.fibers:
        comps = component_classes(fib, fiber)
        mult_one = [v for v, m in comps if m == 1]
        if fiber.kodaira_type == I0_STAR and mult_one and all(v in branch_vectors for v in mult_one):
            verdicts.append("smooth")
        elif any(v.dot(b) != 0 for v, _ in comps for b in branch_vectors):
            verdicts.append("kept")
        else:
            verdicts.append("doubled")
    return verdicts


def verdicts_by_coordinates(fib, branch, model):
    """Each fiber's fate on the double cover as the package decided it from
    vectors: which node a component is by `node_bit`, and whether it meets the
    branch from its coordinates at the branch's mask bits (a node is a basis
    vector e_k of the diagonal form, so <c, e_k> = diag[k] * c_k)."""
    coords = [k for k in range(1, model.space.dim) if branch.bits >> k - 1 & 1]  # node k - 1 is e_k
    verdicts = []
    for fiber in fib.fibers:
        comps = component_classes(fib, fiber)
        mult_one = [v for v, m in comps if m == 1]
        if fiber.kodaira_type == I0_STAR and mult_one and all(node_bit(v) & branch.bits for v in mult_one):
            verdicts.append("smooth")
        elif any(v.nums[k] for v, _ in comps for k in coords):
            verdicts.append("kept")
        else:
            verdicts.append("doubled")
    return verdicts


class TestCoordinateIncidence:
    @pytest.mark.parametrize("pair", INDEX_PAIRS)
    def test_against_dot_oracle(self, pair):
        # differential, exhaustive: this pencil against all thirty even eights
        fib = build_fibration(MODEL, *pair)
        accepted = []
        for eight in MODEL.even_eights():
            out = transform_double_cover(fib, eight, MODEL)
            assert out.fibers == cover_fibers(fib, verdicts_by_dot(fib, eight, MODEL))
            assert (out.pair, out.fiber_class, out.sections, out.pairings) == (
                fib.pair, fib.fiber_class, fib.sections, fib.pairings
            )
            if out.euler == 24 and sum(1 for f in out.fibers if f.kodaira_type == "I2") == 12:
                accepted.append(eight)
        assert accepted == [even_eight(*pair)]

    @pytest.mark.parametrize("i, j", INDEX_PAIRS)
    def test_against_coordinate_oracle(self, i, j):
        # differential, 15 x 30 cases: the table-read transform against the
        # coordinate read it replaced, fiber by fiber
        fib = build_fibration(MODEL, i, j)
        eights = MODEL.even_eights()
        assert len(eights) == 30
        for eight in eights:
            verdicts = verdicts_by_coordinates(fib, eight, MODEL)
            assert transform_double_cover(fib, eight, MODEL).fibers == cover_fibers(fib, verdicts), (
                eight.labels(), verdicts
            )


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
                assert all(TABLE.classes[s].dot(fib.fiber_class) == 1 for s in fib.sections)
                out = transform_double_cover(fib, even_eight(i, j), MODEL)
                assert sum(1 for f in out.fibers if f.kodaira_type == "I2") == 12
                assert out.euler == 24

    def test_bad_pair_rejected(self):
        with pytest.raises(FibrationError):
            build_fibration(MODEL, 3, 3)


class TestInvariants:
    def test_components_norms_and_pairings(self):
        for fiber in FIB.fibers:
            comps = [v for v, _ in component_classes(FIB, fiber)]
            for c in comps:
                assert c.norm() == -2
            for a in range(len(comps)):
                for b in range(a + 1, len(comps)):
                    assert comps[a].dot(comps[b]) >= 0


def hand_sorted_fibration(model, i, j):
    """The (i, j) pencil assembled by hand, as the package built it before the
    fibers were discovered from the curve table: the stars around C1i and C1j
    (C0 for i = 1) with the nodes E_ik resp. E_jk, k outside {i, j}, in pair
    order; one (F - E_ab, E_ab) fiber per pair disjoint from {i, j}, in pair
    order; the trope sections C1k, k outside {i, j}.  Each fiber's type is
    declared, and its norms, centre-leaf pairings, (F - E).E = 2 and sum are
    checked from its classes; the components are then written as the rows of
    their labels, and F.X is paired from vectors."""
    space = model.space
    row = {label: x for x, label in enumerate(model.curve_table.labels)}
    stars = {i: [], j: []}
    i2_nodes = []
    for pair, label in zip(INDEX_PAIRS, NODE_LABELS[1:]):
        shared = [k for k in pair if k in stars]
        if not shared:
            i2_nodes.append(label)
        elif len(shared) == 1:
            stars[shared[0]].append(label)
    fiber_class = space.combination(
        (1, -1, -1),
        (space.basis_vector("L"), space.basis_vector("E0"), model.node_class(node_label(i, j))),
    )
    fibers = []
    for center_index, nodes in stars.items():
        centre = ramification_trope(center_index)
        comps = [(model.trope_class(centre), 2)] + [(model.node_class(label), 1) for label in nodes]
        assert space.combination([m for _, m in comps], [v for v, _ in comps]) == fiber_class
        assert all(v.norm() == -2 for v, _ in comps)
        assert all(comps[0][0].dot(v) == 1 for v, _ in comps[1:])
        fibers.append(Fiber(((row[centre], 2), *[(row[label], 1) for label in nodes]), I0_STAR))
    for label in i2_nodes:
        node = model.node_class(label)
        assert node.norm() == (fiber_class - node).norm() == -2 and (fiber_class - node).dot(node) == 2
        fibers.append(Fiber(((~row[label], 1), (row[label], 1)), "I2"))
    sections = tuple(row[ramification_trope(k)] for k in range(1, 7) if k not in stars)
    pairings = tuple(model.curve_table.scale * fiber_class.dot(c) for c in model.curve_table.classes)
    return Fibration((i, j), fiber_class, tuple(fibers), sections, pairings)


def f_dot(model, i, j):
    """F.X for every curve X of the curve table, F = L - E0 - E_ij, by label."""
    t = model.curve_table
    e0, eij = t.labels.index("E0"), t.labels.index(node_label(i, j))
    return {
        t.labels[x]: (t.table[0][x] - t.table[e0][x] - t.table[eij][x]) // t.scale
        for x in range(1, len(t.labels))
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
        name = TABLE.labels
        fib = build_fibration(MODEL, i, j)
        stars = [[(name[x], m) for x, m in f.components] for f in fib.fibers if f.kodaira_type == I0_STAR]
        centre = {k: ramification_trope(k) for k in (i, j)}
        rest = [k for k in range(1, 7) if k not in (i, j)]
        assert stars == [
            [(centre[c], 2)] + [(node_label(c, k), 1) for k in rest] for c in (i, j)
        ]
        isolated = [name[f.components[1][0]] for f in fib.fibers if f.kodaira_type == "I2"]
        # each isolated fiber is completed by F minus its node
        assert all(f.components[0] == (~f.components[1][0], 1) for f in fib.fibers if f.kodaira_type == "I2")
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
        sections = [TABLE.labels[s] for s in build_fibration(MODEL, i, j).sections]
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

    def test_dropped_isolated_node_leaves_one_fiber_fewer(self, monkeypatch):
        # the engine reads whatever curves the table holds: without E56 the
        # (1,2) pencil has five isolated fibers, not six, and nothing raises
        def found():
            t = MODEL.curve_table
            e0, e12 = t.labels.index("E0"), t.labels.index("E12")
            f = [a - b - c for a, b, c in zip(t.table[0], t.table[e0], t.table[e12])]
            stars, pairs, sections = discover_fibers(t, f, f[0] - f[e0] - f[e12])
            return len(stars), [t.labels[fiber.components[1][0]] for fiber in pairs], len(sections)

        assert found() == (2, ["E34", "E35", "E36", "E45", "E46", "E56"], 8)
        patched_table(monkeypatch, keeping(lambda label: label != "E56"))
        assert found() == (2, ["E34", "E35", "E36", "E45", "E46"], 8)

    def test_configuration_outside_star_or_isolated_rejected(self, monkeypatch):
        # E34 also meets E35: the two isolated nodes of the (1,2) pencil become
        # a two-curve component, neither a star nor an isolated curve
        def joined(labels, classes, table, scale):
            a, b = labels.index("E34"), labels.index("E35")
            table[a][b] = table[b][a] = scale
            return labels, classes, table, scale

        patched_table(monkeypatch, joined)
        with pytest.raises(FibrationError, match="neither a star nor an isolated"):
            build_fibration(MODEL, 1, 2)

    def test_star_that_misses_f_rejected(self, monkeypatch):
        # C0 meets C23 once in the table: C23 is not orthogonal to F, so the
        # dual graph still reads a star around C0 in the (1,2) pencil, but the
        # star pairs 2 with C23 more than F does
        def bent(labels, classes, table, scale):
            a, b = labels.index("C0"), labels.index("C23")
            table[a][b] = table[b][a] = table[a][b] + scale
            return labels, classes, table, scale

        patched_table(monkeypatch, bent)
        with pytest.raises(FibrationError, match="star fiber at C0 does not sum"):
            build_fibration(MODEL, 1, 2)

    def test_classes_are_not_read_past_the_fiber_class(self, monkeypatch):
        # the pencil is read off the table: swapping the class behind C0 for
        # C13's leaves the (1,2) pencil as it was, F = L - E0 - E12 included
        def swapped(labels, classes, table, scale):
            classes[labels.index("C0")] = classes[labels.index("C13")]
            return labels, classes, table, scale

        patched_table(monkeypatch, swapped)
        assert build_fibration(MODEL, 1, 2) == FIB

    def test_missing_star_rejected(self, monkeypatch):
        # C12 no longer meets E23 in the table: its leaves drop to three, so
        # E23 is isolated and E24 lies in no star
        def cut(labels, classes, table, scale):
            a, b = labels.index("C12"), labels.index("E23")
            table[a][b] = table[b][a] = 0
            return labels, classes, table, scale

        patched_table(monkeypatch, cut)
        with pytest.raises(FibrationError, match="neither a star nor an isolated"):
            build_fibration(MODEL, 1, 2)

    def test_one_star_rejected(self, monkeypatch):
        # C12 meets none of its four leaves in the table: the star at 2 is
        # gone, and C12 and its leaves are read as isolated curves.  (Raising
        # L.C12 instead, so that F.C12 = 1, is caught first: the C0 star then
        # pairs with C12 other than F does.)
        def cut(labels, classes, table, scale):
            c = labels.index("C12")
            for k in range(3, 7):
                e = labels.index(node_label(2, k))
                table[c][e] = table[e][c] = 0
            return labels, classes, table, scale

        patched_table(monkeypatch, cut)
        with pytest.raises(FibrationError, match="1 star fibers"):
            build_fibration(MODEL, 1, 2)


class TestCurveTableMasks:
    """The masks that come with the curve table, against its entries."""

    def test_masks_match_the_table(self):
        t = TABLE
        for a, label in enumerate(t.labels):
            assert t.node_bits[a] == (1 << NODE_LABELS.index(label) if label in NODE_LABELS else 0)
            for b, p in enumerate(t.table[a]):
                assert (t.meets[a] >> b & 1) == (p != 0)
                assert (t.fractional[a] >> b & 1) == (p % t.scale != 0)
        # nodes and tropes pair in integers; L.C = 2 for every trope C
        assert not any(t.fractional)

    def test_node_bits_follow_labels(self, monkeypatch):
        # E56 dropped: the tropes after it move up a row, and its bit is gone
        patched_table(monkeypatch, keeping(lambda label: label != "E56"))
        t = MODEL.curve_table
        assert sum(t.node_bits) == (1 << 16) - 1 - (1 << NODE_LABELS.index("E56"))
        assert t.node_bits[t.labels.index("E46")] == 1 << NODE_LABELS.index("E46")
        assert t.meets[t.labels.index("C0")] >> len(t.labels) == 0

    def test_pencils_follow_labels_not_rows(self, monkeypatch):
        # the sixteen node rows in reverse order: each pencil, its eight and
        # its cover are the same, read by label
        def described(fib, t):
            def name(x):
                return t.labels[x] if x >= 0 else "F-" + t.labels[~x]

            fibers = sorted((f.kodaira_type, sorted((name(x), m) for x, m in f.components)) for f in fib.fibers)
            pairings = {t.labels[x]: p for x, p in enumerate(fib.pairings)}
            cover = transform_double_cover(fib, even_eight(*fib.pair), MODEL)
            return fibers, sorted(name(x) for x in fib.sections), pairings, even_eight_from_fibers(fib, MODEL), cover.euler

        def reversed_nodes(labels, classes, table, scale):
            order = [0, *range(16, 0, -1), *range(17, len(labels))]
            return (
                [labels[a] for a in order], [classes[a] for a in order],
                [[table[a][b] for b in order] for a in order], scale,
            )

        expected = {pair: described(build_fibration(MODEL, *pair), TABLE) for pair in INDEX_PAIRS}
        assert all(e[3] and e[4] == 24 for e in expected.values())
        patched_table(monkeypatch, reversed_nodes)
        t = MODEL.curve_table
        assert t.labels[1] == "E56"
        for pair in INDEX_PAIRS:
            assert described(build_fibration(MODEL, *pair), t) == expected[pair]
