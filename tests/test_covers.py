from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from kummerlab import covers
from kummerlab.covers import (
    CONIC_SPLIT,
    DIAGONALS,
    QUARTIC_LINES,
    QUARTIC_SPLIT,
    CoverError,
    SurfaceModel,
    blowup,
    blowup_quartic_points,
    build_blown_cover,
    build_final_cover,
    build_quartic_cover,
    curve_table_T,
    double_cover,
    noether_chi,
    projective_plane,
    sextic_incidence,
    sixteen_curves_on_X,
    sixteen_defects,
    weak_del_pezzo_defects,
)
from kummerlab.fibration import I0_STAR, SMOOTH, build_fibration, discover_fibers, transform_double_cover
from kummerlab.kummer_ns import CurveTable, even_eight, jacobian_kummer_ns
from kummerlab.labels import INDEX_PAIRS
from kummerlab.lattice import QuadraticSpace, RationalVector, SublatticeModel
from kummerlab.nodecode import NodeSet, code_from_even_sets, f2_basis, f2_span, weight_enumerator

# the pieces of the three diagonals on the quartic cover, in table order
DIAGONAL_PIECES = [piece for m in DIAGONALS for piece in QUARTIC_SPLIT[m][:2]]


def zh(space):
    """The lattice ZH in a one-label space."""
    return SublatticeModel(space, [space.basis_vector("H")])


def blowup_stages(diagonals=tuple(DIAGONALS)):
    """The plane tracking H, the six lines, W and the given diagonals, then
    each of its six blowups in turn, built by hand."""
    s = projective_plane({"H": 1} | {f"l{i}": 1 for i in range(1, 7)} | {"W": 2} | dict.fromkeys(diagonals, 1))
    stages = [s]
    for g in G_LABELS:
        stages.append(s := blowup(s, {g: (f"l{g[1]}", f"l{g[2]}", *(m for m in diagonals if g in DIAGONALS[m]))}))
    return stages


class TestPlaneConfig:
    """The six-line configuration, read from the six-point blowup; the oracle
    is one double point per index pair, the quartic lines being l3..l6."""

    def test_incidence_counts(self):
        inc = sextic_incidence()
        assert inc["double_points"] == len(INDEX_PAIRS) == 15
        assert inc["points_per_line"] == [
            sum(1 for pair in INDEX_PAIRS if i in pair) for i in range(1, 7)
        ]
        assert inc["quartic_singular_points"] == sum(1 for a, _ in INDEX_PAIRS if a >= 3) == 6
        assert inc["degrees"] == {"sextic": 6, "quartic": 4, "residual_conic": 2}


class TestBlowup:
    def test_plane_invariants(self):
        s = projective_plane({"l1": 1})
        assert (s.euler, s.k_squared) == (3, 9)
        assert noether_chi(s) == 1
        assert s.canonical == -3 * s.pic.basis_vector("H")

    def test_six_point_blowup(self):
        s = blowup_quartic_points()
        assert (s.euler, s.k_squared) == (9, 3)

    def test_strict_transform_of_quartic_line(self):
        s = blowup_quartic_points()
        # each of l3..l6 passes through three of the six blown points
        for i in (3, 4, 5, 6):
            assert s.pairing(f"l{i}", f"l{i}") == -2
        assert s.pairing("l1", "l1") == 1
        assert s.pairing("W", "W") == 4

    def test_exceptional_class(self):
        s = projective_plane({"c": 2})
        t = blowup(s, {"E": ("c",)})
        assert (t.euler, t.k_squared) == (4, 8)
        assert t.pairing("E", "E") == -1
        assert t.pairing("c", "c") == 3
        assert t.canonical.coords[t.canonical.space.index("E")] == 1

    def test_noether_line_under_blowups(self):
        s = projective_plane({"l1": 1})
        assert s.k_squared + s.euler == 12
        s = blowup_quartic_points()
        assert s.k_squared + s.euler == 12

    def test_unknown_curve_rejected(self):
        s = projective_plane({"c": 2})
        with pytest.raises(CoverError):
            blowup(s, {"E": ("missing",)})

    def test_exceptional_named_like_a_tracked_curve_rejected(self):
        # blowing up with the conic's name would replace the conic: W.W = -1, not 4
        s = projective_plane({"l1": 1, "l2": 1, "W": 2})
        with pytest.raises(CoverError, match="exceptional curve 'W' is named like a tracked curve"):
            blowup(s, {"W": ("l1", "l2")})

    def test_through_curve_tracked_on_the_base(self):
        # a point on an exceptional curve, infinitely near, takes a second
        # call: a name added in the same call is not tracked on the base
        s = projective_plane({"c": 2})
        with pytest.raises(CoverError, match="no tracked curve named 'E1'"):
            blowup(s, {"E1": ("c",), "E2": ("E1",)})
        t = blowup(blowup(s, {"E1": ("c",)}), {"E2": ("E1",)})
        assert (t.pairing("E1", "E1"), t.pairing("E1", "E2"), t.k_squared) == (-2, 1, 7)

    @staticmethod
    def assert_same_surface(s, t):
        assert (s.curves, s.k_row, s.k_squared, s.euler) == (t.curves, t.k_row, t.k_squared, t.euler)
        assert (s.table.labels, s.table.table, s.table.scale) == (t.table.labels, t.table.table, t.table.scale)
        assert s.lattice.same_lattice(t.lattice)

    def test_one_step_equals_one_point_at_a_time(self):
        self.assert_same_surface(blowup_stages()[-1], blowup_quartic_points())
        t = build_quartic_cover()
        n1 = blowup(t, {"N1": ("l1", "l2")})
        self.assert_same_surface(blowup(n1, {"N2": ("l1", "l2")}), build_blown_cover())

    def test_cold_tower_builds_five_surfaces(self, monkeypatch):
        tower = (blowup_quartic_points, build_quartic_cover, build_blown_cover, build_final_cover)
        built, init = [], SurfaceModel.__init__

        def counted(self, *args):
            built.append(1)
            init(self, *args)

        for build in tower:
            build.cache_clear()
        monkeypatch.setattr(SurfaceModel, "__init__", counted)
        try:
            build_final_cover()
        finally:
            for build in tower:
                build.cache_clear()
        # the plane, the six-point surface, T, the blown-up T and X
        assert len(built) == 5


class TestDoubleCover:
    def test_quartic_cover_numbers(self):
        t = build_quartic_cover()
        assert t.euler == 10
        assert t.k_squared == 2
        assert t.pairing("l1", "l1") == 2
        assert t.canonical == -1 * t.pic.basis_vector("H")
        assert noether_chi(t) == 1

    def test_branch_euler_number(self):
        # e(B) = 2e - e(T) is derived by adjunction: each quartic line is a
        # (-2)-curve with K.l = 0, so e(l) = 2, and the four make 8
        base = blowup_quartic_points()
        assert 2 * base.euler - build_quartic_cover().euler == 8
        for i in QUARTIC_LINES:
            line = base.curves[f"l{i}"]
            assert (line.dot(line), base.canonical.dot(line)) == (-2, 0)

    def test_pullback_doubles_pairings(self):
        base = blowup_quartic_points()
        t = build_quartic_cover()
        for a, b in (("l1", "l2"), ("l1", "l1"), ("l3", "l4")):
            assert t.pairing(a, b) == 2 * base.pairing(a, b)
        # the conic's pieces sum to its pullback, which doubles its pairings
        w, l1 = t.curves["W1"] + t.curves["W2"], t.curves["l1"]
        assert t.pic.inner(w, w) == 2 * base.pairing("W", "W")
        assert t.pic.inner(l1, w) == 2 * base.pairing("l1", "W")
        assert t.curves["W1"] - t.curves["W2"] == 2 * t.pic.basis_vector("A")

    def test_negating_the_anti_invariant_swaps_the_pieces(self):
        t = build_quartic_cover()

        def negate_a(v):
            return RationalVector(t.pic, v.nums[:-1] + (-v.nums[-1],), v.den)

        assert t.pic.labels[-1] == "A" and t.pic.diag[-1] == -2
        pairs = [entry[:2] for entry in QUARTIC_SPLIT.values()]
        for plus, minus in pairs:
            assert negate_a(t.curves[plus]) == t.curves[minus] and negate_a(t.curves[minus]) == t.curves[plus]
        pieces = {piece for pair in pairs for piece in pair}
        assert all(negate_a(t.curves[name]) == t.curves[name] for name in t.curves if name not in pieces)

    def test_shared_label_added_once(self):
        s = projective_plane({"a": 1, "b": 1})
        split = {"a": ("a+", "a-", 1, "d", -2), "b": ("b+", "b-", 1, "d", -2)}
        cover = double_cover(s, (), split)
        assert cover.pic.labels == ("H", "d") and cover.pic.diag == (2, -2)
        assert list(cover.curves) == ["a+", "a-", "b+", "b-"]
        # (2 -/+ 2) / 4: the pullbacks pair to 2, d with itself to -2
        assert cover.pairing("a+", "b+") == 0 and cover.pairing("a+", "b-") == 1

    def test_split_label_with_two_squares_rejected(self):
        s = projective_plane({"a": 1, "b": 1})
        split = {"a": ("a+", "a-", 1, "d", -2), "b": ("b+", "b-", 1, "d", -4)}
        with pytest.raises(CoverError, match="squares -2 and -4"):
            double_cover(s, (), split)

    def test_piece_named_like_another_tracked_curve_rejected(self):
        # a piece named l1 would replace the branch-free line l1: l1.l1 = 0, not 2
        s = projective_plane({"l1": 1, "W": 2})
        with pytest.raises(CoverError, match="split piece 'l1' of W is named like another curve or piece"):
            double_cover(s, (), {"W": ("l1", "W-", 1, "d", -8)})

    def test_piece_named_like_another_piece_rejected(self):
        s = projective_plane({"a": 1, "b": 1})
        with pytest.raises(CoverError, match="split piece 'p' of a is named like another curve or piece"):
            double_cover(s, (), {"a": ("p", "a-", 1, "d", -2), "b": ("p", "b-", 1, "d", -2)})
        with pytest.raises(CoverError, match="split piece 'p' of a"):
            double_cover(s, (), {"a": ("p", "p", 1, "d", -2)})

    def test_piece_may_take_its_parents_name(self):
        s = projective_plane({"a": 1, "b": 1})
        cover = double_cover(s, (), {"a": ("a", "a-", 1, "d", -2)})
        assert list(cover.curves) == ["a", "a-", "b"]
        assert cover.pairing("a", "a-") == 1 and cover.pairing("b", "b") == 2

    def test_split_of_untracked_curve_rejected(self):
        s = projective_plane({"a": 1})
        with pytest.raises(CoverError, match="no tracked curve named 'b'"):
            double_cover(s, (), {"b": ("b+", "b-", 1, "d", -2)})

    def test_split_along_a_multiple_of_a_label(self):
        # the label's square is that of the class a; a piece is (p*C +/- k a)/2
        s = projective_plane({"c": 2})
        cover = double_cover(s, (), {"c": ("c+", "c-", 2, "a", -2)})
        assert cover.curves["c+"] - cover.curves["c-"] == 2 * cover.pic.basis_vector("a")
        assert cover.pairing("c+", "c+") == (8 - 8) // 4 and cover.pairing("c+", "c-") == (8 + 8) // 4

    def test_split_of_a_branch_component_rejected(self):
        # l1's preimage is the ramification curve, which does not split
        with pytest.raises(CoverError, match="branch component l1 cannot split"):
            double_cover(build_blown_cover(), ("l1", "l2"), {"l1": ("a", "b", 1, "dd", -4)} | CONIC_SPLIT)

    def test_empty_branch_doubles(self):
        s = projective_plane({"c": 2})
        doubled = double_cover(s, (), {})
        assert doubled.euler == 2 * s.euler
        assert doubled.k_squared == 2 * s.k_squared

    @pytest.mark.parametrize("degree, numbers", [(2, (4, 8, 1)), (4, (10, 2, 1)), (6, (24, 0, 2))])
    def test_double_plane_along_one_smooth_curve(self, degree, numbers):
        # a conic gives P1 x P1, a quartic the del Pezzo surface of degree
        # two and a sextic a K3 surface: e(B) = -(d^2 - 3d) by adjunction
        s = projective_plane({"c": degree})
        cover = double_cover(s, ("c",), {})
        assert (cover.euler, cover.k_squared, noether_chi(cover)) == numbers
        assert 2 * s.euler - cover.euler == -(degree * degree - 3 * degree)

    def test_odd_branch_rejected(self):
        with pytest.raises(CoverError, match="2-divisible"):
            double_cover(projective_plane({"c": 3}), ("c",), {})
        with pytest.raises(CoverError, match="2-divisible"):
            double_cover(blowup_quartic_points(), ("l1",), {})

    def test_two_divisibility_is_lattice_membership(self):
        # on a plane whose lattice is 2ZH, the conic 2H has integral half H,
        # which is not in the lattice
        h = QuadraticSpace(("H",), [1]).basis_vector("H")
        s = SurfaceModel(3, SublatticeModel(h.space, [2 * h]), -3 * h, {"c": 2 * h})
        with pytest.raises(CoverError, match="branch not 2-divisible in the Picard lattice"):
            double_cover(s, ("c",), {})

    def test_branch_not_disjoint_rejected(self):
        with pytest.raises(CoverError, match="not pairwise disjoint"):
            double_cover(blowup_quartic_points(), ("l3", "l3"), {})

    def test_untracked_branch_curve_rejected(self):
        with pytest.raises(CoverError, match="no tracked curve named 'b'"):
            double_cover(projective_plane({"c": 2}), ("b",), {})

    def test_fractional_branch_euler_number_rejected(self):
        # C = 2H on a form with H^2 = 1/8: C/2 is integral, but C^2 = 1/2
        space = QuadraticSpace(("H",), [Fraction(1, 8)])
        s = SurfaceModel(1, zh(space), space.zero(), {"c": 2 * space.basis_vector("H")})
        with pytest.raises(CoverError, match=r"e\(c\) = -1/2 is not an integer"):
            double_cover(s, ("c",), {})


class TestOneGram:
    """K's row and K^2 come from the one Gram each surface takes of its curves
    and K; the reference is the vector arithmetic, on every surface of the
    tower: the plane, each blowup, both covers and the final cover."""

    @staticmethod
    def stages():
        stages = blowup_stages()
        assert stages[-1] == blowup_quartic_points()
        t = build_quartic_cover()
        stages += [t, n1 := blowup(t, {"N1": ("l1", "l2")}), blowup(n1, {"N2": ("l1", "l2")}), build_final_cover()]
        assert stages[-2] == build_blown_cover()
        return stages

    def test_k_row_and_k_squared_match_the_vectors(self):
        stages = self.stages()
        for s in stages:
            scale = s.table.scale
            assert s.table.labels == tuple(s.curves) and len(s.k_row) == len(s.curves)
            assert [Fraction(k, scale) for k in s.k_row] == [s.canonical.dot(c) for c in s.curves.values()]
            assert s.k_squared == s.canonical.dot(s.canonical)
        assert [s.k_squared for s in stages] == [9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0]

    def test_fractional_canonical_square_rejected(self):
        space = QuadraticSpace(("H",), [Fraction(1, 2)])
        with pytest.raises(CoverError, match=r"K\^2 = 1/2 is not an integer"):
            SurfaceModel(1, zh(space), space.basis_vector("H"), {})

    def test_adjunction_reads_the_curve_table(self):
        # -(C^2 + K.C) = 3d - d^2 on the plane: 2 for a line or a conic, 0
        # for a cubic; the line preimage E1 on the quartic cover has
        # E1^2 = 2 = -K.E1
        plane = projective_plane({"line": 1, "conic": 2, "cubic": 3})
        assert [plane.adjunction_euler((name,)) for name in plane.curves] == [2, 2, 0]
        assert build_quartic_cover().adjunction_euler(("l1",)) == curve_table_T()["E1.euler"] == 0
        with pytest.raises(CoverError, match="no tracked curve named 'quartic'"):
            plane.adjunction_euler(("quartic",))


class TestNoether:
    def test_plane(self):
        assert noether_chi(projective_plane({})) == 1

    def test_k3_numbers(self):
        space = QuadraticSpace(("H",), [0])
        k3ish = SurfaceModel(24, zh(space), space.zero(), {})
        assert noether_chi(k3ish) == 2

    def test_non_integral_value(self):
        space = QuadraticSpace(("H",), [2])
        odd = SurfaceModel(9, zh(space), space.basis_vector("H"), {})
        assert noether_chi(odd) == Fraction(11, 12)


class TestWeakDelPezzo:
    def test_quartic_cover_is_weak_dp2(self):
        assert weak_del_pezzo_defects(build_quartic_cover()) == []

    def test_wrong_degree_rejected(self):
        t = blowup(build_quartic_cover(), {"Z": ()})
        assert t.k_squared == 1
        assert weak_del_pezzo_defects(t) == ["K^2 = 1, e = 11"]

    def test_noether_inconsistency_rejected(self):
        space = QuadraticSpace(("H",), [2])
        bad = SurfaceModel(9, zh(space), space.basis_vector("H"), {})
        assert weak_del_pezzo_defects(bad) == ["K^2 = 2, e = 9", "K.C = 0 on no curve"]

    def with_curve(self, name, v):
        t = build_quartic_cover()
        return SurfaceModel(t.euler, t.lattice, t.canonical, {**t.curves, name: v})

    def test_curve_with_positive_canonical_degree_rejected(self):
        # -H is no curve: K.(-H) = 2 > 0, so -K is not nef on the curves
        t = build_quartic_cover()
        assert t.canonical.dot(-1 * t.pic.basis_vector("H")) == 2
        assert weak_del_pezzo_defects(self.with_curve("bad", -1 * t.pic.basis_vector("H"))) == ["K.bad > 0"]

    def test_k_orthogonal_curves_are_the_six_g(self):
        t = build_quartic_cover()
        g = {f"G{a}{b}" for a, b in combinations(QUARTIC_LINES, 2)}
        assert {name for name, v in t.curves.items() if t.canonical.dot(v) == 0} == g
        assert all(t.pairing(name, name) == -2 for name in g)
        # 2A is orthogonal to K but of square -8: as one more curve, or as
        # G56's class, it fails; so does dropping G56
        d = 2 * t.pic.basis_vector("A")
        six = "G34, G35, G36, G45, G46, G56"
        assert weak_del_pezzo_defects(self.with_curve("2A", d)) == [f"K.C = 0 on {six}, 2A", "2A^2 = -8"]
        assert weak_del_pezzo_defects(self.with_curve("G56", d)) == ["G56^2 = -8"]
        curves = {name: v for name, v in t.curves.items() if name != "G56"}
        without_g56 = SurfaceModel(t.euler, t.lattice, t.canonical, curves)
        assert weak_del_pezzo_defects(without_g56) == ["K.C = 0 on G34, G35, G36, G45, G46"]


class TestCurveTable:
    def test_declared_values(self):
        table = curve_table_T()
        assert table["E1.E1"] == 2
        assert table["W1.W1"] == 0
        assert table["E1.E2"] == 2
        assert table["W1.W2"] == 4
        assert table["W1.E2"] == 2

    def test_aggregates(self):
        table = curve_table_T()
        assert table["E1.E1"] + table["E2.E2"] + 2 * table["E1.E2"] == 8
        assert table["W1.W1"] + table["W2.W2"] + 2 * table["W1.W2"] == 8
        assert table["W1.E2"] + table["W2.E1"] + table["W1.E1+W2.E2"] == 8

    def test_line_preimage_is_elliptic(self):
        table = curve_table_T()
        assert table["branch_points_on_l1"] == 4
        assert table["E1.euler"] == 0


class TestFinalCover:
    def test_blown_cover_numbers(self):
        t = build_blown_cover()
        assert (t.euler, t.k_squared) == (12, 0)

    def test_branch_is_two_divisible_and_disjoint(self):
        t = build_blown_cover()
        e1, e2 = t.curves["l1"], t.curves["l2"]
        assert (Fraction(1, 2) * (e1 + e2)).is_integral
        assert t.pic.inner(e1, e2) == 0
        # base-point free genus-1 classes upstairs: C^2 = K.C = 0, so e(C) = 0
        for c in (e1, e2):
            assert (t.pic.inner(c, c), t.canonical.dot(c)) == (0, 0)
        assert 2 * t.euler - build_final_cover().euler == 0

    def test_k3_numbers(self):
        x = build_final_cover()
        assert x.euler == 24
        assert x.k_squared == 0
        assert x.canonical.is_zero()
        assert noether_chi(x) == 2

    def test_sixteen_curve_inventory(self):
        _, inv = sixteen_curves_on_X()
        assert inv["total"] == 16
        assert inv["split_preimages_of_exceptional"] == 12
        assert inv["exceptional_of_cover"] == 2
        assert inv["split_conic_pieces_used"] == 2

    def test_split_conic_aggregates(self):
        _, inv = sixteen_curves_on_X()
        table = inv["split_conic_table"]
        assert table["W'1.W''2"] == 0 and table["W''1.W'2"] == 0
        cross = (
            table["W'1.W'2"]
            + table["W'1.W''2"]
            + table["W''1.W'2"]
            + table["W''1.W''2"]
        )
        assert cross == 8 == inv["aggregate_cross"]
        assert inv["split_self_sum"] == 0
        assert inv["blowup_correction"] == 0

    def test_conic_anti_invariants_are_opposite(self):
        # W'1.W'2 = 4 and W'1.W''2 = 0 force D1.D2 = 8 = |D1||D2|: D2 = -D1
        x = build_final_cover()
        d1 = x.curves["W'1"] - x.curves["W''1"]
        d2 = x.curves["W'2"] - x.curves["W''2"]
        assert x.pic.inner(d1, d1) == x.pic.inner(d2, d2) == -8
        assert x.pic.inner(d1, d2) == 8 and d2 == -d1 == -x.pic.basis_vector("D")

    def test_sixteen_pair_to_minus_two_identity(self):
        sixteen, _ = sixteen_curves_on_X()
        assert len(sixteen) == len(set(sixteen)) == 16 and sixteen_defects(sixteen) == []
        pieces = [f"G{prime}{a}{b}" for a, b in combinations(QUARTIC_LINES, 2) for prime in ("'", "''")]
        assert sixteen == pieces + ["N1", "N2", "W'1", "W''2"]
        # W'2 in place of W''2 meets W'1 with 4
        assert sixteen_defects(sixteen[:-1] + ["W'2"]) == ["W'1.W'2 = 4"]

    def test_branch_fiber_not_twice_a_class_rejected(self, monkeypatch):
        # a plane line's row, its square 1, does not halve
        monkeypatch.setattr(covers, "build_final_cover", lambda: projective_plane({"l1": 1}))
        with pytest.raises(CoverError, match="the branch fiber l1 is not twice a class"):
            sixteen_curves_on_X()


def pencil_of_e1(table):
    """The fibers of the pencil |E1| on a curve table: F is the row of l1."""
    f = table.table[table.labels.index("l1")]
    return discover_fibers(table, f, f[table.labels.index("l1")])


def without(table, label):
    """The curve table with the row and column of one label dropped."""
    keep = [k for k, name in enumerate(table.labels) if name != label]
    return CurveTable(
        tuple(table.labels[k] for k in keep), tuple(table.classes[k] for k in keep),
        [[table.table[a][b] for b in keep] for a in keep], table.scale,
    )


class TestBlownCoverPencil:
    """The pencil |E1| on the blown-up quartic cover: the A1^6 configuration
    of six I2 fibers, which the final cover splits into its twelve."""

    def test_fibers_and_sections(self):
        t = build_blown_cover().table
        stars, pairs, sections = pencil_of_e1(t)
        assert stars == ()
        assert [t.labels[fiber.components[1][0]] for fiber in pairs] == [f"G{a}{b}" for a, b in INDEX_PAIRS if a >= 3]
        assert all(fiber.components[0] == (~fiber.components[1][0], 1) for fiber in pairs)
        # the diagonal pieces meet F = E1 once, as N1 and N2 do
        assert [t.labels[x] for x in sections] == DIAGONAL_PIECES + ["N1", "N2"]
        # l1 and l2 are orthogonal to F of square 0: fibers of class F, skipped
        row = t.table[t.labels.index("l1")]
        skipped = [t.labels[x] for x, p in enumerate(row) if p == 0 and not t.table[x][x]]
        assert skipped == ["l1", "l2"]
        components = {t.labels[x if x >= 0 else ~x] for fiber in pairs for x, _ in fiber.components}
        assert not components & set(skipped)
        assert sum(fiber.euler_number for fiber in pairs) == 12 == build_blown_cover().euler

    def test_labelled_bridge_to_the_kummer_pencil(self):
        # the I2 curves of |E1| and the isolated nodes of the Kummer (1,2)
        # pencil carry the same index pairs: those disjoint from {1, 2}
        t = build_blown_cover().table
        blown = {t.labels[fiber.components[1][0]][1:] for fiber in pencil_of_e1(t)[1]}
        model = jacobian_kummer_ns()
        kummer = {
            model.curve_table.labels[fiber.components[1][0]][1:]
            for fiber in build_fibration(model, 1, 2).fibers if fiber.kodaira_type == "I2"
        }
        assert blown == kummer == {f"{a}{b}" for a, b in INDEX_PAIRS if not {a, b} & {1, 2}}

    def test_branch_bridge_to_the_kummer_stars(self, monkeypatch):
        # the final cover's branch is exactly the class-F curves the pencil
        # |E1| skips on the blown-up cover, and there are as many as the I0*
        # fibers the Kummer (1,2) cover makes smooth
        branches = []

        def recording(s, branch, split):
            branches.append(branch)
            return double_cover(s, branch, split)

        monkeypatch.setattr(covers, "double_cover", recording)
        build_final_cover.cache_clear()
        try:
            build_final_cover()
        finally:
            build_final_cover.cache_clear()
        t = build_blown_cover().table
        row = t.table[t.labels.index("l1")]
        skipped = tuple(t.labels[x] for x, p in enumerate(row) if p == 0 and not t.table[x][x])
        assert branches == [skipped] == [("l1", "l2")]
        model = jacobian_kummer_ns()
        pencil = build_fibration(model, 1, 2)
        cover = transform_double_cover(pencil, even_eight(1, 2), model)
        stars = [k for k, f in enumerate(pencil.fibers) if f.kodaira_type == I0_STAR]
        assert [k for k, f in enumerate(cover.fibers) if f.kodaira_type == SMOOTH] == stars
        assert len(stars) == len(skipped) == 2

    def test_dropped_exceptional_curve_leaves_one_fiber_fewer(self):
        t = build_blown_cover().table
        assert len(pencil_of_e1(t)[1]) == 6
        stars, pairs, sections = pencil_of_e1(without(t, "G56"))
        assert (len(stars), len(pairs), len(sections)) == (0, 5, 8)



def fibration_of_x():
    """X's fiber class R = p*l1/2 (l1 is a branch fiber) as a vector, and the
    fibers and sections `discover_fibers` finds for it on X's curve table."""
    x = build_final_cover()
    t, l1 = x.table, x.row("l1")
    return HALF * x.curves["l1"], discover_fibers(t, [p // 2 for p in t.table[l1]], t.table[l1][l1] // 4)


class TestFinalCoverFibration:
    """X's own elliptic fibration, with fiber class R: the twelve I2 fibers of
    the abstract and the sections, which name the sixteen curves."""

    def test_fibers_and_sections(self):
        x = build_final_cover()
        t = x.table
        fiber, (stars, pairs, sections) = fibration_of_x()
        assert (len(stars), len(pairs), len(sections)) == (0, 12, 12)
        conic = ["W'1", "W''1", "W'2", "W''2"]
        assert sorted(t.labels[y] for y in sections) == sorted(conic + DIAGONAL_PIECES + ["N1", "N2"])
        # only N1 and N2 meet no other section: each diagonal piece meets a piece of another diagonal
        alone = [t.labels[y] for y in sections if not any(t.table[y][z] for z in sections if z != y)]
        assert alone == ["N1", "N2"]
        assert x.pic.inner(fiber, fiber) == 0 and x.pic.inner(fiber, x.curves["N1"]) == 1
        assert all(x.pic.inner(fiber, t.classes[y]) == 1 for y in sections)
        assert sum(f.euler_number for f in pairs) == 24 == x.euler
        sixteen, inv = sixteen_curves_on_X()
        assert sixteen[:12] == [t.labels[f.components[1][0]] for f in pairs]
        assert (inv["split_preimages_of_exceptional"], inv["exceptional_of_cover"]) == (12, 2)

    def test_split_pieces_lie_in_different_fibers(self):
        # G'ab and G''ab are each the tracked component of their own fiber:
        # G''ab pairs 0 with R - G'ab, so it is not that fiber's other part
        x = build_final_cover()
        t = x.table
        fiber, (_, pairs, _) = fibration_of_x()
        fiber_of = {t.labels[f.components[1][0]]: k for k, f in enumerate(pairs)}
        for a, b in combinations(QUARTIC_LINES, 2):
            one, other = x.curves[f"G'{a}{b}"], x.curves[f"G''{a}{b}"]
            assert fiber_of[f"G'{a}{b}"] != fiber_of[f"G''{a}{b}"]
            assert x.pic.inner(fiber - one, other) == 0 != x.pic.inner(other, other)

    def test_index_pairs_match_the_kummer_cover(self):
        # the I2 components carry each index pair of the Kummer (1,2) cover's
        # doubled I2 fibers twice
        t = build_final_cover().table
        _, (_, pairs, _) = fibration_of_x()
        tower = Counter(t.labels[f.components[1][0]].lstrip("G'") for f in pairs)
        model = jacobian_kummer_ns()
        cover = transform_double_cover(build_fibration(model, 1, 2), even_eight(1, 2), model)
        labels = model.curve_table.labels
        kummer = Counter(labels[f.components[1][0]][1:] for f in cover.fibers if f.kodaira_type == "I2")
        assert tower == kummer == {ab: 2 for ab in ("34", "35", "36", "45", "46", "56")}

    def test_dropped_piece_leaves_one_fiber_fewer(self):
        t = without(build_final_cover().table, "G'56")
        row = t.table[t.labels.index("l1")]
        stars, pairs, sections = discover_fibers(t, [p // 2 for p in row], 0)
        assert (len(stars), len(pairs), len(sections)) == (0, 11, 12)

    def test_warm_inventory_builds_nothing(self, monkeypatch):
        sixteen_curves_on_X()  # the final cover and its table exist
        calls = []

        def record(cls, name):
            original = getattr(cls, name)

            def counted(self, *args):
                calls.append(name)
                return original(self, *args)

            monkeypatch.setattr(cls, name, counted)

        record(QuadraticSpace, "inner")
        record(QuadraticSpace, "gram")
        record(RationalVector, "__init__")
        assert sixteen_curves_on_X()[1]["total"] == 16
        assert calls == []


HALF = Fraction(1, 2)
G_LABELS = tuple(f"G{a}{b}" for a, b in combinations(QUARTIC_LINES, 2))


def quartic_cover_with(diagonals):
    """The quartic cover built by the tower's rule, tracking only the given
    diagonals on the plane."""
    split = {c: QUARTIC_SPLIT[c] for c in ("W", *diagonals)}
    return double_cover(blowup_stages(diagonals)[-1], tuple(f"l{i}" for i in QUARTIC_LINES), split)


def classes(lattice, h, square):
    """The lattice vectors with H-coordinate h and the given square.  H is the
    first label, of positive square, and the form is negative definite on the
    rest, whose coordinates lie in Z / denominator, so the search is finite."""
    space, den = lattice.space, lattice.denominator
    found = []

    def extend(coords, budget):
        if len(coords) == space.dim:
            if budget == 0 and lattice.contains(x := space.vector(coords)):
                found.append(x)
            return
        weight, n = -space.diag[len(coords)], 0
        while weight * Fraction(n + 1, den) ** 2 <= budget:
            n += 1
        for k in range(-n, n + 1):
            extend(coords + [Fraction(k, den)], budget - weight * Fraction(k, den) ** 2)

    extend([h], space.diag[0] * h * h - square)
    return found


class TestQuarticCoverLattice:
    """Pic(T) from the tower's own rule: I_{1,7}, whose exceptional classes
    and roots settle the seven blowdowns."""

    def test_glue_makes_it_odd_unimodular(self):
        # the glue is a split diagonal: without the diagonals the lattice of
        # the pullbacks, the half-branches and W1 has discriminant (2,2), and
        # any one diagonal gives all of Pic(T)
        pic = build_quartic_cover().lattice
        assert pic.rank == 8 and not pic.is_even()
        assert pic.discriminant_group().invariant_factors == ()
        assert quartic_cover_with(()).lattice.discriminant_group().invariant_factors == (2, 2)
        assert all(quartic_cover_with((m,)).lattice.same_lattice(pic) for m in DIAGONALS)

    def test_diagonal_pieces_are_exceptional_curves(self):
        # each diagonal misses the quartic lines, and its pieces (p*m +/- A)/2
        # are (-1)-curves: square (2*(-1) - 2)/4 = -1 and K.piece = -H.p*m/2 = -1
        t = build_quartic_cover()
        for piece in DIAGONAL_PIECES:
            assert (t.pairing(piece, piece), t.k_row[t.row(piece)] // t.table.scale) == (-1, -1)
            assert [t.pairing(piece, f"l{i}") for i in QUARTIC_LINES] == [0, 0, 0, 0]

    def test_exceptional_classes_and_roots(self):
        t = build_quartic_cover()
        pic = t.lattice
        # K = -H, so K.x = -2h: h = 1/2 for K.x = -1, h = 0 for K.x = 0
        assert t.canonical == -1 * t.pic.basis_vector("H")
        exceptional = classes(pic, HALF, -1)
        assert len(exceptional) == 56
        assert all(t.canonical.dot(x) == -1 for x in exceptional)
        assert {t.curves[piece] for piece in DIAGONAL_PIECES} <= set(exceptional)
        assert len(classes(pic, 0, -2)) == 126  # the roots of E7
        # the exceptional classes meeting every G_ab non-negatively, and the
        # sets of seven disjoint ones among them, candidate blowdowns to the plane
        g = [t.pic.basis_vector(label) for label in G_LABELS]
        ten = [x for x in exceptional if all(x.dot(c) >= 0 for c in g)]
        assert len(ten) == 10
        sevens = [s for s in combinations(ten, 7) if all(x.dot(y) == 0 for x, y in combinations(s, 2))]
        assert len(sevens) == 2

    def test_curve_table_entries_are_its_classes(self):
        # E1 = E2 = H, W1 = H + A, W2 = H - A
        t = build_quartic_cover()
        h, a = t.pic.basis_vector("H"), t.pic.basis_vector("A")
        assert t.curves["l1"] == t.curves["l2"] == h
        assert (t.curves["W1"], t.curves["W2"]) == (h + a, h - a)
        assert curve_table_T()["W1.E1+W2.E2"] == t.pairing("W1", "l1") + t.pairing("W2", "l2") == 2 + 2


class TestBlownCoverLattice:
    """Pic(T~) = I_{1,9} and the Mordell-Weil group of the pencil |E1|."""

    def test_odd_unimodular(self):
        pic = build_blown_cover().lattice
        assert pic.rank == 10 and not pic.is_even()
        assert pic.discriminant_group().invariant_factors == ()

    def test_saturation_of_the_trivial_fibers(self):
        t = build_blown_cover()
        pic = t.lattice
        f, g = t.curves["l1"], [t.pic.basis_vector(label) for label in G_LABELS]
        spanned = SublatticeModel(t.pic, [f, *g])
        # every class of the saturation is a combination of F and the G_ab
        # with coefficients in Z / denominator; its fractional parts name it
        den = pic.denominator
        glue = []
        for cs in product(range(den), repeat=7):
            x = t.pic.combination([Fraction(c, den) for c in cs], [f, *g])
            if any(cs) and pic.contains(x):
                glue.append(x)
        assert set(glue) == {
            HALF * t.pic.combination([1] * 4, [t.pic.basis_vector(f"G{ab}") for ab in four])
            for four in (("35", "36", "45", "46"), ("34", "36", "45", "56"), ("34", "35", "46", "56"))
        }
        saturation = SublatticeModel(t.pic, [f, *g, *glue])
        assert saturation.index_of_sublattice(spanned) == 4

    def test_shioda_tate_rank(self):
        t = build_blown_cover()
        _, pairs, _ = pencil_of_e1(t.table)
        # the trivial lattice: F, the zero section N1 and one non-identity
        # component of each of the six I2 fibers
        components = [t.table.classes[fiber.components[1][0]] for fiber in pairs]
        trivial = SublatticeModel(t.pic, [t.curves["l1"], t.curves["N1"], *components])
        assert len(pairs) == 6 and trivial.rank == 2 + 6
        assert t.lattice.rank - trivial.rank == 10 - 2 - 6 == 2


class TestFinalCoverLattice:
    """M on X, spanned by the pullbacks of Pic(T~), the half fibers and the
    split pieces."""

    def sixteen(self):
        return [build_final_cover().curves[name] for name in sixteen_curves_on_X()[0]]

    def test_rank_parity_and_discriminant(self):
        m = build_final_cover().lattice
        assert m.rank == 17 and m.is_even()
        assert m.discriminant_group().invariant_factors == (2, 2, 2, 2, 2, 2, 8)

    def test_half_sum_of_the_sixteen(self):
        m, sixteen = build_final_cover().lattice, self.sixteen()
        total = build_final_cover().pic.combination([1] * 16, sixteen)
        assert m.contains(HALF * total)
        # dropping any one of the sixteen breaks the 2-divisibility
        assert not any(m.contains(HALF * (total - c)) for c in sixteen)

    def test_code_of_the_sixteen(self):
        # a set of the sixteen is even iff its half-sum lies in M, i.e. iff
        # the sum of their M-coordinates is even: the kernel over F2 of the
        # coordinates mod 2, read from an echelon basis tagged by position
        m = build_final_cover().lattice
        tagged = []
        for k, c in enumerate(self.sixteen()):
            parity = sum((x & 1) << i for i, x in enumerate(m.coordinates_of(c)))
            tagged.append(parity << 16 | 1 << k)
        kernel = [mask for mask in f2_basis(tagged) if mask < 1 << 16]
        code = code_from_even_sets(NodeSet(w) for w in f2_span(kernel))
        assert code.dimension == 4
        assert weight_enumerator(code) == {0: 1, 8: 14, 16: 1}

    def test_shioda_tate_rank(self):
        # the fiber class R = p*F / 2 (F is a branch fiber, so R lies in M),
        # the zero section N1 and one non-identity component of each of the
        # twelve I2 fibers, all from one discovery on X's curve table
        x = build_final_cover()
        fiber, (_, pairs, _) = fibration_of_x()
        assert x.lattice.contains(fiber) and not x.lattice.contains(HALF * fiber)
        pieces = [x.table.classes[f.components[1][0]] for f in pairs]
        assert len(pieces) == 12 and all(x.pic.inner(fiber, c) == 0 for c in pieces)
        trivial = SublatticeModel(x.pic, [fiber, x.curves["N1"], *pieces])
        assert trivial.rank == 2 + 12
        assert x.lattice.rank - trivial.rank == 17 - 14 == 3
