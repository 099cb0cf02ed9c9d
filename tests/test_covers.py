from fractions import Fraction

import pytest

from kummerlab.covers import (
    BranchData,
    CoverError,
    SurfaceModel,
    blowup,
    blowup_quartic_points,
    build_blown_cover,
    build_final_cover,
    build_quartic_cover,
    curve_table_T,
    double_cover,
    elliptic_branch,
    noether_chi,
    projective_plane,
    quartic_branch,
    sextic_incidence,
    sixteen_curves_on_X,
    verify_weak_del_pezzo,
)
from kummerlab.fibration import build_fibration, discover_fibers
from kummerlab.kummer_ns import CurveTable, jacobian_kummer_ns
from kummerlab.labels import INDEX_PAIRS
from kummerlab.lattice import QuadraticSpace, RationalVector


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
        t = blowup(s, "E", ("c",))
        assert (t.euler, t.k_squared) == (4, 8)
        assert t.pairing("E", "E") == -1
        assert t.pairing("c", "c") == 3
        assert t.canonical.coeff("E") == 1

    def test_noether_line_under_blowups(self):
        s = projective_plane({"l1": 1})
        assert s.k_squared + s.euler == 12
        s = blowup_quartic_points()
        assert s.k_squared + s.euler == 12

    def test_unknown_curve_rejected(self):
        s = projective_plane({"c": 2})
        with pytest.raises(CoverError):
            blowup(s, "E", ("missing",))


class TestDoubleCover:
    def test_quartic_cover_numbers(self):
        t = build_quartic_cover()
        assert t.euler == 10
        assert t.k_squared == 2
        assert t.pairing("l1", "l1") == 2
        assert t.canonical == -1 * t.pic.basis_vector("H")
        assert noether_chi(t) == 1

    def test_branch_euler_number(self):
        base = blowup_quartic_points()
        branch = quartic_branch(base)
        assert branch.euler_of_branch == 8
        assert branch.divisor_class.norm() == 4 * -2  # four disjoint (-2)-curves

    def test_pullback_doubles_pairings(self):
        base = blowup_quartic_points()
        t = build_quartic_cover()
        for a, b in (("l1", "l2"), ("W", "W"), ("l1", "W")):
            assert t.pairing(a, b) == 2 * base.pairing(a, b)

    def test_empty_branch_doubles(self):
        s = projective_plane({"c": 2})
        doubled = double_cover(s, BranchData(s.pic.zero(), 0))
        assert doubled.euler == 2 * s.euler
        assert doubled.k_squared == 2 * s.k_squared

    def test_odd_branch_rejected(self):
        s = projective_plane({"c": 2})
        odd = s.curve("c") + s.pic.basis_vector("H")
        with pytest.raises(CoverError, match="2-divisible"):
            double_cover(s, BranchData(odd, 2))

    def test_disjoint_rational_validation(self):
        s = blowup_quartic_points()
        with pytest.raises(CoverError):
            BranchData.disjoint_rational((s.curve("l1"),))  # self-intersection 1
        with pytest.raises(CoverError):
            BranchData.disjoint_rational((s.curve("l3"), s.curve("l3")))


class TestNoether:
    def test_plane(self):
        assert noether_chi(projective_plane({})) == 1

    def test_k3_numbers(self):
        space = QuadraticSpace(("H",), [0])
        k3ish = SurfaceModel(24, 0, space, space.zero(), {})
        assert noether_chi(k3ish) == 2

    def test_non_integral_value(self):
        space = QuadraticSpace(("H",), [2])
        odd = SurfaceModel(9, 2, space, space.basis_vector("H"), {})
        assert noether_chi(odd) == Fraction(11, 12)


class TestWeakDelPezzo:
    def test_quartic_cover_is_weak_dp2(self):
        assert verify_weak_del_pezzo(build_quartic_cover())

    def test_wrong_degree_rejected(self):
        t = blowup(build_quartic_cover(), "Z", ())
        assert t.k_squared == 1
        assert not verify_weak_del_pezzo(t)

    def test_noether_inconsistency_rejected(self):
        space = QuadraticSpace(("H",), [2])
        bad = SurfaceModel(9, 2, space, space.basis_vector("H"), {})
        assert not verify_weak_del_pezzo(bad)


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
        branch = elliptic_branch(t)
        assert branch.euler_of_branch == 0
        half = Fraction(1, 2) * branch.divisor_class
        assert half.is_integral
        e1, e2 = t.curve("l1"), t.curve("l2")
        assert branch.divisor_class == e1 + e2
        assert t.pic.inner(e1, e2) == 0
        assert t.pic.inner(e1, e1) == 0  # base-point free genus-1 class upstairs

    def test_k3_numbers(self):
        x = build_final_cover()
        assert x.euler == 24
        assert x.k_squared == 0
        assert x.canonical.is_zero()
        assert noether_chi(x) == 2

    def test_sixteen_curve_inventory(self):
        inv = sixteen_curves_on_X()
        assert inv["total"] == 16
        assert inv["split_preimages_of_exceptional"] == 12
        assert inv["exceptional_of_cover"] == 2
        assert inv["split_conic_pieces_used"] == 2

    def test_split_conic_aggregates(self):
        inv = sixteen_curves_on_X()
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
    """The pencil |E1| on the blown-up quartic cover, whose fibers count the
    sixteen curves: the A1^6 configuration of six I2 fibers."""

    def test_fibers_and_sections(self):
        t = build_blown_cover().table
        stars, pairs, sections = pencil_of_e1(t)
        assert stars == ()
        assert [t.labels[fiber.components[1][0]] for fiber in pairs] == [f"G{a}{b}" for a, b in INDEX_PAIRS if a >= 3]
        assert all(fiber.components[0] == (~fiber.components[1][0], 1) for fiber in pairs)
        assert [t.labels[x] for x in sections] == ["N1", "N2"]
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

    def test_dropped_exceptional_curve_leaves_one_fiber_fewer(self):
        t = build_blown_cover().table
        assert len(pencil_of_e1(t)[1]) == 6
        stars, pairs, sections = pencil_of_e1(without(t, "G56"))
        assert (len(stars), len(pairs), len(sections)) == (0, 5, 2)

    def test_warm_count_builds_nothing(self, monkeypatch):
        sixteen_curves_on_X()  # the blown-up cover and its table exist
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
        assert sixteen_curves_on_X()["total"] == 16
        assert calls == []
