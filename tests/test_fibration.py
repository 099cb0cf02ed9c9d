from fractions import Fraction

import pytest

from kummerlab.fibration import (
    I0_STAR,
    SMOOTH,
    Fiber,
    FiberComponent,
    Fibration,
    FibrationError,
    build_fibration,
    classify_fiber,
    euler_sum,
    even_eight_from_fibers,
    kodaira_euler,
    transform_double_cover,
)
from kummerlab.kummer_ns import JacobianKummerNS, even_eight, jacobian_kummer_ns
from kummerlab.labels import INDEX_PAIRS
from kummerlab.lattice import QuadraticSpace
from kummerlab.nodecode import EMPTY

MODEL = jacobian_kummer_ns()
FIB = build_fibration(MODEL)


class TestClassification:
    def test_star_fiber(self):
        comps = [FiberComponent(MODEL.trope_class("C0"), 2)] + [
            FiberComponent(MODEL.node_class(f"E1{k}"), 1) for k in (3, 4, 5, 6)
        ]
        assert classify_fiber(comps) == "I0*"

    def test_two_component_fiber(self):
        fiber_class = FIB.fiber_class
        node = MODEL.node_class("E45")
        first = fiber_class - node
        assert first.norm() == -2
        assert first.dot(node) == 2
        comps = [FiberComponent(first, 1), FiberComponent(node, 1)]
        assert classify_fiber(comps) == "I2"

    def test_cycle_fiber(self):
        # x - y, y - z, z - x in diag(-1, -1, -1): norms -2, each pair meets once
        space = QuadraticSpace(("x", "y", "z"), [-1, -1, -1])
        x, y, z = (space.basis_vector(lab) for lab in ("x", "y", "z"))
        comps = [FiberComponent(v, 1) for v in (x - y, y - z, z - x)]
        assert classify_fiber(comps) == "I3"

    def test_single_component_rejected(self):
        with pytest.raises(FibrationError, match="unrecognized"):
            classify_fiber([FiberComponent(MODEL.node_class("E12"), 1)])

    def test_empty_and_non_integral_rejected(self):
        with pytest.raises(FibrationError):
            classify_fiber([])
        # x1 - x9 and half the sum of x1..x8 both have norm -2 and pair to -1/2
        space = QuadraticSpace(tuple(f"x{k}" for k in range(1, 10)), [-1] * 9)
        first = space.vector({"x1": 1, "x9": -1})
        second = space.vector([Fraction(1, 2)] * 8 + [0])
        comps = [FiberComponent(first, 1), FiberComponent(second, 1)]
        with pytest.raises(FibrationError, match="non-integral"):
            classify_fiber(comps)

    def test_norm_enforced(self, monkeypatch):
        wrong = [
            FiberComponent(MODEL.space.basis_vector("L"), 1),
            FiberComponent(MODEL.node_class("E12"), 1),
        ]
        with pytest.raises(FibrationError, match="norm -2"):
            classify_fiber(wrong)
        # every star fiber is then centred on L, of norm 4
        monkeypatch.setattr(
            JacobianKummerNS, "trope_class", lambda self, label: self.space.basis_vector("L")
        )
        with pytest.raises(FibrationError, match="norm -2"):
            build_fibration(MODEL)

    def test_euler_table(self):
        assert kodaira_euler("smooth") == 0
        assert kodaira_euler("I0*") == 6
        assert kodaira_euler("I7") == 7
        with pytest.raises(FibrationError):
            kodaira_euler("IV*")

    @pytest.mark.parametrize(
        "make",
        [
            lambda: FiberComponent(MODEL.node_class("E12"), 1.5),
            lambda: FiberComponent(MODEL.node_class("E12"), True),
            lambda: FiberComponent(MODEL.node_class("E12"), Fraction(1)),
            lambda: kodaira_euler("I\u0663"),
            lambda: kodaira_euler("I\uff13"),
            lambda: kodaira_euler(3),
        ],
        ids=["float", "bool", "Fraction", "arabic-indic-3", "fullwidth-3", "int-tag"],
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
        assert euler_sum(FIB) == 2 * 6 + 6 * 2 == 24

    def test_empty_fiber_list(self):
        empty = Fibration((1, 2), FIB.fiber_class, (), ())
        assert euler_sum(empty) == 0


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
        assert euler_sum(out) == 24
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
        with pytest.raises(FibrationError, match="incidence not covered"):
            transform_double_cover(FIB, even_eight(1, 3), MODEL)

    def test_non_even_branch_rejected(self):
        from kummerlab.nodecode import NodeSet

        bad = NodeSet.from_labels(
            ["E0", "E12", "E13", "E14", "E15", "E16", "E23", "E24"]
        )
        with pytest.raises(FibrationError, match="even eight"):
            transform_double_cover(FIB, bad, MODEL)


def transform_by_dot(fib, branch, model):
    """The double-cover transform with incidence from full pairings <c, b>
    against every branch node; None where a fiber meets the branch without
    being a star fiber inside it."""
    branch_vectors = [model.node_class(label) for label in branch.labels()]
    fibers = []
    for fiber in fib.fibers:
        mult_one = fiber.multiplicity_one_components()
        if fiber.kodaira_type == I0_STAR and mult_one and all(c in branch_vectors for c in mult_one):
            fibers.append(Fiber((), SMOOTH))
        elif any(c.divisor.dot(b) != 0 for c in fiber.components for b in branch_vectors):
            return None
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
            expected = transform_by_dot(fib, eight, MODEL)
            if expected is None:
                with pytest.raises(FibrationError, match="incidence not covered"):
                    transform_double_cover(fib, eight, MODEL)
            else:
                assert transform_double_cover(fib, eight, MODEL) == expected
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
                assert euler_sum(fib) == 24
                assert even_eight_from_fibers(fib, MODEL)
                assert all(s.dot(fib.fiber_class) == 1 for s in fib.sections)
                out = transform_double_cover(fib, even_eight(i, j), MODEL)
                assert sum(1 for f in out.fibers if f.kodaira_type == "I2") == 12
                assert euler_sum(out) == 24

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
