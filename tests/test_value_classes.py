"""The value semantics of the package's frozen classes.

Every class below is immutable once built.  Value equality, hashing and
ordering are pinned only where the package relies on them: a quadratic space
by its labels and diagonal, a vector by its space, numerators and denominator
(hashed without the space), and a node set by its bitmask.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from kummerlab.checks import PASS, CheckDef, CheckResult
from kummerlab.cli import Report
from kummerlab.covers import SurfaceModel, projective_plane
from kummerlab.fibration import SMOOTH, Fiber, Fibration
from kummerlab.kummer_ns import CurveTable
from kummerlab.lattice import (
    DiscriminantGroup,
    QuadraticSpace,
    RationalVector,
    SublatticeModel,
)
from kummerlab.nodecode import EMPTY, BinaryCode, NodeSet


def _space() -> QuadraticSpace:
    return QuadraticSpace(("a", "b"), [1, Fraction(-1, 2)])


def _instances() -> list[tuple[object, str]]:
    """One instance of each frozen class, with one of its fields."""
    space = _space()
    v = RationalVector(space, (1, 2), 3)
    plane = projective_plane({"l": 1})
    return [
        (space, "labels"),
        (v, "nums"),
        (DiscriminantGroup((2,)), "invariant_factors"),
        (SublatticeModel(space, (v,)), "generators"),
        (NodeSet(5), "bits"),
        (BinaryCode(frozenset({EMPTY})), "codewords"),
        (Fiber((), SMOOTH), "kodaira_type"),
        (Fibration((1, 2), v, (), (), ()), "pair"),
        (CurveTable(("a",), (v,), [[2]], 1), "meets"),
        (plane, "euler"),
        (CheckResult("x.y", PASS, "d"), "status"),
        (CheckDef("x.y", "d", "c", lambda ctx: (True, "d", None)), "flagged"),
        (Report("0", (), {}, 0), "elapsed_ms"),
    ]


@pytest.mark.parametrize(
    "obj, field", _instances(), ids=lambda x: type(x).__name__ if not isinstance(x, str) else x
)
class TestFrozen:
    def test_assigning_a_field_raises(self, obj, field):
        before = getattr(obj, field)
        with pytest.raises(AttributeError):
            setattr(obj, field, before)
        assert getattr(obj, field) is before

    def test_deleting_a_field_raises(self, obj, field):
        with pytest.raises(AttributeError):
            delattr(obj, field)
        assert hasattr(obj, field)

    def test_copy_is_equal_and_frozen(self, obj, field):
        dup = copy.copy(obj)
        assert type(dup) is type(obj) and dup == obj
        with pytest.raises(AttributeError):
            setattr(dup, field, getattr(dup, field))


class TestCopyAndPickle:
    def test_deepcopy_and_pickle_round_trip(self):
        space = _space()
        v = RationalVector(space, (1, 2), 3)
        for obj in (space, v, NodeSet(5), SublatticeModel(space, (v,))):
            for back in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
                assert type(back) is type(obj) and back == obj
        back = pickle.loads(pickle.dumps(v))
        assert back.space == space and back.space.basis_vector("b").nums == (0, 1)
        assert back.space.index("b") == 1


class TestValueEquality:
    def test_vectors_over_equal_spaces_are_equal(self):
        s1, s2 = _space(), _space()
        assert s1 is not s2
        v, w = RationalVector(s1, (2, 4), 6), RationalVector(s2, (1, 2), 3)
        assert v == w and not v != w
        assert hash(v) == hash(w)
        assert len({v, w}) == 1

    def test_vectors_differing_only_in_space_are_unequal(self):
        other = QuadraticSpace(("a", "b"), [1, -1])
        v = RationalVector(_space(), (1, 2), 3)
        w = RationalVector(other, (1, 2), 3)
        assert v != w and not v == w

    def test_vectors_differing_in_coordinates_are_unequal(self):
        space = _space()
        assert RationalVector(space, (1, 2), 3) != RationalVector(space, (1, 2), 5)
        assert RationalVector(space, (1, 2)) != RationalVector(space, (2, 1))

    def test_vector_is_not_equal_to_a_tuple(self):
        v = RationalVector(_space(), (1, 2))
        assert v != (1, 2) and v != ((1, 2), 1)

    def test_quadratic_space_has_value_equality_and_hash(self):
        s1, s2 = _space(), _space()
        assert s1 == s2 and hash(s1) == hash(s2)
        assert len({s1, s2}) == 1
        assert s1 != QuadraticSpace(("a", "c"), [1, Fraction(-1, 2)])
        assert s1 != QuadraticSpace(("a", "b"), [1, -1])
        # a diagonal given as ints or as Fractions is the same space
        assert QuadraticSpace(("a",), [Fraction(2)]) == QuadraticSpace(("a",), [2])


class TestNodeSetOrder:
    def test_comparisons_follow_bits(self):
        a, b = NodeSet(3), NodeSet(12)
        assert a < b and a <= b and b > a and b >= a
        assert not b < a and a <= NodeSet(3) and a >= NodeSet(3)

    def test_sorted_and_min_follow_bits(self):
        sets = [NodeSet(b) for b in (9, 1, 40000, 0, 6)]
        assert [s.bits for s in sorted(sets)] == [0, 1, 6, 9, 40000]
        assert min(sets) == EMPTY and max(sets) == NodeSet(40000)

    def test_equality_and_hash_follow_bits(self):
        assert NodeSet(7) == NodeSet(7) and hash(NodeSet(7)) == hash(NodeSet(7))
        assert NodeSet(7) != NodeSet(6)
        assert len({NodeSet(7), NodeSet(7), NodeSet(6)}) == 2


class TestConstruction:
    def test_vector_denominator_defaults_to_one(self):
        space = _space()
        v = RationalVector(space, (1, 2))
        assert v.den == 1 and v == RationalVector(space=space, nums=(1, 2), den=1)

    def test_vector_normalises_by_keyword(self):
        v = RationalVector(space=_space(), nums=[2, -4], den=-6)
        assert (v.nums, v.den) == ((-1, 2), 3)

    def test_check_result_by_keyword_with_default_data(self):
        r = CheckResult(id="x.y", status=PASS, detail="d")
        assert (r.id, r.status, r.detail, r.data) == ("x.y", PASS, "d", None)

    def test_check_def_defaults_to_not_flagged(self):
        body = lambda ctx: (True, "d", None)  # noqa: E731
        d = CheckDef(id="x.y", description="d", claim="c", run=body)
        assert d.flagged is False and d.run is body

    def test_node_set_defaults_to_empty(self):
        assert NodeSet().bits == 0 and NodeSet() == EMPTY

    def test_keyword_construction_of_the_others(self):
        space = _space()
        v = space.basis_vector("a")
        assert SublatticeModel(space=space, generators=[v]).generators == (v,)
        group = DiscriminantGroup(invariant_factors=[2])
        assert group.invariant_factors == (2,) and group.order == 2
        fiber = Fiber(components=((3, 2),), kodaira_type="I2")
        fib = Fibration(pair=(1, 2), fiber_class=v, fibers=(fiber,), sections=(), pairings=(0,))
        assert fib.fibers[0].components[0] == (3, 2) and fib.pairings == (0,)
        report = Report(version="0", checks=(), summary={"pass": 0}, elapsed_ms=3)
        assert report.elapsed_ms == 3
        pic = QuadraticSpace(labels=("H",), diag=(1,))
        h = pic.basis_vector("H")
        lattice = SublatticeModel(pic, [h])
        surface = SurfaceModel(euler=3, lattice=lattice, canonical=-3 * h, curves={"H": h})
        assert surface.curves["H"] is h and surface.lattice is lattice and surface.pic is pic
        assert BinaryCode(codewords={EMPTY}).dimension == 0
