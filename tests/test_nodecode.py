from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummerlab.kummer_ns import jacobian_kummer_ns
from kummerlab.nodecode import (
    EMPTY,
    FULL,
    BinaryCode,
    CodeError,
    NodeSet,
    check_affine_hyperplane_family,
    code_from_even_sets,
    weight_enumerator,
)


class TestNodeSet:
    def test_labels_round_trip(self):
        s = NodeSet.from_labels(["E14", "E0", "E56"])
        assert s.labels() == ("E0", "E14", "E56")
        assert s.weight == 3

    def test_membership_and_ops(self):
        a = NodeSet.from_labels(["E12", "E13"])
        b = NodeSet.from_labels(["E13", "E14"])
        assert "E12" in a and "E14" not in a
        assert (a ^ b).labels() == ("E12", "E14")
        assert (a & b).labels() == ("E13",)
        assert (a | b).weight == 3
        assert a.is_subset_of(a | b)

    def test_complement(self):
        assert EMPTY.complement() == FULL
        s = NodeSet.from_labels(["E0"])
        assert s.complement().weight == 15
        assert "E0" not in s.complement()

    def test_unknown_label(self):
        with pytest.raises(CodeError):
            NodeSet.from_labels(["E11"])

    @pytest.mark.parametrize("labels", [[["E0"]], [{"E0"}], [None], 5, None])
    def test_unhashable_label_or_non_iterable_rejected(self, labels):
        with pytest.raises(CodeError):
            NodeSet.from_labels(labels)

    def test_out_of_range_mask(self):
        with pytest.raises(CodeError):
            NodeSet(1 << 16)

    @pytest.mark.parametrize("bits", ["3", None, Fraction(1), True, 1.0])
    def test_non_integer_mask_rejected(self, bits):
        with pytest.raises(CodeError):
            NodeSet(bits)

    @pytest.mark.parametrize("label", ["E99", "E11", 3, None, ["E0"]])
    def test_unknown_label_membership_rejected(self, label):
        with pytest.raises(CodeError):
            label in NodeSet(3)


class TestCodeConstruction:
    def test_trivial_code(self):
        code = code_from_even_sets([EMPTY])
        assert code.dimension == 0
        assert weight_enumerator(code) == {0: 1}

    def test_empty_plus_full(self):
        code = code_from_even_sets([EMPTY, FULL])
        assert code.dimension == 1
        assert weight_enumerator(code) == {0: 1, 16: 1}

    def test_non_linear_family_rejected(self):
        a = NodeSet.from_labels(["E12"])
        b = NodeSet.from_labels(["E13"])
        with pytest.raises(CodeError, match="not linear"):
            code_from_even_sets([EMPTY, a, b])

    def test_missing_empty_rejected(self):
        with pytest.raises(CodeError):
            code_from_even_sets([NodeSet.from_labels(["E12"])])

    def test_binary_code_validates_closure(self):
        a = NodeSet.from_labels(["E12"])
        with pytest.raises(CodeError):
            BinaryCode(frozenset({EMPTY, a, NodeSet.from_labels(["E13"]), a ^ a}))

    @pytest.mark.parametrize("words", [frozenset({0, 1}), frozenset({EMPTY, 1})])
    def test_binary_code_rejects_non_nodeset_words(self, words):
        with pytest.raises(CodeError, match="NodeSets"):
            BinaryCode(words)


def _old_code_accepts(words):
    """The former BinaryCode check: the empty word, a power-of-two size and
    the pairwise symmetric-difference table."""
    size = len(words)
    return (
        EMPTY in words
        and not size & (size - 1)
        and all(a ^ b in words for a in words for b in words)
    )


@st.composite
def mask_families(draw):
    """The F2 span of a few random masks, kept, or with a word dropped or a
    random word added; masks use six positions so spans and words collide."""
    masks = draw(st.lists(st.integers(min_value=0, max_value=63), max_size=4))
    words = {0}
    for m in masks:
        words |= {w ^ m for w in words}
    edit = draw(st.sampled_from(["kept", "dropped", "added"]))
    if edit == "dropped":
        words.discard(draw(st.sampled_from(sorted(words))))
    elif edit == "added":
        words.add(draw(st.integers(min_value=0, max_value=63)))
    return frozenset(NodeSet(w) for w in words)


class TestBinaryCodeAgainstPairwiseTable:
    @given(mask_families())
    @settings(max_examples=200, deadline=None)
    def test_accepts_exactly_closed_families(self, words):
        try:
            BinaryCode(words)
            accepted = True
        except CodeError:
            accepted = False
        assert accepted == _old_code_accepts(words)


class TestEvenSetCode:
    def test_dimension_five(self):
        model = jacobian_kummer_ns()
        code = code_from_even_sets(model.even_sets)
        assert code.dimension == 5
        assert len(code.codewords) == 32

    def test_weight_enumerator(self):
        model = jacobian_kummer_ns()
        code = code_from_even_sets(model.even_sets)
        hist = weight_enumerator(code)
        assert hist == {0: 1, 8: 30, 16: 1}
        assert sum(hist.values()) == 2**code.dimension

    def test_complements_are_codewords(self):
        model = jacobian_kummer_ns()
        code = code_from_even_sets(model.even_sets)
        for word in code.codewords:
            assert word.complement() in code.codewords


class TestAffineFamily:
    def test_thirty_even_eights(self):
        model = jacobian_kummer_ns()
        assert check_affine_hyperplane_family(model.even_eights())

    def test_bad_intersection_rejected(self):
        a = NodeSet(0b0000000011111111)
        b = NodeSet(0b0001111111100000)
        assert (a & b).weight == 3
        members = [a, a.complement(), b, b.complement()]
        assert not check_affine_hyperplane_family(members)

    def test_single_pair(self):
        a = NodeSet(0b0000000011111111)
        assert check_affine_hyperplane_family([a, a.complement()])

    def test_missing_complement(self):
        a = NodeSet(0b0000000011111111)
        assert not check_affine_hyperplane_family([a])

    def test_wrong_weight_rejected(self):
        with pytest.raises(CodeError):
            check_affine_hyperplane_family([NodeSet.from_labels(["E12"])])
