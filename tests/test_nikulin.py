import random
from fractions import Fraction
from itertools import product

import pytest

from kummerlab import kummer_ns
from kummerlab.kummer_ns import JacobianKummerNS, even_eight, jacobian_kummer_ns
from kummerlab.lattice import QuadraticSpace, SublatticeModel, _integral_table
from kummerlab.nikulin import (
    _parity_tuples,
    nikulin_lattice,
    roots,
    saturation,
    saturation_gram_matches,
)
from kummerlab.nodecode import NodeSet

MODEL = jacobian_kummer_ns()
LATTICE = nikulin_lattice()


def hnf_index(s: NodeSet) -> int:
    """Slow reference: the index of the node span of ``s`` in the lattice's
    section over those nodes, from Hermite reductions."""
    labels = s.labels()
    nodes = tuple(MODEL.node_class(label) for label in labels)
    return MODEL.ns.coordinate_section(labels).index_of_sublattice(SublatticeModel(MODEL.space, nodes))


def even_subsets(s: NodeSet) -> int:
    return sum(1 for t in MODEL.even_sets if not t.bits & ~s.bits)


def brute_force_box_roots():
    """Independent oracle: scan the whole box lam in {-2..2}^8, eps in {0,1}.

    The norm of sum(lam_i c_i) + eps*d is -2*a - 2*eps*b - 4*eps with
    a = sum(lam^2), b = sum(lam).  Half-tuples are combined through their
    (a, b) statistics, which enumerates exactly the 2 * 5^8 box.
    """
    halves = [
        (lams, sum(x * x for x in lams), sum(lams))
        for lams in product(range(-2, 3), repeat=4)
    ]
    integral = []
    half_branch = []
    for left, a1, b1 in halves:
        for right, a2, b2 in halves:
            a, b = a1 + a2, b1 + b2
            if -2 * a == -2:
                integral.append(left + right)
            if -2 * a - 2 * b - 4 == -2:
                half_branch.append(left + right)
    return integral, half_branch


class TestRoots:
    def test_matches_box_oracle(self):
        integral, half_branch = brute_force_box_roots()
        assert half_branch == []
        oracle_coords = set()
        for lams in integral:
            coords = [0] * 8
            for k, lam in enumerate(lams):
                coords[k] = lam
            oracle_coords.add(tuple(coords))
        found = roots(LATTICE)
        assert {tuple(int(c) for c in v.coords) for v in found} == oracle_coords
        assert len(found) == 16

    def test_exactly_signed_basis(self):
        expected = set()
        for label in LATTICE.space.labels:
            v = LATTICE.space.basis_vector(label)
            expected.add(v.coords)
            expected.add((-v).coords)
        assert {v.coords for v in roots(LATTICE)} == expected

    def test_halfsum_branch_empty(self):
        assert all(v.is_integral for v in roots(LATTICE))

    def test_halfsum_norm(self):
        assert LATTICE.halfsum.dot(LATTICE.halfsum) == -4

    def test_closed_under_negation_no_duplicates(self):
        found = roots(LATTICE)
        coords = [v.coords for v in found]
        assert len(set(coords)) == len(coords)
        for v in found:
            assert (-v).coords in set(coords)

    def test_every_root_has_norm_minus_two(self):
        for v in roots(LATTICE):
            assert v.dot(v) == -2

    def test_order_is_coordinate_order(self):
        # roots sorts integer t-tuples; sorting the vectors by their Fraction
        # coordinates t / 2 is the oracle
        assert list(roots(LATTICE)) == sorted(roots(LATTICE), key=lambda v: v.coords)


class TestParityTuples:
    @pytest.mark.parametrize("eps", [0, 1])
    @pytest.mark.parametrize("k", range(6))
    def test_matches_box_filter(self, k, eps):
        """The pruned recursion against a plain filter of the whole box."""
        by_budget = {budget: [] for budget in range(13)}
        for t in product(range(-3, 4), repeat=k):  # t^2 <= 12 forces |t| <= 3
            if all(x % 2 == eps for x in t):
                by_budget.setdefault(sum(x * x for x in t), []).append(t)
        for budget in range(13):
            assert list(_parity_tuples(k, budget, eps)) == by_budget[budget]


class TestLatticeShape:
    def test_rank(self):
        assert LATTICE.lattice.rank == 8

    def test_even(self):
        assert LATTICE.lattice.is_even()

    def test_negative_definite(self):
        assert LATTICE.lattice.is_negative_definite()

    def test_discriminant_order(self):
        group = LATTICE.lattice.discriminant_group()
        assert group.order == 64
        assert group.invariant_factors == (2,) * 6

    def test_halfsum_in_lattice(self):
        assert LATTICE.lattice.contains(LATTICE.halfsum)


class TestSaturation:
    def test_index_two(self):
        assert saturation(even_eight(1, 2), MODEL)[0] == 2

    def test_gram_matches_for_34(self):
        assert saturation(even_eight(3, 4), MODEL)[0] == 2
        assert saturation_gram_matches(even_eight(3, 4), MODEL)

    def test_all_fifteen(self):
        for i in range(1, 7):
            for j in range(i + 1, 7):
                eight = even_eight(i, j)
                assert saturation(eight, MODEL)[0] == 2
                assert saturation_gram_matches(eight, MODEL)

    def test_non_even_rejected(self):
        bad = NodeSet.from_labels(
            ["E0", "E12", "E13", "E14", "E15", "E16", "E23", "E24"]
        )
        with pytest.raises(ValueError, match="not an even set"):
            saturation(bad, MODEL)

    def test_one_pass_matches_both_functions(self):
        for eight in MODEL.even_eights():
            assert saturation(eight, MODEL) == (2, saturation_gram_matches(eight, MODEL)) == (2, True)

    def test_index_two_decides_the_span(self):
        # differential: a lattice that holds the nodes and their half-sum is
        # their span exactly when the nodes have index 2 in it
        for eight in MODEL.even_eights():
            labels = eight.labels()
            nodes = tuple(MODEL.node_class(label) for label in labels)
            half = MODEL.half_sum(eight)
            spanned = SublatticeModel(MODEL.space, nodes + (half,))
            larger = SublatticeModel(MODEL.space, nodes + (half, (nodes[0] + nodes[1]) * Fraction(1, 2)))
            for lattice in (MODEL.ns.coordinate_section(labels), spanned, larger):
                index = lattice.index_of_sublattice(SublatticeModel(MODEL.space, nodes))
                assert lattice.same_lattice(spanned) == (index == 2)
            assert not larger.same_lattice(spanned)

    def test_gram_of_non_even_set_does_not_raise(self):
        # seven nodes and a half-sum have the same Gram for any eight nodes
        bad = NodeSet.from_labels(["E0", "E12", "E13", "E14", "E15", "E16", "E23", "E24"])
        assert saturation_gram_matches(bad, MODEL) is True
        with pytest.raises(ValueError, match="not an even set"):
            saturation(bad, MODEL)


def vector_gram(s: NodeSet, model: JacobianKummerNS):
    """The former saturation Gram: the first seven node classes of s in
    mask-bit order (node k is basis vector k + 1) and the half-sum vector of
    s, from one `gram` call; None if it is not integral."""
    nodes = tuple(v for k, v in enumerate(model.space.basis[1:]) if s.bits >> k & 1)
    return _integral_table(*model.space.gram(nodes[:7] + (model.half_sum(s),)))


class TestSaturationGramAgainstVectors:
    @pytest.fixture(scope="class")
    def heavier_e56(self):
        # a model whose E56 squares to -4, so eights holding E56 lose the Gram
        def space(labels, diag):
            labels, diag = tuple(labels), list(diag)
            diag[labels.index("E56")] = -4
            return QuadraticSpace(labels, diag)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kummer_ns, "QuadraticSpace", space)
            return JacobianKummerNS()

    def test_all_thirty_eights(self, heavier_e56):
        eights = MODEL.even_eights()
        assert len(eights) == 30
        e56 = NodeSet.from_labels(["E56"]).bits
        for model in (MODEL, heavier_e56):
            for eight in eights:
                outside = ~eight.bits & 0xFFFF
                # the eight, the eight less its first node and the eight with
                # the first node outside it
                for s in (eight, NodeSet(eight.bits & (eight.bits - 1)), NodeSet(eight.bits | outside & -outside)):
                    expected = vector_gram(s, model) == LATTICE.canonical_gram
                    assert saturation_gram_matches(s, model) == expected
                    assert expected == (s.weight == 8 and (model is MODEL or not s.bits & e56))


    def test_nodes_read_by_bit_not_by_row(self, monkeypatch):
        # the rows reordered to tropes, L, nodes: rows 1 to 16 are tropes and
        # L, so only a read by node bit still finds the eight's nodes (the
        # tropes are orthogonal (-2)-classes too, but L has square 4)
        original = JacobianKummerNS.curve_table.func

        def nodes_last(self):
            t = original(self)
            order = [*range(17, len(t.labels)), 0, *range(1, 17)]
            return kummer_ns.CurveTable(
                tuple(t.labels[a] for a in order), tuple(t.classes[a] for a in order),
                [[t.table[a][b] for b in order] for a in order], t.scale,
            )

        monkeypatch.setattr(JacobianKummerNS, "curve_table", property(nodes_last))
        assert MODEL.curve_table.labels[16] == "L"
        assert all(saturation_gram_matches(eight, MODEL) for eight in MODEL.even_eights())


class TestSaturationCount:
    """The saturation index is the number of even sets inside the node set."""

    def test_eights_match_hnf(self):
        eights = MODEL.even_eights()
        assert len(eights) == 30
        for eight in eights:
            assert saturation(eight, MODEL)[0] == even_subsets(eight) == hnf_index(eight) == 2

    def test_even_sets_match_hnf(self):
        assert len(MODEL.even_sets) == 32
        for s in MODEL.even_sets:
            assert even_subsets(s) == hnf_index(s)

    def test_random_node_sets_match_hnf(self):
        rng = random.Random(20081017)
        sets = [NodeSet(rng.getrandbits(16)) for _ in range(60)]
        counts = [even_subsets(s) for s in sets]
        assert counts == [hnf_index(s) for s in sets]
        # the sample holds sets with no, one and several nontrivial even subsets
        assert {1, 2} <= set(counts) and max(counts) > 2
