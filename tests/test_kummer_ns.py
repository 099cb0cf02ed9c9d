from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummerlab.kummer_ns import (
    JacobianKummerNS,
    even_eight,
    isogeny_polarization_type,
    jacobian_kummer_ns,
    trope_support,
)
from kummerlab.labels import BASIS_LABELS, INDEX_PAIRS, NODE_LABELS, TROPE_LABELS
from kummerlab.lattice import SublatticeModel
from kummerlab.nodecode import (
    EMPTY,
    FULL,
    NodeSet,
    code_from_even_sets,
    f2_basis,
    f2_reduce,
)

MODEL = jacobian_kummer_ns()
HALF = Fraction(1, 2)


def vec(mapping):
    return MODEL.space.vector(mapping)


def model_with_lattice(gens):
    """A fresh model whose divisor lattice is replaced by the span of gens."""
    model = JacobianKummerNS()
    model.ns = SublatticeModel(model.space, tuple(gens))
    return model


def unit_vectors(model, scale=1):
    return [scale * model.space.basis_vector(label) for label in BASIS_LABELS]


def hnf_scan(model):
    """Reference even-set scan: one HNF membership test per node subset."""
    assert model.ns.denominator == 2
    positions = [model.space.index(label) for label in NODE_LABELS]
    found = []
    for mask in range(1 << 16):
        scaled = [0] * model.space.dim  # 2 * half-sum of the subset
        for k, p in enumerate(positions):
            if mask >> k & 1:
                scaled[p] = 1
        if model.ns.contains_scaled(scaled):
            found.append(NodeSet(mask))
    return tuple(found)


@pytest.fixture(scope="module")
def oracle():
    """The model and a perturbed lattice (Z^17 plus only the tropes C0 and
    C12), each with its even sets by the reference scan; the only place in
    the suite where the per-subset scan runs."""
    perturbed = model_with_lattice(
        unit_vectors(MODEL) + [MODEL.trope_class("C0"), MODEL.trope_class("C12")]
    )
    return [(MODEL, hnf_scan(MODEL)), (perturbed, hnf_scan(perturbed))]


class TestTropeClasses:
    def test_c0(self):
        expected = vec(
            {"L": HALF, "E0": -HALF, "E12": -HALF, "E13": -HALF,
             "E14": -HALF, "E15": -HALF, "E16": -HALF}
        )
        assert MODEL.trope_class("C0") == expected

    def test_c16(self):
        expected = vec(
            {"L": HALF, "E0": -HALF, "E16": -HALF, "E26": -HALF,
             "E36": -HALF, "E46": -HALF, "E56": -HALF}
        )
        assert MODEL.trope_class("C16") == expected

    def test_c23_uses_complement_triple(self):
        expected = vec(
            {"L": HALF, "E12": -HALF, "E13": -HALF, "E23": -HALF,
             "E45": -HALF, "E46": -HALF, "E56": -HALF}
        )
        assert MODEL.trope_class("C23") == expected

    def test_supports_have_six_nodes(self):
        for t in TROPE_LABELS:
            assert len(trope_support(t)) == 6

    def test_all_tropes_in_lattice(self):
        for t in TROPE_LABELS:
            assert MODEL.ns.contains(MODEL.trope_class(t))

    def test_trope_pairings(self):
        tropes = [MODEL.trope_class(t) for t in TROPE_LABELS]
        big = MODEL.space.basis_vector("L")
        for t in tropes:
            assert t.norm() == -2
            assert MODEL.space.inner(big, t) == 2
        for i in range(16):
            for j in range(i + 1, 16):
                assert tropes[i].dot(tropes[j]) == 0

    def test_unknown_trope(self):
        with pytest.raises(ValueError):
            MODEL.trope_class("C21")
        with pytest.raises(ValueError):
            MODEL.trope_class("C11")  # the trope is C0
        with pytest.raises(ValueError):
            MODEL.trope_class("E12")

    @pytest.mark.parametrize(
        "label", ["C12x", "C1", "C11", "C21", "c12", "C0 ", "E12", "", 5, None]
    )
    def test_support_of_malformed_label_rejected(self, label):
        # a positional parse would read "C12x" as C12 and index past "C1"
        with pytest.raises(ValueError, match="unknown trope label"):
            trope_support(label)


class TestIncidence:
    def test_entries(self):
        table = MODEL.incidence_matrix()
        t_index = {t: i for i, t in enumerate(TROPE_LABELS)}
        n_index = {n: i for i, n in enumerate(NODE_LABELS)}
        assert table[t_index["C0"]][n_index["E0"]] == 1
        assert table[t_index["C0"]][n_index["E34"]] == 0

    def test_sixteen_six(self):
        table = MODEL.incidence_matrix()
        assert all(x in (0, 1) for row in table for x in row)
        assert all(sum(row) == 6 for row in table)
        assert all(sum(table[r][c] for r in range(16)) == 6 for c in range(16))


class TestCoveringInvolution:
    def test_action_on_l(self):
        big, e0 = MODEL.space.basis_vector("L"), MODEL.space.basis_vector("E0")
        assert MODEL.covering_involution(big) == 3 * big - 4 * e0
        assert MODEL.covering_involution(e0) == 2 * big - 3 * e0

    def test_fixes_nodes(self):
        for label in NODE_LABELS[1:]:
            node = MODEL.node_class(label)
            assert MODEL.covering_involution(node) == node

    def test_involution_by_expansion(self):
        # alpha(alpha(E0)) = 2(3L - 4E0) - 3(2L - 3E0) = E0
        big, e0 = MODEL.space.basis_vector("L"), MODEL.space.basis_vector("E0")
        assert 2 * (3 * big - 4 * e0) - 3 * (2 * big - 3 * e0) == e0
        for label in MODEL.space.labels:
            v = MODEL.space.basis_vector(label)
            assert MODEL.covering_involution(MODEL.covering_involution(v)) == v

    def test_trope_action(self):
        big, e0 = MODEL.space.basis_vector("L"), MODEL.space.basis_vector("E0")
        for j in range(2, 7):
            t = MODEL.trope_class(f"C1{j}")
            assert MODEL.covering_involution(t) == t
        c0 = MODEL.trope_class("C0")
        assert MODEL.covering_involution(c0) == c0
        c34 = MODEL.trope_class("C34")
        assert MODEL.covering_involution(c34) == c34 + big - 2 * e0

    def test_is_isometry(self):
        assert MODEL.ns.is_isometry(MODEL.covering_involution_images())


class TestEvenEights:
    def test_pair_12(self):
        assert even_eight(1, 2) == NodeSet.from_labels(
            ["E13", "E14", "E15", "E16", "E23", "E24", "E25", "E26"]
        )

    def test_pair_34_by_formula(self):
        assert even_eight(3, 4) == NodeSet.from_labels(
            ["E13", "E23", "E35", "E36", "E14", "E24", "E45", "E46"]
        )

    def test_weight_and_no_e0(self):
        seen = set()
        for i in range(1, 7):
            for j in range(i + 1, 7):
                s = even_eight(i, j)
                assert s.weight == 8
                assert "E0" not in s
                seen.add(s)
        assert len(seen) == 15

    def test_table_against_formula(self):
        # the former per-call construction: bit k is the node of INDEX_PAIRS[k - 1]
        for i, j in INDEX_PAIRS:
            formula = NodeSet(sum(1 << k for k, p in enumerate(INDEX_PAIRS, 1) if (i in p) != (j in p)))
            assert even_eight(i, j) == formula

    @pytest.mark.parametrize("pair", [(2, 2), (2, 1), (0, 3), (1, 7), ("1", "2"), ([1], 2)])
    def test_bad_indices(self, pair):
        with pytest.raises(ValueError, match=r"need 1 <= i < j <= 6, got"):
            even_eight(*pair)


class TestScan:
    def test_census(self):
        evens = MODEL.even_sets
        assert len(evens) == 32
        weights = sorted(s.weight for s in evens)
        assert weights == [0] + [8] * 30 + [16]
        assert EMPTY in evens and FULL in evens

    def test_fifteen_without_e0(self):
        eights = MODEL.even_eights()
        assert len(eights) == 30
        no_e0 = {s for s in eights if "E0" not in s}
        expected = {even_eight(i, j) for i in range(1, 7) for j in range(i + 1, 7)}
        assert no_e0 == expected

    def test_is_even_set_matches_scan(self):
        evens = set(MODEL.even_sets)
        assert MODEL.is_even_set(even_eight(2, 5))
        assert not MODEL.is_even_set(NodeSet.from_labels(["E12", "E13"]))
        for s in list(evens)[:5]:
            assert MODEL.is_even_set(s)


class TestGrayCodeScan:
    def test_matches_hnf_oracle(self, oracle):
        (model, expected), (perturbed, perturbed_expected) = oracle
        assert len(expected) == 32
        assert model.even_sets == expected
        assert perturbed_expected == (EMPTY, even_eight(1, 2))
        assert perturbed.even_sets == perturbed_expected

    def test_denominator_guard(self):
        model = model_with_lattice(unit_vectors(MODEL))
        with pytest.raises(ValueError, match="denominator 1"):
            model.even_sets

    def test_integer_lattice_guard(self):
        gens = unit_vectors(MODEL, 2) + [MODEL.trope_class(t) for t in TROPE_LABELS]
        model = model_with_lattice(gens)
        assert model.ns.denominator == 2
        with pytest.raises(ValueError, match="lacks the basis vector"):
            model.even_sets

    @pytest.mark.parametrize(
        "gens, message",
        [
            (lambda: unit_vectors(MODEL), "denominator 1"),
            (lambda: unit_vectors(MODEL, 2) + [MODEL.trope_class(t) for t in TROPE_LABELS],
             "lacks the basis vector"),
        ],
        ids=["denominator", "integer_lattice"],
    )
    def test_is_even_set_raises_the_guard_error(self, gens, message):
        # is_even_set reads the even-set code, so where the scan's guard
        # fails it raises that ValueError instead of answering
        model = model_with_lattice(gens())
        for s in (EMPTY, even_eight(1, 2), FULL):
            with pytest.raises(ValueError, match=message):
                model.is_even_set(s)

    def test_code_dimension_from_syndrome_rank(self):
        _, hnf, _ = MODEL.ns._scaled
        basis = f2_basis(sum(x % 2 << k for k, x in enumerate(row)) for row in hnf)
        syndromes = [
            f2_reduce(1 << MODEL.space.index(label), basis) for label in NODE_LABELS
        ]
        dimension = code_from_even_sets(MODEL.even_sets).dimension
        assert 16 - len(f2_basis(syndromes)) == dimension == 5


def mapping_sums(s):
    """A node set's sum and half-sum, each a label -> value mapping built into
    a vector by `QuadraticSpace.vector`."""
    return (
        vec({label: 1 for label in s.labels()}),
        vec({label: HALF for label in s.labels()}),
    )


class TestNodeSums:
    def test_even_sets_match_mapping_construction(self):
        assert len(MODEL.even_sets) == 32
        for s in MODEL.even_sets:
            assert (2 * MODEL.half_sum(s), MODEL.half_sum(s)) == mapping_sums(s)

    @given(st.integers(min_value=0, max_value=FULL.bits))
    @settings(max_examples=200, deadline=None)
    def test_random_masks_match_mapping_construction(self, bits):
        s = NodeSet(bits)
        half = MODEL.half_sum(s)
        assert (2 * half, half) == mapping_sums(s)
        assert half.den == (2 if bits else 1)


class TestEvenEightIdentity:
    def test_all_pairs(self):
        for i in range(1, 7):
            for j in range(i + 1, 7):
                assert MODEL.even_eight_identity(i, j)

    def test_perturbation_fails(self):
        big = MODEL.space.basis_vector("L")
        e0 = MODEL.space.basis_vector("E0")
        lhs = (
            2 * (big - e0)
            - 2 * MODEL.trope_class("C0")
            - 2 * MODEL.trope_class("C12")
            - 2 * MODEL.node_class("E12")
        )
        rhs = 2 * MODEL.half_sum(even_eight(1, 2))
        assert lhs == rhs
        assert lhs + e0 != rhs


class TestContainmentQueries:
    def test_quadruple_1324(self):
        query = NodeSet.from_labels(["E13", "E14", "E23", "E24"])
        matches = MODEL.even_eights_containing(query)
        restricted = {s for s in matches if "E0" not in s}
        assert restricted == {even_eight(1, 2), even_eight(3, 4)}
        # the full census adds exactly the complement of the (5,6) eight
        assert set(matches) == restricted | {even_eight(5, 6).complement()}

    def test_empty_query_returns_all(self):
        assert len(MODEL.even_eights_containing(EMPTY)) == 30

    def test_second_quadruple(self):
        query = NodeSet.from_labels(["E12", "E23", "E15", "E35"])
        matches = MODEL.even_eights_containing(query)
        restricted = {s for s in matches if "E0" not in s}
        assert len(restricted) == 2
        assert even_eight(2, 5) in restricted
        assert restricted == {even_eight(2, 5), even_eight(1, 3)}
        assert set(matches) == restricted | {even_eight(4, 6).complement()}


class TestDiscriminantElements:
    def test_independent_pair(self):
        assert MODEL.independent_discriminant_elements()

    def test_individual_facts(self):
        v1 = MODEL.half_sum(NodeSet.from_labels(["E13", "E14", "E23", "E24"]))
        v2 = MODEL.half_sum(NodeSet.from_labels(["E12", "E23", "E15", "E35"]))
        assert MODEL.ns.in_dual(v1) and not MODEL.ns.contains(v1)
        assert MODEL.ns.in_dual(v2) and not MODEL.ns.contains(v2)
        assert not MODEL.ns.contains(v1 + v2)


class TestPolarization:
    def test_principal_degree_two(self):
        assert isogeny_polarization_type((1, 1), 2) == (1, 2)

    def test_identity_isogeny(self):
        assert isogeny_polarization_type((1, 1), 1) == (1, 1)

    def test_chi_doubling_convention(self):
        assert isogeny_polarization_type((1, 2), 2) == (1, 4)

    def test_non_chain_rejected(self):
        with pytest.raises(ValueError):
            isogeny_polarization_type((2, 3), 2)

    def test_bad_degree_rejected(self):
        with pytest.raises(ValueError):
            isogeny_polarization_type((1, 1), 0)
        with pytest.raises(ValueError):
            isogeny_polarization_type((), 2)

    @pytest.mark.parametrize(
        "ptype, degree",
        [
            ((1.5, 2), 2),
            ((1, 2.0), 2),
            (("1", "2"), 2),
            ((True, 1), 2),
            ((1, 1), True),
            ((1, 1), 2.0),
        ],
    )
    def test_non_int_input_rejected(self, ptype, degree):
        with pytest.raises(ValueError):
            isogeny_polarization_type(ptype, degree)
