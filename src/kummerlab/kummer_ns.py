"""Rank-17 divisor-class model of a generic jacobian Kummer surface.

The ambient space has basis ``L, E0, E12, ..., E56`` with the diagonal form
``diag(4, -2, ..., -2)``: the sixteen node classes are mutually orthogonal
(-2)-classes orthogonal to L.  The sixteen trope classes are half-integer
vectors; together with the basis they generate the full divisor-class
lattice, which is where every membership question (evenness of a node set,
dual-lattice checks) is decided.
"""

from __future__ import annotations

from functools import cache, cached_property

from ._frozen import Frozen
from .labels import (
    BASIS_LABELS,
    INDEX_PAIRS,
    NODE_INDEX,
    NODE_LABELS,
    TROPE_LABELS,
    complement_triple,
    node_label,
)
from .lattice import QuadraticSpace, RationalVector, SublatticeModel
from .nodecode import NodeSet, f2_basis, f2_reduce, f2_span


def trope_support(label: str) -> tuple[str, ...]:
    """The six basis labels subtracted from L in the trope's defining relation.

    ``C0`` and the ``C1j`` are the covering-ramification tropes: each uses E0
    together with the five nodes whose index pair contains a fixed symbol.
    The remaining ``Cjk`` come from conics through six of the double points
    and use six nodes, E0 excluded.  Any label outside ``TROPE_LABELS``
    raises ``ValueError``.
    """
    if label not in TROPE_LABELS:
        raise ValueError(f"unknown trope label {label!r}")
    if label == "C0":
        return ("E0",) + tuple(node_label(1, k) for k in range(2, 7))
    j, k = int(label[1]), int(label[2])
    if j == 1:
        return ("E0",) + tuple(node_label(m, k) for m in range(1, 7) if m != k)
    l, m, n = complement_triple(j, k)
    return (
        node_label(1, j),
        node_label(1, k),
        node_label(j, k),
        node_label(l, m),
        node_label(l, n),
        node_label(m, n),
    )


class CurveTable(Frozen):
    """Labelled classes from one Gram (on the model L, the sixteen nodes, then the
    sixteen tropes): ``classes[a]`` and ``classes[b]`` pair to ``table[a][b] / scale``,
    and ``row_of`` maps each label to its row.
    Each row a gets masks derived here, so no table is read with another's:
    ``node_bits[a]``, the ``NodeSet`` bit of its label (0 off the nodes), and
    ``node_rows`` back; ``meets[a]``, the rows b it pairs with nonzero (a unless
    of square 0); ``fractional[a]``, those it pairs with non-integrally."""

    __slots__ = ("labels", "classes", "table", "scale", "row_of", "node_bits", "node_rows", "meets", "fractional")

    def __init__(self, labels: tuple[str, ...], classes: tuple, table: list[list[int]], scale: int) -> None:
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "row_of", {label: a for a, label in enumerate(labels)})
        bits = tuple(1 << NODE_INDEX[label] if label in NODE_INDEX else 0 for label in labels)
        object.__setattr__(self, "node_bits", bits)
        object.__setattr__(self, "node_rows", {bit: a for a, bit in enumerate(bits) if bit})
        object.__setattr__(self, "meets", tuple(sum(1 << b for b, p in enumerate(row) if p) for row in table))
        fractional = tuple(sum(1 << b for b, p in enumerate(row) if p % scale) for row in table)
        object.__setattr__(self, "fractional", fractional)

    def pairings(self, comps) -> tuple[int, ...]:
        """Pairings of the sum of m * (class of row x) over the (x, m) pairs
        with every column, times the scale."""
        return tuple(map(sum, zip(*[self.table[x] for x, m in comps for _ in range(m)])))


class JacobianKummerNS:
    """The divisor-class lattice together with its node/trope bookkeeping.

    Immutable after construction; the even-set scan and curve table are cached.
    """

    def __init__(self) -> None:
        self.space = QuadraticSpace(BASIS_LABELS, [4] + [-2] * 16)
        self._tropes = {}
        for label in TROPE_LABELS:
            nums = [0] * self.space.dim
            nums[self.space.index("L")] = 1
            for node in trope_support(label):
                nums[self.space.index(node)] = -1
            self._tropes[label] = RationalVector(self.space, tuple(nums), 2)
        gens = [self.space.basis_vector(label) for label in BASIS_LABELS]
        self.ns = SublatticeModel(self.space, tuple(gens) + tuple(self._tropes.values()))

    # -- classes ---------------------------------------------------------

    def node_class(self, label: str) -> RationalVector:
        try:
            k = NODE_INDEX[label]
        except (KeyError, TypeError):
            raise ValueError(f"unknown node label {label!r}") from None
        return self.space.basis[k + 1]  # BASIS_LABELS is L, then NODE_LABELS

    def trope_class(self, label: str) -> RationalVector:
        """(L - sum of the trope's six support classes) / 2."""
        try:
            return self._tropes[label]
        except (KeyError, TypeError):
            raise ValueError(f"unknown trope label {label!r}") from None

    def _node_indicator(self, s: NodeSet, den: int) -> RationalVector:
        """The sum of the node classes of s, divided by den: bit k of the mask
        is coordinate k + 1, after L."""
        nums = (0, *[s.bits >> k & 1 for k in range(len(NODE_LABELS))])
        return RationalVector(self.space, nums, den)

    def node_set_sum(self, s: NodeSet) -> RationalVector:
        return self._node_indicator(s, 1)

    def half_sum(self, s: NodeSet) -> RationalVector:
        return self._node_indicator(s, 2)

    # -- configuration -----------------------------------------------------

    @cached_property
    def curve_table(self) -> CurveTable:
        """The curve table of L, the nodes and the tropes, built on first use."""
        classes = self.space.basis + tuple(self._tropes.values())
        return CurveTable(BASIS_LABELS + TROPE_LABELS, classes, *self.space.gram(classes))

    def incidence_matrix(self) -> list[list[int]]:
        """16 x 16 table of trope-node intersection numbers, in canonical order,
        read off the curve table."""
        t = self.curve_table
        at = t.row_of
        rows = [[divmod(t.table[at[c]][at[n]], t.scale) for n in NODE_LABELS] for c in TROPE_LABELS]
        if any(r for row in rows for _, r in row):
            raise ValueError("non-integral intersection of a trope with a node")
        return [[q for q, _ in row] for row in rows]

    # -- the double-plane covering involution --------------------------------

    def covering_involution(self, v: RationalVector) -> RationalVector:
        """Linear extension of: L -> 3L - 4E0, E0 -> 2L - 3E0, nodes fixed."""
        self.space._check_member(v)
        a, b, *rest = v.nums
        return RationalVector(self.space, (3 * a + 2 * b, -4 * a - 3 * b, *rest), v.den)

    def covering_involution_images(self) -> dict[str, RationalVector]:
        return {
            label: self.covering_involution(self.space.basis_vector(label))
            for label in BASIS_LABELS
        }

    # -- even sets -------------------------------------------------------

    @cached_property
    def even_sets(self) -> tuple[NodeSet, ...]:
        """All node subsets whose half-sum lies in the lattice, in mask order.

        The lattice must contain Z^17 (ValueError otherwise), so the scaled
        half-sum of S, the 0/1 vector of S, lies in the scaled lattice exactly
        when it does modulo 2, where membership is linear in S over F2.  Each
        node gets the syndrome of its unit vector modulo the scaled HNF rows
        mod 2, and the even sets are the kernel of the syndrome map.  Tagging
        node k's syndrome with bit k below it, an echelon basis of the tagged
        masks has its rows with no syndrome bit left spanning that kernel.
        """
        den, hnf, _ = self.ns._scaled
        if den != 2:
            raise ValueError(f"unexpected lattice denominator {den}")
        dim = self.space.dim
        for i in range(dim):
            if not self.ns.contains_scaled([2 if k == i else 0 for k in range(dim)]):
                raise ValueError(f"lattice lacks the basis vector {self.space.labels[i]}")
        basis = f2_basis(
            sum(1 << k for k, x in enumerate(row) if x & 1) for row in hnf
        )
        n = len(NODE_LABELS)
        tagged = f2_basis(
            f2_reduce(1 << self.space.index(label), basis) << n | 1 << k
            for k, label in enumerate(NODE_LABELS)
        )
        kernel = [m for m in tagged if not m >> n]
        return tuple(sorted(NodeSet(m) for m in f2_span(kernel)))

    @cached_property
    def even_masks(self) -> frozenset[int]:
        """The bit masks of `even_sets`.  `is_even_set` reads them, so where the
        scan's guard fails it raises that ValueError instead of answering."""
        return frozenset(s.bits for s in self.even_sets)

    def is_even_set(self, s: NodeSet) -> bool:
        return s.bits in self.even_masks

    def even_eights(self) -> tuple[NodeSet, ...]:
        return tuple(s for s in self.even_sets if s.weight == 8)

    def even_eights_containing(self, s: NodeSet) -> tuple[NodeSet, ...]:
        return tuple(e for e in self.even_eights() if s.is_subset_of(e))

    def even_eight_identity(self, i: int, j: int) -> bool:
        """The node sum of the (i, j) even eight equals
        2(L - E0) - 2 C_1i - 2 C_1j - 2 E_ij, exactly: the node sum plus
        2(E0 + C_1i + C_1j + E_ij) pairs like 2L with every curve-table column,
        and L and the nodes, among the columns, are a basis of the space."""
        if not (1 <= i < j <= 6):
            raise ValueError(f"need 1 <= i < j <= 6, got ({i}, {j})")
        t, bits = self.curve_table, even_eight(i, j).bits
        twice = ("E0", "C0" if i == 1 else f"C1{i}", f"C1{j}", node_label(i, j))
        rhs = [(x, 1) for bit, x in t.node_rows.items() if bit & bits] + [(t.row_of[c], 2) for c in twice]
        return t.pairings(rhs) == t.pairings([(t.row_of["L"], 2)])

    # -- dual-lattice elements ----------------------------------------------

    def independent_discriminant_elements(self) -> bool:
        """Both distinguished half-sums of four nodes lie in the dual lattice,
        outside the lattice, with classes independent modulo the lattice."""
        v1 = self.half_sum(NodeSet.from_labels(["E13", "E14", "E23", "E24"]))
        v2 = self.half_sum(NodeSet.from_labels(["E12", "E23", "E15", "E35"]))
        return (
            self.ns.in_dual(v1)
            and self.ns.in_dual(v2)
            and not self.ns.contains(v1)
            and not self.ns.contains(v2)
            and not self.ns.contains(v1 + v2)
        )


@cache
def jacobian_kummer_ns() -> JacobianKummerNS:
    """Shared immutable model instance."""
    return JacobianKummerNS()


def even_eight(i: int, j: int) -> NodeSet:
    """The eight nodes E_ik, E_jk for k outside {i, j}; never contains E0."""
    if not (1 <= i < j <= 6):
        raise ValueError(f"need 1 <= i < j <= 6, got ({i}, {j})")
    # bit k of the mask is the node of the pair INDEX_PAIRS[k - 1]
    return NodeSet(sum(1 << k for k, p in enumerate(INDEX_PAIRS, 1) if (i in p) != (j in p)))


def isogeny_polarization_type(ptype: tuple[int, ...], degree: int) -> tuple[int, ...]:
    """Pull a polarization type back along an isogeny of the given degree.

    The product of the type entries scales by the degree, which multiplies
    the last entry; a divisor chain stays a divisor chain, so the result is
    already in elementary-divisor form.
    """
    entries = tuple(ptype)
    if not entries or any(type(d) is not int or d <= 0 for d in entries):
        raise ValueError(
            f"polarization type must be a nonempty tuple of positive ints, got {ptype!r}"
        )
    for a, b in zip(entries, entries[1:]):
        if b % a != 0:
            raise ValueError(f"type entries must form a divisor chain, got {entries}")
    if type(degree) is not int or degree < 1:
        raise ValueError(f"isogeny degree must be a positive integer, got {degree!r}")
    return entries[:-1] + (entries[-1] * degree,)


__all__ = [
    "CurveTable",
    "JacobianKummerNS",
    "even_eight",
    "isogeny_polarization_type",
    "jacobian_kummer_ns",
    "trope_support",
]
