"""The rank-8 even negative-definite lattice spanned by eight orthogonal
(-2)-vectors and their half-sum, and the saturation of even eights inside
the Kummer divisor lattice.

The (-2)-vector enumeration is exhaustive by a provable bound rather than a
heuristic box.  Every lattice vector is v = sum(lam_i c_i) + eps*d with
eps in {0, 1}; in the coordinates t_i = 2*lam_i + eps, so t_i = eps (mod 2),
it is v = sum(t_i c_i) / 2 of norm -(1/2) * sum(t_i^2), and norm -2 means
sum(t_i^2) == 4.  A short recursion picks t_1, t_2, ... in turn and bounds
each by what the budget leaves after the later coordinates take their least
square, eps (Fincke-Pohst pruning), so no partial sum over the budget is
ever extended.  For eps = 1 the eight odd squares already need 8 > 4, so
the half-sum branch is empty.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache
from math import isqrt

from .kummer_ns import JacobianKummerNS
from .lattice import QuadraticSpace, RationalVector, SublatticeModel, _integral_table
from .nodecode import NodeSet

ROOT_BASIS_LABELS = tuple(f"c{i}" for i in range(1, 9))


class NikulinLattice:
    """Span of c1..c8 (pairwise orthogonal, norm -2) and d = half their sum."""

    def __init__(self) -> None:
        self.space = QuadraticSpace(ROOT_BASIS_LABELS, [-2] * 8)
        basis = [self.space.basis_vector(label) for label in ROOT_BASIS_LABELS]
        self.halfsum = RationalVector(self.space, (1,) * 8, 2)
        self.lattice = SublatticeModel(self.space, tuple(basis) + (self.halfsum,))
        # Gram of c1..c7 and the half-sum, a Z-basis with determinant 2^6
        self.canonical_gram = _integral_table(*self.space.gram(basis[:7] + [self.halfsum]))


@cache
def nikulin_lattice() -> NikulinLattice:
    return NikulinLattice()


def _parity_tuples(k: int, budget: int, eps: int) -> Iterator[tuple[int, ...]]:
    """Every k-tuple of integers t_i = eps (mod 2) with sum(t_i^2) == budget,
    in lexicographic order."""
    if k == 0:
        if budget == 0:
            yield ()
        return
    # the other k - 1 coordinates need at least eps each
    room = budget - (k - 1) * eps
    if room < 0:
        return
    bound = isqrt(room)
    for t in range(-bound, bound + 1):
        if t % 2 == eps:
            for rest in _parity_tuples(k - 1, budget - t * t, eps):
                yield (t, *rest)


def roots(n: NikulinLattice) -> tuple[RationalVector, ...]:
    """Every lattice vector of norm -2, enumerated exhaustively, in the
    lexicographic order of its coordinates t / 2."""
    tuples = sorted(t for eps in (0, 1) for t in _parity_tuples(n.space.dim, 4, eps))
    found = tuple(RationalVector(n.space, t, 2) for t in tuples)
    for v in found:
        if v.norm() != -2:
            raise AssertionError("enumeration produced a non-root")
    return found


def _eight(eight: NodeSet, model: JacobianKummerNS) -> tuple[tuple[RationalVector, ...], RationalVector, bool]:
    """The node classes of a node set, read off its mask bits (node k is basis
    vector k + 1), their half-sum, and whether seven nodes and it have the canonical Gram."""
    nodes = tuple(v for k, v in enumerate(model.space.basis[1:]) if eight.bits >> k & 1)
    half = model.half_sum(eight)
    gram = _integral_table(*model.space.gram(nodes[:7] + (half,)))
    return nodes, half, gram == nikulin_lattice().canonical_gram


def saturation(eight: NodeSet, model: JacobianKummerNS) -> tuple[int, bool]:
    """`saturation_index` and `saturation_gram_matches` of one even eight, whose
    node classes and half-sum are built once.  Raises unless the input is an
    even eight and its saturation is the span of the nodes and the half-sum."""
    nodes, half, gram_ok = _eight(eight, model)
    if eight.weight != 8 or not model.ns.contains(half):  # `is_even_set` on this half-sum
        raise ValueError("not an even set of eight nodes")
    sat = model.ns.coordinate_section(eight.labels())
    index = sat.index_of_sublattice(SublatticeModel(model.space, nodes))
    # the half-sum lies in the section and spans an index-2 lattice with the
    # nodes, so it and the nodes span the section iff the index is 2
    if index != 2:
        raise ValueError("saturation is not generated by the nodes and the half-sum")
    return index, gram_ok


def saturation_index(eight: NodeSet, model: JacobianKummerNS) -> int:
    """Index of the span of the eight node classes inside its saturation."""
    return saturation(eight, model)[0]


def saturation_gram_matches(eight: NodeSet, model: JacobianKummerNS) -> bool:
    """Gram of the saturated even eight, in the basis of seven nodes plus the
    half-sum, equals the canonical Gram of the abstract rank-8 lattice."""
    return _eight(eight, model)[2]
