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
    table, scale = n.space.gram(found)
    if any(table[k][k] != -2 * scale for k in range(len(found))):
        raise AssertionError("enumeration produced a non-root")
    return found


def saturation(eight: NodeSet, model: JacobianKummerNS) -> tuple[int, bool]:
    """The index of the span of one even eight's node classes inside its
    saturation, and `saturation_gram_matches` of the eight.  Raises unless
    the input is an even set of eight nodes.

    The index is the number of even sets inside the eight.  `even_sets` has
    checked that the lattice has denominator 2 and contains Z^17, so a lattice
    vector on the eight's coordinates is an integer node combination plus the
    half-sum of the set T of its half-odd coordinates, and it lies in the
    lattice iff T is even.  So the nodes and their half-sum span the
    saturation iff the index is 2.
    """
    if eight.weight != 8 or eight.bits not in model.even_masks:
        raise ValueError("not an even set of eight nodes")
    index = sum(1 for t in model.even_masks if not t & ~eight.bits)
    return index, saturation_gram_matches(eight, model)


def saturation_gram_matches(eight: NodeSet, model: JacobianKummerNS) -> bool:
    """Gram of the saturated even eight, in the basis of seven of its nodes
    plus their half-sum, equals the canonical Gram of the abstract rank-8
    lattice.  It is read off the curve table: the nodes are the rows whose
    node bit lies in the eight, the half-sum pairs with every column as half
    the sum of their rows, and the Gram scaled by 4 is divided once."""
    t = model.curve_table
    rows = [x for x, bit in enumerate(t.node_bits) if bit & eight.bits]
    half = t.pairings([(x, 1) for x in rows])
    gram4 = [[4 * t.table[a][b] for b in rows[:7]] + [2 * half[a]] for a in rows[:7]]
    gram4.append([2 * half[b] for b in rows[:7]] + [sum(half[x] for x in rows)])
    return _integral_table(gram4, 4 * t.scale) == nikulin_lattice().canonical_gram
