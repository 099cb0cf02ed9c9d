"""The rank-8 even negative-definite lattice spanned by eight orthogonal
(-2)-vectors and their half-sum, and the saturation of even eights inside
the Kummer divisor lattice.

The (-2)-vector enumeration is exhaustive by a provable bound rather than a
heuristic box: writing v = sum(lam_i c_i) + eps*d with eps in {0, 1}, norm -2
forces sum((lam_i + eps/2)^2) = 1, so every coefficient satisfies
|lam_i + eps/2| <= 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import isqrt

from .kummer_ns import JacobianKummerNS
from .lattice import QuadraticSpace, RationalVector, SublatticeModel
from .nodecode import NodeSet

HALF = Fraction(1, 2)

ROOT_BASIS_LABELS = tuple(f"c{i}" for i in range(1, 9))


class NikulinLattice:
    """Span of c1..c8 (pairwise orthogonal, norm -2) and d = half their sum."""

    def __init__(self) -> None:
        self.space = QuadraticSpace(ROOT_BASIS_LABELS, [-2] * 8)
        basis = [self.space.basis_vector(label) for label in ROOT_BASIS_LABELS]
        self.halfsum = HALF * sum(basis[1:], basis[0])
        self.lattice = SublatticeModel(self.space, tuple(basis) + (self.halfsum,))
        # Gram of c1..c7 and the half-sum, a Z-basis with determinant 2^6
        self.canonical_gram = self.space.gram(basis[:7] + [self.halfsum])


@cache
def nikulin_lattice() -> NikulinLattice:
    return NikulinLattice()


def _vectors_with_norm(n: NikulinLattice, eps: int, target: int) -> list[RationalVector]:
    """All lattice vectors sum(lam_i c_i) + eps*d of the given norm.

    The coefficient range is exact, not heuristic: the norm equals
    -(1/2) * sum((2*lam_i + eps)^2), so norm `target` needs
    sum((2*lam_i + eps)^2) == -2*target, bounding each |2*lam_i + eps|.
    """
    budget = -2 * target
    if budget < 0:
        return []
    # |2*lam + eps| <= isqrt(budget); solve for the integer lambda range
    out = []
    bound = isqrt(budget)
    lo = -(bound + eps) // 2
    hi = (bound - eps) // 2
    candidates = range(lo, hi + 1)
    for lams in product(candidates, repeat=8):
        s = 0
        for lam in lams:
            t = 2 * lam + eps
            s += t * t
        if s == budget:
            out.append(RationalVector(n.space, tuple(2 * lam + eps for lam in lams), 2))
    return out


def roots(n: NikulinLattice) -> tuple[RationalVector, ...]:
    """Every lattice vector of norm -2, enumerated exhaustively."""
    found = _vectors_with_norm(n, 0, -2) + _vectors_with_norm(n, 1, -2)
    for v in found:
        if v.norm() != -2:
            raise AssertionError("enumeration produced a non-root")
    return tuple(sorted(found, key=lambda v: v.coords))


def halfsum_branch_root_count(n: NikulinLattice) -> int:
    """Number of norm -2 vectors with a half-integer coefficient on d.

    Provably zero: those vectors need sum(lam_i^2 + lam_i) = -1, but each
    lam*(lam+1) is even and non-negative.
    """
    return len(_vectors_with_norm(n, 1, -2))


def saturation_index(eight: NodeSet, model: JacobianKummerNS) -> int:
    """Index of the span of the eight node classes inside its saturation.

    Raises unless the input is an even eight; also verifies that the
    saturation is exactly the span of the nodes together with the half-sum.
    """
    if eight.weight != 8 or not model.is_even_set(eight):
        raise ValueError("not an even set of eight nodes")
    labels = eight.labels()
    nodes = tuple(model.node_class(label) for label in labels)
    span = SublatticeModel(model.space, nodes)
    sat = model.ns.coordinate_section(labels)
    index = sat.index_of_sublattice(span)
    with_halfsum = SublatticeModel(model.space, nodes + (model.half_sum(eight),))
    if not sat.same_lattice(with_halfsum):
        raise ValueError("saturation is not generated by the nodes and the half-sum")
    return index


def saturation_gram_matches(eight: NodeSet, model: JacobianKummerNS) -> bool:
    """Gram of the saturated even eight, in the basis of seven nodes plus the
    half-sum, equals the canonical Gram of the abstract rank-8 lattice."""
    labels = eight.labels()
    nodes = [model.node_class(label) for label in labels]
    basis = nodes[:7] + [model.half_sum(eight)]
    return model.space.gram(basis) == nikulin_lattice().canonical_gram
