"""Binary-code view of node subsets.

A ``NodeSet`` is a 16-bit mask over the canonical node order (``E0, E12, ...,
E56``).  The family of even node sets, viewed as vectors over F2, must form a
linear code whose weight-8 words behave like the affine hyperplanes of a
4-dimensional geometry: distinct hyperplanes are parallel (disjoint) or meet
in a plane of four points.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import total_ordering
from itertools import combinations

from ._frozen import Frozen
from .labels import NODE_INDEX, NODE_LABELS

GROUND_SIZE = 16
_FULL_MASK = (1 << GROUND_SIZE) - 1


class CodeError(ValueError):
    """Raised when a family of node sets violates a code-structure requirement."""


@total_ordering
class NodeSet(Frozen):
    """An immutable subset of the sixteen node labels, stored as a bitmask."""

    __slots__ = ("bits",)

    def __init__(self, bits: int = 0) -> None:
        if type(bits) is not int or not 0 <= bits <= _FULL_MASK:
            raise CodeError(f"bitmask must be an int in [0, 2^16), got {bits!r}")
        object.__setattr__(self, "bits", bits)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.bits == other.bits

    def __lt__(self, other: "NodeSet") -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.bits < other.bits

    def __hash__(self) -> int:
        return hash((self.bits,))

    @classmethod
    def from_labels(cls, labels: Iterable[str]) -> "NodeSet":
        try:
            bits = sum({1 << NODE_INDEX[label] for label in labels})
        except (KeyError, TypeError) as exc:
            raise CodeError(f"unknown node label, or labels not iterable: {exc}") from None
        return cls(bits)

    def labels(self) -> tuple[str, ...]:
        return tuple(
            label for k, label in enumerate(NODE_LABELS) if self.bits >> k & 1
        )

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, label: str) -> bool:
        try:
            k = NODE_INDEX[label]
        except (KeyError, TypeError):
            raise CodeError(f"unknown node label {label!r}") from None
        return bool(self.bits >> k & 1)

    def complement(self) -> "NodeSet":
        return NodeSet(self.bits ^ _FULL_MASK)

    def is_subset_of(self, other: "NodeSet") -> bool:
        return self.bits & other.bits == self.bits


EMPTY = NodeSet(0)
FULL = NodeSet(_FULL_MASK)


class BinaryCode(Frozen):
    """A linear code over F2 on the sixteen node positions, stored extensionally."""

    __slots__ = ("codewords",)

    def __init__(self, codewords: Iterable[NodeSet]) -> None:
        words = frozenset(codewords)
        if not all(isinstance(w, NodeSet) for w in words):
            raise CodeError("codewords must be NodeSets")
        # the words lie in their own span, so they are all of it (closed under
        # symmetric difference, the empty word included) iff they number 2^rank
        if len(words) != 1 << len(f2_basis(w.bits for w in words)):
            raise CodeError("codewords do not form a linear code over F2")
        object.__setattr__(self, "codewords", words)

    @property
    def dimension(self) -> int:
        return len(self.codewords).bit_length() - 1


def f2_reduce(mask: int, basis: Iterable[int]) -> int:
    """Reduce a bit mask modulo the span of an echelon basis over F2.

    ``basis`` must list masks with distinct leading bits in descending order,
    as `f2_basis` returns them.  The result has none of those leading bits
    set, so it is the same for every mask of a coset of the span: it is
    linear in ``mask`` and zero exactly when ``mask`` lies in the span.
    """
    for b in basis:
        mask = min(mask, mask ^ b)
    return mask


def f2_basis(masks: Iterable[int]) -> list[int]:
    """Echelon basis over F2 of the span of the given bit masks."""
    basis: list[int] = []
    for mask in masks:
        mask = f2_reduce(mask, basis)
        if mask:
            basis.append(mask)
            basis.sort(reverse=True)
    return basis


def f2_span(masks: Iterable[int]) -> set[int]:
    """Linear span over F2 via a reduced bit basis."""
    span = {0}
    for b in f2_basis(masks):
        span |= {w ^ b for w in span}
    return span


def code_from_even_sets(evens: Iterable[NodeSet]) -> BinaryCode:
    """The given family as a code; `BinaryCode` raises unless it is already linear."""
    return BinaryCode(evens)


def weight_enumerator(code: BinaryCode) -> dict[int, int]:
    """Exact histogram weight -> number of codewords of that weight."""
    hist: dict[int, int] = {}
    for word in code.codewords:
        hist[word.weight] = hist.get(word.weight, 0) + 1
    return dict(sorted(hist.items()))


def affine_hyperplane_defect(eights: Iterable[NodeSet]) -> str | None:
    """What keeps the weight-8 sets from the hyperplane family of AG(4, 2), in
    which distinct sets meet in 0 or 4 points and complements are members:
    a missing complement or a pair that meets otherwise, or None."""
    masks = {s.bits for s in eights}
    for m in masks:
        if m.bit_count() != 8:
            raise CodeError(f"expected weight-8 sets, got weight {m.bit_count()}")
    for m in sorted(masks):
        if m ^ _FULL_MASK not in masks:
            return f"the complement of {list(NodeSet(m).labels())} is missing"
    for a, b in combinations(sorted(masks), 2):
        if (meet := (a & b).bit_count()) not in (0, 4):
            return f"{list(NodeSet(a).labels())} and {list(NodeSet(b).labels())} meet in {meet} nodes"
    return None
