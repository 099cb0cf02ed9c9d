"""Elliptic-fibration bookkeeping on the Kummer divisor lattice.

The fibration through the intersection point of two of the six branch lines
has fiber class F = L - E0 - E_ij.  Its fibers are read off the model's curve
table (`kummer_ns.CurveTable`), never built as vectors: a component is a
(row, multiplicity) pair, except the F - E completing an isolated curve E at
row e, written (~e, 1).  A pencil keeps F as its pairings with the table, and
once as the vector the checks square.  The table's masks (each curve's node
bit, the curves it meets and those it pairs with non-integrally) give the
dual graph, the integrality check and the branch incidences.  A class
identity, such as a star fiber summing to F, is decided by pairing both sides
with every column: the table's classes span the space and the form is
nondegenerate, so equal pairings mean equal classes.

The curves orthogonal to F split by their dual graph into two stars, a double
trope meeting four nodes, and six isolated nodes E.  The pairings cannot tell
two curves meeting twice (I2) from two tangent curves (III); the fibers are
recorded as I2, the type whose Euler numbers total 24.  The two-to-one cover
branched along the matching even eight turns the star fibers into smooth
fibers and splits the six others in two.
"""

from __future__ import annotations

from ._frozen import Frozen
from .kummer_ns import CurveTable, JacobianKummerNS, even_eight
from .labels import node_label
from .lattice import RationalVector
from .nodecode import NodeSet


class FibrationError(ValueError):
    """Raised when a component list or a cover transform is malformed."""


SMOOTH = "smooth"
I0_STAR = "I0*"
_EULER = {SMOOTH: 0, I0_STAR: 6, "I2": 2}


def kodaira_euler(tag: str) -> int:
    """Euler number of one of the three fiber types the pencils use."""
    if isinstance(tag, str) and tag in _EULER:
        return _EULER[tag]
    raise FibrationError(f"unsupported fiber type {tag!r}")


class Fiber(Frozen):
    """A fiber: its components as (row, multiplicity) pairs over the curve table."""

    __slots__ = ("components", "kodaira_type", "euler_number")

    def __init__(self, components: tuple[tuple[int, int], ...], kodaira_type: str) -> None:
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "kodaira_type", kodaira_type)
        object.__setattr__(self, "euler_number", kodaira_euler(kodaira_type))


class Fibration(Frozen):
    """The pencil through the (i, j) double point: ``pair`` is (i, j), ``euler`` its
    Euler sum, ``sections`` table rows, ``pairings[x]`` F.X times the table's scale."""

    __slots__ = ("pair", "fiber_class", "fibers", "sections", "pairings", "euler")

    def __init__(
        self, pair: tuple[int, int], fiber_class: RationalVector, fibers: tuple[Fiber, ...],
        sections: tuple[int, ...], pairings: tuple[int, ...],
    ) -> None:
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "fiber_class", fiber_class)
        object.__setattr__(self, "fibers", fibers)
        object.__setattr__(self, "sections", sections)
        object.__setattr__(self, "pairings", pairings)
        object.__setattr__(self, "euler", sum(f.euler_number for f in fibers))


def _kodaira_type(pairing: list[list[int]], mults: list[int]) -> str:
    """The fiber type of components with these integer pairings and
    multiplicities; raises unless every component has norm -2."""
    n = len(mults)
    if any(pairing[k][k] != -2 for k in range(n)):
        raise FibrationError(f"fiber components must have norm -2, got pairings {pairing}")

    if n == 2 and mults == [1, 1] and pairing[0][1] == 2:
        return "I2"

    if n == 5 and sorted(mults) == [1, 1, 1, 1, 2]:
        center = mults.index(2)
        leaves = [k for k in range(5) if k != center]
        star = all(pairing[center][k] == 1 for k in leaves) and all(
            pairing[a][b] == 0 for a in leaves for b in leaves if a != b
        )
        if star:
            return I0_STAR

    raise FibrationError(f"unrecognized fiber configuration: multiplicities {mults}, pairings {pairing}")


def build_fibration(model: JacobianKummerNS, i: int = 1, j: int = 2) -> Fibration:
    """The pencil of lines through the (i, j) double point, pulled to the surface.

    Raises unless the curves with F.X = 0 are two stars, each summing to F, and
    isolated curves.  Stars come first, each group in table order; the sections
    are the tropes meeting E0 among the curves with F.X = 1."""
    if not (1 <= i < j <= 6):
        raise FibrationError(f"need 1 <= i < j <= 6, got ({i}, {j})")
    t = model.curve_table
    labels, table, scale = t.labels, t.table, t.scale
    try:
        e0, eij = [labels.index(label) for label in ("E0", node_label(i, j))]
    except ValueError:
        raise FibrationError(f"the curve table lacks E0 or {node_label(i, j)}") from None
    row = tuple(a - b - c for a, b, c in zip(table[0], table[e0], table[eij]))
    zero = [x for x in range(1, len(row)) if row[x] == 0]
    orthogonal = sum(1 << x for x in zero)
    f2, rem = divmod(row[0] - row[e0] - row[eij], scale)
    if rem or any(t.fractional[x] & orthogonal for x in zero):
        raise FibrationError("non-integral pairing among F and the curves orthogonal to it")
    nbrs = {x: t.meets[x] & orthogonal & ~(1 << x) for x in zero}
    fiber_class = model.space.combination((1, -1, -1), (t.classes[0], t.classes[e0], t.classes[eij]))

    stars, pairs = [], []
    for x in zero:
        leaves = nbrs[x]
        if not leaves:
            d = table[x][x] // scale
            pairs.append(Fiber(((~x, 1), (x, 1)), _kodaira_type([[f2 + d, -d], [-d, d]], [1, 1])))
        elif leaves.bit_count() == 4 and all(nbrs[y] == 1 << x for y in zero if leaves >> y & 1):
            comps = ((x, 2), *[(y, 1) for y in zero if leaves >> y & 1])
            pairing = [[table[p][q] // scale for q, _ in comps] for p, _ in comps]
            fiber = Fiber(comps, _kodaira_type(pairing, [2, 1, 1, 1, 1]))
            if t.pairings(comps) != row:
                raise FibrationError(f"star fiber at {labels[x]} does not sum to the fiber class")
            stars.append(fiber)
        elif leaves.bit_count() != 1 or nbrs[leaves.bit_length() - 1].bit_count() != 4:
            raise FibrationError(f"{labels[x]} lies in neither a star nor an isolated fiber")
    if len(stars) != 2:
        raise FibrationError(f"{len(stars)} star fibers, not one for each branch line through the point")

    sections = tuple(x for x in range(1, len(row)) if row[x] == scale and table[x][e0])
    return Fibration((i, j), fiber_class, (*stars, *pairs), sections, row)


def even_eight_from_fibers(fib: Fibration, model: JacobianKummerNS) -> bool:
    """The even eight of the pair is cut out by the two star fibers F1, F2: their
    multiplicity-one components are its nodes, by bit, so the node sum equals
    F1 + F2 - 2*(central tropes) exactly when F1 + F2 = 2F, column by column."""
    t = model.curve_table
    comps = [c for f in fib.fibers if f.kodaira_type == I0_STAR for c in f.components]
    bits = [t.node_bits[x] for x, m in comps if m == 1]
    nodes_ok = len(bits) == len(set(bits)) == 8 and sum(bits) == even_eight(*fib.pair).bits
    centres_ok = sum(m == 2 for _, m in comps) == 2
    return nodes_ok and centres_ok and t.pairings(comps) == tuple(2 * f for f in fib.pairings)


def _meets(t: CurveTable, fib: Fibration, x: int, mask: int) -> bool:
    """True iff component x pairs nonzero with a curve at a row of the mask: a
    curve reads its meet mask, and F - E, written ~e, meets row y if F.y != E.y."""
    if x >= 0:
        return bool(t.meets[x] & mask)
    e_row = t.table[~x]
    return any(fib.pairings[y] != e_row[y] for y in range(mask.bit_length()) if mask >> y & 1)


def transform_double_cover(fib: Fibration, branch: NodeSet, model: JacobianKummerNS) -> Fibration:
    """Fibration induced on the double cover branched along an even eight.

    A star fiber whose multiplicity-one components are all branch nodes
    becomes smooth; a fiber meeting no branch node splits in two; any other
    fiber is kept once, unsplit, so a wrong branch leaves fewer than twelve I2
    fibers or an Euler sum other than 24, which the checks compare.  Sections
    pull back to sections.
    """
    if branch.weight != 8 or branch not in model.even_sets:
        raise FibrationError("branch must be an even eight")
    t = model.curve_table
    bits = branch.bits
    mask = sum(1 << y for y, bit in enumerate(t.node_bits) if bit & bits)
    new_fibers: list[Fiber] = []
    for fiber in fib.fibers:
        comps = fiber.components
        if fiber.kodaira_type == I0_STAR and all(t.node_bits[x] & bits for x, m in comps if m == 1):
            new_fibers.append(Fiber((), SMOOTH))
        # a component equal to a branch node pairs -2 with it, so it is caught
        elif any(_meets(t, fib, x, mask) for x, _ in comps):
            new_fibers.append(fiber)
        else:
            new_fibers += [fiber, fiber]

    return Fibration(fib.pair, fib.fiber_class, tuple(new_fibers), fib.sections, fib.pairings)
