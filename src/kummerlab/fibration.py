"""Elliptic fibrations read off an integer curve table.

`discover_fibers` is model-free: given a `kummer_ns.CurveTable` and F's row of
pairings with it, it finds F's fibers from the table's masks, never as
vectors.  A component is a (row, multiplicity) pair, except the F - E
completing an isolated curve E at row e, written (~e, 1).  The dual graph
types each fiber: I0* (a double centre meeting four leaves) or I2 (F - E and
E).  Pairings cannot tell I2 from III (two tangent curves); I2 is the type
whose Euler numbers total 24.  A class identity, such as a star summing to F,
is decided by pairing both sides with every column of a table whose classes
span a nondegenerate space, as the Kummer model's do.

`build_fibration` is the Kummer pencil through the point where branch lines i
and j meet, F = L - E0 - E_ij, kept as its row and once as the vector the
checks square: two stars, six isolated nodes, and the tropes meeting E0 as
sections.  The double cover branched along the pair's even eight, whose node
bits give the branch incidences, makes the stars smooth and splits the rest.
"""

from __future__ import annotations

from collections.abc import Sequence

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
        _set_components(self, components)
        _set_kodaira_type(self, kodaira_type)
        _set_euler_number(self, kodaira_euler(kodaira_type))


_set_components, _set_kodaira_type, _set_euler_number = (Fiber.__dict__[name].__set__ for name in Fiber.__slots__)


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


def discover_fibers(
    table: CurveTable, f: Sequence[int], f2: int
) -> tuple[tuple[Fiber, ...], tuple[Fiber, ...], tuple[int, ...]]:
    """The I0* stars and the I2 fibers ((~e, 1), (e, 1)), each in table order,
    and the rows C with F.C = 1, for F's pairings ``f`` and square ``f2``,
    both times the table's scale.  A curve of square 0 orthogonal to F is a
    fiber of class F and is skipped.  Raises on a non-integral pairing, on a
    curve in neither a star nor an isolated fiber, on a star not summing to
    F, and where the dual graph's shape fails: a norm other than -2, a leaf
    met other than once, or F^2 != 0, the norm of every F - E."""
    labels, rows, scale = table.labels, table.table, table.scale
    zero = [x for x, p in enumerate(f) if p == 0 and rows[x][x]]
    orthogonal = sum(1 << x for x in zero)
    if f2 % scale or any(table.fractional[x] & orthogonal for x in zero):
        raise FibrationError("non-integral pairing among F and the curves orthogonal to it")
    if f2:
        raise FibrationError(f"the fiber class has square {f2 // scale}, not 0")
    heavy = [labels[x] for x in zero if rows[x][x] != -2 * scale]
    if heavy:
        raise FibrationError(f"fiber components must have norm -2, not {', '.join(heavy)}")
    nbrs = {x: table.meets[x] & orthogonal & ~(1 << x) for x in zero}
    stars, pairs = [], []
    for x, leaves in nbrs.items():
        count = leaves.bit_count()
        if not count:
            pairs.append(Fiber(((~x, 1), (x, 1)), "I2"))
        # x is not a leaf whose centre has four neighbours, so it must be a star's centre
        elif count != 1 or nbrs[leaves.bit_length() - 1].bit_count() != 4:
            ys = [y for y in zero if leaves >> y & 1]
            if count != 4 or any(nbrs[y] != 1 << x for y in ys):
                raise FibrationError(f"{labels[x]} lies in neither a star nor an isolated fiber")
            if any(rows[x][y] != scale for y in ys):
                raise FibrationError(f"the centre {labels[x]} meets a leaf other than once")
            comps = ((x, 2), *[(y, 1) for y in ys])
            if table.pairings(comps) != tuple(f):
                raise FibrationError(f"star fiber at {labels[x]} does not sum to the fiber class")
            stars.append(Fiber(comps, I0_STAR))
    return tuple(stars), tuple(pairs), tuple(x for x, p in enumerate(f) if p == scale)


def build_fibration(model: JacobianKummerNS, i: int = 1, j: int = 2) -> Fibration:
    """The pencil of lines through the (i, j) double point, pulled to the surface.

    F = L - E0 - E_ij.  Raises unless `discover_fibers` finds two stars, one
    for each branch line through the point; the six other curves orthogonal
    to F are isolated nodes.  Stars come first; the sections are the tropes
    meeting E0 among the curves with F.X = 1."""
    if not (1 <= i < j <= 6):
        raise FibrationError(f"need 1 <= i < j <= 6, got ({i}, {j})")
    t = model.curve_table
    table = t.table
    try:
        e0, eij = t.row_of["E0"], t.row_of[node_label(i, j)]
    except KeyError:
        raise FibrationError(f"the curve table lacks E0 or {node_label(i, j)}") from None
    row = tuple(a - b - c for a, b, c in zip(table[0], table[e0], table[eij]))
    stars, pairs, once = discover_fibers(t, row, row[0] - row[e0] - row[eij])
    if len(stars) != 2:
        raise FibrationError(f"{len(stars)} star fibers, not one for each branch line through the point")
    fiber_class = model.space.combination((1, -1, -1), (t.classes[0], t.classes[e0], t.classes[eij]))
    return Fibration((i, j), fiber_class, (*stars, *pairs), tuple(x for x in once if table[x][e0]), row)


def even_eight_from_fibers(fib: Fibration, model: JacobianKummerNS) -> bool:
    """The even eight of the pair is cut out by the two star fibers F1, F2: their
    multiplicity-one components are its nodes, by bit, so the node sum equals
    F1 + F2 - 2*(central tropes) exactly when F1 + F2 = 2F, column by column."""
    t = model.curve_table
    comps = [c for f in fib.fibers if f.kodaira_type == I0_STAR for c in f.components]
    bits = [t.node_bits[x] for x, m in comps if m == 1]
    nodes_ok = len(bits) == len(set(bits)) == 8 and sum(bits) == even_eight(*fib.pair).bits
    centres_ok = sum(m == 2 for _, m in comps) == 2
    return nodes_ok and centres_ok and t.pairings(comps) == tuple([2 * p for p in fib.pairings])


def _meets(t: CurveTable, fib: Fibration, x: int, rows: list[int], mask: int) -> bool:
    """True iff component x pairs nonzero with a curve at one of the rows, the bits
    of the mask: a curve reads its meet mask; F - E, written ~e, tests F.y != E.y."""
    if x >= 0:
        return bool(t.meets[x] & mask)
    e_row = t.table[~x]
    return any(fib.pairings[y] != e_row[y] for y in rows)


def transform_double_cover(fib: Fibration, branch: NodeSet, model: JacobianKummerNS) -> Fibration:
    """Fibration induced on the double cover branched along an even eight.

    A star fiber whose multiplicity-one components are all branch nodes
    becomes smooth; a fiber meeting no branch node splits in two; any other
    fiber is kept once, unsplit, so a wrong branch leaves fewer than twelve I2
    fibers or an Euler sum other than 24, which the checks compare.  Sections
    pull back to sections.
    """
    if branch.weight != 8 or branch.bits not in model.even_masks:
        raise FibrationError("branch must be an even eight")
    t = model.curve_table
    bits = branch.bits
    rows = [y for bit, y in t.node_rows.items() if bit & bits]
    mask = sum(1 << y for y in rows)
    new_fibers: list[Fiber] = []
    for fiber in fib.fibers:
        comps = fiber.components
        if fiber.kodaira_type == I0_STAR and all(t.node_bits[x] & bits for x, m in comps if m == 1):
            new_fibers.append(Fiber((), SMOOTH))
        # a component equal to a branch node pairs -2 with it, so it is caught
        elif any(_meets(t, fib, x, rows, mask) for x, _ in comps):
            new_fibers.append(fiber)
        else:
            new_fibers += [fiber, fiber]

    return Fibration(fib.pair, fib.fiber_class, tuple(new_fibers), fib.sections, fib.pairings)
