"""Elliptic-fibration bookkeeping on the Kummer divisor lattice.

The fibration through the intersection point of two of the six branch lines
has fiber class F = L - E0 - E_ij.  Its singular fibers are discovered from
the model's integer table of the pairings of L and the 32 curves: the curves
orthogonal to F split by their dual graph into two stars, a double trope
meeting four nodes, and six isolated nodes E, each completed by F - E.  The
pairings cannot tell two curves meeting twice (I2) from two tangent curves
(III); the fibers are recorded as I2, the type whose Euler numbers total 24.
The two-to-one cover branched along the matching even eight turns the star
fibers into smooth fibers and splits the six others in two.
"""

from __future__ import annotations

from ._frozen import Frozen
from .kummer_ns import JacobianKummerNS, even_eight
from .labels import node_label
from .lattice import RationalVector, _integral_table
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


class FiberComponent(Frozen):
    """A fiber component; `_kodaira_type` checks that its norm is -2."""

    __slots__ = ("divisor", "multiplicity")

    def __init__(self, divisor: RationalVector, multiplicity: int) -> None:
        if type(multiplicity) is not int or multiplicity < 1:
            raise FibrationError(f"component multiplicity must be a positive int, got {multiplicity!r}")
        object.__setattr__(self, "divisor", divisor)
        object.__setattr__(self, "multiplicity", multiplicity)


class Fiber(Frozen):
    __slots__ = ("components", "kodaira_type", "euler_number")

    def __init__(self, components: tuple[FiberComponent, ...], kodaira_type: str) -> None:
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "kodaira_type", kodaira_type)
        object.__setattr__(self, "euler_number", kodaira_euler(kodaira_type))

    def weighted_sum(self) -> RationalVector:
        if not self.components:
            raise FibrationError("smooth fibers carry no component decomposition")
        return self.components[0].divisor.space.combination(
            [c.multiplicity for c in self.components],
            [c.divisor for c in self.components],
        )

    def multiplicity_one_components(self) -> tuple[RationalVector, ...]:
        return tuple(c.divisor for c in self.components if c.multiplicity == 1)


class Fibration(Frozen):
    """The pencil through the (i, j) double point: ``pair`` is (i, j), ``euler`` its Euler sum."""

    __slots__ = ("pair", "fiber_class", "fibers", "sections", "euler")

    def __init__(
        self, pair: tuple[int, int], fiber_class: RationalVector, fibers: tuple[Fiber, ...],
        sections: tuple[RationalVector, ...],
    ) -> None:
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "fiber_class", fiber_class)
        object.__setattr__(self, "fibers", fibers)
        object.__setattr__(self, "sections", sections)
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

    Reads F.X = L.X - E0.X - E_ij.X off the model's curve table.  The curves
    with F.X = 0 must split by their dual graph into exactly two stars (a
    centre of multiplicity 2 meeting four curves that meet nothing else, one
    per branch line through the point) and isolated curves E, completed to
    (F - E, E); anything else raises.  Each fiber is typed from its pairings,
    a star must sum to F, and stars come first, each group in table order.
    The sections, which the checks pair with F, are the tropes meeting E0
    among the curves with F.X = 1.
    """
    if not (1 <= i < j <= 6):
        raise FibrationError(f"need 1 <= i < j <= 6, got ({i}, {j})")
    labels, classes, table, scale = model.curve_table
    try:
        e0, eij = [labels.index(label) for label in ("E0", node_label(i, j))]
    except ValueError:
        raise FibrationError(f"the curve table lacks E0 or {node_label(i, j)}") from None
    row = [a - b - c for a, b, c in zip(table[0], table[e0], table[eij])]
    zero = [x for x in range(1, len(row)) if row[x] == 0]
    pairing = _integral_table([[table[x][y] for y in zero] for x in zero], scale)
    f2, rem = divmod(row[0] - row[e0] - row[eij], scale)
    if pairing is None or rem:
        raise FibrationError("non-integral pairing among F and the curves orthogonal to it")
    nbrs = [[b for b, p in enumerate(pa) if p and b != a] for a, pa in enumerate(pairing)]
    fiber_class = model.space.combination((1, -1, -1), (classes[0], classes[e0], classes[eij]))

    stars, pairs = [], []
    for a, x in enumerate(zero):  # a indexes `pairing`, x the curve table
        leaves = nbrs[a]
        if not leaves:
            d = pairing[a][a]
            comps = (FiberComponent(fiber_class - classes[x], 1), FiberComponent(classes[x], 1))
            pairs.append(Fiber(comps, _kodaira_type([[f2 + d, -d], [-d, d]], [1, 1])))
        elif len(leaves) == 4 and all(nbrs[b] == [a] for b in leaves):
            star = [a, *leaves]
            comps = tuple(FiberComponent(classes[zero[b]], 1 + (b == a)) for b in star)
            fiber = Fiber(comps, _kodaira_type([[pairing[p][q] for q in star] for p in star], [2, 1, 1, 1, 1]))
            if fiber.weighted_sum() != fiber_class:
                raise FibrationError(f"star fiber at {labels[x]} does not sum to the fiber class")
            stars.append(fiber)
        elif len(leaves) != 1 or len(nbrs[leaves[0]]) != 4:
            raise FibrationError(f"{labels[x]} lies in neither a star nor an isolated fiber")
    if len(stars) != 2:
        raise FibrationError(f"{len(stars)} star fibers, not one for each branch line through the point")

    sections = tuple(classes[x] for x in range(1, len(row)) if row[x] == scale and table[x][e0])
    return Fibration((i, j), fiber_class, (*stars, *pairs), sections)


def _node_bit(divisor: RationalVector) -> int:
    """1 << k if the divisor is node k, the basis vector e_(k+1), else 0."""
    nums = divisor.nums
    if divisor.den != 1 or nums.count(0) != len(nums) - 1 or 1 not in nums[1:]:
        return 0
    return 1 << nums.index(1) - 1


def _meets(divisor: RationalVector, node_coords: list[int]) -> bool:
    """True iff the divisor pairs nonzero with a node at one of the given
    coordinates: a node is a basis vector e_k of the diagonal form, diag[k] !=
    0, so <divisor, e_k> = diag[k] * divisor_k is read off coordinate k."""
    return any(divisor.nums[k] for k in node_coords)


def even_eight_from_fibers(fib: Fibration, model: JacobianKummerNS) -> bool:
    """The even eight of the fibration's index pair is cut out by its two star
    fibers: the node sum equals F1 + F2 - 2*(central tropes) = 2F - 2*(central
    tropes), as `build_fibration` checks that each star fiber sums to F, and
    the multiplicity-one components of F1 and F2 are the eight nodes, by bit."""
    eight = even_eight(*fib.pair)
    stars = [f for f in fib.fibers if f.kodaira_type == I0_STAR]
    centers = [c.divisor for fiber in stars for c in fiber.components if c.multiplicity == 2]
    if len(stars) != 2 or len(centers) != 2:
        return False
    bits = [_node_bit(c) for fiber in stars for c in fiber.multiplicity_one_components()]
    identity_rhs = model.space.combination((2, -2, -2), (fib.fiber_class, *centers))
    nodes_ok = len(bits) == len(set(bits)) == 8 and sum(bits) == eight.bits
    return model.node_set_sum(eight) == identity_rhs and nodes_ok


def transform_double_cover(fib: Fibration, branch: NodeSet, model: JacobianKummerNS) -> Fibration:
    """Fibration induced on the double cover branched along an even eight.

    A star fiber whose multiplicity-one components are all branch nodes
    becomes a smooth fiber; a fiber that meets no branch node splits into two
    copies.  A fiber meeting the branch in any other way is kept once,
    unsplit: a two-component fiber then drops out of the I2 count and a star
    adds 6 to the Euler sum, so a wrong branch leaves fewer than twelve I2
    fibers or an Euler sum other than 24, which the checks compare.
    Sections pull back to sections.  Incidences are read off coordinates at
    the branch's mask bits.
    """
    if branch.weight != 8 or branch not in model.even_sets:
        raise FibrationError("branch must be an even eight")
    coords = [k for k in range(1, model.space.dim) if branch.bits >> k - 1 & 1]  # node k - 1 is e_k
    new_fibers: list[Fiber] = []
    for fiber in fib.fibers:
        mult_one = fiber.multiplicity_one_components()
        if fiber.kodaira_type == I0_STAR and mult_one and all(_node_bit(c) & branch.bits for c in mult_one):
            new_fibers.append(Fiber((), SMOOTH))
        # a component equal to a branch node pairs -2 with it, so it is caught
        elif any(_meets(c.divisor, coords) for c in fiber.components):
            new_fibers.append(fiber)
        else:
            new_fibers += [fiber, fiber]

    return Fibration(fib.pair, fib.fiber_class, tuple(new_fibers), fib.sections)
