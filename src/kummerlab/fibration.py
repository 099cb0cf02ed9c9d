"""Elliptic-fibration bookkeeping on the Kummer divisor lattice.

The fibration through the intersection point of two of the six branch lines
has fiber class L - E0 - E_ij.  Its singular fibers are verified, not
discovered: two star-shaped fibers built from a double trope plus four nodes,
and six two-component fibers, one for each index pair disjoint from {i, j}.
The two-to-one cover branched along the matching even eight turns the star
fibers into smooth fibers and splits the six others in two, keeping the
total Euler number at 24.
"""

from __future__ import annotations

from ._frozen import Frozen
from .kummer_ns import JacobianKummerNS, even_eight
from .labels import node_label
from .lattice import RationalVector
from .nodecode import NodeSet


class FibrationError(ValueError):
    """Raised when a component list or a cover transform is malformed."""


SMOOTH = "smooth"
I0_STAR = "I0*"


def kodaira_euler(tag: str) -> int:
    """Euler number of a fiber type; only the types used here are accepted."""
    if tag == SMOOTH:
        return 0
    if tag == I0_STAR:
        return 6
    if isinstance(tag, str) and tag.isascii() and tag.startswith("I") and tag[1:].isdigit():
        return int(tag[1:])
    raise FibrationError(f"unsupported fiber type {tag!r}")


class FiberComponent(Frozen):
    """A fiber component; `classify_fiber` checks that its norm is -2."""

    __slots__ = ("divisor", "multiplicity")

    def __init__(self, divisor: RationalVector, multiplicity: int) -> None:
        if type(multiplicity) is not int or multiplicity < 1:
            raise FibrationError(f"component multiplicity must be a positive int, got {multiplicity!r}")
        object.__setattr__(self, "divisor", divisor)
        object.__setattr__(self, "multiplicity", multiplicity)


class Fiber(Frozen):
    __slots__ = ("components", "kodaira_type")

    def __init__(self, components: tuple[FiberComponent, ...], kodaira_type: str) -> None:
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "kodaira_type", kodaira_type)

    @property
    def euler_number(self) -> int:
        return kodaira_euler(self.kodaira_type)

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
    """The pencil through the (i, j) double point: ``pair`` is (i, j)."""

    __slots__ = ("pair", "fiber_class", "fibers", "sections")

    def __init__(
        self, pair: tuple[int, int], fiber_class: RationalVector, fibers: tuple[Fiber, ...],
        sections: tuple[RationalVector, ...],
    ) -> None:
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "fiber_class", fiber_class)
        object.__setattr__(self, "fibers", fibers)
        object.__setattr__(self, "sections", sections)


def classify_fiber(components: tuple[FiberComponent, ...] | list[FiberComponent]) -> str:
    """Recognize the fiber type from the dual graph of the components, each of
    which must have norm -2."""
    comps = tuple(components)
    if not comps:
        raise FibrationError("a fiber needs at least one component")
    gram = comps[0].divisor.space.gram([c.divisor for c in comps])
    n = len(comps)
    for k in range(n):
        if gram[k][k] != -2:
            raise FibrationError(f"fiber components must have norm -2, got {gram[k][k]}")
    if any(x.denominator != 1 for row in gram for x in row):
        raise FibrationError("non-integral component pairing")
    pairing = [[x.numerator for x in row] for row in gram]
    mults = [c.multiplicity for c in comps]

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

    if n >= 3 and all(m == 1 for m in mults):
        cycle = all(
            pairing[a][b] in (0, 1) for a in range(n) for b in range(n) if a != b
        ) and all(
            sum(pairing[a][b] for b in range(n) if b != a) == 2 for a in range(n)
        )
        if cycle and _is_single_cycle(pairing):
            return f"I{n}"

    raise FibrationError(
        f"unrecognized fiber configuration: multiplicities {mults}, pairings {pairing}"
    )


def _is_single_cycle(pairing: list[list[int]]) -> bool:
    n = len(pairing)
    seen = {0}
    frontier = [0]
    while frontier:
        a = frontier.pop()
        for b in range(n):
            if b != a and pairing[a][b] == 1 and b not in seen:
                seen.add(b)
                frontier.append(b)
    return len(seen) == n


def build_fibration(model: JacobianKummerNS, i: int = 1, j: int = 2) -> Fibration:
    """The pencil of lines through the (i, j) double point, pulled to the surface.

    Fiber class L - E0 - E_ij; two star fibers around the tropes carrying
    index i resp. j; six two-component fibers indexed by the pairs of the
    remaining four symbols; four trope sections.
    """
    if not (1 <= i < j <= 6):
        raise FibrationError(f"need 1 <= i < j <= 6, got ({i}, {j})")
    space = model.space
    fiber_class = space.combination(
        (1, -1, -1),
        (space.basis_vector("L"), space.basis_vector("E0"), model.node_class(node_label(i, j))),
    )

    def star_fiber(center_index: int) -> Fiber:
        comps = [FiberComponent(model.trope_class(f"C1{center_index}"), 2)]
        comps += [
            FiberComponent(model.node_class(node_label(center_index, k)), 1)
            for k in range(1, 7)
            if k not in (i, j)
        ]
        fiber = Fiber(tuple(comps), classify_fiber(comps))
        if fiber.kodaira_type != I0_STAR:
            raise FibrationError(f"star fiber at index {center_index} misclassified")
        return fiber

    others = [k for k in range(1, 7) if k not in (i, j)]
    fibers = [star_fiber(i), star_fiber(j)]
    for a_pos in range(len(others)):
        for b_pos in range(a_pos + 1, len(others)):
            a, b = others[a_pos], others[b_pos]
            node = model.node_class(node_label(a, b))
            comps = (FiberComponent(fiber_class - node, 1), FiberComponent(node, 1))
            fibers.append(Fiber(comps, classify_fiber(comps)))

    sections = tuple(model.trope_class(f"C1{k}") for k in others)

    fibration = Fibration((i, j), fiber_class, tuple(fibers), sections)
    _validate(fibration)
    return fibration


def _validate(fib: Fibration) -> None:
    if fib.fiber_class.norm() != 0:
        raise FibrationError("fiber class must have norm 0")
    for fiber in fib.fibers:
        if fiber.components and fiber.weighted_sum() != fib.fiber_class:
            raise FibrationError("fiber components do not sum to the fiber class")
    for section in fib.sections:
        if section.dot(fib.fiber_class) != 1:
            raise FibrationError("section does not meet the fiber class once")


def euler_sum(fib: Fibration) -> int:
    """Total Euler number of the singular fibers; 24 on a K3 total space."""
    return sum(f.euler_number for f in fib.fibers)


def even_eight_from_fibers(fib: Fibration, model: JacobianKummerNS) -> bool:
    """The even eight of the fibration's index pair is cut out by its two star
    fibers: the node sum equals F1 + F2 - 2*(central tropes), and the
    multiplicity-one components of F1 and F2 are exactly those eight nodes."""
    eight = even_eight(*fib.pair)
    stars = [f for f in fib.fibers if f.kodaira_type == I0_STAR]
    if len(stars) != 2:
        return False
    centers = []
    mult_one: list[RationalVector] = []
    for fiber in stars:
        for comp in fiber.components:
            if comp.multiplicity == 2:
                centers.append(comp.divisor)
        mult_one.extend(fiber.multiplicity_one_components())
    if len(centers) != 2:
        return False
    identity_lhs = model.node_set_sum(eight)
    components = [c for fiber in stars for c in fiber.components]
    identity_rhs = model.space.combination(
        [c.multiplicity for c in components] + [-2, -2],
        [c.divisor for c in components] + centers,
    )
    node_classes = {model.node_class(label) for label in eight.labels()}
    return (
        identity_lhs == identity_rhs
        and set(mult_one) == node_classes
        and len(mult_one) == 8
    )


def _meets(divisor: RationalVector, node_coords: list[int]) -> bool:
    """True iff the divisor pairs nonzero with a node at one of the given
    coordinates.  A node is a basis vector e_k of the diagonal form with
    diag[k] != 0, so <divisor, e_k> = diag[k] * divisor_k is read off the
    k-th coordinate."""
    return any(divisor.nums[k] for k in node_coords)


def transform_double_cover(
    fib: Fibration, branch: NodeSet, model: JacobianKummerNS
) -> Fibration:
    """Fibration induced on the double cover branched along an even eight.

    A star fiber whose multiplicity-one components all lie in the branch
    becomes a smooth fiber; a fiber disjoint from the branch splits into two
    copies.  Any other incidence is rejected.  Sections pull back to
    sections; the transformed Euler numbers must again total the input sum.
    Whether a fiber meets the branch is read off the coordinates of its
    components at the branch nodes.
    """
    if branch.weight != 8 or not model.is_even_set(branch):
        raise FibrationError("branch must be an even eight")
    labels = branch.labels()
    branch_vectors = [model.node_class(label) for label in labels]
    branch_coords = [model.space.index(label) for label in labels]

    new_fibers: list[Fiber] = []
    for fiber in fib.fibers:
        mult_one = fiber.multiplicity_one_components()
        in_branch = [c for c in mult_one if c in branch_vectors]
        if (
            fiber.kodaira_type == I0_STAR
            and len(in_branch) == len(mult_one)
            and mult_one
        ):
            new_fibers.append(Fiber((), SMOOTH))
            continue
        # a component equal to a branch node pairs -2 with it, so it is caught
        touches = any(_meets(c.divisor, branch_coords) for c in fiber.components)
        if touches:
            raise FibrationError(
                "branch/fiber incidence not covered: fiber meets the branch "
                "without being a star fiber inside it"
            )
        new_fibers.append(fiber)
        new_fibers.append(fiber)

    transformed = Fibration(fib.pair, fib.fiber_class, tuple(new_fibers), fib.sections)
    if euler_sum(transformed) != euler_sum(fib):
        raise FibrationError(
            f"Euler bookkeeping failed: {euler_sum(fib)} -> {euler_sum(transformed)}"
        )
    return transformed
