"""Numerical surface calculus for the double-plane tower.

Surfaces are tracked by Euler number, canonical class K, named curve classes
and a Picard lattice in a labelled quadratic space holding the hyperplane
class, exceptional classes, pullbacks thereof and the anti-invariant classes
of split curves.  The plane's lattice is ZH, and two operations evolve a
surface and its lattice: blowing up points (a new (-1) class per point joins
the lattice, strict transforms drop one copy of it per local branch) and taking
a double cover branched along disjoint tracked curves B_i whose sum B has B/2
in the lattice (Euler number 2e - e(B), canonical class K + B/2, pairings
doubled on pullbacks, split curves replaced by their two pieces; the lattice
is spanned by the pullbacks, each p*B_i/2 and one piece per split curve).
Each surface takes one Gram of its curves and K when built: K^2, the
pairings and each curve Euler number by adjunction, -(C^2 + K.C), are read
from it, and so are the six-line incidences and the curve table of the
quartic cover.  The sixteen curves and the twelve I2 fibers on the final
cover are read off its own fibration, which `discover_fibers` finds on its
curve table with the fiber class half the branch fiber l1.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, combinations_with_replacement
from collections.abc import Mapping
from types import MappingProxyType

from ._frozen import Frozen
from .fibration import discover_fibers
from .kummer_ns import CurveTable
from .labels import INDEX_PAIRS
from .lattice import QuadraticSpace, RationalVector, SublatticeModel, _normal_vector, _quotient


class CoverError(ValueError):
    """Raised when a branch divisor or an intersection identity is invalid."""


# ---------------------------------------------------------------------------
# numerical surfaces
# ---------------------------------------------------------------------------


class SurfaceModel(Frozen):
    """A surface's numbers, Picard lattice in the space ``pic``, canonical class K and
    named curves.  One Gram of the curves and K, taken here, gives their `CurveTable`,
    K's row ``k_row`` (K.C times the table's scale, in table order) and ``k_squared``."""

    __slots__ = ("euler", "lattice", "pic", "canonical", "curves", "table", "k_row", "k_squared")

    def __init__(
        self, euler: int, lattice: SublatticeModel, canonical: RationalVector, curves: Mapping[str, RationalVector]
    ) -> None:
        object.__setattr__(self, "euler", euler)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "pic", lattice.space)
        object.__setattr__(self, "canonical", canonical)
        object.__setattr__(self, "curves", MappingProxyType(dict(curves)))
        names, classes = tuple(self.curves), tuple(self.curves.values())
        (*rows, k_row), scale = lattice.space.gram(classes + (canonical,))
        object.__setattr__(self, "table", CurveTable(names, classes, [r[:-1] for r in rows], scale))
        object.__setattr__(self, "k_row", tuple(k_row[:-1]))
        object.__setattr__(self, "k_squared", self.integer("K^2", k_row[-1]))

    def integer(self, what: str, n: int) -> int:
        """The number ``what``, n over the table's scale; a fraction raises."""
        if type(q := _quotient(n, self.table.scale)) is not int:
            raise CoverError(f"{what} = {q} is not an integer")
        return q

    def row(self, name: str) -> int:
        try:
            return self.table.row_of[name]
        except (KeyError, TypeError):
            raise CoverError(f"no tracked curve named {name!r}") from None

    def pairing(self, a: str, b: str) -> int:
        """An intersection number read off the curve table."""
        return self.integer(f"{a}.{b}", self.table.table[self.row(a)][self.row(b)])

    def adjunction_euler(self, names: tuple[str, ...]) -> int:
        """The Euler number of the disjoint smooth tracked curves ``names``, the
        sum of -(C^2 + K.C) by adjunction, read off the table and K's row."""
        n = -sum(self.table.table[i][i] + self.k_row[i] for i in map(self.row, names))
        return self.integer(f"e({' + '.join(names)})", n)


def projective_plane(tracked_degrees: Mapping[str, int]) -> SurfaceModel:
    """The plane: e = 3, K^2 = 9, Pic = ZH, canonical -3H; curves by degree."""
    h = QuadraticSpace(("H",), [1]).basis_vector("H")
    curves = {name: deg * h for name, deg in tracked_degrees.items()}
    return SurfaceModel(3, SublatticeModel(h.space, [h]), -3 * h, curves)


def _squares(space: QuadraticSpace) -> tuple:
    """The squares of the space's basis, its integer weights when its scale is 1."""
    return space.weights if space.scale == 1 else space.diag


def blowup(s: SurfaceModel, points: Mapping[str, tuple[str, ...] | list[str]]) -> SurfaceModel:
    """Blow up n points in one step: e + n, K^2 - n, a (-1) class per point, added to the lattice.

    ``points`` maps each exceptional curve's name to the tracked curves through
    its point; list a name twice for a point of multiplicity two on that
    curve.  Listed curves, which s must track (an infinitely near point takes a
    second call), are replaced by their strict transforms.
    """
    for exceptional, through in points.items():
        if exceptional in s.curves:
            raise CoverError(f"exceptional curve {exceptional!r} is named like a tracked curve")
        for name in through:
            s.row(name)
    names, n = tuple(points), len(points)
    pic = QuadraticSpace(s.pic.labels + names, _squares(s.pic) + (-1,) * n)
    classes = pic.basis[s.pic.dim:]

    # v's numerators and den, and multiples of den, keep its normal form
    def extend(v: RationalVector, coeffs) -> RationalVector:
        return _normal_vector(pic, v.nums + tuple([c * v.den for c in coeffs]), v.den)

    curves = {name: extend(v, [-through.count(name) for through in points.values()]) for name, v in s.curves.items()}
    curves |= zip(names, classes)
    lattice = SublatticeModel(pic, [*(extend(g, (0,) * n) for g in s.lattice.generators), *classes])
    return SurfaceModel(s.euler + n, lattice, extend(s.canonical, (1,) * n), curves)


def double_cover(
    s: SurfaceModel, branch: tuple[str, ...], split: Mapping[str, tuple[str, str, int, str, int]]
) -> SurfaceModel:
    """Double cover branched along B, the sum of the tracked curves ``branch``.

    They must be pairwise disjoint with B/2 in the lattice, and e(B) is their
    `SurfaceModel.adjunction_euler`.  The pullback doubles the form on the
    same labels, <p*D1, p*D2> = 2<D1, D2>; the canonical class becomes the
    pullback of K + B/2, the Euler number 2e - e(B), and the lattice the span
    of the base's generators, each ramification curve p*B_i/2 and the pieces.

    ``split`` maps each tracked curve C off the branch whose preimage splits
    to ``(plus, minus, k, label, square)``: the space gains the anti-invariant
    class a of ``label`` and ``square`` once per label, and C gives way to its
    pieces ``plus = (p*C + k a)/2`` and ``minus = (p*C - k a)/2``.
    """
    def halved(v: RationalVector) -> RationalVector:
        return RationalVector(v.space, v.nums, 2 * v.den)

    rows = [s.row(name) for name in branch]
    if any(s.table.table[i][j] for i, j in combinations(rows, 2)):
        raise CoverError(f"branch components {', '.join(branch)} are not pairwise disjoint")
    half = halved(s.pic.combination([1] * len(rows), [s.table.classes[i] for i in rows]))
    if not s.lattice.contains(half):
        raise CoverError("branch not 2-divisible in the Picard lattice")
    squares: dict[str, int] = {}
    pieces = [piece for entry in split.values() for piece in entry[:2]]
    for name, (plus, minus, _, label, square) in split.items():
        s.row(name)
        if name in branch:
            raise CoverError(f"branch component {name} cannot split: its preimage is the ramification curve")
        # a piece may take its own parent's name, which it replaces
        for piece in (plus, minus):
            if pieces.count(piece) > 1 or piece != name and piece in s.curves:
                raise CoverError(f"split piece {piece!r} of {name} is named like another curve or piece")
        if squares.setdefault(label, square) != square:
            raise CoverError(f"anti-invariant class {label!r} given squares {squares[label]} and {square}")
    diag = tuple(2 * d for d in _squares(s.pic)) + tuple(squares.values())
    pic = QuadraticSpace(s.pic.labels + tuple(squares), diag)
    pad = (0,) * len(squares)

    def pull(v: RationalVector) -> RationalVector:
        return _normal_vector(pic, v.nums + pad, v.den)

    curves = {}
    for name, v in s.curves.items():
        if name in split:
            plus, minus, k, label, _ = split[name]
            p, d = pull(v), k * pic.basis_vector(label)
            curves[plus], curves[minus] = halved(p + d), halved(p - d)
        else:
            curves[name] = pull(v)
    ramification = [halved(pull(s.table.classes[i])) for i in rows]
    plus_pieces = [curves[entry[0]] for entry in split.values()]
    lattice = SublatticeModel(pic, [*map(pull, s.lattice.generators), *ramification, *plus_pieces])
    return SurfaceModel(2 * s.euler - s.adjunction_euler(branch), lattice, pull(s.canonical + half), curves)


def noether_chi(s: SurfaceModel) -> int | Fraction:
    """(K^2 + e) / 12, an int or a Fraction; integrality is a verification outcome, not an input."""
    return _quotient(s.k_squared + s.euler, 12)


# ---------------------------------------------------------------------------
# the tower: plane -> six-point blowup -> quartic cover -> two more blowups
#            -> genus-1 branched cover
# ---------------------------------------------------------------------------


# the four lines of the branch quartic; l1 and l2 make up the residual conic
QUARTIC_LINES = (3, 4, 5, 6)
# the three diagonals of the complete quadrilateral, each the line through two
# opposite singular points of the quartic: m3456 through G34 and G56, and so on
DIAGONALS = {f"m{a}{b}{c}{d}": (f"G{a}{b}", f"G{c}{d}") for a, b, c, d in ((3, 4, 5, 6), (3, 5, 4, 6), (3, 6, 4, 5))}
# the quartic cover's anti-invariant class A, of square -2: the conic W splits along
# 2A, so W1 = H + A, and each diagonal, missing the quartic lines, along A
QUARTIC_SPLIT = {"W": ("W1", "W2", 2, "A", -2)} | {m: (f"m'{m[1:]}", f"m''{m[1:]}", 1, "A", -2) for m in DIAGONALS}


@cache
def blowup_quartic_points() -> SurfaceModel:
    """The plane blown up at the six singular points of the four-line quartic."""
    s = projective_plane({"H": 1} | {f"l{i}": 1 for i in range(1, 7)} | {"W": 2} | dict.fromkeys(DIAGONALS, 1))
    points = (f"G{a}{b}" for a, b in combinations(QUARTIC_LINES, 2))
    return blowup(s, {g: (f"l{g[1]}", f"l{g[2]}", *(m for m, ends in DIAGONALS.items() if g in ends)) for g in points})


def sextic_incidence() -> dict[str, object]:
    """The incidences of the six branch lines, read off the six-point blowup's
    curve table.

    The degrees are H.l_i, two plane lines meet deg*deg times, and the
    quartic singular points are the pairs of quartic lines whose strict
    transforms no longer meet.
    """
    s = blowup_quartic_points()
    lines = range(1, 7)
    deg = {i: s.pairing("H", f"l{i}") for i in lines}
    sextic, quartic = sum(deg.values()), sum(deg[i] for i in QUARTIC_LINES)
    return {
        "double_points": sum(deg[a] * deg[b] for a, b in INDEX_PAIRS),
        "points_per_line": [sum(deg[a] * deg[b] for b in lines if b != a) for a in lines],
        "quartic_singular_points": sum(
            1 for a, b in combinations(QUARTIC_LINES, 2) if deg[a] * deg[b] and not s.pairing(f"l{a}", f"l{b}")
        ),
        "degrees": {"sextic": sextic, "quartic": quartic, "residual_conic": sextic - quartic},
    }


@cache
def build_quartic_cover() -> SurfaceModel:
    """The double cover of the blown-up plane branched along the quartic lines."""
    return double_cover(blowup_quartic_points(), tuple(f"l{i}" for i in QUARTIC_LINES), QUARTIC_SPLIT)


def weak_del_pezzo_defects(t: SurfaceModel) -> list[str]:
    """What keeps t from a degree-two weak del Pezzo surface, empty if nothing:
    seven blowdowns to the plane by the numbers, -K.C >= 0 on every tracked
    curve and K.C = 0 exactly on the six G_ab, each of square -2, read off
    K's row and the curve table."""
    orthogonal = [name for name, k in zip(t.curves, t.k_row) if k == 0]
    # Noether's chi = (2 + 10)/12 = 1 follows from the numbers, so it is not compared
    defects = [f"K^2 = {t.k_squared}, e = {t.euler}"] if (t.k_squared, t.euler) != (9 - 7, 3 + 7) else []
    defects += [f"K.{name} > 0" for name, k in zip(t.curves, t.k_row) if k > 0]
    if set(orthogonal) != {f"G{a}{b}" for a, b in combinations(QUARTIC_LINES, 2)}:
        defects.append(f"K.C = 0 on {', '.join(orthogonal) or 'no curve'}")
    return defects + [f"{name}^2 = {sq}" for name in orthogonal if (sq := t.pairing(name, name)) != -2]


@cache
def build_blown_cover() -> SurfaceModel:
    """The quartic cover blown up at the two crossing points of the genus-1 pair."""
    return blowup(build_quartic_cover(), {"N1": ("l1", "l2"), "N2": ("l1", "l2")})


# W1 and W2 split along one D: W'1.W'2 = 4 and W'1.W''2 = 0 force D1.D2 = 8 =
# |D1||D2|, the Cauchy-Schwarz equality, so D2 = -D1 and W2's plus piece is W''2
CONIC_SPLIT = {"W1": ("W'1", "W''1", 1, "D", -8), "W2": ("W''2", "W'2", 1, "D", -8)}


@cache
def build_final_cover() -> SurfaceModel:
    """The double cover of the blown-up quartic cover branched along E1 + E2."""
    t = build_blown_cover()
    # each tracked G_ab misses the branch and splits
    split = {g: (f"G'{g[1:]}", f"G''{g[1:]}", 1, f"d{g[1:]}", -4) for g in t.curves if g[0] == "G"}
    return double_cover(t, ("l1", "l2"), split | CONIC_SPLIT)


# ---------------------------------------------------------------------------
# curve tables
# ---------------------------------------------------------------------------


def _pairings(s: SurfaceModel, names: Mapping[str, str], keys: str) -> dict[str, int]:
    """The pairings on s of the keys "a.b", with a and b renamed through ``names``."""
    return {key: s.pairing(*(names.get(c, c) for c in key.split("."))) for key in keys.split()}


def curve_table_T() -> dict[str, int]:
    """The curve table on the quartic cover, read off its Picard model.

    E1 and E2 are the preimages of the first two lines and W1, W2 the split
    conic preimages.  Also records the diagonal sum W1.E1 + W2.E2, the branch
    count on each of the first two lines (four) and E1's Euler number by
    adjunction (0, so genus one).
    """
    t = _pairings(
        build_quartic_cover(), {"E1": "l1", "E2": "l2"},
        "E1.E1 E2.E2 E1.E2 W1.W1 W2.W2 W1.W2 W1.E2 W2.E1 W1.E1 W2.E2",
    )
    t["W1.E1+W2.E2"] = t.pop("W1.E1") + t.pop("W2.E2")
    t["branch_points_on_l1"] = sum(blowup_quartic_points().pairing("l1", f"l{i}") for i in QUARTIC_LINES)
    t["E1.euler"] = build_quartic_cover().adjunction_euler(("l1",))
    return t


def sixteen_curves_on_X() -> tuple[list[str], dict[str, object]]:
    """The sixteen disjoint rational curves on the final cover and their
    inventory, read off its fibration: l1 is a branch fiber, so p*l1 = 2R for
    the fiber class R.  Each of the twelve I2 fibers holds one split G piece,
    the sections that meet no other section are the exceptional curves N1
    and N2, and the plus pieces of the split conic, W'1 and W''2, make sixteen."""
    x = build_final_cover()
    t, l1 = x.table, x.row("l1")
    if t.table[l1][l1] % 4 or any(p % 2 for p in t.table[l1]):
        raise CoverError("the branch fiber l1 is not twice a class on the final cover")
    _, pairs, sections = discover_fibers(t, [p // 2 for p in t.table[l1]], t.table[l1][l1] // 4)
    alone = [t.labels[y] for y in sections if not any(t.table[y][z] for z in sections if z != y)]
    plus = [piece for piece, *_ in CONIC_SPLIT.values()]
    sixteen = [t.labels[fiber.components[1][0]] for fiber in pairs] + alone + plus
    s = _pairings(x, {}, "W'1.W'1 W''1.W''1 W'2.W'2 W''2.W''2 W'1.W''1 W'2.W''2"
                         " W'1.W'2 W''1.W''2 W'1.W''2 W''1.W'2")
    return sixteen, {
        "split_preimages_of_exceptional": len(pairs),
        "exceptional_of_cover": len(alone),
        "split_conic_pieces_used": len(plus),
        "total": len(sixteen),
        "split_conic_table": s,
        "aggregate_cross": s["W'1.W'2"] + s["W'1.W''2"] + s["W''1.W'2"] + s["W''1.W''2"],
        "split_self_sum": s["W'1.W'1"] + s["W''1.W''1"] + 2 * s["W'1.W''1"],
        # p*W1 = W'1 + W''1 meets the sections that meet no other section, the exceptional curves
        # of the last blowups, twice per blown point on W1; none, so its square is 2 W1^2 as on T
        "blowup_correction": sum(x.pairing(w, a) for w in CONIC_SPLIT["W1"][:2] for a in alone),
    }


def sixteen_defects(sixteen: list[str]) -> list[str]:
    """The pairings "a.b = value" among the named curves on the final cover that are not those of -2 I."""
    x = build_final_cover()
    t, rows = x.table, {name: x.row(name) for name in sixteen}
    return [f"{a}.{b} = {x.pairing(a, b)}" for a, b in combinations_with_replacement(sixteen, 2)
            if t.table[rows[a]][rows[b]] != (-2 * t.scale if a == b else 0)]
