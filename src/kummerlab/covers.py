"""Numerical surface calculus for the double-plane tower.

Surfaces are tracked by Euler number and a partial Picard model: a labelled
quadratic space holding the hyperplane class, exceptional classes, pullbacks
thereof and the anti-invariant classes of split curves, together with the
canonical class K and named curve classes.  Two operations evolve a surface:
blowing up a point (new (-1) class, strict transforms drop one copy of it
per local branch) and taking a double cover branched along disjoint tracked
curves of 2-divisible sum B (Euler number 2e - e(B), canonical class
K + B/2, pairings doubled on pullbacks, split curves replaced by their two
pieces).  Each surface takes one Gram of its curves and K when built: K^2,
the pairings and each curve Euler number by adjunction, -(C^2 + K.C), are
read from it, and so are the curve table of the quartic cover and the
sixteen curves on the final cover, counted from the fibers `discover_fibers`
finds on the blown-up quartic cover, whose branch E1 + E2 is two fibers.
The six-line configuration takes a Gram of H and the lines on the blowup.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement
from collections.abc import Mapping
from types import MappingProxyType

from ._frozen import Frozen
from .fibration import discover_fibers
from .kummer_ns import CurveTable
from .labels import INDEX_PAIRS
from .lattice import QuadraticSpace, RationalVector


class CoverError(ValueError):
    """Raised when a branch divisor or an intersection identity is invalid."""


# ---------------------------------------------------------------------------
# numerical surfaces
# ---------------------------------------------------------------------------


class SurfaceModel(Frozen):
    """A surface's numbers, Picard model, canonical class K and named curves.  One Gram
    of the curves and K, taken here, gives their `CurveTable`, K's row ``k_row`` (K.C
    times the table's scale, in table order) and ``k_squared``."""

    __slots__ = ("euler", "pic", "canonical", "curves", "table", "k_row", "k_squared")

    def __init__(
        self, euler: int, pic: QuadraticSpace, canonical: RationalVector, curves: Mapping[str, RationalVector]
    ) -> None:
        object.__setattr__(self, "euler", euler)
        object.__setattr__(self, "pic", pic)
        object.__setattr__(self, "canonical", canonical)
        object.__setattr__(self, "curves", MappingProxyType(dict(curves)))
        names, classes = tuple(self.curves), tuple(self.curves.values())
        (*rows, k_row), scale = pic.gram(classes + (canonical,))
        object.__setattr__(self, "table", CurveTable(names, classes, [r[:-1] for r in rows], scale))
        object.__setattr__(self, "k_row", tuple(k_row[:-1]))
        object.__setattr__(self, "k_squared", self.integer("K^2", k_row[-1]))

    def integer(self, what: str, n: int) -> int:
        """The number ``what``, n over the table's scale; a fraction raises."""
        if n % self.table.scale:
            raise CoverError(f"{what} = {Fraction(n, self.table.scale)} is not an integer")
        return n // self.table.scale

    def row(self, name: str) -> int:
        try:
            return self.table.labels.index(name)
        except ValueError:
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
    pic = QuadraticSpace(("H",), [1])
    h = pic.basis_vector("H")
    curves = {name: deg * h for name, deg in tracked_degrees.items()}
    return SurfaceModel(3, pic, -3 * h, curves)


def blowup(s: SurfaceModel, exceptional: str, through: tuple[str, ...] | list[str]) -> SurfaceModel:
    """Blow up one point: e + 1, K^2 - 1, a new (-1) class.

    ``through`` lists tracked curves through the point; list a name twice for
    a point of multiplicity two on that curve.  Listed curves are replaced by
    their strict transforms.
    """
    pic = QuadraticSpace(s.pic.labels + (exceptional,), s.pic.diag + (-1,))

    def extend(v: RationalVector, exc_coeff: int) -> RationalVector:
        return RationalVector(pic, v.nums + (exc_coeff * v.den,), v.den)

    for name in through:
        s.row(name)
    curves = {name: extend(v, -through.count(name)) for name, v in s.curves.items()}
    curves[exceptional] = pic.basis_vector(exceptional)
    return SurfaceModel(s.euler + 1, pic, extend(s.canonical, 1), curves)


def double_cover(
    s: SurfaceModel, branch: tuple[str, ...], split: Mapping[str, tuple[str, str, str, int]]
) -> SurfaceModel:
    """Double cover branched along B, the sum of the tracked curves ``branch``.

    They must be pairwise disjoint with B/2 in the modeled Picard group, and
    e(B) is their `SurfaceModel.adjunction_euler`.  The pullback doubles the
    form on the same labels, <p*D1, p*D2> = 2<D1, D2>; the canonical class
    becomes the pullback of K + B/2 and the Euler number 2e - e(B).

    ``split`` maps each tracked curve C whose preimage splits to ``(plus,
    minus, label, square)``: the space gains the anti-invariant class d of
    ``label`` and ``square`` once per label, and C gives way to its pieces
    ``plus = (p*C + d)/2`` and ``minus = (p*C - d)/2``.
    """
    rows = [s.row(name) for name in branch]
    if any(s.table.table[i][j] for i, j in combinations(rows, 2)):
        raise CoverError(f"branch components {', '.join(branch)} are not pairwise disjoint")
    half = s.pic.combination([Fraction(1, 2)] * len(rows), [s.table.classes[i] for i in rows])
    if not half.is_integral:
        raise CoverError("branch not 2-divisible in the modeled Picard group")
    squares: dict[str, int] = {}
    for name, (_, _, label, square) in split.items():
        s.row(name)
        if squares.setdefault(label, square) != square:
            raise CoverError(f"anti-invariant class {label!r} given squares {squares[label]} and {square}")
    diag = tuple(2 * d for d in s.pic.diag) + tuple(squares.values())
    pic = QuadraticSpace(s.pic.labels + tuple(squares), diag)
    pad = (0,) * len(squares)

    def pull(v: RationalVector) -> RationalVector:
        return RationalVector(pic, v.nums + pad, v.den)

    curves = {}
    for name, v in s.curves.items():
        if name in split:
            plus, minus, label, _ = split[name]
            p, d = pull(v), pic.basis_vector(label)
            curves[plus], curves[minus] = Fraction(1, 2) * (p + d), Fraction(1, 2) * (p - d)
        else:
            curves[name] = pull(v)
    return SurfaceModel(2 * s.euler - s.adjunction_euler(branch), pic, pull(s.canonical + half), curves)


def noether_chi(s: SurfaceModel) -> Fraction:
    """(K^2 + e) / 12; integrality is a verification outcome, not an input."""
    return Fraction(s.k_squared + s.euler, 12)


# ---------------------------------------------------------------------------
# the tower: plane -> six-point blowup -> quartic cover -> two more blowups
#            -> genus-1 branched cover
# ---------------------------------------------------------------------------


# the four lines of the branch quartic; l1 and l2 make up the residual conic
QUARTIC_LINES = (3, 4, 5, 6)


@cache
def blowup_quartic_points() -> SurfaceModel:
    """The plane blown up at the six singular points of the four-line quartic."""
    s = projective_plane({f"l{i}": 1 for i in range(1, 7)} | {"W": 2})
    for a, b in combinations(QUARTIC_LINES, 2):
        s = blowup(s, f"G{a}{b}", (f"l{a}", f"l{b}"))
    return s


def sextic_incidence() -> dict[str, object]:
    """The incidences of the six branch lines, read from one Gram of H and
    l1..l6 on the six-point blowup.

    The degrees are H.l_i, two plane lines meet deg*deg times, and the
    quartic singular points are the pairs of quartic lines whose strict
    transforms no longer meet.  The blown-up plane's form is unimodular, so
    the Gram's scale is 1.
    """
    s = blowup_quartic_points()
    lines = range(1, 7)
    table, scale = s.pic.gram([s.pic.basis_vector("H")] + [s.curves[f"l{i}"] for i in lines])
    deg = {i: table[0][i] // scale for i in lines}
    sextic, quartic = sum(deg.values()), sum(deg[i] for i in QUARTIC_LINES)
    return {
        "double_points": sum(deg[a] * deg[b] for a, b in INDEX_PAIRS),
        "points_per_line": [sum(deg[a] * deg[b] for b in lines if b != a) for a in lines],
        "quartic_singular_points": sum(
            1 for a, b in combinations(QUARTIC_LINES, 2) if deg[a] * deg[b] and not table[a][b]
        ),
        "degrees": {"sextic": sextic, "quartic": quartic, "residual_conic": sextic - quartic},
    }


@cache
def build_quartic_cover() -> SurfaceModel:
    """The double cover of the blown-up plane branched along the quartic lines."""
    base = blowup_quartic_points()
    return double_cover(base, tuple(f"l{i}" for i in QUARTIC_LINES), {"W": ("W1", "W2", "dW", -8)})


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
    t = build_quartic_cover()
    t = blowup(t, "N1", ("l1", "l2"))
    t = blowup(t, "N2", ("l1", "l2"))
    return t


@cache
def build_final_cover() -> SurfaceModel:
    """The double cover of the blown-up quartic cover branched along E1 + E2."""
    t = build_blown_cover()
    # each tracked G_ab misses the branch and splits; W'1.W'2 = 4 and
    # W'1.W''2 = 0 force D1.D2 = 8 = |D1||D2|, the Cauchy-Schwarz equality,
    # so D2 = -D1 and W2's plus piece is W''2
    split = {g: (f"G'{g[1:]}", f"G''{g[1:]}", f"d{g[1:]}", -4) for g in t.curves if g[0] == "G"}
    split |= {"W1": ("W'1", "W''1", "D", -8), "W2": ("W''2", "W'2", "D", -8)}
    return double_cover(t, ("l1", "l2"), split)


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


def sixteen_curves_on_X() -> dict[str, object]:
    """Inventory of the sixteen disjoint rational curves on the final cover.

    On the blown-up cover the branch E1 + E2 is two fibers of |E1|, F the row
    of l1: the G of each I2 fiber misses it and splits in two (twelve), the
    sections N1 and N2 meet it twice and stay irreducible of square -2 (two),
    and two of the four split conic pieces, paired on the final cover, make
    sixteen.
    """
    t = build_blown_cover().table
    l1 = t.labels.index("l1")
    _, pairs, sections = discover_fibers(t, t.table[l1], t.table[l1][l1])
    split_exceptional = 2 * len(pairs)
    exceptional_of_x = sum(1 for x in sections if t.labels[x] in ("N1", "N2"))
    s = _pairings(
        build_final_cover(), {},
        "W'1.W'1 W''1.W''1 W'2.W'2 W''2.W''2 W'1.W''1 W'2.W''2 W'1.W'2 W''1.W''2 W'1.W''2 W''1.W'2",
    )
    w_self = s["W'1.W'1"] + s["W''1.W''1"] + 2 * s["W'1.W''1"]
    # the conic misses both blown points, so its class is unchanged upstairs
    # and the pullback square is 2 * W1^2 with zero blowup correction
    pullback_self = 2 * build_quartic_cover().pairing("W1", "W1")
    return {
        "split_preimages_of_exceptional": split_exceptional,
        "exceptional_of_cover": exceptional_of_x,
        "split_conic_pieces_used": 2,
        "total": split_exceptional + exceptional_of_x + 2,
        "split_conic_table": s,
        "aggregate_cross": s["W'1.W'2"] + s["W'1.W''2"] + s["W''1.W'2"] + s["W''1.W''2"],
        "split_self_sum": w_self,
        "blowup_correction": pullback_self - w_self,
    }


def sixteen_on_X() -> list[str]:
    """The sixteen on the final cover: the split pieces of the G_ab, N1, N2, W'1 and W''2."""
    return [name for name in build_final_cover().curves if name[0] == "G"] + ["N1", "N2", "W'1", "W''2"]


def sixteen_defects() -> list[str]:
    """The pairings "a.b = value" among `sixteen_on_X` that are not those of -2 I."""
    x = build_final_cover()
    t, sixteen = x.table, sixteen_on_X()
    rows = zip([t.labels.index(name) for name in sixteen], sixteen)
    return [
        f"{a}.{b} = {x.pairing(a, b)}" for (i, a), (j, b) in combinations_with_replacement(rows, 2)
        if t.table[i][j] != (-2 * t.scale if i == j else 0)
    ]
