"""Numerical surface calculus for the double-plane tower.

Surfaces are tracked by Euler number, canonical self-intersection and a
partial Picard model: a labelled quadratic space holding the hyperplane
class, exceptional classes, and pullbacks thereof, together with named curve
classes.  Two operations evolve a surface: blowing up a point (new (-1)
class, strict transforms drop one copy of it per local branch) and taking a
double cover branched along a 2-divisible class (Euler number 2e - e(branch),
canonical class K + B/2, intersection numbers doubled on pulled-back
classes).  Curves whose classes live outside this partial model - the two
genus-1 branch components and the split conic preimages - are carried as
declared intersection data and checked for aggregate consistency only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from collections.abc import Mapping
from types import MappingProxyType

from ._frozen import Frozen
from .labels import INDEX_PAIRS
from .lattice import QuadraticSpace, RationalVector


class CoverError(ValueError):
    """Raised when a branch divisor or an intersection identity is invalid."""


# ---------------------------------------------------------------------------
# the plane sextic configuration
# ---------------------------------------------------------------------------


class PlaneConfig(Frozen):
    """Six lines tangent to a conic: the branch sextic of the double plane."""

    __slots__ = ("lines",)

    def __init__(self, lines: tuple[str, ...] = tuple(f"l{i}" for i in range(1, 7))) -> None:
        object.__setattr__(self, "lines", lines)

    def points_on_line(self, i: int) -> tuple[tuple[int, int], ...]:
        return tuple(p for p in INDEX_PAIRS if i in p)

    def quartic_lines(self) -> tuple[str, ...]:
        return self.lines[2:]

    def residual_conic_lines(self) -> tuple[str, ...]:
        return self.lines[:2]

    def quartic_singular_points(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i, j) for i in range(3, 7) for j in range(i + 1, 7)
        )

    def degrees(self) -> dict[str, int]:
        counts = {
            "sextic": 6,
            "quartic": len(self.quartic_lines()),
            "residual_conic": len(self.residual_conic_lines()),
        }
        if counts["quartic"] + counts["residual_conic"] != counts["sextic"]:
            raise CoverError("sextic degree does not split as quartic + conic")
        return counts


def sextic_configuration() -> PlaneConfig:
    return PlaneConfig()


# ---------------------------------------------------------------------------
# numerical surfaces
# ---------------------------------------------------------------------------


class SurfaceModel(Frozen):
    __slots__ = ("euler", "k_squared", "pic", "canonical", "curves")

    def __init__(
        self, euler: int, k_squared: int, pic: QuadraticSpace, canonical: RationalVector,
        curves: Mapping[str, RationalVector],
    ) -> None:
        if canonical.norm() != k_squared:
            raise CoverError("canonical self-intersection disagrees with k_squared")
        object.__setattr__(self, "euler", euler)
        object.__setattr__(self, "k_squared", k_squared)
        object.__setattr__(self, "pic", pic)
        object.__setattr__(self, "canonical", canonical)
        object.__setattr__(self, "curves", MappingProxyType(dict(curves)))

    def curve(self, name: str) -> RationalVector:
        try:
            return self.curves[name]
        except KeyError:
            raise CoverError(f"no tracked curve named {name!r}") from None

    def pairing(self, a: str, b: str) -> Fraction:
        return self.pic.inner(self.curve(a), self.curve(b))


class BranchData(Frozen):
    """A branch divisor with its topological Euler number.

    For disjoint smooth rational components the Euler number is 2 per
    component; the genus-1 branch used for the final cover carries 0.
    """

    __slots__ = ("divisor_class", "euler_of_branch", "components")

    def __init__(
        self, divisor_class: RationalVector, euler_of_branch: int,
        components: tuple[RationalVector, ...] = (),
    ) -> None:
        object.__setattr__(self, "divisor_class", divisor_class)
        object.__setattr__(self, "euler_of_branch", euler_of_branch)
        object.__setattr__(self, "components", components)

    @classmethod
    def disjoint_rational(cls, components: tuple[RationalVector, ...]) -> "BranchData":
        comps = tuple(components)
        if not comps:
            raise CoverError("need at least one component")
        space = comps[0].space
        for a_idx, a in enumerate(comps):
            if a.norm() != -2:
                raise CoverError("components must be (-2)-classes")
            for b in comps[a_idx + 1 :]:
                if space.inner(a, b) != 0:
                    raise CoverError("components must be pairwise disjoint")
        total = comps[0]
        for c in comps[1:]:
            total = total + c
        return cls(total, 2 * len(comps), comps)


def projective_plane(tracked_degrees: Mapping[str, int]) -> SurfaceModel:
    """The plane: e = 3, K^2 = 9, Pic = ZH, canonical -3H; curves by degree."""
    pic = QuadraticSpace(("H",), [1])
    h = pic.basis_vector("H")
    curves = {name: deg * h for name, deg in tracked_degrees.items()}
    return SurfaceModel(3, 9, pic, -3 * h, curves)


def blowup(s: SurfaceModel, exceptional: str, through: tuple[str, ...] | list[str]) -> SurfaceModel:
    """Blow up one point: e + 1, K^2 - 1, a new (-1) class.

    ``through`` lists tracked curves through the point; list a name twice for
    a point of multiplicity two on that curve.  Listed curves are replaced by
    their strict transforms.
    """
    old = s.pic
    pic = QuadraticSpace(old.labels + (exceptional,), old.diag + (-1,))

    def extend(v: RationalVector, exc_coeff: int) -> RationalVector:
        return RationalVector(pic, v.nums + (exc_coeff * v.den,), v.den)

    multiplicity: dict[str, int] = {}
    for name in through:
        if name not in s.curves:
            raise CoverError(f"no tracked curve named {name!r}")
        multiplicity[name] = multiplicity.get(name, 0) + 1

    curves = {
        name: extend(v, -multiplicity.get(name, 0)) for name, v in s.curves.items()
    }
    curves[exceptional] = pic.basis_vector(exceptional)
    return SurfaceModel(
        s.euler + 1,
        s.k_squared - 1,
        pic,
        extend(s.canonical, 1),
        curves,
    )


def double_cover(s: SurfaceModel, branch: BranchData) -> SurfaceModel:
    """Double cover branched along a 2-divisible class.

    The pulled-back Picard model keeps the same labels with the form doubled,
    so pullback pairings obey <p*D1, p*D2> = 2<D1, D2>; the canonical class
    becomes the pullback of K + B/2 and the Euler number 2e - e(branch).
    """
    b = branch.divisor_class
    s.pic._check_member(b)
    half = RationalVector(s.pic, b.nums, 2 * b.den)
    if not half.is_integral:
        raise CoverError("branch not 2-divisible in the modeled Picard group")
    pic = QuadraticSpace(s.pic.labels, tuple(2 * d for d in s.pic.diag))

    def pull(v: RationalVector) -> RationalVector:
        return RationalVector(pic, v.nums, v.den)

    canonical = pull(s.canonical + half)
    k_squared = canonical.norm()
    if k_squared.denominator != 1:
        raise CoverError("canonical self-intersection is not an integer")
    return SurfaceModel(
        2 * s.euler - branch.euler_of_branch,
        k_squared.numerator,
        pic,
        canonical,
        {name: pull(v) for name, v in s.curves.items()},
    )


def noether_chi(s: SurfaceModel) -> Fraction:
    """(K^2 + e) / 12; integrality is a verification outcome, not an input."""
    return Fraction(s.k_squared + s.euler, 12)


# ---------------------------------------------------------------------------
# the tower: plane -> six-point blowup -> quartic cover -> two more blowups
#            -> genus-1 branched cover
# ---------------------------------------------------------------------------


@cache
def blowup_quartic_points() -> SurfaceModel:
    """The plane blown up at the six singular points of the four-line quartic."""
    config = sextic_configuration()
    s = projective_plane({f"l{i}": 1 for i in range(1, 7)} | {"W": 2})
    for a, b in config.quartic_singular_points():
        s = blowup(s, f"G{a}{b}", (f"l{a}", f"l{b}"))
    return s


def quartic_branch(s: SurfaceModel) -> BranchData:
    return BranchData.disjoint_rational(tuple(s.curve(f"l{i}") for i in (3, 4, 5, 6)))


@cache
def build_quartic_cover() -> SurfaceModel:
    """The double cover of the blown-up plane branched along the quartic lines."""
    base = blowup_quartic_points()
    return double_cover(base, quartic_branch(base))


def verify_weak_del_pezzo(t: SurfaceModel) -> bool:
    """Degree-two weak del Pezzo numerology: seven blowdowns to the plane."""
    chi = noether_chi(t)
    return t.k_squared == 9 - 7 and t.euler == 3 + 7 and chi == 1


@cache
def build_blown_cover() -> SurfaceModel:
    """The quartic cover blown up at the two crossing points of the genus-1 pair."""
    t = build_quartic_cover()
    t = blowup(t, "N1", ("l1", "l2"))
    t = blowup(t, "N2", ("l1", "l2"))
    return t


def elliptic_branch(t: SurfaceModel) -> BranchData:
    """The two disjoint genus-1 strict transforms; their Euler number is 0."""
    e1, e2 = t.curve("l1"), t.curve("l2")
    if t.pic.inner(e1, e2) != 0:
        raise CoverError("genus-1 branch components must be disjoint after blowup")
    return BranchData(e1 + e2, 0, (e1, e2))


@cache
def build_final_cover() -> SurfaceModel:
    t = build_blown_cover()
    return double_cover(t, elliptic_branch(t))


# ---------------------------------------------------------------------------
# curve tables
# ---------------------------------------------------------------------------

# declared intersection numbers among the genus-1 curves E1, E2 (preimages of
# the first two lines) and the split conic preimages W1, W2 on the quartic
# cover; the Ei.Wi diagonal is not declared and only its sum is forced
CURVE_TABLE = {
    "E1.E1": 2,
    "E2.E2": 2,
    "E1.E2": 2,
    "W1.W1": 0,
    "W2.W2": 0,
    "W1.W2": 4,
    "W1.E2": 2,
    "W2.E1": 2,
}

# declared intersection numbers of the four split conic-preimage pieces on the
# final cover
SPLIT_CONIC_TABLE = {
    "W'1.W'1": -2,
    "W''1.W''1": -2,
    "W'2.W'2": -2,
    "W''2.W''2": -2,
    "W'1.W''1": 2,
    "W'2.W''2": 2,
    "W'1.W'2": 4,
    "W''1.W''2": 4,
    "W'1.W''2": 0,
    "W''1.W'2": 0,
}


def curve_table_T() -> dict[str, int]:
    """The declared intersection table on the quartic cover, after checking
    every aggregate identity the pullback rules force.

    Identities checked (all equal to 8): (E1+E2)^2 against 2(l1+l2)^2,
    (W1+W2)^2 against 2W^2, and (E1+E2).(W1+W2) against 2(l1+l2).W, the last
    forcing the undeclared diagonal sum W1.E1 + W2.E2 = 4.  Also records the
    branch count on each of the first two lines (four, so the preimages have
    Euler number 0 and genus one).
    """
    base = blowup_quartic_points()
    cc = base.curve("l1") + base.curve("l2")
    w = base.curve("W")
    pull_cc = 2 * base.pic.inner(cc, cc)
    pull_ww = 2 * base.pic.inner(w, w)
    pull_cw = 2 * base.pic.inner(cc, w)

    t = dict(CURVE_TABLE)
    e_sum = t["E1.E1"] + t["E2.E2"] + 2 * t["E1.E2"]
    if e_sum != pull_cc:
        raise CoverError(
            f"(E1+E2)^2 = {e_sum} does not match 2*(l1+l2)^2 = {pull_cc}"
        )
    w_sum = t["W1.W1"] + t["W2.W2"] + 2 * t["W1.W2"]
    if w_sum != pull_ww:
        raise CoverError(f"(W1+W2)^2 = {w_sum} does not match 2*W^2 = {pull_ww}")
    off_diag = t["W1.E2"] + t["W2.E1"]
    diagonal_sum = pull_cw - off_diag
    if diagonal_sum < 0:
        raise CoverError(
            f"(E1+E2).(W1+W2) = {pull_cw} is below the declared off-diagonal {off_diag}"
        )
    t["W1.E1+W2.E2"] = int(diagonal_sum)

    branch = quartic_branch(base).divisor_class
    branch_points = base.pic.inner(base.curve("l1"), branch)
    t["branch_points_on_l1"] = int(branch_points)
    t["E1.euler"] = int(2 * 2 - branch_points)
    if t["E1.euler"] != 0:
        raise CoverError("line preimage is not a genus-1 curve")
    return t


def sixteen_curves_on_X() -> dict[str, object]:
    """Inventory of the sixteen disjoint rational curves on the final cover.

    Twelve split preimages of the six exceptional classes, the two
    exceptional classes of the final blowups (each meets the branch twice, so
    their preimages stay irreducible with self-intersection -2), and two of
    the four split conic pieces.  The declared split-conic table must
    reproduce the class-level aggregates.
    """
    t2 = build_blown_cover()
    branch = elliptic_branch(t2).divisor_class
    config = sextic_configuration()

    split_exceptional = 0
    for a, b in config.quartic_singular_points():
        g = t2.curve(f"G{a}{b}")
        if t2.pic.inner(g, branch) != 0:
            raise CoverError(f"exceptional class G{a}{b} meets the genus-1 branch")
        split_exceptional += 2

    exceptional_of_x = 0
    for name in ("N1", "N2"):
        n = t2.curve(name)
        if t2.pic.inner(n, branch) != 2:
            raise CoverError(f"blowup class {name} does not meet the branch twice")
        exceptional_of_x += 1

    s = SPLIT_CONIC_TABLE
    aggregate_cross = s["W'1.W'2"] + s["W'1.W''2"] + s["W''1.W'2"] + s["W''1.W''2"]
    expected_cross = 2 * CURVE_TABLE["W1.W2"]
    if aggregate_cross != expected_cross:
        raise CoverError(
            f"(W'1+W''1).(W'2+W''2) = {aggregate_cross}, expected {expected_cross}"
        )
    w_self = s["W'1.W'1"] + s["W''1.W''1"] + 2 * s["W'1.W''1"]
    # the conic misses both blown points, so its class is unchanged upstairs
    # and the pullback square is 2 * W1^2 with zero blowup correction
    pullback_self = 2 * CURVE_TABLE["W1.W1"]
    correction = pullback_self - w_self

    return {
        "split_preimages_of_exceptional": split_exceptional,
        "exceptional_of_cover": exceptional_of_x,
        "split_conic_pieces_used": 2,
        "total": split_exceptional + exceptional_of_x + 2,
        "split_conic_table": dict(s),
        "aggregate_cross": aggregate_cross,
        "split_self_sum": w_self,
        "blowup_correction": int(correction),
    }
