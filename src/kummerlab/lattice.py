"""Exact rational quadratic spaces and integral sublattice arithmetic.

Every quadratic space is diagonal: a labelled orthogonal basis with one
rational square per label, which covers every lattice of the package (the
divisor lattice diag(4, -2, ..., -2), the rank-8 root lattice and the surface
tower, whose blowups append -1 and whose double covers double the form).
A vector is integer numerators over one denominator, the diagonal integer
weights over one scale and a Gram table integer pairings over one scale; a
view of a single rational, such as one pairing, is an exact `fractions.Fraction`,
and the first such view imports `fractions`; no float appears anywhere.
A sublattice is stored as a generator matrix over a fixed ambient space.
Normal forms (Hermite, Smith) run on integer matrices obtained by clearing
denominators with a single scalar; the matrices involved are tiny (at most
33 x 17), so the routines use plain fraction-free pivoting with no
modular-arithmetic shortcuts.  A two-row step clears one column, and a fold
applies it to every row nonzero there, leaving one: the Hermite form folds
the columns in turn, the Smith form folds each leading column, transposes
when a pivot's row is left, and ends with one gcd/lcm pass over its
diagonal, and a square matrix is unimodular when folding its columns leaves
+-1 in each.  Definiteness reads the pivots of one Bareiss pass.
No kernel tracks a transform: a coordinate section is what folding the other
coordinates one by one leaves of a lattice's HNF rows, and a map sends
integer rows through its images, each held once as sparse numerators over
one denominator.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from functools import cache, cached_property
from math import gcd, lcm, prod

from ._frozen import Frozen


class LatticeError(ValueError):
    """Structural misuse: wrong space, bad dimensions, degenerate lattice."""


# ---------------------------------------------------------------------------
# integer matrix kernels: xgcd, HNF, SNF, leading minors
# ---------------------------------------------------------------------------


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = x*a + y*b and g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _combine(
    top: list[int], bottom: list[int], col: int
) -> tuple[list[int], list[int]]:
    """One unimodular step on two rows that clears ``bottom[col]``.

    Needs ``top[col] != 0``.  Returns the new ``(top, bottom)``: when
    ``bottom[col]`` is a multiple of ``top[col]`` only the bottom row changes;
    otherwise the top row becomes the combination whose entry is
    ``gcd(top[col], bottom[col]) > 0``.
    """
    a, b = top[col], bottom[col]
    if b % a == 0:
        q = b // a
        return top, [x - q * y for x, y in zip(bottom, top)]
    g, s, t = _xgcd(a, b)
    u, v = -(b // g), a // g
    return (
        [s * x + t * y for x, y in zip(top, bottom)],
        [u * x + v * y for x, y in zip(top, bottom)],
    )


def _fold(rows: Sequence[Sequence[int]], col: int) -> tuple[Sequence[int] | None, list[Sequence[int]]]:
    """``(top, rest)``: the two-row step folds the rows nonzero at col into top
    (None if there are none), and rest holds every other row, zero at col."""
    hits = [row for row in rows if row[col]]
    rest = [row for row in rows if not row[col]]
    top = hits[0] if hits else None
    for row in hits[1:]:
        top, row = _combine(top, row, col)
        rest.append(row)
    return top, rest


def _hnf_rows(
    rows: Sequence[Sequence[int]], ncols: int
) -> tuple[list[list[int]], list[int]]:
    """Row-style Hermite normal form by unimodular row operations.

    Returns ``(hnf, pivots)``.  The hnf rows have strictly increasing pivot
    columns, positive pivots, and every entry above a pivot reduced into
    ``[0, pivot)``; this form is unique for the row span, so it serves as the
    canonical basis.  Each column folds the rows nonzero there into a pivot row.
    """
    for row in rows:
        if len(row) != ncols:
            raise LatticeError(f"row has {len(row)} entries, expected {ncols}")
    work: list[list[int]] = []
    pivots: list[int] = []
    for c in range(ncols):
        if not rows:
            break
        top, rows = _fold(rows, c)
        if top is not None:
            top = [-x for x in top] if top[c] < 0 else list(top)
            for k, row in enumerate(work):
                if q := row[c] // top[c]:
                    work[k] = [x - q * y for x, y in zip(row, top)]
            work.append(top)
            pivots.append(c)
    return work, pivots


def _smith_normal_form(mat: Sequence[Sequence[int]]) -> list[int]:
    """The Smith diagonal d of mat, U * mat * V = diag(d) with d_i | d_{i+1}
    for unimodular U and V, which are not built: min(m, n) non-negative
    entries, zeros last.

    Row steps fold the leading column, least entry first, into one pivot row
    whose entry is the gcd of the column.  If it divides the rest of its row,
    column steps would clear that row and touch no other row, so the pivot's
    row and column are dropped; otherwise the matrix is transposed and folded
    again, to a pivot of smaller absolute value.  The diagonal so found is
    made a divisibility chain, as diag(a, b) is equivalent to diag(gcd, lcm).
    """
    a = mat
    diag = [0] * (min(len(a), len(a[0])) if a else 0)
    found = 0
    while a and a[0]:
        pivot, a = _fold(sorted(a, key=lambda row: abs(row[0])), 0)
        if pivot is None:
            a = [row[1:] for row in a]
        elif any(x % pivot[0] for x in pivot[1:]):
            a = [list(col) for col in zip(pivot, *a)]
        else:
            diag[found] = abs(pivot[0])
            found += 1
            a = [row[1:] for row in a]
    for i in range(found):
        for j in range(i + 1, found):
            diag[i], diag[j] = gcd(diag[i], diag[j]), lcm(diag[i], diag[j])
    return diag


def _gram_table(weights: Sequence[int], rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """The integer table sum_k weights[k] * a[k] * b[k] over all pairs of rows
    a, b, vectors' numerators or HNF rows, summed per column over the rows
    nonzero there, so no product with a zero factor is formed."""
    table = [[0] * len(rows) for _ in rows]
    for k, w in enumerate(weights):
        col = [(i, a[k]) for i, a in enumerate(rows) if a[k]]
        for i, x in col:
            wx, row = w * x, table[i]
            for j, y in col:
                row[j] += wx * y
    return table


def _integral_table(table: list[list[int]], scale: int) -> list[list[int]] | None:
    """The table divided by its scale, or None if an entry is not an integer."""
    if any(x % scale for row in table for x in row):
        return None
    return [[x // scale for x in row] for row in table]


def _leading_minors_positive(mat: Sequence[Sequence[int]]) -> bool:
    """True iff every leading principal minor of a square integer matrix is
    positive.  Bareiss elimination without pivoting leaves the k-th leading
    minor as its k-th pivot, so one pass stops at the first that is not."""
    a = [list(row) for row in mat]
    prev = 1
    for k, top in enumerate(a):
        if top[k] <= 0:
            return False
        for row in a[k + 1:]:
            for j in range(k + 1, len(a)):
                row[j] = (row[j] * top[k] - row[k] * top[j]) // prev
        prev = top[k]
    return True


def _unimodular(rows: Sequence[Sequence[int]]) -> bool:
    """True iff a square integer matrix has determinant +-1: folding its columns in
    turn leaves a triangular matrix of the same |det|, so each pivot must be +-1."""
    for k in range(len(rows)):
        top, rows = _fold(rows, k)
        if top is None or abs(top[k]) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# quadratic space and vectors
# ---------------------------------------------------------------------------

@cache
def _fraction() -> type[Fraction]:
    """`fractions.Fraction`, imported on the first call: a path that makes no call
    never loads `fractions` (nor `decimal` and `numbers`, which it imports)."""
    from fractions import Fraction
    return Fraction


@cache
def _zero() -> Fraction:
    """``Fraction(0)``, built on the first call and shared by every zero coordinate."""
    return _fraction()(0)


def _is_exact(x: object) -> bool:
    """True for an int (not a bool) or a Fraction, the package's exact rationals."""
    return isinstance(x, int) and not isinstance(x, bool) or isinstance(x, _fraction())


def _quotient(n: int, d: int) -> int | Fraction:
    """n / d for d > 0 as an exact rational: an int when d divides n, else a Fraction."""
    if n % d == 0:
        return n // d
    return _fraction()(n, d)


def _over_one_denominator(values: Sequence[int | Fraction]) -> tuple[tuple[int, ...], int]:
    """``(nums, den)`` with ``values[i] == nums[i] / den``, den the lcm of the reduced
    denominators, each value read once by ``as_integer_ratio()``.  A value that is not
    an int (not a bool) or a Fraction raises LatticeError (an IntEnum passes).
    Ints alone are returned as they are, over 1, without importing `fractions`."""
    values = tuple(values)
    types = set(map(type, values))
    if types <= {int}:
        return values, 1
    if not types <= {int, _fraction()}:
        for x in values:
            if not _is_exact(x):
                raise LatticeError(f"expected an int or a Fraction, got {x!r}")
    pairs = [x.as_integer_ratio() for x in values]
    den = lcm(*{d for _, d in pairs})
    return tuple([n * (den // d) for n, d in pairs]), den


class QuadraticSpace(Frozen):
    """A labelled orthogonal basis: <e_i, e_i> = diag[i], distinct e_i pair to 0.

    Held as integers, diag[i] == weights[i] / scale; ``diag`` is built on first
    read.  The vectors e_i are built once, as ``basis``.  Spaces with equal labels
    and diagonals, so with equal weights and scale, are equal."""

    def __init__(self, labels: Iterable[str], diag: Iterable[int | Fraction]) -> None:
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise LatticeError("basis labels must be unique")
        weights, scale = _over_one_denominator(tuple(diag))
        if len(weights) != len(labels):
            raise LatticeError("diagonal length must match the label count")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "scale", scale)
        n = len(labels)
        basis = tuple(_normal_vector(self, tuple([int(i == k) for i in range(n)]), 1) for k in range(n))
        object.__setattr__(self, "basis", basis)

    def _key(self) -> tuple:
        return self.labels, self.weights, self.scale

    @cached_property
    def diag(self) -> tuple[Fraction, ...]:
        Fraction = _fraction()
        return tuple(Fraction(w, self.scale) for w in self.weights)

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
    def _label_index(self) -> dict[str, int]:
        return {label: k for k, label in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._label_index[label]
        except (KeyError, TypeError):
            raise LatticeError(f"unknown basis label {label!r}") from None

    def basis_vector(self, label: str) -> "RationalVector":
        return self.basis[self.index(label)]

    def zero(self) -> "RationalVector":
        return _normal_vector(self, (0,) * self.dim, 1)

    def vector(self, values: Sequence[int | Fraction] | Mapping[str, int | Fraction]) -> "RationalVector":
        """Build a vector from a coordinate sequence or a label -> value mapping
        of ints and Fractions: the one entry point for rational coordinates.
        den is the lcm of reduced denominators, so den > 0 and gcd(den, *nums) == 1."""
        if type(values) is not list and type(values) is not tuple and isinstance(values, Mapping):
            coords: list[int | Fraction] = [0] * self.dim
            for label, value in values.items():
                coords[self.index(label)] = value
            values = coords
        nums, den = _over_one_denominator(values)
        if len(nums) != self.dim:
            raise LatticeError(f"expected {self.dim} coordinates, got {len(nums)}")
        return _normal_vector(self, nums, den)

    def _check_member(self, v: "RationalVector") -> None:
        if v.space is not self and v.space != self:
            raise LatticeError("vector belongs to a different quadratic space")

    def combination(
        self, coeffs: Sequence[int | Fraction], vectors: Sequence["RationalVector"]
    ) -> "RationalVector":
        """The vector sum_i coeffs[i] * vectors[i]: the coefficients over one
        denominator are a single integer row, summed through `map_rows`."""
        nums, den = _over_one_denominator(coeffs)
        vectors = tuple(vectors)
        if len(nums) != len(vectors):
            raise LatticeError(f"{len(nums)} coefficients for {len(vectors)} vectors")
        (total,), image_den = self.map_rows(vectors, (nums,))
        return RationalVector(self, total, den * image_den)

    def map_rows(
        self, images: Sequence["RationalVector"], rows: Sequence[Sequence[int]]
    ) -> tuple[list[list[int]], int]:
        """``(mapped, den)`` with mapped[r] / den == sum_i rows[r][i] * images[i]:
        each image is held once as its nonzero numerators over the images'
        common denominator, and every integer row is summed through them."""
        for v in images:
            self._check_member(v)
        den = lcm(*(v.den for v in images))
        sparse = [[(k, x * (den // v.den)) for k, x in enumerate(v.nums) if x] for v in images]
        mapped = []
        for row in rows:
            total = [0] * self.dim
            for c, terms in zip(row, sparse):
                if c:
                    for k, x in terms:
                        total[k] += c * x
            mapped.append(total)
        return mapped, den

    def inner(self, v: "RationalVector", w: "RationalVector") -> Fraction:
        """The diagonal form sum_i diag[i] * v_i * w_i, computed exactly."""
        self._check_member(v)
        self._check_member(w)
        total = sum(c * a * b for c, a, b in zip(self.weights, v.nums, w.nums) if a and b)
        return _fraction()(total, self.scale * v.den * w.den)

    def gram(self, vectors: Sequence["RationalVector"]) -> tuple[list[list[int]], int]:
        """``(table, scale)`` with <v_i, v_j> == table[i][j] / scale: the
        numerators over one common denominator, their pairings in integers."""
        for v in vectors:
            self._check_member(v)
        den = lcm(*(v.den for v in vectors))
        rows = [v.nums if v.den == den else [x * (den // v.den) for x in v.nums] for v in vectors]
        return _gram_table(self.weights, rows), den * den * self.scale


class RationalVector(Frozen):
    """A rational vector over a fixed quadratic space: coords[i] == nums[i] / den.

    Normalised to den > 0 and gcd(den, *nums) == 1, so vectors over equal
    spaces are equal iff their nums and den are; the hash leaves out the space."""

    __slots__ = ("space", "nums", "den")

    def __init__(self, space: QuadraticSpace, nums: Iterable[int], den: int = 1) -> None:
        nums = tuple(nums)
        if len(nums) != space.dim:
            raise LatticeError(f"expected {space.dim} coordinates, got {len(nums)}")
        if not {type(den), *map(type, nums)} <= {int} or not den:
            raise LatticeError("a vector is int numerators over a nonzero int denominator")
        nums, den = _lowest_terms(nums, den)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.nums, self.den, self.space) == (other.nums, other.den, other.space)

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    @property
    def coords(self) -> tuple[Fraction, ...]:
        Fraction, den, zero = _fraction(), self.den, _zero()
        return tuple([Fraction(x, den) if x else zero for x in self.nums])

    def coeff(self, label: str) -> Fraction:
        x = self.nums[self.space.index(label)]
        return _fraction()(x, self.den) if x else _zero()

    def dot(self, other: "RationalVector") -> Fraction:
        return self.space.inner(self, other)

    def norm(self) -> Fraction:
        return self.space.inner(self, self)

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __add__(self, other: "RationalVector") -> "RationalVector":
        (nums,), den = self.space.map_rows((self, other), ((1, 1),))
        return RationalVector(self.space, nums, den)

    def __sub__(self, other: "RationalVector") -> "RationalVector":
        (nums,), den = self.space.map_rows((self, other), ((1, -1),))
        return RationalVector(self.space, nums, den)

    def __neg__(self) -> "RationalVector":
        return _normal_vector(self.space, tuple([-a for a in self.nums]), self.den)

    def __mul__(self, scalar: int | Fraction) -> "RationalVector":
        if not _is_exact(scalar):
            return NotImplemented
        p = scalar.numerator
        return RationalVector(
            self.space, tuple(a * p for a in self.nums), self.den * scalar.denominator
        )

    __rmul__ = __mul__


def _lowest_terms(nums: tuple[int, ...], den: int) -> tuple[tuple[int, ...], int]:
    """nums / den for den != 0 with gcd(den, *nums) divided out and den made positive."""
    g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
    return (nums, den) if g == 1 else (tuple([x // g for x in nums]), den // g)


_set_space, _set_nums, _set_den = (RationalVector.__dict__[name].__set__ for name in RationalVector.__slots__)


def _normal_vector(space: QuadraticSpace, nums: tuple[int, ...], den: int) -> RationalVector:
    """nums / den unchecked: nums is a tuple of space.dim ints, den > 0 and gcd(den, *nums) == 1."""
    v = object.__new__(RationalVector)
    _set_space(v, space)
    _set_nums(v, nums)
    _set_den(v, den)
    return v


def vector_to_json(v: RationalVector) -> dict:
    """Interchange form: decimal-string numerators/denominators, exact round trip.

    Each entry is ``nums[i] / den`` in lowest terms, read straight off the
    integers: the sign on the numerator, a positive denominator, 0 as 0/1."""
    den = v.den
    return {
        "basis": list(v.space.labels),
        "coords": [[str(x // (g := gcd(x, den))), str(den // g)] if x else ["0", "1"] for x in v.nums],
    }


def _json_int(x: object) -> int:
    """Parse one entry as `vector_to_json` writes it: a string ``-?[0-9]+``.

    ``int`` alone would also take ints, bools, whitespace, underscores, a
    plus sign and non-ASCII digits; on ASCII text ``isdigit`` means 0-9.
    """
    if not (isinstance(x, str) and x.isascii() and x.removeprefix("-").isdigit()):
        raise ValueError(f"expected a decimal string, got {x!r}")
    return int(x)


def vector_from_json(space: QuadraticSpace, payload: Mapping) -> RationalVector:
    """Inverse of `vector_to_json`; any malformed payload raises LatticeError.

    Entries need not be in lowest terms and a denominator may be negative;
    the vector is built over the lcm of the denominators and normalised."""
    try:
        basis = tuple(payload["basis"])
        coords = list(payload["coords"])
        # unpacking checks the length but would take any iterable, such as "12"
        if not set(map(type, coords)) <= {list}:
            raise ValueError("each coordinate must be a [numerator, denominator] list")
        # a denominator "1" needs no parse; the type test comes first, so no
        # other object's __eq__ runs
        pairs = [(_json_int(n), 1 if type(d) is str and d == "1" else _json_int(d)) for n, d in coords]
    except (KeyError, TypeError, ValueError) as exc:
        raise LatticeError(f"malformed vector payload: {exc!r}") from exc
    dens = {d for _, d in pairs}
    if 0 in dens:
        raise LatticeError("malformed vector payload: zero denominator")
    if basis != space.labels or len(pairs) != space.dim:
        raise LatticeError("serialized basis labels or coordinate count do not match the target space")
    den = lcm(*dens)
    return _normal_vector(space, *_lowest_terms(tuple([n * (den // d) for n, d in pairs]), den))


# ---------------------------------------------------------------------------
# sublattices
# ---------------------------------------------------------------------------


class DiscriminantGroup(Frozen):
    """Invariant factors of dual-modulo-lattice."""

    __slots__ = ("invariant_factors",)

    def __init__(self, invariant_factors: Iterable[int]) -> None:
        factors = tuple(invariant_factors)
        if any(type(f) is not int for f in factors):
            raise LatticeError(f"invariant factors must be ints, got {factors!r}")
        if any(f <= 1 for f in factors):
            raise LatticeError("invariant factors must exceed 1")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise LatticeError("invariant factors must form a divisibility chain")
        object.__setattr__(self, "invariant_factors", factors)

    @property
    def order(self) -> int:
        return prod(self.invariant_factors) if self.invariant_factors else 1


class SublatticeModel(Frozen):
    """The integer span of finitely many rational vectors in an ambient space."""

    def __init__(self, space: QuadraticSpace, generators: Iterable[RationalVector]) -> None:
        gens = tuple(generators)
        for g in gens:
            space._check_member(g)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "generators", gens)

    def _key(self) -> tuple:
        return self.space, self.generators

    @cached_property
    def generators(self) -> tuple[RationalVector, ...]:
        """Set by the constructor; a coordinate section has its Z-basis."""
        return self.zbasis()

    # -- canonical basis -----------------------------------------------------

    @cached_property
    def _scaled(self) -> tuple[int, tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """(denominator D, HNF rows of D * generators, pivot columns)."""
        den = lcm(*(g.den for g in self.generators))
        int_rows = [g.nums if g.den == den else [x * (den // g.den) for x in g.nums] for g in self.generators]
        hnf, pivots = _hnf_rows(int_rows, self.space.dim)
        return den, tuple(tuple(r) for r in hnf), tuple(pivots)

    @property
    def denominator(self) -> int:
        """Scalar clearing every generator denominator."""
        return self._scaled[0]

    @property
    def rank(self) -> int:
        return len(self._scaled[1])

    def zbasis(self) -> tuple[RationalVector, ...]:
        den, hnf, _ = self._scaled
        return tuple(RationalVector(self.space, row, den) for row in hnf)

    def same_lattice(self, other: "SublatticeModel") -> bool:
        """Equal spans.  The denominator, the lcm of the generator denominators,
        is the least one clearing every lattice element, so it and the HNF
        rows are invariants of the span."""
        if self.space != other.space:
            return False
        return self._scaled[:2] == other._scaled[:2]

    # -- membership ----------------------------------------------------------

    @cached_property
    def _hermite_steps(self) -> tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]:
        """Each HNF row as (pivot, leading entry, its nonzero (column, entry) after the pivot)."""
        _, hnf, pivots = self._scaled
        return tuple((p, row[p], tuple((k, x) for k, x in enumerate(row) if x and k > p))
                     for row, p in zip(hnf, pivots))

    def _reduce(self, scaled: Sequence[int]) -> tuple[int, ...] | None:
        """HNF coordinates of the vector whose scaled form is given, or None."""
        x = list(scaled)
        coeffs = []
        for p, lead, tail in self._hermite_steps:
            q = 0
            if x[p]:
                q, r = divmod(x[p], lead)
                if r:
                    return None
                x[p] = 0
                for k, y in tail:
                    x[k] -= q * y
            coeffs.append(q)
        return None if any(x) else tuple(coeffs)

    def contains_scaled(self, scaled: Sequence[int]) -> bool:
        """Membership test for v given the integer vector denominator * v."""
        return self._reduce(scaled) is not None

    def _scale(self, v: RationalVector) -> list[int] | None:
        """The integer vector denominator * v, or None if that is not integral."""
        self.space._check_member(v)
        if self.denominator % v.den:
            return None
        f = self.denominator // v.den
        return [f * x for x in v.nums]

    def contains(self, v: RationalVector) -> bool:
        """True iff v is an integer combination of the generators."""
        scaled = self._scale(v)
        return scaled is not None and self.contains_scaled(scaled)

    def coordinates_of(self, v: RationalVector) -> tuple[int, ...] | None:
        """Integer coordinates of v in the canonical HNF basis, or None."""
        scaled = self._scale(v)
        return None if scaled is None else self._reduce(scaled)

    # -- invariants ----------------------------------------------------------

    @cached_property
    def _zgram(self) -> tuple[list[list[int]], int]:
        """(M, s) with Z-basis Gram = M / s; M is integral and s > 0."""
        den, hnf, _ = self._scaled
        return _gram_table(self.space.weights, hnf), den * den * self.space.scale

    def gram_zbasis(self) -> list[list[Fraction]]:
        Fraction = _fraction()
        gram, scale = self._zgram
        return [[Fraction(x, scale) for x in row] for row in gram]

    def discriminant_group(self) -> DiscriminantGroup:
        """Smith normal form of the Z-basis Gram matrix."""
        if not self.rank:
            return DiscriminantGroup(())
        int_gram = _integral_table(*self._zgram)
        if int_gram is None:
            raise LatticeError("Gram matrix of the Z-basis is not integral")
        diag = _smith_normal_form(int_gram)
        if len(diag) < self.rank or any(d == 0 for d in diag):
            raise LatticeError("degenerate lattice: Gram determinant is zero")
        return DiscriminantGroup(d for d in diag if d > 1)

    def in_dual(self, v: RationalVector) -> bool:
        """True iff v pairs integrally with the lattice, so with each Z-basis vector:
        v's nonzero weighted numerators against each scaled HNF row, in integers."""
        self.space._check_member(v)
        den, hnf, _ = self._scaled
        scale = self.space.scale * v.den * den
        terms = [(k, w * x) for k, (w, x) in enumerate(zip(self.space.weights, v.nums)) if x]
        return all(sum(x * row[k] for k, x in terms) % scale == 0 for row in hnf)

    def is_even(self) -> bool:
        """Integral Gram with even diagonal, i.e. every vector has even norm."""
        gram = _integral_table(*self._zgram)
        return gram is not None and all(gram[i][i] % 2 == 0 for i in range(len(gram)))

    def is_negative_definite(self) -> bool:
        """All leading principal minors of the negated Z-basis Gram are positive.

        The minors are taken of the integer matrix M = s * Gram; scaling by
        s > 0 does not change their signs.
        """
        return _leading_minors_positive([[-x for x in row] for row in self._zgram[0]])

    # -- maps and sublattices --------------------------------------------------

    def is_isometry(self, images: Mapping[str, RationalVector]) -> bool:
        """True iff the map defined on the basis labels preserves the form and
        carries this lattice bijectively onto itself: the images of the Z-basis
        lie in the lattice, and their HNF coordinates form a unimodular matrix."""
        if set(images) != set(self.space.labels):
            raise LatticeError("images must be given for every basis label")
        rows = [images[label] for label in self.space.labels]
        # form preservation on all basis pairs; `gram` checks each image's space
        table, scale = self.space.gram(rows)
        diag = [scale // self.space.scale * w for w in self.space.weights]
        if table != [[d if i == j else 0 for j in range(len(diag))] for i, d in enumerate(diag)]:
            return False
        # an HNF row is the denominator times a Z-basis vector, so the mapped
        # row over the images' denominator is the scaled image to reduce
        mapped, image_den = self.space.map_rows(rows, self._scaled[1])
        if image_den != 1:
            if any(x % image_den for row in mapped for x in row):
                return False
            mapped = [[x // image_den for x in row] for row in mapped]
        coords = [self._reduce(row) for row in mapped]
        return None not in coords and _unimodular(coords)

    def coordinate_section(self, labels: Iterable[str]) -> "SublatticeModel":
        """Sublattice of all lattice vectors supported on the given labels.

        This is the intersection with the rational coordinate subspace, hence
        the saturation of any sublattice spanned inside those coordinates.
        The two-row step clears the other coordinates from the scaled HNF rows
        one at a time, folding the rows nonzero there into one row that is
        dropped; the dropped rows are independent there, so the rows left span
        the section.  Their HNF over the least denominator is set as the
        section's canonical basis, and its Z-basis serves as the generators.
        """
        keep = {self.space.index(label) for label in labels}
        den, rows, _ = self._scaled
        for c in range(self.space.dim):
            if c not in keep:
                _, rows = _fold(rows, c)
        hnf, pivots = _hnf_rows(rows, self.space.dim)
        g = gcd(den, *(x for row in hnf for x in row))
        section = SublatticeModel.__new__(SublatticeModel)
        object.__setattr__(section, "space", self.space)
        rows = tuple(tuple(x // g for x in row) for row in hnf)
        object.__setattr__(section, "_scaled", (den // g, rows, tuple(pivots)))
        return section

    def index_of_sublattice(self, sub: "SublatticeModel") -> int:
        """Index [self : sub] for a finite-index sublattice of equal rank."""
        if self.space != sub.space:
            raise LatticeError("sublattice lives in a different space")
        if sub.rank != self.rank:
            raise LatticeError("ranks differ, the index is not finite")
        # this denominator clears every element of a contained lattice, so
        # the sublattice's least clearing denominator divides it
        f, r = divmod(self.denominator, sub.denominator)
        (_, hnf, pivots), sub_hnf = self._scaled, sub._scaled[1]
        if r or any(self._reduce([f * x for x in row]) is None for row in sub_hnf):
            raise LatticeError("given lattice is not contained in this one")
        # equal rational spans share pivots, so in this HNF basis the rows of
        # sub have triangular coordinates, read off at the pivots
        return prod(f * a[p] // b[p] for a, b, p in zip(sub_hnf, hnf, pivots))
