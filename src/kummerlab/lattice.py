"""Exact rational quadratic spaces and integral sublattice arithmetic.

Every quadratic space is diagonal: a labelled orthogonal basis with one
rational square per label, which covers every lattice of the package (the
divisor lattice diag(4, -2, ..., -2), the rank-8 root lattice and the surface
tower, whose blowups append -1 and whose double covers double the form).
A vector is integer numerators over one denominator and the diagonal integer
weights over one scale, so all arithmetic is on integers, results are exact
`fractions.Fraction`s and no floating point appears anywhere in the package.
A sublattice is stored as a generator matrix over a fixed ambient space.
Normal forms (Hermite, Smith) run on integer matrices obtained by clearing
denominators with a single scalar; the matrices involved are tiny (at most
33 x 17), so the routines use plain fraction-free pivoting with no
modular-arithmetic shortcuts.  Both share one two-row step, and no kernel
tracks a transform by hand: the Smith transform U is read off an identity
appended to the rows, and a coordinate section off an HNF taken with the other
coordinates ordered first.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod

from ._frozen import Frozen


class LatticeError(ValueError):
    """Structural misuse: wrong space, bad dimensions, degenerate lattice."""


# ---------------------------------------------------------------------------
# integer matrix kernels: xgcd, HNF, SNF, determinants
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


def _hnf_rows(
    rows: Sequence[Sequence[int]], ncols: int
) -> tuple[list[list[int]], list[int]]:
    """Row-style Hermite normal form by unimodular row operations.

    Returns ``(hnf, pivots)``.  The hnf rows have strictly increasing pivot
    columns, positive pivots, and every entry above a pivot reduced into
    ``[0, pivot)``; this form is unique for the row span, so it serves as the
    canonical basis.
    """
    work: list[list[int]] = []
    pivots: list[int] = []

    for row in rows:
        vec = [int(x) for x in row]
        if len(vec) != ncols:
            raise LatticeError(f"row has {len(vec)} entries, expected {ncols}")
        while True:
            j = next((c for c, x in enumerate(vec) if x), None)
            if j is None:
                break
            pos = bisect_left(pivots, j)
            if pos < len(pivots) and pivots[pos] == j:
                work[pos], vec = _combine(work[pos], vec, j)
            else:
                if vec[j] < 0:
                    vec = [-x for x in vec]
                work.insert(pos, vec)
                pivots.insert(pos, j)
                break

    # reduce entries above each pivot into [0, pivot)
    for i in range(1, len(work)):
        p = pivots[i]
        piv = work[i][p]
        for k in range(i):
            q = work[k][p] // piv
            if q:
                work[k] = [x - q * y for x, y in zip(work[k], work[i])]
    return work, pivots


def _smith_normal_form(
    mat: Sequence[Sequence[int]],
) -> tuple[list[int], list[list[int]]]:
    """Smith normal form with its row transform: U * mat * V = diag(d), d_i | d_{i+1}.

    U is returned and V is not built; both are unimodular.  The diagonal
    entries are non-negative.  U is read off the identity appended to the
    rows: row operations act on it too, column operations stop at column n.
    """
    m = len(mat)
    n = len(mat[0]) if mat else 0
    a = [
        [int(x) for x in row] + [int(i == k) for k in range(m)]
        for i, row in enumerate(mat)
    ]

    def col_combine(j1: int, j2: int, row: int) -> None:
        p, q = a[row][j1], a[row][j2]
        if q == 0:
            return
        if p != 0 and q % p == 0:
            f = q // p
            for r in a:
                r[j2] -= f * r[j1]
            return
        g, s, t = _xgcd(p, q)
        w, z = -(q // g), p // g
        for r in a:
            r[j1], r[j2] = s * r[j1] + t * r[j2], w * r[j1] + z * r[j2]

    t = 0
    while t < min(m, n):
        # bring a nonzero entry of the trailing submatrix to position (t, t)
        pivot = next(
            ((i, j) for i in range(t, m) for j in range(t, n) if a[i][j]), None
        )
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for r in a:
                r[t], r[pj] = r[pj], r[t]
        while True:
            for i in range(t + 1, m):
                if a[i][t]:
                    a[t], a[i] = _combine(a[t], a[i], t)
            for j in range(t + 1, n):
                col_combine(t, j, t)
            if all(a[i][t] == 0 for i in range(t + 1, m)) and all(
                a[t][j] == 0 for j in range(t + 1, n)
            ):
                break
        # enforce divisibility of the remaining submatrix by the pivot
        d = a[t][t]
        offender = next(
            (
                (i, j)
                for i in range(t + 1, m)
                for j in range(t + 1, n)
                if a[i][j] % d != 0
            ),
            None,
        )
        if offender is not None:
            i, _ = offender
            a[t] = [x + y for x, y in zip(a[t], a[i])]
            continue
        t += 1

    diag = []
    for i in range(min(m, n)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
        diag.append(a[i][i])
    return diag, [row[n:] for row in a]


def _det_int(mat: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination."""
    n = len(mat)
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# quadratic space and vectors
# ---------------------------------------------------------------------------


def _is_exact(x: object) -> bool:
    """True for an int (not a bool) or a Fraction, the package's exact rationals."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _exact(values: Iterable[int | Fraction]) -> tuple[int | Fraction, ...]:
    """The values as a tuple; any value that is not an exact rational raises."""
    values = tuple(values)
    for x in values:
        if not _is_exact(x):
            raise LatticeError(f"expected an int or a Fraction, got {x!r}")
    return values


def _over_one_denominator(values: Sequence[int | Fraction]) -> tuple[tuple[int, ...], int]:
    """``(nums, den)`` with ``values[i] == nums[i] / den``, den the least common
    denominator; any value but an int (not a bool) or a Fraction raises.

    Exact ints and Fractions pass on one look at their types; any other type
    goes through `_exact`, which accepts subclasses such as an IntEnum member
    and rejects bools and floats."""
    values = tuple(values)
    if not set(map(type, values)) <= {int, Fraction}:
        _exact(values)
    den = lcm(*{x.denominator for x in values})
    return tuple([x.numerator * (den // x.denominator) for x in values]), den


class QuadraticSpace(Frozen):
    """A labelled orthogonal basis: <e_i, e_i> = diag[i], distinct e_i pair to 0.

    Also held as integers: diag[i] == weights[i] / scale.  The vectors e_i are
    built once, as ``basis``.  Spaces with equal labels and diagonals are equal."""

    def __init__(self, labels: Iterable[str], diag: Iterable[int | Fraction]) -> None:
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise LatticeError("basis labels must be unique")
        weights, scale = _over_one_denominator(tuple(diag))
        if len(weights) != len(labels):
            raise LatticeError("diagonal length must match the label count")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "diag", tuple(Fraction(w, scale) for w in weights))
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "scale", scale)
        n = len(labels)
        basis = tuple(RationalVector(self, tuple(int(i == k) for i in range(n))) for k in range(n))
        object.__setattr__(self, "basis", basis)

    def _key(self) -> tuple:
        return self.labels, self.diag

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
    def _label_index(self) -> dict[str, int]:
        return {label: k for k, label in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise LatticeError(f"unknown basis label {label!r}") from None

    def basis_vector(self, label: str) -> "RationalVector":
        return self.basis[self.index(label)]

    def zero(self) -> "RationalVector":
        return RationalVector(self, (0,) * self.dim)

    def vector(self, values: Sequence[int | Fraction] | Mapping[str, int | Fraction]) -> "RationalVector":
        """Build a vector from a coordinate sequence or a label -> value mapping
        of ints and Fractions: the one entry point for rational coordinates."""
        if isinstance(values, Mapping):
            coords: list[int | Fraction] = [0] * self.dim
            for label, value in values.items():
                coords[self.index(label)] = value
            values = coords
        return RationalVector(self, *_over_one_denominator(tuple(values)))

    def _check_member(self, v: "RationalVector") -> None:
        if v.space is not self and v.space != self:
            raise LatticeError("vector belongs to a different quadratic space")

    def combination(
        self, coeffs: Sequence[int | Fraction], vectors: Sequence["RationalVector"]
    ) -> "RationalVector":
        """The vector sum_i coeffs[i] * vectors[i], summed in one pass over a
        common denominator, so only the result is built."""
        coeffs, vectors = _exact(coeffs), tuple(vectors)
        if len(coeffs) != len(vectors):
            raise LatticeError(f"{len(coeffs)} coefficients for {len(vectors)} vectors")
        for v in vectors:
            self._check_member(v)
        terms = [(c, v) for c, v in zip(coeffs, vectors) if c]
        den = lcm(*(c.denominator * v.den for c, v in terms))
        total = [0] * self.dim
        for c, v in terms:
            f = c.numerator * (den // (c.denominator * v.den))
            for k, x in enumerate(v.nums):
                if x:
                    total[k] += f * x
        return RationalVector(self, tuple(total), den)

    def inner(self, v: "RationalVector", w: "RationalVector") -> Fraction:
        """The diagonal form sum_i diag[i] * v_i * w_i, computed exactly."""
        self._check_member(v)
        self._check_member(w)
        total = sum(c * a * b for c, a, b in zip(self.weights, v.nums, w.nums) if a and b)
        return Fraction(total, self.scale * v.den * w.den)

    def gram(self, vectors: Sequence["RationalVector"]) -> list[list[Fraction]]:
        """The table of pairings <v_i, v_j>; each unordered pair is computed once."""
        n = len(vectors)
        table = [[Fraction(0)] * n for _ in range(n)]
        for i, v in enumerate(vectors):
            for j in range(i, n):
                table[i][j] = table[j][i] = self.inner(v, vectors[j])
        return table


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
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        if g != 1:
            nums, den = tuple(x // g for x in nums), den // g
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
        return tuple(Fraction(x, self.den) for x in self.nums)

    def coeff(self, label: str) -> Fraction:
        return Fraction(self.nums[self.space.index(label)], self.den)

    def dot(self, other: "RationalVector") -> Fraction:
        return self.space.inner(self, other)

    def norm(self) -> Fraction:
        return self.space.inner(self, self)

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    def is_zero(self) -> bool:
        return not any(self.nums)

    def _binop_space(self, other: "RationalVector") -> None:
        if self.space is not other.space and self.space != other.space:
            raise LatticeError("vectors belong to different quadratic spaces")

    def __add__(self, other: "RationalVector") -> "RationalVector":
        self._binop_space(other)
        den = lcm(self.den, other.den)
        f, g = den // self.den, den // other.den
        return RationalVector(
            self.space, tuple(f * a + g * b for a, b in zip(self.nums, other.nums)), den
        )

    def __sub__(self, other: "RationalVector") -> "RationalVector":
        self._binop_space(other)
        den = lcm(self.den, other.den)
        f, g = den // self.den, den // other.den
        return RationalVector(
            self.space, tuple(f * a - g * b for a, b in zip(self.nums, other.nums)), den
        )

    def __neg__(self) -> "RationalVector":
        return RationalVector(self.space, tuple(-a for a in self.nums), self.den)

    def __mul__(self, scalar: int | Fraction) -> "RationalVector":
        if not _is_exact(scalar):
            return NotImplemented
        p = scalar.numerator
        return RationalVector(
            self.space, tuple(a * p for a in self.nums), self.den * scalar.denominator
        )

    __rmul__ = __mul__


def vector_to_json(v: RationalVector) -> dict:
    """Interchange form: decimal-string numerators/denominators, exact round trip.

    Each entry is ``nums[i] / den`` in lowest terms, read straight off the
    integers: the sign on the numerator, a positive denominator, 0 as 0/1."""
    den = v.den
    return {
        "basis": list(v.space.labels),
        "coords": [[str(x // (g := gcd(x, den))), str(den // g)] for x in v.nums],
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
        pairs = [(_json_int(num), _json_int(den)) for num, den in coords]
    except (KeyError, TypeError, ValueError) as exc:
        raise LatticeError(f"malformed vector payload: {exc!r}") from exc
    dens = {d for _, d in pairs}
    if 0 in dens:
        raise LatticeError("malformed vector payload: zero denominator")
    if basis != space.labels:
        raise LatticeError("serialized basis labels do not match the target space")
    den = lcm(*dens)
    return RationalVector(space, tuple([n * (den // d) for n, d in pairs]), den)


# ---------------------------------------------------------------------------
# sublattices
# ---------------------------------------------------------------------------


class DiscriminantGroup(Frozen):
    """Invariant factors of dual-modulo-lattice, with lifted generators."""

    __slots__ = ("invariant_factors", "generator_lifts")

    def __init__(self, invariant_factors: Iterable[int], generator_lifts: Sequence[RationalVector]) -> None:
        factors = tuple(invariant_factors)
        if any(type(f) is not int for f in factors):
            raise LatticeError(f"invariant factors must be ints, got {factors!r}")
        if any(f <= 1 for f in factors):
            raise LatticeError("invariant factors must exceed 1")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise LatticeError("invariant factors must form a divisibility chain")
        if len(generator_lifts) != len(factors):
            raise LatticeError("one generator lift per invariant factor")
        object.__setattr__(self, "invariant_factors", factors)
        object.__setattr__(self, "generator_lifts", generator_lifts)

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

    # -- canonical basis -----------------------------------------------------

    @cached_property
    def _scaled(self) -> tuple[int, tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """(denominator D, HNF rows of D * generators, pivot columns)."""
        den = lcm(*(g.den for g in self.generators))
        int_rows = [[x * (den // g.den) for x in g.nums] for g in self.generators]
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

    def _reduce(self, scaled: Sequence[int]) -> tuple[int, ...] | None:
        """HNF coordinates of the vector whose scaled form is given, or None."""
        _, hnf, pivots = self._scaled
        x = list(scaled)
        coeffs = []
        for row, p in zip(hnf, pivots):
            q = 0
            if x[p]:
                q, r = divmod(x[p], row[p])
                if r:
                    return None
                for k in range(p, len(x)):
                    x[k] -= q * row[k]
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
        weights = self.space.weights
        gram = [
            [sum(c * x * y for c, x, y in zip(weights, a, b) if x and y) for b in hnf]
            for a in hnf
        ]
        return gram, den * den * self.space.scale

    def _integral_zgram(self) -> list[list[int]] | None:
        """The Z-basis Gram matrix if all its entries are integers, else None."""
        gram, scale = self._zgram
        if any(x % scale for row in gram for x in row):
            return None
        return [[x // scale for x in row] for row in gram]

    def gram_zbasis(self) -> list[list[Fraction]]:
        gram, scale = self._zgram
        return [[Fraction(x, scale) for x in row] for row in gram]

    def _hnf_combination(self, combo: Sequence[int], divisor: int) -> RationalVector:
        """The vector sum_r combo[r] * zbasis[r] / divisor."""
        den, hnf, _ = self._scaled
        coords = [0] * self.space.dim
        for c, row in zip(combo, hnf):
            if c:
                coords = [x + c * y for x, y in zip(coords, row)]
        return RationalVector(self.space, tuple(coords), den * divisor)

    def discriminant_group(self) -> DiscriminantGroup:
        """Smith normal form of the Z-basis Gram matrix, with lifted generators."""
        if not self.rank:
            return DiscriminantGroup((), ())
        int_gram = self._integral_zgram()
        if int_gram is None:
            raise LatticeError("Gram matrix of the Z-basis is not integral")
        diag, u = _smith_normal_form(int_gram)
        if len(diag) < self.rank or any(d == 0 for d in diag):
            raise LatticeError("degenerate lattice: Gram determinant is zero")
        factors = [d for d in diag if d > 1]
        lifts = [self._hnf_combination(u[i], d) for i, d in enumerate(diag) if d > 1]
        return DiscriminantGroup(tuple(factors), tuple(lifts))

    def in_dual(self, v: RationalVector) -> bool:
        """True iff v pairs integrally with every generator."""
        self.space._check_member(v)
        return all(
            self.space.inner(v, g).denominator == 1 for g in self.generators
        )

    def is_even(self) -> bool:
        """Integral Gram with even diagonal, i.e. every vector has even norm."""
        gram = self._integral_zgram()
        return gram is not None and all(gram[i][i] % 2 == 0 for i in range(len(gram)))

    def is_negative_definite(self) -> bool:
        """All leading principal minors of the negated Z-basis Gram are positive.

        The minors are taken of the integer matrix M = s * Gram; scaling by
        s > 0 does not change their signs.
        """
        neg = [[-x for x in row] for row in self._zgram[0]]
        return all(
            _det_int([row[:k] for row in neg[:k]]) > 0 for k in range(1, len(neg) + 1)
        )

    # -- maps and sublattices --------------------------------------------------

    def is_isometry(self, images: Mapping[str, RationalVector]) -> bool:
        """True iff the map defined on the basis labels preserves the form and
        carries this lattice bijectively onto itself."""
        if set(images) != set(self.space.labels):
            raise LatticeError("images must be given for every basis label")
        rows = [images[label] for label in self.space.labels]
        # form preservation on all basis pairs; `gram` checks each image's space
        n = self.space.dim
        form = [
            [d if i == j else 0 for j in range(n)] for i, d in enumerate(self.space.diag)
        ]
        if self.space.gram(rows) != form:
            return False
        # the images of a Z-basis must span this same lattice
        den, hnf, _ = self._scaled
        image_of_zbasis = tuple(
            self.space.combination([Fraction(c, den) for c in row], rows) for row in hnf
        )
        return self.same_lattice(SublatticeModel(self.space, image_of_zbasis))

    def coordinate_section(self, labels: Iterable[str]) -> "SublatticeModel":
        """Sublattice of all lattice vectors supported on the given labels.

        This is the intersection with the rational coordinate subspace, hence
        the saturation of any sublattice spanned inside those coordinates.
        With the other coordinates ordered first, an echelon basis meets the
        subspace in exactly the rows whose pivot lies past them.
        """
        keep = {self.space.index(label) for label in labels}
        order = [i for i in range(self.space.dim) if i not in keep] + sorted(keep)
        back = sorted(range(len(order)), key=order.__getitem__)
        cut = len(order) - len(keep)
        den, hnf, _ = self._scaled
        permuted = [[row[c] for c in order] for row in hnf]
        echelon, pivots = _hnf_rows(permuted, len(order))
        section = tuple(
            RationalVector(self.space, tuple(row[k] for k in back), den)
            for row, p in zip(echelon, pivots)
            if p >= cut
        )
        return SublatticeModel(self.space, section)

    def index_of_sublattice(self, sub: "SublatticeModel") -> int:
        """Index [self : sub] for a finite-index sublattice of equal rank."""
        if self.space != sub.space:
            raise LatticeError("sublattice lives in a different space")
        if sub.rank != self.rank:
            raise LatticeError("ranks differ, the index is not finite")
        # this denominator clears every element of a contained lattice, so
        # the sublattice's least clearing denominator divides it
        f, r = divmod(self.denominator, sub.denominator)
        rows = None if r else [self._reduce([f * x for x in row]) for row in sub._scaled[1]]
        if rows is None or None in rows:
            raise LatticeError("given lattice is not contained in this one")
        return abs(_det_int(rows))
