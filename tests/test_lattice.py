import random
from collections.abc import Mapping
from enum import IntEnum
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import Matrix, Rational, ZZ
from sympy.matrices.normalforms import smith_normal_form

from kummerlab.kummer_ns import JacobianKummerNS, even_eight, jacobian_kummer_ns
from kummerlab.labels import BASIS_LABELS, INDEX_PAIRS, NODE_LABELS
from kummerlab.lattice import (
    DiscriminantGroup,
    LatticeError,
    QuadraticSpace,
    RationalVector,
    SublatticeModel,
    _combine,
    _hnf_rows,
    _integral_table,
    _leading_minors_positive,
    _over_one_denominator,
    _smith_normal_form,
    _xgcd,
    vector_from_json,
    vector_to_json,
)
from kummerlab.nikulin import nikulin_lattice
from kummerlab.nodecode import NodeSet

MODEL = jacobian_kummer_ns()
SPACE = MODEL.space
MODEL_LATTICES = (MODEL.ns, nikulin_lattice().lattice)


def basis(label):
    return SPACE.basis_vector(label)


class TestInner:
    def test_polarization_square(self):
        assert SPACE.inner(basis("L"), basis("L")) == 4

    def test_node_square(self):
        assert SPACE.inner(basis("E0"), basis("E0")) == -2
        assert SPACE.inner(basis("E12"), basis("E12")) == -2

    def test_node_orthogonal_to_l(self):
        assert SPACE.inner(basis("L"), basis("E12")) == 0
        assert SPACE.inner(basis("L"), basis("E0")) == 0

    def test_dimension_mismatch(self):
        other = QuadraticSpace(("a", "b"), [1, 1])
        with pytest.raises(LatticeError):
            SPACE.inner(basis("L"), other.basis_vector("a"))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, data):
        # differential: the diagonal kernel against the full-matrix v^T G w
        entries = st.one_of(
            st.just(Fraction(0)),
            st.fractions(min_value=-5, max_value=5, max_denominator=6),
        )
        n = data.draw(st.integers(min_value=1, max_value=8))
        diag, a, b = (data.draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(3))
        space = QuadraticSpace([f"x{i}" for i in range(n)], diag)
        gram = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        naive = sum(a[i] * gram[i][j] * b[j] for i in range(n) for j in range(n))
        v, w = space.vector(a), space.vector(b)
        got = space.inner(v, w)
        assert isinstance(got, Fraction)
        assert got == naive == space.inner(w, v)


class TestSpaceValidation:
    def test_diagonal_length_mismatch_rejected(self):
        for diag in ([1], [1, 1, 1], []):
            with pytest.raises(LatticeError):
                QuadraticSpace(("a", "b"), diag)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(LatticeError):
            QuadraticSpace(("a", "a"), [1, 1])

    @pytest.mark.parametrize(
        "build",
        [
            lambda s: s.vector([0.5, 1]),
            lambda s: s.vector(["1/2", 1]),
            lambda s: s.vector([True, 0]),
            lambda s: s.vector([1 + 0j, 0]),
            lambda s: s.vector({"a": 0.5}),
            lambda s: RationalVector(s, (0.1, 2)),
            lambda s: RationalVector(s, (Fraction(1, 2), 1)),
            lambda s: RationalVector(s, (1, 2), True),
            lambda s: RationalVector(s, (1, 2), 0),
            lambda s: QuadraticSpace(("a",), [0.25]),
            lambda s: QuadraticSpace(("a",), [False]),
        ],
    )
    def test_inexact_input_rejected(self, build):
        # only ints (not bools) and Fractions are exact rationals
        with pytest.raises(LatticeError):
            build(QuadraticSpace(("a", "b"), [1, -2]))

    @pytest.mark.parametrize(
        "scale",
        [
            lambda v: v * True,
            lambda v: True * v,
            lambda v: v * False,
            lambda v: v * 0.5,
            lambda v: 2.0 * v,
            lambda v: v * "2",
        ],
    )
    def test_inexact_scalar_rejected(self, scale):
        with pytest.raises(TypeError):
            scale(QuadraticSpace(("a", "b"), [1, -2]).vector([1, 2]))

    @pytest.mark.parametrize(
        "factors",
        [(2.5,), (2.0,), (Fraction(2),), ("2",), (True,), (2, 4.0)],
    )
    def test_inexact_invariant_factors_rejected(self, factors):
        with pytest.raises(LatticeError):
            DiscriminantGroup(factors)

    def test_basis_is_stored_and_validated(self):
        space = QuadraticSpace(("a", "b", "c"), [1, Fraction(-1, 2), 0])
        assert space.basis_vector("b") is space.basis[1] is space.basis_vector("b")
        for k, label in enumerate(space.labels):
            unit = [0] * space.dim
            unit[k] = 1
            assert space.basis_vector(label) == space.vector(unit)
        with pytest.raises(LatticeError):
            space.basis_vector("d")

    @pytest.mark.parametrize("label", [["L"], {"L": 1}, None, 0])
    @pytest.mark.parametrize(
        "lookup",
        [SPACE.index, SPACE.basis_vector, SPACE.basis_vector("L").coeff],
        ids=["index", "basis_vector", "coeff"],
    )
    def test_unhashable_or_unknown_label_rejected(self, lookup, label):
        with pytest.raises(LatticeError):
            lookup(label)


class TestFractionViews:
    """The integer paths never build a Fraction, but every public view that
    reads off one rational still returns one, and the type gates keep their
    errors: ints (not bools) and Fractions pass, anything else raises."""

    def test_views_return_fractions(self):
        space = QuadraticSpace(("a", "b"), [2, -3])
        v, w = space.vector([1, 2]), space.vector([3, 0])
        lattice = SublatticeModel(space, [v, w])
        views = [space.inner(v, w), v.dot(w), v.norm(), *v.coords, v.coeff("a"), v.coeff("b")]
        views += [x for row in lattice.gram_zbasis() for x in row] + list(space.diag)
        assert all(type(x) is Fraction for x in views)
        assert (space.inner(v, w), v.norm(), space.diag) == (6, -10, (2, -3))
        # a zero coordinate and a zero pairing are Fractions too
        assert type(w.coeff("b")) is Fraction and type(space.inner(w, space.vector([0, 1]))) is Fraction

    def test_int_and_fraction_diagonals_build_equal_spaces(self):
        mixed = QuadraticSpace(("a", "b"), [1, Fraction(1, 2)])
        fractions = QuadraticSpace(("a", "b"), [Fraction(1), Fraction(1, 2)])
        assert mixed == fractions and hash(mixed) == hash(fractions)
        assert (mixed.weights, mixed.scale, mixed.diag) == ((2, 1), 2, (1, Fraction(1, 2)))
        assert QuadraticSpace(("a",), [2]) == QuadraticSpace(("a",), [Fraction(4, 2)])
        assert QuadraticSpace(("a",), [1]) != QuadraticSpace(("a",), [Fraction(1, 2)])

    @pytest.mark.parametrize("bad", [True, False, 0.5, 2.0])
    def test_bools_and_floats_still_raise(self, bad):
        with pytest.raises(LatticeError):
            QuadraticSpace(("a", "b"), [1, bad])
        with pytest.raises(LatticeError):
            QuadraticSpace(("a", "b"), [1, -2]).vector([bad, Fraction(1, 2)])


def _rationals(zero_weight=False):
    values = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))
    return st.one_of(st.just(Fraction(0)), values) if zero_weight else values


@st.composite
def vector_cases(draw):
    """A random diagonal space (zero and non-integer entries allowed), two
    coordinate lists and a scalar of each kind."""
    n = draw(st.integers(min_value=1, max_value=6))
    diag, a, b = (
        draw(st.lists(_rationals(True), min_size=n, max_size=n)) for _ in range(3)
    )
    k = draw(st.integers(min_value=-4, max_value=4))
    q = draw(_rationals())
    return QuadraticSpace([f"x{i}" for i in range(n)], diag), a, b, k, q


class TestVectorCore:
    @given(vector_cases(), st.integers(min_value=-3, max_value=3).filter(bool))
    @settings(max_examples=100, deadline=None)
    def test_against_fraction_reference(self, case, factor):
        # differential: every vector operation against plain Fraction tuples
        space, a, b, k, q = case
        v, w = space.vector(a), space.vector(b)

        def same(vec, ref):
            assert vec.den > 0 and gcd(vec.den, *vec.nums) == 1
            assert vec.coords == tuple(ref)
            assert all(isinstance(c, Fraction) for c in vec.coords)

        same(v, a)
        same(v + w, [x + y for x, y in zip(a, b)])
        same(v - w, [x - y for x, y in zip(a, b)])
        same(-v, [-x for x in a])
        same(k * v, [k * x for x in a])
        same(v * k, [k * x for x in a])
        same(q * v, [q * x for x in a])
        same(v * q, [q * x for x in a])
        pairing = sum((d * x * y for d, x, y in zip(space.diag, a, b)), Fraction(0))
        assert space.inner(v, w) == v.dot(w) == w.dot(v) == pairing
        assert v.norm() == sum((d * x * x for d, x in zip(space.diag, a)), Fraction(0))
        assert v.is_integral == all(x.denominator == 1 for x in a)
        assert v.is_zero() == all(x == 0 for x in a)
        assert [v.coeff(label) for label in space.labels] == a
        assert (v == w) == (a == b)
        # equal vectors reached by other routes are equal, with equal hashes
        scaled_up = RationalVector(
            space, tuple(factor * x for x in v.nums), factor * v.den
        )
        for other in ((v + w) - w, scaled_up):
            same(other, a)
            assert other == v and hash(other) == hash(v)
        payload = vector_to_json(v)
        assert payload["coords"] == [[str(x.numerator), str(x.denominator)] for x in a]
        back = vector_from_json(space, payload)
        assert back == v and hash(back) == hash(v)


@st.composite
def combination_cases(draw):
    """A random diagonal space, up to five vectors of mixed denominators and
    one coefficient per vector, ints and Fractions, zeros included."""
    space, *_ = draw(vector_cases())
    m = draw(st.integers(min_value=0, max_value=5))
    rows = [
        draw(st.lists(_rationals(True), min_size=space.dim, max_size=space.dim))
        for _ in range(m)
    ]
    coeff = st.one_of(st.integers(min_value=-4, max_value=4), _rationals(True))
    return space, rows, draw(st.lists(coeff, min_size=m, max_size=m))


class TestCombination:
    @given(combination_cases())
    @settings(max_examples=100, deadline=None)
    def test_against_fraction_reference(self, case):
        space, rows, coeffs = case
        got = space.combination(coeffs, [space.vector(r) for r in rows])
        ref = [sum((c * r[k] for c, r in zip(coeffs, rows)), Fraction(0)) for k in range(space.dim)]
        assert got.den > 0 and gcd(got.den, *got.nums) == 1
        assert got.coords == tuple(ref)

    @given(combination_cases())
    @settings(max_examples=30, deadline=None)
    def test_foreign_space_rejected(self, case):
        space, rows, coeffs = case
        foreign = QuadraticSpace([f"y{i}" for i in range(space.dim)], space.diag)
        vectors = [space.vector(r) for r in rows] + [foreign.zero()]
        with pytest.raises(LatticeError, match="different quadratic space"):
            space.combination(coeffs + [0], vectors)

    @given(combination_cases(), st.lists(st.integers(min_value=-4, max_value=4), max_size=25))
    @settings(max_examples=100, deadline=None)
    def test_map_rows_against_combination(self, case, flat):
        space, rows, _ = case
        images = [space.vector(r) for r in rows]
        m = len(images)
        int_rows = [flat[k:k + m] for k in range(0, len(flat) - m + 1, m)] if m else [[]]
        mapped, den = space.map_rows(images, int_rows)
        assert type(den) is int and den > 0 and len(mapped) == len(int_rows)
        for row, out in zip(int_rows, mapped):
            assert all(type(x) is int for x in out)
            assert space.vector([Fraction(x, den) for x in out]) == space.combination(row, images)

    @given(combination_cases())
    @settings(max_examples=30, deadline=None)
    def test_map_rows_rejects_a_foreign_image(self, case):
        space, rows, _ = case
        foreign = QuadraticSpace([f"y{i}" for i in range(space.dim)], space.diag)
        with pytest.raises(LatticeError, match="different quadratic space"):
            space.map_rows([space.vector(r) for r in rows] + [foreign.zero()], [])

    @pytest.mark.parametrize("coeffs", [(1,), (1, 2, 3), (True, 1), (0.5, 1)])
    def test_malformed_coefficients_rejected(self, coeffs):
        v = SPACE.basis_vector("L")
        with pytest.raises(LatticeError):
            SPACE.combination(coeffs, (v, v))


def _old_same_lattice(a, b):
    """The span comparison on the canonical Z-bases."""
    return a.space == b.space and a.zbasis() == b.zbasis()


@st.composite
def generator_set_cases(draw):
    """Rational generators G, then G shuffled with redundant generators added:
    integer combinations of G scaled by a divisor of a generator's
    denominator, so the new generators have other denominators.  Half of the
    time a random generator is added too, which usually changes the span;
    the flag says whether it was."""
    n = draw(st.integers(min_value=1, max_value=4))
    space = QuadraticSpace([f"x{i}" for i in range(n)], [1] * n)
    entry = st.fractions(min_value=-6, max_value=6, max_denominator=6)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=4))
    gens = [space.vector(r) for r in rows]
    others = list(gens)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        combo = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=len(gens), max_size=len(gens)))
        v = space.combination(combo, gens)
        others.append(draw(st.sampled_from([d for d in range(1, v.den + 1) if v.den % d == 0])) * v)
    extended = draw(st.booleans())
    if extended:
        others.append(space.vector(draw(st.lists(entry, min_size=n, max_size=n))))
    others = draw(st.permutations(others))
    return SublatticeModel(space, tuple(gens)), SublatticeModel(space, tuple(others)), extended


class TestSameLattice:
    @given(generator_set_cases())
    @settings(max_examples=100, deadline=None)
    def test_against_zbasis_comparison(self, case):
        a, b, extended = case
        assert a.same_lattice(b) == b.same_lattice(a) == _old_same_lattice(a, b)
        assert a.same_lattice(b) or extended
        assert a.same_lattice(SublatticeModel(a.space, a.zbasis()))

    def test_redundant_generators_with_other_denominators(self):
        space = QuadraticSpace(("a", "b"), [1, 1])
        v, w = space.vector([Fraction(1, 6), 0]), space.vector([0, Fraction(1, 2)])
        lat = SublatticeModel(space, (v, w))
        assert lat.same_lattice(SublatticeModel(space, (w, v, 3 * v, 2 * w, v + w)))
        assert not lat.same_lattice(SublatticeModel(space, (3 * v, w)))
        other = QuadraticSpace(("a", "b"), [1, 2])
        assert not lat.same_lattice(
            SublatticeModel(other, (other.vector(v.coords), other.vector(w.coords)))
        )


class TestHNF:
    def test_identity_generators_fixed(self):
        space = QuadraticSpace(("a", "b", "c"), [1, 1, 1])
        gens = tuple(space.basis_vector(x) for x in ("a", "b", "c"))
        lat = SublatticeModel(space, gens)
        reduced = SublatticeModel(lat.space, lat.zbasis())
        assert tuple(v.coords for v in reduced.generators) == tuple(g.coords for g in gens)

    def test_duplicate_rows_collapse(self):
        space = QuadraticSpace(("a", "b"), [1, 1])
        v = space.vector([2, 3])
        lat = SublatticeModel(space, (v, v, v))
        assert lat.rank == 1
        assert SublatticeModel(lat.space, lat.zbasis()).rank == 1

    def test_full_generator_family_has_rank_17(self):
        # oracle: exact rank over Q of the denominator-cleared generator matrix
        rows = [[int(c * 2) for c in g.coords] for g in MODEL.ns.generators]
        assert Matrix(rows).rank() == 17
        assert MODEL.ns.rank == 17

    def test_idempotent_and_span_preserving(self):
        rng = random.Random(20260809)
        reduced = SublatticeModel(SPACE, MODEL.ns.zbasis())
        double_reduced = SublatticeModel(SPACE, reduced.zbasis())
        assert tuple(v.coords for v in reduced.generators) == tuple(
            v.coords for v in double_reduced.generators
        )
        for _ in range(100):
            coords = [
                Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2])) for _ in range(17)
            ]
            v = SPACE.vector(coords)
            assert MODEL.ns.contains(v) == reduced.contains(v)


@st.composite
def small_int_matrices(draw):
    m = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=5))
    entry = st.integers(min_value=-9, max_value=9)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    if m > 1 and draw(st.booleans()):
        # a row that is a multiple of another makes the matrix singular
        k = draw(st.integers(min_value=-3, max_value=3))
        rows[-1] = [k * x for x in rows[0]]
    return rows


@st.composite
def unimodular_mixes(draw):
    """A small integer matrix A and U * A for a random unimodular U built from
    elementary row operations (swap, negate, add a multiple of another row)."""
    rows = draw(small_int_matrices())
    mixed = [list(r) for r in rows]
    index = st.integers(min_value=0, max_value=len(rows) - 1)
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        op = draw(st.sampled_from(("swap", "negate", "add")))
        i, j = draw(index), draw(index)
        if op == "swap":
            mixed[i], mixed[j] = mixed[j], mixed[i]
        elif op == "negate":
            mixed[i] = [-x for x in mixed[i]]
        elif i != j:
            k = draw(st.integers(min_value=-3, max_value=3))
            mixed[i] = [x + k * y for x, y in zip(mixed[i], mixed[j])]
    return rows, mixed


class TestHNFKernel:
    @given(unimodular_mixes())
    @settings(max_examples=200, deadline=None)
    def test_invariant_under_unimodular_rows(self, case):
        rows, mixed = case
        ncols = len(rows[0])
        hnf, pivots = _hnf_rows(rows, ncols)
        assert _hnf_rows(mixed, ncols) == (hnf, pivots)
        assert len(hnf) == Matrix(rows).rank()
        assert all(a < b for a, b in zip(pivots, pivots[1:]))
        for r, (row, p) in enumerate(zip(hnf, pivots)):
            assert row[p] > 0 and not any(row[:p])
            assert all(0 <= above[p] < row[p] for above in hnf[:r])


def _det_int(mat):
    """Determinant of a square integer matrix by Bareiss elimination with row
    swaps, the oracle for the one-pass minors and for unimodularity."""
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


def _old_smith_normal_form(mat):
    """The former Smith kernel, kept as a slow oracle: it clears the pivot's
    row and column together by row and column steps over the whole matrix,
    then adds a row to the pivot's while the pivot divides not every entry
    of the trailing submatrix."""
    m = len(mat)
    n = len(mat[0]) if mat else 0
    a = [[int(x) for x in row] for row in mat]

    def col_combine(j1, j2, row):
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
        pivot = next(((i, j) for i in range(t, m) for j in range(t, n) if a[i][j]), None)
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
            if all(a[i][t] == 0 for i in range(t + 1, m)) and all(a[t][j] == 0 for j in range(t + 1, n)):
                break
        d = a[t][t]
        offender = next(
            ((i, j) for i in range(t + 1, m) for j in range(t + 1, n) if a[i][j] % d != 0), None
        )
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender[0]])]
            continue
        t += 1
    return [abs(a[i][i]) for i in range(min(m, n))]


@st.composite
def smith_cases(draw):
    """Rectangular integer matrices up to 6 x 6, some rank-deficient (a row
    or a column a multiple of another) and some all zero."""
    m = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=6))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        return [[0] * n for _ in range(m)]
    entry = st.integers(min_value=-12, max_value=12)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    k = draw(st.integers(min_value=-3, max_value=3))
    if m > 1 and draw(st.booleans()):
        rows[-1] = [k * x for x in rows[0]]
    if n > 1 and draw(st.booleans()):
        for row in rows:
            row[-1] = k * row[0]
    return rows


class TestSmithNormalForm:
    @given(small_int_matrices())
    @example([[0]])
    @example([[0, 0], [0, 0], [0, 0]])
    @settings(max_examples=200, deadline=None)
    def test_against_sympy(self, rows):
        diag = _smith_normal_form(rows)
        oracle = smith_normal_form(Matrix(rows), domain=ZZ)
        assert diag == [abs(oracle[i, i]) for i in range(min(oracle.shape))]
        nonzero = [d for d in diag if d]
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))

    @given(smith_cases())
    @example([[0]])
    @example([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    @settings(max_examples=300, deadline=None)
    def test_against_old_kernel_and_sympy(self, rows):
        diag = _smith_normal_form(rows)
        assert diag == _old_smith_normal_form(rows)
        oracle = smith_normal_form(Matrix(rows), domain=ZZ)
        assert diag == [abs(oracle[i, i]) for i in range(min(oracle.shape))]
        assert len(diag) == min(len(rows), len(rows[0]))
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]) if a)
        assert rows == [list(r) for r in rows]  # the input is not modified

    @pytest.mark.parametrize("rows", [[], [[]], [[], []]])
    def test_empty(self, rows):
        assert _smith_normal_form(rows) == [] == _old_smith_normal_form(rows)

    def test_model_grams(self):
        # the 17 x 17 and 8 x 8 Z-basis Grams, and their transposes
        for lat in MODEL_LATTICES:
            gram = _integral_table(*lat._zgram)
            assert _smith_normal_form(gram) == _old_smith_normal_form(gram)
            flipped = [list(col) for col in zip(*gram[::-1])]
            assert _smith_normal_form(flipped) == _old_smith_normal_form(gram)


@st.composite
def symmetric_matrices(draw):
    """Random symmetric integer matrices up to 6 x 6; others are A^T A + I,
    positive definite, or that with a zero or singular leading minor after
    positive ones."""
    n = draw(st.integers(min_value=1, max_value=6))
    entry = st.integers(min_value=-5, max_value=5)
    kind = draw(st.sampled_from(["random", "definite", "singular"]))
    a = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if kind == "random":
        return [[a[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    mat = [[sum(a[k][i] * a[k][j] for k in range(n)) + (i == j) for j in range(n)] for i in range(n)]
    if kind == "singular":
        # the leading minor of size s + 1 repeats row and column s - 1
        s = draw(st.integers(min_value=0, max_value=n - 1))
        if s:
            for row in mat:
                row[s] = row[s - 1]
            mat[s] = list(mat[s - 1])
        else:
            mat[0][0] = 0
    return mat


class TestLeadingMinors:
    @given(symmetric_matrices())
    @settings(max_examples=300, deadline=None)
    def test_against_per_minor_determinants(self, mat):
        oracle = all(_det_int([row[:k] for row in mat[:k]]) > 0 for k in range(1, len(mat) + 1))
        assert _leading_minors_positive(mat) == oracle

    def test_stops_at_the_first_minor_that_is_not_positive(self):
        assert _leading_minors_positive([[1, 0], [0, 1]])
        assert not _leading_minors_positive([[1, 1], [1, 1]])  # second minor 0
        assert not _leading_minors_positive([[0, 0], [0, 1]])  # first minor 0
        assert not _leading_minors_positive([[1, 2], [2, 1]])  # second minor -3
        assert _leading_minors_positive([])


class TestContains:
    def test_zero_vector(self):
        assert MODEL.ns.contains(SPACE.zero())

    def test_trope_half_integer_class(self):
        assert MODEL.ns.contains(MODEL.trope_class("C0"))

    def test_half_node_not_contained(self):
        half_node = Fraction(1, 2) * basis("E12")
        # oracle: a lattice member must pair integrally with every generator,
        # but against the C12 trope the pairing is 1/2
        assert SPACE.inner(half_node, MODEL.trope_class("C12")) == Fraction(1, 2)
        assert not MODEL.ns.contains(half_node)

    @given(
        st.integers(min_value=-4, max_value=4),
        st.integers(min_value=-4, max_value=4),
        st.integers(min_value=0, max_value=32),
        st.integers(min_value=0, max_value=32),
    )
    @settings(max_examples=60, deadline=None)
    def test_integer_combination_closure(self, a, b, gi, gj):
        gens = MODEL.ns.generators
        v = gens[gi % len(gens)]
        w = gens[gj % len(gens)]
        assert MODEL.ns.contains(a * v + b * w)

    @given(
        st.sampled_from(MODEL_LATTICES),
        st.lists(st.integers(min_value=-3, max_value=3), min_size=17, max_size=17),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=16),
                st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(-1, 4), 1]),
            ),
            max_size=2,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_coordinates_agree_with_contains(self, lat, combo, shifts):
        zb = lat.zbasis()

        def combine(coeffs):
            v = lat.space.zero()
            for c, b in zip(coeffs, zb):
                v = v + c * b
            return v

        combo = tuple(combo[: len(zb)])
        v = combine(combo)
        assert lat.coordinates_of(v) == combo
        for k, q in shifts:
            v = v + q * lat.space.basis_vector(lat.space.labels[k % lat.space.dim])
        coords = lat.coordinates_of(v)
        assert lat.contains(v) == (coords is not None)
        if coords is not None:
            assert combine(coords) == v

    def test_coordinates_roundtrip(self):
        zb = MODEL.ns.zbasis()
        v = 3 * zb[0] - 2 * zb[5] + zb[16]
        coeffs = MODEL.ns.coordinates_of(v)
        expected = [0] * 17
        expected[0], expected[5], expected[16] = 3, -2, 1
        assert list(coeffs) == expected


class TestDiscriminantGroup:
    def test_unimodular_is_trivial(self):
        space = QuadraticSpace(("a", "b"), [1, 1])
        lat = SublatticeModel(space, (space.basis_vector("a"), space.basis_vector("b")))
        group = lat.discriminant_group()
        assert group.invariant_factors == ()
        assert group.order == 1

    def test_rank8_halfsum_lattice_order(self):
        # oracle: Smith normal form of the canonical 8x8 Gram matrix
        gram = Matrix([[int(x) for x in row] for row in nikulin_lattice().canonical_gram])
        diag = smith_normal_form(gram, domain=ZZ)
        oracle = [abs(diag[i, i]) for i in range(8) if abs(diag[i, i]) > 1]
        group = nikulin_lattice().lattice.discriminant_group()
        assert list(group.invariant_factors) == oracle
        assert group.order == 64

    def test_divisor_lattice_invariant_factors(self):
        # oracle: Smith normal form of the 17x17 Z-basis Gram matrix
        gram = Matrix([[int(x) for x in row] for row in MODEL.ns.gram_zbasis()])
        diag = smith_normal_form(gram, domain=ZZ)
        oracle = [abs(diag[i, i]) for i in range(17) if abs(diag[i, i]) > 1]
        group = MODEL.ns.discriminant_group()
        assert list(group.invariant_factors) == oracle == [2, 2, 2, 2, 4]

    def test_factor_product_equals_determinant(self):
        for lat in (MODEL.ns, nikulin_lattice().lattice):
            gram = Matrix([[int(x) for x in row] for row in lat.gram_zbasis()])
            assert lat.discriminant_group().order == abs(gram.det())

    def test_negative_definite_against_sympy(self):
        rng = random.Random(20261018)

        def entry():
            return Fraction(rng.randint(-6, 6), rng.randint(1, 3))

        def oracle(lat):
            # the Gram from inner products, independent of the cached integer Gram
            zb = lat.zbasis()
            gram = [[lat.space.inner(a, b) for b in zb] for a in zb]
            assert lat.gram_zbasis() == gram
            return Matrix(
                [[Rational(x.numerator, x.denominator) for x in row] for row in gram]
            ).is_negative_definite

        seen = set()
        for _ in range(150):
            n = rng.randint(1, 5)
            # half the spaces are negative definite, so both answers occur
            negative = rng.random() < 0.5
            diag = [
                Fraction(-rng.randint(1, 6), rng.randint(1, 3)) if negative else entry()
                for _ in range(n)
            ]
            space = QuadraticSpace([f"x{i}" for i in range(n)], diag)
            gens = tuple(
                space.vector([entry() for _ in range(n)])
                for _ in range(rng.randint(1, n + 1))
            )
            lat = SublatticeModel(space, gens)
            if lat.rank == 0:
                continue
            expected = oracle(lat)
            assert lat.is_negative_definite() == expected
            seen.add(expected)
        assert seen == {True, False}
        assert not MODEL.ns.is_negative_definite() and not oracle(MODEL.ns)
        nik = nikulin_lattice().lattice
        assert nik.is_negative_definite() and oracle(nik)

    def test_degenerate_lattice_rejected(self):
        space = QuadraticSpace(("a", "b"), [1, 0])
        lat = SublatticeModel(space, (space.basis_vector("a"), space.basis_vector("b")))
        with pytest.raises(LatticeError):
            lat.discriminant_group()


class TestDual:
    def test_lattice_vectors_in_dual(self):
        for g in MODEL.ns.generators[:8]:
            assert MODEL.ns.in_dual(g)

    def test_quadruple_half_sum_in_dual(self):
        v = Fraction(1, 2) * (
            basis("E13") + basis("E14") + basis("E23") + basis("E24")
        )
        assert MODEL.ns.in_dual(v)
        assert not MODEL.ns.contains(v)

    def test_half_node_not_in_dual(self):
        assert not MODEL.ns.in_dual(Fraction(1, 2) * basis("E12"))


class TestIsometry:
    def test_identity(self):
        images = {lab: SPACE.basis_vector(lab) for lab in SPACE.labels}
        assert MODEL.ns.is_isometry(images)

    def test_covering_involution(self):
        assert MODEL.ns.is_isometry(MODEL.covering_involution_images())

    def test_swap_l_e0_rejected(self):
        images = {lab: SPACE.basis_vector(lab) for lab in SPACE.labels}
        images["L"], images["E0"] = images["E0"], images["L"]
        assert not MODEL.ns.is_isometry(images)

    def test_form_preserving_but_lattice_breaking(self):
        space = QuadraticSpace(("a", "b"), [1, 1])
        lat = SublatticeModel(space, (space.basis_vector("a"), space.basis_vector("b")))
        rotation = {
            "a": space.vector([Fraction(3, 5), Fraction(4, 5)]),
            "b": space.vector([Fraction(-4, 5), Fraction(3, 5)]),
        }
        assert not lat.is_isometry(rotation)

    def test_missing_label_raises(self):
        with pytest.raises(LatticeError):
            MODEL.ns.is_isometry({"L": basis("L")})

    @given(
        st.permutations(NODE_LABELS),
        st.lists(st.booleans(), min_size=len(NODE_LABELS), max_size=len(NODE_LABELS)),
    )
    @settings(max_examples=40, deadline=None)
    def test_node_maps_against_index_oracle(self, perm, flips):
        # both kinds preserve the form; a sign flip also keeps the lattice,
        # since it changes a half-sum of nodes by a node
        identity = {lab: basis(lab) for lab in SPACE.labels}
        flipped = dict(identity, **{lab: -basis(lab) for lab, f in zip(NODE_LABELS, flips) if f})
        permuted = dict(identity, **{lab: basis(p) for lab, p in zip(NODE_LABELS, perm)})
        assert MODEL.ns.is_isometry(flipped) and _old_is_isometry(MODEL.ns, flipped)
        assert MODEL.ns.is_isometry(permuted) == _old_is_isometry(MODEL.ns, permuted)

    @pytest.mark.parametrize(
        "name, expected", [("identity", True), ("involution", True), ("flipped", False), ("swap_e0_e12", False)]
    )
    def test_against_combination_version(self, name, expected):
        identity = {lab: basis(lab) for lab in SPACE.labels}
        images = {
            "identity": identity,
            "involution": MODEL.covering_involution_images(),
            # L -> 3L + 4E0, the sign-flipped involution, breaks the form
            "flipped": dict(identity, L=3 * basis("L") + 4 * basis("E0"), E0=2 * basis("L") - 3 * basis("E0")),
            # keeps the form, but C0 = (L - E0 - ...) / 2 goes outside the lattice
            "swap_e0_e12": dict(identity, E0=basis("E12"), E12=basis("E0")),
        }[name]
        assert MODEL.ns.is_isometry(images) == _combination_is_isometry(MODEL.ns, images) == expected

    def test_accepted_map_preserves_all_pairings(self):
        images = MODEL.covering_involution_images()
        assert MODEL.ns.is_isometry(images)
        for a in SPACE.labels:
            for b in SPACE.labels:
                lhs = SPACE.inner(images[a], images[b])
                rhs = SPACE.inner(SPACE.basis_vector(a), SPACE.basis_vector(b))
                assert lhs == rhs


_FRACTION_SPACE = QuadraticSpace(("a", "b", "c"), [Fraction(1, 2), Fraction(-3, 4), 2])


class TestIsometryFractionDiagonal:
    lat = SublatticeModel(_FRACTION_SPACE, _FRACTION_SPACE.basis)

    def test_sign_flip_accepted(self):
        a, b, c = _FRACTION_SPACE.basis
        assert self.lat.is_isometry({"a": -a, "b": b, "c": -c})

    def test_swap_of_unequal_squares_rejected(self):
        a, b, c = _FRACTION_SPACE.basis
        assert not self.lat.is_isometry({"a": b, "b": a, "c": c})


@st.composite
def gram_cases(draw):
    """A random diagonal space (zero, negative and non-integer entries), up to
    five vectors with mixed denominators, and a vector of another space."""
    n = draw(st.integers(min_value=1, max_value=6))
    diag = draw(st.lists(_rationals(True), min_size=n, max_size=n))
    space = QuadraticSpace([f"x{i}" for i in range(n)], diag)
    coords = st.lists(_rationals(True), min_size=n, max_size=n)
    vectors = [space.vector(c) for c in draw(st.lists(coords, max_size=5))]
    foreign = QuadraticSpace([f"y{i}" for i in range(n)], diag).vector(draw(coords))
    return space, vectors, foreign


class TestGram:
    @given(gram_cases())
    @settings(max_examples=150, deadline=None)
    def test_against_inner(self, case):
        space, vectors, _ = case
        table, scale = space.gram(vectors)
        assert type(scale) is int and scale > 0
        n = len(vectors)
        assert len(table) == n and all(len(row) == n for row in table)
        for i, v in enumerate(vectors):
            for j, w in enumerate(vectors):
                assert type(table[i][j]) is int and table[i][j] == table[j][i]
                assert Fraction(table[i][j], scale) == space.inner(v, w)
        integral = all(space.inner(v, w).denominator == 1 for v in vectors for w in vectors)
        reduced = _integral_table(table, scale)
        assert (reduced is not None) == integral
        if integral:
            assert reduced == [[space.inner(v, w) for w in vectors] for v in vectors]

    @given(gram_cases(), st.integers(min_value=0, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_foreign_vector_rejected(self, case, at):
        space, vectors, foreign = case
        vectors.insert(min(at, len(vectors)), foreign)
        with pytest.raises(LatticeError):
            space.gram(vectors)


def _old_is_isometry(lat, images):
    """The former verdict: the form is kept on the basis, and the images of
    the Z-basis have HNF coordinates of determinant +-1 in the lattice."""
    space = lat.space
    rows = [images[label] for label in space.labels]
    for i, v in enumerate(rows):
        for j, w in enumerate(rows):
            if space.inner(v, w) != (space.diag[i] if i == j else 0):
                return False
    den, hnf, _ = lat._scaled
    coords = [
        lat.coordinates_of(space.combination([Fraction(c, den) for c in row], rows))
        for row in hnf
    ]
    return None not in coords and abs(_det_int(coords)) == 1


def _combination_is_isometry(lat, images):
    """The former verdict: the form is kept on the basis, and the images of
    the HNF rows, each one `combination` of the images, span the lattice."""
    space = lat.space
    rows = [images[label] for label in space.labels]
    table, scale = space.gram(rows)
    diag = [scale // space.scale * w for w in space.weights]
    if table != [[d if i == j else 0 for j in range(len(diag))] for i, d in enumerate(diag)]:
        return False
    den, hnf, _ = lat._scaled
    scaled_images = [space.combination(row, rows) for row in hnf]
    image_of_zbasis = [RationalVector(space, v.nums, v.den * den) for v in scaled_images]
    return lat.same_lattice(SublatticeModel(space, image_of_zbasis))


def _old_index_of_sublattice(big, sub):
    """The former index path: HNF coordinates of the sublattice's Z-basis
    vectors and their determinant, or None if one lies outside."""
    coords = [big.coordinates_of(v) for v in sub.zbasis()]
    return None if None in coords else abs(_det_int(coords))


def _old_coordinate_section(lat, labels):
    """The former section path: an HNF of all the lattice's rows with the
    other coordinates ordered first, whose rows with a pivot past them are
    rebuilt as vectors and reduced again by a new model."""
    keep = {lat.space.index(label) for label in labels}
    order = [i for i in range(lat.space.dim) if i not in keep] + sorted(keep)
    back = sorted(range(len(order)), key=order.__getitem__)
    cut = len(order) - len(keep)
    den, hnf, _ = lat._scaled
    echelon, pivots = _hnf_rows([[row[c] for c in order] for row in hnf], len(order))
    section = tuple(
        RationalVector(lat.space, tuple(row[k] for k in back), den)
        for row, p in zip(echelon, pivots)
        if p >= cut
    )
    return SublatticeModel(lat.space, section)


def assert_section_matches_oracle(lat, labels):
    """The section's directly set basis is the one the oracle and the normal
    construction from its generators compute."""
    section = lat.coordinate_section(labels)
    expected = _old_coordinate_section(lat, labels)._scaled
    assert section._scaled == expected
    assert SublatticeModel(lat.space, section.generators)._scaled == expected


@st.composite
def lattices_with_labels(draw):
    """A small rational lattice and a random label subset, empty and full included."""
    n = draw(st.integers(min_value=1, max_value=5))
    space = QuadraticSpace([f"x{i}" for i in range(n)], [1] * n)
    entry = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-6, max_value=6, max_denominator=3),
    )
    gens = draw(
        st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=5)
    )
    labels = draw(st.lists(st.sampled_from(space.labels), unique=True))
    return SublatticeModel(space, tuple(space.vector(g) for g in gens)), labels


def sympy_contains(lat, v):
    """Whether x * (D*G) = D*v has an integer solution x, D clearing every
    denominator.  Appending the row D*v to D*G keeps the row lattice exactly
    when it keeps the rank and the product of the nonzero Smith invariants
    (the index of the row lattice in its saturation)."""
    rows = [g.coords for g in lat.generators] + [v.coords]
    d = lcm(*(x.denominator for row in rows for x in row))
    big = Matrix([[int(x * d) for x in row] for row in rows])
    small = big[:-1, :]

    def index(m):
        snf = smith_normal_form(m, domain=ZZ)
        out = 1
        for i in range(min(snf.shape)):
            out *= abs(snf[i, i]) or 1
        return out

    return small.rank() == big.rank() and index(small) == index(big)


class TestContainsAgainstSympy:
    @given(
        lattices_with_labels(),
        st.lists(st.integers(min_value=-3, max_value=3), min_size=5, max_size=5),
        st.integers(min_value=0, max_value=4),
        st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(-2, 3), 1, 2]),
    )
    @settings(max_examples=100, deadline=None)
    def test_members_and_shifts(self, case, combo, k, q):
        lat = case[0]
        member = lat.space.zero()
        for c, g in zip(combo, lat.generators):
            member = member + c * g
        shifted = member + q * lat.space.basis_vector(lat.space.labels[k % lat.space.dim])
        assert lat.contains(member) and sympy_contains(lat, member)
        assert lat.contains(shifted) == sympy_contains(lat, shifted)


@st.composite
def lattice_pairs(draw):
    """A rational lattice and a candidate sublattice of the same space: as
    many integer combinations of its Z-basis as its rank, either kept, or
    divided by 2 or 3 (the denominator may then not divide the lattice's),
    or with the first replaced by a vector whose denominator divides the
    lattice's (usually outside it)."""
    n = draw(st.integers(min_value=1, max_value=4))
    space = QuadraticSpace([f"x{i}" for i in range(n)], [1] * n)
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=4))
    big = SublatticeModel(space, tuple(space.vector(r) for r in rows))
    zb = big.zbasis()
    coeffs = st.lists(st.integers(min_value=-3, max_value=3), min_size=len(zb), max_size=len(zb))
    gens = [space.combination(draw(coeffs), zb) for _ in zb]
    kind = draw(st.sampled_from(["kept", "divided", "replaced"]))
    if kind == "divided":
        gens = [Fraction(1, draw(st.sampled_from([2, 3]))) * g for g in gens]
    elif kind == "replaced" and gens:
        nums = draw(st.lists(st.integers(min_value=-4, max_value=4), min_size=n, max_size=n))
        gens[0] = space.vector([Fraction(x, big.denominator) for x in nums])
    return big, SublatticeModel(space, tuple(gens))


def _plane_lattice(*rows):
    space = QuadraticSpace(("a", "b"), [1, 1])
    return SublatticeModel(space, tuple(space.vector(r) for r in rows))


# denominators 2 and 3: the thirds cannot lie in the halves
_HALVES_AND_THIRDS = (
    _plane_lattice([Fraction(1, 2), 0], [0, 1]),
    _plane_lattice([Fraction(1, 3), 0], [0, 1]),
)
# equal denominators, but (1, 0) is not in <(2, 0), (0, 2)>
_NOT_CONTAINED = (_plane_lattice([2, 0], [0, 2]), _plane_lattice([1, 0], [0, 1]))


class TestSectionsAndIndex:
    @given(lattices_with_labels())
    @settings(max_examples=100, deadline=None)
    def test_coordinate_section_against_oracle(self, case):
        lat, labels = case
        section = lat.coordinate_section(labels)
        keep = {lat.space.index(label) for label in labels}
        others = [i for i in range(lat.space.dim) if i not in keep]
        for g in section.generators:
            assert lat.contains(g)
            assert not any(g.coords[i] for i in others)
        # the section is the kernel of the projection onto the other labels
        flat = [v.coords[i] for v in lat.zbasis() for i in others]
        projection = Matrix(
            lat.rank, len(others), [Rational(x.numerator, x.denominator) for x in flat]
        )
        assert section.rank == lat.rank - projection.rank()
        # primitive: its basis extends to a basis of the lattice
        coords = [lat.coordinates_of(v) for v in section.zbasis()]
        if coords:
            snf = smith_normal_form(Matrix(coords), domain=ZZ)
            assert all(abs(snf[i, i]) == 1 for i in range(min(snf.shape)))

    @given(lattices_with_labels())
    @settings(max_examples=200, deadline=None)
    def test_coordinate_section_against_old_path(self, case):
        assert_section_matches_oracle(*case)

    @pytest.mark.parametrize(
        "eights",
        [MODEL.even_eights(), [even_eight(i, j) for i, j in INDEX_PAIRS]],
        ids=["all_thirty", "index_pairs"],
    )
    def test_model_sections_against_old_path(self, eights):
        for eight in eights:
            assert_section_matches_oracle(MODEL.ns, eight.labels())

    @given(lattice_pairs())
    @example(_HALVES_AND_THIRDS)
    @example(_NOT_CONTAINED)
    @settings(max_examples=150, deadline=None)
    def test_index_against_zbasis_coordinates(self, pair):
        big, sub = pair
        assume(sub.rank == big.rank)
        expected = _old_index_of_sublattice(big, sub)
        if expected is None:
            with pytest.raises(LatticeError, match="not contained"):
                big.index_of_sublattice(sub)
        else:
            assert big.index_of_sublattice(sub) == expected

    def test_coordinate_section_simple(self):
        space = QuadraticSpace(("a", "b", "c"), [1, 1, 1])
        gens = (
            space.vector([1, 1, 0]),
            space.vector([0, 2, 0]),
            space.vector([0, 0, 3]),
        )
        lat = SublatticeModel(space, gens)
        section = lat.coordinate_section(["a", "b"])
        assert section.rank == 2
        assert section.contains(space.vector([1, 1, 0]))
        assert not section.contains(space.vector([0, 0, 3]))

    def test_index_of_sublattice(self):
        space = QuadraticSpace(("a", "b"), [1, 1])
        big = SublatticeModel(space, (space.basis_vector("a"), space.basis_vector("b")))
        small = SublatticeModel(space, (space.vector([2, 0]), space.vector([0, 3])))
        assert big.index_of_sublattice(small) == 6

    def test_index_requires_containment(self):
        space = QuadraticSpace(("a", "b"), [1, 1])
        big = SublatticeModel(space, (space.vector([2, 0]), space.vector([0, 2])))
        other = SublatticeModel(space, (space.vector([1, 0]), space.vector([0, 1])))
        with pytest.raises(LatticeError):
            big.index_of_sublattice(other)


class TestJson:
    def test_trope_class_roundtrip(self):
        v = MODEL.trope_class("C23")
        payload = vector_to_json(v)
        assert payload["basis"][0] == "L"
        assert payload["coords"][0] == ["1", "2"]
        assert vector_from_json(SPACE, payload) == v

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            {"basis": list(SPACE.labels)},
            {"coords": [["0", "1"]] * 17},
            {"basis": list(SPACE.labels), "coords": None},
            {"basis": list(SPACE.labels), "coords": [["1", "0"]] + [["0", "1"]] * 16},
            {"basis": list(SPACE.labels), "coords": [["1.5", "1"]] + [["0", "1"]] * 16},
            {"basis": list(SPACE.labels), "coords": [[1.5, 1]] + [["0", "1"]] * 16},
            {"basis": list(SPACE.labels), "coords": [["1"]] + [["0", "1"]] * 16},
            {"basis": list(SPACE.labels), "coords": [["0", "1"]] * 16},
            {"basis": list(SPACE.labels), "coords": [[" 1_0 ", "1"]] + [["0", "1"]] * 16},
            {"basis": list(SPACE.labels), "coords": [["1", True]] + [["0", "1"]] * 16},
            {"basis": list(SPACE.labels), "coords": [["+1", "1"]] + [["0", "1"]] * 16},
            {"basis": list(SPACE.labels), "coords": [["\u0661", "1"]] + [["0", "1"]] * 16},
            {"basis": list(SPACE.labels), "coords": [[3, "1"]] + [["0", "1"]] * 16},
            {"basis": list(SPACE.labels), "coords": [["1\n", "1"]] + [["0", "1"]] * 16},
        ],
    )
    def test_malformed_payload_rejected(self, payload):
        with pytest.raises(LatticeError):
            vector_from_json(SPACE, payload)

    def test_wrong_basis_rejected(self):
        payload = vector_to_json(MODEL.trope_class("C0"))
        payload["basis"] = payload["basis"][::-1]
        with pytest.raises(LatticeError):
            vector_from_json(SPACE, payload)

    @given(
        st.lists(
            st.fractions(max_denominator=10**6),
            min_size=17,
            max_size=17,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_exact(self, coords):
        v = SPACE.vector(coords)
        assert vector_from_json(SPACE, vector_to_json(v)) == v


def _fraction_json_coords(v):
    """The former `vector_to_json` entries, read off the Fraction view."""
    return [[str(c.numerator), str(c.denominator)] for c in v.coords]


def _fraction_from_json(space, payload):
    """The former `vector_from_json` build: one Fraction per entry, then
    `QuadraticSpace.vector`."""
    return space.vector([Fraction(int(n), int(d)) for n, d in payload["coords"]])


JSON_SPACES = (SPACE, nikulin_lattice().space)


@st.composite
def integer_vectors(draw):
    """A vector given as integer numerators over one denominator, not
    reduced: zeros, negatives and mixed entry denominators included."""
    space = draw(st.sampled_from(JSON_SPACES))
    entry = st.one_of(st.just(0), st.integers(min_value=-40, max_value=40))
    nums = draw(st.lists(entry, min_size=space.dim, max_size=space.dim))
    return RationalVector(space, tuple(nums), draw(st.integers(min_value=1, max_value=60)))


@st.composite
def unreduced_payloads(draw):
    """A payload whose entries need not be in lowest terms, with "-0"
    numerators and negative denominators."""
    space = draw(st.sampled_from(JSON_SPACES))
    num = st.one_of(st.just("-0"), st.integers(min_value=-40, max_value=40).map(str))
    den = st.integers(min_value=-12, max_value=12).filter(bool).map(str)
    coords = draw(st.lists(st.tuples(num, den).map(list), min_size=space.dim, max_size=space.dim))
    return space, {"basis": list(space.labels), "coords": coords}


class TestIntegerJsonBoundary:
    @given(integer_vectors())
    @settings(max_examples=200, deadline=None)
    def test_to_json_matches_fraction_view(self, v):
        payload = vector_to_json(v)
        assert payload["basis"] == list(v.space.labels)
        assert payload["coords"] == _fraction_json_coords(v)

    @given(unreduced_payloads())
    @example((SPACE, {"basis": list(SPACE.labels),
                      "coords": [["2", "4"], ["-0", "3"], ["1", "-2"], ["-3", "-6"]]
                      + [["0", "1"]] * 13}))
    @settings(max_examples=200, deadline=None)
    def test_from_json_matches_fraction_path(self, case):
        space, payload = case
        v = vector_from_json(space, payload)
        assert v == _fraction_from_json(space, payload)
        assert v.den > 0 and gcd(v.den, *v.nums) == 1
        assert vector_to_json(v)["coords"] == _fraction_json_coords(v)

    def test_vector_accepts_int_and_fraction_subclasses(self):
        class Count(IntEnum):
            TWO = 2

        class Ratio(Fraction):
            pass

        space = QuadraticSpace(("a", "b"), [Count.TWO, Ratio(-1, 2)])
        assert space == QuadraticSpace(("a", "b"), [2, Fraction(-1, 2)])
        v = space.vector([Count.TWO, Ratio(3, 4)])
        assert v == space.vector([2, Fraction(3, 4)])
        assert {type(v.den), *map(type, v.nums)} == {int}
        assert space.vector({"b": Ratio(3, 4)}) == space.vector([0, Fraction(3, 4)])


class TestJsonEntryShape:
    """Each coordinate entry must be a list of exactly two decimal strings: a
    two-character string or a two-key dict is not one, though either unpacks
    into a numerator and a denominator."""

    @pytest.mark.parametrize(
        "entry",
        ["12", "-1", {"3": 0, "4": 0}, ("1", "2"), b"12", range(2), ["1", "2", "3"], [], None, 12],
    )
    def test_entry_that_is_not_a_two_item_list_rejected(self, entry):
        payload = {"basis": list(SPACE.labels), "coords": [entry] + [["0", "1"]] * 16}
        with pytest.raises(LatticeError):
            vector_from_json(SPACE, payload)

    def test_coords_given_as_a_string_rejected(self):
        with pytest.raises(LatticeError):
            vector_from_json(SPACE, {"basis": list(SPACE.labels), "coords": "12" * 17})

    def test_list_entries_still_parse(self):
        v = vector_from_json(SPACE, {"basis": list(SPACE.labels), "coords": [["1", "2"]] * 17})
        assert v == SPACE.vector([Fraction(1, 2)] * 17)


# ---------------------------------------------------------------------------
# the sparse kernels against their dense references
# ---------------------------------------------------------------------------


def _dense_reduce(lat, scaled):
    """The former membership loop: every column from each pivot on."""
    _, hnf, pivots = lat._scaled
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


def _dense_gram_table(weights, rows):
    """The former Gram kernel: each unordered pair of rows summed once."""
    table = [[0] * len(rows) for _ in rows]
    for i, a in enumerate(rows):
        terms = [(k, weights[k] * x) for k, x in enumerate(a) if x]
        for j, b in enumerate(rows[i:], i):
            table[i][j] = table[j][i] = sum([wx * b[k] for k, wx in terms])
    return table


_SPARSE_SPACES = (SPACE, nikulin_lattice().space)


@st.composite
def six_generator_lattices(draw):
    """Six sparse generators, entries in {+-1/2, +-1, +-2}, in the rank-17 or
    the rank-8 space, half of the time replaced by a coordinate section of
    their lattice on a random label subset."""
    space = draw(st.sampled_from(_SPARSE_SPACES))
    entry = st.sampled_from([Fraction(1, 2), Fraction(-1, 2), 1, -1, 2, -2])
    gens = []
    for _ in range(6):
        support = draw(st.lists(st.integers(0, space.dim - 1), min_size=1, max_size=3, unique=True))
        gens.append(space.vector({space.labels[k]: draw(entry) for k in support}))
    lat = SublatticeModel(space, tuple(gens))
    if draw(st.booleans()):
        lat = lat.coordinate_section(draw(st.lists(st.sampled_from(space.labels), unique=True)))
    return lat


class TestSparseReduce:
    @given(
        st.one_of(six_generator_lattices(), st.sampled_from(MODEL_LATTICES)),
        st.lists(st.integers(-3, 3), min_size=17, max_size=17),
        st.integers(0, 16),
        st.sampled_from([0, 1, Fraction(1, 2), Fraction(-1, 3)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_members_and_non_members_against_dense_loop(self, lat, combo, k, q):
        space = lat.space
        member = space.combination(combo[:lat.rank], lat.zbasis())
        shifted = member + q * space.basis[k % space.dim]
        for v in (member, shifted):
            scaled = lat._scale(v)
            if scaled is not None:
                assert lat._reduce(scaled) == _dense_reduce(lat, scaled)
            assert lat.coordinates_of(v) == (None if scaled is None else _dense_reduce(lat, scaled))
        assert lat.coordinates_of(member) == tuple(combo[:lat.rank])
        # member lies in the lattice, so shifted does iff the shift does
        assert lat.contains(shifted) == lat.contains(q * space.basis[k % space.dim])

    @given(
        st.one_of(six_generator_lattices(), st.sampled_from(MODEL_LATTICES)),
        st.lists(st.integers(-4, 4), min_size=17, max_size=17),
    )
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_scaled_vectors_against_dense_loop(self, lat, nums):
        # mostly non-members: None must come exactly where the dense loop gives it
        scaled = nums[:lat.space.dim]
        assert lat._reduce(scaled) == _dense_reduce(lat, scaled)

    @given(st.integers(0, (1 << 16) - 1))
    @settings(max_examples=100, deadline=None)
    def test_node_set_half_sums_against_dense_loop(self, bits):
        s = NodeSet(bits)
        scaled = MODEL.ns._scale(MODEL.half_sum(s))
        assert MODEL.ns._reduce(scaled) == _dense_reduce(MODEL.ns, scaled)
        assert MODEL.is_even_set(s) == (_dense_reduce(MODEL.ns, scaled) is not None)

    @pytest.mark.parametrize("tropes", [None, ("C0", "C12")], ids=["model", "z17_c0_c12"])
    def test_is_even_set_against_membership_on_every_mask(self, tropes):
        # is_even_set reads the even-set code; the half-sum membership test
        # decides the same question on each of the 2^16 node sets, on the
        # model and on Z^17 plus two tropes (even sets: empty and one eight)
        model = MODEL
        if tropes:
            model = JacobianKummerNS()
            units = [model.space.basis_vector(label) for label in BASIS_LABELS]
            model.ns = SublatticeModel(model.space, tuple(units + [model.trope_class(t) for t in tropes]))
        evens = [bits for bits in range(1 << 16) if model.ns.contains(model.half_sum(NodeSet(bits)))]
        assert [bits for bits in range(1 << 16) if model.is_even_set(NodeSet(bits))] == evens
        assert len(evens) == (32 if tropes is None else 2)


class TestSparseCoords:
    @given(integer_vectors())
    @example(RationalVector(SPACE, (0,) * 17))
    @example(RationalVector(SPACE, (0, 3, 0, -1) + (0,) * 13))
    @example(RationalVector(SPACE, (0, 3, 0, -1) + (0,) * 13, 6))
    @settings(max_examples=200, deadline=None)
    def test_coords_against_fraction_per_entry(self, v):
        assert v.coords == tuple(Fraction(x, v.den) for x in v.nums)
        assert all(type(c) is Fraction for c in v.coords)
        assert tuple(v.coeff(label) for label in v.space.labels) == v.coords
        assert all(type(v.coeff(label)) is Fraction for label in v.space.labels)


class _EqualToAll:
    """Not a string, though it compares equal to "0" and "1"."""

    def __eq__(self, other):
        return True

    __hash__ = None


class _RaisingEq:
    """Not a string; comparing it with anything raises an error that is
    neither a KeyError, a TypeError nor a ValueError."""

    def __eq__(self, other):
        raise RuntimeError("compared")

    __hash__ = None


# each is rejected by `_json_int`, so must be wherever a shortcut could take it
_BAD_JSON_INTS = ["+1", " 1", "1_0", "\u0661", "-", "", 1, True, _EqualToAll(), _RaisingEq()]


class TestJsonShortcutBoundary:
    """The denominator "1" skips its parse; every other entry, and that
    value in any other type, still goes through the strict one."""

    @pytest.mark.parametrize("bad", _BAD_JSON_INTS)
    @pytest.mark.parametrize("position", ["numerator over 1", "numerator over 2", "denominator of 0", "denominator of 3"])
    def test_bad_entry_rejected_in_either_position(self, bad, position):
        entry = {
            "numerator over 1": [bad, "1"],
            "numerator over 2": [bad, "2"],
            "denominator of 0": ["0", bad],
            "denominator of 3": ["3", bad],
        }[position]
        payload = {"basis": list(SPACE.labels), "coords": [entry] + [["0", "1"]] * 16}
        with pytest.raises(LatticeError):
            vector_from_json(SPACE, payload)

    @pytest.mark.parametrize("entry", [["0", "1", "1"], ["3", "1", "1"], ["0"], [0, 1], [0, "1"], ["0", 1]])
    def test_shortcut_values_of_the_wrong_shape_or_type_rejected(self, entry):
        payload = {"basis": list(SPACE.labels), "coords": [["0", "1"]] * 16 + [entry]}
        with pytest.raises(LatticeError):
            vector_from_json(SPACE, payload)

    def test_unreduced_and_negative_denominators_normalised(self):
        coords = [["0", "-1"], ["4", "2"], ["-0", "1"], ["3", "-1"], ["0", "5"], ["-6", "-4"], ["1", "1"]]
        payload = {"basis": list(SPACE.labels), "coords": coords + [["0", "1"]] * 10}
        v = vector_from_json(SPACE, payload)
        assert v == SPACE.vector([0, 2, 0, -3, 0, Fraction(3, 2), 1] + [0] * 10)
        assert vector_to_json(v)["coords"][:7] == [["0", "1"], ["2", "1"], ["0", "1"], ["-3", "1"],
                                                   ["0", "1"], ["3", "2"], ["1", "1"]]

    def test_zero_entries_are_fresh_lists(self):
        coords = vector_to_json(SPACE.zero())["coords"]
        coords[0][0] = "7"
        assert coords[1] == ["0", "1"] and vector_to_json(SPACE.zero())["coords"][0] == ["0", "1"]


def _dense_gram_is_isometry(lat, images):
    """The former verdict, its form check on the dense Gram kernel."""
    space = lat.space
    rows = [images[label] for label in space.labels]
    den = lcm(*(v.den for v in rows))
    table = _dense_gram_table(space.weights, [[x * (den // v.den) for x in v.nums] for v in rows])
    scale = den * den * space.scale
    if table != [[scale // space.scale * w if i == j else 0 for j in range(space.dim)]
                 for i, w in enumerate(space.weights)]:
        return False
    return _combination_is_isometry(lat, images)


class TestSparseGram:
    @pytest.mark.parametrize("name, expected", [("involution", True), ("flipped", False)])
    def test_isometry_form_check_against_dense_gram(self, name, expected):
        identity = {lab: basis(lab) for lab in SPACE.labels}
        images = {
            "involution": MODEL.covering_involution_images(),
            "flipped": dict(identity, L=3 * basis("L") + 4 * basis("E0"), E0=2 * basis("L") - 3 * basis("E0")),
        }[name]
        rows = [images[lab] for lab in SPACE.labels]
        table, scale = SPACE.gram(rows)
        den = lcm(*(v.den for v in rows))
        assert scale == den * den * SPACE.scale
        assert table == _dense_gram_table(SPACE.weights, [[x * (den // v.den) for x in v.nums] for v in rows])
        assert MODEL.ns.is_isometry(images) == _dense_gram_is_isometry(MODEL.ns, images) == expected

    @pytest.mark.parametrize("lat", MODEL_LATTICES)
    def test_zbasis_grams_against_dense_kernel(self, lat):
        assert lat._zgram[0] == _dense_gram_table(lat.space.weights, lat._scaled[1])

    def test_image_from_another_space_rejected(self):
        other = QuadraticSpace([f"y{i}" for i in range(SPACE.dim)], SPACE.diag)
        images = dict(MODEL.covering_involution_images(), E12=other.basis[3])
        with pytest.raises(LatticeError):
            MODEL.ns.is_isometry(images)


# ---------------------------------------------------------------------------
# the one-pass vector build against the checked constructor
# ---------------------------------------------------------------------------


class Weight(IntEnum):
    MINUS = -2
    ONE = 1
    THREE = 3


def _checked_vector(space, values):
    """The former build: a mapping laid out by label, `_over_one_denominator`,
    then the public constructor, which checks and normalises again."""
    if isinstance(values, Mapping):
        coords = [0] * space.dim
        for label, value in values.items():
            coords[space.index(label)] = value
        values = coords
    return RationalVector(space, *_over_one_denominator(tuple(values)))


_EXACT_VALUES = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.sampled_from(list(Weight)),
    st.just(0),
    st.just(Fraction(0)),
)


class _ReadOnly(Mapping):
    """A Mapping that is not a dict."""

    def __init__(self, entries):
        self._entries = entries

    def __getitem__(self, key):
        return self._entries[key]

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)


@st.composite
def vector_inputs(draw):
    """A space of the package and coordinates for `vector`: a list, a tuple or
    a label -> value mapping (a dict or a read-only Mapping) of ints,
    Fractions and IntEnum members."""
    space = draw(st.sampled_from(JSON_SPACES))
    values = draw(st.lists(_EXACT_VALUES, min_size=space.dim, max_size=space.dim))
    shape = draw(st.sampled_from(["list", "tuple", "dict", "mapping"]))
    if shape == "tuple":
        return space, tuple(values)
    if shape in ("dict", "mapping"):
        labels = draw(st.lists(st.sampled_from(space.labels), unique=True))
        entries = {label: values[space.index(label)] for label in labels}
        return space, entries if shape == "dict" else _ReadOnly(entries)
    return space, values


class TestOnePassVector:
    @given(vector_inputs())
    @example((SPACE, [0] * 17))
    @example((SPACE, [Fraction(0)] * 17))
    @example((SPACE, [Weight.THREE] + [Fraction(1, 6), Fraction(-5, 4)] * 8))
    @example((SPACE, {}))
    @settings(max_examples=300, deadline=None)
    def test_against_checked_constructor(self, case):
        space, values = case
        v, ref = space.vector(values), _checked_vector(space, values)
        assert (v.nums, v.den) == (ref.nums, ref.den)
        assert v == ref and hash(v) == hash(ref)
        assert v.space is space
        assert type(v.nums) is tuple and {type(v.den), *map(type, v.nums)} == {int}
        assert v.den > 0 and gcd(v.den, *v.nums) == 1

    @pytest.mark.parametrize(
        "values",
        [
            [True] + [0] * 16,
            [0] * 16 + [0.5],
            ["1"] + [0] * 16,
            [0] * 16,
            [0] * 18,
            [],
            {"L": 1, "E78": 2},
            {"L": False},
            {"E0": 1.0},
        ],
        ids=["bool", "float", "str", "short", "long", "empty", "unknown_label", "bool_value", "float_value"],
    )
    def test_same_error_as_checked_constructor(self, values):
        with pytest.raises(LatticeError) as ref:
            _checked_vector(SPACE, values)
        with pytest.raises(LatticeError) as got:
            SPACE.vector(values)
        assert str(got.value) == str(ref.value)

    def test_json_read_against_checked_constructor(self):
        coords = [["2", "4"], ["-0", "3"], ["1", "-2"], ["-3", "-6"], ["6", "9"]] + [["0", "1"]] * 12
        v = vector_from_json(SPACE, {"basis": list(SPACE.labels), "coords": coords})
        ref = RationalVector(SPACE, (6, 0, -6, 6, 8) + (0,) * 12, 12)
        assert (v.nums, v.den) == (ref.nums, ref.den) == ((3, 0, -3, 3, 4) + (0,) * 12, 6)
        assert hash(v) == hash(ref)
