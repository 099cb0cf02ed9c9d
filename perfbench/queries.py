"""Seeded inputs and known answers for the ``lattice_queries`` workload.

``make_batch(seed, index)`` is a pure function of its arguments: it returns
plain integers and lists only, and never touches kummerlab.  The known
answers are derived here without the code path under test:

- members are integer combinations of the model's generators, so
  membership holds by definition; non-members add half of one basis class,
  which no lattice in the batch contains;
- ``inner`` is a plain diagonal ``Fraction`` sum over the two fixed forms;
- even node sets are the 32 sets built from the index-pair rule below;
- a generator set's discriminant-group order is |det| of its Gram matrix
  (independent generators are a Z-basis of their span), and the index of a
  sublattice given by an integer transform is |det| of the transform, both
  by the elimination in ``det``;
- the coordinate section of the divisor lattice on a node set S contains
  the span of S with index equal to the number of even sets inside S.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

PAIRS = tuple(combinations(range(1, 7), 2))
NODE_LABELS = ("E0",) + tuple(f"E{i}{j}" for i, j in PAIRS)
FULL = (1 << 16) - 1

# the two fixed diagonal forms: the rank-17 divisor space and the rank-8 space
DIAGONALS = {"ns": (4,) + (-2,) * 16, "nik": (-2,) * 8}
# generator counts of the two fixed lattices (basis plus tropes, basis plus half-sum)
GENERATORS = {"ns": 33, "nik": 9}

SPACES = ("ns", "nik")
# calls per batch of each kind, set by measured time share (README.md) so
# that membership, inner products, JSON conversion, construction with HNF and
# SNF each take a real share of an op
MEMBER_READS = 64
INNER_READS = 48
JSON_READS = 256
EVEN_READS = 64
SUBLATTICES = 12
DISCRIMINANTS = 4
SECTIONS = 3
# nonzero coordinates of an inner/json vector and of a sublattice generator
VECTOR_SUPPORT = 6
GENERATOR_COUNT = 6
GENERATOR_SUPPORT = 3
SECTION_WEIGHT = 12


def _node_bit(i: int, j: int) -> int:
    return 1 << NODE_LABELS.index(f"E{min(i, j)}{max(i, j)}")


def even_sets() -> frozenset[int]:
    """Bitmasks of the 32 even node sets: the empty and full sets, the fifteen
    eights {E_ik, E_jk : k not in {i, j}} and their complements."""
    eights = set()
    for i, j in PAIRS:
        mask = 0
        for k in range(1, 7):
            if k not in (i, j):
                mask |= _node_bit(i, k) | _node_bit(j, k)
        eights.add(mask)
    return frozenset({0, FULL} | eights | {m ^ FULL for m in eights})


EVEN_SETS = even_sets()


def det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    result = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            result = -result
        result *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return result


def inner(space: str, v, w) -> Fraction:
    return sum((g * a * b for g, a, b in zip(DIAGONALS[space], v, w) if a and b), Fraction(0))


def gram(space: str, vectors) -> list[list[Fraction]]:
    return [[inner(space, v, w) for w in vectors] for v in vectors]


def as_fractions(pairs) -> list[Fraction]:
    return [Fraction(n, d) for n, d in pairs]


def _sparse_coeffs(rng: random.Random, n: int) -> list[int]:
    coeffs = [0] * n
    for k in rng.sample(range(n), rng.randint(2, 6)):
        coeffs[k] = rng.choice((-3, -2, -1, 1, 2, 3))
    return coeffs


def _rational(rng: random.Random, n: int) -> list[list[int]]:
    coords = [[0, 1] for _ in range(n)]
    for k in rng.sample(range(n), VECTOR_SUPPORT):
        coords[k] = [rng.choice((-5, -3, -2, -1, 1, 2, 3, 5)), rng.choice((1, 1, 2, 3))]
    return coords


def _node_set_vector(mask: int) -> list[Fraction]:
    return [Fraction(0)] + [Fraction(mask >> k & 1) for k in range(16)]


def _generator_set(rng: random.Random, space: str, with_half_sum: bool) -> list[list[list[int]]]:
    """Six independent sparse generators with an integral, non-degenerate Gram matrix."""
    dim = len(DIAGONALS[space])
    while True:
        vectors = []
        for _ in range(GENERATOR_COUNT):
            v = [Fraction(0)] * dim
            for k in rng.sample(range(dim), GENERATOR_SUPPORT):
                v[k] = Fraction(rng.choice((-2, -1, 1, 2)))
            vectors.append(v)
        if with_half_sum:
            # half the sum of an even eight pairs integrally with every
            # integer vector and with itself (norm -4)
            eight = rng.choice(sorted(m for m in EVEN_SETS if m.bit_count() == 8))
            vectors[0] = [x / 2 for x in _node_set_vector(eight)]
        if det(gram(space, vectors)) != 0:
            return [[[x.numerator, x.denominator] for x in v] for v in vectors]


def _transform(rng: random.Random, k: int) -> list[list[int]]:
    while True:
        m = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
        if det(m) != 0:
            return m


def make_batch(seed: int, index: int) -> dict:
    """The inputs of batch ``index`` under ``seed``, as plain data.

    Every batch has the same mix, alternating the two spaces, so batches
    differ in their numbers but hardly in their cost.
    """
    rng = random.Random(f"kummerlab-lattice-queries:{seed}:{index}")
    reads = []
    for j in range(MEMBER_READS):
        space = SPACES[j % 2]
        reads.append(["member", space, _sparse_coeffs(rng, GENERATORS[space])])
        reads.append([
            "nonmember", space, _sparse_coeffs(rng, GENERATORS[space]),
            rng.randrange(1 if space == "ns" else 0, len(DIAGONALS[space])),
        ])
    for j in range(INNER_READS):
        dim = len(DIAGONALS[SPACES[j % 2]])
        reads.append(["inner", SPACES[j % 2], _rational(rng, dim), _rational(rng, dim)])
    for j in range(JSON_READS):
        reads.append(["json", SPACES[j % 2], _rational(rng, len(DIAGONALS[SPACES[j % 2]]))])
    for j in range(EVEN_READS):
        reads.append(["even", rng.choice(sorted(EVEN_SETS)) if j % 2 else rng.randrange(FULL + 1)])
    rng.shuffle(reads)
    writes = []
    for j in range(SUBLATTICES):
        space = "nik" if j % 3 == 2 else "ns"
        gens = _generator_set(rng, space, with_half_sum=space == "ns" and j % 2 == 0)
        writes.append(["sublattice", space, gens, _transform(rng, len(gens)), j < DISCRIMINANTS])
    for _ in range(SECTIONS):
        nodes = rng.sample(range(16), SECTION_WEIGHT)
        writes.append(["section", sum(1 << k for k in nodes)])
    return {"seed": seed, "index": index, "reads": reads, "writes": writes}


def calls(batch: dict, generators: dict[str, list[list[Fraction]]]) -> list[tuple]:
    """The concrete calls of a batch with their known answers, in call order.

    ``generators`` maps each space to the coordinate rows of its fixed
    lattice's generators; an integer combination of them is a member.
    """
    out = []
    for item in batch["reads"]:
        kind = item[0]
        if kind in ("member", "nonmember"):
            space, coeffs = item[1], item[2]
            v = [sum((c * g[a] for c, g in zip(coeffs, generators[space]) if c), Fraction(0))
                 for a in range(len(DIAGONALS[space]))]
            if kind == "nonmember":
                v[item[3]] += Fraction(1, 2)
            out.append((kind, space, v, kind == "member"))
        elif kind == "inner":
            space, a, b = item[1], as_fractions(item[2]), as_fractions(item[3])
            out.append((kind, space, a, b, inner(space, a, b)))
        elif kind == "even":
            out.append((kind, item[1], item[1] in EVEN_SETS))
        else:
            out.append((kind, item[1], as_fractions(item[2])))
    for item in batch["writes"]:
        if item[0] == "sublattice":
            space, transform = item[1], item[3]
            gens = [as_fractions(g) for g in item[2]]
            images = [
                [sum((m * g[a] for m, g in zip(row, gens) if m), Fraction(0))
                 for a in range(len(DIAGONALS[space]))]
                for row in transform
            ]
            order = abs(det(gram(space, gens))) if item[4] else None
            out.append(("sublattice", space, gens, images, len(gens), order, abs(det(transform))))
        else:
            mask = item[1]
            labels = tuple(label for k, label in enumerate(NODE_LABELS) if mask >> k & 1)
            inside = sum(1 for e in EVEN_SETS if e & mask == e)
            out.append(("section", labels, len(labels), inside))
    return out
