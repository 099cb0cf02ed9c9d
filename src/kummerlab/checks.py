"""Registry of verification checks.

Every finite claim the package certifies appears here exactly once: an
``@check`` decorator on the function that computes it gives a stable
identifier, a one-line description of what is computed, and the mathematical
claim being verified.  Checks marked ``flagged`` record known ambiguities in
the source material; they never fail a run.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cached_property, partial

from . import covers, fibration as fib_mod, nikulin as nik_mod
from ._frozen import Frozen
from .kummer_ns import (
    JacobianKummerNS,
    even_eight,
    isogeny_polarization_type,
    jacobian_kummer_ns,
)
from .labels import INDEX_PAIRS, NODE_LABELS, TROPE_LABELS
from .lattice import RationalVector, _quotient
from .nodecode import (
    BinaryCode,
    NodeSet,
    check_affine_hyperplane_family,
    code_from_even_sets,
    weight_enumerator,
)

PASS = "pass"
FAIL = "fail"
FLAGGED = "flagged"

# frozen from the Smith-normal-form oracle over the 17x17 Z-basis Gram matrix
NS_INVARIANT_FACTORS = (2, 2, 2, 2, 4)
NIKULIN_INVARIANT_FACTORS = (2, 2, 2, 2, 2, 2)


class CheckResult(Frozen):
    __slots__ = ("id", "status", "detail", "data")

    def __init__(self, id: str, status: str, detail: str, data: object | None = None) -> None:
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "data", data)


class CheckDef(Frozen):
    __slots__ = ("id", "description", "claim", "run", "flagged")

    def __init__(
        self, id: str, description: str, claim: str,
        run: Callable[[CheckContext], tuple[bool, str, object | None]], flagged: bool = False,
    ) -> None:
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "claim", claim)
        object.__setattr__(self, "run", run)
        object.__setattr__(self, "flagged", flagged)


_REGISTERED: dict[str, CheckDef] = {}


def check(id: str, description: str, claim: str, flagged: bool = False):
    """Register the decorated body as the check ``id``; ids must be unique."""

    def register(body):
        if id in _REGISTERED:
            raise ValueError(f"duplicate check id {id!r}")
        _REGISTERED[id] = CheckDef(id, description, claim, body, flagged)
        return body

    return register


def check_pairs(id: str, description: str, claim: str):
    """Register a ``(ctx, i, j)`` body once per index pair.

    ``{i}`` and ``{j}`` in the id and the description name the pair.
    """

    def register(body):
        for i, j in INDEX_PAIRS:
            check(id.format(i=i, j=j), description.format(i=i, j=j), claim)(
                partial(body, i=i, j=j)
            )
        return body

    return register


class CheckContext:
    """Objects shared by the checks of one run, each built lazily once per run."""

    def __init__(self) -> None:
        self._pencils: dict[tuple[int, int], fib_mod.Fibration] = {}
        self._covers: dict[tuple[int, int], fib_mod.Fibration] = {}

    def _pencil(self, i: int, j: int) -> fib_mod.Fibration:
        """The pencil through the (i, j) double point, built once per context."""
        if (i, j) not in self._pencils:
            self._pencils[i, j] = fib_mod.build_fibration(self.model, i, j)
        return self._pencils[i, j]

    def _cover(self, pencil: fib_mod.Fibration) -> fib_mod.Fibration:
        """A pencil on the double cover branched along its pair's even eight,
        built once per context."""
        pair = pencil.pair
        if pair not in self._covers:
            self._covers[pair] = fib_mod.transform_double_cover(pencil, even_eight(*pair), self.model)
        return self._covers[pair]

    @cached_property
    def model(self) -> JacobianKummerNS:
        return jacobian_kummer_ns()

    @cached_property
    def eights(self) -> tuple[NodeSet, ...]:
        return self.model.even_eights()

    @cached_property
    def code(self) -> BinaryCode:
        return code_from_even_sets(self.model.even_sets)

    @cached_property
    def roots(self) -> tuple[RationalVector, ...]:
        return nik_mod.roots(nik_mod.nikulin_lattice())

    @cached_property
    def fibration(self) -> fib_mod.Fibration:
        return self._pencil(1, 2)

    @cached_property
    def transformed(self) -> fib_mod.Fibration:
        # the pencil comes through `fibration`, so its build is timed there
        return self._cover(self.fibration)

    @cached_property
    def sixteen(self) -> tuple[list[str], dict[str, object]]:
        return covers.sixteen_curves_on_X()


def _labels(sets) -> list[list[str]]:
    return [list(s.labels()) for s in sets]


def _four_sections(f: fib_mod.Fibration, model: JacobianKummerNS) -> bool:
    """The pencil has four sections, each meeting the fiber class once."""
    return len(f.sections) == 4 and all(f.pairings[s] == model.curve_table.scale for s in f.sections)


# ---------------------------------------------------------------------------
# check bodies
# ---------------------------------------------------------------------------


@check(
    "even_sets.count30",
    "census the weight-8 results of the exhaustive even-set scan",
    "the sixteen nodes admit exactly thirty even eights",
)
def _count30(ctx: CheckContext):
    count = len(ctx.eights)
    return count == 30, f"{count} even eights among the sixteen nodes", {"count": count}


@check(
    "even_sets.census",
    "scan all 65536 node subsets for half-sum membership in the lattice",
    "even node sets have weight 0, 8 or 16, with counts 1/30/1",
)
def _census(ctx: CheckContext):
    hist: dict[int, int] = {}
    for s in ctx.model.even_sets:
        hist[s.weight] = hist.get(s.weight, 0) + 1
    ok = hist == {0: 1, 8: 30, 16: 1}
    return ok, f"even-set weights over all 65536 subsets: {hist}", {
        "weights": {str(k): v for k, v in sorted(hist.items())}
    }


@check(
    "even_sets.delta15",
    "filter the even eights avoiding E0 and compare with the index-pair family",
    "exactly fifteen even eights avoid E0 and they are the index-pair eights",
)
def _delta15(ctx: CheckContext):
    no_e0 = [s for s in ctx.eights if "E0" not in s]
    deltas = {even_eight(i, j) for i, j in INDEX_PAIRS}
    ok = len(no_e0) == 15 and set(no_e0) == deltas
    return ok, f"{len(no_e0)} even eights avoid E0 and match the index-pair family", {
        "sets": _labels(sorted(no_e0))
    }


@check(
    "code.linear_dim5",
    "take the linear closure of the even-set family over F2",
    "the 32 even sets already form a linear code of dimension 5",
)
def _code_dim(ctx: CheckContext):
    code = ctx.code
    ok = code.dimension == 5 and len(code.codewords) == 32
    return ok, f"even sets form a closed linear code of dimension {code.dimension}", {
        "dimension": code.dimension,
        "codewords": len(code.codewords),
    }


@check(
    "code.weight_enumerator",
    "histogram the codeword weights",
    "weight enumerator 1 + 30 z^8 + z^16",
)
def _code_weights(ctx: CheckContext):
    hist = weight_enumerator(ctx.code)
    ok = hist == {0: 1, 8: 30, 16: 1}
    return ok, f"weight enumerator {hist}", {
        "weights": {str(k): v for k, v in hist.items()}
    }


@check(
    "code.affine_hyperplanes",
    "pairwise-intersect the thirty weight-8 codewords",
    "distinct even eights meet in 0 or 4 nodes and complements are members",
)
def _code_affine(ctx: CheckContext):
    ok = check_affine_hyperplane_family(ctx.eights)
    return ok, "weight-8 words pairwise meet in 0 or 4 nodes, complements included", None


@check(
    "config.sixteen_six",
    "compute the 16x16 trope-node intersection table",
    "a (16,6) configuration: 0/1 entries, all rows and columns sum to 6",
)
def _sixteen_six(ctx: CheckContext):
    table = ctx.model.incidence_matrix()
    zero_one = all(x in (0, 1) for row in table for x in row)
    rows = all(sum(row) == 6 for row in table)
    cols = all(sum(table[r][c] for r in range(16)) == 6 for c in range(16))
    ok = zero_one and rows and cols
    return ok, "each trope meets six nodes and each node meets six tropes", {
        "tropes": list(TROPE_LABELS),
        "nodes": list(NODE_LABELS),
        "matrix": table,
    }


@check(
    "ns.tropes_contained",
    "test lattice membership of every trope class",
    "all sixteen half-integer trope classes lie in the divisor lattice",
)
def _tropes_contained(ctx: CheckContext):
    missing = [
        t for t in TROPE_LABELS if not ctx.model.ns.contains(ctx.model.trope_class(t))
    ]
    return not missing, "all sixteen half-integer trope classes lie in the lattice", {
        "missing": missing
    }


@check(
    "ns.trope_pairings",
    "compute all trope norms and pairwise trope intersections",
    "tropes have norm -2, meet L twice, and are mutually orthogonal",
)
def _trope_pairings(ctx: CheckContext):
    t = ctx.model.curve_table
    tropes = range(t.row_of["C0"], len(t.labels))  # row and column 0 hold L
    norms = all(t.table[a][a] == -2 * t.scale for a in tropes)
    degrees = all(t.table[0][a] == 2 * t.scale for a in tropes)
    orthogonal = all(t.table[a][b] == 0 for a in tropes for b in tropes if a < b)
    ok = norms and degrees and orthogonal
    return ok, "trope norms -2, degree 2 against L, mutually orthogonal", {
        "norms_ok": norms,
        "degrees_ok": degrees,
        "orthogonal": orthogonal,
    }


@check(
    "ns.rank17",
    "reduce the node and trope generators to a Hermite basis",
    "the divisor lattice has rank 17",
)
def _rank17(ctx: CheckContext):
    rank = ctx.model.ns.rank
    gens = len(ctx.model.ns.generators)
    return rank == 17, f"{gens} generators reduce to a rank-{rank} basis", {
        "generators": gens,
        "rank": rank,
    }


@check(
    "ns.discriminant",
    "Smith normal form of the Z-basis Gram matrix",
    "discriminant group of order 64 with invariant factors (2,2,2,2,4)",
)
def _ns_discriminant(ctx: CheckContext):
    group = ctx.model.ns.discriminant_group()
    ok = group.invariant_factors == NS_INVARIANT_FACTORS and group.order == 64
    return ok, f"invariant factors {list(group.invariant_factors)}, order {group.order}", {
        "invariant_factors": list(group.invariant_factors),
        "order": group.order,
    }


@check(
    "alpha.isometry",
    "verify the covering involution of the double-plane model on the lattice",
    "an involutive isometry fixing nodes and ramification tropes",
)
def _alpha(ctx: CheckContext):
    m = ctx.model
    images = m.covering_involution_images()
    isometry = m.ns.is_isometry(images)
    rows = [images[lab] for lab in m.space.labels]
    fixes_nodes = all(images[n] == m.node_class(n) for n in NODE_LABELS[1:])
    fixed_tropes = ["C0"] + [f"C1{j}" for j in range(2, 7)]
    tropes = [m.trope_class(t) for t in TROPE_LABELS]
    mapped, den = m.space.map_rows(rows, [t.nums for t in tropes])
    l, e0 = m.space.index("L"), m.space.index("E0")
    fixed, moved = [], []
    for label, t, row in zip(TROPE_LABELS, tropes, mapped):
        target = [den * x for x in t.nums]
        if label in fixed_tropes:
            fixed.append(row == target)
        else:
            target[l] += den * t.den
            target[e0] -= 2 * den * t.den
            moved.append(row == target)
    fixes_tropes, moves_tropes = all(fixed), all(moved)
    # alpha is linear and fixes E12..E56.  Fixing C0 = (L - E0 - E12 - ... - E16)/2
    # gives alpha(L - E0) = L - E0; moving the conic trope C23 = (L - six E_jk)/2
    # by L - 2E0 gives alpha(L) = 3L - 4E0, so alpha(E0) = 2L - 3E0.  Then
    # alpha^2(L) = 3(3L - 4E0) - 4(2L - 3E0) = L and
    # alpha^2(E0) = 2(3L - 4E0) - 3(2L - 3E0) = E0, so those premises are the
    # involution: fixed[0] is C0 and moved[0] is C23
    involution = fixes_nodes and fixed[0] and moved[0]
    ok = isometry and involution and fixes_nodes and fixes_tropes and moves_tropes
    return ok, "covering involution is an involutive isometry with the stated action", {
        "isometry": isometry,
        "involution": involution,
        "fixes_nodes": fixes_nodes,
        "fixes_ramification_tropes": fixes_tropes,
        "translates_conic_tropes": moves_tropes,
    }


@check_pairs(
    "delta.identity.{i}{j}",
    "expand the trope identity for the ({i},{j}) even eight",
    "the even eight is cut out by two tropes, L - E0 and one node",
)
def _delta_identity(ctx: CheckContext, i: int, j: int):
    ok = ctx.model.even_eight_identity(i, j)
    return ok, f"node sum of the ({i},{j}) even eight equals 2(L-E0) - 2C_1{i} - 2C_1{j} - 2E_{i}{j}", None


@check(
    "containment.quadruple_1324",
    "scan the even eights containing E13, E14, E23, E24",
    "among E0-avoiding even eights, exactly the (1,2) and (3,4) eights",
)
def _containment_1324(ctx: CheckContext):
    query = NodeSet.from_labels(["E13", "E14", "E23", "E24"])
    matches = ctx.model.even_eights_containing(query)
    restricted = {s for s in matches if "E0" not in s}
    expected = {even_eight(1, 2), even_eight(3, 4)}
    ok = restricted == expected
    return ok, "E0-avoiding even eights through E13,E14,E23,E24 are exactly the (1,2) and (3,4) eights", {
        "all_matches": _labels(sorted(matches)),
        "restricted_matches": _labels(sorted(restricted)),
    }


@check(
    "containment.quadruple_1235",
    "scan the even eights containing E12, E23, E15, E35",
    "exactly two E0-avoiding even eights, one of them the (2,5) eight",
)
def _containment_1235(ctx: CheckContext):
    query = NodeSet.from_labels(["E12", "E23", "E15", "E35"])
    matches = ctx.model.even_eights_containing(query)
    restricted = sorted(s for s in matches if "E0" not in s)
    ok = len(restricted) == 2 and even_eight(2, 5) in restricted
    return ok, "exactly two E0-avoiding even eights contain E12,E23,E15,E35; one is the (2,5) eight", {
        "all_matches": _labels(sorted(matches)),
        "restricted_matches": _labels(restricted),
    }


@check(
    "ns.disc_elements",
    "test two half-sums of four nodes against lattice and dual lattice",
    "two independent order-2 classes in the discriminant group",
)
def _disc_elements(ctx: CheckContext):
    ok = ctx.model.independent_discriminant_elements()
    return ok, "both half-sums of four nodes are dual-lattice classes, independent modulo the lattice", None


@check(
    "nikulin.roots16",
    "enumerate all norm -2 vectors of the rank-8 half-sum lattice",
    "the only norm -2 classes are the sixteen signed basis vectors",
)
def _nik_roots(ctx: CheckContext):
    n = nik_mod.nikulin_lattice()
    found = ctx.roots
    expected = set()
    for lab in n.space.labels:
        v = n.space.basis_vector(lab)
        expected |= {v, -v}
    ok = len(found) == 16 and set(found) == expected
    return ok, f"norm -2 enumeration returns {len(found)} vectors, {'the' if ok else 'not the'} signed basis", {
        "count": len(found)
    }


@check(
    "nikulin.eps1_none",
    "enumerate the half-integer branch of the root search",
    "no norm -2 vector involves the half-sum generator",
)
def _nik_eps1(ctx: CheckContext):
    count = sum(1 for v in ctx.roots if not v.is_integral)
    return count == 0, "the half-integer branch of the enumeration is empty", {
        "count": count
    }


@check(
    "nikulin.disc64",
    "Smith normal form of the canonical rank-8 Gram matrix",
    "discriminant group of order 2^6",
)
def _nik_disc(ctx: CheckContext):
    group = nik_mod.nikulin_lattice().lattice.discriminant_group()
    ok = group.invariant_factors == NIKULIN_INVARIANT_FACTORS and group.order == 64
    return ok, f"discriminant group of order {group.order} with factors {list(group.invariant_factors)}", {
        "invariant_factors": list(group.invariant_factors),
        "order": group.order,
    }


@check(
    "nikulin.even_negdef",
    "check parity and definiteness of the rank-8 lattice",
    "an even negative-definite lattice whose half-sum has norm -4",
)
def _nik_shape(ctx: CheckContext):
    n = nik_mod.nikulin_lattice()
    even = n.lattice.is_even()
    negdef = n.lattice.is_negative_definite()
    [[norm]], scale = n.space.gram([n.halfsum])
    halfsum_norm = _quotient(norm, scale)
    ok = even and negdef and halfsum_norm == -4 and n.lattice.rank == 8
    shape = f"{'' if even else 'not '}even, {'' if negdef else 'not '}negative definite"
    return ok, f"rank {n.lattice.rank}, {shape}, half-sum of norm {halfsum_norm}", {
        "even": even,
        "negative_definite": negdef,
        "halfsum_norm": halfsum_norm if type(halfsum_norm) is int else str(halfsum_norm),
    }


@check_pairs(
    "nikulin.saturation.{i}{j}",
    "saturate the ({i},{j}) even eight inside the divisor lattice",
    "index-2 saturation generated by the nodes and their half-sum",
)
def _nik_saturation(ctx: CheckContext, i: int, j: int):
    index, gram_ok = nik_mod.saturation(even_eight(i, j), ctx.model)
    ok = index == 2 and gram_ok
    gram = "matches" if gram_ok else "differs from"
    return ok, f"({i},{j}) eight saturates with index {index}; Gram {gram} the abstract lattice", {
        "index": index,
        "gram_matches": gram_ok,
    }


@check(
    "fibration.F2zero",
    "square the fiber class L - E0 - E12",
    "the fiber class is isotropic",
)
def _fib_f2(ctx: CheckContext):
    [[norm]], scale = ctx.model.space.gram([ctx.fibration.fiber_class])
    norm = _quotient(norm, scale)
    return norm == 0, f"fiber class self-intersection {norm}", None


@check(
    "fibration.sections4",
    "pair the four trope sections with the fiber class",
    "four sections each meeting a fiber once",
)
def _fib_sections(ctx: CheckContext):
    ok = _four_sections(ctx.fibration, ctx.model)
    return ok, "four trope sections each meet the fiber class once", {
        "count": len(ctx.fibration.sections)
    }


@check(
    "fibration.classify",
    "classify all eight fibers from their component dual graphs",
    "two star fibers and six two-component fibers",
)
def _fib_classify(ctx: CheckContext):
    types = [f.kodaira_type for f in ctx.fibration.fibers]
    ok = types[:2] == ["I0*", "I0*"] and types[2:] == ["I2"] * 6
    return ok, f"fiber types {types}", {"types": types}


@check(
    "fibration.eulersum24",
    "sum the Euler numbers of the singular fibers",
    "2*6 + 6*2 = 24, the Euler number of a K3 surface",
)
def _fib_euler(ctx: CheckContext):
    total = ctx.fibration.euler
    return total == 24, f"2*6 + 6*2 = {total}", {"euler_sum": total}


@check(
    "fibration.delta12_identity",
    "compare the even eight with F1 + F2 minus twice the central tropes",
    "the even eight is the multiplicity-one locus of the two star fibers",
)
def _fib_identity(ctx: CheckContext):
    ok = fib_mod.even_eight_from_fibers(ctx.fibration, ctx.model)
    return ok, "the even eight equals F1 + F2 - 2*(central tropes), components matching", None


@check(
    "fibration.cover12I2",
    "transform the fibration through the branched double cover",
    "exactly twelve two-component fibers upstairs, Euler sum still 24",
)
def _fib_cover(ctx: CheckContext):
    out = ctx.transformed
    i2 = sum(1 for f in out.fibers if f.kodaira_type == "I2")
    smooth = sum(1 for f in out.fibers if f.kodaira_type == "smooth")
    total = out.euler
    ok = i2 == 12 and smooth == 2 and total == 24 and len(out.sections) == 4
    return ok, f"cover fibration has {i2} two-component fibers, Euler sum {total}", {
        "i2_fibers": i2,
        "smooth_from_stars": smooth,
        "euler_sum": total,
        "sections": len(out.sections),
    }


@check_pairs(
    "fibration.sweep.{i}{j}",
    "run the full fibration pipeline for the ({i},{j}) pencil",
    "every index pair yields the same fiber and cover bookkeeping",
)
def _fib_sweep(ctx: CheckContext, i: int, j: int):
    f = ctx._pencil(i, j)
    out = ctx._cover(f)
    i2 = sum(1 for x in out.fibers if x.kodaira_type == "I2")
    failed = [name for name, ok in (
        (f"Euler sum {f.euler}", f.euler == 24),
        ("even eight", fib_mod.even_eight_from_fibers(f, ctx.model)),
        ("sections", _four_sections(f, ctx.model)),
        (f"{i2} I2 fibers and Euler sum {out.euler} on the cover", i2 == 12 and out.euler == 24),
    ) if not ok]
    verdict = "fails on the " + ", the ".join(failed) if failed else "passes all fibration checks"
    return not failed, f"pencil through the ({i},{j}) point {verdict}", {"i2_fibers_on_cover": i2}


@check(
    "cover.eT10",
    "Euler number of the double cover branched along the quartic lines",
    "e = 2*9 - 4*2 = 10",
)
def _cover_e10(ctx: CheckContext):
    t = covers.build_quartic_cover()
    return t.euler == 10, f"Euler number of the quartic double cover is {t.euler}", {
        "euler": t.euler
    }


@check(
    "cover.kT2",
    "canonical square and hyperplane square on the quartic cover",
    "K^2 = 2 and the pulled-back hyperplane has square 2",
)
def _cover_k2(ctx: CheckContext):
    t = covers.build_quartic_cover()
    h_sq = t.pairing("H", "H")
    ok = t.k_squared == 2 and h_sq == 2
    return ok, f"K^2 = {t.k_squared} and pulled-back hyperplane square {h_sq}", {
        "k_squared": t.k_squared,
        "h_squared": h_sq,
    }


@check(
    "cover.chi1",
    "evaluate the Noether quotient on the quartic cover",
    "holomorphic Euler characteristic 1",
)
def _cover_chi(ctx: CheckContext):
    chi = covers.noether_chi(covers.build_quartic_cover())
    return chi == 1, f"(K^2 + e)/12 = {chi}", {"chi": str(chi)}


@check(
    "cover.weak_dp2",
    "compare invariants against a seven-point blowup of the plane",
    "a degree-two weak del Pezzo surface",
)
def _cover_dp2(ctx: CheckContext):
    defects = covers.weak_del_pezzo_defects(covers.build_quartic_cover())
    failed = f"not a degree-two weak del Pezzo surface: {'; '.join(defects)}"
    passed = "invariants match a plane blown up at seven points (9-7=2, 3+7=10)"
    return not defects, failed if defects else passed, None


@check(
    "cover.curve_table",
    "check the declared curve table against the pullback aggregates",
    "all three aggregate identities equal 8",
)
def _cover_table(ctx: CheckContext):
    table = covers.curve_table_T()
    paper = {"E1.E1": 2, "E2.E2": 2, "E1.E2": 2, "W1.W1": 0, "W2.W2": 0, "W1.W2": 4, "W1.E2": 2, "W2.E1": 2,
             "W1.E1+W2.E2": 4, "branch_points_on_l1": 4, "E1.euler": 0}
    detail = "declared curve table satisfies all three pullback aggregates (= 8)"
    if table != paper:
        wrong = ", ".join(f"{k} = {v}" for k, v in table.items() if paper.get(k) != v)
        detail = f"curve table on the quartic cover differs from the paper at {wrong}"
    return table == paper, detail, {"table": table}


@check(
    "cover.X_euler24",
    "Euler number of the genus-1 branched cover",
    "e = 2*12 - 0 = 24",
)
def _cover_x_euler(ctx: CheckContext):
    x = covers.build_final_cover()
    return x.euler == 24, f"Euler number of the final cover is {x.euler}", {
        "euler": x.euler
    }


@check(
    "cover.X_canonical",
    "canonical class of the final cover",
    "numerically trivial canonical class",
)
def _cover_x_canonical(ctx: CheckContext):
    x = covers.build_final_cover()
    # K = 0 gives K^2 = 0, so the square is not compared
    meets = ", ".join(name for name, k in zip(x.curves, x.k_row) if k) or "no curve"
    failed = f"not zero: K^2 = {x.k_squared}, K.C != 0 on {meets}"
    ok = x.canonical.is_zero()
    return ok, f"canonical class of the final cover is {'numerically trivial' if ok else failed}", None


@check(
    "cover.X_chi2",
    "evaluate the Noether quotient on the final cover",
    "holomorphic Euler characteristic 2",
)
def _cover_x_chi(ctx: CheckContext):
    chi = covers.noether_chi(covers.build_final_cover())
    return chi == 2, f"(K^2 + e)/12 = {chi}", {"chi": str(chi)}


@check(
    "cover.X_sixteen",
    "inventory the disjoint rational curves on the final cover",
    "sixteen disjoint rational curves: 12 + 2 + 2",
)
def _cover_sixteen(ctx: CheckContext):
    sixteen, inv = ctx.sixteen
    total, split = inv["total"], inv["split_preimages_of_exceptional"]
    exceptional, conic = inv["exceptional_of_cover"], inv["split_conic_pieces_used"]
    defects = covers.sixteen_defects(sixteen)
    ok = total == 16 and split == 12 and exceptional == 2 and not defects
    count = "sixteen" if total == 16 else total
    detail = f"{count} disjoint rational curves: {split} split + {exceptional} exceptional + {conic} conic pieces"
    if defects:
        detail += f"; Gram not -2 I at {', '.join(defects)}"
    return ok, detail, inv


@check(
    "cover.incidence_sextic",
    "count the incidences of the six-line-plus-conic configuration",
    "15 double points, 5 per line, 6 quartic singular points, degree 6 = 4 + 2",
)
def _cover_incidence(ctx: CheckContext):
    inc = covers.sextic_incidence()
    ok = inc == {
        "double_points": 15,
        "points_per_line": [5] * 6,
        "quartic_singular_points": 6,
        "degrees": {"sextic": 6, "quartic": 4, "residual_conic": 2},
    }
    per_line, d = "/".join(map(str, sorted(set(inc["points_per_line"])))), inc["degrees"]
    return ok, (
        f"{inc['double_points']} double points, {per_line} per line, "
        f"{inc['quartic_singular_points']} blown for the quartic, "
        f"degrees {d['sextic']} = {d['quartic']} + {d['residual_conic']}"
    ), inc


@check(
    "cross.euler24",
    "compare the transformed fiber Euler sum with the surface Euler number",
    "two independent computations of the Euler number 24 agree",
)
def _cross_euler(ctx: CheckContext):
    fib_total, surf_total = ctx.transformed.euler, covers.build_final_cover().euler
    # the Kummer cover's I2 fibers against those the final cover's own fibration finds
    i2 = sum(1 for f in ctx.transformed.fibers if f.kodaira_type == "I2")
    split = ctx.sixteen[1]["split_preimages_of_exceptional"]
    ok = fib_total == surf_total == 24 and i2 == split
    verb = "agrees with" if fib_total == surf_total else "differs from"
    detail = f"fiber Euler sum {fib_total} {verb} the surface Euler number {surf_total}"
    if i2 != split:
        detail += f"; {i2} I2 fibers against {split} split exceptional curves"
    return ok, detail, {"fibration": fib_total, "surface": surf_total}


@check(
    "polarization.type12",
    "pull a principal polarization back along a degree-2 isogeny",
    "type (1,1) becomes type (1,2)",
)
def _polarization(ctx: CheckContext):
    main = isogeny_polarization_type((1, 1), 2)
    identity = isogeny_polarization_type((1, 1), 1)
    doubled = isogeny_polarization_type((1, 2), 2)
    ok = main == (1, 2) and identity == (1, 1) and doubled == (1, 4)
    return ok, f"(1,1) pulls back to {main} along a degree-2 isogeny", {
        "degree2": list(main),
        "degree1": list(identity),
        "type12_degree2": list(doubled),
    }


# ---------------------------------------------------------------------------
# flagged open questions
# ---------------------------------------------------------------------------


@check(
    "oq.relation3_index_range",
    "record the index convention for the conic tropes",
    "trope indexing follows the ten (3,3)-partitions",
    flagged=True,
)
def _flag_relation3(ctx: CheckContext):
    return True, (
        "trope classes C_jk are indexed by the ten (3,3)-partitions of {1..6}, "
        "i.e. pairs 2 <= j < k <= 6; a stray index bound in the source relation "
        "is normalized to this convention"
    ), None


@check(
    "oq.containment_full_answers",
    "record the full even-eight containment answer sets",
    "each quadruple query has one extra match containing E0",
    flagged=True,
)
def _flag_containment(ctx: CheckContext):
    q1 = NodeSet.from_labels(["E13", "E14", "E23", "E24"])
    q2 = NodeSet.from_labels(["E12", "E23", "E15", "E35"])
    return True, (
        "the containment claims hold among E0-avoiding even eights; the full "
        "census adds one complement-type eight containing E0 to each answer"
    ), {
        "quadruple_1324_full": _labels(sorted(ctx.model.even_eights_containing(q1))),
        "quadruple_1235_full": _labels(sorted(ctx.model.even_eights_containing(q2))),
    }


@check(
    "oq.nikulin_effectivity",
    "record the scope of the root enumeration",
    "effectivity of norm -2 classes is outside the lattice model",
    flagged=True,
)
def _flag_effectivity(ctx: CheckContext):
    return True, (
        "the root enumeration covers all norm -2 lattice vectors; whether a "
        "class is represented by an actual curve is not decidable in the "
        "lattice model"
    ), None


@check(
    "oq.pencil_base_points",
    "record where the genus-1 pencil becomes base-point free",
    "the pencil has square 2 before and 0 after the two blowups",
    flagged=True,
)
def _flag_pencil(ctx: CheckContext):
    return True, (
        "the genus-1 class on the quartic cover has self-intersection 2, a "
        "pencil with base points; the fibration bookkeeping is recorded on "
        "the blown-up cover where its square is 0"
    ), None


@check(
    "oq.blowdown_sequence",
    "record the unverified part of the del Pezzo blowdown",
    "only the numerical consequences of seven blowdowns are checked",
    flagged=True,
)
def _flag_blowdown(ctx: CheckContext):
    return True, (
        "the seven-curve blowdown sequence of the degree-two surface is not "
        "determined by the recorded data; only the invariant arithmetic "
        "9 - 7 = 2 and 3 + 7 = 10 is checked"
    ), None


@check(
    "oq.we_diagonal",
    "record the undetermined diagonal of the curve table",
    "only the diagonal sum 4 is forced by pullback consistency",
    flagged=True,
)
def _flag_we_diagonal(ctx: CheckContext):
    return True, (
        "individual diagonal pairings of the conic and line preimages are "
        "undeclared; aggregate consistency forces their sum to 4 and nothing "
        "more"
    ), {"forced_diagonal_sum": 4}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

REGISTRY: tuple[CheckDef, ...] = tuple(d for _, d in sorted(_REGISTERED.items()))


def list_checks() -> list[tuple[str, str, str]]:
    """(id, description, claim) for every registered check, in id order."""
    return [(d.id, d.description, d.claim) for d in REGISTRY]


def run_check(check: CheckDef, ctx: CheckContext) -> CheckResult:
    try:
        ok, detail, data = check.run(ctx)
    except Exception as exc:  # a crashed check is a failed check
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        detail = f"error: {type(exc).__name__} in {tb.tb_frame.f_code.co_name}: {exc}"
        return CheckResult(check.id, FAIL, detail, None)
    if check.flagged:
        return CheckResult(check.id, FLAGGED, detail, data)
    return CheckResult(check.id, PASS if ok else FAIL, detail, data)


def run_checks(ids: list[str] | None = None) -> list[CheckResult]:
    """Run the selected checks (all when ids is None) in id order.

    Raises ValueError when an id names no registered check.
    """
    selected = REGISTRY
    if ids is not None:
        chosen = set(ids)
        unknown = chosen.difference(d.id for d in REGISTRY)
        if unknown:
            raise ValueError(f"unknown check ids: {sorted(unknown)}")
        selected = [d for d in REGISTRY if d.id in chosen]
    ctx = CheckContext()
    return [run_check(d, ctx) for d in selected]
