import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummerlab import __version__, checks, cli, covers, fibration, kummer_ns, lattice, nikulin
from kummerlab.checks import (
    FAIL,
    PASS,
    REGISTRY,
    CheckContext,
    CheckDef,
    CheckResult,
    check,
    list_checks,
    run_check,
    run_checks,
)
from kummerlab.cli import Report, _quote, build_report, main, render_check_list, render_json, select_ids
from kummerlab.labels import INDEX_PAIRS, TROPE_LABELS
from kummerlab.kummer_ns import even_eight, jacobian_kummer_ns
from kummerlab.lattice import QuadraticSpace, RationalVector, SublatticeModel

# outputs captured before any change to the package; the stdout fixed points
GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"


def dumped(report: Report) -> str:
    """The report as the standard library writes it: the oracle of render_json."""
    payload = {
        "version": report.version,
        "checks": [
            {"id": r.id, "status": r.status, "detail": r.detail, "data": r.data}
            for r in report.checks
        ],
        "summary": report.summary,
    }
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


class TestRegistry:
    def test_ids_unique_and_sorted(self):
        ids = [d.id for d in REGISTRY]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_registry_size(self):
        assert len(REGISTRY) >= 30

    def test_pinned_identifiers_present(self):
        ids = {d.id for d in REGISTRY}
        pinned = {
            "even_sets.count30",
            "config.sixteen_six",
            "alpha.isometry",
            "containment.quadruple_1324",
            "nikulin.roots16",
            "nikulin.disc64",
            "fibration.F2zero",
            "fibration.eulersum24",
            "fibration.delta12_identity",
            "fibration.cover12I2",
            "cover.eT10",
            "cover.kT2",
            "cover.chi1",
            "cover.weak_dp2",
            "cover.X_euler24",
            "cover.X_sixteen",
        }
        assert pinned <= ids
        assert "delta.identity.12" in ids and "delta.identity.56" in ids
        assert "nikulin.saturation.12" in ids and "nikulin.saturation.56" in ids
        assert "fibration.sweep.12" in ids and "fibration.sweep.56" in ids

    def test_list_checks_entries(self):
        rows = list_checks()
        assert len(rows) == len(REGISTRY)
        for check_id, description, claim in rows:
            assert check_id and description and claim

    def test_duplicate_id_raises_at_registration(self):
        original = next(d for d in REGISTRY if d.id == "ns.rank17")

        def body(ctx):
            return True, "", None

        with pytest.raises(ValueError, match="ns.rank17"):
            check("ns.rank17", "another description", "another claim")(body)
        assert checks._REGISTERED["ns.rank17"] is original


class TestRunChecks:
    def test_all_pass_or_flagged(self):
        results = run_checks()
        statuses = {r.status for r in results}
        assert statuses <= {"pass", "flagged"}

    def test_flagged_are_open_questions(self):
        results = run_checks()
        for r in results:
            if r.id.startswith("oq."):
                assert r.status == "flagged"
            else:
                assert r.status == "pass"

    def test_selection_filter(self):
        results = run_checks(select_ids(["nikulin.*"]))
        assert results
        assert all(r.id.startswith("nikulin.") for r in results)

    def test_unknown_pattern_raises(self):
        with pytest.raises(ValueError):
            select_ids(["no.such.check"])

    def test_unknown_id_raises(self):
        with pytest.raises(ValueError, match="no.such"):
            run_checks(["no.such", "ns.rank17"])
        assert [r.id for r in run_checks(["ns.rank17"])] == ["ns.rank17"]

    def test_passing_details(self):
        # a failing detail says what broke; a passing one states the claim
        assert {r.id: r.detail for r in run_checks(list(PASSING_DETAILS))} == PASSING_DETAILS

    @pytest.mark.parametrize("flagged", [False, True])
    def test_raising_body_fails(self, flagged):
        def body(ctx):
            raise ZeroDivisionError("boom")

        result = run_check(CheckDef("x.raises", "d", "c", body, flagged), CheckContext())
        assert result.status == FAIL
        assert result.detail == "error: ZeroDivisionError in body: boom"
        assert result.data is None

    def test_code_built_once_per_run(self, monkeypatch):
        calls = []
        original = checks.code_from_even_sets

        def counted(evens):
            calls.append(1)
            return original(evens)

        monkeypatch.setattr(checks, "code_from_even_sets", counted)
        run_checks()
        assert len(calls) == 1
        run_checks(["code.linear_dim5", "code.weight_enumerator"])
        assert len(calls) == 2

    def test_each_pencil_built_once_per_run(self, monkeypatch):
        built, transformed = [], []
        build, transform = fibration.build_fibration, fibration.transform_double_cover

        def counted_build(model, i, j):
            built.append((i, j))
            return build(model, i, j)

        def counted_transform(fib, branch, model):
            transformed.append(fib.pair)
            return transform(fib, branch, model)

        monkeypatch.setattr(fibration, "build_fibration", counted_build)
        monkeypatch.setattr(fibration, "transform_double_cover", counted_transform)
        run_checks()
        assert sorted(built) == sorted(transformed) == sorted(INDEX_PAIRS)

    def test_sweeps_build_one_vector_per_pencil(self, monkeypatch):
        sweeps = sorted(f"fibration.sweep.{i}{j}" for i, j in INDEX_PAIRS)
        run_checks(sweeps)  # the model, its curve table and even sets exist
        built = []
        original = RationalVector.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(RationalVector, "__init__", counted)
        results = run_checks(sweeps)
        # each pencil builds its fiber class and nothing else as a vector
        assert [r.status for r in results] == [PASS] * 15
        assert len(built) == 15

    def test_gram_budget_per_run(self, monkeypatch):
        run_checks()  # the model's curve table and the cached surfaces exist
        calls = []
        original = QuadraticSpace.gram

        def counted(self, vectors):
            calls.append(len(vectors))
            return original(self, vectors)

        monkeypatch.setattr(QuadraticSpace, "gram", counted)
        run_checks()
        # the pencils, the saturations, the cover tables and the six-line
        # incidences read curve tables, and cover.weak_dp2 reads K's row,
        # taken with the quartic cover's curve table; the Grams left are the
        # isometry's form check on the 17 images and the norms, as integers
        # over one scale: the fiber class of fibration.F2zero, the half-sum
        # of nikulin.even_negdef and the 16 roots of the root search
        assert sorted(calls) == [1, 1, 16, 17]

    def test_vectors_per_run(self, monkeypatch):
        run_checks()  # the model, its curve table and the cached surfaces exist
        built = []
        original = RationalVector.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(RationalVector, "__init__", counted)
        run_checks()
        # the sixteen curves are read off the final cover's curve table, so
        # the branch E1 + E2 is not summed as a vector, and the cover
        # tables read the surfaces' curve tables, so the quartic branch is not
        # rebuilt; the even-eight identities read the model's curve table, so
        # they sum no vectors; what is left are the 15 fiber classes, the 16
        # roots and the three half-sums of ns.disc_elements, since a negated
        # root and the involution's images keep their normal form and skip
        # the checked constructor
        assert len(built) == 34
        built.clear()
        run_checks(["alpha.isometry"])
        # the 17 basis images are built in normal form, and the images of the
        # Z-basis and of the tropes are integer rows, so none is a checked vector
        assert len(built) == 0

    def test_combinations_per_run(self, monkeypatch):
        run_checks()
        calls = []
        original = QuadraticSpace.combination

        def counted(self, coeffs, vectors):
            calls.append(len(vectors))
            return original(self, coeffs, vectors)

        monkeypatch.setattr(QuadraticSpace, "combination", counted)
        run_checks()
        # the 15 fiber classes; the even-eight identities read the curve table
        assert sorted(calls) == [3] * 15

    def test_euler_numbers_looked_up_once(self, monkeypatch):
        lookups, sums = [], []
        lookup, init = fibration.kodaira_euler, fibration.Fibration.__init__

        def counted_lookup(tag):
            lookups.append(tag)
            return lookup(tag)

        def counted_init(self, *args, **kwargs):
            sums.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(fibration, "kodaira_euler", counted_lookup)
        monkeypatch.setattr(fibration.Fibration, "__init__", counted_init)
        run_checks()
        # one lookup per fiber built (eight per pencil, two smooth ones per
        # cover, and the twelve I2 fibers of the final cover's own fibration
        # that name the sixteen curves, once per run for cover.X_sixteen and
        # cross.euler24) and one sum per pencil and per cover
        assert len(lookups) == 15 * (8 + 2) + 12
        assert len(sums) == 2 * 15

    def test_saturation_builds_each_eight_once(self, monkeypatch):
        run_checks(select_ids(["nikulin.saturation.*"]))  # the curve table exists
        calls = []

        def record(cls, name):
            original = getattr(cls, name)

            def counted(self, *args):
                calls.append(name)
                return original(self, *args)

            monkeypatch.setattr(cls, name, counted)

        record(kummer_ns.JacobianKummerNS, "node_class")
        record(kummer_ns.JacobianKummerNS, "half_sum")
        record(QuadraticSpace, "gram")
        record(RationalVector, "__init__")
        record(kummer_ns.CurveTable, "pairings")
        results = run_checks(select_ids(["nikulin.saturation.*"]))
        # each Gram is read off the curve table by the eight's node bits: one
        # sum of its eight rows, and no node class, half-sum, vector or Gram
        assert [r.status for r in results] == [PASS] * 15
        assert calls == ["pairings"] * 15

    def test_saturation_reduces_nothing(self, monkeypatch):
        run_checks(select_ids(["nikulin.saturation.*"]))  # warm: the scan is cached
        hnfs, sections = [], []
        hnf_rows, section = lattice._hnf_rows, lattice.SublatticeModel.coordinate_section

        def counted_hnf(rows, ncols):
            hnfs.append(len(rows))
            return hnf_rows(rows, ncols)

        def counted_section(self, labels):
            sections.append(labels)
            return section(self, labels)

        monkeypatch.setattr(lattice, "_hnf_rows", counted_hnf)
        monkeypatch.setattr(lattice.SublatticeModel, "coordinate_section", counted_section)
        results = run_checks(select_ids(["nikulin.saturation.*"]))
        # each index is a count of the cached even sets, not a reduction
        assert len(results) == 15 and all(r.status == PASS for r in results)
        assert hnfs == [] and sections == []

    def test_section_is_one_hnf(self, monkeypatch):
        calls = []
        original = lattice._hnf_rows

        def counted(rows, ncols):
            calls.append(len(rows))
            return original(rows, ncols)

        ns = jacobian_kummer_ns().ns
        assert ns.rank == 17  # the lattice's own HNF is taken before counting
        monkeypatch.setattr(lattice, "_hnf_rows", counted)
        # the eliminated rows are reduced once; the section is not rebuilt
        assert ns.coordinate_section(even_eight(1, 2).labels()).rank == 8
        assert calls == [8]

    def test_vector_comparisons_per_run(self, monkeypatch):
        calls = []
        original = RationalVector.__eq__

        def counted(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(RationalVector, "__eq__", counted)
        run_checks()
        # the transforms test branch membership in a set, not a list of nodes
        assert len(calls) <= 200

    def test_roots_enumerated_once_per_run(self, monkeypatch):
        calls = []
        original = checks.nik_mod.roots

        def counted(n):
            calls.append(1)
            return original(n)

        monkeypatch.setattr(checks.nik_mod, "roots", counted)
        run_checks(["nikulin.eps1_none", "nikulin.roots16"])
        assert len(calls) == 1


SWEEPS = {f"fibration.sweep.{i}{j}" for i, j in INDEX_PAIRS}


def shift_incidence(monkeypatch):
    """Read each branch node's incidence at the next row of the curve table."""
    original = fibration._meets

    def shifted(t, fib, x, rows, mask):
        return original(t, fib, x, [y + 1 for y in rows], mask << 1)

    monkeypatch.setattr(fibration, "_meets", shifted)


def branch_13_for_pencil_12(monkeypatch):
    """Cover the (1,2) pencil branched along the (1,3) eight."""
    original = fibration.transform_double_cover

    def branch_13(fib, branch, model):
        if fib.pair == (1, 2):
            branch = even_eight(1, 3)
        return original(fib, branch, model)

    monkeypatch.setattr(fibration, "transform_double_cover", branch_13)


def drop_e56_from_curve_table(monkeypatch):
    """Serve the curve table without the row and column of E56."""
    original = kummer_ns.JacobianKummerNS.curve_table.func

    def without_e56(self):
        t = original(self)
        keep = [k for k, label in enumerate(t.labels) if label != "E56"]
        return kummer_ns.CurveTable(
            tuple(t.labels[k] for k in keep),
            tuple(t.classes[k] for k in keep),
            [[t.table[a][b] for b in keep] for a in keep],
            t.scale,
        )

    monkeypatch.setattr(kummer_ns.JacobianKummerNS, "curve_table", property(without_e56))


def centres_as_sections_of_pencil_12(monkeypatch):
    """List the two star centres of the (1,2) pencil as its first two sections."""
    original = fibration.build_fibration

    def centres_as_sections(model, i, j):
        fib = original(model, i, j)
        if fib.pair != (1, 2):
            return fib
        centres = tuple(x for f in fib.fibers[:2] for x, m in f.components if m == 2)
        sections = centres + fib.sections[2:]
        return fibration.Fibration(fib.pair, fib.fiber_class, fib.fibers, sections, fib.pairings)

    monkeypatch.setattr(fibration, "build_fibration", centres_as_sections)


# the pinned faults that need no cached model or surface rebuilt
SWEEP_FAULTS = (shift_incidence, branch_13_for_pencil_12, drop_e56_from_curve_table, centres_as_sections_of_pencil_12)


# the checks that read a pencil: every pencil holds E56, so all of them fail
# whenever E56 is not a (-2)-class, and so does each saturation whose eight,
# one of E56_EIGHTS, contains E56
E56_EIGHTS = ("15", "16", "25", "26", "35", "36", "45", "46")
E56_PENCIL = SWEEPS | {
    "cross.euler24",
    "fibration.F2zero",
    "fibration.classify",
    "fibration.cover12I2",
    "fibration.delta12_identity",
    "fibration.eulersum24",
    "fibration.sections4",
}
E56_FAILING = E56_PENCIL | {f"nikulin.saturation.{ij}" for ij in E56_EIGHTS} | {
    "config.sixteen_six", "ns.discriminant", "ns.trope_pairings"
}
C0_RAISED = {f"fibration.sweep.{ij}" for ij in ("12", "13", "23")} | {
    "cross.euler24",
    "fibration.F2zero",
    "fibration.classify",
    "fibration.cover12I2",
    "fibration.delta12_identity",
    "fibration.eulersum24",
    "fibration.sections4",
    "ns.discriminant",
}
FINAL_RAISED = {"cover.X_canonical", "cover.X_chi2", "cover.X_euler24", "cover.X_sixteen", "cross.euler24"}
TOWER_RAISED = FINAL_RAISED | {"cover.chi1", "cover.curve_table", "cover.eT10", "cover.kT2", "cover.weak_dp2"}
E56_ISOLATED = {f"fibration.sweep.{ij}" for ij in ("12", "13", "14", "23", "24", "34")}
# the model's lattice of rank 16 fails these by their own comparisons; the
# even-set scan, and all that reads it, raises
HNF_COMPARED = {"alpha.isometry", "ns.discriminant", "ns.rank17", "ns.tropes_contained"}
HNF_RAISED = SWEEPS | {f"nikulin.saturation.{i}{j}" for i, j in INDEX_PAIRS} | {
    "code.affine_hyperplanes",
    "code.linear_dim5",
    "code.weight_enumerator",
    "containment.quadruple_1235",
    "containment.quadruple_1324",
    "cross.euler24",
    "even_sets.census",
    "even_sets.count30",
    "even_sets.delta15",
    "fibration.cover12I2",
    "oq.containment_full_answers",
}

# each pinned fault of TestFaultInjection, by test name: the ids it fails and
# the subset of them that fail through an `error:` detail, not by their own
# comparison; its own test asserts the pair
FAULT_MATRIX = {
    "combination_drops_last_term": ({"fibration.F2zero"}, set()),
    "pairings_drop_last_component": (
        E56_PENCIL | {f"{c}.{i}{j}" for c in ("delta.identity", "nikulin.saturation") for i, j in INDEX_PAIRS},
        E56_PENCIL,
    ),
    "incidence_reads_next_coordinate": (SWEEPS | {"cross.euler24", "fibration.cover12I2"}, set()),
    "node_weight_changed": (E56_FAILING, E56_PENCIL | {"ns.discriminant"}),
    "node_weight_changed_integral": (E56_FAILING, E56_PENCIL),
    "trope_support_altered": (
        SWEEPS | {
            "fibration.cover12I2",
            "fibration.sections4",
            "alpha.isometry",
            "config.sixteen_six",
            "code.affine_hyperplanes",
            "code.linear_dim5",
            "code.weight_enumerator",
            "even_sets.census",
            "even_sets.count30",
            "even_sets.delta15",
            "ns.disc_elements",
            "ns.discriminant",
            "ns.trope_pairings",
        },
        {f"fibration.sweep.{ij}" for ij in ("13", "23", "45", "46", "56")} | {"ns.discriminant"},
    ),
    "covering_involution_sign_flipped": ({"alpha.isometry"}, set()),
    "wrong_branch_for_one_cover": ({"cross.euler24", "fibration.cover12I2", "fibration.sweep.12"}, set()),
    "c0_support_altered": (
        C0_RAISED | {f"fibration.sweep.1{j}" for j in range(4, 7)} | {
            f"delta.identity.1{j}" for j in range(2, 7)
        } | {f"nikulin.saturation.{ij}" for ij in ("13", "24", "25", "26")} | {
            "code.affine_hyperplanes",
            "code.linear_dim5",
            "code.weight_enumerator",
            "config.sixteen_six",
            "even_sets.census",
            "even_sets.count30",
            "even_sets.delta15",
            "ns.disc_elements",
            "ns.trope_pairings",
        },
        C0_RAISED,
    ),
    "g34_blown_up_on_l3_only": (TOWER_RAISED | {"cover.incidence_sextic"}, TOWER_RAISED),
    "g12_blown_up_before_quartic_cover": (
        FINAL_RAISED | {"cover.curve_table", "cover.eT10", "cover.kT2", "cover.weak_dp2"}, FINAL_RAISED
    ),
    "exceptional_curve_dropped_from_blown_cover": ({"cover.X_sixteen", "cross.euler24"}, set()),
    "exceptional_curve_dropped_from_quartic_cover": (
        {"cover.weak_dp2", "cover.X_sixteen", "cross.euler24"}, set()
    ),
    "blown_cover_canonical_class_without_n1": (
        {"cover.X_canonical", "cover.X_chi2", "cover.X_euler24", "cross.euler24"}, set()
    ),
    "w2_pieces_swapped": ({"cover.X_sixteen"}, set()),
    "conic_anti_invariant_square_changed": (
        {"cover.X_sixteen", "cross.euler24", "cover.curve_table"}, {"cover.X_sixteen", "cross.euler24"}
    ),
    "node_dropped_from_curve_table": (
        SWEEPS | {f"{c}.{ij}" for c in ("delta.identity", "nikulin.saturation") for ij in E56_EIGHTS} | {
            "config.sixteen_six",
            "cross.euler24",
            "delta.identity.56",
            "fibration.classify",
            "fibration.cover12I2",
            "fibration.eulersum24",
        },
        SWEEPS - E56_ISOLATED | {"config.sixteen_six", "delta.identity.56"},
    ),
    "star_leaf_moved": (
        {f"fibration.sweep.{ij}" for ij in ("12", "23", "24", "25", "26", "36")} | {
            f"delta.identity.{ij}" for ij in ("12", "23", "24", "25", "26")
        } | {f"nikulin.saturation.{ij}" for ij in ("16", "23", "46", "56")} | {
            "code.affine_hyperplanes",
            "code.linear_dim5",
            "code.weight_enumerator",
            "config.sixteen_six",
            "containment.quadruple_1235",
            "containment.quadruple_1324",
            "cross.euler24",
            "even_sets.census",
            "even_sets.count30",
            "even_sets.delta15",
            "fibration.cover12I2",
            "fibration.delta12_identity",
            "ns.discriminant",
            "ns.trope_pairings",
        },
        {f"fibration.sweep.{ij}" for ij in ("23", "26", "36")} | {"ns.discriminant"},
    ),
    "star_centres_listed_as_sections": ({"fibration.sections4", "fibration.sweep.12"}, set()),
    "branch_euler_number_off_by_two": (
        {
            "cover.chi1",
            "cover.curve_table",
            "cover.eT10",
            "cover.weak_dp2",
            "cover.X_chi2",
            "cover.X_euler24",
            "cross.euler24",
        },
        set(),
    ),
    "c8_weight_changed": (
        {"nikulin.disc64", "nikulin.eps1_none", "nikulin.even_negdef", "nikulin.roots16"}
        | {f"nikulin.saturation.{i}{j}" for i, j in INDEX_PAIRS},
        {"nikulin.disc64", "nikulin.eps1_none", "nikulin.roots16"},
    ),
    "half_sum_generator_dropped": ({"nikulin.disc64"}, set()),
    "root_dropped_from_enumeration": ({"nikulin.roots16"}, set()),
    "hermite_form_drops_last_row": (HNF_COMPARED | HNF_RAISED, HNF_RAISED),
    "trope_class_off_by_half_e12": ({"ns.tropes_contained"}, set()),
}

# the passing details of three checks whose failing details say what broke
PASSING_DETAILS = {
    "ns.tropes_contained": "all sixteen half-integer trope classes lie in the lattice",
    "ns.disc_elements": "both half-sums of four nodes are dual-lattice classes, independent modulo the lattice",
    "code.affine_hyperplanes": "weight-8 words pairwise meet in 0 or 4 nodes, complements included",
}

# the claims that no pinned fault fails by their own comparison, with the reason
FAULT_EXEMPT = {
    "nikulin.eps1_none": "the half-integer branch is empty whatever the weights, since eight odd"
    " squares exceed the budget 4; the c8 fault reaches it only through the enumeration's raise",
    "polarization.type12": "the polarization arithmetic reads no model, surface or lattice",
}


class TestFaultInjection:
    """A fault in one kernel turns exactly the checks that depend on it to FAIL."""

    def results(self):
        report = build_report()
        # a faulty run's report, `error:` details and None data included,
        # renders as the standard library writes it
        assert render_json(report) == dumped(report)
        return {r.id: r for r in report.checks}

    def failing(self, results=None):
        """The failing ids, and the subset of them whose detail starts with
        `error:`: those fail through a raise, not by their own comparison."""
        failed = [r for r in (results or self.results()).values() if r.status == FAIL]
        return {r.id for r in failed}, {r.id for r in failed if r.detail.startswith("error:")}

    def test_combination_drops_last_term(self, monkeypatch):
        # the tower and the model's curve table are built before the patch,
        # whichever test ran first: built under it, double_cover's branch
        # half would drop a quartic line and the quartic cover would raise
        covers.build_final_cover()
        jacobian_kummer_ns().curve_table
        original = QuadraticSpace.combination

        def drop_last(self, coeffs, vectors):
            return original(self, list(coeffs)[:-1], list(vectors)[:-1])

        monkeypatch.setattr(QuadraticSpace, "combination", drop_last)
        # the fiber class loses E_ij, so its square is (L - E0)^2 = 2; the
        # pencils are read off the curve table and sum no vectors, so every
        # other pencil check passes; the even-eight identities read the curve
        # table and the isometry maps integer rows through its images, so
        # neither calls a combination
        assert self.failing() == FAULT_MATRIX["combination_drops_last_term"]

    def test_pairings_drop_last_component(self, monkeypatch):
        jacobian_kummer_ns().curve_table
        original = kummer_ns.CurveTable.pairings
        monkeypatch.setattr(kummer_ns.CurveTable, "pairings", lambda t, comps: original(t, list(comps)[:-1]))
        # each star fiber loses a leaf and no longer sums to F, so every
        # pencil's build raises; each even-eight identity loses 2 E_ij and
        # each saturation a node of the half-sum, and both fail by their own
        # comparisons
        results = self.results()
        assert self.failing(results) == FAULT_MATRIX["pairings_drop_last_component"]
        assert results["nikulin.saturation.12"].detail == (
            "(1,2) eight saturates with index 2; Gram differs from the abstract lattice"
        )

    def test_incidence_reads_next_coordinate(self, monkeypatch):
        shift_incidence(monkeypatch)
        # each branch node is read at the next row of the curve table, so
        # every transform keeps one to six isolated fibers unsplit (6 to 11
        # I2 fibers upstairs) and each cover check fails by its own
        # comparison; the pencils themselves stay intact
        assert self.failing() == FAULT_MATRIX["incidence_reads_next_coordinate"]

    @pytest.fixture
    def fresh_model(self):
        # the faulty model must not stay in the shared cache for other tests
        jacobian_kummer_ns.cache_clear()
        yield
        jacobian_kummer_ns.cache_clear()

    @staticmethod
    def square_e56(monkeypatch, square):
        def heavier_e56(labels, diag):
            labels, diag = tuple(labels), list(diag)
            diag[labels.index("E56")] = square
            return QuadraticSpace(labels, diag)

        monkeypatch.setattr(kummer_ns, "QuadraticSpace", heavier_e56)

    def test_node_weight_changed(self, monkeypatch, fresh_model):
        self.square_e56(monkeypatch, -4)
        # the (16,6) table and trope norms see the -4, the Z-basis Gram is
        # not integral, so ns.discriminant fails through its raise
        results = self.results()
        assert self.failing(results) == FAULT_MATRIX["node_weight_changed"]
        assert results["nikulin.saturation.15"].detail == (
            "(1,5) eight saturates with index 2; Gram differs from the abstract lattice"
        )

    def test_node_weight_changed_integral(self, monkeypatch, fresh_model):
        self.square_e56(monkeypatch, -6)
        # with -6 the Z-basis Gram stays integral, so ns.discriminant
        # reaches its own comparison: invariant factors (2,2,2,2,12)
        results = self.results()
        assert self.failing(results) == FAULT_MATRIX["node_weight_changed_integral"]
        assert results["ns.discriminant"].detail == "invariant factors [2, 2, 2, 2, 12], order 192"
        assert results["ns.discriminant"].data["invariant_factors"] == [2, 2, 2, 2, 12]

    def test_trope_support_altered(self, monkeypatch, fresh_model):
        original = kummer_ns.trope_support

        def e0_for_e12(label):
            support = original(label)
            if label != "C23":
                return support
            return tuple("E0" if node == "E12" else node for node in support)

        monkeypatch.setattr(kummer_ns, "trope_support", e0_for_e12)
        # C23 meets E0 instead of E12: the incidence table, the even sets
        # and their code, the discriminant and the isometry all change; every
        # pencil that C23 meets once discovers it as a fifth ramification
        # section, and the others find E13 or E23 outside a star or an
        # isolated fiber
        results = self.results()
        assert self.failing(results) == FAULT_MATRIX["trope_support_altered"]
        # the (1,2) half-sum now pairs with C23 in a half-integer, and the
        # (2,3) eight holds E0 in place of E12, meeting the (1,3) eight in 7
        assert results["ns.disc_elements"].detail == (
            "1 of five conditions broken: (E12+E23+E15+E35)/2 is not in the dual lattice"
        )
        assert results["code.affine_hyperplanes"].detail == (
            "['E0', 'E14', 'E15', 'E16', 'E23', 'E34', 'E35', 'E36'] and"
            " ['E12', 'E14', 'E15', 'E16', 'E23', 'E34', 'E35', 'E36'] meet in 7 nodes"
        )
        for i in ("ns.disc_elements", "code.affine_hyperplanes"):
            assert results[i].detail != PASSING_DETAILS[i]

    def test_covering_involution_sign_flipped(self, monkeypatch):
        def flipped(self, v):
            a, b, *rest = v.nums
            return RationalVector(self.space, (3 * a + 2 * b, 4 * a - 3 * b, *rest), v.den)

        monkeypatch.setattr(kummer_ns.JacobianKummerNS, "covering_involution", flipped)
        # L -> 3L + 4E0 is neither an isometry nor an involution; no other
        # check applies the involution
        assert self.failing() == FAULT_MATRIX["covering_involution_sign_flipped"]

    def test_wrong_branch_for_one_cover(self, monkeypatch):
        branch_13_for_pencil_12(monkeypatch)
        # the (1,3) eight meets both star fibers of the (1,2) pencil without
        # holding their multiplicity-one components, and meets all six
        # isolated fibers, so the transform keeps every fiber once: 6 I2
        # fibers, not 12, fail both checks by their own comparisons; the two
        # stars kept (+12) and the six fibers not doubled (-12) cancel, so
        # the Euler sum is 24, and cross.euler24 fails on its I2 comparison:
        # 6 fibers against the 12 split exceptional curves of the tower
        results = self.results()
        assert self.failing(results) == FAULT_MATRIX["wrong_branch_for_one_cover"]
        assert results["cross.euler24"].detail == (
            "fiber Euler sum 24 agrees with the surface Euler number 24;"
            " 6 I2 fibers against 12 split exceptional curves"
        )

    def test_c0_support_altered(self, monkeypatch, fresh_model):
        original = kummer_ns.trope_support

        def e23_for_e12(label):
            support = original(label)
            if label != "C0":
                return support
            return tuple("E23" if node == "E12" else node for node in support)

        monkeypatch.setattr(kummer_ns, "trope_support", e23_for_e12)
        # C0 meets E23 for E12: the (1,2) pencil finds one star and the (1,3)
        # and (2,3) pencils non-integral pairings, so those builds raise; the
        # (1,j) pencils for j > 3 build with E23 as a leaf of the C0 star,
        # so their eight and their cover fail by their own comparisons;
        # four eights hold the new even pair {E12, E23} and its complement in
        # them, so those saturations have index 4
        results = self.results()
        saturations = {f"nikulin.saturation.{ij}" for ij in ("13", "24", "25", "26")}
        assert self.failing(results) == FAULT_MATRIX["c0_support_altered"]
        for i in saturations:
            assert results[i].data["index"] == 4 and not results[i].detail.startswith("error:")

    @pytest.fixture
    def fresh_tower(self):
        # the faulty surfaces must not stay in the shared caches for other tests
        tower = (
            covers.blowup_quartic_points,
            covers.build_quartic_cover,
            covers.build_blown_cover,
            covers.build_final_cover,
        )
        for build in tower:
            build.cache_clear()
        yield
        for build in tower:
            build.cache_clear()

    def test_g34_blown_up_on_l3_only(self, monkeypatch, fresh_tower):
        original = covers.blowup

        def l3_only(s, points):
            return original(s, {g: ("l3",) if g == "G34" else through for g, through in points.items()})

        monkeypatch.setattr(covers, "blowup", l3_only)
        # l4 keeps square -1, so the quartic branch is not a set of disjoint
        # (-2)-curves and no cover of the tower builds; the incidence count
        # reads l3.l4 = 1 off the blowup and finds five quartic points
        results = self.results()
        assert self.failing(results) == FAULT_MATRIX["g34_blown_up_on_l3_only"]
        detail = results["cover.incidence_sextic"].detail
        assert detail == "15 double points, 5 per line, 5 blown for the quartic, degrees 6 = 4 + 2"

    def test_g12_blown_up_before_quartic_cover(self, monkeypatch, fresh_tower):
        original = covers.blowup_quartic_points

        def with_g12():
            return covers.blowup(original(), {"G12": ("l1", "l2")})

        monkeypatch.setattr(covers, "blowup_quartic_points", with_g12)
        # a seventh point, l1 ∩ l2, misses the quartic lines, so the quartic
        # cover builds with e = 2*10 - 8 = 12 and K = p*(G12 - H) of square
        # 0, and both fail by their own comparison; chi = (0 + 12)/12 stays 1.
        # The pulled-back hyperplane keeps its square 2, though the strict
        # transform of l1 now has square 0.  l1 and l2 no longer meet, so
        # blowing up N1 and N2 on both gives l1.l2 = -2 and the final cover's
        # branch raises as not disjoint
        results = self.results()
        assert self.failing(results) == FAULT_MATRIX["g12_blown_up_before_quartic_cover"]
        assert results["cover.eT10"].data == {"euler": 12}
        assert results["cover.kT2"].data == {"k_squared": 0, "h_squared": 2}
        assert results["cover.chi1"].status == PASS

    def test_exceptional_curve_dropped_from_blown_cover(self, monkeypatch, fresh_tower):
        original = covers.build_blown_cover

        def without_g56():
            t = original()
            curves = {name: v for name, v in t.curves.items() if name != "G56"}
            return covers.SurfaceModel(t.euler, t.lattice, t.canonical, curves)

        monkeypatch.setattr(covers, "build_blown_cover", without_g56)
        # the final cover splits the five G it tracks, so its fibration finds
        # ten I2 fibers, not twelve: the inventory counts ten split curves and
        # its own comparison fails, as does cross.euler24's against the 12 I2
        # fibers of the Kummer cover; the surfaces' numbers do not read the
        # curve
        results = self.results()
        assert self.failing(results) == FAULT_MATRIX["exceptional_curve_dropped_from_blown_cover"]
        assert results["cover.X_sixteen"].detail == (
            "14 disjoint rational curves: 10 split + 2 exceptional + 2 conic pieces"
        )

    def test_exceptional_curve_dropped_from_quartic_cover(self, monkeypatch, fresh_tower):
        original = covers.build_quartic_cover

        def without_g56():
            t = original()
            curves = {name: v for name, v in t.curves.items() if name != "G56"}
            return covers.SurfaceModel(t.euler, t.lattice, t.canonical, curves)

        monkeypatch.setattr(covers, "build_quartic_cover", without_g56)
        # five curves of the quartic cover are orthogonal to K, not six, and
        # the final cover built on it loses the same two I2 fibers as above
        results = self.results()
        assert self.failing(results) == FAULT_MATRIX["exceptional_curve_dropped_from_quartic_cover"]
        assert results["cover.weak_dp2"].detail == (
            "not a degree-two weak del Pezzo surface: K.C = 0 on G34, G35, G36, G45, G46"
        )

    def test_blown_cover_canonical_class_without_n1(self, monkeypatch, fresh_tower):
        original = covers.build_blown_cover

        def without_n1():
            t = original()
            return covers.SurfaceModel(t.euler, t.lattice, t.canonical - t.pic.basis_vector("N1"), t.curves)

        monkeypatch.setattr(covers, "build_blown_cover", without_n1)
        # K.l1 = K.l2 = -1 makes each branch curve of Euler number 1 by
        # adjunction, so e(X) = 2*12 - 2 = 22, and K_X = -p*N1 has square -2
        results = self.results()
        assert self.failing(results) == FAULT_MATRIX["blown_cover_canonical_class_without_n1"]
        assert results["cover.X_euler24"].data == {"euler": 22}
        assert results["cover.X_chi2"].data == {"chi": "5/3"}
        assert results["cover.X_canonical"].detail == (
            "canonical class of the final cover is not zero: K^2 = -2, K.C != 0 on l1, l2, N1"
        )

    def test_w2_pieces_swapped(self, monkeypatch, fresh_tower):
        original = covers.double_cover

        def swapped(s, branch, split):
            if "W2" in split:
                plus, minus, *along = split["W2"]
                split = {**split, "W2": (minus, plus, *along)}
            return original(s, branch, split)

        monkeypatch.setattr(covers, "double_cover", swapped)
        # taking D2 = +D1 names (p*W2 - D)/2 W''2, which meets W'1 with
        # (8 + 8)/4 = 4, so the sixteen's Gram is not -2 I; the cross sum
        # over all four pieces is still 8
        results = self.results()
        assert self.failing(results) == FAULT_MATRIX["w2_pieces_swapped"]
        assert results["cover.X_sixteen"].data["split_conic_table"]["W'1.W''2"] == 4
        assert results["cover.X_sixteen"].detail == (
            "sixteen disjoint rational curves: 12 split + 2 exceptional + 2 conic pieces"
            "; Gram not -2 I at W'1.W''2 = 4"
        )

    def test_conic_anti_invariant_square_changed(self, monkeypatch, fresh_tower):
        original = covers.double_cover

        def square_1(s, branch, split):
            if "W" in split:
                split = {name: (*entry[:4], -1) for name, entry in split.items()}
            return original(s, branch, split)

        monkeypatch.setattr(covers, "double_cover", square_1)
        # A^2 = -1, for the conic and the diagonals alike, gives W1 = H + A the
        # square 2 - 1 = 1 and W1.W2 = 3, so the derived curve table differs
        # from the paper's by its own comparison; upstairs W'1 = (p*W1 + D)/2
        # has the square (2 - 8)/4, not an integer, so the final cover's
        # inventory raises
        results = self.results()
        assert self.failing(results) == FAULT_MATRIX["conic_anti_invariant_square_changed"]
        assert results["cover.curve_table"].detail == (
            "curve table on the quartic cover differs from the paper at W1.W1 = 1, W2.W2 = 1, W1.W2 = 3"
        )

    def test_node_dropped_from_curve_table(self, monkeypatch):
        drop_e56_from_curve_table(monkeypatch)
        results = self.results()
        # the six pencils in which E56 is an isolated node lose that fiber and
        # fail by their own comparisons; where E56 is a star leaf or E_ij the
        # build raises, and the configuration table cannot be read without it;
        # each even eight holding E56 finds seven node rows, whose Gram with
        # their half-sum is not the abstract one and whose sum misses the
        # identity's other side by E56's row; the (5,6) identity cannot read
        # the row of E56 itself and raises
        assert self.failing(results) == FAULT_MATRIX["node_dropped_from_curve_table"]
        for i, j in E56_EIGHTS:
            assert results[f"nikulin.saturation.{i}{j}"].detail == (
                f"({i},{j}) eight saturates with index 2; Gram differs from the abstract lattice"
            )
        assert results["fibration.eulersum24"].detail == "2*6 + 6*2 = 22"
        # the cover of the (1,2) pencil has one fiber fewer to double
        assert results["cross.euler24"].detail == (
            "fiber Euler sum 20 differs from the surface Euler number 24;"
            " 10 I2 fibers against 12 split exceptional curves"
        )

    def test_star_leaf_moved(self, monkeypatch, fresh_model):
        original = kummer_ns.trope_support

        def e36_for_e26(label):
            support = original(label)
            if label != "C12":
                return support
            return tuple("E36" if node == "E26" else node for node in support)

        monkeypatch.setattr(kummer_ns, "trope_support", e36_for_e26)
        # the C12 star of the (1,2) pencil takes E36 for its leaf E26 and still
        # sums to F, so that pencil builds and its multiplicity-one locus is
        # no longer the (1,2) eight; the cover branched along that eight keeps
        # the C12 star and the E26 fiber once each (11 I2 fibers, Euler sum
        # 28), which the cover checks compare; C12 now meets seven tropes in
        # half-integers, and the pencils (2,3), (2,6) and (3,6) do not build;
        # the even sets, their code and the saturations change: four eights
        # hold the new even pair {E26, E36}, so those saturations have index 4
        results = self.results()
        saturations = {f"nikulin.saturation.{ij}" for ij in ("16", "23", "46", "56")}
        assert self.failing(results) == FAULT_MATRIX["star_leaf_moved"]
        for i in saturations:
            assert results[i].data["index"] == 4 and not results[i].detail.startswith("error:")
        assert results["code.affine_hyperplanes"].detail == (
            "['E13', 'E14', 'E15', 'E16', 'E23', 'E24', 'E25', 'E26'] and"
            " ['E12', 'E14', 'E15', 'E16', 'E23', 'E26', 'E34', 'E35'] meet in 5 nodes"
        )
        assert results["code.affine_hyperplanes"].detail != PASSING_DETAILS["code.affine_hyperplanes"]

    def test_each_sweep_fails_by_its_own_comparison(self, monkeypatch):
        # every fibration.sweep.ij can fail on its own verdict, not only
        # through a raise elsewhere, under one of the pinned faults
        by_comparison = set()
        for install in SWEEP_FAULTS:
            with monkeypatch.context() as patch:
                install(patch)
                failed, raised = self.failing()
            by_comparison |= failed - raised
        assert SWEEPS <= by_comparison

    def test_star_centres_listed_as_sections(self, monkeypatch):
        centres_as_sections_of_pencil_12(monkeypatch)
        # C0 and C12 are fiber components and pair 0 with F; the pencil still
        # has four sections, so only the two section tests see the fault
        assert self.failing() == FAULT_MATRIX["star_centres_listed_as_sections"]

    def test_branch_euler_number_off_by_two(self, monkeypatch, fresh_tower):
        original = covers.SurfaceModel.adjunction_euler
        monkeypatch.setattr(covers.SurfaceModel, "adjunction_euler", lambda s, names: original(s, names) + 2)
        # e(B) + 2 gives the quartic cover e = 18 - 10 = 8, so chi = (2 + 8)/12
        # = 5/6 fails by its own comparison, as do e and the weak del Pezzo
        # numbers; E1's Euler number reads 2, and X gets e = 2*10 - 2 = 18
        results = self.results()
        assert self.failing(results) == FAULT_MATRIX["branch_euler_number_off_by_two"]
        assert results["cover.chi1"].data == {"chi": "5/6"}

    @pytest.fixture
    def fresh_nikulin(self):
        # the faulty lattice must not stay in the shared cache for other tests
        nikulin.nikulin_lattice.cache_clear()
        yield
        nikulin.nikulin_lattice.cache_clear()

    def test_c8_weight_changed(self, monkeypatch, fresh_nikulin):
        def heavier_c8(labels, diag):
            labels, diag = tuple(labels), list(diag)
            diag[labels.index("c8")] = -4
            return QuadraticSpace(labels, diag)

        monkeypatch.setattr(nikulin, "QuadraticSpace", heavier_c8)
        # the half-sum has norm -(7*2 + 4)/4 = -9/2, so the lattice is not
        # even and its Gram is not integral, and every saturated eight's Gram
        # differs from it; the root search meets 2*c8 of norm -4 and raises
        results = self.results()
        assert self.failing(results) == FAULT_MATRIX["c8_weight_changed"]
        assert results["nikulin.even_negdef"].detail == (
            "rank 8, not even, negative definite, half-sum of norm -9/2"
        )
        assert results["nikulin.even_negdef"].data["halfsum_norm"] == "-9/2"

    def test_half_sum_generator_dropped(self, monkeypatch, fresh_nikulin):
        monkeypatch.setattr(nikulin, "SublatticeModel", lambda space, gens: SublatticeModel(space, tuple(gens)[:-1]))
        # the eight c_i alone span a lattice of Gram -2 I, discriminant
        # (Z/2)^8; the root search and the saturations read the space and the
        # canonical Gram, not the span
        results = self.results()
        assert self.failing(results) == FAULT_MATRIX["half_sum_generator_dropped"]
        assert results["nikulin.disc64"].data == {"invariant_factors": [2] * 8, "order": 256}

    def test_root_dropped_from_enumeration(self, monkeypatch):
        original = nikulin._parity_tuples

        def without_2c8(k, budget, eps):
            return (t for t in original(k, budget, eps) if t != (0,) * 7 + (2,))

        monkeypatch.setattr(nikulin, "_parity_tuples", without_2c8)
        # the enumeration loses c8 = (0, ..., 0, 2)/2; the root count is read
        # by roots16 alone
        results = self.results()
        assert self.failing(results) == FAULT_MATRIX["root_dropped_from_enumeration"]
        assert results["nikulin.roots16"].detail == "norm -2 enumeration returns 15 vectors, not the signed basis"

    def test_hermite_form_drops_last_row(self, monkeypatch, fresh_model):
        # the tower's and the rank-8 lattice's forms are taken before the
        # patch, whichever test ran first, so only the fresh model's lattice
        # loses a row
        covers.build_final_cover()
        assert nikulin.nikulin_lattice().lattice.rank == 8
        original = lattice._hnf_rows

        def without_last_row(rows, ncols):
            hnf, pivots = original(rows, ncols)
            return hnf[:-1], pivots[:-1]

        monkeypatch.setattr(lattice, "_hnf_rows", without_last_row)
        # the 33 generators reduce to a lattice of rank 16, which holds
        # neither every basis vector nor every trope and which the involution
        # does not keep, so the even-set scan raises on its guard
        results = self.results()
        assert self.failing(results) == FAULT_MATRIX["hermite_form_drops_last_row"]
        assert results["ns.rank17"].detail == "33 generators reduce to a rank-16 basis"

    def test_trope_class_off_by_half_e12(self, monkeypatch):
        original = kummer_ns.JacobianKummerNS.trope_class

        def plus_half_e12(self, label):
            return original(self, label) + RationalVector(self.space, self.space.basis_vector("E12").nums, 2)

        monkeypatch.setattr(kummer_ns.JacobianKummerNS, "trope_class", plus_half_e12)
        # each trope class read back is its generator plus E12/2, which the
        # lattice does not hold; the involution fixes E12, so the isometry's
        # trope comparisons, made against the same classes, still hold
        results = self.results()
        assert self.failing(results) == FAULT_MATRIX["trope_class_off_by_half_e12"]
        assert results["ns.tropes_contained"].data == {"missing": list(TROPE_LABELS)}
        detail = results["ns.tropes_contained"].detail
        assert detail == "16 of the sixteen trope classes lie outside the lattice: " + ", ".join(TROPE_LABELS)
        assert detail != PASSING_DETAILS["ns.tropes_contained"]

    def test_fault_matrix(self):
        # every test above asserts its own entry; together the pinned faults
        # make each claim fail by its own comparison, apart from the
        # exemptions, each with its reason
        fault_tests = {name[5:] for name in dir(self) if name.startswith("test_")}
        assert FAULT_MATRIX.keys() == fault_tests - {"each_sweep_fails_by_its_own_comparison", "fault_matrix"}
        by_comparison = set().union(*(failing - raised for failing, raised in FAULT_MATRIX.values()))
        claims = {d.id for d in REGISTRY if not d.flagged}
        assert len(claims) == 82 and FAULT_EXEMPT.keys() <= claims
        assert by_comparison == claims - FAULT_EXEMPT.keys()
        assert (len(by_comparison), len(FAULT_EXEMPT)) == (80, 2)


class TestReport:
    def test_summary_matches_tallies(self):
        report = build_report(["code.*", "oq.*"])
        assert report.summary["pass"] == sum(
            1 for r in report.checks if r.status == "pass"
        )
        assert report.summary["fail"] == sum(
            1 for r in report.checks if r.status == "fail"
        )
        assert report.summary["flagged"] == sum(
            1 for r in report.checks if r.status == "flagged"
        )

    def test_json_schema(self):
        report = build_report(["code.*"])
        payload = json.loads(render_json(report))
        assert set(payload) == {"version", "checks", "summary"}
        assert payload["version"] == __version__
        assert set(payload["summary"]) == {"pass", "fail", "flagged"}
        for entry in payload["checks"]:
            assert set(entry) == {"id", "status", "detail", "data"}

    def test_json_byte_stable(self):
        report = build_report()
        first = render_json(report)
        second = render_json(build_report())
        assert first == second == dumped(report)
        assert first == (GOLDEN / "report.json").read_text(encoding="utf-8")

    def test_check_list_matches_golden(self):
        assert render_check_list() == (GOLDEN / "list.txt").read_text(encoding="utf-8")


def one_check(data) -> Report:
    return Report("0.1", (CheckResult("a.b", PASS, "detail", data),), {"pass": 1, "fail": 0, "flagged": 0}, 0)


# strings json escapes: quotes, backslashes, control characters, DEL, U+2028
# and U+2029, and text outside ASCII, which ensure_ascii=False keeps
AWKWARD = ('say "yes"', "back\\slash", "\x00\x01\x1f\t\n\r\b\f", "\x7f", "\u2028\u2029", "Kummer–Néron 𝔽₂ ∑")

JSON_DATA = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=20,
)


class TestRenderJson:
    """render_json writes exactly what json.dumps(indent=2, ensure_ascii=False) does."""

    # the full report is compared in TestReport.test_json_byte_stable, and
    # the reports of the pinned faults, with their `error:` details and None
    # data, in TestFaultInjection.results

    def test_selection(self):
        report = build_report(["nikulin.*"])
        assert render_json(report) == dumped(report)

    def test_no_checks(self):
        report = Report("0.1", (), {"pass": 0, "fail": 0, "flagged": 0}, 0)
        assert render_json(report) == dumped(report)
        assert '"checks": [],' in render_json(report)

    @pytest.mark.parametrize(
        "data",
        [
            None,
            True,
            False,
            [],
            {},
            (),
            [[], {}, (), [[]], {"x": {}}],
            {"a": [], "b": {}, "c": (), "d": [{}]},
            [{"x": 1, "y": [2, 3]}, {"x": -4}],
            {"rows": [[1, 0], [0, 1]], "labels": ["E0", "L"], "empty": []},
            (1, "two", (3, None)),
            [0, -1, -(2**70), 2**64, 2**64 + 1, 10**40],
            {"t": True, "f": False, "n": None},
            list(AWKWARD),
            {s: s for s in AWKWARD},
        ],
    )
    def test_hand_built_data(self, data):
        report = one_check(data)
        assert render_json(report) == dumped(report)

    @pytest.mark.parametrize(
        "s",
        [chr(i) for i in range(0x20)] + ['"', "\\"] + [chr(i) for i in range(0x7F, 0xA0)]
        + ["\u200b", "\u2028", "plain text", 'a "quoted" \\path\\', "tab\tand\x7f"],
    )
    def test_quote_against_json(self, s):
        assert _quote(s) == json.dumps(s, ensure_ascii=False)

    def test_awkward_schema_strings(self):
        for s in AWKWARD:
            report = Report(s, (CheckResult(s, PASS, s, s),), {"pass": 1, "fail": 0, "flagged": 0}, 0)
            assert render_json(report) == dumped(report)

    @settings(max_examples=200, deadline=None)
    @given(JSON_DATA)
    def test_any_data(self, data):
        report = one_check(data)
        assert render_json(report) == dumped(report)

    @pytest.mark.parametrize(
        "data, name",
        [
            (0.5, "float"),
            (Fraction(1, 2), "Fraction"),
            ({1, 2}, "set"),
            ({1: 2}, "int"),
            ({"rows": [[1, 2.0]]}, "float"),
            ({(1, 2): 3}, "tuple"),
            ({True: 1}, "bool"),
        ],
    )
    def test_inexact_or_unknown_values_raise(self, data, name):
        with pytest.raises(TypeError, match=name):
            render_json(one_check(data))


USAGE = "usage: kummerlab [-h] [--check GLOB] [--report {text,json}] [--list]\n"
HELP = USAGE + """
Run the exact verification checks for the Kummer surface divisor
combinatorics.

options:
  -h, --help            show this help message and exit
  --check GLOB          run only checks matching this glob (repeatable)
  --report {text,json}  output format (default: text)
  --list                list all registered checks and exit
"""


class TestMain:
    # the command line as argparse parsed it: exit code, stdout (None for the
    # nikulin.* JSON report) and the message of a usage error on stderr
    @pytest.mark.parametrize(
        "argv, code, out, error",
        [
            (["-h"], 0, HELP, ""),
            (["--help"], 0, HELP, ""),
            (["--bogus", "--help", "--report", "xml"], 0, HELP, ""),
            (["--report=json", "--check=nikulin.*"], 0, None, ""),
            (["--rep", "json", "--check", "nikulin.*"], 0, None, ""),
            (["--report", "xml"], 2, "", "argument --report: invalid choice: 'xml' (choose from 'text', 'json')"),
            (["--check"], 2, "", "argument --check: expected one argument"),
            (["--check", "--list"], 2, "", "argument --check: expected one argument"),
            (["--bogus"], 2, "", "unrecognized arguments: --bogus"),
            (["x", "--check", "oq.*", "--", "--list"], 2, "", "unrecognized arguments: x -- --list"),
            (["--list=yes"], 2, "", "argument --list: ignored explicit argument 'yes'"),
            (["--list", "--check", "nikulin.*"], 0, render_check_list(), ""),
        ],
    )
    def test_command_line(self, capsys, argv, code, out, error):
        try:
            exit_code = main(argv)
        except SystemExit as exc:
            exit_code = exc.code
        captured = capsys.readouterr()
        assert exit_code == code
        assert captured.err == (f"{USAGE}kummerlab: error: {error}\n" if error else "")
        assert captured.out == (render_json(build_report(["nikulin.*"])) if out is None else out)

    def test_full_run_exits_zero(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "summary:" in out
        assert " 0 fail" in out

    def test_selection_json(self, capsys):
        assert main(["--check", "nikulin.*", "--report", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        ids = [c["id"] for c in payload["checks"]]
        assert ids == sorted(ids)
        assert all(i.startswith("nikulin.") for i in ids)

    def test_unknown_check_exits_two(self, capsys):
        assert main(["--check", "no.such.check"]) == 2
        err = capsys.readouterr().err
        assert "unknown check" in err

    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "even_sets.count30" in out
        assert "fibration.eulersum24" in out

    def test_flagged_never_fails_exit(self, capsys):
        assert main(["--check", "oq.*"]) == 0
        out = capsys.readouterr().out
        assert "0 fail" in out

    def test_flagged_check_that_raises_fails_the_run(self, capsys, monkeypatch):
        # a flagged item's verdict never fails a run, but a flagged body that
        # raises is a defect: it reports FAIL with an error: detail, and exit 1
        def body(ctx):
            raise ZeroDivisionError("boom")

        registry = (CheckDef("oq.raises", "d", "c", body, flagged=True),)
        monkeypatch.setattr(checks, "REGISTRY", registry)
        monkeypatch.setattr(cli, "REGISTRY", registry)
        assert main(["--report", "json"]) == 1
        (result,) = json.loads(capsys.readouterr().out)["checks"]
        assert result["status"] == FAIL
        assert result["detail"] == "error: ZeroDivisionError in body: boom"
