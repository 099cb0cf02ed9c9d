import json
from pathlib import Path

import pytest

from kummerlab import __version__, checks, covers, fibration, kummer_ns, lattice
from kummerlab.checks import (
    FAIL,
    PASS,
    REGISTRY,
    CheckContext,
    CheckDef,
    check,
    list_checks,
    run_check,
    run_checks,
)
from kummerlab.cli import build_report, main, render_check_list, render_json, select_ids
from kummerlab.labels import INDEX_PAIRS
from kummerlab.kummer_ns import even_eight, jacobian_kummer_ns
from kummerlab.lattice import QuadraticSpace, RationalVector

# outputs captured before any change to the package; the stdout fixed points
GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"


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
        # the pencils read the curve table; no fiber takes its own Gram
        assert len(calls) <= 20

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
        # cover) and one sum per pencil and per cover
        assert len(lookups) == 15 * (8 + 2)
        assert len(sums) == 2 * 15

    def test_saturation_builds_each_eight_once(self, monkeypatch):
        lookups, halves = [], []
        node_class, half_sum = kummer_ns.JacobianKummerNS.node_class, kummer_ns.JacobianKummerNS.half_sum

        def counted_node_class(self, label):
            lookups.append(label)
            return node_class(self, label)

        def counted_half_sum(self, s):
            halves.append(s)
            return half_sum(self, s)

        monkeypatch.setattr(kummer_ns.JacobianKummerNS, "node_class", counted_node_class)
        monkeypatch.setattr(kummer_ns.JacobianKummerNS, "half_sum", counted_half_sum)
        run_checks(select_ids(["nikulin.saturation.*"]))
        # the nodes are read off the mask bits, the half-sum is built once
        assert lookups == []
        assert sorted(halves) == sorted(even_eight(i, j) for i, j in INDEX_PAIRS)

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

    def shifted(t, fib, x, rows):
        return original(t, fib, x, [y + 1 for y in rows])

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


class TestFaultInjection:
    """A fault in one kernel turns exactly the checks that depend on it to FAIL."""

    def results(self):
        return {r.id: r for r in run_checks()}

    def failing(self, results=None):
        """The failing ids, and the subset of them whose detail starts with
        `error:`: those fail through a raise, not by their own comparison."""
        failed = [r for r in (results or self.results()).values() if r.status == FAIL]
        return {r.id for r in failed}, {r.id for r in failed if r.detail.startswith("error:")}

    def test_combination_drops_last_term(self, monkeypatch):
        original = QuadraticSpace.combination

        def drop_last(self, coeffs, vectors):
            return original(self, list(coeffs)[:-1], list(vectors)[:-1])

        monkeypatch.setattr(QuadraticSpace, "combination", drop_last)
        # the fiber class loses E_ij, so its square is (L - E0)^2 = 2; the
        # pencils are read off the curve table and sum no vectors, so every
        # other pencil check passes; the even-eight identity loses E_ij; the
        # isometry test loses a term of each image sum
        assert self.failing() == (
            {"fibration.F2zero", "alpha.isometry"} | {f"delta.identity.{i}{j}" for i, j in INDEX_PAIRS},
            set(),
        )

    def test_incidence_reads_next_coordinate(self, monkeypatch):
        shift_incidence(monkeypatch)
        # each branch node is read at the next row of the curve table, so
        # every transform keeps one to six isolated fibers unsplit (6 to 11
        # I2 fibers upstairs) and each cover check fails by its own
        # comparison; the pencils themselves stay intact
        assert self.failing() == (SWEEPS | {"cross.euler24", "fibration.cover12I2"}, set())

    @pytest.fixture
    def fresh_model(self):
        # the faulty model must not stay in the shared cache for other tests
        jacobian_kummer_ns.cache_clear()
        yield
        jacobian_kummer_ns.cache_clear()

    def test_node_weight_changed(self, monkeypatch, fresh_model):
        def heavier_e56(labels, diag):
            labels, diag = tuple(labels), list(diag)
            diag[labels.index("E56")] = -4
            return QuadraticSpace(labels, diag)

        monkeypatch.setattr(kummer_ns, "QuadraticSpace", heavier_e56)
        # the (16,6) table and trope norms see the -4, the lattice's
        # discriminant changes, every pencil holds a component of norm -4,
        # and each saturation whose eight contains E56 loses its Gram
        pencil = SWEEPS | {
            "cross.euler24",
            "fibration.F2zero",
            "fibration.classify",
            "fibration.cover12I2",
            "fibration.delta12_identity",
            "fibration.eulersum24",
            "fibration.sections4",
        }
        results = self.results()
        assert self.failing(results) == (
            pencil | {
                f"nikulin.saturation.{ij}" for ij in ("15", "16", "25", "26", "35", "36", "45", "46")
            } | {"config.sixteen_six", "ns.discriminant", "ns.trope_pairings"},
            pencil | {"ns.discriminant"},
        )
        assert results["nikulin.saturation.15"].detail == (
            "(1,5) eight saturates with index 2; Gram differs from the abstract lattice"
        )

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
        assert self.failing() == (
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
        )

    def test_covering_involution_sign_flipped(self, monkeypatch):
        def flipped(self, v):
            a, b, *rest = v.nums
            return RationalVector(self.space, (3 * a + 2 * b, 4 * a - 3 * b, *rest), v.den)

        monkeypatch.setattr(kummer_ns.JacobianKummerNS, "covering_involution", flipped)
        # L -> 3L + 4E0 is neither an isometry nor an involution; no other
        # check applies the involution
        assert self.failing() == ({"alpha.isometry"}, set())

    def test_wrong_branch_for_one_cover(self, monkeypatch):
        branch_13_for_pencil_12(monkeypatch)
        # the (1,3) eight meets both star fibers of the (1,2) pencil without
        # holding their multiplicity-one components, and meets all six
        # isolated fibers, so the transform keeps every fiber once: 6 I2
        # fibers, not 12, fail both checks by their own comparisons; the two
        # stars kept (+12) and the six fibers not doubled (-12) cancel, so
        # the Euler sum is 24 and cross.euler24 passes
        assert self.failing() == ({"fibration.cover12I2", "fibration.sweep.12"}, set())

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
        raised = {f"fibration.sweep.{ij}" for ij in ("12", "13", "23")} | {
            "cross.euler24",
            "fibration.F2zero",
            "fibration.classify",
            "fibration.cover12I2",
            "fibration.delta12_identity",
            "fibration.eulersum24",
            "fibration.sections4",
            "ns.discriminant",
        }
        assert self.failing(results) == (
            raised | {f"fibration.sweep.1{j}" for j in range(4, 7)} | {
                f"delta.identity.1{j}" for j in range(2, 7)
            } | saturations | {
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
            raised,
        )
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

        def l3_only(s, exceptional, through):
            return original(s, exceptional, ("l3",) if exceptional == "G34" else through)

        monkeypatch.setattr(covers, "blowup", l3_only)
        # l4 keeps square -1, so the quartic branch is not a set of disjoint
        # (-2)-curves and no cover of the tower builds; the incidence count
        # reads l3.l4 = 1 off the blowup and finds five quartic points
        results = self.results()
        raised = {
            "cover.X_canonical",
            "cover.X_chi2",
            "cover.X_euler24",
            "cover.X_sixteen",
            "cover.chi1",
            "cover.curve_table",
            "cover.eT10",
            "cover.kT2",
            "cover.weak_dp2",
            "cross.euler24",
        }
        assert self.failing(results) == (raised | {"cover.incidence_sextic"}, raised)
        detail = results["cover.incidence_sextic"].detail
        assert detail == "15 double points, 5 per line, 5 blown for the quartic, degrees 6 = 4 + 2"

    def test_split_conic_cross_sum_changed(self, monkeypatch):
        monkeypatch.setitem(covers.SPLIT_CONIC_TABLE, "W'1.W'2", 2)
        # the inventory reports the cross sum 6 and its own check compares it
        results = self.results()
        assert self.failing(results) == ({"cover.X_sixteen"}, set())
        assert results["cover.X_sixteen"].detail.endswith("split-conic cross sum 6, expected 8")

    def test_node_dropped_from_curve_table(self, monkeypatch):
        drop_e56_from_curve_table(monkeypatch)
        results = self.results()
        # the six pencils in which E56 is an isolated node lose that fiber and
        # fail by their own comparisons; where E56 is a star leaf or E_ij the
        # build raises, and the configuration table cannot be read without it
        isolated = {f"fibration.sweep.{ij}" for ij in ("12", "13", "14", "23", "24", "34")}
        assert self.failing(results) == (
            SWEEPS | {
                "config.sixteen_six",
                "cross.euler24",
                "fibration.classify",
                "fibration.cover12I2",
                "fibration.eulersum24",
            },
            SWEEPS - isolated | {"config.sixteen_six"},
        )
        assert results["fibration.eulersum24"].detail == "2*6 + 6*2 = 22"
        # the cover of the (1,2) pencil has one fiber fewer to double
        assert results["cross.euler24"].detail == "fiber Euler sum 20 differs from the surface Euler number 24"

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
        assert self.failing(results) == (
            {f"fibration.sweep.{ij}" for ij in ("12", "23", "24", "25", "26", "36")} | {
                f"delta.identity.{ij}" for ij in ("12", "23", "24", "25", "26")
            } | saturations | {
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
        )
        for i in saturations:
            assert results[i].data["index"] == 4 and not results[i].detail.startswith("error:")

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
        assert self.failing() == ({"fibration.sections4", "fibration.sweep.12"}, set())


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
        first = render_json(build_report())
        second = render_json(build_report())
        assert first == second
        assert first == (GOLDEN / "report.json").read_text(encoding="utf-8")

    def test_check_list_matches_golden(self):
        assert render_check_list() == (GOLDEN / "list.txt").read_text(encoding="utf-8")


class TestMain:
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
