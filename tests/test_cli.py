"""End-to-end tests of the command line interface against the fixture
files: report contents, exit codes, determinism, and error handling."""

import io
import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from coxring import cli, coxalg, grading, ratcurve
from coxring import exactmath as em
from coxring.coxalg import Verdict
from coxring.grading import BoxTooLarge
from coxring.ratcurve import InternalInconsistency, curve_from_json
from report_oracles import render as oracle_render
from test_coxalg import _radius, small_curves

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fixture(name):
    return str(FIXTURES / name)


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(args, timeout):
    """Run python with args in a fresh process that imports this coxring."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env, timeout=timeout,
                          capture_output=True, text=True)


class TestCurveCommand:
    def test_tripled_line(self, capsys):
        code, out, _ = run_cli(capsys, "curve", fixture("tripled_line.json"))
        assert code == 0
        report = json.loads(out)
        assert report["picard"] == {"rank": 4, "invariant_factors": []}
        assert report["lattice_rank"] == 4
        pres = report["presentation"]
        assert len(pres["generators"]) == 6
        assert pres["relations"] == ["T1*T2 - T3*T6 - T4*T5"]
        assert len(pres["certificate"]) == 625

    def test_doubled_line(self, capsys):
        code, out, _ = run_cli(capsys, "curve", fixture("doubled_line.json"))
        assert code == 0
        report = json.loads(out)
        assert report["picard"] == {"rank": 2, "invariant_factors": []}
        pres = report["presentation"]
        assert [g["section"] for g in pres["generators"]] == ["1", "1",
                                                             "1/z"]
        assert pres["relations"] == []

    def test_options_are_echoed(self, capsys):
        code, out, _ = run_cli(capsys, "curve", fixture("plain_line.json"),
                               "--box", "1", "--lambda", "full")
        assert code == 0
        report = json.loads(out)
        assert report["options"] == {"box_radius": 1, "power_bound": 4,
                                     "lambda": "full"}

    @pytest.mark.parametrize("mode, builds", [("canonical", 1), ("full", 2)])
    def test_canonical_lattice_is_built_once(self, capsys, monkeypatch,
                                             mode, builds):
        count = [0]
        init = coxalg.LineBundleLattice.__init__

        def counting(self, *args, **kwargs):
            count[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(coxalg.LineBundleLattice, "__init__", counting)
        code, _, _ = run_cli(capsys, "curve", fixture("doubled_line.json"),
                             "--box", "1", "--lambda", mode)
        assert code == 0
        # the full lattice run builds the canonical one for its box
        assert count[0] == builds

    def test_one_traversal_finds_generators_and_relations(self, capsys,
                                                          monkeypatch):
        counts = {"traversal": 0, "coordinates": 0}
        traversal = coxalg._traversal

        def counting_traversal(*args):
            counts["traversal"] += 1
            return traversal(*args)

        class CountingCoordinates(coxalg._MonomialCoordinates):
            def __init__(self, A):
                counts["coordinates"] += 1
                super().__init__(A)

        monkeypatch.setattr(coxalg, "_traversal", counting_traversal)
        monkeypatch.setattr(coxalg, "_MonomialCoordinates",
                            CountingCoordinates)
        code, _, _ = run_cli(capsys, "curve", fixture("tripled_line.json"))
        assert code == 0
        assert counts == {"traversal": 1, "coordinates": 1}


class TestResidueCertificates:
    """The curve report does not depend on the prime the search certifies
    its rows by (coxalg.CERTIFICATE_PRIME), nor on whether it divides a
    denominator of the input."""

    @pytest.mark.parametrize("prime", [2, 3, 5])
    @pytest.mark.parametrize("mode", ["canonical", "full"])
    @pytest.mark.parametrize(
        "name", sorted(p.name for p in FIXTURES.glob("*_line.json")))
    def test_report_does_not_depend_on_the_prime(self, capsys, monkeypatch,
                                                 name, mode, prime):
        args = ("curve", fixture(name), "--lambda", mode)
        expected = run_cli(capsys, *args)
        assert expected[0] == 0
        monkeypatch.setattr(coxalg, "CERTIFICATE_PRIME", prime)
        assert run_cli(capsys, *args) == expected

    def test_point_with_the_prime_as_denominator(self, capsys, monkeypatch,
                                                 tmp_path):
        path = tmp_path / "denominator.json"
        path.write_text(json.dumps({"special": [
            {"point": "0", "multiplicity": 2},
            {"point": "1/2305843009213693951", "multiplicity": 2},
            {"point": "inf", "multiplicity": 2}]}), encoding="utf-8")
        assert coxalg.CERTIFICATE_PRIME == 2305843009213693951
        args = ("curve", str(path), "--box", "1")
        blocked = []
        honest = coxalg._MonomialCoordinates.residue_coordinates

        def recording(self, *args):
            got = honest(self, *args)
            blocked.append(got is None)
            return got

        monkeypatch.setattr(coxalg._MonomialCoordinates,
                            "residue_coordinates", recording)
        code, out, err = run_cli(capsys, *args)
        assert (code, err) == (0, "")
        assert any(blocked)
        # the all-Fraction oracle: no row certified mod p
        monkeypatch.setattr(coxalg, "_certified", lambda *args: False)
        assert run_cli(capsys, *args) == (0, out, "")


class TestSmithFormCount:
    """A curve's class group is free with closed-form coordinates, the
    monomial enumeration plans solve their systems by the Hermite split and
    the verification checks decide generation by a Hermite form: no curve
    run computes a Smith form, certified or not, even with every plan built
    afresh.  A fan run builds its class group once."""

    @pytest.mark.parametrize("args", [
        ("curve", "--lambda", "canonical"), ("curve", "--lambda", "full"),
        ("crosscheck",), ("verify",)],
        ids=["canonical", "full", "crosscheck", "verify"])
    @pytest.mark.parametrize(
        "name", sorted(p.name for p in FIXTURES.glob("*_line.json")))
    def test_smith_forms_only_in_enumeration_plans(self, capsys,
                                                   monkeypatch, name, args):
        counts = {"certified": 0, "smith": 0}

        def counting(key, fn):
            def wrapped(*a, **kw):
                counts[key] += 1
                return fn(*a, **kw)
            return wrapped

        monkeypatch.setattr(grading, "smith_normal_form",
                            counting("certified", grading.smith_normal_form))
        monkeypatch.setattr(em, "_smith", counting("smith", em._smith))
        em._enumeration_plan.cache_clear()
        code, _, _ = run_cli(capsys, args[0], fixture(name), *args[1:],
                             "--box", "1")
        assert code == 0
        # a crosscheck enumerates no monomials; a presentation builds plans
        assert (em._enumeration_plan.cache_info().misses > 0) == (
            args[0] != "crosscheck")
        assert counts == {"certified": 0, "smith": 0}

    @pytest.mark.parametrize("mode", ["toric", "verify"])
    @pytest.mark.parametrize(
        "name", sorted(p.name for p in FIXTURES.glob("*_fan.json")))
    def test_one_class_group_per_fan_run(self, capsys, monkeypatch, name,
                                         mode):
        calls = []
        honest = grading.smith_normal_form

        def counting(*args):
            calls.append(args)
            return honest(*args)

        monkeypatch.setattr(grading, "smith_normal_form", counting)
        code, _, _ = run_cli(capsys, mode, fixture(name), "--box", "1")
        assert code == 0
        # on the torsion fan the ray degrees and relations fail the Hermite
        # test of free grading, and its cokernel takes one more Smith form
        assert len(calls) == (2 if (name, mode) == ("torsion_fan.json",
                                                     "verify") else 1)


class TestSectionSpaceCount:
    """verify reads covering elements, separatedness products and rewritten
    elements by their coordinate polynomials: section spaces are built only
    where the generator search takes a generator, and none inside the
    separatedness check."""

    def test_only_generator_components_are_built(self, capsys, monkeypatch):
        inside = [False]
        built = []
        counts = {"coordinates_of": 0}
        honest_space = coxalg.section_space
        honest_coordinates = ratcurve.SectionSpace.coordinates_of
        honest_check = cli.separatedness_check

        def recording_space(X, D):
            built.append((inside[0], D))
            return honest_space(X, D)

        def counting_coordinates(self, f):
            if inside[0]:
                counts["coordinates_of"] += 1
            return honest_coordinates(self, f)

        def marked_check(*args, **kwargs):
            inside[0] = True
            try:
                return honest_check(*args, **kwargs)
            finally:
                inside[0] = False

        monkeypatch.setattr(coxalg, "section_space", recording_space)
        monkeypatch.setattr(ratcurve.SectionSpace, "coordinates_of",
                            counting_coordinates)
        monkeypatch.setattr(cli, "separatedness_check", marked_check)
        code, out, _ = run_cli(capsys, "verify", fixture("tripled_line.json"),
                               "--box", "1", "--power-bound", "8")
        assert code == 0
        report = json.loads(out)
        assert report["checks"]["separatedness"]["verdict"] == "not_separated"
        assert counts == {"coordinates_of": 0}
        assert not any(flag for flag, _ in built)
        X = curve_from_json(json.loads(
            (FIXTURES / "tripled_line.json").read_text()))
        A = coxalg.curve_algebra(X)
        degrees = report["checks"]["weight_monoid"]["details"]["degrees"]
        expected = {A.lattice.divisor_of(A.rep(d)) for d in degrees}
        assert [D for _, D in built] and len(built) == len(expected)
        assert {D for _, D in built} == expected

    def test_component_polynomials_once_per_degree(self, capsys,
                                                   monkeypatch):
        # the three readers of verify share (W_L, V_L, dim) per degree L
        read, built = [], []
        honest_read = coxalg.GradedSectionAlgebra.polynomials
        honest_orders = coxalg.order_polynomials

        def recording_read(self, vec):
            read.append(tuple(vec))
            return honest_read(self, vec)

        def counting_orders(orders):
            built.append(orders)
            return honest_orders(orders)

        monkeypatch.setattr(coxalg.GradedSectionAlgebra, "polynomials",
                            recording_read)
        monkeypatch.setattr(coxalg, "order_polynomials", counting_orders)
        code, _, _ = run_cli(capsys, "verify", fixture("tripled_line.json"),
                             "--box", "1", "--power-bound", "8")
        assert code == 0
        assert len(read) > len(set(read))
        assert len(built) == len(set(read))


class TestToricCommand:
    def test_plane(self, capsys):
        code, out, _ = run_cli(capsys, "toric", fixture("plane_fan.json"))
        assert code == 0
        report = json.loads(out)
        assert report["class_group"] == {"rank": 1, "invariant_factors": []}
        pres = report["presentation"]
        assert [g["section"] for g in pres["generators"]] == [None] * 3
        assert sorted(report["irrelevant_polynomials"]) == ["T1", "T2",
                                                            "T3"]

    def test_torsion_cone(self, capsys):
        code, out, _ = run_cli(capsys, "toric", fixture("torsion_fan.json"))
        assert code == 0
        report = json.loads(out)
        assert report["class_group"] == {"rank": 0,
                                         "invariant_factors": [2]}


class TestVerifyCommand:
    def test_tripled_line(self, capsys):
        code, out, _ = run_cli(capsys, "verify",
                               fixture("tripled_line.json"))
        assert code == 0
        report = json.loads(out)
        verdicts = {k: v["verdict"] for k, v in report["checks"].items()}
        assert verdicts == {"weight_monoid": "pass", "pointed": "pass",
                            "separatedness": "not_separated",
                            "freely_graded": "pass"}
        assert report["findings"] == {"not_separated": True,
                                      "inconclusive": []}
        assert report["all_passed"] is True

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in FIXTURES.glob("*_line.json")))
    def test_irrelevant_count_matches_the_elements(self, name):
        X = curve_from_json(json.loads((FIXTURES / name).read_text()))
        assert (cli._refuse_many_irrelevant(X)
                == len(coxalg.irrelevant_sections(coxalg.curve_algebra(X))))

    def test_many_irrelevant_elements_are_refused_up_front(self, tmp_path):
        # six points of multiplicity 4: 6 * 4^5 = 6144 irrelevant elements,
        # refused before the class group is built
        path = tmp_path / "six.json"
        path.write_text(json.dumps({"special": [
            {"point": p, "multiplicity": 4}
            for p in ("0", "1", "2", "3", "4", "inf")]}), encoding="utf-8")
        child = run_child(["-m", "coxring.cli", "verify", str(path),
                           "--box", "0"], timeout=10)
        assert child.returncode == 1
        assert child.stdout == ""
        assert child.stderr == ("error: verify would build 6144 irrelevant "
                                "elements, more than %d\n"
                                % grading.MAX_IRRELEVANT_ELEMENTS)

    def test_plain_line_is_separated(self, capsys):
        code, out, _ = run_cli(capsys, "verify", fixture("plain_line.json"))
        assert code == 0
        report = json.loads(out)
        entry = report["checks"]["separatedness"]
        assert entry["verdict"] == "separated"
        assert entry["levels"] == 2
        assert report["findings"]["not_separated"] is False

    @pytest.mark.parametrize("name", ["tripled_line.json",
                                      "doubled_line.json", "plain_line.json",
                                      "multiplicities_3_2"])
    def test_full_lattice_agrees_with_canonical(self, capsys, tmp_path,
                                                name):
        # a generator monomial whose degree differs from its class's
        # ambient vector by a relation must be crossed by the witness of
        # the kernel element between the two lattice components
        if name.endswith(".json"):
            path = fixture(name)
        else:
            path = tmp_path / "curve.json"
            path.write_text(json.dumps({"special": [
                {"point": "0", "multiplicity": 3},
                {"point": "1", "multiplicity": 2}]}))
        runs = {}
        for mode in ("canonical", "full"):
            code, out, _ = run_cli(capsys, "verify", str(path), "--box", "1",
                                   "--lambda", mode)
            assert code == 0
            checks = json.loads(out)["checks"]
            runs[mode] = ({k: v["verdict"] for k, v in checks.items()},
                          checks["freely_graded"]["details"]["witnesses"])
        assert runs["full"] == runs["canonical"]

    def test_plane_fan(self, capsys):
        code, out, _ = run_cli(capsys, "verify", fixture("plane_fan.json"))
        assert code == 0
        report = json.loads(out)
        assert report["input_kind"] == "toric"
        verdicts = {k: v["verdict"] for k, v in report["checks"].items()}
        assert verdicts == {"weight_monoid": "pass",
                            "freely_graded": "pass"}

    def test_affine_fan(self, capsys):
        code, out, _ = run_cli(capsys, "verify", fixture("affine_fan.json"))
        assert code == 0
        assert json.loads(out)["all_passed"] is True

    def test_power_bound_zero_is_a_finding(self, capsys):
        code, out, _ = run_cli(capsys, "verify", fixture("plane_fan.json"),
                               "--power-bound", "0")
        assert code == 0
        report = json.loads(out)
        entry = report["checks"]["freely_graded"]
        assert entry["verdict"] == "inconclusive"
        assert entry["power_bound"] == 0
        assert report["findings"]["inconclusive"] == ["freely_graded"]

    def test_power_bound_zero_on_a_curve_is_a_finding(self, capsys):
        code, out, _ = run_cli(capsys, "verify", fixture("tripled_line.json"),
                               "--box", "1", "--power-bound", "0")
        assert code == 0
        report = json.loads(out)
        assert report["checks"]["freely_graded"]["verdict"] == "inconclusive"
        assert report["findings"]["inconclusive"] == ["freely_graded"]

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in FIXTURES.glob("*_line.json")))
    def test_span_tests_do_not_grow_with_the_power_bound(
            self, capsys, monkeypatch, name):
        # every pair the first power leaves open has a point certificate,
        # so a larger bound makes no further span test
        calls = []
        honest = coxalg._variable_ideal_members

        def counted(*args):
            calls.append(args)
            return honest(*args)

        monkeypatch.setattr(coxalg, "_variable_ideal_members", counted)
        counts = []
        for bound in ("1", "8"):
            calls.clear()
            code, _, _ = run_cli(capsys, "verify", fixture(name), "--box",
                                 "1", "--power-bound", bound)
            assert code == 0
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_unrecognized_schema(self, capsys, tmp_path):
        path = tmp_path / "neither.json"
        path.write_text(json.dumps({"something": 1}))
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert "neither" in err

    @pytest.mark.parametrize("name", ["tripled_line.json", "plane_fan.json"])
    def test_input_is_read_once(self, capsys, monkeypatch, name):
        loads = []
        honest = cli._load
        monkeypatch.setattr(cli, "_load",
                            lambda path: loads.append(path) or honest(path))
        code, _, _ = run_cli(capsys, "verify", fixture(name), "--box", "1")
        assert code == 0
        assert loads == [fixture(name)]

    def test_failed_check_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "weight_monoid_check",
                            lambda *a, **k: Verdict("fail"))
        code, out, _ = run_cli(capsys, "verify", fixture("plane_fan.json"))
        assert code == 2
        assert json.loads(out)["all_passed"] is False


class TestCrosscheckCommand:
    def test_doubled_line(self, capsys):
        code, out, _ = run_cli(capsys, "crosscheck",
                               fixture("doubled_line.json"))
        assert code == 0
        report = json.loads(out)
        assert report["agreed"] is True
        assert report["result"] == {"classes": 25, "hilbert_equal": True,
                                    "iso_verified": True,
                                    "witness_multiplicative": True}

    def test_disagreement_exits_two(self, capsys, monkeypatch):
        bad = Verdict("fail", classes=1, hilbert_equal=False,
                      iso_verified=True, witness_multiplicative=True)
        monkeypatch.setattr(cli, "uniqueness_crosscheck",
                            lambda *a, **k: bad)
        code, out, _ = run_cli(capsys, "crosscheck",
                               fixture("plain_line.json"))
        assert code == 2
        assert json.loads(out)["agreed"] is False


class TestCrosscheckMutations:
    """A fault in either pipeline or in the witness makes crosscheck report
    disagreement: exit 2 with a report, never a traceback."""

    @staticmethod
    def _assert_disagrees(capsys):
        code, out, err = run_cli(capsys, "crosscheck",
                                 fixture("tripled_line.json"), "--box", "1")
        assert code == 2
        assert err == ""
        assert json.loads(out)["agreed"] is False

    def test_witness_order_off_by_one(self, capsys, monkeypatch):
        honest = coxalg._witness_orders

        def off_by_one(blocks1, blocks2):
            return [None if e is None else (e[0] + 1,) + e[1:]
                    for e in honest(blocks1, blocks2)]

        monkeypatch.setattr(coxalg, "_witness_orders", off_by_one)
        self._assert_disagrees(capsys)

    def test_representative_moved_by_non_principal_divisor(
            self, capsys, monkeypatch):
        honest = coxalg._representative_moves

        def first_copy_moves(A):
            # each move adds a single copy of the point: a nonzero class
            return tuple((pos, tuple(int(i == pos) for i in range(len(rel))))
                         for pos, rel in honest(A))

        monkeypatch.setattr(coxalg, "_representative_moves",
                            first_copy_moves)
        self._assert_disagrees(capsys)

    def test_swapped_basis_columns_in_one_pipeline(self, capsys,
                                                   monkeypatch):
        honest = coxalg.curve_algebra

        def swapped(X, mode="canonical", basis=None):
            A = honest(X, mode, basis)
            if mode == "full":
                cols = list(A.lattice.columns)
                cols[0], cols[2] = cols[2], cols[0]
                object.__setattr__(A.lattice, "columns", tuple(cols))
            return A

        monkeypatch.setattr(coxalg, "curve_algebra", swapped)
        self._assert_disagrees(capsys)

    def test_class_map_column_off_by_one(self, capsys, monkeypatch):
        honest = coxalg._class_maps

        def off_by_one(A1, A2):
            # the image of the first ambient unit vector under T2 gains
            # one more first copy of the anchor
            T1, T2 = honest(A1, A2)
            return T1, ((T2[0][0] + 1,) + T2[0][1:],) + T2[1:]

        monkeypatch.setattr(coxalg, "_class_maps", off_by_one)
        self._assert_disagrees(capsys)


class TestSeparatednessMutations:
    """The exact checks of verify's coordinate-polynomial reading can fail:
    a fault in a correction, a covering element or a reported section is an
    internal inconsistency, exit 3 with no report."""

    @staticmethod
    def _assert_inconsistent(capsys, message, name="tripled_line.json"):
        code, out, err = run_cli(capsys, "verify", fixture(name), "--box",
                                 "1")
        assert code == 3
        assert out == ""
        assert err == "error: internal inconsistency: %s\n" % message

    @staticmethod
    def _inside_separatedness(monkeypatch, owner, attr, mutated):
        # the mutation is live only while the separatedness check runs, so
        # the presentation and the covering elements are read honestly
        honest_check = cli.separatedness_check
        honest = getattr(owner, attr)

        def check(*args, **kwargs):
            setattr(owner, attr, mutated)
            try:
                return honest_check(*args, **kwargs)
            finally:
                setattr(owner, attr, honest)

        monkeypatch.setattr(cli, "separatedness_check", check)

    @pytest.mark.parametrize("base, delta, message", [
        (0, 1, "product of sections escaped the component of the sum"),
        (1, 1, "reported section disagrees with its coordinate polynomial"),
        (0, -1, "product of sections has a negative correction exponent")],
        ids=["+1 at 0", "+1 at 1", "-1 at 0"])
    def test_correction_exponent_off_by_one(self, capsys, monkeypatch,
                                            base, delta, message):
        honest = coxalg._correction

        def off_by_one(X, m, *factors):
            m = m[:base] + (m[base] + delta,) + m[base + 1:]
            return honest(X, m, *factors)

        self._inside_separatedness(monkeypatch, coxalg, "_correction",
                                   off_by_one)
        self._assert_inconsistent(capsys, message)

    def test_correction_exponent_off_by_one_everywhere(self, capsys,
                                                       monkeypatch):
        honest = coxalg._correction

        def off_by_one(X, m, *factors):
            return honest(X, (m[0] - 1,) + m[1:], *factors)

        monkeypatch.setattr(coxalg, "_correction", off_by_one)
        self._assert_inconsistent(
            capsys, "product of sections has a negative correction exponent")

    @pytest.mark.parametrize("name", ["tripled_line.json", "mixed_line.json",
                                      "doubled_line.json"])
    def test_covering_element_times_a_special_factor(self, capsys,
                                                     monkeypatch, name):
        honest = coxalg.is_principal

        def vanishing_more(X, D):
            # one more zero, at the first special base
            b = X.special[0][0].value
            return honest(X, D) * em.RationalFunction(em.UniPoly([-b, 1]))

        monkeypatch.setattr(coxalg, "is_principal", vanishing_more)
        self._assert_inconsistent(
            capsys, "covering element escaped its component", name)

    def test_corrupted_shifted_fails_the_exact_reread(self, capsys,
                                                      monkeypatch):
        honest = em.RationalFunction.__mul__

        def doubled(self, other):
            return honest(honest(self, other), 2)

        self._inside_separatedness(monkeypatch, em.RationalFunction,
                                   "__mul__", doubled)
        self._assert_inconsistent(
            capsys, "reported section disagrees with its coordinate "
            "polynomial")


class TestDeterminism:
    def test_identical_bytes_across_runs(self, capsys):
        _, first, _ = run_cli(capsys, "verify", fixture("plane_fan.json"))
        _, second, _ = run_cli(capsys, "verify", fixture("plane_fan.json"))
        assert first == second

    def test_curve_report_stable(self, capsys):
        _, first, _ = run_cli(capsys, "curve", fixture("doubled_line.json"))
        _, second, _ = run_cli(capsys, "curve",
                               fixture("doubled_line.json"))
        assert first == second


class TestTextFormat:
    def test_flat_lines(self, capsys):
        code, out, _ = run_cli(capsys, "crosscheck",
                               fixture("plain_line.json"),
                               "--box", "1", "--format", "text")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "agreed: True"
        assert "result.classes: 3" in lines
        assert all(":" in line for line in lines)


# JSON trees as reports hold them: str keys, tuples beside lists, bools
# beside ints, None, and strings with non-ASCII, control, quote and
# backslash characters
json_text = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9'
                                              '\u2028\U0001f600'),
                              st.characters(blacklist_categories=("Cs",))),
                    max_size=6)
json_trees = st.recursive(
    st.one_of(st.none(), st.booleans(),
              st.integers(min_value=-10 ** 30, max_value=10 ** 30),
              json_text),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(st.integers(min_value=-99, max_value=99), max_size=4),
        st.dictionaries(json_text, children, max_size=4)),
    max_leaves=20)


class TestJsonWriter:
    """render's JSON writer against json.dumps(indent=2, sort_keys=True),
    whose indented output the goldens hold."""

    @given(json_trees)
    @settings(max_examples=300, deadline=None)
    def test_matches_indented_json_dumps(self, tree):
        assert cli.render(tree, "json") == json.dumps(tree, indent=2,
                                                      sort_keys=True)

    def test_empty_and_nested_containers(self):
        tree = {"a": [], "b": {}, "c": [[], {}, [[]], ()], "d": [True, 1, 0],
                "e": [False], "f": (1, 2), "": None}
        assert cli.render(tree, "json") == json.dumps(tree, indent=2,
                                                      sort_keys=True)

    @pytest.mark.parametrize("value", [1.5, {1, 2}, object(), Verdict("pass"),
                                       {1: "int key"}])
    def test_anything_else_is_a_type_error(self, value):
        with pytest.raises(TypeError):
            cli.render({"x": [value]}, "json")


def _curve_file(tmp_path, multiplicities):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"special": [
        {"point": p, "multiplicity": m}
        for p, m in zip(("0", "1", "inf", "-1"), multiplicities)]}),
        encoding="utf-8")
    return str(path)


def _fixture_runs():
    for path in sorted(FIXTURES.glob("*.json")):
        curve = "special" in json.loads(path.read_text(encoding="utf-8"))
        mode = "curve" if curve else "toric"
        runs = [(mode, 1, "canonical"), (mode, 2, "canonical")]
        if curve:
            runs += [("curve", 1, "full"), ("curve", 2, "full")]
        for run in runs:
            yield (path.name,) + run


FIXTURE_RUNS = list(_fixture_runs())


class TestStreamedReport:
    """Reports written from the row templates and streamed to stdout
    against report_oracles.render: certificate rows as dicts and the
    recursive writers, byte for byte in both formats."""

    @staticmethod
    def _assert_same(got, expected):
        # the first difference only: a diff of two long reports is slow
        if got != expected:
            at = next((i for i, (a, b) in enumerate(zip(got, expected))
                       if a != b), min(len(got), len(expected)))
            pytest.fail("reports differ at character %d: %r != %r" % (
                at, got[at - 60:at + 60], expected[at - 60:at + 60]))

    def _assert_matches(self, report):
        for fmt in ("json", "text"):
            expected = oracle_render(report, fmt)
            self._assert_same(cli.render(report, fmt), expected)
            out = io.StringIO()
            cli.render(report, fmt, out)
            self._assert_same(out.getvalue(), expected + "\n")

    @pytest.mark.parametrize("name, mode, radius, lam", FIXTURE_RUNS,
                             ids=["%s-%s-%d-%s" % run for run in FIXTURE_RUNS])
    def test_fixture_reports(self, name, mode, radius, lam):
        report, code = cli.run(mode, fixture(name), box_radius=radius,
                               lambda_mode=lam)
        assert code == 0
        self._assert_matches(report)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_stdout_matches_the_oracle(self, capsys, fmt):
        report, _ = cli.run("curve", fixture("tripled_line.json"))
        code, out, err = run_cli(capsys, "curve", fixture("tripled_line.json"),
                                 "--format", fmt)
        assert (code, err) == (0, "")
        self._assert_same(out, oracle_render(report, fmt) + "\n")

    @given(small_curves(max_mult=3), st.sampled_from(["canonical", "full"]),
           st.integers(min_value=0, max_value=2))
    @settings(max_examples=20, deadline=None)
    def test_small_curves(self, X, lam, radius):
        # a box of at most 5^5 classes
        radius = _radius(ratcurve.picard_rank(X), radius, 5 ** 5)
        A, _, P = cli._curve_pipeline(X, radius, lam)
        self._assert_matches({"presentation": P.to_json(),
                              "lattice_rank": A.lattice.rank})

    @pytest.mark.parametrize("rank", [0, 1, 2, 3])
    def test_every_field_in_its_place(self, rank):
        # no two fields of a row are equal, and zero rows lie between the
        # others; prefixes and keys hold braces, which the templates escape
        rows = []
        for i in range(7):
            degree = tuple(10 * i + k - 5 for k in range(rank))
            rows.append((degree, 0, 0, 0, 0) if i % 3 else
                        (degree, 100 + i, 200 + i, 300 + i, 400 + i))
        cert = coxalg.Certificate.of(rows)
        assert len(cert.rows) == 3
        self._assert_matches({"presentation": {"certificate": cert},
                              "{0}": [{"x{": cert}], "n": 1})
        empty = coxalg.Certificate.of([])
        self._assert_matches({"a": {"certificate": empty}, "b": cert})

    @pytest.mark.parametrize("lam", ["canonical", "full"])
    def test_curve_run_reads_no_class_one_by_one(self, capsys, monkeypatch,
                                                 lam):
        # dimensions are read in box order by hilbert: a curve run makes no
        # component_dim or effective_nonzero call, and over the canonical
        # box, which repeats no class, no class_key
        counts = {"component_dim": 0, "effective_nonzero": 0, "class_key": 0}

        def counting(owner, name):
            honest = getattr(owner, name)

            def wrapped(self, *args):
                counts[name] += 1
                return honest(self, *args)

            monkeypatch.setattr(owner, name, wrapped)

        counting(coxalg.PicGradedAlgebra, "component_dim")
        counting(coxalg.PicGradedAlgebra, "effective_nonzero")
        counting(ratcurve.PicardData, "class_key")
        code, _, _ = run_cli(capsys, "curve", fixture("tripled_line.json"),
                             "--lambda", lam)
        assert code == 0
        assert counts == {"component_dim": 0, "effective_nonzero": 0,
                          "class_key": 0}
        code, _, _ = run_cli(capsys, "verify", fixture("tripled_line.json"),
                             "--box", "1", "--lambda", lam)
        assert code == 0
        assert counts["component_dim"] > 0

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_pipe_closed_after_the_first_read(self, tmp_path, fmt):
        # {3,3,2} at box 2 writes some MB; the reader takes one read and
        # closes, and the writer, blocked on the full pipe, exits 1
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        child = subprocess.Popen(
            [sys.executable, "-m", "coxring.cli", "curve", "--box", "2",
             "--format", fmt, _curve_file(tmp_path, (3, 3, 2))],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)
        try:
            first = child.stdout.read1(1 << 16)
            child.stdout.close()
            err = child.stderr.read().decode()
            code = child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        assert first.startswith(b"{" if fmt == "json" else b"lattice_rank")
        assert code == 1
        assert err == ""

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_failure_after_the_search_started_writes_nothing(self, tmp_path,
                                                             fmt):
        # the 40th certified class raises: the search has run, the report
        # is never begun
        script = (
            "import sys\n"
            "from coxring import cli, coxalg\n"
            "from coxring.ratcurve import InternalInconsistency\n"
            "honest, calls = coxalg._certified, []\n"
            "def failing(*args):\n"
            "    calls.append(1)\n"
            "    if len(calls) == 40:\n"
            "        raise InternalInconsistency('row 40')\n"
            "    return honest(*args)\n"
            "coxalg._certified = failing\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
        child = run_child(["-c", script, "curve", "--box", "2", "--format",
                           fmt, _curve_file(tmp_path, (3, 3, 2))],
                          timeout=60)
        assert child.returncode == 3
        assert child.stdout == ""
        assert child.stderr == "error: internal inconsistency: row 40\n"


class TestErrors:
    def test_closed_stdout_exits_one_without_traceback(self):
        # as under `| head`: the read end of stdout is closed before the
        # report is written
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        try:
            child = subprocess.run(
                [sys.executable, "-m", "coxring.cli", "curve", "--format",
                 "text", fixture("tripled_line.json")],
                env=dict(os.environ, PYTHONPATH=src), stdout=write_end,
                stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(write_end)
        assert child.returncode == 1
        assert "Traceback" not in child.stderr

    @pytest.mark.parametrize("mode", ["curve", "verify", "crosscheck"])
    def test_many_copies_are_refused_under_a_memory_limit(self, tmp_path,
                                                          mode):
        # one point of multiplicity 10^6 at box 0: a box of one class, but
        # lattices of 10^6 dense columns; refused by its copy count (verify
        # by its irrelevant elements) before any is built, within 2 GB of
        # address space
        resource = pytest.importorskip("resource")
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"special": [
            {"point": "0", "multiplicity": 10 ** 6}]}), encoding="utf-8")
        limit = 2000000 * 1024

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        started = time.perf_counter()
        child = subprocess.run(
            [sys.executable, "-m", "coxring.cli", mode, str(path), "--box",
             "0"], env=dict(os.environ, PYTHONPATH=src),
            preexec_fn=cap_address_space, capture_output=True, text=True,
            timeout=60)
        assert time.perf_counter() - started < 5
        assert child.returncode == 1
        assert child.stdout == ""
        assert "Traceback" not in child.stderr
        assert child.stderr.startswith("error:")
        assert child.stderr.count("\n") == 1
        if mode != "verify":
            assert child.stderr == (
                "error: the curve has 1000000 copies of special points, "
                "more than 4000\n")

    def test_copy_limit_is_inclusive(self):
        def curve(copies):
            return curve_from_json({"special": [
                {"point": "0", "multiplicity": copies - 1},
                {"point": "inf", "multiplicity": 1}]})

        assert grading.MAX_CURVE_COPIES == 4000
        cli._refuse_large_curve(curve(4000), 0)
        with pytest.raises(BoxTooLarge, match="has 4001 copies"):
            cli._refuse_large_curve(curve(4001), 0)

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "curve", "/no/such/file.json")
        assert code == 1
        assert err.startswith("error:")

    def test_wrong_input_kind(self, capsys):
        code, _, err = run_cli(capsys, "curve", fixture("plane_fan.json"))
        assert code == 1
        assert "special" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "toric", str(path))
        assert code == 1
        assert "not valid JSON" in err

    def test_empty_curve(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"special": []}))
        code, out, err = run_cli(capsys, "curve", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "at least one" in err
        assert "Traceback" not in err

    def test_malformed_fan(self, capsys, tmp_path):
        path = tmp_path / "fan.json"
        path.write_text(json.dumps({"rank": 2, "rays": [[2, 4]],
                                    "max_cones": [[0]]}))
        code, _, err = run_cli(capsys, "toric", str(path))
        assert code == 1
        assert "primitive" in err

    def test_negative_box_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["curve", fixture("plain_line.json"), "--box", "-1"])
        assert info.value.code == 1

    def test_unknown_mode(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["frobnicate", "x.json"])
        assert info.value.code == 1

    @pytest.mark.parametrize("name", ["doubled_line.json", "mixed_line.json",
                                      "plain_line.json", "tripled_line.json"])
    def test_box_too_small(self, capsys, monkeypatch, name):
        # a radius-0 box holds no irrelevant element: refused before any
        # lattice is built
        built = []
        monkeypatch.setattr(cli, "curve_algebra",
                            lambda *a, **k: built.append(a))
        code, out, err = run_cli(capsys, "verify", fixture(name), "--box", "0")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--box 1 or more" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert built == []

    def test_box_zero_on_a_fan(self, capsys):
        code, out, _ = run_cli(capsys, "verify", fixture("plane_fan.json"),
                               "--box", "0")
        assert code == 0
        assert json.loads(out)["all_passed"] is True

    def test_box_too_large(self, capsys, tmp_path):
        # two points of multiplicity 6: eleven box generators, 5^11 vectors
        path = tmp_path / "sixes.json"
        path.write_text(json.dumps({"special": [
            {"point": "0", "multiplicity": 6},
            {"point": "inf", "multiplicity": 6}]}))
        code, out, err = run_cli(capsys, "curve", str(path), "--box", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "more than 1000000" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_internal_inconsistency_exits_three(self, capsys, monkeypatch):
        def inconsistent(*args, **kwargs):
            raise InternalInconsistency("representatives disagree on rank")

        monkeypatch.setattr(cli, "curve_algebra", inconsistent)
        code, out, err = run_cli(capsys, "curve", fixture("plain_line.json"))
        assert code == 3
        assert out == ""
        assert err == ("error: internal inconsistency: representatives "
                       "disagree on rank\n")

    def test_wrong_principal_witness_exits_three(self, capsys, monkeypatch):
        # the full lattice's shifting family asks for kernel witnesses
        honest = ratcurve.order_polynomials
        monkeypatch.setattr(ratcurve, "order_polynomials",
                            lambda orders: honest(orders)[::-1])
        code, out, err = run_cli(capsys, "crosscheck",
                                 fixture("tripled_line.json"), "--box", "1")
        assert code == 3
        assert out == ""
        assert err == ("error: internal inconsistency: principal witness "
                       "fails verification\n")


class TestStartUp:
    def test_no_mode_imports_sympy(self):
        # a fresh process: other test modules import sympy in this one
        runs = [["curve", fixture("tripled_line.json")],
                ["toric", fixture("plane_fan.json")],
                ["verify", fixture("doubled_line.json")],
                ["crosscheck", fixture("tripled_line.json")]]
        code = (
            "import contextlib, io, json, sys\n"
            "from coxring import cli\n"
            "for args in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(args + ['--box', '1']) == 0, args\n"
            "print('sympy' in sys.modules)\n")
        child = run_child(["-c", code, json.dumps(runs)], timeout=120)
        assert child.returncode == 0, child.stderr
        assert child.stdout == "False\n"

    def test_no_runtime_dependencies(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
        root = pathlib.Path(cli.__file__).resolve().parents[2]
        with open(root / "pyproject.toml", "rb") as handle:
            project = tomllib.load(handle)["project"]
        assert project["dependencies"] == []
        assert any(req.startswith("sympy")
                   for req in project["optional-dependencies"]["test"])

    def test_large_semiprime_point_is_not_factored(self, tmp_path):
        # a 62-digit semiprime, the product of two 31-digit primes: a root
        # search by factoring its divisors does not finish here
        p = 3005450223913743454122006859421
        q = 8715912062659141526792386114381
        path = tmp_path / "semiprime.json"
        path.write_text(json.dumps({"special": [
            {"point": str(p * q), "multiplicity": 2},
            {"point": "0", "multiplicity": 2}]}), encoding="utf-8")
        child = run_child(["-m", "coxring.cli", "curve", str(path),
                           "--box", "1"], timeout=20)
        assert child.returncode == 0, child.stderr

    @pytest.mark.parametrize("mode", ["curve", "verify", "crosscheck"])
    def test_wide_curve_box_is_refused_up_front(self, tmp_path, mode):
        # 401 box generators: 3^401 vectors at radius 1, refused before the
        # class group and the lattices of 402 copies are built
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"special": [
            {"point": "0", "multiplicity": 400},
            {"point": "inf", "multiplicity": 2}]}), encoding="utf-8")
        child = run_child(["-m", "coxring.cli", mode, str(path),
                           "--box", "1"], timeout=20)
        assert child.returncode == 1
        assert child.stdout == ""
        assert child.stderr.startswith("error:")
        assert "over 401 generators" in child.stderr
        assert child.stderr.count("\n") == 1

    @pytest.mark.parametrize("mode", ["curve", "crosscheck"])
    def test_huge_multiplicity_box_count_is_not_built(self, tmp_path, mode):
        # 5^(10^23) coefficient vectors: refused by multiplying only until
        # the limit is passed, in a fraction of a second rather than never
        k = 99999999999999999999999
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"special": [
            {"point": "0", "multiplicity": k}]}), encoding="utf-8")
        started = time.perf_counter()
        child = run_child(["-m", "coxring.cli", mode, str(path)], timeout=20)
        assert time.perf_counter() - started < 5
        assert child.returncode == 1
        assert child.stdout == ""
        assert child.stderr == (
            "error: a box of radius 2 over %d generators lists 5^%d "
            "coefficient vectors, more than 1000000\n" % (k, k))

    def test_many_generators_at_box_zero(self, tmp_path):
        # 1000 box generators, past the recursion limit a walk with one
        # level per generator hits; the report is that of multiplicity 900
        # with the number of generators moved
        reports = {}
        for k in (900, 1000):
            path = tmp_path / ("m%d.json" % k)
            path.write_text(json.dumps({"special": [
                {"point": "0", "multiplicity": k}]}), encoding="utf-8")
            for mode in ("curve", "crosscheck"):
                child = run_child(["-m", "coxring.cli", mode, str(path),
                                   "--box", "0"], timeout=60)
                assert child.returncode == 0, child.stderr
                assert child.stderr == ""
                reports[mode, k] = json.loads(child.stdout)
        expected = reports["curve", 900]
        expected["lattice_rank"] = expected["picard"]["rank"] = 1000
        expected["presentation"]["grading"]["rank"] = 1000
        [row] = expected["presentation"]["certificate"]
        assert row == {"degree": [0] * 900, "dim": 1, "ideal_span": 0,
                       "kernel": 0, "monomials": 1}
        row["degree"] = [0] * 1000
        assert reports["curve", 1000] == expected
        assert reports["crosscheck", 1000] == reports["crosscheck", 900]
        assert reports["crosscheck", 1000]["result"]["classes"] == 1

    def test_huge_multiplicity_loads_small_and_is_refused(self, tmp_path):
        # a point of multiplicity 10^6: the curve keeps one offset per
        # special point, not one entry per copy
        data = {"special": [{"point": "0", "multiplicity": 10 ** 6}]}
        tracemalloc.start()
        try:
            curve_from_json(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(BoxTooLarge, match="over 1000000 generators"):
            cli.run("curve", str(path), box_radius=1)
