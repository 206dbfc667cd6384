"""Tests for fans, class groups, toric coordinate rings, and product fans.

Expected class groups and Hilbert counts come from closed forms: the
projective line and plane are graded by the total degree, products are
graded componentwise, and the two-ray cone over (1,0),(1,2) has the order
two quotient read off from the diagonal form of its ray matrix.  The
one-pass Hilbert count and the wall certificate of a fan are fast paths;
each is checked against the path it skips, the count by class and the
pairwise loop, switched on by patching the fast path off.
"""

import json
import math
import pathlib
import random
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from coxring import cli, exactmath, toric
from coxring.coxalg import curve_algebra, default_box, freely_graded_check
from coxring.exactmath import (UnboundedEnumeration, enumerate_monomials,
                               positive_functional)
from coxring.ratcurve import curve_from_json
from coxring.toric import (
    Fan,
    MalformedFan,
    class_group,
    cox_presentation,
    fan_from_json,
    toric_cox_data,
)

from test_cli import run_child

from conveniences import (
    affine_line_fan,
    fan_to_json,
    hilbert_toric,
    hirzebruch_fan,
    line_fan,
    plane_fan,
    point_fan,
    product_fan,
    quadric_cone_fan,
    tensor_presentation,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


class TestFan:
    def test_fixture_shapes(self):
        assert len(line_fan().rays) == 2
        assert len(plane_fan().rays) == 3
        assert len(hirzebruch_fan().max_cones) == 4
        assert point_fan().rays == ()

    def test_zero_ray_rejected(self):
        with pytest.raises(MalformedFan, match="zero"):
            Fan(2, [(0, 0)], [[0]])

    def test_non_primitive_ray_rejected(self):
        with pytest.raises(MalformedFan, match="primitive"):
            Fan(2, [(2, 4)], [[0]])

    def test_duplicate_rays_rejected(self):
        with pytest.raises(MalformedFan, match="distinct"):
            Fan(1, [(1,), (1,)], [[0], [1]])

    def test_wrong_ray_length_rejected(self):
        with pytest.raises(MalformedFan, match="coordinates"):
            Fan(2, [(1,)], [[0]])

    def test_cone_index_out_of_range(self):
        with pytest.raises(MalformedFan, match="out of range"):
            Fan(1, [(1,)], [[1]])

    def test_repeated_index_in_cone(self):
        with pytest.raises(MalformedFan, match="repeats"):
            Fan(1, [(1,)], [[0, 0]])

    def test_uncovered_ray_rejected(self):
        with pytest.raises(MalformedFan, match="no maximal cone"):
            Fan(1, [(1,), (-1,)], [[0]])

    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_no_maximal_cone_rejected(self, rank):
        # a fan holds at least the zero cone; the torus is [[]]
        with pytest.raises(MalformedFan,
                           match=r"no maximal cone; .*max_cones \[\[\]\]$"):
            fan_from_json({"rank": rank, "rays": [], "max_cones": []})
        assert fan_from_json(
            {"rank": rank, "rays": [], "max_cones": [[]]}).max_cones == ((),)

    def test_rays_without_cones_keep_their_message(self):
        with pytest.raises(MalformedFan,
                           match=r"^rays \[0\] belong to no maximal cone$"):
            Fan(1, [(1,)], [])

    @pytest.mark.parametrize("mode", ["toric", "verify"])
    def test_no_maximal_cone_exits_one(self, tmp_path, capsys, mode):
        path = tmp_path / "fan.json"
        path.write_text(json.dumps({"rank": 1, "rays": [], "max_cones": []}))
        assert cli.main([mode, str(path), "--box", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no maximal cone" in captured.err
        assert "Traceback" not in captured.err

    def test_negative_rank_rejected(self):
        with pytest.raises(MalformedFan, match="rank"):
            Fan(-1, [], [[]])

    def test_cone_containing_a_line_rejected(self):
        with pytest.raises(MalformedFan, match="strongly convex"):
            Fan(1, [(1,), (-1,)], [[0, 1]])

    # (1, 1) = (1, 0) + (0, 1) is listed as a ray but is not extremal
    RAY_INSIDE = {"rank": 2, "rays": [[1, 0], [1, 1], [0, 1]],
                  "max_cones": [[0, 1, 2]]}

    def test_ray_inside_the_cone_rejected(self):
        with pytest.raises(MalformedFan, match="ray 1 lies in the cone"):
            fan_from_json(self.RAY_INSIDE)

    def test_ray_inside_the_cone_exits_one(self, tmp_path, capsys):
        path = tmp_path / "fan.json"
        path.write_text(json.dumps(self.RAY_INSIDE))
        assert cli.main(["verify", str(path), "--box", "1"]) == 1
        assert "lies in the cone" in capsys.readouterr().err

    # cone((1,0),(0,1)) and cone((1,0),(1,1)) share the ray (1,0) but meet
    # in cone((1,0),(1,1)); the second pair shares no ray and meets in
    # cone((0,1),(1,1))
    OVERLAPPING = [{"rank": 2, "rays": [[1, 0], [0, 1], [1, 1]],
                    "max_cones": [[0, 1], [0, 2]]},
                   {"rank": 2, "rays": [[1, 0], [0, 1], [1, 1], [-1, 1]],
                    "max_cones": [[0, 1], [2, 3]]}]

    @pytest.mark.parametrize("data", OVERLAPPING)
    def test_overlapping_cones_rejected(self, data):
        with pytest.raises(MalformedFan, match="cones 0 and 1 overlap"):
            fan_from_json(data)

    def test_overlapping_cones_exit_one(self, tmp_path, capsys):
        path = tmp_path / "fan.json"
        path.write_text(json.dumps(self.OVERLAPPING[0]))
        assert cli.main(["verify", str(path), "--box", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overlap" in captured.err and "Traceback" not in captured.err

    def test_cones_meeting_in_a_face_accepted(self):
        # opposite quadrants meet only at the origin
        Fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [[0, 1], [2, 3]])

    # a cone listed twice, and a face of the plane's first cone listed
    # beside it: neither is maximal, and the face would add the irrelevant
    # monomial T2*T3
    NOT_MAXIMAL = [({"rank": 2, "rays": [[1, 0], [0, 1]],
                     "max_cones": [[0, 1], [1, 0]]}, "cone 1 lies in cone 0"),
                   ({"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                     "max_cones": [[0, 1], [1, 2], [0, 2], [0]]},
                    "cone 3 lies in cone 0")]

    @pytest.mark.parametrize("data, message", NOT_MAXIMAL,
                             ids=["repeated", "face"])
    def test_non_maximal_cone_rejected(self, data, message):
        with pytest.raises(MalformedFan, match=message):
            fan_from_json(data)

    @pytest.mark.parametrize("data, message", NOT_MAXIMAL,
                             ids=["repeated", "face"])
    def test_non_maximal_cone_exits_one(self, tmp_path, capsys, data,
                                        message):
        path = tmp_path / "fan.json"
        path.write_text(json.dumps(data))
        assert cli.main(["verify", str(path), "--box", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err and "Traceback" not in captured.err

    def test_non_simplicial_cone_accepted(self):
        # the cone over a square: four extremal, linearly dependent rays
        fan = Fan(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)],
                  [[0, 1, 2, 3]])
        assert fan.max_cones == ((0, 1, 2, 3),)

    def test_equality_and_hash(self):
        assert line_fan() == line_fan()
        assert hash(line_fan()) == hash(line_fan())
        assert line_fan() != affine_line_fan()

    def test_immutable(self):
        fan = line_fan()
        with pytest.raises(AttributeError):
            fan.rays = ()


class TestJson:
    def test_round_trip(self):
        for fan in (line_fan(), plane_fan(), hirzebruch_fan(),
                    quadric_cone_fan(), point_fan()):
            assert fan_from_json(fan_to_json(fan)) == fan

    def test_missing_field(self):
        with pytest.raises(MalformedFan, match="rays"):
            fan_from_json({"rank": 1, "max_cones": []})

    def test_unknown_field(self):
        data = fan_to_json(line_fan())
        data["extra"] = 1
        with pytest.raises(MalformedFan, match="extra"):
            fan_from_json(data)

    def test_non_integer_entries(self):
        with pytest.raises(MalformedFan, match="integers"):
            fan_from_json({"rank": 1, "rays": [[1.5]], "max_cones": [[0]]})

    @pytest.mark.parametrize("data", [
        {"rank": True, "rays": [[1], [-1]], "max_cones": [[0], [1]]},
        {"rank": 1, "rays": [[True], [-1]], "max_cones": [[0], [1]]},
        {"rank": 1, "rays": [[1], [-1]], "max_cones": [[False], [1]]},
    ])
    def test_booleans_are_not_integers(self, data):
        with pytest.raises(MalformedFan, match="integer"):
            fan_from_json(data)

    def test_not_an_object(self):
        with pytest.raises(MalformedFan, match="object"):
            fan_from_json([1, 2])

    def test_rays_not_nested_lists(self):
        with pytest.raises(MalformedFan, match="list of lists"):
            fan_from_json({"rank": 1, "rays": [1], "max_cones": [[0]]})


class TestClassGroup:
    def test_line(self):
        group, degrees = class_group(line_fan())
        assert group.describe() == {"rank": 1, "invariant_factors": []}
        assert group.same_class(degrees[0], degrees[1])

    def test_plane(self):
        group, degrees = class_group(plane_fan())
        assert group.describe() == {"rank": 1, "invariant_factors": []}
        for d in degrees[1:]:
            assert group.same_class(degrees[0], d)

    def test_product_of_lines(self):
        group, _ = class_group(product_fan(line_fan(), line_fan()))
        assert group.describe() == {"rank": 2, "invariant_factors": []}

    def test_hirzebruch(self):
        group, _ = class_group(hirzebruch_fan())
        assert group.describe() == {"rank": 2, "invariant_factors": []}

    def test_quadric_cone_has_torsion(self):
        group, degrees = class_group(quadric_cone_fan())
        assert group.describe() == {"rank": 0, "invariant_factors": [2]}
        assert group.same_class(degrees[0], degrees[1])
        assert not group.contains_zero(degrees[0])
        assert group.contains_zero((1, 1))

    def test_affine_line_is_trivial(self):
        group, _ = class_group(affine_line_fan())
        assert group.describe() == {"rank": 0, "invariant_factors": []}

    def test_character_rows_die(self):
        for fan in (line_fan(), plane_fan(), hirzebruch_fan(),
                    quadric_cone_fan()):
            group, _ = class_group(fan)
            for j in range(fan.rank):
                row = tuple(ray[j] for ray in fan.rays)
                assert group.contains_zero(row)


class TestCoxData:
    def test_plane_irrelevant_is_all_variables(self):
        data = toric_cox_data(plane_fan())
        assert sorted(data.irrelevant_monomials) == [
            (0, 0, 1), (0, 1, 0), (1, 0, 0)]
        assert sorted(str(p) for p in data.irrelevant_polynomials()) == [
            "T1", "T2", "T3"]

    def test_line_irrelevant(self):
        data = toric_cox_data(line_fan())
        assert sorted(data.irrelevant_monomials) == [(0, 1), (1, 0)]

    def test_hirzebruch_irrelevant(self):
        data = toric_cox_data(hirzebruch_fan())
        assert sorted(data.irrelevant_monomials) == [
            (0, 0, 1, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 0, 0)]

    def test_cone_irrelevant_is_the_unit(self):
        data = toric_cox_data(quadric_cone_fan())
        assert data.irrelevant_monomials == ((0, 0),)
        assert str(data.irrelevant_polynomials()[0]) == "1"

    def test_immutable(self):
        data = toric_cox_data(line_fan())
        with pytest.raises(AttributeError):
            data.fan = None


FAN_FIXTURES = sorted(path.name for path in FIXTURES.glob("*_fan.json"))

# fans beyond the fixtures: P(1,1,2), F2, F3 and P1 x P2 take the one-pass
# count; P2/Z3 and a fake projective plane (torsion in the class group),
# F1 with its rays reordered (a ray class with a negative coordinate over
# the kept basis) and the torus (a zero class group) take the count by
# class.  The fake plane's class group is Z + Z/2, and read as Z^2 its
# kept keys are a basis in which every ray has nonnegative coordinates.
EXTRA_FANS = {
    "p112": {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -2]],
             "max_cones": [[0, 1], [1, 2], [0, 2]]},
    "f2": {"rank": 2, "rays": [[1, 0], [0, 1], [-1, 2], [0, -1]],
           "max_cones": [[0, 1], [1, 2], [2, 3], [0, 3]]},
    "f3": {"rank": 2, "rays": [[1, 0], [0, 1], [-1, 3], [0, -1]],
           "max_cones": [[0, 1], [1, 2], [2, 3], [0, 3]]},
    "p1xp2": {"rank": 3,
              "rays": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1],
                       [0, -1, -1]],
              "max_cones": [[0, 2, 3], [0, 3, 4], [0, 2, 4], [1, 2, 3],
                            [1, 3, 4], [1, 2, 4]]},
    "p2_mod_3": {"rank": 2, "rays": [[-1, -1], [2, -1], [-1, 2]],
                 "max_cones": [[0, 1], [1, 2], [0, 2]]},
    "fake_plane": {"rank": 2, "rays": [[-3, -2], [1, 2], [1, 0]],
                   "max_cones": [[0, 2], [1, 2], [0, 1]]},
    "f1_reordered": {"rank": 2, "rays": [[0, -1], [0, 1], [1, 0], [-1, 1]],
                     "max_cones": [[0, 2], [1, 2], [1, 3], [0, 3]]},
    "torus": {"rank": 0, "rays": [], "max_cones": [[]]},
}
# the fans of EXTRA_FANS and the fixtures that count class by class
COUNT_FALLBACK = ["p2_mod_3", "fake_plane", "f1_reordered", "torus",
                  "torsion_fan.json", "affine_fan.json"]


def load_fan(name):
    data = (EXTRA_FANS[name] if name in EXTRA_FANS
            else json.loads((FIXTURES / name).read_text()))
    return fan_from_json(data)


def by_class(fan, radius):
    """cox_presentation with the one-pass count switched off: the box and
    one Fourier-Motzkin count per class, as before the one-pass count."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(toric, "_counts_in_one_pass", lambda *args: None)
        return cox_presentation(fan, radius)


def presented(data, radius, name):
    """cox_presentation of the fan data (validated inside) and how often
    toric.<name> ran for it."""
    calls = []
    original = getattr(toric, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(toric, name, counting)
        return cox_presentation(fan_from_json(data), radius), len(calls)


class TestCoxPresentation:
    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    @pytest.mark.parametrize("name", FAN_FIXTURES + sorted(EXTRA_FANS))
    def test_rows_against_the_listing(self, name, radius):
        # one row (D, n, n, 0, 0) per box class with finitely many
        # monomials, n of them listed; rows of zeros are not stored.  The
        # box holds each class of the kept degrees' combinations once.
        fan = load_fan(name)
        P = cox_presentation(fan, radius)
        data = toric_cox_data(fan)
        group = data.class_group
        expected = []
        for D in P.box:
            try:
                n = len(enumerate_monomials(
                    list(data.degree_of_ray), D, relations=group.relations))
            except UnboundedEnumeration:
                continue
            expected.append((D, n, n, 0, 0))
        assert list(P.certificate) == expected
        assert sorted(P.certificate.rows) == [
            i for i, row in enumerate(expected) if row[1]]
        keys = [group.class_key(D) for D in P.box]
        assert len(set(keys)) == len(keys)

    @settings(max_examples=40, deadline=None)
    @given(st.deferred(lambda: one_pass_products()), st.integers(0, 2))
    def test_one_pass_against_the_count_by_class(self, data, radius):
        P, calls = presented(data, radius, "count_monomials")
        assert calls == 0
        Q = by_class(fan_from_json(data), radius)
        assert P.box == Q.box
        assert list(P.certificate) == list(Q.certificate)

    def test_plane(self):
        P = cox_presentation(plane_fan())
        assert P.generators == (((1, 0, 0), None), ((0, 1, 0), None),
                                ((0, 0, 1), None))
        assert P.relations == ()
        rows = {row[0]: row[2] for row in P.certificate}
        assert rows[(0, 0, 0)] == 1
        assert rows[(1, 0, 0)] == 3
        assert rows[(2, 0, 0)] == 6
        assert rows[(-1, 0, 0)] == 0

    def test_affine_line_has_no_certified_rows(self):
        P = cox_presentation(affine_line_fan())
        assert P.generators == (((1,), None),)
        assert list(P.certificate) == []

    def test_cone_box_covers_both_classes(self):
        P = cox_presentation(quadric_cone_fan())
        group, _ = class_group(quadric_cone_fan())
        keys = {group.class_key(c) for c in P.box}
        assert len(keys) == 2

    def test_freely_graded_on_smooth_complete_fans(self):
        for fan in (line_fan(), plane_fan(),
                    product_fan(line_fan(), line_fan()), hirzebruch_fan()):
            P = cox_presentation(fan)
            irr = toric_cox_data(fan).irrelevant_polynomials()
            assert freely_graded_check(P, irr, 4).verdict == "pass"

    def test_cone_is_not_confirmed_freely_graded(self):
        P = cox_presentation(quadric_cone_fan())
        irr = toric_cox_data(quadric_cone_fan()).irrelevant_polynomials()
        assert freely_graded_check(P, irr, 4).verdict == "inconclusive"


class TestHilbert:
    def test_line_counts(self):
        for n in range(6):
            assert hilbert_toric(line_fan(), (n, 0)) == n + 1

    def test_plane_counts(self):
        for n in range(6):
            assert hilbert_toric(plane_fan(), (n, 0, 0)) == math.comb(
                n + 2, 2)

    def test_negative_class_is_empty(self):
        assert hilbert_toric(line_fan(), (-1, 0)) == 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 4))
    def test_product_multiplicativity(self, a, b):
        pf = product_fan(line_fan(), line_fan())
        assert hilbert_toric(pf, (a, 0, b, 0)) == (a + 1) * (b + 1)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 3))
    def test_line_times_plane_multiplicativity(self, a, b):
        pf = product_fan(line_fan(), plane_fan())
        left = hilbert_toric(pf, (a, 0, b, 0, 0))
        assert left == (a + 1) * math.comb(b + 2, 2)

    def test_unbounded_without_bound(self):
        with pytest.raises(UnboundedEnumeration):
            hilbert_toric(affine_line_fan(), (0,))

    def test_bounded_affine_count(self):
        assert hilbert_toric(affine_line_fan(), (0,), bound=5) == 6

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            hilbert_toric(line_fan(), (1, 0, 0))


class TestCurveOracle:
    def test_plain_line_matches_the_projective_line(self):
        # the plain glued line is P^1; its class-graded components have the
        # dimensions of the toric ring of the fan of P^1
        X = curve_from_json(json.loads(FIXTURES.joinpath(
            "plain_line.json").read_text()))
        A = curve_algebra(X)
        box = default_box(X, 3)
        assert sorted(D[0] for D in box) == list(range(-3, 4))
        for D in box:
            assert A.component_dim(D) == hilbert_toric(line_fan(), (D[0], 0))


class TestProductFan:
    def test_line_times_line(self):
        pf = product_fan(line_fan(), line_fan())
        assert pf.rays == ((1, 0), (-1, 0), (0, 1), (0, -1))
        assert pf.max_cones == ((0, 2), (0, 3), (1, 2), (1, 3))

    def test_line_times_plane(self):
        pf = product_fan(line_fan(), plane_fan())
        assert len(pf.rays) == 5
        group, _ = class_group(pf)
        assert group.describe() == {"rank": 2, "invariant_factors": []}

    def test_point_is_the_unit(self):
        assert product_fan(point_fan(), line_fan()) == line_fan()
        assert product_fan(line_fan(), point_fan()) == line_fan()
        assert product_fan(point_fan(), point_fan()) == point_fan()


class TestStructuralEquality:
    def test_tensor_matches_product_fan(self):
        P = cox_presentation(line_fan())
        T = tensor_presentation(P, P)
        C = cox_presentation(product_fan(line_fan(), line_fan()))
        assert T.grading.ambient_rank == C.grading.ambient_rank
        assert list(T.grading.relations) == list(C.grading.relations)
        assert T.generators == C.generators
        assert T.relations == C.relations
        assert set(T.box) == set(C.box)
        tc = {row[0]: row for row in T.certificate}
        cc = {row[0]: row for row in C.certificate}
        assert tc == cc


# P1xP1xP1xP1 after a unimodular change of lattice coordinates that skews
# its rays: the class group and every count, so the report, are unchanged
SKEWED_P1_4_RAYS = [[1, 0, 0, 0], [-1, 0, 0, 0], [-1, 1, 0, 0], [1, -1, 0, 0],
                    [-1, -1, 1, 0], [1, 1, -1, 0], [1, 1, 1, 1],
                    [-1, -1, -1, -1]]


class TestSkewedFan:
    def test_report_equals_unskewed(self, tmp_path):
        square = product_fan(line_fan(), line_fan())
        p1_4 = fan_to_json(product_fan(square, square))
        skewed = dict(p1_4, rays=SKEWED_P1_4_RAYS)
        reports = []
        for name, data in (("p1_4", p1_4), ("skewed", skewed)):
            path = tmp_path / (name + ".json")
            path.write_text(json.dumps(data))
            report, code = cli.run("toric", str(path), box_radius=2)
            assert code == 0
            reports.append(cli.render(report, "json"))
        assert reports[0] == reports[1]


def fan_verdict(data, fm_only=False):
    """"accepted", or the message of the MalformedFan that rejects data;
    with fm_only, every cone and pair is decided by Fourier-Motzkin."""
    with pytest.MonkeyPatch.context() as mp:
        if fm_only:
            mp.setattr(toric, "_dual_basis", lambda rays, rank: None)
        try:
            Fan(data["rank"], data["rays"], data["max_cones"])
        except MalformedFan as exc:
            return str(exc)
    return "accepted"


def assert_same_verdict(data):
    verdict = fan_verdict(data)
    assert verdict == fan_verdict(data, fm_only=True)
    return verdict


def primitive(v):
    g = math.gcd(*v)
    return tuple(x // g for x in v) if g else None


@st.composite
def unimodular(draw, n):
    """A signed permutation times a product of elementary shears."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
        i, j = draw(st.sampled_from([(i, j) for i in range(n)
                                     for j in range(n) if i != j]))
        c = draw(st.sampled_from((-2, -1, 1, 2)))
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    return [[signs[i] * x for x in g[perm[i]]] for i in range(n)]


def transformed(fan, g):
    data = fan_to_json(fan)
    data["rays"] = [[sum(a * b for a, b in zip(row, r)) for row in g]
                    for r in data["rays"]]
    return data


FACTORS = {"line": line_fan, "plane": plane_fan, "f1": hirzebruch_fan,
           "cone": quadric_cone_fan, "affine": affine_line_fan}


@st.composite
def product_fans(draw):
    names = draw(st.lists(st.sampled_from(sorted(FACTORS)), min_size=1,
                          max_size=3))
    fan = point_fan()
    for name in names:
        fan = product_fan(fan, FACTORS[name]())
    return transformed(fan, draw(unimodular(fan.rank)))


@st.composite
def random_simplicial_fans(draw, n):
    """Random primitive rays in rank n and random cones of at most n of
    them.  Mostly the cones are tidied first (no cone inside another, no
    unused ray), so that the cone and pair checks decide; the rest keep
    their repeated, contained and uncovered cases."""
    rays = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n),
                         min_size=1, max_size=7))
    rays = list(dict.fromkeys(r for r in map(primitive, rays) if r))
    if not rays:
        rays = [tuple(int(i == 0) for i in range(n))]
    cones = draw(st.lists(
        st.lists(st.integers(0, len(rays) - 1), min_size=1, max_size=n,
                 unique=True), min_size=1, max_size=6))
    if draw(st.integers(0, 3)) < 3:
        sets = list(dict.fromkeys(frozenset(c) for c in cones))
        cones = [sorted(c) for c in sets if not any(c < d for d in sets)]
        used = sorted({j for c in cones for j in c})
        index = {j: k for k, j in enumerate(used)}
        rays = [rays[j] for j in used]
        cones = [[index[j] for j in c] for c in cones]
    return {"rank": n, "rays": [list(r) for r in rays], "max_cones": cones}


@st.composite
def plane_fans(draw):
    """Rays sorted by angle, each cone two neighbours less than a half-turn
    apart: always a fan, complete when no gap is a half-turn or more."""
    rays = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                         min_size=2, max_size=7))
    rays = sorted(set(r for r in map(primitive, rays) if r),
                  key=lambda r: math.atan2(r[1], r[0]))
    pairs = [(i, (i + 1) % len(rays)) for i in range(len(rays))]
    cones = [[i, j] for i, j in pairs
             if rays[i][0] * rays[j][1] - rays[i][1] * rays[j][0] > 0]
    if not cones:
        return {"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}
    used = sorted({j for c in cones for j in c})
    index = {j: k for k, j in enumerate(used)}
    return {"rank": 2, "rays": [list(rays[j]) for j in used],
            "max_cones": [[index[j] for j in c] for c in cones]}


class TestDualBasisOracle:
    """Fan validation by dual bases against Fourier-Motzkin for every cone
    and pair: the same verdict and the same message."""

    @settings(max_examples=60, deadline=None)
    @given(product_fans())
    def test_unimodular_images_of_products(self, data):
        assert assert_same_verdict(data) == "accepted"

    @settings(max_examples=80, deadline=None)
    @given(random_simplicial_fans(2))
    def test_random_plane_fans(self, data):
        assert_same_verdict(data)

    @settings(max_examples=80, deadline=None)
    @given(random_simplicial_fans(3))
    def test_random_space_fans(self, data):
        assert_same_verdict(data)

    @settings(max_examples=60, deadline=None)
    @given(plane_fans())
    def test_plane_fans_by_angle(self, data):
        assert assert_same_verdict(data) == "accepted"

    @pytest.mark.parametrize("data", [
        *TestFan.OVERLAPPING, TestFan.RAY_INSIDE,
        *(data for data, _ in TestFan.NOT_MAXIMAL),
        {"rank": 3, "rays": [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]],
         "max_cones": [[0, 1, 2, 3]]},
        {"rank": 1, "rays": [[1], [-1]], "max_cones": [[0, 1]]},
        {"rank": 2, "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
         "max_cones": [[0, 1], [2, 3]]}],
        ids=["overlapping-shared-ray", "overlapping-apart", "ray-inside",
             "repeated", "face", "non-simplicial", "line", "opposite"])
    def test_fan_cases(self, data):
        assert_same_verdict(data)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_dual_basis_pairs_to_a_positive_diagonal(self, rays):
        dual = toric._dual_basis(rays, len(rays))
        det = sympy.Matrix(rays).det()
        assert (dual is None) == (det == 0)
        if dual is not None:
            pairing = [[sum(a * b for a, b in zip(u, r)) for r in rays]
                       for u in dual]
            d = pairing[0][0]
            assert d == abs(det)
            assert pairing == [[d * (i == j) for j in range(len(rays))]
                               for i in range(len(rays))]

    def test_non_square_cones_have_no_dual_basis(self):
        assert toric._dual_basis([(1, 0, 0), (0, 1, 0)], 3) is None
        assert toric._dual_basis([], 1) is None
        assert toric._dual_basis([], 0) == []


class TestFanCallCount:
    """Fans whose cones are all full-dimensional and simplicial are
    validated without Fourier-Motzkin."""

    @staticmethod
    def _calls(data):
        calls = []

        def counting(*args):
            calls.append(args)
            return positive_functional(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(toric, "positive_functional", counting)
            Fan(data["rank"], data["rays"], data["max_cones"])
        return len(calls)

    def test_products_and_skewed_fan(self):
        square = product_fan(line_fan(), line_fan())
        p1_4 = fan_to_json(product_fan(square, square))
        p2_2 = fan_to_json(product_fan(plane_fan(), plane_fan()))
        for data in (p1_4, p2_2, dict(p1_4, rays=SKEWED_P1_4_RAYS)):
            assert self._calls(data) == 0

    def test_non_simplicial_cone_reaches_fourier_motzkin(self):
        square = {"rank": 3,
                  "rays": [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]],
                  "max_cones": [[0, 1, 2, 3]]}
        assert self._calls(square) > 0


def projective_space_fan(a):
    """P^a: the unit vectors and minus their sum, every a of them a cone."""
    rays = [tuple(int(i == j) for j in range(a)) for i in range(a)]
    return Fan(a, rays + [(-1,) * a], combinations(range(a + 1), a))


def weighted_plane_fan():
    """P(1,1,2): (1,0) + 2 (0,1) + (-1,-2) = 0 gives the weights 1, 2, 1."""
    return Fan(2, [(1, 0), (0, 1), (-1, -2)], [[0, 1], [1, 2], [0, 2]])


ONE_PASS_FACTORS = st.one_of(
    st.integers(1, 3).map(projective_space_fan),
    st.integers(0, 4).map(hirzebruch_fan),
    st.just(weighted_plane_fan()))


@st.composite
def one_pass_products(draw):
    """Products of one to three of P^a (a <= 3), F_a (a <= 4) and
    P(1,1,2) under a drawn unimodular change of lattice coordinates."""
    fan = point_fan()
    for factor in draw(st.lists(ONE_PASS_FACTORS, min_size=1, max_size=3)):
        fan = product_fan(fan, factor)
    return transformed(fan, draw(unimodular(fan.rank)))


def benchmark_transform(seed, n):
    """A seeded signed permutation times the unitriangular shear with one
    +1 above the diagonal, the lattice changes of the benchmark's fans."""
    rng = random.Random(seed)
    shear = [[int(i == j) + int((i, j) == (0, 1)) for j in range(n)]
             for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[signs[i] * x for x in shear[perm[i]]] for i in range(n)]


def line_power(n):
    fan = point_fan()
    for _ in range(n):
        fan = product_fan(fan, line_fan())
    return fan


BENCHMARK_SHAPED = {"p1x4": lambda: line_power(4),
                    "p1x3": lambda: line_power(3),
                    "p2x2": lambda: product_fan(plane_fan(), plane_fan())}


def one_pass_fans():
    """(id, data) of product, Hirzebruch and benchmark-shaped fans."""
    cases = [("f%d" % a, fan_to_json(hirzebruch_fan(a))) for a in range(5)]
    cases += [("p1xp2xp3", fan_to_json(product_fan(
        line_fan(), product_fan(plane_fan(), projective_space_fan(3)))))]
    cases += [("p112xf2", fan_to_json(product_fan(weighted_plane_fan(),
                                                  hirzebruch_fan(2))))]
    for name, build in sorted(BENCHMARK_SHAPED.items()):
        fan = build()
        cases.append((name, fan_to_json(fan)))
        for seed in (2901, 2902, 2903):
            cases.append(("%s-%d" % (name, seed), transformed(
                fan, benchmark_transform(seed, fan.rank))))
    return cases


def forbidding(mp, *names):
    """Patch the named functions of toric to fail the test when called."""
    for name in names:
        def fail(*args, _name=name, **kwargs):
            raise AssertionError("toric.%s was called" % _name)
        mp.setattr(toric, name, fail)


class TestPaths:
    """Which fans take the one-pass count and the wall certificate, and
    which fall back to the count by class and the pairwise loop."""

    CASES = one_pass_fans()

    @pytest.mark.parametrize("data", [data for _, data in CASES],
                             ids=[name for name, _ in CASES])
    def test_no_fallback_runs(self, data):
        with pytest.MonkeyPatch.context() as mp:
            forbidding(mp, "count_monomials", "_check_pairs")
            for radius in (0, 2):
                cox_presentation(fan_from_json(data), radius)

    @pytest.mark.parametrize("name", COUNT_FALLBACK)
    def test_count_fallback_fans_count_by_class(self, name):
        data = fan_to_json(load_fan(name))
        for radius in range(4):
            assert presented(data, radius, "count_monomials")[1] > 0

    # one cone, a cone dropped from P2 (both incomplete), a non-simplicial
    # cone and the zero cone of rank 1 (neither has a dual basis)
    WALL_FALLBACK = {
        "quadric": {"rank": 2, "rays": [[1, 0], [1, 2]],
                    "max_cones": [[0, 1]]},
        "plane-less-a-cone": {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                              "max_cones": [[0, 1], [1, 2]]},
        "square-cone": {"rank": 3, "rays": [[1, 0, 1], [0, 1, 1],
                                            [-1, 0, 1], [0, -1, 1]],
                        "max_cones": [[0, 1, 2, 3]]},
        "torus-of-rank-1": {"rank": 1, "rays": [], "max_cones": [[]]},
    }

    @pytest.mark.parametrize("name", sorted(WALL_FALLBACK))
    def test_wall_fallback_fans_check_pairs(self, name):
        assert presented(self.WALL_FALLBACK[name], 1, "_check_pairs")[1] == 1

    def test_large_box_in_a_subprocess(self, tmp_path):
        # P2 x P2 at radius 40: 6561 classes, each counted by the closed
        # form C(a+2,2) C(b+2,2) for a, b >= 0 and 0 otherwise, where a and
        # b are the total degrees on the two planes
        path = tmp_path / "p2x2.json"
        path.write_text(json.dumps(fan_to_json(
            product_fan(plane_fan(), plane_fan()))))
        # it took 26-32 s by one Fourier-Motzkin count per class
        child = run_child(["-m", "coxring.cli", "toric", str(path),
                           "--box", "40"], timeout=10)
        assert child.returncode == 0, child.stderr
        rows = json.loads(child.stdout)["presentation"]["certificate"]
        assert len(rows) == 81 * 81
        for row in rows:
            a, b = sum(row["degree"][:3]), sum(row["degree"][3:])
            n = (math.comb(a + 2, 2) * math.comb(b + 2, 2)
                 if a >= 0 and b >= 0 else 0)
            assert (row["monomials"], row["dim"]) == (n, n)


def pairwise_verdict(data):
    """fan_verdict with the wall certificate switched off: every fan is
    checked pair by pair, as before the certificate."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(toric, "_certified_by_walls", lambda *args: False)
        return fan_verdict(data)


def assert_walls_agree(data):
    verdict = fan_verdict(data)
    assert verdict == pairwise_verdict(data)
    return verdict


@st.composite
def corrupted_fans(draw):
    """(kind, data): a drawn complete product fan with one ray moved across
    a wall, one cone duplicated, two adjacent cones merged or one cone
    dropped."""
    data = draw(one_pass_products())
    rank, rays = data["rank"], [list(r) for r in data["rays"]]
    cones = [sorted(c) for c in data["max_cones"]]
    kind = draw(st.sampled_from(("move", "duplicate", "merge", "drop")))
    k = draw(st.integers(0, len(cones) - 1))
    if kind == "duplicate":
        cones.insert(draw(st.integers(0, len(cones))), list(cones[k]))
    elif kind == "drop":
        del cones[k]
    else:
        i = draw(st.sampled_from(cones[k]))
        wall = set(cones[k]) - {i}
        # the cone across the wall opposite ray i, and its ray off the wall
        other = next(m for m, c in enumerate(cones)
                     if m != k and wall <= set(c))
        (j,) = set(cones[other]) - wall
        if kind == "merge":
            cones[k] = sorted(set(cones[k]) | {j})
            del cones[other]
        else:
            dual = dict(zip(cones[k], toric._dual_basis(
                [rays[m] for m in cones[k]], rank)))[i]
            dot = exactmath._dot
            t = dot(dual, rays[i]) // -dot(dual, rays[j]) + 1
            rays[i] = list(primitive(
                [x + t * y for x, y in zip(rays[i], rays[j])]))
    return kind, {"rank": rank, "rays": rays, "max_cones": cones}


class TestWallOracle:
    """The wall certificate against the pairwise loop: the same verdict
    and the same message on every fan."""

    # P1 x P1 with the cones over (0,1), (-1,1) and (-1,1), (-1,0) added:
    # the walls (0,1) and (-1,0) each bound three cones
    WALL_THRICE = {"rank": 2,
                   "rays": [[1, 0], [0, 1], [-1, 0], [0, -1], [-1, 1]],
                   "max_cones": [[0, 1], [1, 2], [2, 3], [0, 3], [1, 4],
                                 [2, 4]]}
    # five cones winding twice round the origin, each wall matched once on
    # opposite sides; the sum (0,1) of cone 0's rays lies inside cone 3
    TWICE_ROUND = {"rank": 2,
                   "rays": [[1, 0], [-1, 1], [0, -1], [1, 1], [-2, -1]],
                   "max_cones": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]}
    # the same cones listed from (0,-1), (1,1), whose sum (1,0) is a ray:
    # it lies on the boundary of the two cones around that ray
    TWICE_ROUND_ON_A_RAY = dict(
        TWICE_ROUND, max_cones=[[2, 3], [0, 1], [1, 2], [3, 4], [0, 4]])

    @pytest.mark.parametrize("data", [
        WALL_THRICE, TWICE_ROUND, TWICE_ROUND_ON_A_RAY],
        ids=["wall-thrice", "twice-round", "twice-round-on-a-ray"])
    def test_certificate_mutations_are_refused(self, data):
        # each passes a weakened certificate: a wall matched by two other
        # cones, the point taken inside two cones, a side test that is not
        # strict
        assert assert_walls_agree(data).startswith("cones ")

    @pytest.mark.parametrize("data", [
        *(fan_to_json(load_fan(name))
          for name in FAN_FIXTURES + sorted(EXTRA_FANS)),
        *TestFan.OVERLAPPING, TestFan.RAY_INSIDE,
        *(data for data, _ in TestFan.NOT_MAXIMAL),
        *TestPaths.WALL_FALLBACK.values(),
        {"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1], [0]]},
        {"rank": 1, "rays": [[1]], "max_cones": [[0], [0]]},
        {"rank": 1, "rays": [], "max_cones": []}])
    def test_fan_cases(self, data):
        assert_walls_agree(data)

    @settings(max_examples=40, deadline=None)
    @given(one_pass_products())
    def test_products(self, data):
        assert assert_walls_agree(data) == "accepted"

    @settings(max_examples=40, deadline=None)
    @given(product_fans())
    def test_products_with_incomplete_factors(self, data):
        assert assert_walls_agree(data) == "accepted"

    @settings(max_examples=120, deadline=None)
    @given(corrupted_fans())
    def test_corruptions(self, case):
        kind, data = case
        verdict = assert_walls_agree(data)
        if kind == "drop":
            # what is left of a fan is a fan, unless a ray lost its cones
            assert verdict == "accepted" or "no maximal cone" in verdict
        elif kind == "duplicate":
            assert "lies in cone" in verdict
