"""Tests for fans, class groups, toric coordinate rings, and product fans.

Expected class groups and Hilbert counts come from closed forms: the
projective line and plane are graded by the total degree, products are
graded componentwise, and the two-ray cone over (1,0),(1,2) has the order
two quotient read off from the diagonal form of its ray matrix.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from coxring import cli
from coxring.coxalg import (
    Inconclusive,
    Pass,
    freely_graded_check,
    tensor_presentation,
)
from coxring.exactmath import UnboundedEnumeration
from coxring.grading import FGAbelianGroup
from coxring.toric import (
    Fan,
    MalformedFan,
    ToricCoxData,
    affine_line_fan,
    class_group,
    cox_presentation,
    fan_from_json,
    fan_to_json,
    hilbert_toric,
    hirzebruch_fan,
    line_fan,
    plane_fan,
    point_fan,
    product_fan,
    quadric_cone_fan,
    toric_cox_data,
)


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
        assert group.is_trivial()

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


class TestCoxPresentation:
    def test_plane(self):
        P = cox_presentation(plane_fan())
        assert P.generators == (((1, 0, 0), None), ((0, 1, 0), None),
                                ((0, 0, 1), None))
        assert P.relations == ()
        rows = {tuple(e["degree"]): e["dim"] for e in P.certificate}
        assert rows[(0, 0, 0)] == 1
        assert rows[(1, 0, 0)] == 3
        assert rows[(2, 0, 0)] == 6
        assert rows[(-1, 0, 0)] == 0

    def test_affine_line_has_no_certified_rows(self):
        P = cox_presentation(affine_line_fan())
        assert P.generators == (((1,), None),)
        assert P.certificate == ()

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
            assert isinstance(freely_graded_check(P, irr, 4), Pass)

    def test_cone_is_not_confirmed_freely_graded(self):
        P = cox_presentation(quadric_cone_fan())
        irr = toric_cox_data(quadric_cone_fan()).irrelevant_polynomials()
        assert isinstance(freely_graded_check(P, irr, 4), Inconclusive)


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
        tc = {tuple(e["degree"]): e for e in T.certificate}
        cc = {tuple(e["degree"]): e for e in C.certificate}
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
