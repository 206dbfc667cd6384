"""Tests for lattices, shifting families, class-graded algebras,
presentations, and the verification checks built on top of them.

The tripled projective line (three pairs of glued points over 0, 1 and
infinity) is the main worked fixture: its presentation, certificate rows,
separatedness defect, and the agreement of the two lattice pipelines all
have independently computed expected values.
"""

import functools
import itertools
import json
import operator
import pathlib
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from coxring.coxalg import (
    BoxTooSmall,
    GeneratorsIncomplete,
    NotASection,
    Certificate,
    Presentation,
    _cokernel,
    _degree_weights,
    _poly_class,
    _total_degree,
    _traversal,
    _vadd,
    _variable_ideal_members,
    _vsub,
    build_presentation,
    canonical_lambda,
    candidate_points,
    curve_algebra,
    default_box,
    find_relations,
    freely_graded_check,
    full_lambda,
    irrelevant_sections,
    is_pointed,
    lattice_box,
    sections_as_polynomials,
    separatedness_check,
    uniqueness_crosscheck,
    weight_monoid_check,
)
from coxring import coxalg
from coxring import ratcurve
from coxring import exactmath as em
from coxring.exactmath import (
    MultiPoly,
    RationalFunction,
    UnboundedEnumeration,
    UniPoly,
    _Span,
    enumerate_monomials,
)
from coxring.grading import BoxTooLarge, FGAbelianGroup
from coxring.toric import class_group, fan_from_json
from conveniences import (
    DegreeMismatch,
    NotInKernel,
    build_shifting_family,
    graded_homs_equivalent,
    ideal_membership,
    isomorphic,
    pointed_by_search,
    rescaled,
    shift,
    shifting_family,
    tensor_presentation,
    verify_representative,
)
from report_oracles import box_classes, dict_row, traversal
from coxring.ratcurve import (
    CurvePoint,
    Divisor,
    GluedCurve,
    InternalInconsistency,
    NotPrincipal,
    P1Point,
    PicardData,
    _lift_orders,
    curve_from_json,
    is_principal,
    order_at,
    picard_rank,
    principal_divisor,
    section_space,
)


def pt(v):
    return P1Point.infinity() if v == "inf" else P1Point.finite(Fraction(v))


def cp(v, i=0):
    return CurvePoint(pt(v), i)


def tripled_line():
    return GluedCurve([(pt(0), 2), (pt(1), 2), (pt("inf"), 2)])


def doubled_line():
    return GluedCurve([(pt(0), 2)])


def plain_line():
    return GluedCurve([(pt("inf"), 1)])


Z = RationalFunction(UniPoly.z())
ONE = RationalFunction.one()
ZERO6 = (0,) * 6


def explicit_basis():
    return [Divisor.of_point(cp(0)), Divisor.of_point(cp(1)),
            Divisor.of_point(cp(1, 1)), Divisor.of_point(cp("inf"))]


@functools.lru_cache(maxsize=None)
def tripled_algebra():
    return curve_algebra(tripled_line(), "canonical", basis=explicit_basis())


@functools.lru_cache(maxsize=None)
def tripled_box():
    return default_box(tripled_line(), 2, basis=explicit_basis())


@functools.lru_cache(maxsize=None)
def tripled_presentation():
    return build_presentation(tripled_algebra(), tripled_box())


@functools.lru_cache(maxsize=None)
def tripled_full_algebra():
    return curve_algebra(tripled_line(), "full")


@functools.lru_cache(maxsize=None)
def tripled_family():
    return shifting_family(tripled_full_algebra())


@functools.lru_cache(maxsize=None)
def plain_presentation():
    X = plain_line()
    return build_presentation(curve_algebra(X), default_box(X, 2))


# expected generator data for the tripled line over the explicit basis
# D0, D1, D1', Dinf: degrees in basis coordinates, then their sections.
EXPECTED_DEGREES = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                 (0, 1, 1, -1), (-1, 1, 1, 0)]
EXPECTED_SECTIONS = ["1", "1", "1", "1", "1/(z - 1)", "z/(z - 1)"]

# variable attached to each copy: the unique generator vanishing there.
COPY_VARIABLE = {cp(0): 0, cp(1): 1, cp(1, 1): 2, cp("inf"): 3,
                 cp("inf", 1): 4, cp(0, 1): 5}


def basis_to_ambient(vec):
    lat = tripled_algebra().lattice
    return lat.copy_vector(vec)


class TestLattices:
    def test_explicit_basis(self):
        lat = canonical_lambda(tripled_line(), basis=explicit_basis())
        assert lat.rank == 4
        assert list(lat.kernel_basis()) == []
        assert lat.lifts is not None
        assert lat.divisor_of((1, 0, 0, 0)) == Divisor.of_point(cp(0))
        assert lat.divisor_of((0, 1, 1, -1)) == (
            Divisor.of_point(cp(1)) + Divisor.of_point(cp(1, 1))
            - Divisor.of_point(cp("inf")))

    def test_closed_form_basis(self):
        lat = canonical_lambda(tripled_line())
        assert [D for D in lat.basis] == [
            Divisor.of_point(cp(0)), Divisor.of_point(cp(0, 1)),
            Divisor.of_point(cp(1)), Divisor.of_point(cp("inf"))]
        assert list(lat.kernel_basis()) == []

    def test_full_lattice(self):
        lat = full_lambda(tripled_line())
        assert lat.rank == 6
        assert [tuple(v) for v in lat.kernel_basis()] == [
            (1, 1, 0, 0, -1, -1), (0, 0, 1, 1, -1, -1)]

    def test_ordinary_support_rejected(self):
        with pytest.raises(ValueError, match="special"):
            canonical_lambda(tripled_line(),
                             basis=[Divisor.of_point(CurvePoint(pt(5), 0)),
                                    Divisor.of_point(cp(1)),
                                    Divisor.of_point(cp(1, 1)),
                                    Divisor.of_point(cp("inf"))])

    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError, match="dependent"):
            canonical_lambda(tripled_line(),
                             basis=[Divisor.of_point(cp(0))] * 4)

    def test_short_basis_rejected(self):
        with pytest.raises(ValueError, match="onto"):
            canonical_lambda(tripled_line(),
                             basis=[Divisor.of_point(cp(0)),
                                    Divisor.of_point(cp(1))])

    def test_relation_basis_rejected(self):
        with pytest.raises(ValueError, match="relations"):
            canonical_lambda(tripled_line(),
                             basis=explicit_basis()
                             + [Divisor.of_point(cp("inf", 1))])

    def test_divisor_of_length(self):
        lat = canonical_lambda(tripled_line(), basis=explicit_basis())
        with pytest.raises(ValueError):
            lat.divisor_of((1, 2))


# lattice degrees of the full tripled lattice with nonzero components,
# used to sample sections for the shifting family laws.
FULL_DEGREES = [ZERO6, (1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0),
                (0, 0, 0, 0, 1, 1), (1, 1, 1, 1, 0, 0),
                (1, 1, 0, 0, 1, 1), (2, 2, 1, 1, 0, 0),
                (1, 1, 1, 1, 1, 1)]


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


@st.composite
def kernel_elements(draw, bound=2):
    fam = tripled_family()
    c = draw(st.tuples(st.integers(-bound, bound), st.integers(-bound,
                                                               bound)))
    out = ZERO6
    for x, E in zip(c, fam.kernel):
        out = vadd(out, tuple(x * e for e in E))
    return out


@st.composite
def full_sections(draw, degrees=tuple(FULL_DEGREES)):
    """A degree of the full lattice and a nonzero section there."""
    L = draw(st.sampled_from(list(degrees)))
    comp = tripled_full_algebra().base.component(L)
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=comp.dim,
                           max_size=comp.dim).filter(lambda c: any(c)))
    f = RationalFunction.zero()
    for c, b in zip(coeffs, comp.basis):
        f = f + b * c
    return L, f


class TestShiftingFamily:
    def test_witnesses(self):
        fam = tripled_family()
        assert [str(w) for w in fam.witnesses] == ["1/z", "1/(z - 1)"]

    def test_witness_divisor_opposes_kernel_divisor(self):
        fam = tripled_family()
        X = tripled_line()
        for E, g in zip(fam.kernel, fam.witnesses):
            assert principal_divisor(g, X) == -1 * fam.lattice.divisor_of(E)

    def test_shift_of_constant(self):
        fam = tripled_family()
        assert shift(fam, fam.kernel[0], ONE, ZERO6) == ONE / Z
        assert shift(fam, fam.kernel[1], ONE, ZERO6) == ONE / (Z - 1)

    def test_shift_zero_is_identity(self):
        fam = tripled_family()
        L = (1, 1, 1, 1, 0, 0)
        comp = fam.algebra.component(L)
        f = comp.basis[0] + comp.basis[-1]
        assert shift(fam, ZERO6, f, L) == f

    def test_assembled_witness(self):
        fam = tripled_family()
        E = vadd(fam.kernel[0], tuple(-x for x in fam.kernel[1]))
        assert fam.witness_for(E) == (Z - 1) / Z

    @settings(max_examples=30, deadline=None)
    @given(full_sections(), kernel_elements(), kernel_elements())
    def test_composition_law(self, lf, E1, E2):
        fam = tripled_family()
        L, f = lf
        once = shift(fam, vadd(E1, E2), f, L)
        twice = shift(fam, E2, shift(fam, E1, f, L), vadd(L, E1))
        assert once == twice

    @settings(max_examples=30, deadline=None)
    @given(full_sections(), full_sections(), kernel_elements())
    def test_module_law(self, lf, lh, E):
        fam = tripled_family()
        (L1, f), (L2, h) = lf, lh
        left = shift(fam, E, f * h, vadd(L1, L2))
        assert left == f * shift(fam, E, h, L2)

    def test_not_in_kernel(self):
        fam = tripled_family()
        with pytest.raises(NotInKernel):
            shift(fam, (1, 0, 0, 0, 0, 0), ONE, ZERO6)
        with pytest.raises(NotInKernel):
            fam.kernel_coords((1, 1, 0, 0, -1, 0))

    def test_not_a_section(self):
        fam = tripled_family()
        with pytest.raises(NotASection):
            shift(fam, fam.kernel[0], Z ** 5, ZERO6)

    def test_rescaled(self):
        fam = tripled_family()
        fam2 = rescaled(fam, [3, 5])
        assert shift(fam2, fam2.kernel[0], ONE, ZERO6) == (ONE * 3) / Z
        assert fam2.witness_for(fam2.kernel[1]) == (ONE * 5) / (Z - 1)
        with pytest.raises(ValueError):
            rescaled(fam, [0, 1])

    def test_trivial_kernel_family(self):
        fam = build_shifting_family(canonical_lambda(tripled_line(),
                                                     basis=explicit_basis()))
        assert fam.kernel == ()
        assert fam.witness_for((0, 0, 0, 0)) == ONE
        with pytest.raises(NotInKernel):
            fam.witness_for((1, 0, 0, 0))


class TestIdealMembership:
    def box(self):
        return tripled_box()

    @settings(max_examples=25, deadline=None)
    @given(full_sections(degrees=tuple(FULL_DEGREES[:6])),
           kernel_elements())
    def test_shifted_difference_is_in_ideal(self, lf, E):
        fam = tripled_family()
        L, f = lf
        g = shift(fam, E, f, L)
        verdict = ideal_membership(fam, [(L, f), (vadd(L, E), -1 * g)],
                                   self.box())
        assert verdict.verdict == "in_ideal"

    def test_single_term_is_not_in_ideal(self):
        fam = tripled_family()
        L = (1, 1, 0, 0, 0, 0)
        f = ONE / Z
        verdict = ideal_membership(fam, [(L, f)], self.box())
        assert verdict.verdict == "not_in_ideal"
        assert list(verdict.fields["residuals"]) == [(L, f)]

    def test_square_of_difference_is_in_ideal(self):
        fam = tripled_family()
        L = (1, 1, 0, 0, 0, 0)
        E = fam.kernel[0]
        f = ONE + ONE / Z
        g = shift(fam, E, f, L)
        candidate = [(vadd(L, L), f * f),
                     (vadd(vadd(L, L), E), -2 * (f * g)),
                     (vadd(vadd(L, L), vadd(E, E)), g * g)]
        verdict = ideal_membership(fam, candidate, self.box())
        assert verdict.verdict == "in_ideal"

    def test_box_too_small(self):
        fam = tripled_family()
        with pytest.raises(BoxTooSmall):
            ideal_membership(fam, [((9, 9, 0, 0, 0, 0), ONE)], self.box())

    def test_empty_candidate(self):
        fam = tripled_family()
        assert ideal_membership(fam, [], self.box()).verdict == "in_ideal"


class TestPicGradedAlgebra:
    def test_representative_of_zero(self):
        A = tripled_algebra()
        assert A.rep((0,) * 6) == (0, 0, 0, 0)

    def test_representative_is_linear(self):
        A = tripled_full_algebra()
        box = list(tripled_box())
        for c1, c2 in zip(box[:20], box[5:25]):
            assert A.rep(vadd(c1, c2)) == vadd(A.rep(c1), A.rep(c2))

    def test_representative_has_the_right_class(self):
        for A in (tripled_algebra(), tripled_full_algebra()):
            for c in list(tripled_box())[:40]:
                amb = A.lattice.copy_vector(A.rep(c))
                assert A.pic.same_class(amb, c)

    def test_verify_representative(self):
        A = tripled_full_algebra()
        c = basis_to_ambient((0, 1, 1, -1))
        rep = A.rep(c)
        fam = tripled_family()
        assert verify_representative(A, c, rep, fam)
        shifted = vadd(rep, fam.kernel[0])
        assert verify_representative(A, c, shifted, fam)
        with pytest.raises(ValueError):
            verify_representative(A, c, vadd(rep, (1, 0, 0, 0, 0, 0)), fam)

    def test_component_dims_match_section_spaces(self):
        X = tripled_line()
        A = tripled_algebra()
        for c in list(tripled_box())[:60]:
            D = A.lattice.divisor_of(A.rep(c))
            assert A.component_dim(c) == section_space(X, D).dim

    def test_hilbert_table(self):
        A = tripled_algebra()
        table = A.hilbert(tripled_box())
        assert table[0] == ((0,) * 6, 1)
        assert len(table) == len(tripled_box())
        assert all(d >= 0 for _, d in table)


class TestPresentation:
    def test_generator_degrees(self):
        P = tripled_presentation()
        pic = tripled_algebra().pic
        assert len(P.generators) == 6
        for (d, _), expected in zip(P.generators, EXPECTED_DEGREES):
            assert pic.same_class(d, basis_to_ambient(expected))

    def test_generator_sections(self):
        P = tripled_presentation()
        assert [str(s) for _, s in P.generators] == EXPECTED_SECTIONS

    def test_single_relation(self):
        P = tripled_presentation()
        assert [str(r) for r in P.relations] == ["T1*T6 - T2*T3 - T4*T5"]

    def test_relation_evaluates_to_zero(self):
        P = tripled_presentation()
        secs = [s for _, s in P.generators]
        assert P.relations[0].substitute(secs).is_zero()

    def test_certificate_row_at_the_relation_degree(self):
        P = tripled_presentation()
        target = basis_to_ambient((0, 1, 1, 0))
        rows = [row for row in P.certificate if row[0] == target]
        assert rows == [(target, 3, 2, 1, 1)]

    def test_certificate_accounts_for_every_kernel(self):
        for _, monomials, dim, kernel, span in tripled_presentation(
                ).certificate:
            assert monomials - dim == kernel
            assert span == kernel

    def test_plain_line(self):
        P = plain_presentation()
        assert [(d, str(s)) for d, s in P.generators] == [
            ((1,), "1"), ((1,), "z")]
        assert P.relations == ()

    def test_doubled_line(self):
        X = doubled_line()
        P = build_presentation(curve_algebra(X), default_box(X, 2))
        assert [(d, str(s)) for d, s in P.generators] == [
            ((1, 0), "1"), ((0, 1), "1"), ((1, 1), "1/z")]
        assert P.relations == ()

    def test_incomplete_generators_detected(self):
        A = tripled_algebra()
        gens = list(tripled_presentation().generators)[:-1]
        with pytest.raises(GeneratorsIncomplete) as err:
            find_relations(A, gens, tripled_box())
        assert len(err.value.degree) == 6

    @pytest.mark.parametrize("name, vector", [
        ("tripled_line", "(1, 1, 0, 0, -1, -1)"),
        ("mixed_line", "(1, 1, -1, -1, -1)")])
    def test_full_lattice_box_is_refused(self, name, vector):
        # rep is the identity on the full lattice, so a box vector on the
        # last copy of a point after the anchor would give its monomials
        # another lattice degree: the caller's box is at fault, not the
        # search.  The full lattice's box repeats classes, and the first
        # vector the search visits past the zero vector is a class
        # relation of weight 0
        X = FIXTURE_CURVES[name]
        A = curve_algebra(X, "full")
        with pytest.raises(ValueError) as err:
            build_presentation(A, lattice_box(full_lambda(X), 1))
        assert "degree %s " % vector in str(err.value)
        # the canonical box, the only one the CLI passes, is read as before
        box = default_box(X, 1)
        gens = list(build_presentation(A, box).generators)
        # and so is a given generator: one moved by a class relation to an
        # equal class off the canonical box is refused too
        d, _ = gens[0]
        moved = tuple(a + b for a, b in zip(d, A.pic.relations[-1]))
        gens[0] = (moved, A.base.component(moved).basis[0])
        with pytest.raises(ValueError, match="degree"):
            find_relations(A, gens, box)

    def test_to_json(self):
        data = tripled_presentation().to_json()
        assert sorted(data) == ["certificate", "generators", "grading",
                                "relations"]
        assert data["generators"][4]["section"] == "1/(z - 1)"
        assert data["relations"] == ["T1*T6 - T2*T3 - T4*T5"]
        assert data["grading"] == tripled_algebra().pic.describe()

    def test_immutable(self):
        P = tripled_presentation()
        with pytest.raises(AttributeError):
            P.generators = ()

    def test_rows_follow_the_box(self):
        P = tripled_presentation()
        pic = tripled_algebra().pic
        distinct = {}
        for c in tripled_box():
            distinct.setdefault(pic.class_key(c), c)
        assert [row[0] for row in P.certificate] == list(distinct.values())


def _fixture_curves():
    fixtures = pathlib.Path(__file__).parent / "fixtures"
    for path in sorted(fixtures.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if "special" in data:
            yield path.stem, curve_from_json(data)


FIXTURE_CURVES = dict(_fixture_curves())
ORDER_CASES = {**FIXTURE_CURVES,
               "0:3,inf:2": GluedCurve([(pt(0), 3), (pt("inf"), 2)])}


def _oracle_curves():
    # the tripled line is also the {2,2,2} profile at points 0, 1, inf
    here = pathlib.Path(__file__).parent
    curves = [(path.stem, curve_from_json(json.loads(path.read_text())))
              for path in sorted(here.glob("fixtures/*_line.json"))]
    curves.append(("c32", GluedCurve([(pt(0), 3), (pt("inf"), 2)])))
    return curves


def _greedy_basis(X):
    """The single-copy divisors kept by a greedy scan of the copies in input
    order: a copy is kept while the classes kept so far together with its
    own still span a direct summand of the class group."""
    pic = PicardData(X)
    chosen, cols = [], []
    for q in X.special_copies():
        if len(chosen) == pic.rank:
            break
        col = pic.class_of(Divisor.of_point(q))
        quotient = FGAbelianGroup(pic.ambient_rank,
                                  cols + [col] + list(pic.relations))
        if (quotient.rank == pic.rank - len(chosen) - 1
                and not quotient.invariant_factors):
            chosen.append(Divisor.of_point(q))
            cols.append(col)
    return chosen


@st.composite
def small_curves(draw, max_mult=4, min_points=1, max_points=4,
                 bases=(0, 1, "inf", -1)):
    """Curves with min_points to max_points special points among bases, in
    any order, of multiplicity 1 to max_mult."""
    points = draw(st.lists(st.sampled_from(list(bases)),
                           min_size=min_points, max_size=max_points,
                           unique=True))
    mults = draw(st.lists(st.integers(min_value=1, max_value=max_mult),
                          min_size=len(points), max_size=len(points)))
    return GluedCurve([(pt(v), m) for v, m in zip(points, mults)])


class TestCopyCoordinates:
    """The closed-form canonical basis against the greedy scan, and lattice
    divisors read from the copy map against the sum of basis divisors."""

    @staticmethod
    def _assert_greedy(X):
        lat = canonical_lambda(X)
        assert list(lat.basis) == _greedy_basis(X)
        # the generator count the command line checks before any Smith form
        assert lat.rank == sum(m for _, m in X.special) - len(X.special) + 1

    @pytest.mark.parametrize("name", sorted(FIXTURE_CURVES))
    def test_fixture_basis_matches_the_greedy_scan(self, name):
        self._assert_greedy(FIXTURE_CURVES[name])

    @given(small_curves())
    @settings(max_examples=40, deadline=None)
    def test_basis_matches_the_greedy_scan(self, X):
        self._assert_greedy(X)

    @pytest.mark.parametrize("match", ["onto", "relations"])
    def test_failed_default_basis_is_internal(self, monkeypatch, match):
        # a failing default basis is a bug; a failing explicit one is input.
        # The class coordinates K are spoiled: doubled, their determinant
        # is 16; with a repeated row, the classes have a relation
        honest = coxalg.LineBundleLattice.class_coordinates

        def spoiled(self):
            K = honest(self)
            if match == "onto":
                return [tuple(2 * x for x in k) for k in K]
            return K + K[:1]

        monkeypatch.setattr(coxalg.LineBundleLattice, "class_coordinates",
                            spoiled)
        with pytest.raises(InternalInconsistency, match=match):
            canonical_lambda(tripled_line())
        with pytest.raises(ValueError, match=match):
            canonical_lambda(tripled_line(), basis=explicit_basis())

    @pytest.mark.parametrize("mode", ["canonical", "full"])
    @pytest.mark.parametrize("name", sorted(FIXTURE_CURVES))
    def test_divisor_of_matches_the_basis_sum(self, name, mode):
        X = FIXTURE_CURVES[name]
        A = curve_algebra(X, mode)
        lat = A.lattice
        degrees = [A.rep(c) for c in default_box(X, 2)]
        degrees += [tuple(E) for E in lat.kernel_basis()]
        for L in degrees:
            expected = Divisor({})
            for c, B in zip(L, lat.basis):
                expected = expected + c * B
            assert lat.divisor_of(L) == expected
            assert lat.min_orders(L) == tuple(
                min(expected.coefficient(q) for q in X.copies(p))
                for p, _ in X.special)


def _smith_section_of_pic(lattice):
    """The representative map as a Smith form derived it: diagonalize the
    class-map and relation columns [M | R], then take the rows of V over
    the lattice block, applied after U.  Returns its r x n matrix."""
    pic = lattice.picdata
    n, r = pic.ambient_rank, lattice.rank
    B = [[col[i] for col in lattice.columns]
         + [rel[i] for rel in pic.relations] for i in range(n)]
    U, D, V, _, _ = em._smith(B)
    assert [D[i][i] for i in range(n)] == [1] * n
    return [[sum(V[i][k] * U[k][j] for k in range(n)) for j in range(n)]
            for i in range(r)]


def _smith_kernel_lattice(lattice):
    """HNF row basis of the class map's kernel from the Smith form of
    [M | R], the lattice columns beside the class relations."""
    pic = lattice.picdata
    B = [[col[i] for col in lattice.columns]
         + [rel[i] for rel in pic.relations]
         for i in range(pic.ambient_rank)]
    _, D, V, _, _ = em._smith(B)
    m = len(V)
    kernel = [[V[i][j] for i in range(lattice.rank)] for j in range(m)
              if j >= len(D) or D[j][j] == 0]
    return em._hnf_rows(kernel)


class TestSmithOracle:
    """The closed-form class group against the Smith forms it replaced:
    equal classes, equal representatives and equal kernel rows."""

    @staticmethod
    def _assert_same_classes(X, data):
        pic = PicardData(X)
        group = FGAbelianGroup(pic.ambient_rank, pic.relations)
        assert pic.rank == group.rank and group.invariant_factors == ()
        n = pic.ambient_rank
        small = st.integers(min_value=-3, max_value=3)
        for _ in range(5):
            v = data.draw(st.lists(small, min_size=n, max_size=n))
            w = list(v)
            for rel in pic.relations:
                a = data.draw(small)
                w = [x + a * y for x, y in zip(w, rel)]
            if data.draw(st.booleans()):
                w[data.draw(st.integers(0, n - 1))] += data.draw(small)
            assert ((pic.class_key(v) == pic.class_key(w))
                    == (group.class_key(v) == group.class_key(w)))
            assert pic.same_class(v, w) == group.same_class(v, w)

    @staticmethod
    def _assert_smith_agrees(X):
        for mode in ("canonical", "full"):
            A = curve_algebra(X, mode)
            S = _smith_section_of_pic(A.lattice)
            n = A.pic.ambient_rank
            for t in range(n):
                unit = tuple(int(i == t) for i in range(n))
                assert A.rep(unit) == tuple(row[t] for row in S)
        full = full_lambda(X)
        assert full.kernel_basis() == _smith_kernel_lattice(full)

    @pytest.mark.parametrize("name", sorted(FIXTURE_CURVES))
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_fixture_classes(self, name, data):
        self._assert_same_classes(FIXTURE_CURVES[name], data)

    @pytest.mark.parametrize("name", sorted(FIXTURE_CURVES))
    def test_fixture_representatives_and_kernels(self, name):
        self._assert_smith_agrees(FIXTURE_CURVES[name])

    @given(small_curves(max_mult=5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_classes(self, X, data):
        self._assert_same_classes(X, data)

    @given(small_curves(max_mult=5))
    @settings(max_examples=40, deadline=None)
    def test_representatives_and_kernels(self, X):
        self._assert_smith_agrees(X)


def _triangular_basis(X):
    """An explicit basis other than the default one: the sum of all the
    default copies, then every default copy but the first."""
    copies = [next(iter(D.support())) for D in canonical_lambda(X).basis]
    first = Divisor({q: 1 for q in copies})
    return [first] + [Divisor.of_point(q) for q in copies[1:]]


def _dimension_algebras(X):
    return [curve_algebra(X, "canonical"), curve_algebra(X, "full"),
            curve_algebra(X, "canonical", basis=_triangular_basis(X))]


@st.composite
def wide_curves(draw):
    """Curves with 1 to 5 special points of multiplicity 1 to 4."""
    points = draw(st.lists(st.sampled_from([0, 1, "inf", -1, 2]),
                           min_size=1, max_size=5, unique=True))
    mults = draw(st.lists(st.integers(min_value=1, max_value=4),
                          min_size=len(points), max_size=len(points)))
    return GluedCurve([(pt(v), m) for v, m in zip(points, mults)])


class TestClosedFormDimension:
    """PicGradedAlgebra.component_dim, read off the class vector by its
    block minima, against the dimension at the representative rep(c) of
    the lattice (the path it replaced), under the default, the full and an
    explicit lattice, at box classes and at arbitrary ambient vectors."""

    @staticmethod
    def _assert_agrees(A, vectors):
        for c in vectors:
            assert A.component_dim(c) == A.base.component_dim(A.rep(c))

    @pytest.mark.parametrize("name", sorted(FIXTURE_CURVES))
    def test_fixture_boxes(self, name):
        X = FIXTURE_CURVES[name]
        box = default_box(X, 2)
        for A in _dimension_algebras(X):
            self._assert_agrees(A, box)

    def test_tripled_line_on_its_explicit_basis(self):
        self._assert_agrees(tripled_algebra(), tripled_box())

    @given(wide_curves(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_curves(self, X, data):
        columns = canonical_lambda(X).columns
        n = sum(m for _, m in X.special)
        coefficients = st.lists(st.integers(min_value=-2, max_value=2),
                                min_size=len(columns), max_size=len(columns))
        ambient = st.lists(st.integers(min_value=-4, max_value=4),
                           min_size=n, max_size=n)
        # box classes of radius 2, as lattice_box lists them
        vectors = [coxalg._combination(data.draw(coefficients), columns, n)
                   for _ in range(8)]
        vectors += [tuple(data.draw(ambient)) for _ in range(8)]
        for A in _dimension_algebras(X):
            self._assert_agrees(A, vectors)

    def test_wrong_length_is_refused(self):
        with pytest.raises(ValueError):
            tripled_algebra().component_dim((0,) * 5)


class TestMonomialCoordinates:
    """The memoised coordinate polynomials against the rational-function
    product of the generator sections, read back by coordinates_of."""

    @staticmethod
    def _monomial_section(gens, exps):
        s = ONE
        for e, (_, sec) in zip(exps, gens):
            if e:
                s = s * sec ** e
        return s

    @pytest.mark.parametrize("mode", ["canonical", "full"])
    @pytest.mark.parametrize("name, X", _oracle_curves(),
                             ids=[n for n, _ in _oracle_curves()])
    def test_coordinates_match_the_section_product(self, name, X, mode):
        A = curve_algebra(X, mode)
        box = default_box(X, 2)
        gens = build_presentation(A, box).generators
        degrees = [d for d, _ in gens]
        coords = coxalg._MonomialCoordinates(A)
        for d, s in gens:
            coords.add(d, s)
        checked = 0
        for _, D in traversal(A, box):
            exps_list = coxalg._monomials(A, degrees, D)
            dim = A.component_dim(D)
            if dim == 0:
                assert exps_list == []
                continue
            space = A.pic_component(D)
            for exps in exps_list:
                expected = space.coordinates_of(
                    self._monomial_section(gens, exps))
                assert expected is not None
                assert coords.coordinates(exps, A.rep(D), dim) == expected
                checked += 1
        assert checked > len(gens)
        assert coords.corrections
        assert all(e >= 0 for exps, _ in coords.corrections.values()
                   for e in exps)

    @pytest.mark.parametrize("forged", [[0, 0, 1], [0, 1, 1]],
                             ids=["z^2", "z + z^2"])
    def test_forged_generator_outside_its_component(self, forged):
        # sections of degree 1 on the plain line are spanned by 1 and z;
        # z + z^2 agrees with z on the first two coefficients and spans
        # no relation, so only the degree test can reject it
        X = plain_line()
        A = curve_algebra(X)
        box = default_box(X, 2)
        gens = list(plain_presentation().generators)
        assert [str(s) for _, s in gens] == ["1", "z"]
        gens[1] = (gens[1][0], RationalFunction(UniPoly(forged)))
        with pytest.raises(InternalInconsistency,
                           match="escaped its component"):
            find_relations(A, gens, box)


def _residue_curves():
    # the oracle curves, and one whose finite points have denominators 2
    # and 3, which two of the small primes divide
    return _oracle_curves() + [("thirds", GluedCurve([
        (pt(0), 2), (pt(Fraction(1, 3)), 2), (pt(Fraction(-1, 2)), 2),
        (pt("inf"), 1)]))]


# the small primes that block a reading, per curve with fractional points
# (on thirds_line the single-copy point 5/2 blocks no reading mod 2)
_BLOCKING_PRIMES = {"thirds": (2, 3), "thirds_line": (3,)}


class TestResidueReading:
    """The residue reading of _MonomialCoordinates against the reduction of
    its rational reading, monomial by monomial, and its stored degrees
    against the degrees of the rational coordinate polynomials."""

    @staticmethod
    def _assert_residues_reduce(A, box, gens):
        """Reads every monomial of every nonzero box class both ways;
        returns the coordinates and the number of readings that p
        blocked."""
        degrees = [d for d, _ in gens]
        coords = coxalg._MonomialCoordinates(A)
        for d, s in gens:
            coords.add(d, s)
        p = coords.prime
        factors = [x for d, s in gens for x in A.base.component(
            A.rep(d)).coordinate_polynomial(s).coeffs]
        factors += [b.value for b, _ in A.curve.special
                    if not b.is_infinity()]
        integral = all(em.residue(x, p) is not None for x in factors)
        read = blocked = 0
        for _, D in traversal(A, box):
            dim = A.component_dim(D)
            if dim == 0:
                continue
            L = A.rep(D)
            for exps in coxalg._monomials(A, degrees, D):
                exact = coords.coordinates(exps, L, dim)
                got = coords.residue_coordinates(exps, L, dim)
                if got is None:
                    assert not integral
                    blocked += 1
                else:
                    assert got == [em.residue(x, p) for x in exact]
                read += 1
        assert read > len(gens)
        assert coords.residues.keys() == coords.polynomials.keys()
        for exps, (L, degree, _) in coords.residues.items():
            L_q, q = coords.polynomials[exps]
            assert (L, degree) == (L_q, q.degree)
        return coords, blocked

    @pytest.mark.parametrize("prime", [None, 2, 3, 5])
    @pytest.mark.parametrize("mode", ["canonical", "full"])
    @pytest.mark.parametrize("name, X", _residue_curves(),
                             ids=[n for n, _ in _residue_curves()])
    def test_curves(self, monkeypatch, name, X, mode, prime):
        if prime is not None:
            monkeypatch.setattr(coxalg, "CERTIFICATE_PRIME", prime)
        A = curve_algebra(X, mode)
        box = default_box(X, 2)
        _, blocked = self._assert_residues_reduce(
            A, box, build_presentation(A, box).generators)
        assert (blocked > 0) == (prime in _BLOCKING_PRIMES.get(name, ()))

    def test_explicit_basis(self):
        self._assert_residues_reduce(tripled_algebra(), tripled_box(),
                                     tripled_presentation().generators)

    @given(small_curves(max_mult=3), st.sampled_from(["canonical", "full"]),
           st.sampled_from([None, 2, 3, 5]))
    @settings(max_examples=15, deadline=None)
    def test_small_curves(self, X, mode, prime):
        with pytest.MonkeyPatch.context() as patch:
            if prime is not None:
                patch.setattr(coxalg, "CERTIFICATE_PRIME", prime)
            A = curve_algebra(X, mode)
            box = default_box(X, 1)
            self._assert_residues_reduce(
                A, box, build_presentation(A, box).generators)

    @pytest.mark.parametrize("prime", [2, 3, 5])
    def test_degree_is_not_read_from_the_residues(self, monkeypatch, prime):
        # every other generator scaled by p: its coordinate polynomial, and
        # every monomial it divides, has leading residue 0, yet keeps its
        # degree; the rows do not move, since scaling changes no span
        monkeypatch.setattr(coxalg, "CERTIFICATE_PRIME", prime)
        A, box = tripled_algebra(), tripled_box()
        gens = tripled_presentation().generators
        scale = RationalFunction(em.UniPoly.const(prime))
        scaled = [(d, s * scale if j % 2 else s)
                  for j, (d, s) in enumerate(gens)]
        coords, _ = self._assert_residues_reduce(A, box, scaled)
        assert any(r[-1] == 0 for _, _, r in coords.residues.values())
        assert (list(find_relations(A, scaled, box)[1])
                == list(find_relations(A, gens, box)[1]))


def _two_pass_generators(A, box):
    """The generator search as its own traversal: a class contributes the
    basis elements outside the span of the monomials in the generators
    found before it."""
    visit = traversal(A, box)
    pos = {D: i for i, D in visit}
    gens = []
    coords = coxalg._MonomialCoordinates(A)
    for _, D in visit:
        dim = A.component_dim(D)
        if dim == 0:
            continue
        L = A.rep(D)
        span = _Span(dim)
        for exps in coxalg._monomials(A, [g[0] for g in gens], D):
            span.add(coords.coordinates(exps, L, dim))
        for idx in range(dim):
            unit = tuple(Fraction(1 if t == idx else 0) for t in range(dim))
            if not span.contains(unit):
                section = A.pic_component(D).basis[idx]
                gens.append((D, section))
                coords.add(D, section)
                span.add(unit)
    gens.sort(key=lambda g: pos[g[0]])
    return gens


def _two_pass_relations(A, generators, box):
    """The relation search as a second traversal over finished generators:
    at each class the kernel of all monomials, less the span of multiples
    of earlier relations, in reduced echelon form over grlex."""
    gens = list(generators)
    nv = len(gens)
    gen_degrees = [tuple(int(x) for x in g[0]) for g in gens]
    monomial_coords = coxalg._MonomialCoordinates(A)
    for d, (_, s) in zip(gen_degrees, gens):
        monomial_coords.add(d, s)
    found = []
    certificate = []
    for at, D in traversal(A, box):
        exps_list = coxalg._monomials(A, gen_degrees, D)
        nm = len(exps_list)
        dim = A.component_dim(D)
        if dim == 0:
            assert exps_list == []
            certificate.append((at, {"degree": list(D), "monomials": 0,
                                     "dim": 0, "kernel": 0,
                                     "ideal_span": 0}))
            continue
        index = {exps: t for t, exps in enumerate(exps_list)}
        L = A.rep(D)
        coords = [monomial_coords.coordinates(exps, L, dim)
                  for exps in exps_list]
        if _Span(dim, coords).dim < dim:
            raise GeneratorsIncomplete(D)
        matrix = [[coords[t][i] for t in range(nm)] for i in range(dim)]
        _, kernel = em.rank_kernel(matrix)
        colorder = sorted(range(nm), key=lambda t: em.grlex_key(exps_list[t]))
        perm_kernel = _Span(nm, ([vec[colorder[c]] for c in range(nm)]
                                 for vec in kernel)).echelon()
        old = _Span(nm)
        for _, Dr, poly in found:
            for cof in coxalg._monomials(A, gen_degrees, vsub(D, Dr)):
                prod = poly * MultiPoly.monomial(cof)
                vec = [Fraction(0)] * nm
                for exps, coeff in prod.terms.items():
                    vec[index[exps]] = coeff
                old.add([vec[colorder[c]] for c in range(nm)])
        for row in perm_kernel:
            if not any(row) or old.contains(row):
                continue
            old.add(row)
            terms = {exps_list[colorder[c]]: x for c, x in enumerate(row)
                     if x != 0}
            found.append((at, D, MultiPoly(nv, terms)))
        certificate.append((at, {"degree": list(D), "monomials": nm,
                                 "dim": dim, "kernel": len(kernel),
                                 "ideal_span": old.dim}))
    found.sort(key=lambda f: f[0])
    certificate.sort(key=lambda row: row[0])
    return [poly for _, _, poly in found], [row for _, row in certificate]


def _poly_degree(poly, degrees):
    """The ambient degree of a homogeneous polynomial in generators of the
    given degrees, read off one of its terms."""
    exps = next(iter(poly.terms))
    return tuple(sum(e * d[i] for e, d in zip(exps, degrees))
                 for i in range(len(degrees[0])))


def _per_monomial_sections(A, P, elements):
    """sections_as_polynomials with every monomial built as a rational
    function and crossed by its own kernel witness into the component of
    the element's representative."""
    gens = list(P.generators)
    gen_degrees = [d for d, _ in gens]
    family = shifting_family(A)
    out = []
    for c, s in elements:
        rep = A.rep(c)
        space = A.base.component(rep)
        cols = []
        exps_list = coxalg._monomials(A, gen_degrees, c)
        for exps in exps_list:
            sec = TestMonomialCoordinates._monomial_section(gens, exps)
            amb = [sum(e * d[i] for e, d in zip(exps, gen_degrees))
                   for i in range(len(c))]
            E = vsub(rep, A.rep(amb))
            if any(E):
                sec = sec * family.witness_for(E)
            cols.append(space.coordinates_of(sec))
        coeffs = em.solve_in_span(cols, space.coordinates_of(s))
        out.append(MultiPoly(len(gens), {
            exps: q for exps, q in zip(exps_list, coeffs) if q != 0}))
    return out


class TestOnePassSearch:
    """build_presentation against a generator traversal followed by a
    relation traversal over the finished generators."""

    @staticmethod
    def _assert_two_passes_agree(A, box, prime=None):
        """The presentation against the two traversals, and each row the
        search certified mod the prime (CERTIFICATE_PRIME unless given)
        against the row of the relation traversal; returns the presentation
        and the certified classes."""
        certified = []
        honest = coxalg._certified

        def recording(coords, L, *rest):
            got = honest(coords, L, *rest)
            if got:
                certified.append(L)
            return got

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(coxalg, "_certified", recording)
            if prime is not None:
                patch.setattr(coxalg, "CERTIFICATE_PRIME", prime)
            P = build_presentation(A, box)
        gens = _two_pass_generators(A, box)
        rels, cert = _two_pass_relations(A, gens, box)
        assert P.generators == tuple(gens)
        assert P.relations == tuple(rels)
        assert [str(r) for r in P.relations] == [str(r) for r in rels]
        assert [dict_row(row) for row in P.certificate] == cert
        rows = {A.rep(tuple(row["degree"])): row for row in cert
                if row["dim"]}
        assert len(set(certified)) == len(certified)
        for L in certified:
            row = rows[L]
            assert (row["monomials"] - row["dim"] == row["kernel"]
                    == row["ideal_span"])
        return P, certified

    @pytest.mark.parametrize("mode", ["canonical", "full"])
    @pytest.mark.parametrize("name", sorted(FIXTURE_CURVES))
    def test_fixture_curves(self, name, mode):
        X = FIXTURE_CURVES[name]
        _, certified = self._assert_two_passes_agree(curve_algebra(X, mode),
                                                     default_box(X, 2))
        assert certified

    @pytest.mark.parametrize("prime", [2, 3, 5])
    @pytest.mark.parametrize("mode", ["canonical", "full"])
    @pytest.mark.parametrize("name", sorted(FIXTURE_CURVES))
    def test_fixture_curves_under_small_primes(self, name, mode, prime):
        # a small prime loses rank more often, and its classes take the
        # exact path: the rows stay those of the two traversals
        X = FIXTURE_CURVES[name]
        self._assert_two_passes_agree(curve_algebra(X, mode),
                                      default_box(X, 2), prime)

    def test_explicit_basis(self):
        P, certified = self._assert_two_passes_agree(tripled_algebra(),
                                                     tripled_box())
        assert len(P.relations) == 1
        assert certified

    @given(small_curves(max_mult=3), st.sampled_from(["canonical", "full"]),
           st.sampled_from([None, 2, 3]))
    @settings(max_examples=15, deadline=None)
    def test_small_curves(self, X, mode, prime):
        self._assert_two_passes_agree(curve_algebra(X, mode),
                                      default_box(X, 1), prime)

    @pytest.mark.parametrize("name, relations", [("tripled_line", 1),
                                                 ("mixed_line", 0)])
    def test_exact_path_only_where_something_is_found(self, monkeypatch,
                                                      name, relations):
        # the exact path opens one span on the monomial coordinates per
        # class (_Span(dim, vectors)) and computes a kernel basis only
        # where the relation multiples fall short of the kernel; under the
        # default prime no other class reaches either
        calls = {"spans": 0, "kernels": 0}

        class CountingSpan(_Span):
            def __init__(self, ncols, rows=()):
                calls["spans"] += isinstance(rows, list)
                super().__init__(ncols, rows)

        def counting_kernel(M):
            calls["kernels"] += 1
            return em.rank_kernel(M)

        monkeypatch.setattr(coxalg, "_Span", CountingSpan)
        monkeypatch.setattr(coxalg, "rank_kernel", counting_kernel)
        X = FIXTURE_CURVES[name]
        A = curve_algebra(X)
        P = build_presentation(A, default_box(X, 2))
        key = A.pic.class_key
        degrees = [d for d, _ in P.generators]
        generator_classes = {key(d) for d in degrees}
        relation_classes = {key(_poly_degree(r, degrees))
                            for r in P.relations}
        assert len(P.relations) == relations
        assert calls == {
            "spans": len(generator_classes | relation_classes),
            "kernels": len(relation_classes)}
        nonzero = sum(1 for row in P.certificate if row[2])
        assert calls["spans"] < nonzero

    def test_incomplete_generators_at_the_same_class(self):
        A, box = tripled_algebra(), tripled_box()
        gens = list(tripled_presentation().generators)
        for drop in range(len(gens)):
            given = gens[:drop] + gens[drop + 1:]
            with pytest.raises(GeneratorsIncomplete) as one:
                find_relations(A, given, box)
            with pytest.raises(GeneratorsIncomplete) as two:
                _two_pass_relations(A, given, box)
            assert one.value.degree == two.value.degree


class TestMonomialLists:
    """The monomial lists of _MonomialLists, read from lower classes,
    against one Fourier-Motzkin enumeration (_monomials) per class, at
    every class a search visits."""

    @staticmethod
    def _checked(patch, prune=True):
        """Compares every list the search reads with _monomials; returns the
        list of the classes read.  With prune False a class of dimension
        zero is expanded like any other."""
        read = []
        honest = coxalg._MonomialLists.monomials

        def checking(self, D):
            got = honest(self, D)
            degrees = [d for d, _ in self._gens]
            assert got == coxalg._monomials(self._A, degrees, D), D
            read.append(D)
            return got

        def unpruned(self, vec, w):
            if w:
                return False
            self._memo[vec] = [()] if self._A.pic.contains_zero(vec) else []
            return True

        patch.setattr(coxalg._MonomialLists, "monomials", checking)
        if not prune:
            patch.setattr(coxalg._MonomialLists, "_settled", unpruned)
        return read

    def _assert_lists_agree(self, A, box, prune=True):
        with pytest.MonkeyPatch.context() as patch:
            read = self._checked(patch, prune)
            P = build_presentation(A, box)
            assert read == [D for _, D, _ in _traversal(A, box)]
            del read[:]
            gens = list(P.generators)
            for given in (gens, gens[::-1]):
                find_relations(A, given, box)
                assert read == [D for _, D, _ in _traversal(A, box)]
                del read[:]
        return P

    @pytest.mark.parametrize("mode", ["canonical", "full"])
    @pytest.mark.parametrize("name", sorted(FIXTURE_CURVES))
    def test_fixture_curves(self, name, mode):
        X = FIXTURE_CURVES[name]
        A = curve_algebra(X, mode)
        self._assert_lists_agree(A, default_box(X, 2))

    @pytest.mark.parametrize("name", sorted(FIXTURE_CURVES))
    def test_moved_box(self, name):
        # every class at a vector off the canonical box, so the lower
        # vectors the lists recurse to are not box vectors either
        X = FIXTURE_CURVES[name]
        A = curve_algebra(X)
        self._assert_lists_agree(
            A, TestZeroClasses._moved_box(A, default_box(X, 1)))
        A = tripled_algebra()
        self._assert_lists_agree(
            A, TestZeroClasses._moved_box(A, tripled_box()))

    @given(small_curves(max_points=5, bases=(0, 1, "inf", -1, 2)),
           st.sampled_from(["canonical", "full"]))
    @settings(max_examples=20, deadline=None)
    def test_small_curves(self, X, mode):
        # box 2 where its box lists at most 3^8 vectors, else the largest
        # radius below that does
        A = curve_algebra(X, mode)
        canonical = curve_algebra(X).lattice.rank
        self._assert_lists_agree(A, default_box(X, _radius(canonical, 2)))

    @pytest.mark.parametrize("name", ["tripled_line", "mixed_line"])
    def test_the_dimension_prune_changes_no_list(self, name):
        X = FIXTURE_CURVES[name]
        A = curve_algebra(X)
        box = default_box(X, 2)
        P, Q = (self._assert_lists_agree(A, box, prune) for prune in (1, 0))
        assert (Q.generators, Q.relations) == (P.generators, P.relations)
        assert list(Q.certificate) == list(P.certificate)

    def test_a_generator_found_at_a_listed_class_joins_its_list(self):
        # both generators of the plain line, 1 and z, have the class D of
        # a point; the list of D is kept before either is added, and 2D
        # reads it after both
        A = curve_algebra(plain_line())
        gens = plain_presentation().generators
        D = gens[0][0]
        assert [d for d, _ in gens] == [D, D]
        lists = coxalg._MonomialLists(A)
        assert lists.monomials(D) == []
        lists.add(D)
        assert lists.monomials(D) == [(1,)]
        lists.add(D)
        assert lists.monomials(D) == [(0, 1), (1, 0)]
        double = _vadd(D, D)
        assert lists.monomials(double) == [(0, 2), (1, 1), (2, 0)]
        assert lists.monomials(double) == coxalg._monomials(A, [D, D], double)

    @pytest.mark.parametrize("scale", [0, -1])
    def test_generator_of_weight_at_most_zero(self, scale):
        A, box = tripled_algebra(), tripled_box()
        gens = list(tripled_presentation().generators)
        d, s = gens[0]
        forged = tuple(scale * x for x in d)
        with pytest.raises(InternalInconsistency, match="weigh more"):
            coxalg._MonomialLists(A).add(forged)
        with pytest.raises(InternalInconsistency, match="weigh more"):
            find_relations(A, [(forged, ONE)] + gens, box)


class _Stopped(Exception):
    pass


class TestCertificateWork:
    """W, the squared component dimensions summed over the box classes,
    against the bases of their section spaces, and its limit, which stops
    a search before any class is read."""

    @staticmethod
    def _work(A, box):
        """The count _search holds to its limit, read from its refusal
        under a limit of -1, with the search stopped there."""
        seen = []

        def recording(count, limit, what):
            seen.append((count, limit))
            raise _Stopped

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(coxalg, "MAX_CERTIFICATE_WORK", -1)
            patch.setattr(coxalg, "within_limit", recording)
            with pytest.raises(_Stopped):
                build_presentation(A, box)
        [(count, limit)] = seen
        assert limit == -1
        return count

    def _assert_oracle(self, X, mode, radius):
        A = curve_algebra(X, mode)
        box = default_box(X, radius)
        assert self._work(A, box) == sum(
            len(A.pic_component(c).basis) ** 2 for c in box)

    @pytest.mark.parametrize("radius", [1, 2])
    @pytest.mark.parametrize("mode", ["canonical", "full"])
    @pytest.mark.parametrize("name", sorted(FIXTURE_CURVES))
    def test_fixture_curves(self, name, mode, radius):
        self._assert_oracle(FIXTURE_CURVES[name], mode, radius)

    @given(small_curves(max_points=5, bases=(0, 1, "inf", -1, 2)),
           st.sampled_from(["canonical", "full"]))
    @settings(max_examples=25, deadline=None)
    def test_small_curves(self, X, mode):
        # box 1 lists 3^rank classes, each read by its section space
        assume(picard_rank(X) <= 6)
        self._assert_oracle(X, mode, 1)

    @pytest.mark.parametrize("radius", [1, 2])
    @pytest.mark.parametrize("mode", ["canonical", "full"])
    def test_refusal_names_the_radius(self, monkeypatch, mode, radius):
        # the box of the canonical lattice, read on either lattice, and the
        # box of an explicit basis
        monkeypatch.setattr(coxalg, "MAX_CERTIFICATE_WORK", 0)
        X = tripled_line()
        for A, box in ((curve_algebra(X, mode), default_box(X, radius)),
                       (tripled_algebra(), default_box(
                           X, radius, basis=explicit_basis()))):
            with pytest.raises(BoxTooLarge,
                               match="^a box of radius %d has" % radius):
                build_presentation(A, box)

    def test_refused_before_any_class_is_read(self, monkeypatch):
        # the plain line at box 3: classes 0..3 of dimensions 1..4
        X = plain_line()
        box = default_box(X, 3)
        read = []
        honest = coxalg._MonomialLists.monomials
        monkeypatch.setattr(coxalg._MonomialLists, "monomials",
                            lambda self, D: read.append(D) or honest(self, D))
        monkeypatch.setattr(coxalg, "MAX_CERTIFICATE_WORK", 29)
        with pytest.raises(BoxTooLarge, match="^a box of radius 3 has "
                           "components whose squared dimensions sum to 30, "
                           "more than 29$"):
            build_presentation(curve_algebra(X), box)
        assert read == []
        monkeypatch.setattr(coxalg, "MAX_CERTIFICATE_WORK", 30)
        build_presentation(curve_algebra(X), box)
        assert len(read) == 4


class TestSectionsAsPolynomials:
    """One witness crossing of the element against one per monomial."""

    @pytest.mark.parametrize("mode", ["canonical", "full"])
    @pytest.mark.parametrize("name", sorted(FIXTURE_CURVES))
    def test_fixture_curves(self, name, mode):
        X = FIXTURE_CURVES[name]
        self._assert_agrees(X, mode)

    @given(small_curves(max_mult=3), st.sampled_from(["canonical", "full"]))
    @settings(max_examples=15, deadline=None)
    def test_small_curves(self, X, mode):
        self._assert_agrees(X, mode)

    @staticmethod
    def _assert_agrees(X, mode):
        A = curve_algebra(X, mode)
        P = build_presentation(A, default_box(X, 1))
        elements = irrelevant_sections(A)
        assert (sections_as_polynomials(A, P, elements)
                == _per_monomial_sections(A, P, elements))

    @pytest.mark.parametrize("name", sorted(FIXTURE_CURVES))
    def test_fixture_crossings_match_the_family(self, name):
        A, crossed = self._assert_family_witnesses(FIXTURE_CURVES[name])
        # a lattice with a kernel has degrees of one class to cross between
        assert bool(crossed) == bool(A.lattice.kernel_basis())

    @given(small_curves(max_points=5, bases=(0, 1, "inf", -1, 2)))
    @settings(max_examples=25, deadline=None)
    def test_small_curve_crossings_match_the_family(self, X):
        # box 1 lists 3^rank classes
        assume(picard_rank(X) <= 8)
        self._assert_family_witnesses(X)

    @staticmethod
    def _assert_family_witnesses(X):
        """Each witness sections_as_polynomials crosses by, on the irrelevant
        elements of verify --lambda full at box 1, against the shifting
        family's witness_for(L - rep); returns the algebra and the number
        of crossings."""
        A = curve_algebra(X, "full")
        P = build_presentation(A, default_box(X, 1))
        elements = irrelevant_sections(A)
        crossed = []

        def recording(curve, D):
            w = is_principal(curve, D)
            crossed.append((D, w))
            return w

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(coxalg, "is_principal", recording)
            sections_as_polynomials(A, P, elements)
        family = shifting_family(A)
        for D, w in crossed:
            # the basis divisors of the full lattice are the single copies
            E = tuple(-D.coefficient(q) for q in X.special_copies())
            assert A.lattice.divisor_of(E) == -D
            assert w == family.witness_for(E)
        return A, len(crossed)


class TestClassOrder:
    """The weighted-degree traversal against the effectivity oracle."""

    @pytest.mark.parametrize("X", ORDER_CASES.values(), ids=ORDER_CASES)
    def test_traversal_extends_effectivity(self, X):
        A = curve_algebra(X)
        box = default_box(X, 1)
        order = [c for _, c in traversal(A, box)]
        assert len({A.pic.class_key(c) for c in box}) == len(order)
        for a, b in itertools.combinations(range(len(order)), 2):
            assert not A.effective_nonzero(
                tuple(x - y for x, y in zip(order[a], order[b])))

    def test_weights_must_vanish_on_relations(self):
        X = GluedCurve([(pt(0), 3), (pt("inf"), 2)])
        bad = SimpleNamespace(
            curve=X, pic=FGAbelianGroup(5, [(1, 1, 1, -1, 0)]))
        with pytest.raises(InternalInconsistency):
            _degree_weights(bad)


def _radius(rank, most, vectors=3 ** 8):
    """The largest radius up to most whose box over rank generators lists
    at most the given number of vectors."""
    return max(r for r in range(most + 1) if (2 * r + 1) ** rank <= vectors)


class TestZeroClasses:
    """_traversal, which reads dimensions in box order and orders only the
    nonzero classes, against the traversal of every distinct class
    (report_oracles.traversal), on boxes that hold each class once: the
    boxes of kernel-free lattices, the only ones the CLI builds, and
    hand-made boxes of vectors moved off them by a class relation."""

    @staticmethod
    def _assert_agrees(A, box):
        assert list(box) == box_classes(A, box)
        visit = _traversal(A, box)
        dims = {vec: A.component_dim(vec) for vec in box}
        assert [(vec, dim) for _, vec, dim in visit] == [
            (vec, dims[vec]) for _, vec in traversal(A, box) if dims[vec]]
        assert all(box[i] is vec for i, vec, _ in visit)
        assert len(visit) == sum(1 for d in dims.values() if d)

    @staticmethod
    def _moved_box(A, box):
        # each class at its own vector moved by a class relation: a
        # hand-made box that still holds each class once
        shifts = A.pic.relations or ((0,) * A.pic.ambient_rank,)
        return tuple(_vadd(c, shifts[0]) for c in box)

    @pytest.mark.parametrize("mode", ["canonical", "full"])
    @pytest.mark.parametrize("name", sorted(FIXTURE_CURVES))
    def test_fixture_curves(self, name, mode):
        X = FIXTURE_CURVES[name]
        A = curve_algebra(X, mode)
        boxes = [default_box(X, 2), self._moved_box(A, default_box(X, 1))]
        if not A.lattice.kernel_basis():
            boxes.append(lattice_box(A.lattice, 1))
        for box in boxes:
            self._assert_agrees(A, box)

    @given(small_curves(max_mult=3), st.sampled_from(["canonical", "full"]))
    @settings(max_examples=25, deadline=None)
    def test_small_curves(self, X, mode):
        # the largest radius up to 2 whose box has at most 3^8 vectors
        A = curve_algebra(X, mode)
        canonical = curve_algebra(X).lattice.rank
        self._assert_agrees(A, default_box(X, _radius(canonical, 2)))
        if not A.lattice.kernel_basis():
            self._assert_agrees(A, lattice_box(A.lattice,
                                               _radius(A.lattice.rank, 1)))

    @pytest.mark.parametrize("name", sorted(FIXTURE_CURVES))
    def test_only_kernel_free_lattice_boxes_skip_the_dedupe(self, name):
        # no box is deduplicated: the box of a kernel-free lattice holds
        # each class once, and the full lattice's box, which repeats
        # classes when the lattice has a kernel, is refused by the search
        X = FIXTURE_CURVES[name]
        canonical = lattice_box(canonical_lambda(X), 2)
        key = curve_algebra(X).pic.class_key
        assert len({key(c) for c in canonical}) == len(canonical)
        full = full_lambda(X)
        box = lattice_box(full, 1)
        repeats = len({key(c) for c in box}) < len(box)
        assert repeats == bool(full.kernel_basis())
        if repeats:
            with pytest.raises(ValueError, match="last copy"):
                build_presentation(curve_algebra(X, "full"), box)

    def test_hand_made_box_on_a_kernel_free_lattice(self, monkeypatch):
        # the explicit basis of the tripled line is canonical, with no
        # kernel; a hand-made box of its classes moved by a relation reads
        # the same rows at the moved degrees, and neither box asks for a
        # class key
        A, box = tripled_algebra(), tripled_box()
        assert not A.lattice.kernel_basis()
        calls = [0]
        key = PicardData.class_key

        def counting(self, vec):
            calls[0] += 1
            return key(self, vec)

        monkeypatch.setattr(PicardData, "class_key", counting)
        P = build_presentation(A, box)
        moved = self._moved_box(A, box)
        R = build_presentation(A, moved)
        assert calls[0] == 0
        assert [row[0] for row in R.certificate] == list(moved)
        assert [row[1:] for row in R.certificate] == [
            row[1:] for row in P.certificate]

    def test_hand_made_box_against_the_two_traversals(self):
        X = FIXTURE_CURVES["mixed_line"]
        A = curve_algebra(X)
        TestOnePassSearch._assert_two_passes_agree(
            A, self._moved_box(A, default_box(X, 1)))


class TestCertificate:
    def test_zero_rows_are_not_stored(self):
        rows = [((1, 0), 2, 1, 1, 1), ((0, 1), 0, 0, 0, 0), ((), 0, 0, 0, 0),
                ((2,), 0, 1, 0, 0)]
        cert = Certificate.of(rows)
        assert list(cert) == rows
        assert len(cert) == 4
        assert cert.degrees == ((1, 0), (0, 1), (), (2,))
        assert dict(cert.rows) == {0: rows[0], 3: rows[3]}
        with pytest.raises(AttributeError):
            cert.rows = {}
        with pytest.raises(TypeError):
            cert.rows[1] = rows[1]

    def test_curve_rows_of_zero_classes(self):
        P = tripled_presentation()
        A = tripled_algebra()
        stored = {P.certificate.degrees[i] for i in P.certificate.rows}
        assert stored == {c for c in tripled_box() if A.component_dim(c)}
        assert len(stored) < len(P.certificate) == len(tripled_box())


class TestWeightMonoid:
    def test_tripled_generators_cover_the_class_group(self):
        A = tripled_algebra()
        verdict = weight_monoid_check(
            A.pic, [d for d, _ in tripled_presentation().generators])
        assert verdict.verdict == "pass"

    def test_index_two_subgroup_fails(self):
        verdict = weight_monoid_check(FGAbelianGroup(1), [(2,)])
        assert verdict.verdict == "fail"
        assert verdict.fields["cokernel"]["invariant_factors"] == [2]

    def test_torsion_target_passes(self):
        G = FGAbelianGroup(1, [(2,)])
        assert weight_monoid_check(G, [(1,)]).verdict == "pass"

    def test_trivial_group_with_no_generators(self):
        verdict = weight_monoid_check(FGAbelianGroup(0, []), [])
        assert verdict.verdict == "pass"


@st.composite
def groups_with_vectors(draw, max_rank=3):
    """A group of ambient rank at most max_rank, its relations mixing
    multiples of unit vectors (torsion) with arbitrary columns, and a few
    vectors in it."""
    n = draw(st.integers(min_value=0, max_value=max_rank))
    column = st.lists(st.integers(min_value=-3, max_value=3),
                      min_size=n, max_size=n).map(tuple)
    relations = draw(st.lists(column, max_size=2))
    if n:
        for i, k in draw(st.lists(st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=2, max_value=4)), max_size=2)):
            relations.append(tuple(k * (t == i) for t in range(n)))
    return FGAbelianGroup(n, relations), draw(st.lists(column, max_size=4))


class TestCokernel:
    """_cokernel's Hermite test against the Smith form of the quotient."""

    @staticmethod
    def _assert_agrees(group, vectors):
        quotient = FGAbelianGroup(group.ambient_rank,
                                  list(vectors) + list(group.relations))
        got = _cokernel(group, vectors)
        if quotient.rank == 0 and not quotient.invariant_factors:
            assert got is None
        else:
            assert got == quotient.describe()

    @given(groups_with_vectors())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_smith_form(self, case):
        self._assert_agrees(*case)

    def test_torsion_fan(self):
        path = pathlib.Path(__file__).parent / "fixtures" / "torsion_fan.json"
        group, degrees = class_group(fan_from_json(
            json.loads(path.read_text(encoding="utf-8"))))
        assert group.invariant_factors == (2,)
        for k in range(len(degrees) + 1):
            for subset in itertools.combinations(degrees, k):
                self._assert_agrees(group, list(subset))
        assert _cokernel(group, []) == {"rank": 0, "invariant_factors": [2]}
        assert _cokernel(group, degrees[:1]) is None

    @pytest.mark.parametrize("name", sorted(FIXTURE_CURVES))
    def test_curve_generator_degrees(self, name):
        X = FIXTURE_CURVES[name]
        A = curve_algebra(X)
        degrees = [d for d, _ in build_presentation(
            A, default_box(X, 1)).generators]
        for k in range(len(degrees) + 1):
            for subset in itertools.combinations(degrees, k):
                self._assert_agrees(A.pic, list(subset))


def polynomial_ring_presentation(degrees):
    """Free presentation with one variable per degree and no relations."""
    n = len(degrees[0])
    grading = FGAbelianGroup(n)
    gens = [(d, None) for d in degrees]
    box = [tuple(0 for _ in range(n))] + list(degrees)
    cert = Certificate.of((tuple(d), 1, 1, 0, 0) for d in box)
    return Presentation(grading, gens, (), box, cert)


def tripled_irrelevant_monomials():
    """The covering monomials of the tripled line in the T variables."""
    X = tripled_line()
    out = []
    for t_idx, (t, _) in enumerate(X.special):
        others = [e for k, e in enumerate(X.special) if k != t_idx]
        for kept in itertools.product(*[range(m) for _, m in others]):
            exps = [0] * 6
            for q in X.copies(t):
                exps[COPY_VARIABLE[q]] += 1
            for (s, m), keep in zip(others, kept):
                for i, q in enumerate(X.copies(s)):
                    if i != keep:
                        exps[COPY_VARIABLE[q]] += 1
            out.append(MultiPoly.monomial(tuple(exps)))
    return out


class TestFreelyGraded:
    def test_two_variables_of_degree_one(self):
        P = polynomial_ring_presentation([(1,), (1,)])
        T1 = MultiPoly.monomial((1, 0))
        T2 = MultiPoly.monomial((0, 1))
        verdict = freely_graded_check(P, [T1, T2], 4)
        assert verdict.verdict == "pass"
        assert verdict.fields["details"]["witnesses"] == (
            ((0, 1),), ((1, 1),))

    def test_tripled_covering(self):
        verdict = freely_graded_check(tripled_presentation(),
                                      tripled_irrelevant_monomials(), 4)
        assert verdict.verdict == "pass"

    def test_zero_power_bound(self):
        P = polynomial_ring_presentation([(1,)])
        T1 = MultiPoly.monomial((1,))
        verdict = freely_graded_check(P, [T1], 0)
        assert verdict.verdict == "inconclusive"

    def test_uncovered_degrees_are_inconclusive(self):
        P = polynomial_ring_presentation([(1, 0), (0, 1)])
        T1 = MultiPoly.monomial((1, 0))
        verdict = freely_graded_check(P, [T1], 4)
        assert verdict.verdict == "inconclusive"
        assert verdict.fields["details"]["index"] == 0


def _full_space_member(P, poly, j, target):
    """Membership of poly in (T_j) without the quotient: the span of one unit
    vector per monomial containing T_j and every relation multiple, over all
    monomials of the class, truncated exactly as the production test."""
    gen_degrees = [d for d, _ in P.generators]
    bound = _total_degree(poly) + max(
        (_total_degree(r) for r in P.relations), default=0)
    try:
        monos = enumerate_monomials(gen_degrees, target, bound=bound,
                                    relations=P.grading.relations)
    except UnboundedEnumeration:
        return False
    index = {exps: t for t, exps in enumerate(monos)}
    nm = len(monos)
    span = _Span(nm)
    for exps, t in index.items():
        if exps[j] >= 1:
            unit = [Fraction(0)] * nm
            unit[t] = Fraction(1)
            span.add(unit)
    for r in P.relations:
        diff = _vsub(target, _poly_class(P, r))
        try:
            cofs = enumerate_monomials(gen_degrees, diff, bound=bound,
                                       relations=P.grading.relations)
        except UnboundedEnumeration:
            continue
        for cof in cofs:
            prod = r * MultiPoly.monomial(cof)
            vec = [Fraction(0)] * nm
            usable = True
            for exps, coeff in prod.terms.items():
                t = index.get(exps)
                if t is None:
                    usable = False
                    break
                vec[t] = coeff
            if usable:
                span.add(vec)
    target_vec = [Fraction(0)] * nm
    for exps, coeff in poly.terms.items():
        t = index.get(exps)
        if t is None:
            return False
        target_vec[t] = coeff
    return span.contains(target_vec)


# {2,2,2,2}: kept out of tests/fixtures, whose every curve the golden files
# report eight times
QUADRUPLED_LINE = GluedCurve([(pt(0), 2), (pt(1), 2), (pt(-1), 2),
                              (pt("inf"), 2)])


def _verify_inputs(X, mode="canonical"):
    """What verify hands freely_graded_check on X at box radius 1."""
    A = curve_algebra(X, mode)
    P = build_presentation(A, default_box(X, 1))
    polys = sections_as_polynomials(A, P, irrelevant_sections(A))
    return P, polys, candidate_points(A, P)


def _certified(f, points):
    return {j for p in points if f.eval(p) != 0
            for j, x in enumerate(p) if x == 0}


@pytest.fixture
def span_tests(monkeypatch):
    """Records each _variable_ideal_members call as (poly, variables)."""
    calls = []
    honest = coxalg._variable_ideal_members

    def recorded(P, poly, variables):
        calls.append((poly, tuple(variables)))
        return honest(P, poly, variables)

    monkeypatch.setattr(coxalg, "_variable_ideal_members", recorded)
    return calls


class TestNeverCertificates:
    """Exact "never" certificates in the free-grading check against the
    power search without them (points=()), which stays as the oracle."""

    @staticmethod
    def _assert_agrees(X, mode="canonical"):
        P, polys, points = _verify_inputs(X, mode)
        assert all(r.eval(p) == 0 for r in P.relations for p in points)
        fast = freely_graded_check(P, polys, 8, points)
        slow = freely_graded_check(P, polys, 8)
        # the glued curves are freely graded, so the search lists every hit
        assert slow.verdict == "pass"
        assert fast.verdict == "pass"
        assert fast.to_json() == slow.to_json()
        for f, wits in zip(polys, slow.fields["details"]["witnesses"]):
            assert _certified(f, points).isdisjoint(j for j, _ in wits)

    @pytest.mark.parametrize("mode", ["canonical", "full"])
    @pytest.mark.parametrize("name", sorted(FIXTURE_CURVES))
    def test_fixtures_agree_with_the_search(self, name, mode):
        self._assert_agrees(FIXTURE_CURVES[name], mode)

    def test_quadrupled_line_agrees_with_the_search(self):
        self._assert_agrees(QUADRUPLED_LINE)

    @given(small_curves(max_mult=3, min_points=2, max_points=3))
    @settings(max_examples=12, deadline=None)
    def test_small_curves_agree_with_the_search(self, X):
        self._assert_agrees(X)

    def test_copy_points_vanish_at_their_generator(self):
        # on the tripled line exactly one generator vanishes at each copy
        X = tripled_line()
        points = candidate_points(tripled_algebra(), tripled_presentation())
        zeros = [{j for j, x in enumerate(p) if x == 0} for p in points]
        assert zeros[:6] == [{COPY_VARIABLE[q]} for q in X.special_copies()]
        assert zeros[6:] == [set()] * coxalg.ORDINARY_CANDIDATES

    def test_point_off_the_relations_is_dropped(self, span_tests):
        P, polys, points = _verify_inputs(FIXTURE_CURVES["tripled_line"])
        good = points[0]
        bad = good[:2] + (good[2] + 1,) + good[2 + 1:]
        assert all(r.eval(good) == 0 for r in P.relations)
        assert any(r.eval(bad) != 0 for r in P.relations)
        assert any(_certified(f, [bad]) for f in polys)
        runs = []
        for pts in ([good], [bad], ()):
            span_tests.clear()
            runs.append((freely_graded_check(P, polys, 8, pts).to_json(),
                         list(span_tests)))
        with_good, with_bad, slow = runs
        # the good point narrows the variables searched, the bad one nothing
        assert with_good[1] != slow[1]
        assert with_bad == slow
        assert len(with_bad[1]) == len(slow[1]) == 96

    def test_vanishing_element_certifies_nothing(self, span_tests):
        P, polys, points = _verify_inputs(FIXTURE_CURVES["tripled_line"])
        p = points[0]
        calls = {}
        for f in polys:
            for pts in ([p], ()):
                span_tests.clear()
                freely_graded_check(P, [f], 8, pts)
                calls[f, len(pts)] = list(span_tests)
        vanishing = [f for f in polys if f.eval(p) == 0]
        # p vanishes at T1 only, which none of these elements is divisible by
        assert any(not f.divisible_by_variable(0) for f in vanishing)
        assert all(calls[f, 1] == calls[f, 0] for f in vanishing)
        assert all(calls[f, 1] != calls[f, 0] for f in polys
                   if f.eval(p) != 0 and not f.divisible_by_variable(0))

    def test_certificates_keep_an_inconclusive_verdict(self, span_tests):
        # T1 alone has too few unit degrees; the points certify every other
        # variable, and the verdict stays inconclusive
        P, _, points = _verify_inputs(FIXTURE_CURVES["tripled_line"])
        T1 = MultiPoly.monomial((1,) + (0,) * (len(P.generators) - 1))
        runs = []
        for pts in (points, ()):
            span_tests.clear()
            runs.append((freely_graded_check(P, [T1], 8, pts),
                         len(span_tests)))
        (fast, fast_calls), (slow, slow_calls) = runs
        assert _certified(T1, points) == set(range(1, len(P.generators)))
        assert fast.verdict == "inconclusive"
        assert slow.verdict == "inconclusive"
        assert fast.to_json() == slow.to_json()
        assert fast_calls == 0 < slow_calls

    def test_zero_power_bound_with_points(self):
        P, polys, points = _verify_inputs(FIXTURE_CURVES["tripled_line"])
        verdict = freely_graded_check(P, polys, 0, points)
        assert verdict.verdict == "inconclusive"


class TestQuotientMembership:
    """The membership test modulo the monomials divisible by T_j against the
    full-space span, on the irrelevant elements of the verify pipeline."""

    @pytest.mark.parametrize("X", FIXTURE_CURVES.values(),
                             ids=FIXTURE_CURVES)
    def test_agrees_with_full_space(self, X):
        A = curve_algebra(X)
        P = build_presentation(A, default_box(X, 1))
        k = len(P.generators)
        # members that only the relation multiples put in (T_j)
        from_relations = 0
        for f in sections_as_polynomials(A, P, irrelevant_sections(A)):
            fn = f
            for n in range(1, 9):
                if n > 1:
                    fn = fn * f
                target = _poly_class(P, fn)
                expected = {j for j in range(k)
                            if _full_space_member(P, fn, j, target)}
                assert _variable_ideal_members(P, fn, range(k)) == expected
                from_relations += sum(not fn.divisible_by_variable(j)
                                      for j in expected)
        assert from_relations > 0 or not P.relations

    def test_multiple_leaving_the_truncation_is_unused(self):
        # T1, T2, T3 of degrees 1, 1, 2 with T3 = T2^2: T3^3 = T2^6 is not in
        # (T1), but T2^4 * (T3 - T2^2) has its T2^6 beyond the total degree
        # bound, and keeping the rest of it would put T3^3 in every ideal
        P = polynomial_ring_presentation([(1,), (1,), (2,)])
        rel = MultiPoly(3, {(0, 0, 1): 1, (0, 2, 0): -1})
        P = Presentation(P.grading, P.generators, (rel,), P.box,
                         P.certificate)
        cube = MultiPoly.monomial((0, 0, 3))
        assert _variable_ideal_members(P, cube, range(3)) == {1, 2}
        assert not _full_space_member(P, cube, 0, (6,))

    def test_relation_lies_in_every_variable_ideal(self):
        P = tripled_presentation()
        rel = P.relations[0]
        poly = MultiPoly.monomial((1, 1, 0, 0, 0, 0))
        assert _variable_ideal_members(P, poly, range(6)) == {0, 1}
        assert _variable_ideal_members(P, rel, range(6)) == set(range(6))


class _ComponentStub:
    """Bare component with just enough surface for the unit search."""

    def __init__(self, basis):
        self.basis = list(basis)
        self.dim = len(self.basis)


class _LaurentStub:
    """Graded ring with invertible elements in every degree."""

    pic = FGAbelianGroup(1)

    def pic_component(self, c):
        return _ComponentStub([Z ** c[0]])

    def component_dim(self, c):
        return 1


class _FatZeroStub:
    """Graded ring whose degree zero part is two dimensional."""

    pic = FGAbelianGroup(1)

    def pic_component(self, c):
        if c[0] == 0:
            return _ComponentStub([ONE, Z])
        return _ComponentStub([])

    def component_dim(self, c):
        return self.pic_component(c).dim


def _zero_class_vectors(A):
    """The zero vector, the class relations, their negatives and the sum
    of the first two: vectors of the zero class, most of them nonzero."""
    rels = list(A.pic.relations)
    out = [(0,) * A.pic.ambient_rank]
    out += rels + [tuple(-x for x in r) for r in rels]
    if len(rels) > 1:
        out.append(_vadd(rels[0], rels[1]))
    return out


class TestIsPointed:
    """is_pointed, read from block minima, against the search of basis
    products it replaced (conveniences.pointed_by_search), which also
    decides rings that are not curves: the stubs."""

    @staticmethod
    def _assert_agrees(A, box):
        got, expected = is_pointed(A, box), pointed_by_search(A, box)
        assert got.verdict == expected.verdict
        assert dict(got.fields) == dict(expected.fields)
        return got

    def test_tripled(self):
        report = is_pointed(tripled_algebra(), tripled_box())
        assert report.verdict == "pass"
        assert report.fields["a0_is_field"]
        assert report.fields["units_are_constants"] == "pass"
        assert report.fields["witness"] is None

    def test_zero_box_is_inconclusive(self):
        report = is_pointed(tripled_algebra(), [(0,) * 6])
        assert report.verdict == "inconclusive"
        assert report.fields["units_are_constants"] == "inconclusive"

    def test_invertible_variable_fails(self):
        report = pointed_by_search(_LaurentStub(), [(0,), (1,), (-1,)])
        assert report.verdict == "fail"
        assert report.fields["units_are_constants"] == "fail"
        assert report.fields["witness"] == ((1,), Z)

    def test_fat_degree_zero_is_inconclusive(self):
        report = pointed_by_search(_FatZeroStub(), [(0,), (1,), (-1,)])
        assert not report.fields["a0_is_field"]
        assert report.fields["units_are_constants"] == "inconclusive"

    def test_fat_degree_zero_fails(self):
        # units undecided, but a degree zero part beyond the ground field
        # already refutes pointedness
        report = pointed_by_search(_FatZeroStub(), [(0,), (1,), (-1,)])
        assert report.verdict == "fail"

    def test_reads_dimensions_before_building(self, monkeypatch):
        # verify --box 1 on {2,2,2}: 80 nonzero classes, none with both
        # itself and its negative effective, so no component is built
        X = tripled_line()
        A = curve_algebra(X)
        box = default_box(X, 1)
        built = []
        honest = coxalg.GradedSectionAlgebra.component
        monkeypatch.setattr(coxalg.GradedSectionAlgebra, "component",
                            lambda self, vec: built.append(vec)
                            or honest(self, vec))
        assert is_pointed(A, box).verdict == "pass"
        assert sum(not A.pic.contains_zero(c) for c in box) == 80
        assert built == []

    @pytest.mark.parametrize("mode", ["canonical", "full"])
    @pytest.mark.parametrize("name", sorted(FIXTURE_CURVES))
    def test_fixture_curves(self, name, mode):
        X = FIXTURE_CURVES[name]
        A = curve_algebra(X, mode)
        zero = _zero_class_vectors(A)
        for box in (default_box(X, 1), default_box(X, 2), zero,
                    zero + list(default_box(X, 1))):
            self._assert_agrees(A, box)
        assert self._assert_agrees(A, zero).verdict == "inconclusive"

    @given(small_curves(max_points=5, bases=(0, 1, "inf", -1, 2)),
           st.sampled_from(["canonical", "full"]), st.integers(1, 2),
           st.data())
    @settings(max_examples=30, deadline=None)
    def test_small_curves(self, X, mode, radius, data):
        # up to 40 coefficient vectors of the canonical box of the radius,
        # with the vectors of the zero class
        A = curve_algebra(X, mode)
        lattice = canonical_lambda(X)
        coeffs = data.draw(st.lists(
            st.lists(st.integers(-radius, radius), min_size=lattice.rank,
                     max_size=lattice.rank).map(tuple),
            max_size=40, unique=True))
        box = [lattice.copy_vector(c) for c in coeffs]
        self._assert_agrees(A, box + _zero_class_vectors(A))

    def test_a_unit_degree_outside_the_zero_class_raises(self, monkeypatch):
        # a class group that denies the relations their class: the block
        # minima still find a degree whose negative carries sections too
        A = tripled_algebra()
        box = _zero_class_vectors(A)
        monkeypatch.setattr(PicardData, "contains_zero",
                            lambda self, vec: not any(vec))
        with pytest.raises(InternalInconsistency,
                           match="outside the zero class"):
            is_pointed(A, box)


class TestSeparatedness:
    def test_tripled_irrelevant_elements(self):
        A = tripled_algebra()
        elems = irrelevant_sections(A)
        assert len(elems) == 12
        for c, s in elems:
            assert A.pic_component(c).coordinates_of(s) is not None

    def test_plain_irrelevant_elements(self):
        A = curve_algebra(plain_line())
        assert [(c, str(s)) for c, s in irrelevant_sections(A)] == [
            ((1,), "1"), ((1,), "z")]

    def test_plain_line_is_separated(self):
        A = curve_algebra(plain_line())
        verdict = separatedness_check(A, irrelevant_sections(A))
        assert verdict.verdict == "separated"
        assert verdict.fields["levels"] == 2

    def test_tripled_line_is_not_separated(self):
        A = tripled_algebra()
        elems = irrelevant_sections(A)
        verdict = separatedness_check(A, elems)
        assert verdict.verdict == "not_separated"
        assert verdict.fields["pair"] == (0, 1)
        assert verdict.fields["level"] == 1
        assert str(verdict.fields["witness"]) == "z^3/(z^3 - 3*z^2 + 3*z - 1)"
        si = elems[0][1]
        sj = elems[1][1]
        assert verdict.fields["shifted"] == verdict.fields["witness"] * si * sj

    def test_single_element_is_vacuously_separated(self):
        A = tripled_algebra()
        verdict = separatedness_check(A, irrelevant_sections(A)[:1])
        assert verdict.verdict == "separated"

    def test_no_levels_is_inconclusive(self):
        A = curve_algebra(plain_line())
        verdict = separatedness_check(A, irrelevant_sections(A), levels=0)
        assert verdict.verdict == "inconclusive"


def _section_space_image_span(A, ci, cj, n):
    """The image span on section spaces: every product of basis sections of
    the n-scaled components, read back in the component of their sum."""
    target = A.pic_component(tuple(n * (a + b) for a, b in zip(ci, cj)))
    span = _Span(target.dim)
    for a in A.pic_component(tuple(n * x for x in ci)).basis:
        for b in A.pic_component(tuple(n * x for x in cj)).basis:
            v = target.coordinates_of(a * b)
            if v is None:
                raise InternalInconsistency(
                    "product of sections escaped the component of the sum")
            span.add(v)
    return target, span


def _section_space_separatedness(A, irrelevant, levels=2):
    """The separatedness check on section spaces and rational functions,
    kept as the oracle of the coordinate-polynomial one."""
    elements = [(tuple(int(x) for x in c), s) for c, s in irrelevant]
    if levels < 1:
        return coxalg.Verdict("inconclusive",
                              reason="no truncation levels requested")
    unresolved = False
    for i, j in itertools.combinations(range(len(elements)), 2):
        ci, si = elements[i]
        cj, sj = elements[j]
        for n in range(1, levels + 1):
            target, span = _section_space_image_span(A, ci, cj, n)
            if span.dim == target.dim:
                continue
            defects = []
            for idx in range(target.dim):
                unit = tuple(Fraction(1 if t == idx else 0)
                             for t in range(target.dim))
                if not span.contains(unit):
                    defects.append(target.basis[idx])
            if n == levels:
                unresolved = True
                continue
            target2, span2 = _section_space_image_span(A, ci, cj, n + 1)
            for h in defects:
                shifted = h * si * sj
                v2 = target2.coordinates_of(shifted)
                if v2 is None:
                    raise InternalInconsistency(
                        "persistence product escaped its component")
                if not span2.contains(v2):
                    return coxalg.Verdict("not_separated", pair=(i, j),
                                          level=n, witness=h,
                                          shifted=shifted)
    if unresolved:
        return coxalg.Verdict(
            "inconclusive", reason="spanning failure at the final "
            "truncation level could not be confirmed at the next one")
    return coxalg.Verdict("separated", levels=levels)


class TestSeparatednessOracle:
    """The coordinate-polynomial separatedness check and covering elements
    against the section-space ones."""

    @staticmethod
    def _assert_agrees(X, mode, levels):
        A = curve_algebra(X, mode)
        elements = irrelevant_sections(A)
        # every covering element lies in its section-space component, with
        # the coordinate polynomial the exact division reads
        for c, s in elements:
            space = A.pic_component(c)
            assert space.coordinates_of(s) is not None
            assert (coxalg._section_polynomial(A, A.rep(c), s.num, s.den)
                    == space.coordinate_polynomial(s))
        got = separatedness_check(A, elements, levels)
        expected = _section_space_separatedness(A, elements, levels)
        assert got.verdict == expected.verdict
        assert dict(got.fields) == dict(expected.fields)
        assert str(got.fields.get("witness")) == str(
            expected.fields.get("witness"))
        assert str(got.fields.get("shifted")) == str(
            expected.fields.get("shifted"))
        return got

    @pytest.mark.parametrize("levels", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["canonical", "full"])
    @pytest.mark.parametrize("name", sorted(FIXTURE_CURVES))
    def test_fixture_curves(self, name, mode, levels):
        self._assert_agrees(FIXTURE_CURVES[name], mode, levels)

    def test_explicit_basis(self):
        A = tripled_algebra()
        elements = irrelevant_sections(A)
        got = separatedness_check(A, elements)
        assert got.verdict == "not_separated"
        expected = _section_space_separatedness(A, elements)
        assert dict(got.fields) == dict(expected.fields)

    @given(small_curves(max_mult=3), st.sampled_from(["canonical", "full"]),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_hypothesis_curves(self, X, mode, levels):
        self._assert_agrees(X, mode, levels)


class TestHomEquivalence:
    def test_identity(self):
        gens = [(d, s) for d, s in tripled_presentation().generators]
        verdict = graded_homs_equivalent(gens, gens)
        assert verdict.verdict == "equivalent"
        assert set(verdict.fields["character"].values()) == {Fraction(1)}

    def test_global_scaling(self):
        gens = [(d, s) for d, s in tripled_presentation().generators]
        scaled = [(d, s * 2) for d, s in gens]
        verdict = graded_homs_equivalent(gens, scaled)
        assert verdict.verdict == "equivalent"
        assert set(verdict.fields["character"].values()) == {Fraction(2)}

    def test_swapped_basis_is_not_a_character(self):
        mu = [((1,), ONE), ((1,), Z)]
        nu = [((1,), Z), ((1,), ONE)]
        verdict = graded_homs_equivalent(mu, nu)
        assert verdict.verdict == "not_equivalent"

    def test_relation_violating_ratios(self):
        mu = [((1,), ONE), ((1,), Z)]
        nu = [((1,), ONE * 2), ((1,), Z * 3)]
        verdict = graded_homs_equivalent(mu, nu)
        assert verdict.verdict == "not_equivalent"

    def test_ratios_on_independent_degrees(self):
        mu = [((1, 0), ONE), ((0, 1), Z)]
        nu = [((1, 0), ONE * 2), ((0, 1), Z * 3)]
        verdict = graded_homs_equivalent(mu, nu)
        assert verdict.verdict == "equivalent"
        assert verdict.fields["character"] == {(1, 0): Fraction(2),
                                     (0, 1): Fraction(3)}

    def test_kernel_of_equal_degrees(self):
        # the degree relations of [[1, 1]] are spanned by (1, -1): equal
        # ratios pass it, unequal ones name it
        mu = [((1,), ONE), ((1,), Z)]
        verdict = graded_homs_equivalent(mu, [((1,), ONE * 2), ((1,), Z * 2)])
        assert verdict.fields["character"] == {(1,): Fraction(2)}
        verdict = graded_homs_equivalent(mu, [((1,), ONE * 2), ((1,), Z * 3)])
        assert verdict.fields["reason"] == (
            "ratios violate the degree relation [1, -1]")

    def test_grading_relations_join_the_kernel(self):
        # in Z/2 twice the degree vanishes, so the ratio squares to 1
        grading = FGAbelianGroup(1, [(2,)])
        mu = [((1,), Z)]
        verdict = graded_homs_equivalent(mu, [((1,), -Z)], grading)
        assert verdict.fields["character"] == {(1,): Fraction(-1)}
        verdict = graded_homs_equivalent(mu, [((1,), Z * 2)], grading)
        assert verdict.fields["reason"] == (
            "ratios violate the degree relation [2]")
        verdict = graded_homs_equivalent(mu, [((1,), Z * 2)])
        assert verdict.verdict == "equivalent"

    def test_length_mismatch(self):
        with pytest.raises(DegreeMismatch):
            graded_homs_equivalent([((1,), ONE)], [])

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            graded_homs_equivalent([((1,), ONE)], [((2,), ONE)])


class TestUniquenessCrosscheck:
    def test_tripled(self):
        report = uniqueness_crosscheck(tripled_line(),
                                       box=tripled_box(),
                                       basis=explicit_basis())
        assert report.verdict == "pass"
        assert report.fields == {"classes": 625, "hilbert_equal": True,
                                 "iso_verified": True,
                                 "witness_multiplicative": True}

    def test_doubled(self):
        report = uniqueness_crosscheck(doubled_line())
        assert report.verdict == "pass"
        assert report.fields == {"classes": 25, "hilbert_equal": True,
                                 "iso_verified": True,
                                 "witness_multiplicative": True}

    def test_plain(self):
        report = uniqueness_crosscheck(plain_line(), radius=1)
        assert report.verdict == "pass"
        assert report.fields == {"classes": 3, "hilbert_equal": True,
                                 "iso_verified": True,
                                 "witness_multiplicative": True}


def _moved(A, c):
    """The full lattice's representative of c plus c[first copy of p] times
    the relation of p, for each special point p after the anchor."""
    X = A.curve
    L = list(A.rep(c))
    for (p, _), rel in zip(X.special[1:], A.pic.relations):
        k = c[X.copy_position(CurvePoint(p, 0))]
        L = [a + k * r for a, r in zip(L, rel)]
    return tuple(L)


def _section_space_crosscheck(X, box=None, radius=2, basis=None,
                              mutate=None):
    """The crosscheck on section spaces and functions, kept as the oracle of
    the order-vector one: the same verdicts, read at the same moved
    representatives.  Returns the report and the witness of every class.
    mutate, when given, is applied to the full algebra before any read."""
    A1 = curve_algebra(X, "canonical", basis=basis)
    A2 = curve_algebra(X, "full")
    if mutate is not None:
        mutate(A2)
    if box is None:
        box = lattice_box(A1.lattice, radius)
    box = [tuple(c) for c in box]

    def difference(c):
        return (A1.lattice.divisor_of(A1.rep(c))
                - A2.lattice.divisor_of(_moved(A2, c)))

    hilbert_equal = iso_verified = True
    witness = {}
    for c in box:
        S1 = A1.pic_component(c)
        S2 = A2.base.component(_moved(A2, c))
        if S1.dim != S2.dim:
            hilbert_equal = False
            continue
        try:
            w = is_principal(X, difference(c))
        except NotPrincipal:
            iso_verified = False
            continue
        witness[c] = w
        if any(S2.coordinates_of(f * w) is None for f in S1.basis):
            iso_verified = False
    product_ok = True
    items = list(witness.items())
    for (c1, w1), (c2, w2) in zip(items, items[1:]):
        try:
            if w1 * w2 != is_principal(X, difference(_vadd(c1, c2))):
                product_ok = False
        except NotPrincipal:
            product_ok = False
    report = {"classes": len(box), "hilbert_equal": hilbert_equal,
              "iso_verified": iso_verified,
              "witness_multiplicative": product_ok}
    return report, witness


def _copy_blocks(A, L):
    """The copy vector of the divisor of lattice degree L, cut into one
    tuple per special base."""
    coeffs = A.lattice.copy_vector(L)
    return [coeffs[block] for block in A.pic.blocks]


def _witness_orders_of_class(blocks1, blocks2):
    """Per-base witness orders of D1 - D2 for one class, from the copy
    blocks of both divisors; None when D1 - D2 is not principal."""
    e = []
    for x, y in zip(blocks1, blocks2):
        d = x[0] - y[0]
        if any(a - b != d for a, b in zip(x, y)):
            return None
        e.append(d)
    return None if sum(e) else tuple(e)


def _orders_of_class(A1, A2, c):
    """(m1, m2, e) for one class, read at A1.rep(c) and at the moved
    representative of c on the full lattice, one class at a time: the
    per-class oracle of the crosscheck's principal rows."""
    b1 = _copy_blocks(A1, A1.rep(c))
    b2 = _copy_blocks(A2, _moved(A2, c))
    return (tuple(min(x) for x in b1), tuple(min(y) for y in b2),
            _witness_orders_of_class(b1, b2))


def _per_class_crosscheck(X, box, basis=None):
    """The order-vector crosscheck read one class at a time on (m1, m2, e)
    triples (_orders_of_class), with the two checks that the principal
    rows decide by proof: landing on every witnessed class of nonzero
    dimension, and the product on every pair of consecutive witnessed
    classes.  Kept as the oracle of the principal rows; it reads nothing
    of coxalg's crosscheck."""
    A1 = curve_algebra(X, "canonical", basis=basis)
    A2 = curve_algebra(X, "full")
    box = [tuple(map(int, c)) for c in box]
    hilbert_equal = iso_verified = product_ok = True
    witnessed = []
    for c in box:
        m1, m2, e = _orders_of_class(A1, A2, c)
        dim = max(0, sum(m1) + 1)
        if dim != max(0, sum(m2) + 1):
            hilbert_equal = False
        elif e is None:
            iso_verified = False
        else:
            witnessed.append((c, e))
            if dim and any(y < x - k for x, y, k in zip(m1, m2, e)):
                iso_verified = False
    for (c1, e1), (c2, e2) in zip(witnessed, witnessed[1:]):
        e12 = _orders_of_class(A1, A2, _vadd(c1, c2))[2]
        if e12 is None or _vadd(e1, e2) != e12:
            product_ok = False
    bases = [p for p, _ in X.special]
    for e in {e for _, e in witnessed}:
        try:
            is_principal(X, _lift_orders(X, dict(zip(bases, e))))
        except NotPrincipal:
            iso_verified = False
    return {"classes": len(box), "hilbert_equal": hilbert_equal,
            "iso_verified": iso_verified,
            "witness_multiplicative": product_ok}


def _assert_oracles_agree(X, box, basis=None):
    """The crosscheck's report equals both oracles' on the box."""
    box = [tuple(c) for c in box]
    report = dict(uniqueness_crosscheck(X, box=box, basis=basis).fields)
    assert report == _section_space_crosscheck(X, box=box, basis=basis)[0]
    assert report == _per_class_crosscheck(X, box, basis)
    return report


def _dot(row, c):
    return sum(map(operator.mul, row, c))


def _assert_principal_rows_match(X, box, basis=None):
    """G c = 0 exactly where the per-class oracle finds D1 - D2 principal,
    and E c equals the oracle's witness orders there."""
    A1 = curve_algebra(X, "canonical", basis=basis)
    A2 = curve_algebra(X, "full")
    E, G = coxalg._principal_rows(*coxalg._class_maps(A1, A2),
                                  A1.pic.blocks)
    for c in box:
        e = _orders_of_class(A1, A2, c)[2]
        assert (e is not None) == (not any(_dot(row, c) for row in G))
        if e is not None:
            assert tuple(_dot(row, c) for row in E) == e


def _recorded_reads(monkeypatch):
    """Record what the crosscheck reads of each class of its box: the
    values of the rows of E, then those of G when G has rows (_rows_on)."""
    seen = {}
    honest = coxalg._rows_on

    def recording(rows, coords, count):
        out = honest(rows, coords, count)
        for c, values in zip(zip(*coords), zip(*out)):
            seen.setdefault(c, []).append(values)
        return out

    monkeypatch.setattr(coxalg, "_rows_on", recording)
    return seen


def _read_orders(seen, c):
    """The witness orders the crosscheck read for class c (_recorded_reads),
    None where it read D1 - D2 as not principal."""
    e, *g = seen[c]
    return None if any(itertools.chain(*g)) else e


def _counted_class_dims(monkeypatch):
    """Record the classes whose two dimensions the crosscheck reads."""
    calls = []
    honest = coxalg._class_dims

    def counting(T1, T2, blocks, c):
        calls.append(c)
        return honest(T1, T2, blocks, c)

    monkeypatch.setattr(coxalg, "_class_dims", counting)
    return calls


def _swap_first_columns(A):
    cols = list(A.lattice.columns)
    cols[0], cols[1] = cols[1], cols[0]
    object.__setattr__(A.lattice, "columns", tuple(cols))


def _swap_full_lattice(monkeypatch):
    """Swap the full lattice's first two columns in every crosscheck, the
    oracles' included, so that classes drop out of the witnessed ones."""
    honest = coxalg.curve_algebra

    def swapped(X, mode="canonical", basis=None):
        A = honest(X, mode, basis)
        if mode == "full" and A.lattice.rank > 1:
            _swap_first_columns(A)
        return A

    monkeypatch.setattr(coxalg, "curve_algebra", swapped)
    monkeypatch.setitem(globals(), "curve_algebra", swapped)


def _anchorless_full_lattice(monkeypatch):
    """Drop the anchor's copies from the full lattice's relations in every
    crosscheck, the oracles' included: each move then adds the copies of
    its point alone, so D1 - D2 stays constant on the copies of every base
    while its orders no longer add up to zero."""
    honest = coxalg.curve_algebra

    def anchorless(X, mode="canonical", basis=None):
        A = honest(X, mode, basis)
        if mode == "full":
            m0 = X.special[0][1]
            object.__setattr__(A.pic, "relations", tuple(
                (0,) * m0 + rel[m0:] for rel in A.pic.relations))
        return A

    monkeypatch.setattr(coxalg, "curve_algebra", anchorless)
    monkeypatch.setitem(globals(), "curve_algebra", anchorless)


LINE_FIXTURES = sorted(n for n in FIXTURE_CURVES if n.endswith("_line"))
# an anchor of one copy: swapping the full lattice's first two columns
# moves a copy between bases, so failing classes change their dimension
# sums, some of them between two negative values
LONE_ANCHOR = GluedCurve([(pt(0), 1), (pt(1), 2), (pt("inf"), 2)])


class TestCrosscheckOracle:
    """The principal-row crosscheck against the section-space one at the
    same moved representatives and against the per-class one that reads
    one class at a time with its landing and product checks."""

    @pytest.mark.parametrize("name", LINE_FIXTURES)
    def test_fixtures(self, monkeypatch, name):
        X = FIXTURE_CURVES[name]
        seen = _recorded_reads(monkeypatch)
        report = uniqueness_crosscheck(X, radius=1)
        expected, witness = _section_space_crosscheck(X, radius=1)
        assert report.fields == expected
        assert all(expected.values())
        # every class witness has the recorded orders at every base
        for c, w in witness.items():
            assert (tuple(order_at(w, p) for p, _ in X.special)
                    == _read_orders(seen, c))

    @pytest.mark.parametrize("name", LINE_FIXTURES)
    def test_shifting_ideal_identifies_repeated_classes(self, name):
        # the paper's quotient by the shifting ideal, which crosscheck
        # decides by per-base orders instead: on the full lattice, every
        # section of a class minus its shift to another degree of the class
        # lies in the ideal (read at the first two degrees of each class)
        X = FIXTURE_CURVES[name]
        A = curve_algebra(X, "full")
        fam = shifting_family(A)
        box = lattice_box(A.lattice, 1)
        degrees = {}
        for L in box:
            degrees.setdefault(A.pic.class_key(A.lattice.copy_vector(L)),
                               []).append(L)
        checked = 0
        for L, *others in degrees.values():
            dim = A.base.component_dim(L)
            assert [A.base.component_dim(L2) for L2 in others] == (
                [dim] * len(others))
            if not (others and dim):
                continue
            L2 = others[0]
            for f in A.base.component(L).basis:
                g = shift(fam, vsub(L2, L), f, L)
                verdict = ideal_membership(fam, [(L, f), (L2, -1 * g)], box)
                assert verdict.verdict == "in_ideal"
                checked += 1
        assert bool(checked) == bool(fam.kernel)
        assert uniqueness_crosscheck(X, radius=1).verdict == "pass"

    def test_explicit_basis(self):
        X = tripled_line()
        for swap in (False, True):
            with pytest.MonkeyPatch.context() as monkeypatch:
                if swap:
                    _swap_full_lattice(monkeypatch)
                for basis in (explicit_basis(), _triangular_basis(X)):
                    box = lattice_box(canonical_lambda(X, basis), 2)
                    _assert_principal_rows_match(X, box, basis)
                    report = _assert_oracles_agree(X, box, basis)
                    assert swap != all(report.values())

    @given(small_curves(max_mult=3))
    @settings(max_examples=25, deadline=None)
    def test_hypothesis_curves(self, X):
        box = lattice_box(canonical_lambda(X), 1)
        # at most about 150 classes of the box, spread over all of it
        box = box[::max(1, len(box) // 150)]
        for swap in (False, True):
            with pytest.MonkeyPatch.context() as monkeypatch:
                if swap:
                    _swap_full_lattice(monkeypatch)
                _assert_principal_rows_match(X, box)
                _assert_oracles_agree(X, box)

    @pytest.mark.parametrize("size", [0, 1])
    def test_empty_and_one_class_boxes(self, monkeypatch, size):
        X = tripled_line()
        box = lattice_box(canonical_lambda(X), 1)[1:1 + size]
        report = uniqueness_crosscheck(X, box=box)
        assert report.verdict == "pass"
        assert dict(report.fields) == _assert_oracles_agree(X, box)
        assert report.fields["classes"] == size
        _swap_full_lattice(monkeypatch)
        _assert_oracles_agree(X, box)

    def test_chunk_boundaries_do_not_change_reads(self):
        # chunks of 7 split the box at many places; on the swapped lattice
        # they split the classes whose dimensions are read as well
        X = FIXTURE_CURVES["mixed_line"]
        box = lattice_box(canonical_lambda(X), 1)
        for swap in (False, True):
            runs = []
            for chunk in (coxalg.CROSSCHECK_CHUNK, 7):
                with pytest.MonkeyPatch.context() as monkeypatch:
                    if swap:
                        _swap_full_lattice(monkeypatch)
                    monkeypatch.setattr(coxalg, "CROSSCHECK_CHUNK", chunk)
                    seen = _recorded_reads(monkeypatch)
                    read = _counted_class_dims(monkeypatch)
                    report = uniqueness_crosscheck(X, box=box)
                    runs.append((seen, read, dict(report.fields)))
            assert runs[0] == runs[1]
            assert bool(runs[0][1]) == swap

    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("radius", [1, 2])
    @pytest.mark.parametrize("name", sorted(FIXTURE_CURVES))
    def test_columns_against_the_per_class_loop(self, monkeypatch, name,
                                                radius, swap):
        X = FIXTURE_CURVES[name]
        box = lattice_box(canonical_lambda(X), radius)
        if swap:
            _swap_full_lattice(monkeypatch)
        _assert_principal_rows_match(X, box)
        report = _assert_oracles_agree(X, box)
        assert swap or all(report.values())

    @given(small_curves(max_points=5, bases=(0, 1, "inf", -1, "2/3")),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_boxes_against_the_per_class_loop(self, X, data):
        # ambient class vectors drawn at random, in chunks of 1 to 3 (or
        # one chunk), on the honest and on the swapped full lattice
        n = sum(m for _, m in X.special)
        box = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n),
                                 max_size=30))
        chunk = data.draw(st.sampled_from([1, 2, 3, 1024]))
        for swap in (False, True):
            with pytest.MonkeyPatch.context() as monkeypatch:
                if swap:
                    _swap_full_lattice(monkeypatch)
                monkeypatch.setattr(coxalg, "CROSSCHECK_CHUNK", chunk)
                _assert_principal_rows_match(X, box)
                _assert_oracles_agree(X, box)

    def test_empty_components_compare_equal(self, monkeypatch):
        # on the swapped full lattice, some classes where D1 - D2 is not
        # principal have two zero components whose sums of least
        # coefficients differ: their dimensions max(0, sum + 1) agree
        _swap_full_lattice(monkeypatch)
        X = LONE_ANCHOR
        A1 = curve_algebra(X, "canonical")
        A2 = curve_algebra(X, "full")
        read = _counted_class_dims(monkeypatch)
        report = uniqueness_crosscheck(X, radius=1)
        empty = []
        for c in read:
            m1, m2, _ = _orders_of_class(A1, A2, c)
            if sum(m1) != sum(m2) and max(sum(m1), sum(m2)) < 0:
                empty.append(c)
        assert empty
        T1, T2 = coxalg._class_maps(A1, A2)
        for c in empty:
            assert coxalg._class_dims(T1, T2, A1.pic.blocks, c) == [0, 0]
        assert not report.fields["iso_verified"]
        assert dict(report.fields) == _assert_oracles_agree(
            X, lattice_box(canonical_lambda(X), 1))

    def test_wrong_length_class_is_refused(self):
        box = [(0,) * 6, (0,) * 5]
        with pytest.raises(ValueError, match="class vector length differs "
                           "from ambient rank"):
            uniqueness_crosscheck(tripled_line(), box=box)

    def test_swapped_columns_fail_in_both(self, monkeypatch):
        honest = coxalg.curve_algebra

        def swapped(X, mode="canonical", basis=None):
            A = honest(X, mode, basis)
            if mode == "full":
                _swap_first_columns(A)
            return A

        expected, _ = _section_space_crosscheck(
            tripled_line(), radius=1, mutate=_swap_first_columns)
        monkeypatch.setattr(coxalg, "curve_algebra", swapped)
        report = uniqueness_crosscheck(tripled_line(), radius=1)
        assert report.fields == expected
        assert report.verdict == "fail"
        assert not (report.fields["hilbert_equal"]
                    and report.fields["iso_verified"])

    @pytest.mark.parametrize("name", ["tripled_line", "mixed_line"])
    def test_most_witnesses_are_not_one(self, monkeypatch, name):
        X = FIXTURE_CURVES[name]
        seen = _recorded_reads(monkeypatch)
        box = lattice_box(canonical_lambda(X), 1)
        assert uniqueness_crosscheck(X, box=box).fields["iso_verified"]
        nontrivial = sum(1 for c in box if any(_read_orders(seen, c)))
        assert 2 * nontrivial >= len(box)

    def test_generator_box_counts_every_class(self, monkeypatch):
        box = tripled_box()
        monkeypatch.setattr(coxalg, "CROSSCHECK_CHUNK", 100)
        report = uniqueness_crosscheck(tripled_line(), box=iter(box),
                                       basis=explicit_basis())
        assert report.fields["classes"] == len(box) == 625

    def test_no_section_space_and_one_check_per_witness(self, monkeypatch):
        counts = {"section_space": 0, "is_principal": 0, "_lift_orders": 0}

        def counting(name, fn):
            def wrapped(*a, **kw):
                counts[name] += 1
                return fn(*a, **kw)
            return wrapped

        monkeypatch.setattr(coxalg, "section_space",
                            counting("section_space", section_space))
        monkeypatch.setattr(coxalg, "is_principal",
                            counting("is_principal", is_principal))
        # the crosscheck's lift and any inside is_principal
        lift = counting("_lift_orders", _lift_orders)
        monkeypatch.setattr(coxalg, "_lift_orders", lift)
        monkeypatch.setattr(ratcurve, "_lift_orders", lift)
        seen = _recorded_reads(monkeypatch)
        box = lattice_box(canonical_lambda(tripled_line()), 1)
        uniqueness_crosscheck(tripled_line(), box=box)
        distinct = {_read_orders(seen, c) for c in box}
        # one per distinct order vector: no kernel witness is built, and
        # is_principal checks D and the witness on the orders themselves
        assert counts == {"section_space": 0, "is_principal": len(distinct),
                          "_lift_orders": len(distinct)}


class TestPrincipalRows:
    """E and G, the integer rows that decide D1 - D2 = (T1 - T2) c, on the
    faults and reads the oracle comparisons above do not reach."""

    @pytest.mark.parametrize("name", [
        n for n in sorted(FIXTURE_CURVES)
        if len(FIXTURE_CURVES[n].special) > 1])
    def test_anchorless_moves_fail_on_the_sum_row(self, monkeypatch, name):
        X = FIXTURE_CURVES[name]
        _anchorless_full_lattice(monkeypatch)
        box = lattice_box(canonical_lambda(X), 1)
        _assert_principal_rows_match(X, box)
        report = _assert_oracles_agree(X, box)
        assert not report["hilbert_equal"]

    @pytest.mark.parametrize("name", sorted(FIXTURE_CURVES))
    def test_honest_runs_read_no_dimension(self, monkeypatch, name):
        X = FIXTURE_CURVES[name]
        A1 = curve_algebra(X, "canonical")
        E, G = coxalg._principal_rows(
            *coxalg._class_maps(A1, curve_algebra(X, "full")), A1.pic.blocks)
        assert (len(E), G) == (len(X.special), [])
        read = _counted_class_dims(monkeypatch)
        assert uniqueness_crosscheck(X, radius=2).verdict == "pass"
        assert read == []
        # the swapped full lattice reads the classes that fail
        _swap_full_lattice(monkeypatch)
        report = uniqueness_crosscheck(X, radius=2)
        assert bool(read) == (report.verdict == "fail")

    def test_swapped_rows_fail_both_ways(self, monkeypatch):
        # a class fails hilbert_equal when its dimensions differ and
        # iso_verified when they agree but D1 - D2 is not principal
        _swap_full_lattice(monkeypatch)
        X = LONE_ANCHOR
        A1 = curve_algebra(X, "canonical")
        A2 = curve_algebra(X, "full")
        T1, T2 = coxalg._class_maps(A1, A2)
        failing = []
        for c in lattice_box(canonical_lambda(X), 1):
            m1, m2, e = _orders_of_class(A1, A2, c)
            dims = coxalg._class_dims(T1, T2, A1.pic.blocks, c)
            assert dims == [max(0, sum(m1) + 1), max(0, sum(m2) + 1)]
            if e is None:
                failing.append(dims[0] == dims[1])
        assert True in failing and False in failing


class TestPicardDataReuse:
    def test_one_picard_data_per_lattice(self, monkeypatch):
        counts = {"picard": 0, "lattice": 0}

        def counting(name, init):
            def wrapped(self, *args, **kwargs):
                counts[name] += 1
                init(self, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(PicardData, "__init__",
                            counting("picard", PicardData.__init__))
        monkeypatch.setattr(
            coxalg.LineBundleLattice, "__init__",
            counting("lattice", coxalg.LineBundleLattice.__init__))
        report = uniqueness_crosscheck(tripled_line(), radius=1)
        assert report.fields["classes"] == 81
        assert counts == {"picard": 2, "lattice": 2}


class TestTensor:
    def test_two_plain_lines(self):
        P = plain_presentation()
        T = tensor_presentation(P, P)
        assert isomorphic(T.grading, FGAbelianGroup(2))
        assert [(d, str(s)) for d, s in T.generators] == [
            ((1, 0), "1"), ((1, 0), "z"), ((0, 1), "1"), ((0, 1), "z")]
        assert T.relations == ()
        assert len(T.box) == len(P.box) ** 2

    def test_certificate_is_multiplicative(self):
        P = plain_presentation()
        A = curve_algebra(plain_line())
        T = tensor_presentation(P, P)
        assert len(T.certificate) == len(P.certificate) ** 2
        for d, monomials, dim, kernel, _ in T.certificate:
            expect = A.component_dim(d[:1]) * A.component_dim(d[1:])
            assert dim == expect
            assert monomials - dim == kernel

    def test_tripled_with_plain(self):
        P = tripled_presentation()
        Q = plain_presentation()
        T = tensor_presentation(P, Q)
        assert len(T.generators) == 8
        assert [str(r) for r in T.relations] == ["T1*T6 - T2*T3 - T4*T5"]
        assert all(d[6:] == (0,) for d, _ in T.generators[:6])
        assert all(d[:6] == ZERO6 for d, _ in T.generators[6:])
        for _, monomials, dim, kernel, _ in T.certificate:
            assert monomials - dim == kernel
