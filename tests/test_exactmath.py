"""Tests for the exact arithmetic substrate.

Expected values come from hand calculation, from independent naive searches,
or from sympy as a second linear-algebra implementation.
"""

import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from coxring import exactmath as em
from coxring.exactmath import (
    MultiPoly,
    NotInSpan,
    QMatrix,
    RationalFunction,
    UnboundedEnumeration,
    UniPoly,
    enumerate_monomials,
    parse_multipoly,
    parse_rational_function,
    positive_functional,
    rank_kernel,
    solve_in_span,
)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)
small_ints = st.integers(min_value=-6, max_value=6)


@st.composite
def unipolys(draw, max_degree=4):
    coeffs = draw(st.lists(rationals, min_size=0, max_size=max_degree + 1))
    return UniPoly(coeffs)


@st.composite
def nonzero_unipolys(draw, max_degree=4):
    p = draw(unipolys(max_degree))
    if p.is_zero():
        return UniPoly([1])
    return p


@st.composite
def rational_functions(draw):
    num = draw(unipolys(3))
    den = draw(nonzero_unipolys(3))
    return RationalFunction(num, den)


class TestRationalField:
    @given(rationals, rationals, rationals)
    def test_distributive(self, a, b, c):
        assert (a + b) * c == a * c + b * c

    @given(rationals, rationals, rationals)
    def test_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    @given(rationals)
    def test_inverses(self, a):
        assert a + (-a) == 0
        if a != 0:
            assert a * (Fraction(1) / a) == 1

    def test_normalized(self):
        a = Fraction(6, -4)
        assert a.numerator == -3 and a.denominator == 2


class TestUniPoly:
    def test_degree_and_zero(self):
        assert UniPoly([]).degree == -1
        assert UniPoly([0, 0]).is_zero()
        assert UniPoly([1, 2, 0]).degree == 1

    @given(unipolys(), nonzero_unipolys())
    def test_divmod_identity(self, a, b):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree

    @given(nonzero_unipolys(3), nonzero_unipolys(3))
    def test_gcd_divides(self, a, b):
        g = a.gcd(b)
        assert (a % g).is_zero()
        assert (b % g).is_zero()
        assert g.leading() == 1

    def test_root_multiplicity(self):
        # (z - 2)^3 * (z + 1)
        p = (UniPoly([-2, 1]) ** 3) * UniPoly([1, 1])
        assert p.root_multiplicity(2) == 3
        assert p.root_multiplicity(-1) == 1
        assert p.root_multiplicity(5) == 0

    def test_str(self):
        p = UniPoly([Fraction(3, 2), -2, 1])
        assert str(p) == "z^2 - 2*z + 3/2"
        assert str(UniPoly([])) == "0"
        assert str(UniPoly([0, -1])) == "-z"


class TestRationalFunction:
    def test_normalization(self):
        f = RationalFunction(UniPoly([0, 2]), UniPoly([0, 0, 2]))
        # 2z / 2z^2 = 1/z
        assert f.num == UniPoly([1])
        assert f.den == UniPoly([0, 1])
        g = RationalFunction(f.num, f.den)
        assert g == f

    @given(rational_functions(), rational_functions())
    def test_mul_div_cancel(self, f, g):
        if g.is_zero():
            return
        assert (f * g) / g == f

    @given(rational_functions(), rational_functions(), rational_functions())
    def test_field_identities(self, f, g, h):
        assert (f + g) * h == f * h + g * h
        assert f - f == RationalFunction.zero()

    def test_pow_negative(self):
        z = RationalFunction.z()
        assert z ** -2 == RationalFunction(UniPoly([1]), UniPoly([0, 0, 1]))

    @given(rational_functions())
    def test_str_parse_roundtrip(self, f):
        assert parse_rational_function(str(f)) == f

    def test_parse_examples(self):
        one = RationalFunction.one()
        z = RationalFunction.z()
        assert parse_rational_function("1/(z - 1)") == one / (z - one)
        assert parse_rational_function("z/(z - 1)") == z / (z - one)
        assert parse_rational_function("-3/2") == RationalFunction(
            UniPoly([Fraction(-3, 2)]))


class TestMultiPoly:
    def test_str_and_parse(self):
        p = parse_multipoly("T1*T6 - T2*T3 - T4*T5", 6)
        assert str(p) == "T1*T6 - T2*T3 - T4*T5"
        assert parse_multipoly(str(p), 6) == p

    def test_homogeneous_multidegree(self):
        dm = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
              (0, 1, 1, -1), (-1, 1, 1, 0)]
        p = parse_multipoly("T2*T3 + T5*T4 - T6*T1", 6, degree_map=dm)
        assert p.multidegree() == (0, 1, 1, 0)
        q = parse_multipoly("T1 + T2", 6, degree_map=dm)
        assert q.multidegree() is None

    def test_leading_monomial_graded_lex(self):
        p = parse_multipoly("T2*T3 + T4*T5 + T1*T6", 6)
        assert p.leading_monomial() == (1, 0, 0, 0, 0, 1)

    def test_substitute(self):
        z = RationalFunction.z()
        one = RationalFunction.one()
        p = parse_multipoly("T1*T2 - T3", 3)
        # z * (z+1) - (z^2 + z) = 0
        assert p.substitute([z, z + one, z * z + z]).is_zero()

    def test_variable_division(self):
        p = parse_multipoly("T1^2*T2 + T1*T3", 3)
        assert p.divisible_by_variable(0)
        assert not p.divisible_by_variable(1)
        assert p.divide_by_variable(0) == parse_multipoly("T1*T2 + T3", 3)

    @given(st.lists(st.tuples(small_ints, small_ints), min_size=1, max_size=4))
    def test_pow_matches_repeated_mul(self, exps):
        terms = {}
        for a, b in exps:
            key = (abs(a), abs(b))
            terms[key] = terms.get(key, 0) + 1
        p = MultiPoly(2, {k: Fraction(v) for k, v in terms.items()})
        assert p ** 3 == p * p * p


class TestLinearAlgebra:
    def test_rank_identity(self):
        rank, ker = rank_kernel(QMatrix.identity(3))
        assert rank == 3 and ker == []

    def test_rank_zero_matrix(self):
        rank, ker = rank_kernel([[0, 0, 0], [0, 0, 0]])
        assert rank == 0 and len(ker) == 3

    def test_kernel_re_multiplication(self):
        rank, ker = rank_kernel([[1, 1, 1]])
        assert rank == 1 and len(ker) == 2
        for v in ker:
            assert sum(v) == 0

    @given(st.lists(st.lists(small_ints, min_size=3, max_size=3),
                    min_size=1, max_size=4))
    def test_rank_pivot_order_invariance(self, rows):
        rank1, ker1 = rank_kernel(rows)
        # reversing rows and columns forces a different pivot sequence
        flipped = [list(reversed(r)) for r in reversed(rows)]
        rank2, _ = rank_kernel(flipped)
        assert rank1 == rank2
        assert rank1 + len(ker1) == 3
        for v in ker1:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0

    @given(st.lists(st.lists(small_ints, min_size=4, max_size=4),
                    min_size=2, max_size=4))
    def test_rank_against_sympy(self, rows):
        rank, _ = rank_kernel(rows)
        assert rank == sympy.Matrix(rows).rank()

    def test_solve_in_span_examples(self):
        with pytest.raises(NotInSpan):
            solve_in_span([(1, 0)], (0, 1))
        assert solve_in_span([(1, 0), (0, 1)], (2, 3)) == (2, 3)
        coeffs = solve_in_span([(1, 1), (1, -1)], (3, 1))
        assert coeffs == (2, 1)
        combo = [sum(c * v[i] for c, v in zip(coeffs, [(1, 1), (1, -1)]))
                 for i in range(2)]
        assert combo == [3, 1]

    @given(st.lists(st.lists(small_ints, min_size=3, max_size=3),
                    min_size=1, max_size=3),
           st.lists(small_ints, min_size=3, max_size=3))
    def test_solve_in_span_sound(self, vectors, target):
        try:
            coeffs = solve_in_span(vectors, target)
        except NotInSpan:
            m = sympy.Matrix([list(v) for v in vectors]).T
            t = sympy.Matrix(target)
            assert m.rank() < m.row_join(t).rank()
            return
        for i in range(3):
            assert sum(c * v[i] for c, v in zip(coeffs, vectors)) == target[i]


def naive_monomials(degree_map, target, bound, relations=()):
    """Brute force reference: scan all exponent vectors with sum <= bound."""
    r = len(degree_map)
    hnf = em._hnf_rows(relations) if relations else []
    out = []
    for exps in itertools.product(range(bound + 1), repeat=r):
        if sum(exps) > bound:
            continue
        residual = [sum(e * d[k] for e, d in zip(exps, degree_map)) - target[k]
                    for k in range(len(target))]
        if relations:
            ok = em._lattice_contains(hnf, residual)
        else:
            ok = not any(residual)
        if ok:
            out.append(exps)
    return sorted(out)


SECTION8_DEGREES = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                    (0, 1, 1, -1), (-1, 1, 1, 0)]


class TestEnumerateMonomials:
    def test_two_variables_degree_two(self):
        assert enumerate_monomials([(1,), (1,)], (2,)) == [
            (0, 2), (1, 1), (2, 0)]

    def test_six_generator_degrees(self):
        got = enumerate_monomials(SECTION8_DEGREES, (0, 1, 1, 0))
        assert got == naive_monomials(SECTION8_DEGREES, (0, 1, 1, 0), 2)
        assert len(got) == 3
        assert set(got) == {
            (1, 0, 0, 0, 0, 1),   # T1*T6
            (0, 1, 1, 0, 0, 0),   # T2*T3
            (0, 0, 0, 1, 1, 0),   # T4*T5
        }

    def test_target_zero_pointed(self):
        assert enumerate_monomials(SECTION8_DEGREES, (0, 0, 0, 0)) == [
            (0, 0, 0, 0, 0, 0)]

    def test_unbounded_raises(self):
        with pytest.raises(UnboundedEnumeration):
            enumerate_monomials([(1,), (-1,)], (0,))

    def test_unbounded_torsion_raises(self):
        with pytest.raises(UnboundedEnumeration):
            enumerate_monomials([(1,)], (0,), relations=[(2,)])

    def test_bounded_non_pointed(self):
        assert enumerate_monomials([(1,), (-1,)], (0,), bound=4) == [
            (0, 0), (1, 1), (2, 2)]

    def test_bounded_torsion(self):
        got = enumerate_monomials([(1,)], (0,), bound=5, relations=[(2,)])
        assert got == [(0,), (2,), (4,)]

    def test_bound_also_restricts_pointed_maps(self):
        assert enumerate_monomials([(1,), (1,)], (2,), bound=1) == []

    @given(st.lists(st.tuples(small_ints, small_ints), min_size=1, max_size=5),
           st.tuples(small_ints, small_ints),
           st.integers(min_value=0, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_bounded(self, degree_map, target, bound):
        degree_map = [tuple(d) for d in degree_map]
        got = enumerate_monomials(degree_map, target, bound=bound)
        assert got == naive_monomials(degree_map, target, bound)

    @given(st.lists(st.integers(min_value=1, max_value=5),
                    min_size=1, max_size=5),
           st.integers(min_value=0, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_pointed_unbounded_matches_naive(self, degs, target):
        degree_map = [(d,) for d in degs]
        got = enumerate_monomials(degree_map, (target,))
        assert got == naive_monomials(degree_map, (target,), bound=target)


class TestEnumerationPlan:
    """The memoised plan against the naive scan, with torsion relations and
    several targets per degree map, warm and after clearing the cache."""

    @staticmethod
    def _warm_then_cold(degree_map, targets, bound, relations):
        warm = [enumerate_monomials(degree_map, t, bound=bound,
                                    relations=relations) for t in targets]
        em._enumeration_plan.cache_clear()
        cold = [enumerate_monomials(degree_map, t, bound=bound,
                                    relations=relations) for t in targets]
        assert cold == warm
        return warm

    @given(st.lists(st.tuples(small_ints, small_ints), min_size=1, max_size=4),
           st.integers(min_value=1, max_value=4),
           st.tuples(small_ints, small_ints),
           st.lists(st.tuples(small_ints, small_ints), min_size=2, max_size=4),
           st.integers(min_value=0, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_bounded_torsion_matches_naive(self, degree_map, k, relation,
                                           targets, bound):
        relations = [(k, 0), relation]
        got = self._warm_then_cold(degree_map, targets, bound, relations)
        assert got == [naive_monomials(degree_map, t, bound, relations)
                       for t in targets]

    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=3),
                              small_ints, small_ints),
                    min_size=1, max_size=4),
           st.integers(min_value=1, max_value=4),
           st.tuples(small_ints, small_ints),
           st.lists(st.tuples(st.integers(min_value=-1, max_value=5),
                              small_ints, small_ints),
                    min_size=2, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_pointed_torsion_matches_naive(self, degree_map, k, relation,
                                           targets):
        # the first coordinate is free and positive on every degree, so the
        # map is pointed and the exponent sum is at most target[0]
        relations = [(0, k, 0), (0,) + relation]
        got = self._warm_then_cold(degree_map, targets, None, relations)
        assert got == [naive_monomials(degree_map, t, max(t[0], 0),
                                       relations) for t in targets]


class TestFeasiblePoint:
    def test_constant_contradiction(self):
        assert em.feasible_point([((0, 0), 1), ((1, 0), 0)], 2) is None

    @given(st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.lists(rationals, min_size=n, max_size=n),
                               rationals),
                     min_size=1, max_size=6))))
    @settings(max_examples=80, deadline=None)
    def test_point_satisfies_every_constraint(self, system):
        n, constraints = system
        point = em.feasible_point(constraints, n)
        if point is not None:
            assert len(point) == n
            for cs, r in constraints:
                assert sum(c * y for c, y in zip(cs, point)) >= r

    @given(st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.tuples(
            st.lists(rationals, min_size=n, max_size=n),
            st.lists(st.tuples(st.lists(rationals, min_size=n, max_size=n),
                               st.fractions(min_value=0, max_value=5,
                                            max_denominator=7),
                               st.booleans()),
                     min_size=1, max_size=6))))
    @settings(max_examples=80, deadline=None)
    def test_system_around_a_known_point_is_feasible(self, system):
        # every constraint holds at x, with some slack or as an equality
        x, rows = system
        constraints = []
        for cs, slack, equality in rows:
            value = sum(c * v for c, v in zip(cs, x))
            if equality:
                constraints.append((cs, value))
                constraints.append(([-c for c in cs], -value))
            else:
                constraints.append((cs, value - slack))
        point = em.feasible_point(constraints, len(x))
        assert point is not None
        for cs, r in constraints:
            assert sum(c * y for c, y in zip(cs, point)) >= r


class TestPositiveFunctional:
    def test_exists_for_pointed(self):
        y = positive_functional(SECTION8_DEGREES)
        assert y is not None
        for d in SECTION8_DEGREES:
            assert sum(a * b for a, b in zip(y, d)) >= 1

    def test_none_for_opposite_pair(self):
        assert positive_functional([(1, 0), (-1, 0)]) is None

    def test_orthogonality_constraint(self):
        # modulo the span of (1,1), the degrees (1,0) and (0,1) both map to
        # the same nonzero class, so a functional exists and kills (1,1)
        y = positive_functional([(1, 0), (0, 1)], orthogonal_to=[(1, -1)])
        assert y is not None
        assert y[0] - y[1] == 0

    def test_none_when_relation_absorbs(self):
        # modulo span (1,1): (1,0) and (0,1) are negatives of each other
        assert positive_functional([(1, 0), (0, 1)],
                                   orthogonal_to=[(1, 1)]) is None
