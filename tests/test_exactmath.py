"""Tests for the exact arithmetic substrate.

Expected values come from hand calculation, from independent naive searches,
or from sympy as a second linear-algebra implementation.  sympy's parser
also reads the printed forms of rational functions and polynomials back, so
the text of every section and relation is checked against its value.
"""

import gc
import itertools
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.parsing.sympy_parser import (
    convert_xor,
    parse_expr,
    standard_transformations,
)

import conveniences as oracle
from coxring import exactmath as em
from coxring.exactmath import (
    MultiPoly,
    NotInSpan,
    RationalFunction,
    UnboundedEnumeration,
    UniPoly,
    count_monomials,
    enumerate_monomials,
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


# coefficients for the Fraction oracle: zeros, small and negative values,
# and denominators up to 10^20
oracle_rationals = st.one_of(
    st.just(Fraction(0)), small_ints.map(Fraction), rationals,
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                 max_denominator=10 ** 20))


@st.composite
def coefficient_tuples(draw, max_degree=4):
    """A Fraction coefficient tuple, zero and constants included; a drawn
    boolean negates the leading coefficient."""
    cs = oracle.frac_poly(draw(st.lists(oracle_rationals,
                                        max_size=max_degree + 1)))
    if cs and draw(st.booleans()):
        cs = cs[:-1] + (-cs[-1],)
    return cs


def assert_canonical(p):
    """The invariants of UniPoly's integer form."""
    assert p.den > 0
    assert all(type(c) is int for c in p.nums) and type(p.den) is int
    assert not p.nums or p.nums[-1] != 0
    # with no numerators the gcd is den itself, so zero is ((), 1)
    assert math.gcd(p.den, *p.nums) == 1


@st.composite
def rational_functions(draw):
    num = draw(unipolys(3))
    den = draw(nonzero_unipolys(3))
    return RationalFunction(num, den)


def sympy_reading(text, names):
    """The printed form text as sympy reads it, ^ as a power."""
    return parse_expr(text, {name: sympy.Symbol(name) for name in names},
                      transformations=standard_transformations
                      + (convert_xor,))


def sympy_value(terms, names):
    """The sum of c * prod_i x_i^e_i over the pairs (e, c) of terms, x_i
    the symbols of names, built by sympy from the values."""
    xs = sympy.symbols(names)
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.prod(x ** e for x, e in zip(xs, exps))
                for exps, c in terms), sympy.Integer(0))


def sympy_unipoly(p):
    return sympy_value((((e,), c) for e, c in enumerate(p.coeffs)), ["z"])


def assert_reads_back(p):
    """sympy reads the printed form of the MultiPoly p back to the sum of
    its terms."""
    names = ["T%d" % (i + 1) for i in range(p.nvars)]
    assert sympy.expand(sympy_reading(str(p), names)
                        - sympy_value(p.terms.items(), names)) == 0


@st.composite
def multipolys(draw, nvars=3):
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars)
    return MultiPoly(nvars, draw(st.dictionaries(exps, rationals,
                                                 max_size=5)))


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

    def test_str(self):
        p = UniPoly([Fraction(3, 2), -2, 1])
        assert str(p) == "z^2 - 2*z + 3/2"
        assert str(UniPoly([])) == "0"
        assert str(UniPoly([0, -1])) == "-z"

    def test_integer_form(self):
        assert (UniPoly([]).nums, UniPoly([]).den) == ((), 1)
        assert (UniPoly([0, 0]).nums, UniPoly([0, 0]).den) == ((), 1)
        assert UniPoly([Fraction(-3, 4)]).nums == (-3,)
        assert UniPoly([Fraction(-3, 4)]).den == 4
        p = UniPoly([Fraction(1, 6), Fraction(-2, 3), Fraction(-1, 2), 0])
        assert (p.nums, p.den) == ((1, -4, -3), 6)
        assert p.coeffs == (Fraction(1, 6), Fraction(-2, 3), Fraction(-1, 2))
        assert UniPoly([2, 4]) * Fraction(1, 2) == UniPoly([1, 2])
        assert UniPoly([Fraction(1, 3)]).padded(3) == (
            Fraction(1, 3), Fraction(0), Fraction(0))

    def test_floats_are_refused(self):
        # 0.1 would silently become 3602879701896397/36028797018963968
        with pytest.raises(TypeError):
            UniPoly([0.1])
        with pytest.raises(TypeError):
            UniPoly([1, 0.5])
        with pytest.raises(TypeError):
            UniPoly.const(0.5)

    @given(coefficient_tuples())
    @example(())
    @example((Fraction(-7, 10 ** 20),))
    def test_construction_matches_oracle(self, a):
        p = UniPoly(a)
        assert_canonical(p)
        assert p.coeffs == a
        assert p.degree == len(a) - 1
        assert str(p) == oracle.frac_str(a)

    @given(coefficient_tuples(), coefficient_tuples())
    @example((), (Fraction(-1, 3),))
    def test_ring_operations_match_oracle(self, a, b):
        p, q = UniPoly(a), UniPoly(b)
        for got, want in ((p + q, oracle.frac_add(a, b)),
                          (p - q, oracle.frac_add(a, tuple(-c for c in b))),
                          (p * q, oracle.frac_mul(a, b)),
                          (p ** 3, oracle.frac_pow(a, 3)),
                          (p.monic(), oracle.frac_monic(a))):
            assert_canonical(got)
            assert got.coeffs == want

    @given(coefficient_tuples(), coefficient_tuples(3))
    @example((Fraction(1), Fraction(2)), (Fraction(5),))
    @example((Fraction(1, 9), Fraction(0), Fraction(1)),
             (Fraction(-1, 3), Fraction(-1, 2)))
    def test_divmod_matches_oracle(self, a, b):
        if not b:
            with pytest.raises(ZeroDivisionError):
                divmod(UniPoly(a), UniPoly(b))
            return
        q, r = divmod(UniPoly(a), UniPoly(b))
        want_q, want_r = oracle.frac_divmod(a, b)
        assert_canonical(q)
        assert_canonical(r)
        assert (q.coeffs, r.coeffs) == (want_q, want_r)

    @given(coefficient_tuples(3), coefficient_tuples(3), coefficient_tuples(2))
    def test_gcd_matches_oracle(self, a, b, c):
        # a common factor c makes the gcd nontrivial more often than chance
        a, b = oracle.frac_mul(a, c), oracle.frac_mul(b, c)
        g = UniPoly(a).gcd(UniPoly(b))
        assert_canonical(g)
        assert g.coeffs == oracle.frac_gcd(a, b)

    @given(coefficient_tuples(), oracle_rationals)
    @example((Fraction(1), Fraction(1)), Fraction(1, 3))
    @example((Fraction(0), Fraction(0), Fraction(-2, 5)), Fraction(7, 10 ** 20))
    def test_eval_matches_oracle(self, a, x):
        assert UniPoly(a).eval(x) == oracle.frac_eval(a, x)

    @given(coefficient_tuples(), coefficient_tuples(3), oracle_rationals)
    def test_equal_polynomials_have_one_form(self, a, b, k):
        # the same polynomial reached along different paths
        p, s = UniPoly(a), UniPoly(b) + UniPoly.one()
        paths = [UniPoly(a + (0, 0)), p - UniPoly.zero()]
        if not s.is_zero():
            paths.append(p * s // s)
        if k:
            paths += [p * k * (1 / k), p * UniPoly([k]) * UniPoly([1 / k])]
        for q in paths:
            assert_canonical(q)
            assert (q.nums, q.den) == (p.nums, p.den)
            assert q == p and hash(q) == hash(p)


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

    @given(coefficient_tuples(3), coefficient_tuples(3), coefficient_tuples(2))
    def test_normalization_matches_oracle(self, a, b, c):
        # num / den with a common factor c: reduced by the oracle gcd, then
        # scaled to a monic denominator
        a, b = oracle.frac_mul(a, c), oracle.frac_mul(b, c)
        if not b:
            return
        f = RationalFunction(UniPoly(a), UniPoly(b))
        if not a:
            want_num, want_den = (), (Fraction(1),)
        else:
            g = oracle.frac_gcd(a, b)
            num, den = oracle.frac_divmod(a, g)[0], oracle.frac_divmod(b, g)[0]
            want_num = tuple(x / den[-1] for x in num)
            want_den = oracle.frac_monic(den)
        assert (f.num.coeffs, f.den.coeffs) == (want_num, want_den)
        assert_canonical(f.num)
        assert_canonical(f.den)

    @given(rational_functions(), rational_functions())
    def test_equal_functions_hash_equal(self, f, g):
        if g.is_zero():
            return
        h = (f * g) / g
        assert h == f and hash(h) == hash(f)
        assert (h.num.nums, h.num.den, h.den.nums, h.den.den) == (
            f.num.nums, f.num.den, f.den.nums, f.den.den)

    def test_pow_negative(self):
        z = RationalFunction(UniPoly.z())
        assert z ** -2 == RationalFunction(UniPoly([1]), UniPoly([0, 0, 1]))

    @given(rational_functions())
    def test_str_parse_roundtrip(self, f):
        # sympy reads the printed form back to the quotient of num and den
        got = sympy_reading(str(f), ["z"])
        assert sympy.cancel(
            got - sympy_unipoly(f.num) / sympy_unipoly(f.den)) == 0

    def test_str_examples(self):
        one = RationalFunction.one()
        z = RationalFunction(UniPoly.z())
        assert str(one / (z - one)) == "1/(z - 1)"
        assert str(z / (z - one)) == "z/(z - 1)"
        assert str((z * Fraction(1, 2) + one) / (z * z)) == "(1/2*z + 1)/z^2"
        assert str(RationalFunction(UniPoly([Fraction(-3, 2)]))) == "(-3/2)"


class TestMultiPoly:
    def test_str_and_parse(self):
        p = MultiPoly(6, {(1, 0, 0, 0, 0, 1): 1, (0, 1, 1, 0, 0, 0): -1,
                          (0, 0, 0, 1, 1, 0): -1})
        assert str(p) == "T1*T6 - T2*T3 - T4*T5"
        assert_reads_back(p)

    @given(multipolys())
    def test_str_roundtrip(self, p):
        assert_reads_back(p)

    def test_floats_are_refused(self):
        with pytest.raises(TypeError):
            MultiPoly(2, {(1, 0): 0.1})
        with pytest.raises(TypeError):
            MultiPoly.monomial((1, 2), 0.5)
        assert MultiPoly.monomial((1, 2), Fraction(1, 2)).terms == {
            (1, 2): Fraction(1, 2)}

    @given(st.integers(0, 4).flatmap(lambda n: st.tuples(
        st.dictionaries(st.tuples(*[st.integers(0, 4)] * n),
                        oracle_rationals, max_size=6).map(
            lambda terms: MultiPoly(n, terms)),
        st.lists(oracle_rationals | small_ints, min_size=n, max_size=n))))
    @example((MultiPoly(2, {(2, 0): Fraction(1, 6), (0, 3): Fraction(-3, 4)}),
              [Fraction(5, 7), Fraction(-2, 10 ** 20)]))
    @example((MultiPoly(2, {(1, 1): 1, (0, 0): Fraction(1, 2)}), [0, 3]))
    def test_eval_matches_oracle(self, case):
        poly, point = case
        value = poly.eval(point)
        assert type(value) is Fraction
        assert value == oracle.frac_multi_eval(poly, point)

    def test_eval_needs_exact_coordinates(self):
        p = MultiPoly(2, {(1, 0): 1, (0, 2): Fraction(1, 3)})
        assert p.eval([2, Fraction(3, 2)]) == Fraction(11, 4)
        with pytest.raises(ValueError):
            p.eval([1])
        with pytest.raises(TypeError):
            p.eval([0.5, 1])

    def test_substitute(self):
        z = RationalFunction(UniPoly.z())
        one = RationalFunction.one()
        p = MultiPoly(3, {(1, 1, 0): 1, (0, 0, 1): -1})
        # z * (z+1) - (z^2 + z) = 0
        assert p.substitute([z, z + one, z * z + z]).is_zero()

    def test_variable_division(self):
        p = MultiPoly(3, {(2, 1, 0): 1, (1, 0, 1): 1})
        assert p.divisible_by_variable(0)
        assert not p.divisible_by_variable(1)


class TestLinearAlgebra:
    def test_rank_identity(self):
        rank, ker = rank_kernel([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
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


def smith_solve(columns, target):
    """Some integer x with sum_j x_j * columns[j] == target, or None, read
    from the Smith form U A V = D of the matrix A with those columns: y
    solves D y = U target, and x = V y."""
    n = len(target)
    A = [[col[i] for col in columns] for i in range(n)]
    U, D, V, _, _ = em._smith(A)
    y = []
    for j in range(len(columns)):
        w = sum(u * t for u, t in zip(U[j], target)) if j < n else 0
        d = D[j][j] if j < n else 0
        if d == 0 or w % d:
            y.append(0)
        else:
            y.append(w // d)
    x = [sum(V[i][j] * y[j] for j in range(len(columns)))
         for i in range(len(columns))]
    got = [sum(c * col[i] for c, col in zip(x, columns)) for i in range(n)]
    return tuple(x) if got == list(target) else None


def smith_kernel(columns, r):
    """HNF basis of the integer relations among columns, cut to the first r
    entries: the columns of V beyond the nonzero diagonal of the Smith form
    U A V = D."""
    n = len(columns[0]) if columns else 0
    A = [[col[i] for col in columns] for i in range(n)]
    _, D, V, _, _ = em._smith(A)
    m = len(columns)
    kernel = [[V[i][j] for i in range(r)] for j in range(m)
              if j >= n or D[j][j] == 0]
    return tuple(em._hnf_rows(kernel))


def naive_monomials(degree_map, target, bound, relations=()):
    """Brute force reference: scan all exponent vectors with sum <= bound."""
    r = len(degree_map)
    out = []
    for exps in itertools.product(range(bound + 1), repeat=r):
        if sum(exps) > bound:
            continue
        residual = [sum(e * d[k] for e, d in zip(exps, degree_map)) - target[k]
                    for k in range(len(target))]
        if smith_solve(relations, residual) is not None:
            out.append(exps)
    return sorted(out)


class TestHermiteSplit:
    """_hnf_split and _hnf_coords against the Smith form: the same kernel
    lattice in HNF, and a solution exactly when the Smith form has one,
    with torsion relations among the columns that are quotiented out."""

    def test_entries_above_pivots_are_reduced(self):
        # reducing the last pivot first would leave the 3 above the 2
        assert em._hnf_rows([(1, 0, 3), (0, 1, 1), (0, 0, 2)]) == [
            (1, 0, 1), (0, 1, 1), (0, 0, 2)]

    @given(st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(small_ints, min_size=n, max_size=n),
                     min_size=0, max_size=4),
            st.lists(st.tuples(st.integers(min_value=0, max_value=n - 1),
                               st.integers(min_value=2, max_value=4)),
                     max_size=2),
            st.lists(st.lists(small_ints, min_size=n, max_size=n),
                     max_size=1),
            st.lists(st.lists(small_ints, min_size=n, max_size=n),
                     min_size=1, max_size=3))))
    @settings(max_examples=80, deadline=None)
    def test_against_smith(self, system):
        vectors, torsion, extra, targets = system
        n = len(targets[0])
        modulo = [tuple(k * int(i == j) for j in range(n))
                  for i, k in torsion] + [tuple(v) for v in extra]
        r = len(vectors)
        image, kernel = em._hnf_split(vectors, modulo)
        assert kernel == smith_kernel(vectors + modulo, r)
        basis = [h for h, _ in image]
        assert basis == em._hnf_rows(vectors + modulo)
        for h, c in image:
            # h differs from the combination of its coefficients by an
            # element of the span of modulo
            rest = [x - sum(a * v[i] for a, v in zip(c, vectors))
                    for i, x in enumerate(h)]
            assert not any(rest) or smith_solve(modulo, rest) is not None
        for target in targets:
            coords = em._hnf_coords(basis, target)
            assert (coords is None) == (
                smith_solve(vectors + modulo, target) is None)
            if coords is not None:
                assert [sum(a * h[i] for a, h in zip(coords, basis))
                        for i in range(n)] == list(target)


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


    @given(st.lists(st.tuples(small_ints, small_ints), min_size=1, max_size=3),
           st.lists(st.tuples(small_ints, small_ints), min_size=1, max_size=4),
           st.one_of(st.none(), st.integers(min_value=0, max_value=4)))
    @settings(max_examples=40, deadline=None)
    def test_empty_degree_map_matches_naive(self, relations, targets, bound):
        # r = 0: the empty monomial, exactly when the target is a relation
        got = self._warm_then_cold([], targets, bound, relations)
        assert got == [naive_monomials([], t, 0, relations) for t in targets]

    @given(st.integers(min_value=0, max_value=4),
           st.integers(min_value=0, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_trivial_grading_group_matches_naive(self, r, bound):
        # n = 0: every exponent vector has the one degree, so a bound is
        # needed unless there are no variables
        degree_map = [()] * r
        got = self._warm_then_cold(degree_map, [()], bound, [])
        assert got == [naive_monomials(degree_map, (), bound)]
        if r:
            with pytest.raises(UnboundedEnumeration):
                enumerate_monomials(degree_map, ())
        else:
            assert enumerate_monomials(degree_map, ()) == [()]


class TestCountMonomials:
    """count_monomials against the length of the listing, on the same
    plans: bounded and unbounded, with free and torsion relations."""

    @staticmethod
    def _agree(degree_map, target, bound, relations):
        try:
            listed = enumerate_monomials(degree_map, target, bound=bound,
                                         relations=relations)
        except UnboundedEnumeration:
            with pytest.raises(UnboundedEnumeration):
                count_monomials(degree_map, target, bound=bound,
                                relations=relations)
            return
        assert count_monomials(degree_map, target, bound=bound,
                               relations=relations) == len(listed)

    @given(st.lists(st.tuples(small_ints, small_ints), min_size=0, max_size=5),
           st.lists(st.tuples(small_ints, small_ints), min_size=0, max_size=2),
           st.lists(st.tuples(small_ints, small_ints), min_size=1, max_size=4),
           st.one_of(st.none(), st.integers(min_value=0, max_value=5)))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_listing(self, degree_map, relations, targets, bound):
        for target in targets:
            self._agree(degree_map, target, bound, relations)

    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=3),
                              small_ints, small_ints),
                    min_size=1, max_size=4),
           st.integers(min_value=1, max_value=4),
           st.tuples(small_ints, small_ints),
           st.lists(st.tuples(st.integers(min_value=-1, max_value=6),
                              small_ints, small_ints),
                    min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_pointed_torsion_matches_the_listing(self, degree_map, k,
                                                 relation, targets):
        relations = [(0, k, 0), (0,) + relation]
        for target in targets:
            self._agree(degree_map, target, None, relations)

    @given(st.tuples(small_ints, small_ints),
           st.one_of(st.none(), st.integers(min_value=0, max_value=6)))
    @settings(max_examples=40, deadline=None)
    def test_torsion_fan_grading(self, target, bound):
        # the cone over (1,0), (1,2): rays graded by unit vectors modulo
        # the character rows, a group Z/2 with no pointed degree monoid
        self._agree([(1, 0), (0, 1)], target, bound, [(1, 1), (0, 2)])

    def test_counts(self):
        assert count_monomials([(1,), (1,)], (2,)) == 3
        assert count_monomials(SECTION8_DEGREES, (0, 1, 1, 0)) == 3
        assert count_monomials([(1,)], (0,), bound=5, relations=[(2,)]) == 3
        assert count_monomials([(1,), (1,)], (-1,)) == 0
        assert count_monomials([], (0,)) == 1
        with pytest.raises(UnboundedEnumeration):
            count_monomials([(1,), (-1,)], (0,))
        with pytest.raises(ValueError, match="degree vector length"):
            count_monomials([(1,), (1, 0)], (2,))


class TestNoReferenceCycles:
    """A listing or a count leaves no reference cycle behind: with the
    collector off, a collection after many calls finds no garbage."""

    CASES = [  # (degree map, targets, bound); every kernel is nonempty
        (SECTION8_DEGREES, [(0, 1, 1, 0), (1, 1, 1, 1), (0, 0, 0, 0)], 2),
        ([(1,), (1,), (2,)], [(0,), (3,), (5,)], 5),
        ([(1,), (-1,)], [(0,), (1,)], 4),
    ]

    def test_calls_leave_no_garbage(self):
        expected = [[naive_monomials(d, t, b) for t in targets]
                    for d, targets, b in self.CASES]
        # build and cache the plans before the collector is turned off
        for d, targets, b in self.CASES:
            count_monomials(d, targets[0], bound=b)
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for _ in range(20):
                listed = [[enumerate_monomials(d, t, bound=b) for t in targets]
                          for d, targets, b in self.CASES]
                counted = [[count_monomials(d, t, bound=b) for t in targets]
                           for d, targets, b in self.CASES]
            found = gc.collect()
        finally:
            if was_enabled:
                gc.enable()
        assert found == 0
        assert listed == expected
        assert counted == [[len(e) for e in case] for case in expected]


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


class TestSpanEchelon:
    @given(st.integers(min_value=1, max_value=5).flatmap(
        lambda m: st.lists(
            st.lists(st.one_of(st.just(Fraction(0)), rationals),
                     min_size=m, max_size=m),
            min_size=0, max_size=5).map(lambda rows: (m, rows))))
    @settings(max_examples=80, deadline=None)
    def test_echelon_is_sympy_rref(self, shape):
        # reduced row echelon form is unique, so it must match sympy's
        ncols, rows = shape
        span = em._Span(ncols, rows)
        expected, pivots = [], ()
        if rows:
            R, pivots = sympy.Matrix(
                [[sympy.Rational(x.numerator, x.denominator) for x in row]
                 for row in rows]).rref()
            expected = [[Fraction(int(x.p), int(x.q)) for x in R.row(i)]
                        for i in range(len(pivots))]
        assert span.echelon() == expected
        assert sorted(span.pivots) == list(pivots)


class TestRankMod:
    """rank_mod against the rational rank, and residue against Fraction."""

    P = 2 ** 61 - 1

    @given(st.integers(min_value=1, max_value=5).flatmap(
        lambda m: st.lists(st.lists(small_ints, min_size=m, max_size=m),
                           min_size=0, max_size=6)))
    def test_large_prime_gives_the_rational_rank(self, rows):
        # entries of size at most 6 in at most 5 columns: every minor is
        # below 2^61 - 1 in size (Hadamard), so none vanishes mod p alone
        rank = em._Span(len(rows[0]), rows).dim if rows else 0
        assert em.rank_mod(rows, self.P) == rank

    @given(st.lists(st.lists(small_ints, min_size=3, max_size=3),
                    min_size=1, max_size=4), st.sampled_from([2, 3, 5]))
    def test_small_primes_never_exceed_the_rational_rank(self, rows, p):
        assert em.rank_mod(rows, p) <= em._Span(3, rows).dim

    def test_unlucky_prime(self):
        # determinant 2: rank 2 over Q, rank 1 mod 2
        rows = [[1, 1], [1, 3]]
        assert em.rank_mod(rows, 2) == 1
        assert em.rank_mod(rows, 3) == 2

    @given(rationals, st.sampled_from([2, 3, 5, 2 ** 61 - 1]))
    def test_residue_is_the_reduction(self, x, p):
        r = em.residue(x, p)
        if x.denominator % p:
            assert 0 <= r < p
            assert (r * x.denominator - x.numerator) % p == 0
        else:
            assert r is None


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
