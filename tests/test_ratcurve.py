"""Tests for glued curves, divisors, section spaces, and the Picard group.

The independent dimension oracle builds section spaces by brute-force linear
algebra over an ansatz numerator, sharing no code with the structured basis
construction.
"""

import itertools
import json
import pathlib
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from coxring import exactmath as em
from coxring import ratcurve
from coxring.exactmath import RationalFunction, UniPoly
from coxring.ratcurve import (
    CurvePoint,
    Divisor,
    GluedCurve,
    InternalInconsistency,
    NotPrincipal,
    P1Point,
    PicardData,
    ZeroFunction,
    _divisors_of,
    curve_from_json,
    curve_to_json,
    divisor_on,
    is_principal,
    leading_term,
    min_divisor,
    min_degree,
    order_at,
    parse_point,
    picard_group,
    principal_divisor,
    rational_roots,
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


POINT_POOL = [0, 1, "inf", -1, 2, Fraction(1, 2), -3]


@st.composite
def curves(draw, max_special=4, max_mult=3):
    k = draw(st.integers(min_value=1, max_value=max_special))
    points = POINT_POOL[:k]
    mults = draw(st.lists(st.integers(min_value=1, max_value=max_mult),
                          min_size=k, max_size=k))
    return GluedCurve([(pt(p), m) for p, m in zip(points, mults)])


@st.composite
def divisors_on(draw, X, max_points=3, max_coeff=3):
    candidates = list(X.special_copies())
    for v in POINT_POOL:
        p = pt(v)
        if not X.is_special(p):
            candidates.append(CurvePoint(p, 0))
    k = draw(st.integers(min_value=0, max_value=min(max_points,
                                                    len(candidates))))
    chosen = draw(st.permutations(candidates))[:k]
    coeffs = draw(st.lists(
        st.integers(min_value=-max_coeff, max_value=max_coeff).filter(bool),
        min_size=k, max_size=k))
    return Divisor({p: c for p, c in zip(chosen, coeffs)})


@st.composite
def principal_divisors_on(draw, X, max_bases=3, max_coeff=3):
    """Divisors with one order per base on all its copies, the orders
    adding up to zero: the principal divisors, which divisors_on rarely
    draws."""
    bases = [b for b, _ in X.special]
    bases += [pt(v) for v in POINT_POOL if not X.is_special(pt(v))]
    k = draw(st.integers(min_value=0, max_value=max_bases))
    chosen = draw(st.permutations(bases))[:k]
    orders = draw(st.lists(
        st.integers(min_value=-max_coeff, max_value=max_coeff),
        min_size=k, max_size=k))
    if orders:
        orders[-1] -= sum(orders)
    return Divisor({q: c for b, c in zip(chosen, orders)
                    for q in X.copies(b)})


@st.composite
def factored_functions(draw):
    """Nonzero rational functions with all zeros and poles rational."""
    roots = draw(st.lists(
        st.tuples(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1),
                                   Fraction(2), Fraction(1, 2)]),
                  st.integers(min_value=-3, max_value=3)),
        min_size=0, max_size=3, unique_by=lambda t: t[0]))
    scalar = draw(st.sampled_from([1, -1, 2, Fraction(3, 5)]))
    f = RationalFunction(UniPoly.const(scalar))
    for a, e in roots:
        if e:
            f = f * RationalFunction(UniPoly([-a, Fraction(1)])) ** e
    return f


class TestPoints:
    def test_parse_and_str(self):
        assert parse_point("inf").is_infinity()
        assert parse_point("3/2") == P1Point.finite(Fraction(3, 2))
        assert str(pt("inf")) == "inf"
        assert str(pt(Fraction(1, 2))) == "1/2"

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            GluedCurve([(pt(0), 2), (pt(0), 1)])
        with pytest.raises(ValueError):
            GluedCurve([(pt(0), 0)])

    def test_copy_bookkeeping(self):
        X = tripled_line()
        assert X.multiplicity(pt(0)) == 2
        assert X.multiplicity(pt(5)) == 1
        assert len(X.special_copies()) == 6
        assert X.copy_position(cp(1, 1)) == 3
        with pytest.raises(ValueError):
            X.validate_point(cp(0, 2))


class TestJson:
    def test_curve_roundtrip(self):
        X = tripled_line()
        assert curve_from_json(curve_to_json(X)) == X

    def test_curve_errors(self):
        with pytest.raises(ValueError):
            curve_from_json({"special": [{"point": "zebra"}]})
        with pytest.raises(ValueError):
            curve_from_json({"special": [{"point": "0", "multiplicity": 0}]})
        with pytest.raises(ValueError):
            curve_from_json({"nope": []})
        with pytest.raises(ValueError, match="at least one"):
            curve_from_json({"special": []})

    @pytest.mark.parametrize("mult", [True, False])
    def test_curve_rejects_boolean_multiplicity(self, mult):
        with pytest.raises(ValueError, match="multiplicity"):
            curve_from_json({"special": [{"point": "0",
                                          "multiplicity": mult}]})


class TestOrderAt:
    def test_z_at_zero(self):
        assert order_at(Z, pt(0)) == 1

    def test_at_infinity_balanced(self):
        assert order_at(Z / (Z - ONE), pt("inf")) == 0

    def test_pole_at_one(self):
        assert order_at(ONE / (Z - ONE), pt(1)) == -1

    def test_zero_function(self):
        with pytest.raises(ZeroFunction):
            order_at(RationalFunction.zero(), pt(0))

    def test_leading_term_of_zero_function(self):
        with pytest.raises(ZeroFunction):
            leading_term(RationalFunction.zero(), pt(1))

    def test_orders_of_a_polynomial(self):
        # (z - 2)^3 * (z + 1)
        f = RationalFunction((UniPoly([-2, 1]) ** 3) * UniPoly([1, 1]))
        assert order_at(f, pt(2)) == 3
        assert order_at(f, pt(-1)) == 1
        assert order_at(f, pt(5)) == 0

    @given(factored_functions(), factored_functions())
    def test_additive_on_products(self, f, g):
        for v in [0, 1, "inf"]:
            assert (order_at(f * g, pt(v))
                    == order_at(f, pt(v)) + order_at(g, pt(v)))


class TestRationalRoots:
    def test_known_roots(self):
        p = (UniPoly([-2, 1]) ** 2) * UniPoly([Fraction(1, 2), 1])
        roots, residual = rational_roots(p)
        assert roots == {Fraction(2): 2, Fraction(-1, 2): 1}
        assert residual == 0

    def test_irrational_residual(self):
        roots, residual = rational_roots(UniPoly([-2, 0, 1]))
        assert roots == {}
        assert residual == 2

    def test_divisors_match_sympy(self):
        # trial division against sympy's factoring, on small integers and
        # on products of large primes (and a square of one)
        large = [1000003 * 1000033, 999983 ** 2, 2 ** 10 * 999983,
                 7919 * 104729 * 3]
        for n in list(range(1, 2001)) + large:
            assert _divisors_of(n) == sympy.divisors(n)
            assert _divisors_of(-n) == _divisors_of(n)
        with pytest.raises(ValueError):
            _divisors_of(0)


class TestPrincipalDivisor:
    def test_constant(self):
        X = tripled_line()
        assert principal_divisor(ONE, X) == Divisor.zero()

    def test_z_on_tripled(self):
        X = tripled_line()
        expected = Divisor({cp(0): 1, cp(0, 1): 1,
                            cp("inf"): -1, cp("inf", 1): -1})
        assert principal_divisor(Z, X) == expected

    def test_z_minus_one_on_tripled(self):
        X = tripled_line()
        expected = Divisor({cp(1): 1, cp(1, 1): 1,
                            cp("inf"): -1, cp("inf", 1): -1})
        assert principal_divisor(Z - ONE, X) == expected

    def test_rejects_irrational(self):
        X = tripled_line()
        f = RationalFunction(UniPoly([-2, 0, 1]))
        with pytest.raises(ValueError):
            principal_divisor(f, X)

    @given(factored_functions(), factored_functions())
    @settings(max_examples=50, deadline=None)
    def test_multiplicative(self, f, g):
        X = tripled_line()
        assert (principal_divisor(f * g, X)
                == principal_divisor(f, X) + principal_divisor(g, X))

    @given(factored_functions())
    def test_min_degree_zero(self, f):
        X = tripled_line()
        D = principal_divisor(f, X)
        assert min_degree(X, D) == 0


def _fixture_curves():
    fixtures = pathlib.Path(__file__).parent / "fixtures"
    for path in sorted(fixtures.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if "special" in data:
            yield path.stem, curve_from_json(data)


FIXTURE_CURVES = dict(_fixture_curves())
ROOT_SET = [Fraction(0), Fraction(1), Fraction(-1, 2)]
# z^2 - 2 has no rational root
IRREDUCIBLE = RationalFunction(UniPoly([-2, 0, 1]))


def _root_products():
    """Every 3/2 * prod (z - a)^e over a in ROOT_SET with |e| <= 2, with
    the roots of nonzero order."""
    for exps in itertools.product(range(-2, 3), repeat=len(ROOT_SET)):
        f = RationalFunction(UniPoly.const(Fraction(3, 2)))
        for a, e in zip(ROOT_SET, exps):
            f = f * RationalFunction(UniPoly([-a, Fraction(1)])) ** e
        yield f, [a for a, e in zip(ROOT_SET, exps) if e]


class TestDivisorOn:
    """Division at known points against the factoring oracle."""

    @pytest.mark.parametrize("X", FIXTURE_CURVES.values(),
                             ids=FIXTURE_CURVES)
    def test_covering_bases_match_principal_divisor(self, X):
        # exactly the roots, and a superset with a non-root and infinity
        wide = [pt(a) for a in ROOT_SET] + [pt(2), pt("inf")]
        for f, roots in _root_products():
            expected = principal_divisor(f, X)
            assert divisor_on(f, X, [pt(a) for a in roots]) == expected
            assert divisor_on(f, X, wide) == expected

    @pytest.mark.parametrize("X", FIXTURE_CURVES.values(),
                             ids=FIXTURE_CURVES)
    def test_left_out_root_gives_none(self, X):
        for f, roots in _root_products():
            for a in roots:
                rest = [pt(b) for b in ROOT_SET if b != a] + [pt("inf")]
                assert divisor_on(f, X, rest) is None

    @pytest.mark.parametrize("X", FIXTURE_CURVES.values(),
                             ids=FIXTURE_CURVES)
    def test_irreducible_factor_gives_none(self, X):
        bases = [pt(a) for a in ROOT_SET]
        for f, _ in _root_products():
            for g in (f * IRREDUCIBLE, f / IRREDUCIBLE):
                with pytest.raises(ValueError):
                    principal_divisor(g, X)
                assert divisor_on(g, X, bases) is None

    def test_zero_function(self):
        with pytest.raises(ZeroFunction):
            divisor_on(RationalFunction.zero(), tripled_line(), [pt(0)])


class TestMinDivisor:
    def test_zero(self):
        assert min_divisor(tripled_line(), Divisor.zero()) == {}

    def test_partial_copy_clamps_to_zero(self):
        X = tripled_line()
        assert min_divisor(X, Divisor({cp(0): 1})) == {}

    def test_full_copies_survive(self):
        X = tripled_line()
        D = Divisor({cp(1): 1, cp(1, 1): 1})
        assert min_divisor(X, D) == {pt(1): 1}

    def test_ordinary_point_passthrough(self):
        X = tripled_line()
        D = Divisor({cp(5): -2})
        assert min_divisor(X, D) == {pt(5): -2}


def ansatz_dimension(X, D):
    """Independent dimension count for the space of sections of D.

    Ansatz: f = num / prod (z - p)^P over all finite relevant base points,
    with P large; conditions are linear vanishing constraints on num.
    """
    relevant = set()
    for point in D.support():
        relevant.add(point.base)
    for p, _ in X.special:
        relevant.add(p)
    finite = sorted((b for b in relevant if not b.is_infinity()),
                    key=lambda b: b.sort_key())
    P = 1 + max((abs(c) for c in D.coefficients.values()), default=0)
    den = UniPoly.one()
    for b in finite:
        den = den * UniPoly([-b.value, Fraction(1)]) ** P
    inf_allow = 0
    if P1Point.infinity() in relevant:
        inf_allow = min(D.coefficient(q)
                        for q in X.copies(P1Point.infinity()))
    dmax = den.degree + inf_allow
    if dmax < 0:
        return 0
    ncoef = dmax + 1
    constraints = []
    for b in finite:
        allow = min(D.coefficient(q) for q in X.copies(b))
        need = P - allow
        if need <= 0:
            continue
        # numerator must vanish to order 'need' at b: remainder mod
        # (z - b)^need is zero, giving 'need' linear conditions
        modulus = UniPoly([-b.value, Fraction(1)]) ** need
        cols = []
        for j in range(ncoef):
            rem = UniPoly([0] * j + [1]) % modulus
            cols.append(list(rem.coeffs)
                        + [Fraction(0)] * (need - len(rem.coeffs)))
        for condition in range(need):
            constraints.append([cols[j][condition] for j in range(ncoef)])
    if not constraints:
        return ncoef
    rank, _ = em.rank_kernel(constraints)
    return ncoef - rank


class TestSectionSpace:
    def test_zero_divisor(self):
        S = section_space(tripled_line(), Divisor.zero())
        assert S.dim == 1
        assert S.basis[0] == ONE

    def test_degree_with_poles_at_infinity(self):
        X = tripled_line()
        D = Divisor({cp(1): 1, cp(1, 1): 1, cp("inf"): -1, cp("inf", 1): -1})
        S = section_space(X, D)
        assert S.dim == 1
        assert S.basis[0] == ONE / (Z - ONE)

    def test_dimension_two_span(self):
        X = tripled_line()
        D = Divisor({cp(1): 1, cp(1, 1): 1})
        S = section_space(X, D)
        assert S.dim == 2
        assert S.coordinates_of(ONE) is not None
        assert S.coordinates_of(ONE / (Z - ONE)) is not None
        assert S.coordinates_of(Z) is None

    def test_negative_degree_empty(self):
        X = tripled_line()
        D = Divisor({cp(0): -1, cp(0, 1): -1})
        assert section_space(X, D).dim == 0

    @given(curves(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_dimension_formula_and_ansatz(self, X, data):
        D = data.draw(divisors_on(X))
        S = section_space(X, D)
        expected = max(0, min_degree(X, D) + 1)
        assert S.dim == expected
        assert ansatz_dimension(X, D) == expected

    @given(curves(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_order_conditions_hold(self, X, data):
        D = data.draw(divisors_on(X))
        S = section_space(X, D)
        for f in S.basis:
            div = principal_divisor(f, X)
            assert (div + D).is_effective()

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_multiplicativity(self, data):
        X = tripled_line()
        D1 = data.draw(divisors_on(X))
        D2 = data.draw(divisors_on(X))
        S1 = section_space(X, D1)
        S2 = section_space(X, D2)
        S12 = section_space(X, D1 + D2)
        for f in S1.basis:
            for g in S2.basis:
                assert S12.coordinates_of(f * g) is not None

    @staticmethod
    def _reduced_coordinate_polynomial(S, f):
        """coordinate_polynomial through a reduced product: f * W as a
        rational function (a gcd), then its numerator divided by V."""
        g = f * RationalFunction(S._wpoly)
        if g.den.degree != 0:
            return None
        q, r = divmod(g.num * (Fraction(1) / g.den.coeffs[0]), S._vpoly)
        return q if r.is_zero() else None

    @given(curves(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_coordinate_polynomial_matches_the_reduced_product(self, X,
                                                               data):
        S = section_space(X, data.draw(divisors_on(X)))
        others = [data.draw(factored_functions()) for _ in range(3)]
        functions = ([RationalFunction.zero()] + list(S.basis) + others
                     + [f * g for f in S.basis for g in others])
        inside = 0
        for f in functions:
            q = S.coordinate_polynomial(f)
            assert q == self._reduced_coordinate_polynomial(S, f)
            inside += q is not None
        assert inside >= 1 + S.dim

    def test_polynomial_quotient_needs_no_reduced_form(self):
        z2, z = UniPoly([0, 0, 1]), UniPoly.z()
        assert ratcurve.polynomial_quotient(z2 * z, z2) == z
        assert ratcurve.polynomial_quotient(z2 + UniPoly.one(), z) is None
        assert ratcurve.polynomial_quotient(UniPoly.zero(), z2) == \
            UniPoly.zero()


class TestPicardGroup:
    def test_plain_line(self):
        Pic, class_of = picard_group(plain_line())
        assert Pic.rank == 1 and Pic.invariant_factors == ()

    def test_tripled_line(self):
        Pic, _ = picard_group(tripled_line())
        assert Pic.rank == 4 and Pic.invariant_factors == ()

    def test_doubled_point(self):
        Pic, _ = picard_group(doubled_line())
        assert Pic.rank == 2 and Pic.invariant_factors == ()

    @given(curves())
    @settings(max_examples=30, deadline=None)
    def test_rank_formula(self, X):
        Pic, _ = picard_group(X)
        assert Pic.rank == 1 + sum(m - 1 for _, m in X.special)
        assert Pic.invariant_factors == ()

    @given(factored_functions())
    @settings(max_examples=40, deadline=None)
    def test_class_of_principal_vanishes(self, f):
        X = tripled_line()
        Pic, class_of = picard_group(X)
        D = principal_divisor(f, X)
        assert Pic.contains_zero(class_of(D))

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_class_of_additive(self, data):
        X = tripled_line()
        Pic, class_of = picard_group(X)
        D1 = data.draw(divisors_on(X))
        D2 = data.draw(divisors_on(X))
        a = class_of(D1)
        b = class_of(D2)
        c = class_of(D1 + D2)
        assert tuple(x + y for x, y in zip(a, b)) == c


class TestIsPrincipal:
    def test_zero_divisor(self):
        X = tripled_line()
        w = is_principal(X, Divisor.zero())
        assert w.is_constant() and not w.is_zero()

    def test_divisor_of_z(self):
        X = tripled_line()
        D = Divisor({cp(0): 1, cp(0, 1): 1, cp("inf"): -1, cp("inf", 1): -1})
        w = is_principal(X, D)
        assert principal_divisor(w, X) == D

    def test_basis_class_not_principal(self):
        X = tripled_line()
        with pytest.raises(NotPrincipal) as exc:
            is_principal(X, Divisor({cp(0): 1}))
        Pic, _ = picard_group(X)
        assert not Pic.contains_zero(exc.value.class_vector)

    @given(factored_functions())
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_on_principal(self, f):
        X = tripled_line()
        D = principal_divisor(f, X)
        w = is_principal(X, D)
        assert principal_divisor(w, X) == D

    @given(curves(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_decision_matches_class(self, X, data):
        D = data.draw(divisors_on(X))
        Pic, class_of = picard_group(X)
        try:
            w = is_principal(X, D)
        except NotPrincipal:
            assert not Pic.contains_zero(class_of(D))
            return
        assert principal_divisor(w, X) == D


# ---------------------------------------------------------------------------
# oracles: the moving-step witness search and the root-multiplicity orders
# that the closed forms replaced, kept as they were


def _root_multiplicity(poly, a):
    linear = UniPoly([-Fraction(a), Fraction(1)])
    mult = 0
    while True:
        q, r = divmod(poly, linear)
        if not r.is_zero():
            return mult
        mult += 1
        poly = q


def _oracle_order_at(f, p):
    if p.is_infinity():
        return f.den.degree - f.num.degree
    return (_root_multiplicity(f.num, p.value)
            - _root_multiplicity(f.den, p.value))


def _oracle_leading_term(f, base):
    if base.is_infinity():
        return f.den.degree - f.num.degree, f.num.leading() / f.den.leading()
    linear = UniPoly([-base.value, Fraction(1)])
    parts = []
    for p in (f.num, f.den):
        k = 0
        q, r = divmod(p, linear)
        while r.is_zero():
            p, k = q, k + 1
            q, r = divmod(p, linear)
        parts.append((k, p.eval(base.value)))
    (a, u), (b, v) = parts
    return a - b, u / v


def _linear_at(base):
    if base.is_infinity():
        return RationalFunction.one()
    return RationalFunction(UniPoly([-base.value, Fraction(1)]))


def _oracle_is_principal(X, D):
    """Move ordinary support onto the anchor, then cancel the class-zero
    remainder base by base against the anchor."""
    data = PicardData(X)
    vec = data.class_of(D)
    if not data.contains_zero(vec):
        raise NotPrincipal(vec)
    anchor = X.special[0][0]
    g = RationalFunction.one()
    for point, c in D.coefficients.items():
        if not X.is_special(point.base):
            g = g * (_linear_at(point.base) / _linear_at(anchor)) ** c
    supp = [point.base for point in D.coefficients]
    rem = D - divisor_on(g, X, supp + [anchor])
    base_coeff = {}
    for point, c in rem.coefficients.items():
        assert base_coeff.setdefault(point.base, c) == c
    for base, c in base_coeff.items():
        assert X.is_special(base)
        assert all(rem.coefficient(q) == c for q in X.copies(base))
    for base, c in sorted(base_coeff.items(), key=lambda kv: kv[0].sort_key()):
        if base != anchor:
            g = g * (_linear_at(base) / _linear_at(anchor)) ** c
    assert divisor_on(g, X, supp) == D
    return g


def _outcome(decide, X, D):
    try:
        return decide(X, D)
    except NotPrincipal as exc:
        return exc.class_vector


class TestClosedFormAgainstSearch:
    """The closed-form witness and leading term against the search and the
    orders they replaced."""

    @given(factored_functions())
    def test_orders_match_root_multiplicities(self, f):
        for v in POINT_POOL + [5]:
            assert order_at(f, pt(v)) == _oracle_order_at(f, pt(v))

    @given(curves(), factored_functions())
    def test_leading_terms_match(self, X, f):
        bases = [b for b, _ in X.special]
        bases += [pt(v) for v in POINT_POOL if not X.is_special(pt(v))]
        for base in bases:
            assert leading_term(f, base) == _oracle_leading_term(f, base)

    @given(curves(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_drawn_divisors_match(self, X, data):
        D = data.draw(divisors_on(X))
        assert (_outcome(is_principal, X, D)
                == _outcome(_oracle_is_principal, X, D))

    @given(curves(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_principal_divisors_match(self, X, data):
        D = data.draw(principal_divisors_on(X))
        w = is_principal(X, D)
        assert isinstance(w, RationalFunction)
        assert w == _oracle_is_principal(X, D)

    def test_wrong_witness_is_caught(self, monkeypatch):
        honest = ratcurve.order_polynomials
        monkeypatch.setattr(ratcurve, "order_polynomials",
                            lambda orders: honest(orders)[::-1])
        D = Divisor({cp(0): 1, cp(0, 1): 1, cp("inf"): -1, cp("inf", 1): -1})
        with pytest.raises(InternalInconsistency):
            is_principal(tripled_line(), D)

    def test_principal_divisor_builds_no_picard_data(self, monkeypatch):
        calls = []
        init = PicardData.__init__

        def counting(self, X):
            calls.append(X)
            init(self, X)

        monkeypatch.setattr(PicardData, "__init__", counting)
        X = tripled_line()
        D = Divisor({cp(0): 2, cp(0, 1): 2, cp(1): -1, cp(1, 1): -1,
                     cp(5): -1})
        assert is_principal(X, D) == Z ** 2 / ((Z - ONE) * (Z - 5 * ONE))
        assert calls == []
        with pytest.raises(NotPrincipal):
            is_principal(X, Divisor({cp(0): 1}))
        assert calls == [X]
