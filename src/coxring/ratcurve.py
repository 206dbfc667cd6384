"""Glued rational curves: the projective line with multiplied points.

A curve is the line together with a list of special base points, each carrying
a multiplicity m (the point appears in m copies glued together away from each
other).  Divisors live on point copies; sections of a divisor are rational
functions in z whose pole order at every copy is bounded by the coefficient
there.  The Picard group is presented on divisors supported on special
copies, modulo principal divisors.
"""

import math
from fractions import Fraction

from .exactmath import Immutable, RationalFunction, UniPoly


class ZeroFunction(Exception):
    """The zero function has no divisor and no order at a point."""


class NotPrincipal(Exception):
    """Divisor is not principal; carries the nonzero Picard class."""

    def __init__(self, class_vector):
        self.class_vector = tuple(class_vector)
        super().__init__("divisor has nonzero class %r" % (self.class_vector,))


class InternalInconsistency(Exception):
    """A certified recomputation failed; indicates a bug, not bad input."""


class P1Point(Immutable):
    """A point of the projective line: a rational value or infinity."""

    __slots__ = ("value",)

    def __init__(self, value):
        # value None encodes infinity
        if value is not None:
            value = Fraction(value)
        object.__setattr__(self, "value", value)

    @staticmethod
    def finite(v):
        return P1Point(Fraction(v))

    @staticmethod
    def infinity():
        return P1Point(None)

    def is_infinity(self):
        return self.value is None

    def __eq__(self, other):
        return isinstance(other, P1Point) and self.value == other.value

    def __hash__(self):
        return hash(("P1Point", self.value))

    def sort_key(self):
        if self.value is None:
            return (1, Fraction(0))
        return (0, self.value)

    def __str__(self):
        return "inf" if self.value is None else str(self.value)

    def __repr__(self):
        return "P1Point(%s)" % self


def parse_point(text):
    text = str(text).strip()
    if text in ("inf", "oo", "infinity"):
        return P1Point.infinity()
    return P1Point.finite(Fraction(text))


class CurvePoint(Immutable):
    """A copy of a base point: ordinary points have the single copy 0."""

    __slots__ = ("base", "copy_index")

    def __init__(self, base, copy_index=0):
        copy_index = int(copy_index)
        if copy_index < 0:
            raise ValueError("copy index must be nonnegative")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "copy_index", copy_index)

    def __eq__(self, other):
        return (isinstance(other, CurvePoint) and self.base == other.base
                and self.copy_index == other.copy_index)

    def __hash__(self):
        return hash(("CurvePoint", self.base, self.copy_index))

    def sort_key(self):
        return self.base.sort_key() + (self.copy_index,)

    def __str__(self):
        return "%s%s" % (self.base, "'" * self.copy_index)

    def __repr__(self):
        return "CurvePoint(%r, %d)" % (self.base, self.copy_index)


class GluedCurve(Immutable):
    """The projective line with pairwise distinct special points, each taken
    with multiplicity at least 1."""

    __slots__ = ("special", "_mult", "_offset")

    def __init__(self, special):
        special = tuple((p, int(m)) for p, m in special)
        seen = set()
        for p, m in special:
            if not isinstance(p, P1Point):
                raise ValueError("special points must be P1Point values")
            if m < 1:
                raise ValueError("multiplicity must be at least 1")
            if p in seen:
                raise ValueError("special points must be pairwise distinct")
            seen.add(p)
        object.__setattr__(self, "special", special)
        object.__setattr__(self, "_mult", {p: m for p, m in special})
        # position of the first copy of each special point
        offset, k = {}, 0
        for p, m in special:
            offset[p] = k
            k += m
        object.__setattr__(self, "_offset", offset)

    def multiplicity(self, base):
        return self._mult.get(base, 1)

    def is_special(self, base):
        return base in self._mult

    def copies(self, base):
        return [CurvePoint(base, i) for i in range(self.multiplicity(base))]

    def special_copies(self):
        """All copies of special points, in input order."""
        out = []
        for p, m in self.special:
            out.extend(CurvePoint(p, i) for i in range(m))
        return out

    def copy_position(self, point):
        """Position of a special copy in the ambient coordinate order."""
        if point.copy_index >= self._mult.get(point.base, 0):
            raise KeyError(point)
        return self._offset[point.base] + point.copy_index

    def validate_point(self, point):
        if point.copy_index >= self.multiplicity(point.base):
            raise ValueError("copy index %d out of range for %s"
                             % (point.copy_index, point.base))

    def __eq__(self, other):
        return isinstance(other, GluedCurve) and self.special == other.special

    def __hash__(self):
        return hash(("GluedCurve", self.special))

    def __repr__(self):
        return "GluedCurve(%r)" % (list(self.special),)


def is_json_int(x):
    """A JSON integer; booleans are excluded although bool subclasses int."""
    return isinstance(x, int) and not isinstance(x, bool)


def curve_from_json(data):
    """Build a curve from {"special": [{"point": ..., "multiplicity": ...}]}."""
    if not isinstance(data, dict) or "special" not in data:
        raise ValueError("curve JSON must be an object with a 'special' list")
    entries = data["special"]
    if not isinstance(entries, list):
        raise ValueError("'special' must be a list")
    if not entries:
        raise ValueError("'special' must list at least one point")
    special = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError("special entry %d must be an object" % i)
        try:
            point = parse_point(entry["point"])
        except KeyError:
            raise ValueError("special entry %d is missing 'point'" % i)
        except (ValueError, ZeroDivisionError):
            raise ValueError("special entry %d has unparseable point %r"
                             % (i, entry.get("point")))
        mult = entry.get("multiplicity", 1)
        if not is_json_int(mult) or mult < 1:
            raise ValueError("special entry %d needs integer multiplicity >= 1"
                             % i)
        special.append((point, mult))
    try:
        return GluedCurve(special)
    except ValueError as exc:
        raise ValueError("invalid curve: %s" % exc)


def curve_to_json(X):
    return {"special": [{"point": str(p), "multiplicity": m}
                        for p, m in X.special]}


class Divisor(Immutable):
    """Finite integer combination of curve points; zero coefficients are
    never stored."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        clean = {}
        items = coefficients.items() if isinstance(coefficients, dict) \
            else coefficients
        for point, c in items:
            c = int(c)
            if c != 0:
                if point in clean:
                    raise ValueError("duplicate point in divisor")
                clean[point] = c
        object.__setattr__(self, "coefficients", clean)

    @staticmethod
    def zero():
        return Divisor({})

    @staticmethod
    def of_point(point, coeff=1):
        return Divisor({point: coeff})

    def coefficient(self, point):
        return self.coefficients.get(point, 0)

    def support(self):
        return sorted(self.coefficients, key=lambda p: p.sort_key())

    def sorted_items(self):
        return [(p, self.coefficients[p]) for p in self.support()]

    def is_zero(self):
        return not self.coefficients

    def __add__(self, other):
        out = dict(self.coefficients)
        for p, c in other.coefficients.items():
            out[p] = out.get(p, 0) + c
        return Divisor(out)

    def __neg__(self):
        return Divisor({p: -c for p, c in self.coefficients.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, k):
        return Divisor({p: int(k) * c for p, c in self.coefficients.items()})

    def __eq__(self, other):
        return (isinstance(other, Divisor)
                and self.coefficients == other.coefficients)

    def __hash__(self):
        return hash(("Divisor", tuple((p, c) for p, c in self.sorted_items())))

    def is_effective(self):
        return all(c >= 0 for c in self.coefficients.values())

    def __str__(self):
        if not self.coefficients:
            return "0"
        parts = []
        for p, c in self.sorted_items():
            body = "[%s]" % p if abs(c) == 1 else "%d[%s]" % (abs(c), p)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "Divisor(%r)" % (dict(self.coefficients),)


# ---------------------------------------------------------------------------
# orders and divisors of rational functions


def leading_term(f, base):
    """(k, c) with f = c * pi^k + terms of higher order at the base point,
    c nonzero, where pi = z - base, or 1/z at infinity."""
    if f.is_zero():
        raise ZeroFunction("the zero function has no order")
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
        # the remainder modulo z - a is the value at a
        parts.append((k, r.coeffs[0]))
    (a, u), (b, v) = parts
    return a - b, u / v


def order_at(f, p):
    """Vanishing order of f at a point of the line (negative at poles)."""
    return leading_term(f, p)[0]


def _divisors_of(n):
    """Positive divisors of n, ascending, by trial division up to isqrt."""
    n = abs(int(n))
    if n == 0:
        raise ValueError("no divisors of zero")
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def rational_roots(poly):
    """All rational roots with multiplicities, plus the rootless remainder.

    Returns (roots, residual_degree) where roots maps Fraction -> int and
    residual_degree counts the part of the polynomial without rational zeros.
    """
    if poly.is_zero():
        raise ZeroFunction("zero polynomial")
    roots = {}
    # the integer numerators, a multiple of poly with the same roots, give
    # the rational root bound; roots at zero first
    nums = poly.nums
    k = 0
    while nums[k] == 0:
        k += 1
    if k:
        roots[Fraction(0)] = k
        nums = nums[k:]
    if len(nums) == 1:
        return roots, 0
    p = UniPoly(nums)
    candidates = set()
    for num in _divisors_of(nums[0]):
        for den in _divisors_of(nums[-1]):
            candidates.add(Fraction(num, den))
            candidates.add(Fraction(-num, den))
    for cand in sorted(candidates):
        if p.degree == 0:
            break
        if p.eval(cand) == 0:
            m = 0
            linear = UniPoly([-cand, Fraction(1)])
            while True:
                q, r = divmod(p, linear)
                if not r.is_zero():
                    break
                p = q
                m += 1
            roots[cand] = m
    return roots, p.degree


def _lift_orders(X, orders):
    """The divisor on X with the given order at every copy of each base."""
    coeffs = {}
    for base, order in orders.items():
        if order:
            for point in X.copies(base):
                coeffs[point] = order
    return Divisor(coeffs)


def principal_divisor(f, X):
    """Divisor of zeros and poles of f on the curve.

    The order at a special base point is repeated at every copy.  Rational
    functions whose zeros or poles are not defined over the rationals are
    rejected: such points cannot be addressed on this curve.  This finds the
    zeros by factoring; the program itself uses divisor_on.
    """
    if f.is_zero():
        raise ZeroFunction("the zero function has no divisor")
    orders = {}
    num_roots, num_res = rational_roots(f.num)
    den_roots, den_res = rational_roots(f.den)
    if num_res or den_res:
        raise ValueError("function has zeros or poles at irrational points")
    for a, m in num_roots.items():
        orders[P1Point.finite(a)] = m
    for a, m in den_roots.items():
        orders[P1Point.finite(a)] = orders.get(P1Point.finite(a), 0) - m
    orders[P1Point.infinity()] = f.den.degree - f.num.degree
    return _lift_orders(X, orders)


def divisor_on(f, X, bases):
    """Divisor of f when every finite zero and pole of f lies at one of the
    given base points, None otherwise.

    Orders are read by division at each base.  num and den are coprime, so
    f has no zero or pole elsewhere exactly when the zero orders add up to
    deg num and the pole orders to deg den; no factoring is needed.
    """
    if f.is_zero():
        raise ZeroFunction("the zero function has no divisor")
    orders = {}
    zeros = poles = 0
    for base in dict.fromkeys(bases):
        if base.is_infinity():
            continue
        k = order_at(f, base)
        orders[base] = k
        if k > 0:
            zeros += k
        else:
            poles -= k
    if zeros != f.num.degree or poles != f.den.degree:
        return None
    orders[P1Point.infinity()] = f.den.degree - f.num.degree
    return _lift_orders(X, orders)


def min_divisor(X, D):
    """Pointwise minimum over all copies, including implicit zero copies.

    Returns a map base point -> coefficient on the underlying line, with zero
    entries dropped.
    """
    bases = {}
    for point, c in D.coefficients.items():
        X.validate_point(point)
        bases.setdefault(point.base, {})[point.copy_index] = c
    out = {}
    for base, per_copy in bases.items():
        m = X.multiplicity(base)
        value = min(per_copy.get(i, 0) for i in range(m))
        if value:
            out[base] = value
    return out


def min_degree(X, D):
    return sum(min_divisor(X, D).values())


class SectionSpace(Immutable):
    """Exact basis of the sections of a divisor.

    Basis elements are V * z^j / W for j = 0 .. deg_min, where W collects the
    allowed finite poles and V the forced finite vanishing; the number of
    sections is deg_min + 1 (empty when negative).  A section is therefore
    V * q / W for one polynomial q of degree below the dimension, its
    coordinate polynomial, and its coordinates are the coefficients of q.
    """

    __slots__ = ("divisor", "basis", "_vpoly", "_wpoly", "_dim")

    def __init__(self, divisor, basis, vpoly=None, wpoly=None):
        object.__setattr__(self, "divisor", divisor)
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "_vpoly", vpoly)
        object.__setattr__(self, "_wpoly", wpoly)
        object.__setattr__(self, "_dim", len(self.basis))

    @property
    def dim(self):
        return self._dim

    def coordinate_polynomial(self, f):
        """The polynomial q = f * W / V, or None when that is no polynomial
        (polynomial_quotient).  f lies in the space iff q exists and has
        degree below the dimension."""
        return polynomial_quotient(f.num * self._wpoly, f.den * self._vpoly)

    def coordinates_of(self, f):
        """Coordinates of f in the stored basis, or None when f is outside:
        the coefficients of its coordinate polynomial."""
        q = self.coordinate_polynomial(f)
        if q is None or q.degree >= self._dim:
            return None
        return q.padded(self._dim)

    def __repr__(self):
        return "SectionSpace(dim=%d, divisor=%s)" % (self._dim, self.divisor)


def polynomial_quotient(num, den):
    """num / den when den divides num, else None: one exact division, so
    neither side needs to be reduced and no gcd is taken."""
    q, r = divmod(num, den)
    return q if r.is_zero() else None


def order_polynomials(orders):
    """(W, V) for a map base point -> order: W is the product of (z - b)^c
    over the finite bases b of order c > 0, V that of (z - b)^-c over those
    of order c < 0."""
    polys = [UniPoly.one(), UniPoly.one()]
    for base, c in orders.items():
        if c and not base.is_infinity():
            linear = UniPoly([-base.value, Fraction(1)])
            polys[c < 0] = polys[c < 0] * linear ** abs(c)
    return tuple(polys)


def section_space(X, D):
    """Basis of {f : div(f) + D >= 0 on X}, of dimension deg_min + 1.

    Every returned element is re-verified against its principal divisor.
    """
    mind = min_divisor(X, D)
    degmin = sum(mind.values())
    wpoly, vpoly = order_polynomials(mind)
    if degmin < 0:
        return SectionSpace(D, [], vpoly, wpoly)
    # every zero and pole of a basis element is a base of mind or z = 0
    candidates = list(mind) + [P1Point.finite(0)]
    basis = []
    for j in range(degmin + 1):
        f = RationalFunction(vpoly * UniPoly.z() ** j, wpoly)
        div = divisor_on(f, X, candidates)
        if div is None or not (div + D).is_effective():
            raise InternalInconsistency(
                "constructed section fails its order conditions")
        basis.append(f)
    return SectionSpace(D, basis, vpoly, wpoly)


# ---------------------------------------------------------------------------
# Picard group


def picard_rank(X):
    """Rank of the free Picard group of X (PicardData): one class per
    special copy, less one relation per special point after the first."""
    return sum(m for _, m in X.special) - len(X.special) + 1


class PicardData(Immutable):
    """Picard group of a glued curve, presented on divisors supported on
    special copies modulo the lattice of principal special divisors.

    The relation of a special point p after the first (the anchor) is the
    copies of p minus the copies of the anchor.  It has coefficient 1 on the
    last copy of p, and no other relation uses that copy, so the group is
    free of rank picard_rank and a class has closed-form coordinates.
    """

    __slots__ = ("curve", "ambient_rank", "relations", "blocks")

    invariant_factors = ()

    def __init__(self, X):
        if not X.special:
            raise ValueError(
                "presenting Pic needs at least one special point; mark one "
                "ordinary point with multiplicity 1")
        sizes = tuple(m for _, m in X.special)
        n, m0 = sum(sizes), sizes[0]
        relations, blocks, start = [], [slice(0, m0)], m0
        for m in sizes[1:]:
            relations.append(tuple([-1] * m0 + [0] * (start - m0) + [1] * m
                                   + [0] * (n - start - m)))
            blocks.append(slice(start, start + m))
            start += m
        object.__setattr__(self, "curve", X)
        object.__setattr__(self, "ambient_rank", n)
        object.__setattr__(self, "relations", tuple(relations))
        # the ambient positions of the copies of each special point, in
        # input order
        object.__setattr__(self, "blocks", tuple(blocks))

    @property
    def rank(self):
        return picard_rank(self.curve)

    def coords(self, vector):
        """Coordinates of the class of an ambient vector: with c_p its entry
        on the last copy of each special point p after the first, add c_p
        to the anchor's copies, subtract it from p's copies and drop the
        last copies.  Two ambient vectors get equal coordinates exactly when
        they represent the same class."""
        v = list(map(int, vector))
        if len(v) != self.ambient_rank:
            raise ValueError("vector length differs from ambient rank")
        anchor, *rest = self.blocks
        shift, out = 0, []
        for block in rest:
            last = block.stop - 1
            c = v[last]
            shift += c
            out += ([x - c for x in v[block.start:last]] if c
                    else v[block.start:last])
        head = v[anchor]
        return tuple(([x + shift for x in head] if shift else head) + out)

    class_key = coords

    def contains_zero(self, vector):
        return not any(self.coords(vector))

    def same_class(self, a, b):
        return self.contains_zero([x - y for x, y in zip(a, b)])

    def describe(self):
        return {"rank": self.rank, "invariant_factors": []}

    def class_of(self, D):
        """Ambient class vector of a divisor, moving ordinary support onto
        copies of the first special point."""
        X = self.curve
        vec = [0] * self.ambient_rank
        for point, c in D.coefficients.items():
            X.validate_point(point)
            if X.is_special(point.base):
                vec[X.copy_position(point)] += c
            else:
                # an ordinary point is linearly equivalent to the copies of
                # the anchor, the first ones in the ambient order
                for i in range(self.blocks[0].stop):
                    vec[i] += c
        return tuple(vec)


def picard_group(X):
    """The Picard group with its class map.

    Returns (Pic, class_of) where Pic is the PicardData and class_of sends a
    divisor to its ambient class vector; class_of of any principal divisor
    is zero.
    """
    data = PicardData(X)
    return data, data.class_of


def is_principal(X, D):
    """Witness g with div(g) = D exactly, or a NotPrincipal error certified
    by the nonzero Picard class.

    D is principal exactly when it has one coefficient c_b on every copy of
    each base b and these add up to zero; g is then the product of
    (z - b)^c_b over the finite bases.
    """
    orders = {}
    for point, c in D.coefficients.items():
        orders.setdefault(point.base, c)
    if sum(orders.values()) or _lift_orders(X, orders) != D:
        raise NotPrincipal(PicardData(X).class_of(D))
    witness = RationalFunction(*order_polynomials(orders))
    if divisor_on(witness, X, orders) != D:
        raise InternalInconsistency("principal witness fails verification")
    return witness
