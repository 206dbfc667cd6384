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

from .exactmath import Immutable, RationalFunction, UniPoly, _exact


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

    __slots__ = ("value", "_hash")

    def __init__(self, value):
        # value None encodes infinity; a float is refused, as by the
        # polynomials
        if value is not None:
            value = Fraction(_exact(value, "point"))
        object.__setattr__(self, "value", value)
        # points key every divisor dict: hash the Fraction once
        object.__setattr__(self, "_hash", hash(("P1Point", value)))

    @staticmethod
    def finite(v):
        return P1Point(v)

    @staticmethod
    def infinity():
        return P1Point(None)

    def is_infinity(self):
        return self.value is None

    def __eq__(self, other):
        return isinstance(other, P1Point) and self.value == other.value

    def __hash__(self):
        return self._hash

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

    __slots__ = ("base", "copy_index", "_hash")

    def __init__(self, base, copy_index=0):
        copy_index = int(copy_index)
        if copy_index < 0:
            raise ValueError("copy index must be nonnegative")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "copy_index", copy_index)
        object.__setattr__(self, "_hash",
                           hash(("CurvePoint", base, copy_index)))

    def __eq__(self, other):
        return (isinstance(other, CurvePoint) and self.base == other.base
                and self.copy_index == other.copy_index)

    def __hash__(self):
        return self._hash

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
        if isinstance(entry.get("point"), float):
            # json reads a number with a fraction or an exponent as a float,
            # not as the rational written; a point of any other type but
            # str or int fails to parse below
            raise ValueError("special entry %d has a point written as a JSON "
                             "number that is not an integer; write a rational "
                             "as a string, e.g. \"1/10\"" % i)
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
    def of_point(point, coeff=1):
        return Divisor({point: coeff})

    def coefficient(self, point):
        return self.coefficients.get(point, 0)

    def support(self):
        return sorted(self.coefficients, key=lambda p: p.sort_key())

    def sorted_items(self):
        return [(p, self.coefficients[p]) for p in self.support()]

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


def _deflate(nums, p, q):
    """(k, h, B) with A = (q z - p)^k B for the integer coefficients nums of
    A, B(p/q) != 0, h = q^deg B B(p/q) and B in coefficients (leading_term)."""
    k = 0
    while True:
        h, qi = 0, 1
        for c in reversed(nums):
            h = h * p + c * qi
            qi *= q
        if h:
            return k, h, nums
        # z^i of (q z - p) B is q b_(i-1) - p b_i: b runs down from b_n = 0
        b, quotient = 0, []
        for c in nums[:0:-1]:
            b = (c + p * b) // q
            quotient.append(b)
        nums = quotient[::-1]
        k += 1


def leading_term(f, base):
    """(k, c) with f = c * pi^k + terms of higher order at the base point,
    c nonzero, where pi = z - base, or 1/z at infinity.

    At a finite base p/q, the integer numerators A of f.num and f.den
    vanish there exactly when h = Σ a_i p^i q^(n-i) = q^n A(p/q), n = deg A,
    is zero, and are then divided by q z - p, primitive as gcd(p, q) = 1.
    By Gauss's lemma the quotient B is in Z[z]: for B = (r/d) B0 with B0
    primitive and gcd(r, d) = 1, d A = r (q z - p) B0 has content |r|, a
    product of primitives being primitive, so d = 1.  As A = (q z - p)^k B
    = q^k pi^k B, a side over den leads with h q^(k - deg B) / den.
    """
    if f.is_zero():
        raise ZeroFunction("the zero function has no order")
    if base.is_infinity():
        return f.den.degree - f.num.degree, f.num.leading() / f.den.leading()
    p, q = base.value.numerator, base.value.denominator
    a, u, A = _deflate(f.num.nums, p, q)
    b, v, B = _deflate(f.den.nums, p, q)
    e = a - len(A) - b + len(B)
    return a - b, Fraction(u * f.den.den * q ** max(e, 0),
                           v * f.num.den * q ** max(-e, 0))


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
    candidates = set()
    for num in _divisors_of(nums[0]):
        for den in _divisors_of(nums[-1]):
            candidates.add(Fraction(num, den))
            candidates.add(Fraction(-num, den))
    for cand in sorted(candidates):
        if len(nums) == 1:
            break
        m, _, nums = _deflate(nums, cand.numerator, cand.denominator)
        if m:
            roots[cand] = m
    return roots, len(nums) - 1


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


def _orders_on(f, bases):
    """The nonzero orders of f at the given base points and at infinity
    when every finite zero and pole of f lies at one of those bases, None
    otherwise.

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
        if k:
            orders[base] = k
            zeros, poles = zeros + max(k, 0), poles + max(-k, 0)
    if zeros != f.num.degree or poles != f.den.degree:
        return None
    k = f.den.degree - f.num.degree
    if k:
        orders[P1Point.infinity()] = k
    return orders


def divisor_on(f, X, bases):
    """Divisor of f when every finite zero and pole of f lies at one of the
    given base points, None otherwise (_orders_on)."""
    orders = _orders_on(f, bases)
    return None if orders is None else _lift_orders(X, orders)


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
    of order c < 0.  Each is multiplied out on integers, as the product of
    (q z - p)^|c| over that of q^|c| for b = p/q."""
    nums, dens = [[1], [1]], [1, 1]
    for base, c in orders.items():
        if c and not base.is_infinity():
            p, q = base.value.numerator, base.value.denominator
            for _ in range(abs(c)):
                poly = nums[c < 0]
                nums[c < 0] = [q * x - p * y
                               for x, y in zip([0] + poly, poly + [0])]
            dens[c < 0] *= q ** abs(c)
    return UniPoly._of(nums[0], dens[0]), UniPoly._of(nums[1], dens[1])


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


def is_principal(X, D):
    """Witness g with div(g) = D exactly, or a NotPrincipal error certified
    by the nonzero Picard class.

    D is principal exactly when it has one coefficient c_b on every copy of
    each base b and these add up to zero; g is then the product of
    (z - b)^c_b over the finite bases, W / V with W and V monic and
    coprime, their roots being distinct bases.  D and the orders of g are
    both checked against the c_b, with no divisor built.
    """
    orders = {}
    lifted = True
    for point, c in D.coefficients.items():
        lifted = (lifted and orders.setdefault(point.base, c) == c
                  and point.copy_index < X.multiplicity(point.base))
    if (not lifted or sum(orders.values())
            or len(D.coefficients) != sum(map(X.multiplicity, orders))):
        raise NotPrincipal(PicardData(X).class_of(D))
    witness = RationalFunction._of(*order_polynomials(orders))
    if _orders_on(witness, orders) != orders:
        raise InternalInconsistency("principal witness fails verification")
    return witness
