"""Graded section algebras of glued curves and their presentations.

A lattice of divisors grades the section spaces of a curve into an algebra.
When the lattice maps onto the divisor class group with a kernel, a family of
shifting witnesses identifies components along the kernel, and the algebra
descends to a class-graded quotient.  This module computes that quotient
degree by degree: generators, relations with exact certificates, and the
verification checks (weight monoid, free grading, pointedness, separatedness,
uniqueness under lattice choice, tensor products).

All certificates are finite: every search is restricted to an explicit box of
classes and reports honestly when the box is too small to decide.
"""

import itertools
import math
import operator

from fractions import Fraction
from types import MappingProxyType

from .exactmath import (
    Immutable,
    MultiPoly,
    RationalFunction,
    UnboundedEnumeration,
    UniPoly,
    _Span,
    enumerate_monomials,
    grlex_key,
    rank_kernel,
    rank_mod,
    residue,
)
from . import exactmath as _em
from .grading import FGAbelianGroup, box_vectors
from .ratcurve import (
    CurvePoint,
    Divisor,
    InternalInconsistency,
    NotPrincipal,
    P1Point,
    PicardData,
    _lift_orders,
    divisor_on,
    is_principal,
    leading_term,
    order_polynomials,
    polynomial_quotient,
    section_space,
)


class NotInKernel(Exception):
    """The requested shift degree is not in the kernel of the class map."""


class NotASection(Exception):
    """A function handed to a graded operation lies outside its component."""


class BoxTooSmall(Exception):
    """The certified box does not contain a degree needed by the question."""


class GeneratorsIncomplete(Exception):
    """A component inside the box is not spanned by generator monomials."""

    def __init__(self, degree):
        super().__init__(
            "generators do not span the component of degree %r" % (degree,))
        self.degree = tuple(int(x) for x in degree)


class NonPointedMonoid(Exception):
    """The effective degree monoid admits cancellation inside the box, so
    a class has infinitely many generator monomials to list."""


# ---------------------------------------------------------------------------
# verdict values


class Verdict(Immutable):
    """Outcome of a check: a verdict string and one read-only mapping of
    fields.  to_json() is the check's report entry, {"verdict": verdict,
    **fields}, before conversion to plain JSON values."""

    __slots__ = ("verdict", "fields")

    def __init__(self, verdict, **fields):
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "fields", MappingProxyType(fields))

    def to_json(self):
        return {"verdict": self.verdict, **self.fields}

    def __repr__(self):
        return "Verdict(%r, %r)" % (self.verdict, dict(self.fields))


# ---------------------------------------------------------------------------
# small vector helpers


def _vadd(a, b):
    return tuple(map(operator.add, a, b))


def _vsub(a, b):
    return tuple(map(operator.sub, a, b))


def _vscale(n, a):
    return tuple(n * x for x in a)


# ---------------------------------------------------------------------------
# divisor lattices over a curve


class LineBundleLattice(Immutable):
    """Free group of divisors on a glued curve, mapping into the class group.

    The basis consists of divisors supported on copies of special points.
    The class group is presented on the special copies, so the columns M,
    the copy coefficients of the basis divisors, are also their classes,
    and copy_vector(vec) = M vec is the copy vector of the divisor of vec.
    Linear independence of the basis is certified at construction.

    K = C M, one row per basis divisor, holds the closed-form coordinates
    (PicardData.coords) of the basis classes.  The Hermite normal form of
    the rows (K_j, e_j), taken once, splits into lifts, lattice vectors x_i
    with K x_i = e_i (None unless the classes span the class group), and an
    HNF basis of the lattice degrees of class zero (kernel_basis).
    """

    __slots__ = ("curve", "basis", "picdata", "columns", "lifts", "_kernel")

    def __init__(self, curve, basis):
        basis = tuple(basis)
        picdata = PicardData(curve)
        for D in basis:
            for p in D.support():
                if not curve.is_special(p.base):
                    raise ValueError(
                        "lattice basis divisors must be supported on copies "
                        "of special points")
        cols = tuple(picdata.class_of(D) for D in basis)
        if len(_em._hnf_rows(cols)) != len(basis):
            raise ValueError("lattice basis divisors are dependent")
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "picdata", picdata)
        object.__setattr__(self, "columns", cols)
        image, kernel = _em._hnf_split(self.class_coordinates())
        object.__setattr__(self, "lifts", tuple(c for _, c in image)
                           if tuple(h for h, _ in image)
                           == _identity(picdata.rank) else None)
        object.__setattr__(self, "_kernel", kernel)

    @property
    def rank(self):
        return len(self.basis)

    def copy_vector(self, vec):
        """The copy vector of the divisor of vec: M vec."""
        return _combination(vec, self.columns, self.picdata.ambient_rank)

    def class_coordinates(self):
        """K: the closed-form class coordinates of the basis divisors."""
        return [self.picdata.coords(col) for col in self.columns]

    def divisor_of(self, vec):
        vec = [int(x) for x in vec]
        if len(vec) != self.rank:
            raise ValueError("vector length differs from lattice rank")
        return Divisor(zip(self.curve.special_copies(),
                           self.copy_vector(vec)))

    def min_orders(self, vec):
        """Least coefficient of the divisor of vec over the copies of each
        special base, in input order: min_divisor read from the copy vector,
        with no Divisor built."""
        coeffs = self.copy_vector(vec)
        return tuple(min(coeffs[block]) for block in self.picdata.blocks)

    def kernel_basis(self):
        """HNF row basis of the lattice degrees of class zero."""
        return list(self._kernel)

    def __repr__(self):
        return "LineBundleLattice(rank=%d)" % self.rank


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _combination(coeffs, vectors, length):
    """sum_i coeffs[i] * vectors[i], skipping zero coefficients and zero
    entries (the columns and lifts of the default bases are unit vectors)."""
    out = [0] * length
    for c, v in zip(coeffs, vectors):
        if c:
            for i, b in enumerate(v):
                if b:
                    out[i] += c * b
    return tuple(out)


def canonical_lambda(X, basis=None):
    """Lattice lifting a basis of the class group, with trivial kernel.

    Without an explicit basis, the basis is every copy of the first special
    point and every copy but the last of each other special point, as
    single-copy divisors in input order: the copies PicardData.coords keeps,
    so K is the identity.  Either basis must have K square with an integral
    inverse: too few classes or a determinant other than +-1 do not map onto
    the class group, a class kernel gives relations.  An explicit basis (a
    list of divisors supported on special copies) that fails raises
    ValueError, the default one InternalInconsistency.
    """
    if basis is None:
        (first, _), *rest = X.special
        copies = X.copies(first) + [q for p, _ in rest
                                    for q in X.copies(p)[:-1]]
        basis = [Divisor.of_point(q) for q in copies]
        error, name = InternalInconsistency, "default"
    else:
        error, name = ValueError, "provided"
    lat = LineBundleLattice(X, basis)
    if lat.lifts is None:
        raise error("%s basis does not map onto the class group" % name)
    if lat.kernel_basis():
        raise error("%s basis has classes with relations" % name)
    return lat


def full_lambda(X):
    """Lattice spanned by every single-copy divisor, in input order."""
    return LineBundleLattice(
        X, [Divisor.of_point(q) for q in X.special_copies()])


class GradedSectionAlgebra(Immutable):
    """Components of the lattice grading, computed once and cached.

    The caches are the only mutable state; entries are immutable section
    spaces and (W_L, V_L, dim) triples, and insertions of an already
    present key are idempotent, so concurrent fills stay consistent.
    """

    __slots__ = ("lattice", "_cache", "_polynomials")

    def __init__(self, lattice):
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "_cache", {})
        object.__setattr__(self, "_polynomials", {})

    def component(self, vec):
        key = tuple(int(x) for x in vec)
        got = self._cache.get(key)
        if got is None:
            got = section_space(self.lattice.curve,
                                self.lattice.divisor_of(key))
            self._cache.setdefault(key, got)
        return got

    def component_dim(self, vec):
        return max(0, sum(self.lattice.min_orders(vec)) + 1)

    def polynomials(self, vec):
        """(W_L, V_L, dim) of the component of lattice degree L = vec, read
        from its least coefficients (min_orders) with no section space
        built: its sections are V_L q / W_L with deg q < dim."""
        key = tuple(int(x) for x in vec)
        got = self._polynomials.get(key)
        if got is None:
            m = self.lattice.min_orders(key)
            W, V = order_polynomials(
                dict(zip((b for b, _ in self.lattice.curve.special), m)))
            got = (W, V, max(0, sum(m) + 1))
            self._polynomials.setdefault(key, got)
        return got


# ---------------------------------------------------------------------------
# shifting families


class ShiftingFamily(Immutable):
    """Witness functions identifying components along the lattice kernel.

    Each kernel basis element E comes with a function g whose principal
    divisor is the negative of the divisor of E, so multiplication by g maps
    sections of L to sections of L + E for every L.  Witnesses for arbitrary
    kernel elements are assembled multiplicatively.
    """

    __slots__ = ("lattice", "kernel", "witnesses", "algebra")

    def __init__(self, lattice, kernel, witnesses, algebra=None):
        kernel = tuple(tuple(int(x) for x in row) for row in kernel)
        witnesses = tuple(witnesses)
        if len(kernel) != len(witnesses):
            raise ValueError("one witness per kernel basis element")
        for E, g in zip(kernel, witnesses):
            D = lattice.divisor_of(E)
            bases = [point.base for point in D.coefficients]
            if divisor_on(g, lattice.curve, bases) != -1 * D:
                raise InternalInconsistency(
                    "witness divisor does not match its kernel element")
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "witnesses", witnesses)
        object.__setattr__(self, "algebra",
                           algebra or GradedSectionAlgebra(lattice))

    def kernel_coords(self, E):
        """Coordinates of E over the kernel basis, an HNF (_hnf_coords)."""
        if len(E) != self.lattice.rank:
            raise NotInKernel("degree length differs from lattice rank")
        coords = _em._hnf_coords(self.kernel, E)
        if coords is None:
            raise NotInKernel("degree is not an integer combination of the "
                              "kernel basis")
        return coords

    def witness_for(self, E):
        coords = self.kernel_coords(E)
        g = RationalFunction.one()
        for c, w in zip(coords, self.witnesses):
            if c:
                g = g * w ** c
        return g

    def rescaled(self, scalars):
        """Same kernel with each witness multiplied by a nonzero constant."""
        scalars = [Fraction(s) for s in scalars]
        if any(s == 0 for s in scalars):
            raise ValueError("witness scalars must be nonzero")
        new = [w * s for w, s in zip(self.witnesses, scalars)]
        return ShiftingFamily(self.lattice, self.kernel, new, self.algebra)

    def __repr__(self):
        return "ShiftingFamily(kernel_rank=%d)" % len(self.kernel)


def build_shifting_family(lattice, algebra=None):
    """Shifting family on the kernel of the lattice's class map.

    The kernel basis is computed from the class map; every basis element is
    principal by definition of the kernel, and is_principal gives its
    witness in closed form.
    """
    kernel = lattice.kernel_basis()
    witnesses = []
    for E in kernel:
        D = lattice.divisor_of(E)
        try:
            g = is_principal(lattice.curve, -1 * D)
        except NotPrincipal as exc:
            raise InternalInconsistency(
                "kernel element has no principal witness") from exc
        witnesses.append(g)
    return ShiftingFamily(lattice, kernel, witnesses, algebra)


def shift(family, E, f, L):
    """Image of f, a section in component L, under the shift along E.

    The result is f times the assembled witness for E and lands in component
    L + E; membership on both ends is verified exactly.
    """
    E = tuple(int(x) for x in E)
    L = tuple(int(x) for x in L)
    g = family.witness_for(E)
    comp = family.algebra.component(L)
    if comp.coordinates_of(f) is None:
        raise NotASection("input lies outside its stated component")
    h = f * g
    target = family.algebra.component(_vadd(L, E))
    if target.coordinates_of(h) is None:
        raise InternalInconsistency("shifted section escaped its component")
    return h


def ideal_membership(family, candidate, box):
    """Decide membership in the shifting ideal for a homogeneous sum.

    candidate: iterable of (lattice degree, section) pairs.  All terms are
    shifted to one reference degree per class; the sum belongs to the ideal
    exactly when every shifted total vanishes, and the nonzero totals are
    the residuals of a not_in_ideal verdict.  Degrees outside the box of
    certified classes raise BoxTooSmall.
    """
    lattice = family.lattice
    pic = lattice.picdata
    boxkeys = {pic.class_key(tuple(int(x) for x in c)) for c in box}
    groups = {}
    order = []
    for L, f in candidate:
        L = tuple(int(x) for x in L)
        key = pic.class_key(lattice.copy_vector(L))
        if key not in boxkeys:
            raise BoxTooSmall(
                "candidate degree leaves the certified box")
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append((L, f))
    residuals = []
    for key in order:
        terms = groups[key]
        L0 = terms[0][0]
        total = RationalFunction.zero()
        for L, f in terms:
            total = total + shift(family, _vsub(L0, L), f, L)
        if not total.is_zero():
            residuals.append((L0, total))
    if residuals:
        return Verdict("not_in_ideal", residuals=tuple(residuals))
    return Verdict("in_ideal")


# ---------------------------------------------------------------------------
# the class-graded algebra


class PicGradedAlgebra(Immutable):
    """Class-graded quotient of a graded section algebra.

    Components at a class are realized as components of the underlying
    lattice algebra at a fixed linear representative, so the quotient is
    never materialized.  The representative map is an integral linear
    section of the class map in closed form: the identity on the full
    lattice, whose basis divisors are the special copies, and otherwise
    K^-1 C with the lattice's lifts as the rows of section_of_pic (K times
    them is checked to be I).  Linearity makes component products land in
    the component of the sum of classes with no correction factors.
    Dimensions and sections are read at the representative, from the base
    algebra, which caches section spaces by lattice vector; no table is
    keyed by class.
    """

    __slots__ = ("base", "family", "section_of_pic")

    def __init__(self, base, family):
        lattice = base.lattice
        section = None
        if lattice.columns != _identity(lattice.picdata.ambient_rank):
            section = lattice.lifts
            if section is None:
                raise ValueError("lattice does not map onto the class group")
            K = lattice.class_coordinates()
            if tuple(_combination(x, K, len(section))
                     for x in section) != _identity(len(section)):
                raise InternalInconsistency(
                    "representative map fails to split the class map")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "section_of_pic", section)

    @property
    def lattice(self):
        return self.base.lattice

    @property
    def curve(self):
        return self.base.lattice.curve

    @property
    def pic(self):
        return self.base.lattice.picdata

    def rep(self, class_vec):
        v = [int(x) for x in class_vec]
        if len(v) != self.pic.ambient_rank:
            raise ValueError("class vector length differs from ambient rank")
        if self.section_of_pic is None:
            return tuple(v)
        return _combination(self.pic.coords(v), self.section_of_pic,
                            self.lattice.rank)

    def pic_component(self, class_vec):
        return self.base.component(self.rep(class_vec))

    def component_dim(self, class_vec):
        """Dimension of the component at the class of an ambient vector c,
        read off c: max(0, sum_b min_b(c) + 1), min_b the least entry of c
        over the copies of the special base b.

        The component is that of the lattice degree rep(c), whose copy
        vector c' has the class of c, so its dimension is
        max(0, sum_b min_b(c') + 1) (GradedSectionAlgebra.component_dim).
        c' - c is an integer combination of the class relations, and the
        relation of a special point p is -1 on every copy of the anchor and
        +1 on every copy of p: it lowers the anchor's minimum by one and
        raises p's by one.  So sum_b min_b is a class invariant and equals
        sum_b min_b(c'), on every lattice, with no representative built.
        """
        if len(class_vec) != self.pic.ambient_rank:
            raise ValueError("class vector length differs from ambient rank")
        return self.hilbert((class_vec,))[0][1]

    def effective_nonzero(self, class_vec):
        return (self.component_dim(class_vec) > 0
                and not self.pic.contains_zero(class_vec))

    def hilbert(self, box):
        """(c, component_dim(c)) for each vector c of box, unchecked."""
        blocks = self.pic.blocks
        return [(c, max(0, sum(map(min, map(c.__getitem__, blocks))) + 1))
                for c in box]


def curve_algebra(X, mode="canonical", basis=None):
    """Class-graded algebra of a curve under either lattice choice."""
    if mode == "canonical":
        lat = canonical_lambda(X, basis=basis)
    elif mode == "full":
        lat = full_lambda(X)
    else:
        raise ValueError("mode must be 'canonical' or 'full'")
    base = GradedSectionAlgebra(lat)
    family = build_shifting_family(lat, base)
    return PicGradedAlgebra(base, family)


def lattice_box(lattice, radius):
    """Classes whose coefficients over the classes of the lattice basis lie
    in [-radius, radius], ordered by total size then by sign-flipped
    lexicographic comparison of the coefficients (grading.box_vectors).

    The ordering puts small positive degrees first, which keeps generator
    discovery deterministic and stable across runs.  On a lattice with
    trivial kernel (every canonical_lambda) no class repeats, and the box
    is a _DistinctClasses tuple; on the full lattice classes repeat.
    """
    box = box_vectors(lattice.columns, radius, lattice.picdata.ambient_rank)
    return (tuple if lattice.kernel_basis() else _DistinctClasses)(box)


class _DistinctClasses(tuple):
    """A box whose vectors lie in pairwise distinct classes (lattice_box)."""


def default_box(X, radius=2, basis=None):
    """The box of the canonical lattice, which lifts a basis of the class
    group (lattice_box)."""
    return lattice_box(canonical_lambda(X, basis=basis), radius)


# ---------------------------------------------------------------------------
# generators and relations


def _degree_weights(A):
    """Weights y on the ambient class coordinates, positive on every nonzero
    effective class.

    A copy of a special point of multiplicity m weighs L/m, where L is the
    lcm of the multiplicities.  A prime divisor then weighs L/m on a copy and
    L on an ordinary point, and every class relation (the copies of a point
    minus the copies of the anchor) weighs L - L = 0, so y is well defined on
    classes and strictly positive on the nonzero effective ones.
    """
    mults = [m for _, m in A.curve.special]
    lcm = math.lcm(*mults)
    y = tuple(lcm // m for m in mults for _ in range(m))
    if any(sum(a * b for a, b in zip(y, r)) for r in A.pic.relations):
        raise InternalInconsistency(
            "degree weights do not vanish on the class relations")
    return y


def _traversal(A, box):
    """The distinct box classes in box order, and (index, class, dim) for
    those of nonzero dimension in a linear extension of the effectivity
    order.

    A _DistinctClasses box is read as it is; any other (hand-made, or of
    the full lattice) keeps the first vector of each class.  Dimensions are
    read in box order (hilbert); a class of dimension zero holds no
    monomial and needs no place in the order.  A nonzero effective
    difference raises the weighted degree of _degree_weights, so sorting by
    (weighted degree, index) visits every class below a class before it.
    """
    classes = box
    if not isinstance(box, _DistinctClasses):
        first = {}
        for vec in box:
            first.setdefault(A.pic.class_key(vec), vec)
        classes = tuple(first.values())
    y = _degree_weights(A)
    nonzero = sorted((sum(map(operator.mul, y, vec)), i, vec, dim)
                     for i, (vec, dim) in enumerate(A.hilbert(classes)) if dim)
    return classes, [(i, vec, dim) for _, i, vec, dim in nonzero]


def _monomials(A, degrees, target):
    try:
        return enumerate_monomials(degrees, target,
                                   relations=A.pic.relations)
    except UnboundedEnumeration as exc:
        raise NonPointedMonoid(str(exc)) from exc


def _correction(X, m, *factors):
    """The correction of a product of sections, as (exponents, roots).

    A section of lattice degree L is V_L * q / W_L with deg q < dim L
    (SectionSpace), its coordinate polynomial q.  With m_L(b) the least
    coefficient of the divisor of L over the copies of the special base b
    (min_orders), V_L / W_L is the product of (z - b)^(-m_L(b)) over the
    finite b.  So a product of sections of L_1, ..., L_k has coordinate
    polynomial q_1 ... q_k C in L = sum L_k, C the product of (z - b)^e_b
    over the finite b, where e_b = m(b) - sum_k m_k(b) for m = m_L and the
    factors m_k = m_{L_k}.  A minimum of sums is at least the sum of
    minima, so no exponent is negative, infinity included; one that is
    raises.  Its landing is then the degree bound (_coordinates).

    roots lists the pairs (b, e_b) with e_b > 0 over the finite b: C is
    multiplied out over Q by _linear_product and mod a prime from the
    residues of the b (_MonomialCoordinates).
    """
    exps = tuple(a - sum(f) for a, *f in zip(m, *factors))
    if any(e < 0 for e in exps):
        raise InternalInconsistency(
            "product of sections has a negative correction exponent")
    return exps, tuple((base.value, e) for (base, _), e in zip(X.special, exps)
                       if e and not base.is_infinity())


def _linear_product(roots):
    """The product of (z - b)^e over the pairs (b, e) of roots."""
    C = UniPoly.one()
    for b, e in roots:
        C = C * UniPoly([-b, 1]) ** e
    return C


def _linear_product_mod(roots, p):
    """The product mod p of (z - b)^e over the pairs (b, e) of roots, as
    its coefficient list, built from the residues of the b; None when p
    divides the denominator of one."""
    C = [1]
    for b, e in roots:
        r = residue(b, p)
        if r is None:
            return None
        for _ in range(e):
            C = _times_mod(C, [-r % p, 1], p)
    return C


def _times_mod(a, b, p):
    """The product mod p of two polynomials given by their coefficient
    lists, ascending; the length stays len(a) + len(b) - 1."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [x % p for x in out]


def _coordinates(q, dim, escaped):
    """The coefficients of q padded to dim, the coordinates of its section;
    InternalInconsistency(escaped) when deg q >= dim."""
    if q.degree >= dim:
        raise InternalInconsistency(escaped)
    return q.padded(dim)


def _section_polynomial(A, L, num, den):
    """The coordinate polynomial of num / den in the component of lattice
    degree L, or None when num / den lies outside: one exact division of
    num W_L by den V_L (polynomial_quotient, no gcd, so num / den need not
    be reduced) and the degree bound."""
    W, V, dim = A.base.polynomials(L)
    q = polynomial_quotient(num * W, den * V)
    return q if q is not None and q.degree < dim else None


# the prime of the residue reading of _MonomialCoordinates, which _search
# certifies its rows by (any prime gives the same rows)
CERTIFICATE_PRIME = 2 ** 61 - 1

_ESCAPED = "generator monomial escaped its component"


class _MonomialCoordinates:
    """Coordinate polynomials of generator monomials, one product each,
    read over Q and mod a prime.

    A generator of class D lies in lattice degree L_i = rep(D), and a
    monomial with exponents e in L = sum e_i L_i.  Its coordinate
    polynomial is built once per exponent vector, from the vector with its
    last nonzero exponent lowered by one, by the product rule of
    _correction.  One chain walk (_entry) fills either of two memos:

    - polynomials: exponents -> (L, q), q over Q.  The exact path of
      _search and sections_as_polynomials read it (coordinates).
    - residues: exponents -> (L, degree, r), r the coefficients of q mod
      the prime p = CERTIFICATE_PRIME, read when the instance is made.  r
      is the product mod p of the residues of the generators' q and of the
      corrections, each built from the residues of the finite base points,
      so no rational polynomial is multiplied; it is None when p divides a
      denominator on the way.  degree is deg q, the sum of the degrees of
      the factors, which is exact because Q[z] is a domain; it is never
      read from r, whose leading residue may vanish.  _search certifies
      its rows from this reading (residue_coordinates).

    Membership stays checked completely: each generator's q is read once
    with SectionSpace.coordinate_polynomial, and every monomial's q must
    have degree below the dimension of its component, which together is
    the test SectionSpace.coordinates_of makes.
    """

    def __init__(self, A):
        self._A = A
        self.prime = CERTIFICATE_PRIME
        # (lattice degree, q, residues of q or None), one per generator
        self._gens = []
        zero = (0,) * A.lattice.rank
        self.polynomials = {(): (zero, UniPoly.one())}
        self.residues = {(): (zero, 0, [1])}
        self._mins = {}
        # (lattice degree, generator index) -> (exponents, roots) of the
        # correction (_correction)
        self.corrections = {}
        # (roots, over Q) -> the correction over Q, or its residues mod p
        # (None when p divides a base point)
        self._products = {}

    def add(self, degree, section):
        """Append a generator of the given class."""
        L = self._A.rep(degree)
        q = self._A.base.component(L).coordinate_polynomial(section)
        if q is None:
            raise InternalInconsistency(_ESCAPED)
        r = [residue(c, self.prime) for c in q.coeffs]
        self._gens.append((L, q, None if None in r else r))

    def _min_orders(self, L):
        if L not in self._mins:
            self._mins[L] = self._A.lattice.min_orders(L)
        return self._mins[L]

    def _correction(self, L0, i):
        got = self.corrections.get((L0, i))
        if got is None:
            Li = self._gens[i][0]
            got = self.corrections[(L0, i)] = _correction(
                self._A.curve, self._min_orders(_vadd(L0, Li)),
                self._min_orders(L0), self._min_orders(Li))
        return got[1]

    def _product(self, roots, rational):
        key = (roots, rational)
        if key not in self._products:
            self._products[key] = (_linear_product(roots) if rational else
                                   _linear_product_mod(roots, self.prime))
        return self._products[key]

    def _step(self, entry, i):
        L, q = entry
        Li, qi, _ = self._gens[i]
        C = self._product(self._correction(L, i), True)
        return _vadd(L, Li), q * qi * C

    def _step_mod(self, entry, i):
        L, degree, r = entry
        Li, qi, ri = self._gens[i]
        roots = self._correction(L, i)
        C = self._product(roots, False)
        degree += qi.degree + sum(e for _, e in roots)
        if None in (r, ri, C):
            r = None
        else:
            r = _times_mod(_times_mod(r, ri, self.prime), C, self.prime)
        return _vadd(L, Li), degree, r

    def _entry(self, memo, step, exps):
        # trim trailing zeros, lower the last exponent down to a known
        # vector, then multiply back
        k = len(exps)
        while k and not exps[k - 1]:
            k -= 1
        exps = exps[:k]
        chain = []
        while exps not in memo:
            chain.append(exps)
            exps = exps[:-1] + (exps[-1] - 1,)
            while exps and not exps[-1]:
                exps = exps[:-1]
        entry = memo[exps]
        for exps in reversed(chain):
            entry = memo[exps] = step(entry, len(exps) - 1)
        return entry

    def coordinates(self, exps, L, dim):
        """Coordinates of the monomial with these exponents in the component
        of lattice degree L and dimension dim; raises when it lies outside."""
        got_L, q = self._entry(self.polynomials, self._step, exps)
        if got_L != L:
            raise InternalInconsistency(_ESCAPED)
        return _coordinates(q, dim, _ESCAPED)

    def residue_coordinates(self, exps, L, dim):
        """The coordinates mod p, or None when p divides a denominator on
        the way; raises, like coordinates, when the monomial lies outside
        its component."""
        got_L, degree, r = self._entry(self.residues, self._step_mod, exps)
        if got_L != L or degree >= dim:
            raise InternalInconsistency(_ESCAPED)
        return None if r is None else r + [0] * (dim - len(r))


def _relation_multiples(relations, exps_list):
    """The multiples of relations, each given by its terms, in the class
    of the monomials exps_list (all of them, as _monomials lists them),
    each as a mapping from the index of a monomial to its coefficient.

    A multiple R * m has the terms e + m for the terms e of R, all in the
    class, so its cofactors m are the t - e_0 >= 0 for the monomials t of
    the class and one term e_0 of R; the cofactor class is not enumerated.
    """
    index = {exps: k for k, exps in enumerate(exps_list)}
    n = len(exps_list[0]) if exps_list else 0
    for terms in relations:
        padded = [(exps + (0,) * (n - len(exps)), x)
                  for exps, x in terms.items()]
        first = padded[0][0]
        for t in exps_list:
            cof = _vsub(t, first)
            if min(cof) < 0:
                continue
            vec = {}
            for exps, x in padded:
                k = index.get(_vadd(exps, cof))
                if k is None:
                    raise InternalInconsistency(
                        "relation multiple uses an unlisted monomial")
                vec[k] = x
            yield vec


def _certified(coords, L, dim, exps_list, found):
    """Whether the row of the class of lattice degree L is certified mod p
    (_search): its monomials have rank dim mod p, and there are no more of
    them or the multiples of the found relations have rank nm - dim mod p.
    """
    p = coords.prime
    vectors = [coords.residue_coordinates(exps, L, dim)
               for exps in exps_list]
    if None in vectors or rank_mod(vectors, p) < dim:
        return False
    nm = len(exps_list)
    if nm == dim:
        return True
    residues = [r for _, _, r in found]
    if None in residues:
        return False
    multiples = ([vec.get(k, 0) for k in range(nm)]
                 for vec in _relation_multiples(residues, exps_list))
    return rank_mod(multiples, p) == nm - dim


def _search(A, box, generators=None):
    """Generators, relations and a Certificate over the box, in one
    traversal of its classes of nonzero dimension (_traversal).

    At each class D the monomials in the known generators are read as
    coordinates in the component of lattice degree rep(D)
    (_MonomialCoordinates).  Basis elements outside their span become
    generators of class D, in basis order; given generators instead keep
    their order, and a component they fail to span raises
    GeneratorsIncomplete.  Kernel vectors outside the span of multiples of
    earlier relations become relations, each checked to vanish on the
    generator sections.  The row of each such class records the monomial
    count, the dimension, the kernel dimension and the dimension spanned by
    relation multiples; the other rows are zeros.  One pass gives what a
    generator search followed by a relation search over the finished
    generators gives:

    - A monomial of class D uses only generators of classes visited before
      D.  The one exception is a generator of class D, taken alone.  This
      holds because the traversal extends the effectivity order, and no
      generator has class zero.
    - A generator found at D is a unit vector outside the span of the
      earlier monomials.  So it adds 1 to the monomial count and nothing to
      the kernel, and no multiple of an earlier relation contains it.
    - Relations stay in reduced echelon form over grlex in the final
      variable order: discovered generators sorted by the box position of
      their degree, stably.  At D the columns are sorted by grlex of the
      exponents read in the box order of the generators found so far; at
      the end the relation exponents are re-indexed into that order and
      padded with zeros.

    Most classes gain nothing, and their row (nm, dim, nm - dim, nm - dim)
    for nm monomials is certified by ranks mod the prime p of the residue
    reading, with no rational elimination (_certified):

    - When p divides no denominator, reduction from the rationals whose
      denominators p does not divide to the integers mod p is a ring map,
      so rank_p <= rank_Q <= dim for the monomial coordinates (rank_mod).
      rank_p = dim thus gives rank_Q = dim: no generator is found at D,
      and the kernel has dimension nm - dim.
    - The relation multiples lie in that kernel, because each relation was
      checked to vanish on the generator sections.  By the same ring map
      their rank over Q lies between rank_p and nm - dim, so rank_p =
      nm - dim (or nm = dim) makes them fill the kernel: no relation is
      found at D, and the ideal span is nm - dim.

    Every other class takes the exact path over Q: a rank below its bound,
    a denominator that p divides, or an unlucky prime.  The kernel
    dimension is nm less the rank of the monomial coordinates, and a
    kernel basis (rank_kernel) is computed only when the relation
    multiples fall short of it.  So generators, relations and rows do not
    depend on p.

    Everything is listed by the box position of its degree class, so the
    output does not depend on which linear extension was traversed.
    """
    given = generators is not None
    gens = [(tuple(int(x) for x in d), s) for d, s in generators or ()]
    coords = _MonomialCoordinates(A)
    for d, s in gens:
        coords.add(d, s)
    pos = {}

    def box_order(n):
        if given:
            return range(n)
        return sorted(range(n), key=lambda j: pos[gens[j][0]])

    # (box position, terms over Q, their residues mod p or None)
    found = []
    classes, visit = _traversal(A, box)
    if A.section_of_pic is None and A.lattice.kernel_basis():
        # rep, the identity here, is linear on classes only on the vectors
        # with no entry on a copy the class coordinates drop
        for D in [d for d, _ in gens] + [D for _, D, _ in visit]:
            if any(D[b.stop - 1] for b in A.pic.blocks[1:]):
                raise ValueError("degree %r is nonzero on the last copy of "
                                 "a special point after the first" % (D,))
    rows = {}
    for at, D, dim in visit:
        pos[D] = at
        n = len(gens)
        degrees = [d for d, _ in gens]
        exps_list = _monomials(A, degrees, D)
        nm = len(exps_list)
        L = A.rep(D)
        if _certified(coords, L, dim, exps_list, found):
            rows[at] = (D, nm, dim, nm - dim, nm - dim)
            continue
        vectors = [coords.coordinates(exps, L, dim) for exps in exps_list]
        span = _Span(dim, vectors)
        rank = span.dim
        if rank < dim and given:
            raise GeneratorsIncomplete(D)
        for idx in range(dim):
            if span.dim < dim and span.add([int(t == idx)
                                             for t in range(dim)]):
                section = A.pic_component(D).basis[idx]
                gens.append((D, section))
                coords.add(D, section)
        order = box_order(n)
        colorder = sorted(range(nm), key=lambda t: grlex_key(
            [exps_list[t][j] for j in order]))
        old = _Span(nm)
        for vec in _relation_multiples([terms for _, terms, _ in found],
                                       exps_list):
            old.add([vec.get(c, 0) for c in colorder])
        if old.dim < nm - rank:
            _, kernel = rank_kernel([[v[i] for v in vectors]
                                     for i in range(dim)])
            for rel in _Span(nm, ([vec[c] for c in colorder]
                                  for vec in kernel)).echelon():
                if not old.add(rel):
                    continue
                terms = {exps_list[c]: x for c, x in zip(colorder, rel) if x}
                if not MultiPoly(n, terms).substitute(
                        [s for _, s in gens[:n]]).is_zero():
                    raise InternalInconsistency(
                        "relation does not evaluate to zero")
                residues = {exps: residue(x, coords.prime)
                            for exps, x in terms.items()}
                found.append((at, terms, None if None in
                              residues.values() else residues))
        rows[at] = (D, nm + len(gens) - n, dim, nm - rank, old.dim)
    nv = len(gens)
    order = box_order(nv)
    relations = [MultiPoly(nv, {
        tuple((exps + (0,) * (nv - len(exps)))[j] for j in order): x
        for exps, x in terms.items()})
        for _, terms, _ in sorted(found, key=lambda f: f[0])]
    return ([gens[j] for j in order], relations, Certificate(classes, rows))


def find_generators(A, box):
    """Minimal homogeneous generators inside the box (_search)."""
    return _search(A, box)[0]


def find_relations(A, generators, box):
    """Relations among the given generators, and a certificate (_search)."""
    return _search(A, box, generators)[1:]


# ---------------------------------------------------------------------------
# presentations


class Certificate(Immutable):
    """Rows (degree, monomials, dim, kernel, ideal_span), one per class of
    the tuple degrees, in order.  Rows of zeros, those of most box classes,
    are not stored: rows maps the index of every other class to its row.
    """

    __slots__ = ("degrees", "rows")
    FIELDS = ("degree", "monomials", "dim", "kernel", "ideal_span")

    def __init__(self, degrees, rows):
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "rows", MappingProxyType(dict(rows)))

    @classmethod
    def of(cls, rows):
        """The certificate of the rows, given in full."""
        rows = tuple(rows)
        return cls(tuple(row[0] for row in rows),
                   {i: row for i, row in enumerate(rows) if any(row[1:])})

    def __len__(self):
        return len(self.degrees)

    def __iter__(self):
        for i, degree in enumerate(self.degrees):
            yield self.rows.get(i) or (degree, 0, 0, 0, 0)


class Presentation(Immutable):
    """Generators, relations and a completeness certificate over a box."""

    __slots__ = ("grading", "generators", "relations", "box", "certificate")

    def __init__(self, grading, generators, relations, box, certificate):
        object.__setattr__(self, "grading", grading)
        object.__setattr__(self, "generators",
                           tuple((tuple(int(x) for x in d), s)
                                 for d, s in generators))
        object.__setattr__(self, "relations", tuple(relations))
        object.__setattr__(self, "box", tuple(map(tuple, box)))
        object.__setattr__(self, "certificate", certificate)

    def to_json(self):
        return {
            "grading": self.grading.describe(),
            "generators": [{"degree": list(d),
                            "section": None if s is None else str(s)}
                           for d, s in self.generators],
            "relations": [str(r) for r in self.relations],
            "certificate": self.certificate,
        }

    def __repr__(self):
        return "Presentation(%d generators, %d relations)" % (
            len(self.generators), len(self.relations))


def build_presentation(A, box):
    gens, rels, cert = _search(A, box)
    return Presentation(A.pic, gens, rels, box, cert)


# ---------------------------------------------------------------------------
# verification checks


def _cokernel(group, vectors):
    """None when the vectors generate the grading group, else the describe()
    of the quotient by them: they generate it exactly when the Hermite form
    of the vectors and the relations is the identity."""
    cols = list(vectors) + list(group.relations)
    rows = _em._hnf_rows(cols)
    if tuple(map(tuple, rows)) == _identity(group.ambient_rank):
        return None
    return FGAbelianGroup(group.ambient_rank, cols).describe()


def weight_monoid_check(group, degrees):
    """Whether the generator degrees generate the whole grading group."""
    degrees = [tuple(int(x) for x in d) for d in degrees]
    cokernel = _cokernel(group, degrees)
    if cokernel is None:
        return Verdict("pass", details={"degrees": degrees})
    return Verdict("fail", cokernel=cokernel)


def _total_degree(poly):
    return max((sum(e) for e in poly.terms), default=0)


def _poly_class(P, poly):
    degs = None
    gen_degrees = [d for d, _ in P.generators]
    for exps in poly.terms:
        vec = tuple(sum(e * d[i] for e, d in zip(exps, gen_degrees))
                    for i in range(P.grading.ambient_rank))
        if degs is None:
            degs = vec
        elif not P.grading.same_class(degs, vec):
            raise ValueError("polynomial is not homogeneous")
    if degs is None:
        raise ValueError("zero polynomial has no degree")
    return degs


# non-special points of the line at which candidate_points also reads the
# generators, taken first from infinity, 0, 1, -1, 2, -2, ...
ORDINARY_CANDIDATES = 3


def candidate_points(A, P):
    """Points of the affine space of P's generators, one per special copy q
    and per ordinary point among the first ORDINARY_CANDIDATES: the
    generator sections read in a local trivialization at q.

    A generator s_i of class d_i is a section of D_i, the divisor of the
    lattice degree rep(d_i), and s_i * pi^D_i(q), with pi = z - b at a
    point over the base b (1/z at infinity), has no pole at b; its value
    there is the i-th coordinate.  Every monomial of a relation lies in one
    lattice degree, where the D_i add up, so each relation vanishes at each
    point.  freely_graded_check tests that again and keeps only the points
    that pass.  A generator vanishing at q has coordinate zero, an element
    not vanishing there a nonzero value.
    """
    X = A.curve
    divisors = [A.lattice.divisor_of(A.rep(d)) for d, _ in P.generators]
    ordinary = itertools.chain(
        [P1Point.infinity(), P1Point.finite(0)],
        (P1Point.finite(s * k) for k in itertools.count(1) for s in (1, -1)))
    bases = [b for b, _ in X.special] + list(itertools.islice(
        (b for b in ordinary if not X.is_special(b)), ORDINARY_CANDIDATES))
    points = []
    for base in bases:
        terms = [leading_term(s, base) for _, s in P.generators]
        for q in X.copies(base):
            point = []
            for D, (k, c) in zip(divisors, terms):
                k += D.coefficient(q)
                if k < 0:
                    raise InternalInconsistency(
                        "generator section has a pole beyond its degree")
                point.append(c if k == 0 else Fraction(0))
            points.append(tuple(point))
    return points


def _variable_ideal_members(P, poly, variables):
    """The variables T_j among the given indices j for which a truncated test
    puts poly in the ideal (T_j).

    The relation multiples of poly's class span the ideal of relations
    there, and poly lies in (T_j) plus that span exactly when its image
    modulo the monomials divisible by T_j lies in the span of the images of
    the multiples.  Monomials and relation cofactors are truncated by total
    degree, and a multiple with a monomial outside the truncated set is not
    used.  A positive answer is exact; a negative answer only reflects the
    truncation, so freely_graded_check asks only about the pairs that no
    point certifies exactly.
    """
    gen_degrees = [d for d, _ in P.generators]
    target = _poly_class(P, poly)
    bound = _total_degree(poly) + max(
        (_total_degree(r) for r in P.relations), default=0)
    try:
        monos = enumerate_monomials(gen_degrees, target, bound=bound,
                                    relations=P.grading.relations)
    except UnboundedEnumeration:
        return set()
    known = set(monos)
    if any(exps not in known for exps in poly.terms):
        return set()
    multiples = []
    for r in P.relations:
        diff = _vsub(target, _poly_class(P, r))
        try:
            cofs = enumerate_monomials(gen_degrees, diff, bound=bound,
                                       relations=P.grading.relations)
        except UnboundedEnumeration:
            continue
        for cof in cofs:
            prod = r * MultiPoly.monomial(cof)
            if all(exps in known for exps in prod.terms):
                multiples.append(prod.terms)
    members = set()
    for j in variables:
        index = {}
        for exps in monos:
            if exps[j] == 0:
                index[exps] = len(index)

        def project(terms):
            vec = [0] * len(index)
            for exps, coeff in terms.items():
                t = index.get(exps)
                if t is not None:
                    vec[t] = coeff
            return vec

        span = _Span(len(index), map(project, multiples))
        if span.contains(project(poly.terms)):
            members.add(j)
    return members


def freely_graded_check(P, irrelevant, power_bound=4, points=()):
    """Localization unit degrees generate the grading group for every
    irrelevant element.

    For each irrelevant f the variables T with a power of f inside the ideal
    of T become units after inverting f, so their degrees join the unit
    degree subgroup; the check passes when each such subgroup is the whole
    grading group.

    A point p where every relation of P vanishes (checked here; points that
    fail are dropped), p_j = 0 and f(p) != 0 proves that no power of f lies
    in (T_j) plus the relations: evaluating f^n = a T_j + sum b_R R at p
    gives f(p)^n = 0.  Such a pair is decided at once and never searched.
    The power search over the other pairs stops at power_bound, or once
    every variable is hit or certified; a zero bound decides nothing.  A
    certified pair adds no unit degree, so the certificates change neither
    the witnesses nor the verdict, only the work.
    """
    if power_bound <= 0:
        return Verdict("inconclusive", reason="power bound exhausted before "
                       "any localization data was gathered")
    gen_degrees = [d for d, _ in P.generators]
    k = len(gen_degrees)
    points = [p for p in points if all(r.eval(p) == 0 for r in P.relations)]
    all_witnesses = []
    for idx, f in enumerate(irrelevant):
        never = {j for p in points if f.eval(p) != 0
                 for j in range(k) if p[j] == 0}
        # the smallest power per variable: raise f one step at a time and
        # test only the variables neither hit nor certified
        hit = {}
        fn = f
        for n in range(1, power_bound + 1):
            if n > 1:
                fn = fn * f
            for j in range(k):
                if j not in hit and fn.divisible_by_variable(j):
                    hit[j] = n
            open_js = [j for j in range(k) if j not in hit and j not in never]
            if open_js and P.relations:
                for j in _variable_ideal_members(P, fn, open_js):
                    hit[j] = n
            if len(hit.keys() | never) == k:
                break
        wits = sorted(hit.items())
        collected = [_poly_class(P, f)] + [gen_degrees[j] for j, _ in wits]
        uncovered = _cokernel(P.grading, collected)
        if uncovered is not None:
            return Verdict(
                "inconclusive", reason="unit degrees of one localization do "
                "not generate the grading group",
                details={"index": idx, "uncovered": uncovered})
        all_witnesses.append(tuple(wits))
    return Verdict("pass", details={"witnesses": tuple(all_witnesses)})


def is_pointed(A, box):
    """Pointedness: is the degree-zero part the ground field, and are all
    units constant within the box.  The verdict fails when either is
    refuted, and is inconclusive when the units are not decided.

    A unit of nonzero degree requires both the degree and its negative to
    carry sections whose product is a nonzero constant; when the degree-zero
    component is one dimensional, products of basis pairs decide this
    exactly.  Dimensions are read first, so a component is built only when
    both it and its negative are nonzero.
    """
    pic = A.pic
    a0 = A.component_dim((0,) * pic.ambient_rank) == 1
    nonzero = [tuple(int(x) for x in c) for c in box
               if not pic.contains_zero(c)]
    witness = None
    for c in nonzero:
        minus = tuple(-x for x in c)
        if not (A.component_dim(c) and A.component_dim(minus)):
            continue
        for a, b in itertools.product(A.pic_component(c).basis,
                                      A.pic_component(minus).basis):
            p = a * b
            if not p.is_zero() and p.is_constant():
                witness = (c, a)
                break
        if witness:
            break
    if witness is not None:
        units = "fail"
        note = "nonconstant unit found"
    elif not nonzero:
        units = "inconclusive"
        note = "no nonzero degrees inside the box"
    elif not a0:
        units = "inconclusive"
        note = "degree zero part exceeds the ground field; pair products " \
               "no longer decide invertibility"
    else:
        units = "pass"
        note = ""
    return Verdict(units if a0 else "fail", a0_is_field=a0,
                   units_are_constants=units, witness=witness, note=note)


# ---------------------------------------------------------------------------
# separatedness


def irrelevant_sections(A):
    """Homogeneous elements whose nonvanishing loci are separated affine
    opens covering the curve.

    With at least two special points: for each special point, remove all its
    copies and all but one copy of every other special point, over all
    choices of kept copies.  With a single special point the complement of
    its copies is one open, and the others remove one copy plus a fixed
    ordinary point so the removed set stays nonempty.  Each element is
    checked to lie in its component by its coordinate polynomial
    (_section_polynomial).
    """
    X = A.curve

    def element(*points):
        # the element vanishing on the given points, once each
        E = Divisor({q: 1 for q in points})
        c = A.lattice.picdata.class_of(E)
        rep = A.rep(c)
        s = is_principal(X, E - A.lattice.divisor_of(rep))
        if _section_polynomial(A, rep, s.num, s.den) is None:
            raise InternalInconsistency(
                "covering element escaped its component")
        return (c, s)

    def all_but(p, keep):
        return [q for i, q in enumerate(X.copies(p)) if i != keep]

    if len(X.special) == 1:
        (t, m), = X.special
        a = P1Point.finite(1 if t == P1Point.finite(0) else 0)
        return [element(*X.copies(t))] + [
            element(CurvePoint(a, 0), *all_but(t, keep)) for keep in range(m)]
    out = []
    for t, _ in X.special:
        others = [(p, m) for p, m in X.special if p != t]
        for kept in itertools.product(*[range(m) for _, m in others]):
            out.append(element(*X.copies(t), *(
                q for (p, _), keep in zip(others, kept)
                for q in all_but(p, keep))))
    return out


def sections_as_polynomials(A, P, elements):
    """Rewrite homogeneous elements as polynomials in the generators.

    Every element is a pair (class vector, section).  The generator
    monomials of the class all lie in one lattice degree L, since rep is
    linear, and are read there by _MonomialCoordinates.  The section is
    crossed from rep(class) into L by the witness of L - rep(class) when
    that is nonzero, an isomorphism of components, and read there by its
    coordinate polynomial (_section_polynomial).  The monomials span L
    whenever the presentation is complete there, so the section has an
    exact linear expression in them; the combination with free
    coefficients zeroed is taken, which keeps the rewriting deterministic.
    """
    coords = _MonomialCoordinates(A)
    for d, s in P.generators:
        coords.add(d, s)
    gen_degrees = [d for d, _ in P.generators]
    gen_lattice = [A.rep(d) for d in gen_degrees]
    out = []
    for c, s in elements:
        c = tuple(int(x) for x in c)
        rep = A.rep(c)
        q = _section_polynomial(A, rep, s.num, s.den)
        if q is None:
            raise NotASection("element lies outside its stated component")
        exps_list = [] if gen_degrees and not A.effective_nonzero(c) \
            and not A.pic.contains_zero(c) else _monomials(A, gen_degrees, c)
        L = _combination(exps_list[0], gen_lattice, A.lattice.rank) \
            if exps_list else rep
        if L != rep:
            w = A.family.witness_for(_vsub(L, rep))
            q = _section_polynomial(A, L, s.num * w.num, s.den * w.den)
            if q is None:
                raise InternalInconsistency(
                    "witness crossing left the component")
        dim = A.base.component_dim(L)
        cols = [coords.coordinates(exps, L, dim) for exps in exps_list]
        target = q.padded(dim)
        try:
            coeffs = _em.solve_in_span(cols, target)
        except _em.NotInSpan:
            raise GeneratorsIncomplete(c) from None
        terms = {exps: q for exps, q in zip(exps_list, coeffs) if q != 0}
        out.append(MultiPoly(len(gen_degrees), terms))
    return out


def _image_span(A, L1, L2):
    """The dimension of the component of L1 + L2 and the span of the
    products of sections of L1 and L2 in it.  Basis element k of a
    component has coordinate polynomial z^k, so by the product rule
    (_correction) the products are spanned by z^k C for k < d1 + d2 - 1,
    each checked to land by its degree."""
    m1, m2, m12 = (A.lattice.min_orders(L) for L in (L1, L2, _vadd(L1, L2)))
    d1, d2, dim = (max(0, sum(m) + 1) for m in (m1, m2, m12))
    C = _linear_product(_correction(A.curve, m12, m1, m2)[1])
    span = _Span(dim)
    for k in range(d1 + d2 - 1 if d1 and d2 else 0):
        span.add(_coordinates(UniPoly((0,) * k + C.coeffs), dim,
                              "product of sections escaped the component "
                              "of the sum"))
    return dim, span


def _reported(A, L, idx, si, sj, L2, q2):
    """The fields witness, basis element idx of the component of L, and
    shifted, its product with si and sj, of a not_separated verdict: built
    as functions and each read back exactly against its coordinate
    polynomial (z^idx, and q2 in L2)."""
    W, V, _ = A.base.polynomials(L)
    zk = UniPoly((0,) * idx + (1,))
    witness = RationalFunction(V * zk, W)
    shifted = witness * si * sj
    for f, M, q in ((witness, L, zk), (shifted, L2, q2)):
        if _section_polynomial(A, M, f.num, f.den) != q:
            raise InternalInconsistency(
                "reported section disagrees with its coordinate polynomial")
    return {"witness": witness, "shifted": shifted}


def separatedness_check(A, irrelevant, levels=2):
    """Surjectivity of the pairwise localization product maps, truncated.

    Per pair and truncation level n, products of sections from the two
    n-scaled components must span the component of the n-scaled sum.  A
    spanning failure alone can be a truncation artifact: the verdict
    not_separated additionally requires the uncovered section, multiplied by
    both localizing elements, to stay uncovered at level n + 1, and names
    the pair of element indices, the level, the uncovered section (witness)
    and that product (shifted).  Failures at the last level with no room for
    that confirmation leave the pair inconclusive.

    Every section is read by its coordinate polynomial (_image_span, and
    one _section_polynomial per element), so no section space is built and
    functions are multiplied only for the reported pair (_reported).
    """
    if levels < 1:
        return Verdict("inconclusive", reason="no truncation levels requested")
    elements = [(A.rep(c), s) for c, s in irrelevant]
    qs = [_section_polynomial(A, L, s.num, s.den) for L, s in elements]
    if None in qs:
        raise NotASection("element lies outside its stated component")
    unresolved = False
    for i, j in itertools.combinations(range(len(elements)), 2):
        (Li, si), (Lj, sj) = elements[i], elements[j]
        for n in range(1, levels + 1):
            L = _vscale(n, _vadd(Li, Lj))
            dim, span = _image_span(A, _vscale(n, Li), _vscale(n, Lj))
            if span.dim == dim:
                continue
            if n == levels:
                unresolved = True
                continue
            L2 = _vadd(L, _vadd(Li, Lj))
            dim2, span2 = _image_span(A, _vscale(n + 1, Li),
                                      _vscale(n + 1, Lj))
            lift = qs[i] * qs[j] * _linear_product(_correction(
                A.curve, *map(A.lattice.min_orders, (L2, L, Li, Lj)))[1])
            for idx in range(dim):
                if span.contains([int(t == idx) for t in range(dim)]):
                    continue
                q2 = UniPoly((0,) * idx + lift.coeffs)
                v2 = _coordinates(q2, dim2,
                                  "persistence product escaped its component")
                if not span2.contains(v2):
                    return Verdict("not_separated", pair=(i, j), level=n,
                                   **_reported(A, L, idx, si, sj, L2, q2))
    if unresolved:
        return Verdict("inconclusive", reason="spanning failure at the final "
                       "truncation level could not be confirmed at the next "
                       "one")
    return Verdict("separated", levels=levels)


# ---------------------------------------------------------------------------
# uniqueness under lattice choice, tensor products


def _representative_moves(A):
    """The move of the crosscheck's representatives on the full lattice A.

    One pair (position, relation) per special point p after the anchor: the
    ambient position of p's first copy and p's relation in
    PicardData.relations.  The full lattice's basis is the special copies,
    so a relation is also a lattice vector of class zero.  Class c is read
    at A.rep(c) plus c[position] times the relation, summed over the pairs.
    """
    X = A.curve
    return tuple((X.copy_position(CurvePoint(p, 0)), rel)
                 for (p, _), rel in zip(X.special[1:], A.pic.relations))


# classes uniqueness_crosscheck reads at once: enough that the fixed work
# of a chunk (one pass over the rows of T1 and T2) is small per class, few
# enough that a chunk's lists are small beside the box
CROSSCHECK_CHUNK = 1024


def _class_maps(A1, A2):
    """(T1, T2), the integer matrices of the crosscheck's class maps, as
    tuples of rows: T1 c is the copy vector of D1, the divisor of A1.rep(c),
    and T2 c that of D2, the divisor of the moved representative of c on
    the full lattice A2 (_representative_moves).  Column j is the ambient
    unit vector e_j sent through A.rep, the moves and copy_vector; each step
    is integer-linear, so the columns give the maps on every class
    (uniqueness_crosscheck)."""
    moves = _representative_moves(A2)
    cols1, cols2 = [], []
    for unit in _identity(A1.pic.ambient_rank):
        L2 = A2.rep(unit)
        for pos, rel in moves:
            if unit[pos]:
                L2 = _vadd(L2, rel)
        cols1.append(A1.lattice.copy_vector(A1.rep(unit)))
        cols2.append(A2.lattice.copy_vector(L2))
    return tuple(zip(*cols1)), tuple(zip(*cols2))


def _image_rows(T, coords, count):
    """T applied to a batch of count classes given by coords, one list per
    ambient coordinate holding that entry of every class: row i of the
    result lists (T c)_i over the batch."""
    rows = []
    for t_row in T:
        acc = None
        for t, x in zip(t_row, coords):
            if t:
                term = x if t == 1 else list(
                    map(operator.mul, itertools.repeat(t), x))
                acc = term if acc is None else list(
                    map(operator.add, acc, term))
        rows.append([0] * count if acc is None else acc)
    return rows


def _least(rows):
    """The entrywise minimum of one or more lists of equal length."""
    return rows[0] if len(rows) == 1 else list(map(min, *rows))


def _witness_orders(blocks1, blocks2):
    """Per-base orders e of the witness of D1 - D2 for each class of a
    batch, read from the copy rows of D1 and D2 cut into one list of rows
    per special base: e_b is the difference on the copies of base b.  None
    for a class where D1 - D2 is not principal: it differs between two
    copies of a base, or the orders do not add up to zero."""
    constant = itertools.repeat(True)
    e = []
    for x, y in zip(blocks1, blocks2):
        d = list(map(operator.sub, x[0], y[0]))
        for a, b in zip(x[1:], y[1:]):
            constant = list(map(operator.and_, constant, map(
                operator.eq, map(operator.sub, a, b), d)))
        e.append(d)
    return [w if same and not sum(w) else None
            for same, w in zip(constant, zip(*e))]


def _class_orders(T1, T2, blocks, classes):
    """(m1, m2, e) for each class of a list: the least coefficients per
    special base (blocks, the ambient positions of its copies) of D1 = T1 c
    and of D2 = T2 c (_class_maps), and the witness orders of D1 - D2 (None
    when it is not principal).  The classes are read together, one ambient
    row at a time."""
    coords = list(zip(*classes))
    rows1 = _image_rows(T1, coords, len(classes))
    rows2 = _image_rows(T2, coords, len(classes))
    b1 = [rows1[block] for block in blocks]
    b2 = [rows2[block] for block in blocks]
    return list(zip(zip(*map(_least, b1)), zip(*map(_least, b2)),
                    _witness_orders(b1, b2)))


def _chunks(items):
    """Consecutive lists of at most CROSSCHECK_CHUNK items."""
    it = iter(items)
    return iter(lambda: list(itertools.islice(it, CROSSCHECK_CHUNK)), [])


def uniqueness_crosscheck(X, box=None, radius=2, basis=None):
    """Agreement of the two lattice pipelines on one curve.

    Builds the class-graded algebra A1 from a kernel-free lattice and A2
    from the full lattice with its shifting family.  A class c is read in
    A1 at D1, the divisor of A1.rep(c), and in A2 at D2, the divisor of a
    representative moved along the class relations (_representative_moves),
    so that D1 - D2 is a nonzero principal divisor on most classes.  The
    check verifies equal dimension tables over the box and exhibits the
    degreewise isomorphism, multiplication by the witness w of D1 - D2;
    the witnesses multiply along sums of classes, which is the product
    compatibility of the isomorphism.

    All of it is decided on per-base integer orders (_class_orders); no
    section space, divisor or function is built per class.

    Class maps.  The copy vectors of D1 and D2 are integer-linear in c:
    PicardData.coords adds and subtracts entries of c, A.rep multiplies the
    coordinates by the fixed lifts of the lattice (and is the identity on
    the full lattice), each move adds c[position] times a fixed relation,
    and copy_vector multiplies by the lattice's columns M.  So they are
    T1 c and T2 c for two integer matrices whose column j is the image of
    the ambient unit vector e_j along that same path (_class_maps), built
    once per run.  The box is read in chunks of CROSSCHECK_CHUNK classes:
    T1 and T2 are applied one ambient row at a time to lists holding one
    coordinate of every class of the chunk, and the minima, differences
    and equalities per base run over such lists.  Beyond the box, memory
    holds one chunk and, per class with a witness, one dict entry pointing
    at a shared order vector.  The sums c1 + c2 of the product check are
    read through the maps the same way, never as the sum of two witnesses.

    Orders.  The component
    of a divisor D depends only on m_b, the least coefficient of D over the
    copies of each base b (min_orders): it is V q / W with W the product of
    (z - b)^m_b over the finite bases with m_b > 0, V that of (z - b)^-m_b
    over those with m_b < 0, and q any polynomial of degree at most
    Σ_b m_b, infinity included.  Its dimension is max(0, Σ_b m_b + 1).

    Witness.  A principal divisor has one order at all copies of a base,
    and these orders add up to zero; conversely such orders e_b are the
    divisor of w = ∏ (z - b)^e_b over the finite bases, whose order at
    infinity is -Σ e_b over the finite ones.  So D1 - D2 is principal
    exactly when its copy vector is constant, e_b, on the copies of every
    base and Σ e_b = 0 (_witness_orders).

    Landing.  For f = V1 q / W1 in the component of D1,
    f w = V2 q' / W2 with q' = q · V1 W2 w / (W1 V2).  At a finite base b
    the exponent of z - b in V1 W2 w / (W1 V2) is m2_b - m1_b + e_b.  When
    the component is nonzero, q = 1 lies in it, so q' is a polynomial for
    every q exactly when all these exponents are >= 0.  q = z^(Σ m1) then
    gives deg q' = Σ_b m1_b + Σ_finite (m2_b - m1_b + e_b), at most the
    bound Σ_b m2_b exactly when m2_inf >= m1_inf - e_inf.  So
    multiplication by w maps the component of D1 into that of D2 exactly
    when m2_b >= m1_b - e_b at every base, infinity included (at an
    ordinary base m1 = m2 = e = 0).  w is nonzero, so the map is injective,
    and with equal dimensions it is an isomorphism.

    Product.  The witnesses are monic, so w(c1) w(c2) = w(c1 + c2) exactly
    when e(c1) + e(c2) = e(c1 + c2).  This is checked for each pair of
    consecutive classes.

    One exact is_principal check per distinct witness order vector builds
    the witness and verifies its divisor, which ties the integers back to
    functions.
    """
    A1 = curve_algebra(X, "canonical", basis=basis)
    A2 = curve_algebra(X, "full")
    if box is None:
        box = lattice_box(A1.lattice, radius)
    else:
        box = [tuple(map(int, c)) for c in box]
        if any(map(A1.pic.ambient_rank.__ne__, map(len, box))):
            raise ValueError("class vector length differs from ambient rank")
    T1, T2 = _class_maps(A1, A2)
    blocks = A1.pic.blocks
    hilbert_equal = True
    iso_verified = True
    witness = {}
    orders = {}
    for chunk in _chunks(box):
        for c, (m1, m2, e) in zip(chunk,
                                  _class_orders(T1, T2, blocks, chunk)):
            dim = max(0, sum(m1) + 1)
            if dim != max(0, sum(m2) + 1):
                hilbert_equal = False
                continue
            if e is None:
                iso_verified = False
                continue
            witness[c] = orders.setdefault(e, e)
            if dim and any(y < x - k for x, y, k in zip(m1, m2, e)):
                iso_verified = False
    bases = [p for p, _ in X.special]
    for e in orders:
        try:
            is_principal(X, _lift_orders(X, dict(zip(bases, e))))
        except NotPrincipal:
            iso_verified = False
    product_ok = True
    items = witness.items()
    for chunk in _chunks(zip(items, itertools.islice(items, 1, None))):
        sums = [_vadd(c1, c2) for (c1, _), (c2, _) in chunk]
        for ((_, e1), (_, e2)), (_, _, e12) in zip(
                chunk, _class_orders(T1, T2, blocks, sums)):
            if e12 is None or _vadd(e1, e2) != e12:
                product_ok = False
    agreed = hilbert_equal and iso_verified and product_ok
    return Verdict("pass" if agreed else "fail", classes=len(box),
                   hilbert_equal=hilbert_equal, iso_verified=iso_verified,
                   witness_multiplicative=product_ok)


def tensor_presentation(P, Q):
    """Presentation of the product grading: disjoint generators, both
    relation sets, multiplicative certificate."""
    ap = P.grading.ambient_rank
    aq = Q.grading.ambient_rank
    rels = [tuple(col) + (0,) * aq for col in P.grading.relations]
    rels += [(0,) * ap + tuple(col) for col in Q.grading.relations]
    grading = FGAbelianGroup(ap + aq, rels)
    gens = [(tuple(d) + (0,) * aq, s) for d, s in P.generators]
    gens += [((0,) * ap + tuple(d), s) for d, s in Q.generators]
    kp = len(P.generators)
    kq = len(Q.generators)
    polys = []
    for r in P.relations:
        terms = {exps + (0,) * kq: c for exps, c in r.terms.items()}
        polys.append(MultiPoly(kp + kq, terms))
    for r in Q.relations:
        terms = {(0,) * kp + exps: c for exps, c in r.terms.items()}
        polys.append(MultiPoly(kp + kq, terms))
    certp = {row[0]: row for row in P.certificate}
    certq = {row[0]: row for row in Q.certificate}
    box = []
    cert = []
    for dp in P.box:
        rp = certp.get(dp)
        for dq in Q.box:
            rq = certq.get(dq)
            box.append(dp + dq)
            if rp and rq:
                m, d = rp[1] * rq[1], rp[2] * rq[2]
                cert.append((dp + dq, m, d, m - d, m - d))
    return Presentation(grading, gens, polys, box, Certificate.of(cert))
