"""Conveniences that only tests call.  No CLI mode or library check uses
them; the tests use them as fixtures and as oracles:

- the paper's shifting family of kernel witnesses (ShiftingFamily,
  build_shifting_family, shifting_family), the oracle of the closed-form
  witness by which sections_as_polynomials crosses between lattice degrees
  of one class, and the quotient of the section algebra by its ideal
  (shift, ideal_membership), an independent check of the per-base orders
  by which `crosscheck` identifies components, and rescaled families;
- the product of two presentations (tensor_presentation) and of two fans
  (product_fan), a toric class count (hilbert_toric) and the isomorphism
  of two presented groups (isomorphic);
- the Picard group with its class map (picard_group), the JSON of a curve
  and of a fan (curve_to_json, fan_to_json) and the example fans
  (line_fan, plane_fan, hirzebruch_fan, affine_line_fan, quadric_cone_fan,
  point_fan);
- equivalence of graded homomorphisms and a check of one class
  representative against another;
- whether a rational function is constant (is_constant), and pointedness
  by a search of basis products for a unit (pointed_by_search), the oracle
  of coxalg.is_pointed;
- univariate polynomial arithmetic on Fraction coefficient tuples, the
  reference for exactmath.UniPoly, and the value of a MultiPoly by Fraction
  powers term by term, the reference for MultiPoly.eval;
- the products of linear polynomials (z - b)^c over Q
  (fraction_order_polynomials), the oracle of ratcurve.order_polynomials,
  which multiplies them out on integers.
"""

import itertools
from fractions import Fraction

from coxring import exactmath as em
from coxring.coxalg import (
    BoxTooSmall,
    Certificate,
    GradedSectionAlgebra,
    NotASection,
    Presentation,
    Verdict,
    _vadd,
    _vsub,
)
from coxring.exactmath import (Immutable, MultiPoly, RationalFunction,
                               UniPoly, count_monomials)
from coxring.grading import FGAbelianGroup
from coxring.ratcurve import (InternalInconsistency, NotPrincipal,
                              PicardData, divisor_on, is_principal)
from coxring.toric import Fan, class_group


# ---------------------------------------------------------------------------
# shifting families and the quotient by their ideal


class NotInKernel(Exception):
    """The requested shift degree is not in the kernel of the class map."""


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
        coords = em._hnf_coords(self.kernel, E)
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


def shifting_family(A):
    """The shifting family of the class-graded algebra A, over its lattice
    and its section algebra."""
    return build_shifting_family(A.lattice, A.base)


def rescaled(family, scalars):
    """Same kernel with each witness multiplied by a nonzero constant."""
    scalars = [Fraction(s) for s in scalars]
    if any(s == 0 for s in scalars):
        raise ValueError("witness scalars must be nonzero")
    new = [w * s for w, s in zip(family.witnesses, scalars)]
    return ShiftingFamily(family.lattice, family.kernel, new, family.algebra)


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
# groups, presentations, curves and fans


def isomorphic(group, other):
    """Whether two presented groups have equal rank and invariant factors."""
    return (group.rank == other.rank
            and group.invariant_factors == other.invariant_factors)


def picard_group(X):
    """The Picard group with its class map.

    Returns (Pic, class_of) where Pic is the PicardData and class_of sends a
    divisor to its ambient class vector; class_of of any principal divisor
    is zero.
    """
    data = PicardData(X)
    return data, data.class_of


def curve_to_json(X):
    return {"special": [{"point": str(p), "multiplicity": m}
                        for p, m in X.special]}


def fan_to_json(fan):
    return {"rank": fan.rank,
            "rays": [list(r) for r in fan.rays],
            "max_cones": [list(c) for c in fan.max_cones]}


def line_fan():
    return Fan(1, [(1,), (-1,)], [[0], [1]])


def plane_fan():
    return Fan(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [0, 2]])


def hirzebruch_fan(k=1):
    return Fan(2, [(1, 0), (0, 1), (-1, k), (0, -1)],
               [[0, 1], [1, 2], [2, 3], [3, 0]])


def affine_line_fan():
    return Fan(1, [(1,)], [[0]])


def quadric_cone_fan():
    return Fan(2, [(1, 0), (1, 2)], [[0, 1]])


def point_fan():
    return Fan(0, [], [[]])


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


def hilbert_toric(fan, class_vec, bound=None):
    """Number of monomials of the given class in the ring of the fan."""
    group, degrees = class_group(fan)
    target = tuple(int(x) for x in class_vec)
    if len(target) != group.ambient_rank:
        raise ValueError("class vector length differs from the number of "
                         "rays")
    return count_monomials(degrees, target, bound=bound,
                           relations=group.relations)


def product_fan(fan1, fan2):
    """Fan of the product: rays side by side, cones pairwise unions."""
    r1, r2 = fan1.rank, fan2.rank
    rays = [ray + (0,) * r2 for ray in fan1.rays]
    rays += [(0,) * r1 + ray for ray in fan2.rays]
    offset = len(fan1.rays)
    cones = []
    for c1 in fan1.max_cones:
        for c2 in fan2.max_cones:
            cones.append(tuple(c1) + tuple(j + offset for j in c2))
    fan = Fan(r1 + r2, rays, cones)
    group, _ = class_group(fan)
    g1, _ = class_group(fan1)
    g2, _ = class_group(fan2)
    a1, a2 = g1.ambient_rank, g2.ambient_rank
    rels = [tuple(row) + (0,) * a2 for row in g1.relations]
    rels += [(0,) * a1 + tuple(row) for row in g2.relations]
    if not isomorphic(group, FGAbelianGroup(a1 + a2, rels)):
        raise InternalInconsistency(
            "product fan class group is not the direct sum")
    return fan


# ---------------------------------------------------------------------------
# graded homomorphisms and class representatives


class DegreeMismatch(Exception):
    """Two generator-image lists disagree on the underlying degrees."""


def graded_homs_equivalent(mu, nu, grading=None):
    """Whether two generator-image lists differ by a character.

    Per generator the ratio of images must be a nonzero constant; the
    constants must be compatible with every integer relation among the
    degrees, which is exactly the existence of a character on the degree
    subgroup producing them.
    """
    mu = [(tuple(int(x) for x in d), f) for d, f in mu]
    nu = [(tuple(int(x) for x in d), f) for d, f in nu]
    if len(mu) != len(nu):
        raise DegreeMismatch("image lists have different lengths")
    for (d1, _), (d2, _) in zip(mu, nu):
        if d1 != d2:
            raise DegreeMismatch("generator degrees differ")
    relations = grading.relations if grading is not None else ()
    ratios = []
    for (d, f), (_, g) in zip(mu, nu):
        if f.is_zero() or g.is_zero():
            raise ValueError("generator images must be nonzero")
        q = g / f
        if not is_constant(q):
            return Verdict("not_equivalent", reason="image ratio is not "
                           "constant in degree %r" % (d,))
        val = q.num.coeffs[0] / q.den.coeffs[0]
        ratios.append(val)
    degrees = [d for d, _ in mu]
    # HNF basis of the integer relations among the degrees in the grading
    for rel in em._hnf_split(degrees, relations)[1]:
        prod = Fraction(1)
        for a, c in zip(rel, ratios):
            if a:
                prod *= c ** a
        if prod != 1:
            return Verdict("not_equivalent", reason="ratios violate the "
                           "degree relation %r" % (list(rel),))
    return Verdict("equivalent", character=dict(zip(degrees, ratios)))


def verify_representative(A, class_vec, L, family):
    """Check that the component of the class-graded algebra A at lattice
    degree L matches the one at the chosen representative through
    multiplication by the kernel witness of the shifting family; raises on
    any mismatch."""
    L = tuple(int(x) for x in L)
    vec = tuple(int(x) for x in class_vec)
    if not A.pic.same_class(A.lattice.copy_vector(L), vec):
        raise ValueError("alternative representative has the wrong class")
    rep = A.rep(vec)
    E = _vsub(L, rep)
    g = family.witness_for(E)
    src = A.base.component(rep)
    dst = A.base.component(L)
    if src.dim != dst.dim:
        raise InternalInconsistency("representatives disagree on rank")
    for f in src.basis:
        if dst.coordinates_of(f * g) is None:
            raise InternalInconsistency(
                "witness multiplication fails to identify components")
    return True


def is_constant(f):
    """Whether the rational function f is a constant, zero included."""
    return f.den.degree == 0 and f.num.degree <= 0


def pointed_by_search(A, box):
    """coxalg.is_pointed as a search, its oracle: the same verdict and
    fields, decided by products of section bases instead of block minima.

    A unit of nonzero degree requires both the degree and its negative to
    carry sections whose product is a nonzero constant; when the degree-zero
    component is one dimensional, products of basis pairs decide this
    exactly.  Dimensions are read first, so a component is built only when
    both it and its negative are nonzero.  Works on any algebra with pic,
    component_dim and pic_component, not only on curves.
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
            if not p.is_zero() and is_constant(p):
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
# univariate polynomials as tuples of Fraction coefficients, ascending by
# exponent with no trailing zeros: every coefficient a Fraction throughout


def frac_poly(coeffs):
    """The coefficient tuple of the polynomial with the given coefficients."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def frac_add(a, b):
    n = max(len(a), len(b))
    return frac_poly((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                     for i in range(n))


def frac_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return frac_poly(out)


def frac_divmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [Fraction(0)] * max(0, len(rem) - len(b) + 1)
    d = len(b) - 1
    for i in range(len(rem) - 1, d - 1, -1):
        if rem[i]:
            c = rem[i] / b[-1]
            quo[i - d] = c
            for j, bc in enumerate(b):
                rem[i - d + j] -= c * bc
    return frac_poly(quo), frac_poly(rem)


def frac_pow(a, n):
    result = (Fraction(1),)
    for _ in range(n):
        result = frac_mul(result, a)
    return result


def frac_monic(a):
    return tuple(c / a[-1] for c in a) if a else a


def frac_gcd(a, b):
    while b:
        a, b = b, frac_divmod(a, b)[1]
    return frac_monic(a)


def frac_eval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def frac_str(a):
    """The printed form of UniPoly: terms by descending exponent."""
    if not a:
        return "0"
    parts = []
    for e in range(len(a) - 1, -1, -1):
        c = a[e]
        if c == 0:
            continue
        if e == 0:
            body = str(abs(c))
        else:
            v = "z" if e == 1 else "z^%d" % e
            body = v if abs(c) == 1 else "%s*%s" % (abs(c), v)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def frac_multi_eval(poly, point):
    """The value of the MultiPoly poly at point, term by term in Fractions."""
    if len(point) != poly.nvars:
        raise ValueError("need one value per variable")
    acc = Fraction(0)
    for exps, c in poly.terms.items():
        for v, e in zip(point, exps):
            if e:
                c *= v ** e
        acc += c
    return acc


# ---------------------------------------------------------------------------
# products of linear polynomials over Q


def fraction_order_polynomials(orders):
    """(W, V) for a map base point -> order: W is the product of (z - b)^c
    over the finite bases b of order c > 0, V that of (z - b)^-c over those
    of order c < 0, each a power of the linear polynomial with Fraction
    coefficients."""
    polys = [UniPoly.one(), UniPoly.one()]
    for base, c in orders.items():
        if c and not base.is_infinity():
            linear = UniPoly([-base.value, Fraction(1)])
            polys[c < 0] = polys[c < 0] * linear ** abs(c)
    return tuple(polys)
