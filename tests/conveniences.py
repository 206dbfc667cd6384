"""Conveniences that only tests call: a toric class count, the product of
two fans, equivalence of graded homomorphisms, a check of one class
representative against another, and univariate polynomial arithmetic on
Fraction coefficient tuples, the reference for exactmath.UniPoly.  No CLI
mode or library check uses them.
"""

from fractions import Fraction

from coxring import exactmath as em
from coxring.coxalg import Verdict, _vsub
from coxring.exactmath import count_monomials
from coxring.grading import FGAbelianGroup
from coxring.ratcurve import InternalInconsistency
from coxring.toric import Fan, class_group


class DegreeMismatch(Exception):
    """Two generator-image lists disagree on the underlying degrees."""


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
    shift = len(fan1.rays)
    cones = []
    for c1 in fan1.max_cones:
        for c2 in fan2.max_cones:
            cones.append(tuple(c1) + tuple(j + shift for j in c2))
    fan = Fan(r1 + r2, rays, cones)
    group, _ = class_group(fan)
    g1, _ = class_group(fan1)
    g2, _ = class_group(fan2)
    a1, a2 = g1.ambient_rank, g2.ambient_rank
    rels = [tuple(row) + (0,) * a2 for row in g1.relations]
    rels += [(0,) * a1 + tuple(row) for row in g2.relations]
    if not group.isomorphic(FGAbelianGroup(a1 + a2, rels)):
        raise InternalInconsistency(
            "product fan class group is not the direct sum")
    return fan


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
        if not q.is_constant():
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


def verify_representative(A, class_vec, L):
    """Check that the component of the class-graded algebra A at lattice
    degree L matches the one at the chosen representative through
    multiplication by the kernel witness; raises on any mismatch."""
    L = tuple(int(x) for x in L)
    vec = tuple(int(x) for x in class_vec)
    if not A.pic.same_class(A.lattice.copy_vector(L), vec):
        raise ValueError("alternative representative has the wrong class")
    rep = A.rep(vec)
    E = _vsub(L, rep)
    g = A.family.witness_for(E)
    src = A.base.component(rep)
    dst = A.base.component(L)
    if src.dim != dst.dim:
        raise InternalInconsistency("representatives disagree on rank")
    for f in src.basis:
        if dst.coordinates_of(f * g) is None:
            raise InternalInconsistency(
                "witness multiplication fails to identify components")
    return True


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
