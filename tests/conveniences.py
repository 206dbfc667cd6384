"""Conveniences that only tests call: a toric class count, the product of
two fans, equivalence of graded homomorphisms and a check of one class
representative against another.  No CLI mode or library check uses them.
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
