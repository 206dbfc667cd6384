"""Fans, divisor class groups, and polynomial homogeneous coordinate rings.

A fan is stored as primitive integer rays plus its maximal cones; faces are
never materialized because only the maximal cones enter the irrelevant
monomials.  The class group is the cokernel of the character lattice pairing
against the rays, each variable carries the class of its ray, and the
resulting ring is a free polynomial ring: components have the monomials of
the matching class as a basis, which makes Hilbert counts pure enumeration.
"""

from math import gcd

from . import exactmath as _em
from .exactmath import (
    Immutable,
    MultiPoly,
    UnboundedEnumeration,
    enumerate_monomials,
    positive_functional,
)
from .grading import FGAbelianGroup
from .coxalg import Presentation
from .ratcurve import InternalInconsistency, is_json_int


class MalformedFan(Exception):
    """The fan data violates a structural invariant."""


class Fan(Immutable):
    """Rational fan: ambient lattice rank, primitive rays, maximal cones."""

    __slots__ = ("rank", "rays", "max_cones")

    def __init__(self, rank, rays, max_cones):
        rank = int(rank)
        if rank < 0:
            raise MalformedFan("lattice rank must be nonnegative")
        clean_rays = []
        for i, ray in enumerate(rays):
            ray = tuple(int(x) for x in ray)
            if len(ray) != rank:
                raise MalformedFan(
                    "ray %d has %d coordinates, expected %d"
                    % (i, len(ray), rank))
            g = 0
            for x in ray:
                g = gcd(g, abs(x))
            if g == 0:
                raise MalformedFan("ray %d is the zero vector" % i)
            if g != 1:
                raise MalformedFan(
                    "ray %d is not primitive (coordinate gcd %d)" % (i, g))
            clean_rays.append(ray)
        if len(set(clean_rays)) != len(clean_rays):
            raise MalformedFan("rays must be pairwise distinct")
        clean_cones = []
        covered = set()
        for k, cone in enumerate(max_cones):
            idx = [int(j) for j in cone]
            if len(set(idx)) != len(idx):
                raise MalformedFan("cone %d repeats a ray index" % k)
            for j in idx:
                if not 0 <= j < len(clean_rays):
                    raise MalformedFan(
                        "cone %d uses ray index %d, out of range" % (k, j))
            cone_rays = [clean_rays[j] for j in idx]
            if positive_functional(cone_rays) is None:
                raise MalformedFan("cone %d is not strongly convex" % k)
            # a strongly convex cone with independent rays has every ray
            # extremal; otherwise no functional positive on the other rays
            # and zero on u means that u lies in their cone
            if len(_em._hnf_rows(cone_rays)) < len(idx):
                for j, u in zip(idx, cone_rays):
                    others = [v for v in cone_rays if v != u]
                    if positive_functional(others, [u]) is None:
                        raise MalformedFan(
                            "cone %d: ray %d lies in the cone of its other "
                            "rays" % (k, j))
            covered.update(idx)
            clean_cones.append(tuple(sorted(idx)))
        if covered != set(range(len(clean_rays))):
            missing = sorted(set(range(len(clean_rays))) - covered)
            raise MalformedFan(
                "rays %r belong to no maximal cone" % (missing,))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "rays", tuple(clean_rays))
        object.__setattr__(self, "max_cones", tuple(clean_cones))

    def __eq__(self, other):
        return (isinstance(other, Fan) and self.rank == other.rank
                and self.rays == other.rays
                and self.max_cones == other.max_cones)

    def __hash__(self):
        return hash((self.rank, self.rays, self.max_cones))

    def __repr__(self):
        return "Fan(rank=%d, %d rays, %d maximal cones)" % (
            self.rank, len(self.rays), len(self.max_cones))


def fan_from_json(data):
    if not isinstance(data, dict):
        raise MalformedFan("fan data must be an object")
    for field in ("rank", "rays", "max_cones"):
        if field not in data:
            raise MalformedFan("missing field %r" % field)
    extra = set(data) - {"rank", "rays", "max_cones"}
    if extra:
        raise MalformedFan("unknown fields %r" % (sorted(extra),))
    if not is_json_int(data["rank"]):
        raise MalformedFan("field 'rank' must be an integer")
    for field in ("rays", "max_cones"):
        if not isinstance(data[field], list) or any(
                not isinstance(row, list) for row in data[field]):
            raise MalformedFan("field %r must be a list of lists" % field)
        for row in data[field]:
            for x in row:
                if not is_json_int(x):
                    raise MalformedFan(
                        "field %r must contain integers" % field)
    return Fan(data["rank"], data["rays"], data["max_cones"])


def fan_to_json(fan):
    return {"rank": fan.rank,
            "rays": [list(r) for r in fan.rays],
            "max_cones": [list(c) for c in fan.max_cones]}


def class_group(fan):
    """Class group of the fan and the class of each ray's divisor.

    The group is the quotient of the free group on the rays by the image of
    the character lattice under pairing with the rays; the class of the ray
    divisor x_rho is the image of the corresponding unit vector.
    """
    n = len(fan.rays)
    relations = [tuple(ray[j] for ray in fan.rays) for j in range(fan.rank)]
    group = FGAbelianGroup(n, relations)
    for row in relations:
        if not group.contains_zero(row):
            raise InternalInconsistency(
                "character image fails to die in the class group")
    degrees = [tuple(1 if t == i else 0 for t in range(n))
               for i in range(n)]
    return group, degrees


class ToricCoxData(Immutable):
    """Class group, ray degrees, and irrelevant monomials of a fan."""

    __slots__ = ("fan", "class_group", "degree_of_ray",
                 "irrelevant_monomials")

    def __init__(self, fan):
        group, degrees = class_group(fan)
        n = len(fan.rays)
        monomials = []
        for cone in fan.max_cones:
            inside = set(cone)
            monomials.append(tuple(0 if i in inside else 1
                                   for i in range(n)))
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "class_group", group)
        object.__setattr__(self, "degree_of_ray", tuple(degrees))
        object.__setattr__(self, "irrelevant_monomials", tuple(monomials))

    def irrelevant_polynomials(self):
        dmap = tuple(self.degree_of_ray)
        return [MultiPoly.monomial(exps, 1, dmap)
                for exps in self.irrelevant_monomials]

    def __repr__(self):
        return "ToricCoxData(%r)" % (self.fan,)


def toric_cox_data(fan):
    return ToricCoxData(fan)


def cox_presentation(fan, radius=2):
    """Polynomial presentation: one variable per ray, graded by its class.

    There are never relations; the certificate counts the monomials of each
    box class, which is also the component dimension.  Classes whose
    monomial count is infinite (a non-pointed degree monoid) are left out of
    the certificate rather than guessed at.
    """
    data = ToricCoxData(fan)
    group = data.class_group
    degrees = list(data.degree_of_ray)
    gens = [(d, None) for d in degrees]
    # box over a greedy subset of the ray degrees that generates their span
    kept = []
    for d in degrees:
        rows = _em._hnf_rows([list(v) for v in kept + list(group.relations)])
        if not _em._lattice_contains(rows, list(d)):
            kept.append(d)
    box = group.box(kept, radius)
    cert = []
    for D in box:
        try:
            m = len(enumerate_monomials(degrees, D,
                                        relations=group.relations))
        except UnboundedEnumeration:
            continue
        cert.append({"degree": list(D), "monomials": m, "dim": m,
                     "kernel": 0, "ideal_span": 0})
    return Presentation(group, gens, (), box, cert)


def hilbert_toric(fan, class_vec, bound=None):
    """Number of monomials of the given class in the ring of the fan."""
    group, degrees = class_group(fan)
    target = tuple(int(x) for x in class_vec)
    if len(target) != group.ambient_rank:
        raise ValueError("class vector length differs from the number of "
                         "rays")
    return len(enumerate_monomials(degrees, target, bound=bound,
                                   relations=group.relations))


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
