"""Fans, divisor class groups, and polynomial homogeneous coordinate rings.

A fan is stored as primitive integer rays plus its maximal cones; faces are
never materialized because only the maximal cones enter the irrelevant
monomials.  The class group is the cokernel of the character lattice pairing
against the rays, each variable carries the class of its ray, and the
resulting ring is a free polynomial ring: components have the monomials of
the matching class as a basis, which makes Hilbert counts lattice-point
counts (exactmath.count_monomials).  Fans are validated by the separation
lemma, each cone and pair certified by an integer functional built from the
dual bases of full-dimensional simplicial cones, with Fourier-Motzkin only
where no such functional is found.
"""

from itertools import combinations
from math import gcd

from . import exactmath as _em
from .exactmath import (
    Immutable,
    MultiPoly,
    UnboundedEnumeration,
    count_monomials,
    positive_functional,
)
from .grading import FGAbelianGroup
from .coxalg import Certificate, Presentation
from .ratcurve import InternalInconsistency, is_json_int


class MalformedFan(Exception):
    """The fan data violates a structural invariant."""


class Fan(Immutable):
    """Rational fan: ambient lattice rank, primitive rays, maximal cones.

    _group holds the class group once class_group has built it, the one
    mutable state."""

    __slots__ = ("rank", "rays", "max_cones", "_group")

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
        duals = []
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
            dual = _dual_basis(cone_rays, rank)
            # the sum of a dual basis is positive on every ray
            certified = dual is not None and _separates(
                _vsum(dual, rank), (), cone_rays, ())
            if not certified and positive_functional(cone_rays) is None:
                raise MalformedFan("cone %d is not strongly convex" % k)
            # a strongly convex cone with independent rays has every ray
            # extremal; otherwise no functional positive on the other rays
            # and zero on u means that u lies in their cone
            if dual is None and len(_em._hnf_rows(cone_rays)) < len(idx):
                for j, u in zip(idx, cone_rays):
                    others = [v for v in cone_rays if v != u]
                    if positive_functional(others, [u]) is None:
                        raise MalformedFan(
                            "cone %d: ray %d lies in the cone of its other "
                            "rays" % (k, j))
            covered.update(idx)
            clean_cones.append(tuple(sorted(idx)))
            duals.append(None if dual is None else dict(zip(idx, dual)))
        # separation lemma: two cones meet in the cone of their common rays
        # exactly when a functional vanishes on those rays, is positive on
        # the other rays of one cone and negative on the other rays of the
        # other cone
        cone_sets = [set(cone) for cone in clean_cones]
        for a, b in combinations(range(len(clean_cones)), 2):
            common = cone_sets[a] & cone_sets[b]
            # a cone whose rays all belong to another cone lies in it
            for small, big in ((b, a), (a, b)):
                if common == cone_sets[small]:
                    raise MalformedFan(
                        "cone %d lies in cone %d, so it is not maximal"
                        % (small, big))
            only_a = [j for j in clean_cones[a] if j not in common]
            only_b = [j for j in clean_cones[b] if j not in common]
            zero = [clean_rays[j] for j in sorted(common)]
            positive = [clean_rays[j] for j in only_a]
            negative = [clean_rays[j] for j in only_b]
            # a's dual functionals summed over only_a vanish on the common
            # rays and are positive on only_a; b's summed over only_b and
            # negated vanish there and are negative on only_b.  Either
            # separates when it has the right sign on the other cone too.
            separated = any(
                dual is not None and _separates(
                    _vsum([dual[j] for j in rays_of], rank, sign),
                    zero, positive, negative)
                for dual, rays_of, sign in ((duals[a], only_a, 1),
                                            (duals[b], only_b, -1)))
            if not separated and positive_functional(
                    positive + [tuple(-x for x in r) for r in negative],
                    zero) is None:
                raise MalformedFan(
                    "cones %d and %d overlap beyond their common rays"
                    % (a, b))
        if covered != set(range(len(clean_rays))):
            missing = sorted(set(range(len(clean_rays))) - covered)
            raise MalformedFan(
                "rays %r belong to no maximal cone" % (missing,))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "rays", tuple(clean_rays))
        object.__setattr__(self, "max_cones", tuple(clean_cones))
        object.__setattr__(self, "_group", [])

    def __eq__(self, other):
        return (isinstance(other, Fan) and self.rank == other.rank
                and self.rays == other.rays
                and self.max_cones == other.max_cones)

    def __hash__(self):
        return hash((self.rank, self.rays, self.max_cones))

    def __repr__(self):
        return "Fan(rank=%d, %d rays, %d maximal cones)" % (
            self.rank, len(self.rays), len(self.max_cones))


def _dual_basis(rays, rank):
    """Integer functionals u_1, ..., u_n with u_i . r_j = 0 for i != j and
    u_i . r_i = d > 0, for n = rank rays r_j that span Q^rank: d R^-1 for
    the matrix R with the rays as columns, by fraction-free Gauss-Jordan
    elimination of (R | I), whose divisions are exact and whose last pivot
    is +-det R.  None for any other cone (one that is not simplicial or
    not full-dimensional)."""
    if len(rays) != rank:
        return None
    n = rank
    A = [[r[i] for r in rays] + [int(i == j) for j in range(n)]
         for i in range(n)]
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if A[i][k]), None)
        if p is None:
            return None
        A[k], A[p] = A[p], A[k]
        pivot = A[k][k]
        for i in range(n):
            if i != k:
                f = A[i][k]
                A[i] = [(pivot * x - f * y) // prev
                        for x, y in zip(A[i], A[k])]
        prev = pivot
    sign = 1 if prev > 0 else -1
    return [tuple(sign * x for x in row[n:]) for row in A]


def _vsum(vectors, rank, sign=1):
    """sign times the sum of the vectors, all of length rank."""
    return tuple(sign * sum(column) for column in zip(*vectors)) \
        if vectors else (0,) * rank


def _separates(y, zero, positive, negative):
    """Whether y . r is 0 for every r in zero, positive for every r in
    positive and negative for every r in negative, by integer dot
    products."""
    return (all(_em._dot(y, r) == 0 for r in zero)
            and all(_em._dot(y, r) > 0 for r in positive)
            and all(_em._dot(y, r) < 0 for r in negative))


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
    divisor x_rho is the image of the corresponding unit vector.  The group
    is built once per fan and kept on it, so a toric run, which asks through
    class_group, toric_cox_data and cox_presentation, takes one Smith form.
    """
    n = len(fan.rays)
    if not fan._group:
        relations = [tuple(ray[j] for ray in fan.rays)
                     for j in range(fan.rank)]
        group = FGAbelianGroup(n, relations)
        for row in relations:
            if not group.contains_zero(row):
                raise InternalInconsistency(
                    "character image fails to die in the class group")
        fan._group.append(group)
    degrees = [tuple(1 if t == i else 0 for t in range(n))
               for i in range(n)]
    return fan._group[0], degrees


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
        return [MultiPoly.monomial(exps)
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
        if _em._hnf_coords(rows, d) is None:
            kept.append(d)
    box = group.box(kept, radius)
    cert = []
    for D in box:
        try:
            m = count_monomials(degrees, D, relations=group.relations)
        except UnboundedEnumeration:
            continue
        cert.append((D, m, m, 0, 0))
    return Presentation(group, gens, (), box, Certificate.of(cert))


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
