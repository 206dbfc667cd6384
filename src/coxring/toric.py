"""Fans, divisor class groups, and polynomial homogeneous coordinate rings.

A fan is stored as primitive integer rays plus its maximal cones; faces are
never materialized because only the maximal cones enter the irrelevant
monomials.  The class group is the cokernel of the character lattice pairing
against the rays, each variable carries the class of its ray, and the
resulting ring is a free polynomial ring: components have the monomials of
the matching class as a basis, which makes Hilbert counts lattice-point
counts.  When the class group is free and the ray classes have nonnegative
coordinates over a basis of ray classes, every count of the box comes from
one coin-change pass over the box (_counts_in_one_pass); any other fan
counts each class by Fourier-Motzkin (exactmath.count_monomials).

Fans are validated cone by cone with integer functionals built from the
dual bases of full-dimensional simplicial cones, with Fourier-Motzkin only
where no such functional is found.  A complete simplicial fan is then
certified by its walls, each shared by exactly two cones on opposite
sides, and one point covered once (_certified_by_walls); any other fan is
checked pair by pair by the separation lemma (_check_pairs).
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
        if not _certified_by_walls(clean_rays, clean_cones, duals, rank):
            _check_pairs(clean_rays, clean_cones, duals, rank)
        if covered != set(range(len(clean_rays))):
            missing = sorted(set(range(len(clean_rays))) - covered)
            raise MalformedFan(
                "rays %r belong to no maximal cone" % (missing,))
        if not clean_cones:
            raise MalformedFan(
                "the fan has no maximal cone; a fan holds at least the zero "
                "cone, so the torus is max_cones [[]]")
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


def _certified_by_walls(rays, cones, duals, rank):
    """Whether the cones, all full-dimensional and simplicial with the dual
    bases duals (ray index -> u_i, u_i . r_j = 0 for j != i and
    u_i . r_i > 0), form a complete fan: every wall (a facet, keyed by its
    ray set) is a facet of exactly two cones, u_i . r_j < 0 for the rays
    r_i and r_j of the two cones off the wall, and the sum p of cone 0's
    rays has, for every other cone, a dual vector negative on it.  False
    when a cone has no dual basis or any condition fails; the cones may
    still form a fan, which _check_pairs then decides.

    Why this suffices (the fan form of the characterisation of
    triangulations by the pseudo-manifold property and one point covered
    once: De Loera, Rambau and Santos, Triangulations, 2010, section 4.5).
    u_i vanishes on the wall, so u_i . r_j < 0 puts the two cones on
    opposite sides of its hyperplane.  Let c(x) count the cones that
    contain x, for x on no facet.  Along a path that meets no face of
    codimension 2 and no point where facets of two hyperplanes meet, each
    cone with a crossing point on its boundary has it inside one facet,
    and the cones with that facet come in pairs, one on each side; so c
    does not change.  Such paths join any two points off the facets, so c
    is constant.  p is interior to cone 0 and outside every other closed
    cone, so c = 1: interiors are disjoint (no cone lies in another, none
    is listed twice) and the cones cover R^rank.  Now let y lie in the
    relative interior of a face G of a cone, and S be the cones holding
    every ray of G.  Modulo the span of G they are again full-dimensional
    simplicial cones with matched walls on opposite sides, so by the same
    count they cover R^rank / span G, and with it a neighbourhood of y; a
    cone that contains y meets the interior of a cone of S, so it is in
    S.  For two cones s and t, take y in the relative interior of their
    intersection and G the face of s with y in its relative interior: the
    intersection lies in G, being convex and in the boundary of s, and t
    holds the rays of G, so the intersection is the cone of their common
    rays, which is what _check_pairs certifies pair by pair.
    """
    if not cones or any(dual is None for dual in duals):
        return False
    walls = {}
    for k, cone in enumerate(cones):
        rays_of = frozenset(cone)
        for i in cone:
            walls.setdefault(rays_of - {i}, []).append((k, i))
    for sides in walls.values():
        if len(sides) != 2:
            return False
        # the other cone's u_j is a negative multiple of u_i when this
        # holds, so one side test decides the wall
        (a, i), (_, j) = sides
        if _em._dot(duals[a][i], rays[j]) >= 0:
            return False
    point = _vsum([rays[j] for j in cones[0]], rank)
    return all(any(_em._dot(u, point) < 0 for u in duals[k].values())
               for k in range(1, len(cones)))


def _check_pairs(rays, cones, duals, rank):
    """Raise MalformedFan unless every two cones meet in the cone of their
    common rays and neither lies in the other, one pair at a time.

    Separation lemma: two cones meet in the cone of their common rays
    exactly when a functional vanishes on those rays, is positive on the
    other rays of one cone and negative on the other rays of the other
    cone."""
    cone_sets = [set(cone) for cone in cones]
    for a, b in combinations(range(len(cones)), 2):
        common = cone_sets[a] & cone_sets[b]
        # a cone whose rays all belong to another cone lies in it
        for small, big in ((b, a), (a, b)):
            if common == cone_sets[small]:
                raise MalformedFan(
                    "cone %d lies in cone %d, so it is not maximal"
                    % (small, big))
        only_a = [j for j in cones[a] if j not in common]
        only_b = [j for j in cones[b] if j not in common]
        zero = [rays[j] for j in sorted(common)]
        positive = [rays[j] for j in only_a]
        negative = [rays[j] for j in only_b]
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
    box class, which is also the component dimension.  The box lists the
    combinations of a greedy subset of the ray degrees that generates
    their span, each class once (FGAbelianGroup.box, which refuses a box
    past the limit before anything is counted).  Its counts come from one
    coin-change pass when _counts_in_one_pass applies, and otherwise by one
    Fourier-Motzkin count per class.  Classes whose monomial count is infinite (a
    non-pointed degree monoid) are left out of the certificate rather than
    guessed at.
    """
    group, degrees = class_group(fan)
    gens = [(d, None) for d in degrees]
    # the Hermite basis of the kept degrees and the relations changes only
    # when a degree is kept
    kept = []
    rows = _em._hnf_rows(group.relations)
    for i, d in enumerate(degrees):
        if _em._hnf_coords(rows, d) is None:
            kept.append(i)
            rows = _em._hnf_rows([degrees[k] for k in kept]
                                 + list(group.relations))
    box = group.box([degrees[k] for k in kept], radius)
    count = _counts_in_one_pass(group, degrees, kept, radius)
    cert = []
    for D in box:
        if count is not None:
            m = count(D)
        else:
            try:
                m = count_monomials(degrees, D, relations=group.relations)
            except UnboundedEnumeration:
                continue
        cert.append((D, m, m, 0, 0))
    return Presentation(group, gens, (), box, Certificate.of(cert))


def _counts_in_one_pass(group, degrees, kept, radius):
    """The monomial count of each class of the box of cox_presentation, as
    a function of the class's vector in the box, or None unless the class
    group is free and nonzero and the kept classes (indices into degrees,
    the unit vectors) are a basis of it in which every ray class has
    nonnegative coordinates, not all zero.  The box has been listed, so
    its radius R passed the box limit and the grid below, of (R+1)^r
    cells, is no larger than the box.

    The coordinates a_rho of the ray classes over the kept classes come
    from the class keys alone: with no torsion a key is the class's
    coordinate vector in Z^r.  The kept classes generate the group, so
    they are a basis when no integer relation joins them; then the
    Hermite split of their keys has the unit rows with lifts L, and
    a_rho = key(rho) L.  Over that basis a class is a vector c in Z^r; a
    box vector D = sum_k c_k kept_k, a sum of unit vectors, has
    c_k = D[kept_k] with every |c_k| at most R.  Its count is
    N(c) = #{e in N^n : sum e_rho a_rho = c}.  All a_rho are >= 0, so
    N(c) = 0 unless c >= 0, and each partial sum of a solution lies in
    [0, c], inside the grid [0, R]^r; a_rho nonzero makes N finite.  So
    one coin-change pass over the grid gives every count: with N_j
    counting the solutions that use only the first j rays,
    N_j(c) = N_{j-1}(c) + N_j(c - a_j), where c - a_j >= 0, and in place
    over the cells in increasing order.  A coin with a coordinate beyond
    R fits in no cell and is skipped.
    """
    r = group.rank
    if group.invariant_factors or not r:
        return None
    keys = [group.class_key(d) for d in degrees]
    image, kernel = _em._hnf_split([keys[k] for k in kept])
    if kernel:
        return None
    # the kept classes generate the group, so with no relation among them
    # their keys are a basis of Z^r, whose Hermite rows are the unit rows
    columns = list(zip(*(lift for _, lift in image)))
    coins = [tuple(_em._dot(key, col) for col in columns) for key in keys]
    if any(not any(a) or min(a) < 0 for a in coins):
        return None
    side = radius + 1
    strides = [side ** k for k in range(r)]
    counts = [0] * side ** r
    counts[0] = 1
    for a in coins:
        if max(a) > radius:
            continue
        shift = _em._dot(a, strides)
        # the cells c >= a, in increasing order
        cells = [0]
        for k in reversed(range(r)):
            cells = [c + x * strides[k] for c in cells
                     for x in range(a[k], side)]
        for c in cells:
            counts[c] += counts[c - shift]

    def count(D):
        c = [D[k] for k in kept]
        return counts[_em._dot(c, strides)] if min(c) >= 0 else 0
    return count
