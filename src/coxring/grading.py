"""Finitely generated abelian groups presented by integer relation matrices.

A group is the quotient of an ambient free group by the lattice spanned by
relation columns.  Every group carries a verified Smith normal form of its
relation matrix, which drives rank, torsion, canonical coordinates,
homomorphism checks, quotients, and character extension.
"""

import itertools
from fractions import Fraction

import sympy

from . import exactmath as em
from .exactmath import Immutable


class Obstructed(Exception):
    """Character extension would need a root that does not exist over the
    rationals.  Carries the offending prime, its exponent, and the index of
    the root that was required; prime -1 marks a sign obstruction (even root
    of a negative value)."""

    def __init__(self, prime, exponent, divisor):
        self.prime = prime
        self.exponent = exponent
        self.divisor = divisor
        super().__init__(
            "no rational %d-th root: prime %d appears with exponent %d"
            % (divisor, prime, exponent))


# coefficient vectors a class box may list: (2r+1)^k for k generators at
# radius r are built before deduplication, so a box is refused beyond this
MAX_BOX_VECTORS = 10 ** 6


class BoxTooLarge(Exception):
    """A class box would list more than MAX_BOX_VECTORS coefficient vectors."""


def _matmul(A, B):
    """Product of integer matrices given as lists of rows."""
    cols = list(zip(*B))
    return [[sum(x * y for x, y in zip(row, col, strict=True)) for col in cols]
            for row in A]


def _certified_smith(M):
    """(U, D, V, U^-1): the Smith normal form of smith_normal_form together
    with the inverse of U, under the same certificate."""
    M = [[int(x) for x in row] for row in M]
    n = len(M)
    m = len(M[0]) if n else 0
    U, D, V, Uinv, Vinv = em._smith(M)
    if _matmul(_matmul(U, M), V) != D:
        raise AssertionError("smith normal form certificate failed")
    # integer matrices whose product is the identity have determinant +-1
    for name, X, Xinv, k in (("U", U, Uinv, n), ("V", V, Vinv, m)):
        if _matmul(X, Xinv) != [[int(i == j) for j in range(k)]
                                for i in range(k)]:
            raise AssertionError("%s is not unimodular" % name)
    diag = [D[i][i] for i in range(min(n, m))]
    if any(d < 0 for d in diag):
        raise AssertionError("negative diagonal entry")
    for i in range(len(diag) - 1):
        if diag[i] == 0:
            if diag[i + 1] != 0:
                raise AssertionError("zero before nonzero in the chain")
        elif diag[i + 1] % diag[i] != 0:
            raise AssertionError("divisibility chain violated")
    return U, D, V, Uinv


def smith_normal_form(M):
    """Smith normal form with verified certificate.

    Returns (U, D, V) with U*M*V = D, U and V unimodular, and the diagonal of
    D a nonnegative divisibility chain.  All three properties are rechecked
    before returning: U and V are certified unimodular by integer inverses.
    """
    return _certified_smith(M)[:3]


class FGAbelianGroup(Immutable):
    """Quotient of Z^ambient_rank by the lattice spanned by relation columns."""

    __slots__ = ("ambient_rank", "relations", "cached_snf", "_free_rows",
                 "_torsion_rows", "_torsion_moduli", "_hnf", "_uinv")

    def __init__(self, ambient_rank, relations=()):
        ambient_rank = int(ambient_rank)
        rels = [tuple(int(x) for x in col) for col in relations]
        for col in rels:
            if len(col) != ambient_rank:
                raise ValueError("relation length differs from ambient rank")
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "relations", tuple(rels))
        matrix = [[rels[j][i] for j in range(len(rels))]
                  for i in range(ambient_rank)]
        U, D, V, Uinv = _certified_smith(matrix)
        diag = [D[i][i] for i in range(min(ambient_rank, len(rels)))]
        free_rows, torsion_rows, moduli = [], [], []
        for i in range(ambient_rank):
            d = diag[i] if i < len(diag) else 0
            if d == 0:
                free_rows.append(i)
            elif d > 1:
                torsion_rows.append(i)
                moduli.append(d)
        object.__setattr__(self, "cached_snf", (U, D, V))
        object.__setattr__(self, "_free_rows", tuple(free_rows))
        object.__setattr__(self, "_torsion_rows", tuple(torsion_rows))
        object.__setattr__(self, "_torsion_moduli", tuple(moduli))
        object.__setattr__(self, "_hnf", tuple(em._hnf_rows(rels)))
        object.__setattr__(self, "_uinv", tuple(tuple(r) for r in Uinv))

    @staticmethod
    def free(rank):
        return FGAbelianGroup(rank)

    @property
    def rank(self):
        return len(self._free_rows)

    @property
    def invariant_factors(self):
        return self._torsion_moduli

    def is_free(self):
        return not self._torsion_moduli

    def is_trivial(self):
        return self.rank == 0 and not self._torsion_moduli

    def box(self, generators, radius):
        """The distinct classes sum_k c_k * generators[k] with every |c_k| at
        most radius, as ambient vectors, ordered by sum_k |c_k| and then by
        sign-flipped lexicographic comparison of c, so small positive
        combinations come first.  Raises BoxTooLarge before listing more than
        MAX_BOX_VECTORS coefficient vectors."""
        count = (2 * radius + 1) ** len(generators)
        if count > MAX_BOX_VECTORS:
            raise BoxTooLarge(
                "a box of radius %d over %d generators lists %d coefficient "
                "vectors, more than %d" % (radius, len(generators), count,
                                           MAX_BOX_VECTORS))
        coefficients = sorted(
            itertools.product(range(-radius, radius + 1),
                              repeat=len(generators)),
            key=lambda c: (sum(abs(x) for x in c), tuple(-x for x in c)))
        out = []
        seen = set()
        for c in coefficients:
            amb = tuple(sum(x * g[i] for x, g in zip(c, generators))
                        for i in range(self.ambient_rank))
            key = self.class_key(amb)
            if key not in seen:
                seen.add(key)
                out.append(amb)
        return tuple(out)

    def contains_zero(self, vector):
        """Whether the ambient vector represents the zero class."""
        vector = tuple(int(x) for x in vector)
        if len(vector) != self.ambient_rank:
            raise ValueError("vector length differs from ambient rank")
        if not any(vector):
            return True
        if not self.relations:
            return False
        return em._lattice_contains(self._hnf, vector)

    def same_class(self, a, b):
        return self.contains_zero([x - y for x, y in zip(a, b)])

    def coords(self, vector):
        """Canonical coordinates (free part, torsion part) of a class.

        Free coordinates are integers; torsion coordinates are reduced into
        [0, d).  Two ambient vectors get equal coordinates exactly when they
        represent the same class.
        """
        vector = [int(x) for x in vector]
        if len(vector) != self.ambient_rank:
            raise ValueError("vector length differs from ambient rank")
        U = self.cached_snf[0]
        w = [sum(U[i][j] * vector[j] for j in range(self.ambient_rank))
             for i in range(self.ambient_rank)]
        free = tuple(w[i] for i in self._free_rows)
        torsion = tuple(w[i] % d
                        for i, d in zip(self._torsion_rows,
                                        self._torsion_moduli))
        return free, torsion

    def class_key(self, vector):
        free, torsion = self.coords(vector)
        return free + torsion

    def canonical_representative(self, vector):
        """Deterministic ambient representative of the class of vector.

        Linear in vector when the group is free (torsion needs reduction).
        """
        vector = [int(x) for x in vector]
        U = self.cached_snf[0]
        n = self.ambient_rank
        w = [sum(U[i][j] * vector[j] for j in range(n)) for i in range(n)]
        keep = [0] * n
        for i in self._free_rows:
            keep[i] = w[i]
        for i, d in zip(self._torsion_rows, self._torsion_moduli):
            keep[i] = w[i] % d
        return tuple(sum(self._uinv[i][j] * keep[j] for j in range(n))
                     for i in range(n))

    def describe(self):
        return {"rank": self.rank,
                "invariant_factors": list(self.invariant_factors)}

    def isomorphic(self, other):
        return (self.rank == other.rank
                and self.invariant_factors == other.invariant_factors)

    def __repr__(self):
        return "FGAbelianGroup(rank=%d, torsion=%r)" % (
            self.rank, list(self.invariant_factors))


class GroupHom(Immutable):
    """Homomorphism between presented groups, given on ambient coordinates.

    Well-definedness (relation lattice of the source maps into the relation
    lattice of the target) is checked at construction.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        matrix = tuple(tuple(int(x) for x in row) for row in matrix)
        if len(matrix) != target.ambient_rank:
            raise ValueError("matrix rows must equal target ambient rank")
        for row in matrix:
            if len(row) != source.ambient_rank:
                raise ValueError("matrix cols must equal source ambient rank")
        for col in source.relations:
            image = [sum(matrix[i][j] * col[j]
                         for j in range(source.ambient_rank))
                     for i in range(target.ambient_rank)]
            if not target.contains_zero(image):
                raise ValueError("homomorphism not well defined on relations")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)

    def apply(self, vector):
        vector = [int(x) for x in vector]
        return tuple(sum(self.matrix[i][j] * vector[j]
                         for j in range(self.source.ambient_rank))
                     for i in range(self.target.ambient_rank))

    def is_surjective(self):
        """Certified surjectivity: image columns plus target relations span a
        sublattice with trivial cokernel inside the target ambient."""
        cols = [tuple(self.matrix[i][j] for i in range(self.target.ambient_rank))
                for j in range(self.source.ambient_rank)]
        cols += list(self.target.relations)
        quotient = FGAbelianGroup(self.target.ambient_rank, cols)
        return quotient.is_trivial()

    def kernel_lattice(self):
        """HNF row basis of {v in ambient source : f(v) = 0 in target}."""
        n = self.target.ambient_rank
        m = self.source.ambient_rank
        rels = list(self.target.relations)
        A = [[self.matrix[i][j] for j in range(m)]
             + [rels[k][i] for k in range(len(rels))]
             for i in range(n)]
        _, kernel = em._integer_solve(A, [0] * n)
        if kernel is None:
            kernel = []
        return em._hnf_rows([k[:m] for k in kernel])

    def __repr__(self):
        return "GroupHom(%r -> %r)" % (self.source, self.target)


def cokernel(f):
    """Quotient of the target by the image of f, with projection.

    Returns (group, projection); the projection is the identity on ambient
    coordinates, with the image columns added to the relation lattice.
    """
    n = f.target.ambient_rank
    cols = list(f.target.relations)
    for j in range(f.source.ambient_rank):
        cols.append(tuple(f.matrix[i][j] for i in range(n)))
    quo = FGAbelianGroup(n, cols)
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    proj = GroupHom(f.target, quo, ident)
    return quo, proj


def lift_onto_free(G):
    """Free group of minimal rank with a certified surjection onto G.

    The generators are the canonical coordinate generators coming from the
    Smith normal form: one per free coordinate and one per torsion factor.
    """
    n = G.ambient_rank
    Uinv = G._uinv
    gen_rows = list(G._free_rows) + list(G._torsion_rows)
    rank = len(gen_rows)
    free = FGAbelianGroup.free(rank)
    matrix = [[Uinv[i][r] for r in gen_rows] for i in range(n)]
    onto = GroupHom(free, G, matrix)
    if not onto.is_surjective():
        raise AssertionError("lift_onto_free failed to certify surjectivity")
    return free, onto


class Character(Immutable):
    """Multiplicative map from a free group to nonzero rationals, given by
    its values on the standard basis of the ambient (= the group, which must
    be free with no relations)."""

    __slots__ = ("domain", "values")

    def __init__(self, domain, values):
        if domain.relations:
            raise ValueError("character domain must be presented freely")
        values = tuple(Fraction(v) for v in values)
        if len(values) != domain.ambient_rank:
            raise ValueError("need one value per basis element")
        if any(v == 0 for v in values):
            raise ValueError("character values must be nonzero")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "values", values)

    def __call__(self, vector):
        vector = [int(x) for x in vector]
        out = Fraction(1)
        for v, e in zip(self.values, vector):
            out *= v ** e
        return out

    def __eq__(self, other):
        return (isinstance(other, Character)
                and self.values == other.values
                and self.domain.ambient_rank == other.domain.ambient_rank)

    def __repr__(self):
        return "Character(%r)" % (list(self.values),)


def _rational_root(value, k):
    """The positive rational k-th root of value, or an Obstructed error.

    For even k the positive root is returned; for odd k the sign follows the
    value.  Factorization is exact via sympy.
    """
    value = Fraction(value)
    if value == 0:
        raise ValueError("root of zero")
    if value < 0 and k % 2 == 0:
        raise Obstructed(-1, 1, k)
    sign = -1 if value < 0 else 1
    mag = abs(value)
    num_f = sympy.factorint(mag.numerator)
    den_f = sympy.factorint(mag.denominator)
    root = Fraction(1)
    for factors, inv in ((num_f, False), (den_f, True)):
        for p, e in factors.items():
            if e % k != 0:
                raise Obstructed(int(p), int(e), k)
            piece = Fraction(int(p)) ** (e // k)
            root *= (Fraction(1) / piece) if inv else piece
    return sign * root


def extend_character(c, embedding):
    """Extend a character along an injective map of free groups.

    embedding: GroupHom from c.domain into a free group.  Returns a Character
    on the big group restricting to c, or raises Obstructed with the prime
    whose exponent is not divisible by the required index.  The extension is
    computed through the Smith normal form of the embedding matrix, taking
    positive roots deterministically.
    """
    big = embedding.target
    if big.relations or c.domain.relations:
        raise ValueError("extension requires free groups")
    n = big.ambient_rank
    m = c.domain.ambient_rank
    M = [list(row) for row in embedding.matrix]
    U, D, V = smith_normal_form(M)
    # change basis on the source: the embedding sends the j-th transformed
    # source generator to d_j times the j-th transformed target generator
    diag = [D[i][i] for i in range(min(n, m))]
    if any(d == 0 for d in diag) or m > n:
        raise ValueError("embedding is not injective")
    cV = [c(tuple(V[i][j] for i in range(m))) for j in range(m)]
    # values on transformed target generators: d_j-th roots where needed
    new_vals = []
    for j in range(n):
        if j < m:
            d = diag[j]
            new_vals.append(cV[j] if d == 1 else _rational_root(cV[j], d))
        else:
            new_vals.append(Fraction(1))
    # value on the standard basis vector e_i of the target, read off from its
    # transformed coordinates: e_i = sum_j U[j][i] * t_j
    out = []
    for i in range(n):
        acc = Fraction(1)
        for j in range(n):
            acc *= new_vals[j] ** U[j][i]
        out.append(acc)
    result = Character(big, out)
    # certify the restriction agrees with c on the source basis
    for j in range(m):
        src = tuple(1 if i == j else 0 for i in range(m))
        if result(embedding.apply(src)) != c(src):
            raise AssertionError("character extension failed to restrict")
    return result
