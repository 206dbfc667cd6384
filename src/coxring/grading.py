"""Finitely generated abelian groups presented by integer relation matrices.

A group is the quotient of an ambient free group by the lattice spanned by
relation columns.  Every group carries a verified Smith normal form of its
relation matrix, which drives rank, torsion and canonical coordinates.
These groups grade fans and the quotients of the verification checks; a
curve's Picard group is free in closed form (ratcurve.PicardData).
"""

import itertools

from . import exactmath as em
from .exactmath import Immutable


# coefficient vectors a class box may list: (2r+1)^k for k generators at
# radius r are built before any repeated class is dropped, so a box is
# refused beyond this
MAX_BOX_VECTORS = 10 ** 6
# irrelevant elements verify may build on a curve: each solves a principal
# divisor, and 1280 (five points of multiplicity 4) take seconds
MAX_IRRELEVANT_ELEMENTS = 10 ** 3


class BoxTooLarge(Exception):
    """A class box would list more than MAX_BOX_VECTORS coefficient vectors,
    or verify build more than MAX_IRRELEVANT_ELEMENTS irrelevant elements."""


def within_limit(count, limit, what, power=None):
    """count, or BoxTooLarge when it exceeds limit; what has one %s for the
    count, which beyond 4300 digits (str() raises) is shown as power, a
    (base, exponent) pair, or else by its bit length."""
    if count <= limit:
        return count
    if count.bit_length() <= 1000:
        shown = str(count)
    elif power is not None:
        shown = "%d^%d" % power
    else:
        shown = "about 2^%d" % (count.bit_length() - 1)
    raise BoxTooLarge("%s, more than %d" % (what % shown, limit))


def box_vector_count(generators, radius):
    """The (2r+1)^k coefficient vectors a box of radius r over k generators
    lists before it drops repeated classes; raises BoxTooLarge beyond
    MAX_BOX_VECTORS."""
    return within_limit(
        (2 * radius + 1) ** generators, MAX_BOX_VECTORS,
        "a box of radius %d over %d generators lists %%s coefficient vectors"
        % (radius, generators), power=(2 * radius + 1, generators))


def box_coefficients(generators, radius):
    """The coefficient vectors c with every |c_k| at most radius, ordered
    by sum_k |c_k| and then by sign-flipped lexicographic comparison of c,
    so small positive combinations come first: an iterator over the layers
    of equal sum_k |c_k|, each in decreasing lexicographic order, so no
    product is materialised or sorted.  Raises BoxTooLarge, before any
    vector is made, when there would be more than MAX_BOX_VECTORS."""
    box_vector_count(generators, radius)

    def layer(k, total):
        # vectors of length k with sum |c_i| = total, lexicographically
        # decreasing; the tail must be able to take what the head leaves
        if k == 1:
            yield (total,)
            if total:
                yield (-total,)
            return
        for x in range(min(radius, total), -min(radius, total) - 1, -1):
            rest = total - abs(x)
            if rest <= radius * (k - 1):
                for tail in layer(k - 1, rest):
                    yield (x,) + tail

    if generators == 0:
        return iter([()])
    return itertools.chain.from_iterable(
        layer(generators, total) for total in range(generators * radius + 1))


def box_vectors(generators, radius, ambient_rank):
    """The combinations sum_k c_k * generators[k] with every |c_k| at most
    radius, as ambient vectors, in the order of box_coefficients.  Raises
    BoxTooLarge before listing more than MAX_BOX_VECTORS coefficient
    vectors."""
    coefficients = box_coefficients(len(generators), radius)
    columns = list(zip(*generators)) or [()] * ambient_rank
    return [tuple(em._dot(c, col) for col in columns) for c in coefficients]


def _matmul(A, B):
    """Product of integer matrices given as lists of rows."""
    cols = list(zip(*B))
    return [[sum(x * y for x, y in zip(row, col, strict=True)) for col in cols]
            for row in A]


def smith_normal_form(M):
    """Smith normal form with verified certificate.

    Returns (U, D, V) with U*M*V = D, U and V unimodular, and the diagonal of
    D a nonnegative divisibility chain.  All three properties are rechecked
    before returning: U and V are certified unimodular by integer inverses.
    """
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
    return U, D, V


class FGAbelianGroup(Immutable):
    """Quotient of Z^ambient_rank by the lattice spanned by relation columns."""

    __slots__ = ("ambient_rank", "relations", "cached_snf", "_free_rows",
                 "_torsion_rows", "_torsion_moduli")

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
        U, D, V = smith_normal_form(matrix)
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

    @property
    def rank(self):
        return len(self._free_rows)

    @property
    def invariant_factors(self):
        return self._torsion_moduli

    def is_trivial(self):
        return self.rank == 0 and not self._torsion_moduli

    def box(self, generators, radius):
        """The distinct classes of box_vectors(generators, radius), each at
        its first combination.  A class key is linear before the torsion
        part is reduced, so the key of sum_k c_k g_k is sum_k c_k key(g_k)
        with that part reduced mod its modulus."""
        # the columns of the generators and of their keys
        nfree = len(self._free_rows)
        columns = list(zip(*generators)) or [()] * self.ambient_rank
        key_columns = (list(zip(*(self.class_key(g) for g in generators)))
                       or [()] * (nfree + len(self._torsion_moduli)))
        out = []
        seen = set()
        for c in box_coefficients(len(generators), radius):
            key = [em._dot(c, col) for col in key_columns]
            for i, d in enumerate(self._torsion_moduli, nfree):
                key[i] %= d
            key = tuple(key)
            if key not in seen:
                seen.add(key)
                out.append(tuple(em._dot(c, col) for col in columns))
        return tuple(out)

    def contains_zero(self, vector):
        """Whether the ambient vector represents the zero class."""
        return not any(self.class_key(vector))

    def same_class(self, a, b):
        return self.contains_zero([x - y for x, y in zip(a, b)])

    def class_key(self, vector):
        """Canonical coordinates of a class: the free part, then the torsion
        part reduced into [0, d).  Two ambient vectors get equal keys
        exactly when they represent the same class."""
        vector = [int(x) for x in vector]
        if len(vector) != self.ambient_rank:
            raise ValueError("vector length differs from ambient rank")
        U = self.cached_snf[0]
        w = [sum(U[i][j] * vector[j] for j in range(self.ambient_rank))
             for i in range(self.ambient_rank)]
        return (tuple(w[i] for i in self._free_rows)
                + tuple(w[i] % d for i, d in zip(self._torsion_rows,
                                                 self._torsion_moduli)))

    def describe(self):
        return {"rank": self.rank,
                "invariant_factors": list(self.invariant_factors)}

    def isomorphic(self, other):
        return (self.rank == other.rank
                and self.invariant_factors == other.invariant_factors)

    def __repr__(self):
        return "FGAbelianGroup(rank=%d, torsion=%r)" % (
            self.rank, list(self.invariant_factors))
