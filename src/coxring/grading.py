"""Finitely generated abelian groups presented by integer relation matrices.

A group is the quotient of an ambient free group by the lattice spanned by
relation columns.  Every group carries a verified Smith normal form of its
relation matrix, which drives rank, torsion and canonical coordinates.
These groups grade fans and the quotients of the verification checks; a
curve's Picard group is free in closed form (ratcurve.PicardData).
"""

import operator

from . import exactmath as em
from .exactmath import Immutable


# coefficient vectors a class box may list: (2r+1)^k for k generators at
# radius r are built before any repeated class is dropped, so a box is
# refused beyond this
MAX_BOX_VECTORS = 10 ** 6
# squared component dimensions a curve search may read, summed over the
# classes of its box (coxalg._search): the plain line passes it after box
# 529 (box 500 takes 15 s and 241 MiB; box 1500 held 3 GiB after 4 minutes)
MAX_CERTIFICATE_WORK = 5 * 10 ** 7
# copies of special points a curve may have: a lattice holds one dense
# column of that length per copy, so memory grows with its square (4000
# copies at box 0 take about 26 s and 1.2 GiB)
MAX_CURVE_COPIES = 4000
# irrelevant elements verify may build on a curve: each solves a principal
# divisor, and 1280 (five points of multiplicity 4) take seconds
MAX_IRRELEVANT_ELEMENTS = 10 ** 3


class BoxTooLarge(Exception):
    """A class box would list more than MAX_BOX_VECTORS coefficient vectors,
    a curve search read more than MAX_CERTIFICATE_WORK squared component
    dimensions, a curve have more than MAX_CURVE_COPIES copies of special
    points, or verify build more than MAX_IRRELEVANT_ELEMENTS irrelevant
    elements."""


def within_limit(count, limit, what, power=None):
    """count, or BoxTooLarge when it exceeds limit; what has one %s for the
    count, which beyond 1000 bits (str() raises beyond 4300 digits) is shown
    as power, a (base, exponent) pair, or else by its bit length.  A count
    of None stands for a power known to exceed 1000 bits, never built."""
    if count is None:
        shown = "%d^%d" % power
    elif count <= limit:
        return count
    elif count.bit_length() <= 1000:
        shown = str(count)
    elif power is not None:
        shown = "%d^%d" % power
    else:
        shown = "about 2^%d" % (count.bit_length() - 1)
    raise BoxTooLarge("%s, more than %d" % (what % shown, limit))


def box_vector_count(generators, radius):
    """The (2r+1)^k coefficient vectors a box of radius r over k generators
    lists before it drops repeated classes; raises BoxTooLarge beyond
    MAX_BOX_VECTORS.  The power is multiplied out only until it passes the
    limit; a refused one is built in full only when it has at most 2000
    bits, and beyond (2r+1)^k >= 2^1000 it is shown as a power."""
    base, count = 2 * radius + 1, 1
    for _ in range(generators if base > 1 else 0):
        count *= base
        if count > MAX_BOX_VECTORS:
            count = (None if generators * (base.bit_length() - 1) >= 1000
                     else base ** generators)
            break
    return within_limit(
        count, MAX_BOX_VECTORS,
        "a box of radius %d over %d generators lists %%s coefficient vectors"
        % (radius, generators), power=(base, generators))


def box_vectors(generators, radius, ambient_rank):
    """The combinations sum_k c_k * generators[k] with every |c_k| at most
    radius, as int tuples of length ambient_rank, ordered by sum_k |c_k|
    and then by sign-flipped lexicographic comparison of c, so small
    positive combinations come first.  Raises BoxTooLarge, before any
    vector is made, when there would be more than MAX_BOX_VECTORS.

    Each layer of equal sum_k |c_k| is walked depth first, one coefficient
    per level in decreasing order, with an explicit stack: a node carries
    the partial sum of the coefficients fixed so far, and a child adds one
    multiple of one generator to it.  A node whose coefficients left sum
    to zero is a vector at once; the last coefficient is forced to +-rest.
    """
    box_vector_count(len(generators), radius)
    last = len(generators) - 1
    multiples = [{x: tuple(x * int(g) for g in vec)
                  for x in range(-radius, radius + 1) if x}
                 for vec in generators]
    out = []
    zero = (0,) * ambient_rank
    for total in range(len(generators) * radius + 1):
        stack = [(0, total, zero)]
        while stack:
            depth, rest, partial = stack.pop()
            if not rest:
                out.append(partial)
                continue
            step = multiples[depth]
            if depth == last:
                out.append(tuple(map(operator.add, partial, step[rest])))
                out.append(tuple(map(operator.add, partial, step[-rest])))
                continue
            # |x| must leave the tail no more than it can hold
            low = max(0, rest - radius * (last - depth))
            high = min(radius, rest)
            for x in range(-high, high + 1):
                if abs(x) >= low:
                    stack.append((depth + 1, rest - abs(x),
                                  tuple(map(operator.add, partial, step[x]))
                                  if x else partial))
    return out


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

    def box(self, generators, radius):
        """The distinct classes of box_vectors(generators, radius), each at
        its first combination.  A class key is linear before the torsion
        part is reduced, so the key of sum_k c_k g_k is sum_k c_k key(g_k)
        with that part reduced mod its modulus."""
        n, nfree = self.ambient_rank, len(self._free_rows)
        rows = [tuple(int(x) for x in g) + self.class_key(g)
                for g in generators]
        width = n + nfree + len(self._torsion_moduli)
        out = []
        seen = set()
        for row in box_vectors(rows, radius, width):
            key = list(row[n:])
            for i, d in enumerate(self._torsion_moduli, nfree):
                key[i] %= d
            key = tuple(key)
            if key not in seen:
                seen.add(key)
                out.append(row[:n])
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

    def __repr__(self):
        return "FGAbelianGroup(rank=%d, torsion=%r)" % (
            self.rank, list(self.invariant_factors))
