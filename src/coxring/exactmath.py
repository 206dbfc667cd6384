"""Exact rational arithmetic substrate.

Provides arbitrary-precision rationals, univariate polynomials and rational
functions in one variable z, dense exact linear algebra over the rationals
and ranks over the integers mod a prime, multigraded multivariate
polynomials, and exact enumeration of monomials with a prescribed
multidegree.  No floating point anywhere: polynomial constructors refuse
floats.

A univariate polynomial is a tuple of integer numerators over one positive
common denominator, in lowest terms (UniPoly), so Q[z] is computed on ints:
one gcd per result instead of one per coefficient operation, and division
by pseudo-division (Knuth, TAOCP Vol. 2, 4.6.1).  Rational functions are
reduced through it.
"""

import functools
import math
import operator
from fractions import Fraction


class NotInSpan(Exception):
    """Target vector lies outside the span of the given vectors."""


class UnboundedEnumeration(Exception):
    """Monomial search cannot terminate: degree map not pointed, no bound."""


class Immutable:
    """Base of the value classes: attributes are written once, in __init__,
    with object.__setattr__, and can then be neither rebound nor deleted."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)


# ---------------------------------------------------------------------------
# univariate polynomials over Q


def _exact(c, what="polynomial coefficient"):
    """c, when it is an int or a Fraction: a polynomial coefficient (or
    what else it names).  Any other type raises TypeError, a float above
    all, whose binary value would silently stand in for the decimal one."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError("%s %r is neither an int nor a Fraction" % (what, c))
    return c


class UniPoly(Immutable):
    """Dense univariate polynomial in z with rational coefficients.

    Stored as integer numerators over one common denominator: the
    coefficient of z^i is nums[i] / den.  nums is a tuple of ints, ascending
    by exponent, with no trailing zeros, and den is an int > 0 with
    gcd(den, *nums) == 1, so each polynomial has exactly one form and zero
    is ((), 1).  Every operation is an integer loop with one gcd per result
    (_of); division is pseudo-division.  coeffs builds the coefficients as
    Fractions on demand.  Instances are immutable values.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs):
        cs = tuple(map(_exact, coeffs))
        den = math.lcm(*(c.denominator for c in cs))
        self._store([c.numerator * (den // c.denominator) for c in cs], den)

    def _store(self, nums, den):
        # the canonical form of nums / den, nums a list of ints, den != 0
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    @staticmethod
    def _of(nums, den=1):
        """The polynomial nums / den, for a list of ints and an int != 0."""
        p = object.__new__(UniPoly)
        p._store(nums, den)
        return p

    @staticmethod
    def const(c):
        return UniPoly([c])

    @staticmethod
    def zero():
        return UniPoly._of([])

    @staticmethod
    def one():
        return UniPoly._of([1])

    @staticmethod
    def z():
        return UniPoly._of([0, 1])

    @property
    def coeffs(self):
        """The coefficients as Fractions, ascending by exponent."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    def padded(self, dim):
        """The coefficients padded with zeros to length dim."""
        return self.coeffs + (Fraction(0),) * (dim - len(self.nums))

    @property
    def degree(self):
        # degree of the zero polynomial is -1 by convention
        return len(self.nums) - 1

    def is_zero(self):
        return not self.nums

    def leading(self):
        if not self.nums:
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def __eq__(self, other):
        return (isinstance(other, UniPoly) and self.nums == other.nums
                and self.den == other.den)

    def __hash__(self):
        return hash(("UniPoly", self.nums, self.den))

    def __add__(self, other):
        a, b, da, db = self.nums, other.nums, self.den, other.den
        if da != db:
            g = math.gcd(da, db)
            a = [c * (db // g) for c in a]
            b = [c * (da // g) for c in b]
            da = da // g * db
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly._of(out, da)

    def __neg__(self):
        return UniPoly._of([-c for c in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            k = other.numerator
            return UniPoly._of([c * k for c in self.nums],
                               self.den * other.denominator)
        a, b = self.nums, other.nums
        if not a or not b:
            return UniPoly.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    out[j] += ca * cb
        return UniPoly._of(out, self.den * other.den)

    __rmul__ = __mul__

    def __divmod__(self, other):
        """Pseudo-division on the numerators A of self and B of other.

        A step whose leading remainder numerator r the leading numerator
        lead of B does not divide first scales the remainder and the
        quotient so far by |lead| / gcd(lead, r).  With s the product of
        these scales, s A = Q B + R over the integers, so self is
        (Q other.den / (s den)) other + R / (s den)."""
        b = other.nums
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        d = len(b) - 1
        lead = b[-1]
        alead = abs(lead)
        rem = list(self.nums)
        quo = [0] * max(0, len(rem) - d)
        s = 1
        for i in range(len(rem) - 1, d - 1, -1):
            r = rem[i]
            if r:
                if alead != 1:
                    f = alead // math.gcd(alead, r)
                    if f != 1:
                        s *= f
                        r *= f
                        rem = [c * f for c in rem[:i + 1]]
                        quo = [c * f for c in quo]
                c = r // lead
                quo[i - d] = c
                for j in range(d):
                    rem[i - d + j] -= c * b[j]
        den = s * self.den
        return (UniPoly._of([c * other.den for c in quo], den),
                UniPoly._of(rem[:d], den))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = UniPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def monic(self):
        if not self.nums:
            return self
        return UniPoly._of(list(self.nums), self.nums[-1])

    def gcd(self, other):
        a, b = self, other
        while b.nums:
            a, b = b, a % b
        return a.monic()

    def eval(self, x):
        """The value at x = p/q by Horner on the numerators: the sum of
        nums[i] p^i q^(n-1-i) over den q^(n-1), n = len(nums)."""
        if not self.nums:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        acc, qk = 0, 1
        for c in reversed(self.nums):
            acc = acc * p + c * qk
            qk *= q
        return Fraction(acc, self.den * (qk // q))

    def __str__(self):
        if not self.nums:
            return "0"
        parts = []
        for e, c in reversed(tuple(enumerate(self.coeffs))):
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

    def __repr__(self):
        return "UniPoly(%s)" % (list(self.coeffs),)


# ---------------------------------------------------------------------------
# rational functions in z


class RationalFunction(Immutable):
    """Quotient of univariate polynomials, kept coprime with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = UniPoly.const(num)
        if den is None:
            den = UniPoly.one()
        elif isinstance(den, (int, Fraction)):
            den = UniPoly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = UniPoly.zero(), UniPoly.one()
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num // g, den // g
            # den is monic when its leading numerator is its denominator
            lead, n = den.nums[-1], den.den
            if lead != n:
                num = UniPoly._of([c * n for c in num.nums], num.den * lead)
                den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def _of(num, den):
        """num / den for coprime num and monic den, with no gcd."""
        f = object.__new__(RationalFunction)
        object.__setattr__(f, "num", num)
        object.__setattr__(f, "den", den)
        return f

    @staticmethod
    def zero():
        return RationalFunction(UniPoly.zero())

    @staticmethod
    def one():
        return RationalFunction(UniPoly.one())

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash(("RationalFunction", self.num.nums, self.num.den,
                     self.den.nums, self.den.den))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction(UniPoly([Fraction(other)]))
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFunction(self.num * other, self.den)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero function")
        return RationalFunction(self.den, self.num)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = RationalFunction.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __str__(self):
        if self.den == UniPoly.one():
            s = str(self.num)
            # parenthesize so fraction coefficients cannot be misread as a
            # quotient of polynomials
            return "(%s)" % s if "/" in s else s

        def wrap(p):
            s = str(p)
            return "(%s)" % s if (" " in s or "/" in s or "*" in s) else s

        return "%s/%s" % (wrap(self.num), wrap(self.den))

    def __repr__(self):
        return "RationalFunction(%r, %r)" % (self.num, self.den)


# ---------------------------------------------------------------------------
# multigraded multivariate polynomials


def grlex_key(exps):
    """Sort key putting larger monomials first under graded lexicographic order."""
    return (-sum(exps), tuple(-e for e in exps))


class MultiPoly(Immutable):
    """Polynomial in variables T1..Tr.

    terms maps exponent tuples to nonzero rational coefficients.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms):
        clean = {}
        for exps, c in terms.items():
            if len(exps) != nvars:
                raise ValueError("exponent tuple of wrong length")
            c = Fraction(_exact(c))
            if c != 0:
                clean[tuple(int(e) for e in exps)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def monomial(exps, coeff=1):
        exps = tuple(exps)
        return MultiPoly(len(exps), {exps: coeff})

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash(("MultiPoly", self.nvars, tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, Fraction(0)) + c
        return MultiPoly(self.nvars, out)

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MultiPoly(self.nvars,
                             {e: c * other for e, c in self.terms.items()})
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def divisible_by_variable(self, i):
        return all(e[i] > 0 for e in self.terms)

    def eval(self, point):
        """Value at a point, a sequence of ints and Fractions, one per
        variable, on integers: each term is an integer numerator over an
        integer denominator, the terms are added over the least common
        multiple of their denominators, and one Fraction is made at the
        end.  A term with a positive power of a zero coordinate is
        skipped; each coordinate a term reads must be exact (_exact)."""
        if len(point) != self.nvars:
            raise ValueError("need one value per variable")
        num, den = 0, 1
        for exps, c in self.terms.items():
            n, d = c.as_integer_ratio()
            for i, e in enumerate(exps):
                if e:
                    p, q = _exact(point[i], "point coordinate"
                                  ).as_integer_ratio()
                    if not p:
                        break
                    n *= p ** e
                    d *= q ** e
            else:
                if d != den:
                    g = math.gcd(den, d)
                    num, den, n = num * (d // g), den // g * d, n * (den // g)
                num += n
        return Fraction(num, den)

    def substitute(self, values):
        """Evaluate at values, a list of RationalFunction, one per variable."""
        if len(values) != self.nvars:
            raise ValueError("need one value per variable")
        acc = RationalFunction.zero()
        for exps, c in self.terms.items():
            term = RationalFunction(UniPoly.const(c))
            for v, e in zip(values, exps):
                if e:
                    term = term * (v ** e)
            acc = acc + term
        return acc

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=grlex_key):
            c = self.terms[exps]
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append("T%d" % (i + 1))
                elif e > 1:
                    factors.append("T%d^%d" % (i + 1, e))
            body = "*".join(factors)
            if not body:
                body = str(abs(c))
            elif abs(c) != 1:
                body = "%s*%s" % (abs(c), body)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "MultiPoly(%d, %r)" % (self.nvars, self.terms)


# ---------------------------------------------------------------------------
# dense exact linear algebra


class _Span:
    """Incrementally maintained exact row span.

    The rows stay in reduced row echelon form up to their order: each row has
    a leading 1 in its pivot column and zeros in the other rows' pivot
    columns.  This is the one rational row reduction of the package; its
    integer companion rank_mod only ranks residues mod a prime.
    """

    def __init__(self, ncols, rows=()):
        self.ncols = ncols
        self.rows = []
        self.pivots = []
        for row in rows:
            self.add(row)

    def _reduce(self, vec):
        v = [x if type(x) is Fraction else Fraction(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            if v[p] != 0:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def contains(self, vec):
        return not any(self._reduce(vec))

    def add(self, vec):
        """Insert vec, returning True when the span grows."""
        v = self._reduce(vec)
        for c, x in enumerate(v):
            if x != 0:
                inv = Fraction(1) / x
                v = [a * inv for a in v]
                for i, (row, _) in enumerate(zip(self.rows, self.pivots)):
                    if row[c] != 0:
                        f = row[c]
                        self.rows[i] = [a - f * b for a, b in zip(row, v)]
                self.rows.append(v)
                self.pivots.append(c)
                return True
        return False

    @property
    def dim(self):
        return len(self.rows)

    def echelon(self):
        """The rows sorted by pivot column: the reduced row echelon form of
        everything added, which is unique."""
        return [row for _, row in sorted(zip(self.pivots, self.rows),
                                         key=lambda pr: pr[0])]


def residue(x, p):
    """The residue mod p of a rational x, or None when p divides its
    denominator."""
    den = x.denominator % p
    return x.numerator * pow(den, -1, p) % p if den else None


def rank_mod(rows, p):
    """Rank of integer rows over the integers mod the prime p, by one
    elimination on ints.

    Reduction mod p is a ring map from the rationals whose denominators p
    does not divide, and a minor that is nonzero mod p is nonzero before
    reduction, so the rank mod p of such rows is at most their rank over Q.
    A rank mod p that meets an upper bound known in advance is therefore
    their exact rank (von zur Gathen and Gerhard, Modern Computer Algebra,
    ch. 5); one below it decides nothing.
    """
    pivots = []
    for row in rows:
        v = [x % p for x in row]
        for c, r in pivots:
            f = v[c]
            if f:
                v = [(a - f * b) % p for a, b in zip(v, r)]
        for c, x in enumerate(v):
            if x:
                inv = pow(x, -1, p)
                pivots.append((c, [a * inv % p for a in v]))
                break
        if len(pivots) == len(v):
            break
    return len(pivots)


def rank_kernel(M):
    """Exact rank and a kernel basis of a rational matrix.

    Returns (rank, kernel_basis) with rank + len(kernel_basis) equal to the
    number of columns.  Kernel vectors are produced one per free column, with
    a 1 in the free position, so the basis is independent by construction.
    """
    ncols = len(M[0]) if M else 0
    span = _Span(ncols, M)
    pivot_set = set(span.pivots)
    kernel = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, pc in zip(span.rows, span.pivots):
            v[pc] = -row[free]
        kernel.append(tuple(v))
    return span.dim, kernel


def solve_in_span(vectors, target):
    """Coefficients expressing target as a combination of vectors.

    Raises NotInSpan when no exact combination exists.  Free coefficients are
    set to zero, so the answer is deterministic.
    """
    vectors = [tuple(Fraction(x) for x in v) for v in vectors]
    target = tuple(Fraction(x) for x in target)
    if any(len(v) != len(target) for v in vectors):
        raise ValueError("vector length mismatch")
    k = len(vectors)
    span = _Span(k + 1, ([v[i] for v in vectors] + [t]
                         for i, t in enumerate(target)))
    if k in span.pivots:
        raise NotInSpan("target outside span")
    coeffs = [Fraction(0)] * k
    for row, pc in zip(span.rows, span.pivots):
        coeffs[pc] = row[k]
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# integer lattice utilities (private helpers for grading and enumeration)


def _smith(A):
    """Smith normal form of an integer matrix, with the inverse transforms.

    Returns (U, D, V, Uinv, Vinv) with U (n by n) and V (m by m) integer
    matrices, D = U*A*V diagonal with nonnegative diagonal entries, each
    dividing the next, and Uinv, Vinv the integer inverses of U and V.  Each
    elementary operation on U or V is mirrored by its inverse operation on
    the other side of Uinv or Vinv.
    """
    A = [[int(x) for x in row] for row in A]
    n = len(A)
    m = len(A[0]) if n else 0
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    V = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    Uinv = [row[:] for row in U]
    Vinv = [row[:] for row in V]

    def row_op(i, j, c):
        # row i += c * row j; on Uinv, col j -= c * col i
        A[i] = [a + c * b for a, b in zip(A[i], A[j])]
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        for r in Uinv:
            r[j] -= c * r[i]

    def col_op(i, j, c):
        # col i += c * col j; on Vinv, row j -= c * row i
        for r in range(n):
            A[r][i] += c * A[r][j]
        for r in range(m):
            V[r][i] += c * V[r][j]
        Vinv[j] = [a - c * b for a, b in zip(Vinv[j], Vinv[i])]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]
        for r in Uinv:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for r in range(n):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(m):
            V[r][i], V[r][j] = V[r][j], V[r][i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    t = 0
    while t < min(n, m):
        # locate smallest nonzero entry in the remaining block
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if A[i][j] != 0 and (best is None
                                     or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, n):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    row_op(i, t, -q)
                    if A[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, m):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    col_op(j, t, -q)
                    if A[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        # pivot must divide every remaining entry
        fixed = False
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if A[i][j] % A[t][t] != 0:
                    row_op(t, i, 1)
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
            for r in Uinv:
                r[t] = -r[t]
        t += 1
    return U, A, V, Uinv, Vinv


def _hnf_rows(vectors):
    """Row-style Hermite normal form basis of the lattice spanned by vectors.

    Returns a list of nonzero rows with strictly increasing pivot columns,
    positive pivots, and entries above each pivot reduced into [0, pivot).
    """
    rows = [list(int(x) for x in v) for v in vectors if any(v)]
    if not rows:
        return []
    m = len(rows[0])
    basis = []
    for col in range(m):
        stack = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        if not stack:
            rows = rest
            continue
        # gcd out the column with exact euclidean steps
        while len(stack) > 1:
            stack.sort(key=lambda r: abs(r[col]))
            small = stack[0]
            out = [small]
            for r in stack[1:]:
                q = r[col] // small[col]
                nr = [a - q * b for a, b in zip(r, small)]
                if nr[col] != 0:
                    out.append(nr)
                elif any(nr):
                    rest.append(nr)
            if len(out) == 1:
                stack = out
                break
            stack = out
        pivot_row = stack[0]
        if pivot_row[col] < 0:
            pivot_row = [-x for x in pivot_row]
        basis.append(pivot_row)
        rows = rest
    # reduce entries above pivots, leftmost first: later pivots keep them
    for i in range(len(basis)):
        pc = next(j for j, x in enumerate(basis[i]) if x != 0)
        for k in range(i):
            q = basis[k][pc] // basis[i][pc]
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[i])]
    basis.sort(key=lambda r: next(j for j, x in enumerate(r) if x != 0))
    return [tuple(r) for r in basis]


def _hnf_split(vectors, modulo=()):
    """(image, kernel) from the Hermite normal form of the rows (v_j, e_j)
    of the vectors and (l, 0) of the vectors l of modulo.

    image pairs each HNF row h of the lattice spanned by the vectors and
    modulo with a coefficient vector c, h - sum_j c_j v_j in the span of
    modulo; kernel is the HNF basis of the c with sum_j c_j v_j in the span
    of modulo, the integer relations among the vectors.
    """
    r = len(vectors)
    H = _hnf_rows([tuple(v) + (0,) * j + (1,) + (0,) * (r - j - 1)
                   for j, v in enumerate(vectors)]
                  + [tuple(v) + (0,) * r for v in modulo])
    image, kernel = [], []
    for h in H:
        n = len(h) - r
        if any(h[:n]):
            image.append((h[:n], h[n:]))
        else:
            kernel.append(h[n:])
    return tuple(image), tuple(kernel)


def _hnf_coords(basis, vector):
    """Integer coefficients of vector over an HNF row basis, read one by
    one at the pivot columns, or None when vector is not in its lattice."""
    rest = [int(x) for x in vector]
    coords = []
    for row in basis:
        pc = next(j for j, x in enumerate(row) if x)
        q = rest[pc] // row[pc]
        coords.append(q)
        if q:
            rest = [a - q * b for a, b in zip(rest, row)]
    return None if any(rest) else tuple(coords)


def _dot(u, v):
    return sum(map(operator.mul, u, v))


# ---------------------------------------------------------------------------
# exact linear feasibility (Fourier-Motzkin)


def _fm_project(rows, nvars):
    """Fourier-Motzkin elimination of y_nvars, ..., y_1 over the integers.

    rows: (coeffs, tail) pairs of integer tuples, each meaning
    coeffs . y >= rhs where rhs is a fixed linear function of tail (the
    right-hand side itself, or a multiplier vector over the original rows).
    Eliminating y_k adds the row ((-an) * p + ap * n) / gcd(ap, an) for
    every row p with coefficient ap > 0 and every row n with coefficient
    an < 0, combining coeffs and tails alike, so rows stay integral.

    Returns (levels, constants).  levels[k-1] is a pair (lower, upper) of
    the rows (a, head, tail) with coefficient a > 0, resp. a < 0, of y_k
    and coefficients head of y_1..y_{k-1}; rows without y_k are not kept
    there, since every prefix that satisfies the lower levels satisfies
    them.  constants holds the tails of the rows left without variables.
    """
    current = list(dict.fromkeys(rows))
    levels = [None] * nvars
    for k in range(nvars, 0, -1):
        lower, upper, derived = [], [], []
        for cs, tail in current:
            a = cs[k - 1]
            if a > 0:
                lower.append((a, cs[:k - 1], tail))
            elif a < 0:
                upper.append((a, cs[:k - 1], tail))
            else:
                derived.append((cs[:k - 1], tail))
        for ap, headp, tailp in lower:
            for an, headn, tailn in upper:
                g = math.gcd(ap, an)
                fp, fn = -an // g, ap // g
                derived.append(
                    (tuple(fp * x + fn * y for x, y in zip(headp, headn)),
                     tuple(fp * x + fn * y for x, y in zip(tailp, tailn))))
        levels[k - 1] = (tuple(lower), tuple(upper))
        current = list(dict.fromkeys(derived))
    return levels, tuple(tail for _, tail in current)


def feasible_point(constraints, nvars):
    """One exact rational solution of coeffs . y >= rhs for all constraints.

    Returns a tuple of Fractions or None when the system is infeasible.
    Unbounded coordinates are pinned to a closest-to-zero admissible value.
    """
    rows = []
    for cs, r in constraints:
        row = [*cs, r]
        if any(type(x) is not int for x in row):
            row = [Fraction(x) for x in row]
            scale = math.lcm(*(x.denominator for x in row))
            row = [x.numerator * (scale // x.denominator) for x in row]
        rows.append((tuple(row[:-1]), (row[-1],)))
    levels, constants = _fm_project(rows, nvars)
    if any(rhs > 0 for rhs, in constants):
        return None
    point = []
    for lower, upper in levels:
        lo = max((Fraction(rhs - _dot(head, point), a)
                  for a, head, (rhs,) in lower), default=None)
        hi = min((Fraction(rhs - _dot(head, point), a)
                  for a, head, (rhs,) in upper), default=None)
        if lo is None:
            point.append(Fraction(0) if hi is None else min(hi, Fraction(0)))
        elif hi is not None and lo > hi:
            return None
        else:
            point.append(lo)
    return tuple(point)


def positive_functional(degrees, orthogonal_to=()):
    """Rational y with y . d >= 1 for every degree d and y . v = 0 for every
    v in orthogonal_to, or None when no such functional exists.

    Existence certifies that no nonzero nonnegative combination of the
    degrees lies in the span of orthogonal_to.
    """
    if not degrees:
        return ()
    n = len(degrees[0])
    cons = [(d, 1) for d in degrees]
    for v in orthogonal_to:
        cons.append((v, 0))
        cons.append(([-x for x in v], 0))
    return feasible_point(cons, n)


# ---------------------------------------------------------------------------
# monomial enumeration


# enumeration plans kept at once; a curve verification uses at most two,
# the generator degrees unbounded (rewriting) and bounded (free grading),
# a fan one
_PLAN_CACHE_SIZE = 32


class _EnumerationPlan(Immutable):
    """The target-independent work of enumerate_monomials and
    count_monomials for one degree map, relation list and boundedness.

    The solutions of D e = target modulo the relations L are
    e = p_e + c . proj, both from the Hermite split of D modulo L
    (_hnf_split): the coordinates of a target over its image rows, an HNF
    basis of the span of D and L, combine their lifts into p_e, and its
    kernel is proj.  The coefficients c range over the polytope
    p_e + c . proj >= 0 (and sum(e) <= bound when bounded), whose
    Fourier-Motzkin levels are kept with the multiplier vector t of every
    row over the original rows.  The right-hand side of a row is
    t . (-p_e, sum(p_e) - bound), linear in the target's coordinates and
    the bound, so each row keeps that linear map instead of t: a target
    supplies only its coordinates (and the bound).
    """

    __slots__ = ("pointed", "nvars", "image", "lifts", "proj", "levels",
                 "constants")

    def __init__(self, degree_map, relations, bounded):
        degree_map = tuple(tuple(map(int, d)) for d in degree_map)
        relations = tuple(tuple(map(int, v)) for v in relations)
        pointed = bounded or positive_functional(degree_map,
                                                 relations) is not None
        object.__setattr__(self, "pointed", pointed)
        if not pointed:
            return
        r = len(degree_map)
        image, proj = _hnf_split(degree_map, relations)
        object.__setattr__(self, "nvars", r)
        # row i: e_i >= 0; last row, when bounded: -sum(e) >= -bound
        width = r + bounded
        rows = [(tuple(p[i] for p in proj),
                 tuple(int(j == i) for j in range(width)))
                for i in range(r)]
        if bounded:
            rows.append((tuple(-sum(p) for p in proj), (0,) * r + (1,)))
        levels, constants = _fm_project(rows, len(proj))
        lifts = tuple(c for _, c in image)

        def rhs_map(t):
            # t . (-p_e, sum(p_e) - bound) over (coordinates, bound)
            m = tuple(-_dot(t, lift) + (t[r] * sum(lift) if bounded else 0)
                      for lift in lifts)
            return m + (-t[r],) if bounded else m

        image_rows = tuple(h for h, _ in image)
        # over the standard basis a target's coordinates are the target
        n = len(image_rows)
        if n and image_rows == tuple(tuple(int(i == j) for j in range(n))
                                     for i in range(n)):
            image_rows = None
        object.__setattr__(self, "image", image_rows)
        object.__setattr__(self, "lifts", lifts)
        object.__setattr__(self, "proj", proj)
        object.__setattr__(self, "levels", tuple(
            tuple(tuple((a, head, rhs_map(t)) for a, head, t in side)
                  for side in level) for level in levels))
        object.__setattr__(self, "constants",
                           tuple(rhs_map(t) for t in constants))

    def _intervals(self, target, bound):
        """The target's coordinates over the image rows, and the ranges
        (prefix, lo, hi) of the last kernel coefficient, one for each
        prefix of the others that the levels above admit (lo > hi when
        none is left); coordinates None when no e solves the target."""
        coords = (target if self.image is None
                  else _hnf_coords(self.image, target))
        if coords is None:
            return None, ()
        values = coords + (bound,) if bound is not None else coords
        # with an empty kernel every row is a constant: p_e >= 0 and the bound
        if any(_dot(m, values) > 0 for m in self.constants):
            return None, ()
        if not self.proj:
            return coords, (((), 0, 0),)
        levels = [tuple([(a, head, _dot(m, values)) for a, head, m in side]
                        for side in level) for level in self.levels]
        return coords, _descend(levels, ())

    def monomials(self, target, bound):
        coords, intervals = self._intervals(target, bound)
        if coords is None:
            return []
        p_e = (0,) * self.nvars
        for a, lift in zip(coords, self.lifts):
            if a:
                p_e = tuple(x + a * y for x, y in zip(p_e, lift))
        results = []
        last = self.proj[-1] if self.proj else ()
        for prefix, lo, hi in intervals:
            e = p_e
            for v, step in zip(prefix, self.proj):
                if v:
                    e = tuple(x + v * y for x, y in zip(e, step))
            for v in range(lo, hi + 1):
                results.append(tuple(x + v * y for x, y in zip(e, last))
                               if v else e)
        results.sort()
        return results

    def count(self, target, bound):
        return sum(max(0, hi - lo + 1)
                   for _, lo, hi in self._intervals(target, bound)[1])


def _descend(levels, prefix):
    """The ranges (prefix, lo, hi) below prefix, whose length k says which
    level bounds the next coefficient.  A module-level generator: a nested
    one that calls itself through its closure makes a function/cell cycle
    per call, which holds the levels until the garbage collector runs."""
    k = len(prefix)
    lower, upper = levels[k]
    if not lower or not upper:
        raise UnboundedEnumeration(
            "solution polytope is unbounded; supply a bound")
    # a * y_k >= b - head . prefix, integer ceil and floor
    lo = max(-((_dot(head, prefix) - b) // a) for a, head, b in lower)
    hi = min((b - _dot(head, prefix)) // a for a, head, b in upper)
    if k + 1 == len(levels):
        yield prefix, lo, hi
    else:
        for v in range(lo, hi + 1):
            yield from _descend(levels, prefix + (v,))


_enumeration_plan = functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)(
    _EnumerationPlan)


def _plan_and_target(degree_map, target, bound, relations):
    # the plan is cached by the vectors as given (equal vectors have equal
    # integer parts) and converts them to integers once
    degree_map = tuple(map(tuple, degree_map))
    target = tuple(map(int, target))
    relations = tuple(map(tuple, relations))
    n = len(target)
    if any(len(d) != n for d in degree_map):
        raise ValueError("degree vector length mismatch")
    if any(len(v) != n for v in relations):
        raise ValueError("relation vector length mismatch")
    plan = _enumeration_plan(degree_map, relations, bound is not None)
    if not plan.pointed:
        raise UnboundedEnumeration(
            "degree map is not pointed and no bound was given")
    return plan, target


def enumerate_monomials(degree_map, target, bound=None, relations=()):
    """All exponent vectors e >= 0 with sum e_i * degree_map[i] equal to
    target in the grading group.

    Degrees and target are integer vectors; relations, when given, generate a
    sublattice that is quotiented out (equality then means congruence modulo
    that lattice).  bound, when given, caps the total exponent sum.  Without
    a bound the degree map must be pointed: no nonzero nonnegative
    combination of degrees may vanish in the group.  Results are sorted
    lexicographically.

    Everything that does not depend on the target (the pointedness test,
    the Hermite split of the degrees modulo the relations and the
    Fourier-Motzkin projection) is computed once per (degree_map,
    relations, bounded) and memoised in a fixed-size cache, so the classes
    of one box share it.  An empty degree map and a trivial grading group
    (zero-length degrees) take the same path.
    """
    plan, target = _plan_and_target(degree_map, target, bound, relations)
    return plan.monomials(target, bound)


def count_monomials(degree_map, target, bound=None, relations=()):
    """len(enumerate_monomials(degree_map, target, bound, relations)),
    with the same plan, descent and errors, but no vector built: the last
    kernel coefficient of each admitted prefix adds the size of its
    range."""
    plan, target = _plan_and_target(degree_map, target, bound, relations)
    return plan.count(target, bound)
