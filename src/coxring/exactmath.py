"""Exact rational arithmetic substrate.

Provides arbitrary-precision rationals, univariate polynomials and rational
functions in one variable z, dense exact linear algebra over the rationals,
multigraded multivariate polynomials, and exact enumeration of monomials with
a prescribed multidegree.  No floating point anywhere.
"""

import math
from fractions import Fraction

Rational = Fraction


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


class UniPoly(Immutable):
    """Dense univariate polynomial in z with Rational coefficients.

    Coefficients are stored ascending by exponent with no trailing zeros, so
    the leading coefficient is nonzero unless the polynomial is zero.
    Instances are immutable values.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def const(c):
        return UniPoly([Fraction(c)])

    @staticmethod
    def zero():
        return UniPoly([])

    @staticmethod
    def one():
        return UniPoly([1])

    @staticmethod
    def z():
        return UniPoly([0, 1])

    @property
    def degree(self):
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("UniPoly", self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return UniPoly([
            (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)
        ])

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly([])
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return UniPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lead = other.leading()
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i]:
                c = rem[i] / lead
                quo[i - d] = c
                for j, bc in enumerate(other.coeffs):
                    rem[i - d + j] -= c * bc
        return UniPoly(quo), UniPoly(rem)

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
        if self.is_zero():
            return self
        lead = self.leading()
        return UniPoly([c / lead for c in self.coeffs])

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def eval(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def root_multiplicity(self, a):
        """Multiplicity of the root z = a (0 when a is not a root)."""
        if self.is_zero():
            raise ZeroDivisionError("zero polynomial vanishes everywhere")
        linear = UniPoly([-Fraction(a), Fraction(1)])
        mult = 0
        p = self
        while True:
            q, r = divmod(p, linear)
            if not r.is_zero():
                return mult
            mult += 1
            p = q

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
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
            lead = den.leading()
            if lead != 1:
                num = num * (Fraction(1) / lead)
                den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def zero():
        return RationalFunction(UniPoly.zero())

    @staticmethod
    def one():
        return RationalFunction(UniPoly.one())

    @staticmethod
    def z():
        return RationalFunction(UniPoly.z())

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash(("RationalFunction", self.num.coeffs, self.den.coeffs))

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

    def is_constant(self):
        return self.den.degree == 0 and self.num.degree <= 0

    def eval(self, x):
        d = self.den.eval(x)
        if d == 0:
            raise ZeroDivisionError("pole at evaluation point")
        return self.num.eval(x) / d

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


def parse_rational_function(text):
    """Parse strings like '1', 'z', '(z - 1)/(z + 2)', '1/(z - 1)', '3/2'."""
    text = text.strip()
    depth = 0
    split_at = None
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            if split_at is not None:
                raise ValueError("ambiguous '/' in %r" % text)
            split_at = i
    if split_at is None:
        return RationalFunction(_parse_poly(text))
    num = _parse_poly(text[:split_at])
    den = _parse_poly(text[split_at + 1:])
    return RationalFunction(num, den)


def _parse_poly(text):
    """Parse a polynomial in z with integer or a/b coefficients."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        inner, depth = text[1:-1], 0
        for ch in inner:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    break
        if depth == 0:
            text = inner.strip()
    # split into signed terms at top level
    terms, cur, sign = [], "", 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in "+-" and cur.strip() == "" and not terms and ch == "-":
            sign = -sign
            i += 1
            continue
        if ch in "+-":
            terms.append((sign, cur))
            sign = 1 if ch == "+" else -1
            cur = ""
        else:
            cur += ch
        i += 1
    terms.append((sign, cur))
    coeffs = {}
    for sg, raw in terms:
        raw = raw.strip()
        if not raw:
            raise ValueError("empty term while parsing %r" % text)
        if "z" in raw:
            head, _, tail = raw.partition("z")
            head = head.strip().rstrip("*").strip()
            coeff = Fraction(head) if head else Fraction(1)
            tail = tail.strip()
            if tail.startswith("^"):
                exp = int(tail[1:].strip())
            elif tail == "":
                exp = 1
            else:
                raise ValueError("cannot parse term %r" % raw)
        else:
            coeff = Fraction(raw)
            exp = 0
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sg * coeff
    size = max(coeffs) + 1 if coeffs else 0
    out = [Fraction(0)] * size
    for e, c in coeffs.items():
        out[e] = c
    return UniPoly(out)


# ---------------------------------------------------------------------------
# multigraded multivariate polynomials


def grlex_key(exps):
    """Sort key putting larger monomials first under graded lexicographic order."""
    return (-sum(exps), tuple(-e for e in exps))


class MultiPoly(Immutable):
    """Polynomial in variables T1..Tr with an optional multidegree for each
    variable.

    terms maps exponent tuples to nonzero Rational coefficients.  degree_map,
    when present, is a tuple of integer degree vectors, one per variable; a
    polynomial is homogeneous when all its monomials share the same total
    multidegree.
    """

    __slots__ = ("nvars", "terms", "degree_map")

    def __init__(self, nvars, terms, degree_map=None):
        clean = {}
        for exps, c in terms.items():
            if len(exps) != nvars:
                raise ValueError("exponent tuple of wrong length")
            c = Fraction(c)
            if c != 0:
                clean[tuple(int(e) for e in exps)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)
        if degree_map is not None:
            degree_map = tuple(tuple(int(x) for x in d) for d in degree_map)
            if len(degree_map) != nvars:
                raise ValueError("degree_map length must equal nvars")
        object.__setattr__(self, "degree_map", degree_map)

    @staticmethod
    def zero(nvars, degree_map=None):
        return MultiPoly(nvars, {}, degree_map)

    @staticmethod
    def variable(i, nvars, degree_map=None):
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return MultiPoly(nvars, {exps: Fraction(1)}, degree_map)

    @staticmethod
    def monomial(exps, coeff=1, degree_map=None):
        exps = tuple(exps)
        return MultiPoly(len(exps), {exps: Fraction(coeff)}, degree_map)

    def is_zero(self):
        return not self.terms

    def _dm(self, other):
        return self.degree_map if self.degree_map is not None else other.degree_map

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash(("MultiPoly", self.nvars, tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, Fraction(0)) + c
        return MultiPoly(self.nvars, out, self._dm(other))

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()},
                         self.degree_map)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MultiPoly(self.nvars,
                             {e: c * other for e, c in self.terms.items()},
                             self.degree_map)
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return MultiPoly(self.nvars, out, self._dm(other))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly(self.nvars, {(0,) * self.nvars: Fraction(1)},
                           self.degree_map)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def monomial_degree(self, exps):
        if self.degree_map is None:
            raise ValueError("no degree_map attached")
        n = len(self.degree_map[0]) if self.degree_map else 0
        acc = [0] * n
        for e, d in zip(exps, self.degree_map):
            for i, di in enumerate(d):
                acc[i] += e * di
        return tuple(acc)

    def multidegree(self):
        """Common multidegree of all terms, or None if not homogeneous."""
        degs = {self.monomial_degree(e) for e in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def leading_monomial(self):
        """Largest exponent tuple under graded lexicographic order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return min(self.terms, key=grlex_key)

    def divisible_by_variable(self, i):
        return all(e[i] > 0 for e in self.terms)

    def divide_by_variable(self, i):
        if not self.divisible_by_variable(i):
            raise ValueError("not divisible by variable %d" % i)
        out = {}
        for exps, c in self.terms.items():
            key = tuple(e - 1 if j == i else e for j, e in enumerate(exps))
            out[key] = c
        return MultiPoly(self.nvars, out, self.degree_map)

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


def parse_multipoly(text, nvars, degree_map=None):
    """Parse strings like 'T1*T6 - T2*T3 - T4*T5' or '2*T1^2 + 1/2'."""
    text = text.strip()
    pieces, cur, sign = [], "", 1
    first = True
    for ch in text:
        if ch in "+-" and cur.strip() == "" and first:
            if ch == "-":
                sign = -sign
            continue
        if ch in "+-":
            pieces.append((sign, cur))
            sign = 1 if ch == "+" else -1
            cur = ""
        else:
            cur += ch
            first = False
    pieces.append((sign, cur))
    terms = {}
    for sg, raw in pieces:
        raw = raw.strip()
        if not raw:
            raise ValueError("empty term in %r" % text)
        coeff = Fraction(1)
        exps = [0] * nvars
        for factor in raw.split("*"):
            factor = factor.strip()
            if factor.startswith("T"):
                name, _, exp = factor.partition("^")
                idx = int(name[1:]) - 1
                if not 0 <= idx < nvars:
                    raise ValueError("variable index out of range in %r" % factor)
                exps[idx] += int(exp) if exp else 1
            else:
                coeff *= Fraction(factor)
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + sg * coeff
    return MultiPoly(nvars, terms, degree_map)


# ---------------------------------------------------------------------------
# dense exact linear algebra


class QMatrix(Immutable):
    """Immutable dense matrix of Rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(Fraction(x) for x in row) for row in entries)
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        if any(len(r) != cols for r in entries):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    @staticmethod
    def identity(n):
        return QMatrix([[1 if i == j else 0 for j in range(n)]
                        for i in range(n)])

    def __eq__(self, other):
        return isinstance(other, QMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(("QMatrix", self.entries))

    def __repr__(self):
        return "QMatrix(%r)" % (list(list(r) for r in self.entries),)


def _as_rows(M):
    if isinstance(M, QMatrix):
        return [list(r) for r in M.entries]
    return [[Fraction(x) for x in row] for row in M]


def _echelonize(rows, ncols):
    """In-place reduced row echelon form; returns ordered pivot column list."""
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank_kernel(M):
    """Exact rank and a kernel basis of a rational matrix.

    Returns (rank, kernel_basis) with rank + len(kernel_basis) equal to the
    number of columns.  Kernel vectors are produced one per free column, with
    a 1 in the free position, so the basis is independent by construction.
    """
    rows = _as_rows(M)
    ncols = len(rows[0]) if rows else (M.cols if isinstance(M, QMatrix) else 0)
    pivots = _echelonize(rows, ncols)
    pivot_set = set(pivots)
    kernel = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][free]
        kernel.append(tuple(v))
    return len(pivots), kernel


def solve_in_span(vectors, target):
    """Coefficients expressing target as a combination of vectors.

    Raises NotInSpan when no exact combination exists.  Free coefficients are
    set to zero, so the answer is deterministic.
    """
    vectors = [tuple(Fraction(x) for x in v) for v in vectors]
    target = tuple(Fraction(x) for x in target)
    if any(len(v) != len(target) for v in vectors):
        raise ValueError("vector length mismatch")
    n = len(target)
    k = len(vectors)
    rows = [[vectors[j][i] for j in range(k)] + [target[i]] for i in range(n)]
    pivots = _echelonize(rows, k + 1)
    if k in pivots:
        raise NotInSpan("target outside span")
    coeffs = [Fraction(0)] * k
    for r, pc in enumerate(pivots):
        coeffs[pc] = rows[r][k]
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# integer lattice utilities (private helpers for grading and enumeration)


def _int_rows(M):
    return [[int(x) for x in row] for row in M]


def _smith(A):
    """Smith normal form of an integer matrix.

    Returns (U, D, V) with U (n by n) and V (m by m) unimodular integer
    matrices and D = U*A*V diagonal with nonnegative diagonal entries, each
    dividing the next.
    """
    A = _int_rows(A)
    n = len(A)
    m = len(A[0]) if n else 0
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    V = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def row_op(i, j, c):
        # row i += c * row j
        A[i] = [a + c * b for a, b in zip(A[i], A[j])]
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, c):
        # col i += c * col j
        for r in range(n):
            A[r][i] += c * A[r][j]
        for r in range(m):
            V[r][i] += c * V[r][j]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(n):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(m):
            V[r][i], V[r][j] = V[r][j], V[r][i]

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
        t += 1
    return U, A, V


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
    # reduce entries above pivots
    for i in range(len(basis) - 1, -1, -1):
        pc = next(j for j, x in enumerate(basis[i]) if x != 0)
        for k in range(i):
            q = basis[k][pc] // basis[i][pc]
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[i])]
    basis.sort(key=lambda r: next(j for j, x in enumerate(r) if x != 0))
    return [tuple(r) for r in basis]


def _hnf_reduce(basis, vector):
    """Remainder of vector after reduction modulo an HNF row basis."""
    v = [int(x) for x in vector]
    for row in basis:
        pc = next(j for j, x in enumerate(row) if x != 0)
        q = v[pc] // row[pc]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return tuple(v)


def _lattice_contains(basis, vector):
    return not any(_hnf_reduce(basis, vector))


def _integer_solve(A, b):
    """One integer solution x of Ax = b, or None.

    Also returns an integer basis of the kernel of A: (x, kernel_rows).
    """
    n = len(A)
    m = len(A[0]) if n else 0
    U, D, V = _smith(A)
    w = [sum(U[i][j] * b[j] for j in range(n)) for i in range(n)]
    y = [0] * m
    for i in range(min(n, m)):
        d = D[i][i]
        if d != 0:
            if w[i] % d != 0:
                return None, None
            y[i] = w[i] // d
        elif w[i] != 0:
            return None, None
    for i in range(m, n):
        if w[i] != 0:
            return None, None
    x = [sum(V[i][j] * y[j] for j in range(m)) for i in range(m)]
    kernel = []
    for j in range(m):
        if j >= n or D[j][j] == 0:
            kernel.append(tuple(V[i][j] for i in range(m)))
    return tuple(x), kernel


# ---------------------------------------------------------------------------
# exact linear feasibility (Fourier-Motzkin)


def _fm_project(constraints, nvars):
    """Level systems for integer enumeration or feasibility.

    constraints: list of (coeffs, rhs) meaning coeffs . y >= rhs.  Returns a
    list levels[k] for k = nvars..1 where levels[k-1] constrains y_1..y_k, or
    None when a contradiction among constant constraints appears.
    """
    levels = [None] * nvars
    current = [(tuple(Fraction(c) for c in cs), Fraction(r))
               for cs, r in constraints]
    for k in range(nvars, 0, -1):
        levels[k - 1] = [c for c in current]
        pos, neg, zero = [], [], []
        for cs, r in current:
            a = cs[k - 1]
            if a > 0:
                pos.append((cs, r))
            elif a < 0:
                neg.append((cs, r))
            else:
                zero.append((cs[:k - 1], r))
        derived = list(zero)
        for csp, rp in pos:
            ap = csp[k - 1]
            for csn, rn in neg:
                an = csn[k - 1]
                # eliminate y_k from ap*yk >= ... and an*yk >= ...
                cs = tuple(csp[i] * (-an) + csn[i] * ap for i in range(k - 1))
                r = rp * (-an) + rn * ap
                derived.append((cs, r))
        current = derived
    for cs, r in current:
        if r > 0:
            return None
    return levels


def _fm_bounds(level, prefix, k):
    """Interval [lo, hi] for variable k given fixed prefix values.

    Returns (lo, hi) as Fractions or None, or 'empty' on contradiction among
    constraints not involving variable k.
    """
    lo, hi = None, None
    for cs, r in level:
        a = cs[k - 1]
        rest = r - sum(cs[i] * prefix[i] for i in range(k - 1))
        if a > 0:
            v = rest / a
            if lo is None or v > lo:
                lo = v
        elif a < 0:
            v = rest / a
            if hi is None or v < hi:
                hi = v
        else:
            if rest > 0:
                return "empty"
    return lo, hi


def feasible_point(constraints, nvars):
    """One exact rational solution of coeffs . y >= rhs for all constraints.

    Returns a tuple of Fractions or None when the system is infeasible.
    Unbounded coordinates are pinned to a closest-to-zero admissible value.
    """
    levels = _fm_project(constraints, nvars)
    if levels is None:
        return None
    point = []
    for k in range(1, nvars + 1):
        got = _fm_bounds(levels[k - 1], point, k)
        if got == "empty":
            return None
        lo, hi = got
        if lo is not None and hi is not None:
            if lo > hi:
                return None
            val = lo
        elif lo is not None:
            val = lo
        elif hi is not None:
            val = min(hi, Fraction(0))
        else:
            val = Fraction(0)
        point.append(val)
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
    cons = [(tuple(Fraction(x) for x in d), Fraction(1)) for d in degrees]
    for v in orthogonal_to:
        vv = tuple(Fraction(x) for x in v)
        cons.append((vv, Fraction(0)))
        cons.append((tuple(-x for x in vv), Fraction(0)))
    return feasible_point(cons, n)


# ---------------------------------------------------------------------------
# monomial enumeration


def enumerate_monomials(degree_map, target, bound=None, relations=()):
    """All exponent vectors e >= 0 with sum e_i * degree_map[i] equal to
    target in the grading group.

    Degrees and target are integer vectors; relations, when given, generate a
    sublattice that is quotiented out (equality then means congruence modulo
    that lattice).  bound, when given, caps the total exponent sum.  Without
    a bound the degree map must be pointed: no nonzero nonnegative
    combination of degrees may vanish in the group.  Results are sorted
    lexicographically.
    """
    degree_map = [tuple(int(x) for x in d) for d in degree_map]
    target = tuple(int(x) for x in target)
    relations = [tuple(int(x) for x in v) for v in relations]
    r = len(degree_map)
    n = len(target)
    if any(len(d) != n for d in degree_map):
        raise ValueError("degree vector length mismatch")
    if any(len(v) != n for v in relations):
        raise ValueError("relation vector length mismatch")

    if bound is None:
        if positive_functional(degree_map, relations) is None:
            raise UnboundedEnumeration(
                "degree map is not pointed and no bound was given")

    if r == 0:
        hnf = _hnf_rows(relations)
        ok = not any(target) or _lattice_contains(hnf, target)
        return [()] if ok else []

    if n == 0:
        # trivial grading group: every exponent vector qualifies
        out = []

        def fill(prefix, remaining):
            if len(prefix) == r:
                out.append(tuple(prefix))
                return
            for v in range(remaining + 1):
                fill(prefix + [v], remaining - v)

        fill([], bound)
        out.sort()
        return out

    # integer solutions of  D e + L t = target
    A = [[degree_map[j][i] for j in range(r)]
         + [relations[j][i] for j in range(len(relations))]
         for i in range(n)]
    particular, kernel = _integer_solve(A, list(target))
    if particular is None:
        return []
    p_e = list(particular[:r])
    proj = _hnf_rows([k[:r] for k in kernel])
    kdim = len(proj)

    if kdim == 0:
        if all(x >= 0 for x in p_e) and (bound is None or sum(p_e) <= bound):
            return [tuple(p_e)]
        return []

    # coefficient-space polytope: e(c) = p_e + c . proj >= 0
    cons = []
    for i in range(r):
        cons.append((tuple(Fraction(proj[j][i]) for j in range(kdim)),
                     Fraction(-p_e[i])))
    if bound is not None:
        sums = [sum(row) for row in proj]
        cons.append((tuple(Fraction(-s) for s in sums),
                     Fraction(sum(p_e) - bound)))
    levels = _fm_project(cons, kdim)
    if levels is None:
        return []

    results = []

    def descend(prefix, k):
        got = _fm_bounds(levels[k - 1], prefix, k)
        if got == "empty":
            return
        lo, hi = got
        if lo is None or hi is None:
            raise UnboundedEnumeration(
                "solution polytope is unbounded; supply a bound")
        lo_i = math.ceil(lo)
        hi_i = math.floor(hi)
        for v in range(lo_i, hi_i + 1):
            nxt = prefix + [Fraction(v)]
            if k == kdim:
                e = tuple(p_e[i]
                          + sum(int(nxt[j]) * proj[j][i] for j in range(kdim))
                          for i in range(r))
                results.append(e)
            else:
                descend(nxt, k + 1)

    descend([], 1)
    results.sort()
    return results
