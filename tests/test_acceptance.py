"""Release acceptance suite.

One test per criterion, numbered.  Every comparison is exact; the
randomized portions run on fixed seeds so the suite is reproducible
bit for bit.  Each test prints a single PASS line with its headline
numbers once all of its assertions hold.
"""

import itertools
import random
import time
from fractions import Fraction

from coxring.coxalg import (
    PicGradedAlgebra,
    build_presentation,
    curve_algebra,
    default_box,
    freely_graded_check,
    ideal_membership,
    irrelevant_sections,
    separatedness_check,
    shift,
    tensor_presentation,
    uniqueness_crosscheck,
)
from coxring.exactmath import enumerate_monomials
from coxring.grading import smith_normal_form
from coxring.ratcurve import (
    CurvePoint,
    Divisor,
    GluedCurve,
    min_degree,
    picard_group,
    section_space,
)
from coxring.toric import (
    class_group,
    cox_presentation,
    hirzebruch_fan,
    line_fan,
    plane_fan,
    quadric_cone_fan,
    toric_cox_data,
)

from conveniences import product_fan, verify_representative
from test_coxalg import (
    EXPECTED_DEGREES,
    EXPECTED_SECTIONS,
    basis_to_ambient,
    doubled_line,
    explicit_basis,
    plain_line,
    plain_presentation,
    pt,
    tripled_algebra,
    tripled_line,
    tripled_presentation,
    vadd,
)
from test_ratcurve import ansatz_dimension


def kmul(a, v):
    return tuple(a * x for x in v)


def test_criterion_1_tripled_line_presentation():
    """Exactly six minimal generators over the explicit divisor basis,
    with the expected degrees and sections, and exactly one relation
    agreeing with T2*T3 + T5*T4 - T6*T1 up to a nonzero rational scalar
    in the emitted generator order."""
    start = time.monotonic()
    X = tripled_line()
    A = curve_algebra(X, "canonical", basis=explicit_basis())
    P = build_presentation(A, default_box(X, 2, basis=explicit_basis()))
    pic = A.pic
    assert len(P.generators) == 6
    for (d, _), expected in zip(P.generators, EXPECTED_DEGREES):
        assert pic.same_class(d, basis_to_ambient(expected))
    assert [str(s) for _, s in P.generators] == EXPECTED_SECTIONS

    assert len(P.relations) == 1
    rel = P.relations[0]

    def quad(i, j):
        return tuple(1 if k in (i, j) else 0 for k in range(6))

    target = {quad(1, 2): Fraction(1), quad(4, 3): Fraction(1),
              quad(5, 0): Fraction(-1)}
    assert set(rel.terms) == set(target)
    ratios = {rel.terms[e] / target[e] for e in target}
    assert len(ratios) == 1
    scalar = ratios.pop()
    assert scalar != 0
    assert rel.substitute([s for _, s in P.generators]).is_zero()

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print("PASS criterion 1: 6 generators, 1 quadratic relation "
          "(scalar %s, %.1fs)" % (scalar, elapsed))


def random_curve(rng):
    pool = ["0", "1", "-1", "2", "1/2", "-3", "5/2", "inf"]
    points = rng.sample(pool, rng.randint(1, 4))
    return GluedCurve([(pt(p), rng.randint(1, 3)) for p in points])


def test_criterion_2_picard_groups():
    """Free Picard groups of the expected ranks on the three fixtures,
    and the rank formula 1 + sum of (multiplicity - 1) on twenty random
    curves, each instance certified through a verified normal form."""
    for X, rank in ((tripled_line(), 4), (doubled_line(), 2),
                    (plain_line(), 1)):
        group, _ = picard_group(X)
        assert group.describe() == {"rank": rank, "invariant_factors": []}

    rng = random.Random(20260823)
    for _ in range(20):
        X = random_curve(rng)
        group, class_of = picard_group(X)
        expected = 1 + sum(m - 1 for _, m in X.special)
        assert group.describe() == {"rank": expected,
                                    "invariant_factors": []}
        n = group.ambient_rank
        rels = group.relations
        if rels:
            M = [[rels[j][i] for j in range(len(rels))] for i in range(n)]
            _, D, _ = smith_normal_form(M)
            diag = [D[i][i] for i in range(min(n, len(rels)))]
            assert all(d in (0, 1) for d in diag)
            assert n - sum(diag) == expected
        else:
            assert n == expected
        # the class map kills exactly the principal classes recorded
        # in the relations
        for vec in rels:
            assert group.contains_zero(vec)
    print("PASS criterion 2: Picard ranks on 3 fixtures and 20 random "
          "curves, normal forms verified")


def test_criterion_3_shifting_family_laws():
    """Composition law, module law, trivial intersection with the ideal,
    dimension equality across representatives, membership of squared
    shift differences, and witness-rescaling covariance, for every class
    in the radius-2 box of the full rank-6 lattice."""
    start = time.monotonic()
    X = tripled_line()
    A = curve_algebra(X, "full")
    fam = A.family
    assert A.lattice.rank == 6
    assert len(fam.kernel) == 2
    K1, K2 = (tuple(v) for v in fam.kernel)

    scalars = [Fraction(3), Fraction(-5, 2)]
    fam2 = fam.rescaled(scalars)
    A2 = PicGradedAlgebra(A.base, fam2)

    rng = random.Random(8253)

    def random_kernel_element():
        return vadd(kmul(rng.randint(-2, 2), K1),
                    kmul(rng.randint(-2, 2), K2))

    def random_section(comp):
        while True:
            coeffs = [rng.randint(-3, 3) for _ in range(comp.dim)]
            if any(coeffs):
                break
        f = comp.basis[0] * Fraction(coeffs[0])
        for c, b in zip(coeffs[1:], comp.basis[1:]):
            if c:
                f = f + b * Fraction(c)
        return f

    box = default_box(X, 2)
    sections_used = 0
    prev = None
    for c in box:
        L = A.rep(c)
        comp = A.base.component(L)
        E1 = random_kernel_element()
        E2 = random_kernel_element()
        # every representative of the class has the component dimension
        assert comp.dim == A.component_dim(c)
        assert A.base.component_dim(vadd(L, E1)) == comp.dim
        if comp.dim == 0:
            continue
        verify_representative(A, c, vadd(L, E1))
        verify_representative(A2, c, vadd(L, E1))
        f = random_section(comp)
        sections_used += 1

        # composition: shifting by E1 + E2 equals shifting twice
        once = shift(fam, vadd(E1, E2), f, L)
        twice = shift(fam, E2, shift(fam, E1, f, L), vadd(L, E1))
        assert (once - twice).is_zero()

        # module law across components: shifting a product moves one factor
        if prev is not None:
            pL, pg = prev
            lhs = shift(fam, E1, f * pg, vadd(L, pL))
            rhs = shift(fam, E1, f, L) * pg
            assert (lhs - rhs).is_zero()
        prev = (L, f)

        # a nonzero homogeneous element never lies in the shifting ideal
        assert ideal_membership(fam, [(L, f)], [c]).verdict == "not_in_ideal"

        # the squared shift difference stays in the ideal
        h = shift(fam, E1, f, L)
        L2 = vadd(L, L)
        square = [(L2, f * f),
                  (vadd(L2, E1), f * h * Fraction(-2)),
                  (vadd(L2, vadd(E1, E1)), h * h)]
        verdict = ideal_membership(fam, square, [vadd(c, c)])
        assert verdict.verdict == "in_ideal"

        # rescaled witnesses shift by an exact character value; each
        # family recognizes its own shift differences and, when the
        # character is nonunital, rejects the other family's
        coords = fam.kernel_coords(E1)
        value = Fraction(1)
        for s, k in zip(scalars, coords):
            value *= s ** k
        h2 = shift(fam2, E1, f, L)
        assert (h2 - h * value).is_zero()
        own = [(L, f), (vadd(L, E1), h2 * Fraction(-1))]
        assert ideal_membership(fam2, own, [c]).verdict == "in_ideal"
        if value != 1:
            assert ideal_membership(fam, own, [c]).verdict == "not_in_ideal"

    assert sections_used >= 100
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print("PASS criterion 3: all laws on %d box classes, %d random "
          "sections (%.1fs)" % (len(box), sections_used, elapsed))


def test_criterion_4_lattice_pipelines_agree():
    """The kernel-free and full-lattice pipelines give identical
    dimension tables over the radius-2 box, with the degreewise
    isomorphism exhibited, on both glued fixtures."""
    for X, classes in ((tripled_line(), 625), (doubled_line(), 25)):
        result = uniqueness_crosscheck(X, radius=2)
        assert result.verdict == "pass"
        assert result.fields == {"classes": classes, "hilbert_equal": True,
                                 "iso_verified": True,
                                 "witness_multiplicative": True}
    print("PASS criterion 4: pipelines agree on 625 + 25 classes")


def test_criterion_5_toric_baseline():
    """Divisor class groups of the five standard fans; the projective
    plane presents as a polynomial ring in three variables of one
    degree with the irrelevant ideal generated by all variables; the
    free-grading check passes on every smooth complete fixture."""
    cases = [(line_fan(), {"rank": 1, "invariant_factors": []}),
             (plane_fan(), {"rank": 1, "invariant_factors": []}),
             (product_fan(line_fan(), line_fan()),
              {"rank": 2, "invariant_factors": []}),
             (hirzebruch_fan(1), {"rank": 2, "invariant_factors": []}),
             (quadric_cone_fan(), {"rank": 0, "invariant_factors": [2]})]
    for fan, expected in cases:
        group, _ = class_group(fan)
        assert group.describe() == expected

    P = cox_presentation(plane_fan())
    assert P.relations == ()
    assert [d for d, _ in P.generators] == [(1, 0, 0), (0, 1, 0),
                                            (0, 0, 1)]
    assert all(s is None for _, s in P.generators)
    group, _ = class_group(plane_fan())
    assert group.same_class((1, 0, 0), (0, 1, 0))
    assert group.same_class((1, 0, 0), (0, 0, 1))
    polys = toric_cox_data(plane_fan()).irrelevant_polynomials()
    assert sorted(str(p) for p in polys) == ["T1", "T2", "T3"]

    smooth_complete = [line_fan(), plane_fan(),
                       product_fan(line_fan(), line_fan()),
                       hirzebruch_fan(1)]
    for fan in smooth_complete:
        irr = toric_cox_data(fan).irrelevant_polynomials()
        assert freely_graded_check(cox_presentation(fan), irr,
                                   4).verdict == "pass"
    print("PASS criterion 5: 5 class groups, plane pattern, free "
          "grading on 4 smooth complete fans")


def test_criterion_6_products():
    """Componentwise dimensions of a tensor product are the products of
    the factor dimensions, on every box degree of line x line and
    tripled x line; the tensor of two line presentations is
    structurally equal to the presentation of the product fan."""
    # line x line through the fan pipeline
    P = cox_presentation(line_fan())
    T = tensor_presentation(P, P)
    C = cox_presentation(product_fan(line_fan(), line_fan()))
    assert T.grading.ambient_rank == C.grading.ambient_rank
    assert list(T.grading.relations) == list(C.grading.relations)
    assert T.generators == C.generators
    assert T.relations == C.relations
    assert set(T.box) == set(C.box)
    tc = {row[0]: row for row in T.certificate}
    cc = {row[0]: row for row in C.certificate}
    assert tc == cc

    # the line's class group sends an ambient ray vector to its sum
    def line_dim(vec):
        n = sum(vec)
        return n + 1 if n >= 0 else 0

    assert len(T.certificate) == 25
    for d, _, dim, _, _ in T.certificate:
        assert dim == line_dim(d[:2]) * line_dim(d[2:])

    # tripled line x plain line through the curve pipeline
    A = tripled_algebra()
    B = curve_algebra(plain_line())
    T2 = tensor_presentation(tripled_presentation(), plain_presentation())
    assert len(T2.certificate) == 625 * 5
    for d, _, dim, _, _ in T2.certificate:
        assert dim == A.component_dim(d[:6]) * B.component_dim(d[6:])
    print("PASS criterion 6: multiplicativity on %d + %d degrees, "
          "structural equality for line x line"
          % (len(T.certificate), len(T2.certificate)))


def test_criterion_7_separatedness():
    """The plain line passes the truncated surjectivity check; the
    tripled line produces a witness whose defect is confirmed at two
    consecutive truncation levels."""
    Ap = curve_algebra(plain_line())
    verdict = separatedness_check(Ap, irrelevant_sections(Ap), levels=2)
    assert verdict.verdict == "separated"
    assert verdict.fields["levels"] == 2

    A = tripled_algebra()
    elements = irrelevant_sections(A)
    v2 = separatedness_check(A, elements, levels=2)
    v3 = separatedness_check(A, elements, levels=3)
    for v in (v2, v3):
        # the verdict is only issued when the spanning defect found at
        # level n survives multiplication into level n + 1
        assert v.verdict == "not_separated"
        assert v.fields["pair"] == (0, 1)
        assert v.fields["level"] == 1
    assert str(v2.fields["witness"]) == str(v3.fields["witness"])
    si = elements[0][1]
    sj = elements[1][1]
    assert (v2.fields["shifted"] - v2.fields["witness"] * si * sj).is_zero()
    print("PASS criterion 7: plain line separated, tripled line witness "
          "%s persists at levels 1 and 2" % v2.fields["witness"])


def _det(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0
    for j, entry in enumerate(M[0]):
        if entry:
            minor = [row[:j] + row[j + 1:] for row in M[1:]]
            total += (-1) ** j * entry * _det(minor)
    return total


def random_divisor(rng, X):
    coeffs = {}
    for point in X.special_copies():
        c = rng.randint(-3, 3)
        if c:
            coeffs[point] = c
    if rng.random() < 0.5:
        base = pt(rng.choice(["7", "-2", "9", "inf"]))
        if not X.is_special(base):
            coeffs[CurvePoint(base, 0)] = rng.choice([-2, -1, 1, 2])
    return Divisor(coeffs)


def test_criterion_8_substrate_suites():
    """Normal form certificates on 200 random integer matrices, the
    section-space dimension formula against an independent ansatz count
    on 50 random divisors, and monomial enumeration against naive
    search on every rank and bound up to 6."""
    rng = random.Random(55711)

    for _ in range(200):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        M = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        U, D, V = smith_normal_form(M)
        UM = [[sum(U[i][k] * M[k][j] for k in range(n)) for j in range(m)]
              for i in range(n)]
        UMV = [[sum(UM[i][k] * V[k][j] for k in range(m))
                for j in range(m)] for i in range(n)]
        assert UMV == D
        assert abs(_det(U)) == 1
        assert abs(_det(V)) == 1
        diag = [D[i][i] for i in range(min(n, m))]
        for i in range(n):
            for j in range(m):
                if i != j:
                    assert D[i][j] == 0
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0 if a else b == 0

    curves = 0
    for _ in range(50):
        X = random_curve(rng)
        D = random_divisor(rng, X)
        dim = section_space(X, D).dim
        assert dim == max(0, min_degree(X, D) + 1)
        assert dim == ansatz_dimension(X, D)
        curves += 1

    checked = 0
    for r in range(1, 7):
        degree_map = [((i % 3) + 1,) for i in range(r)]
        for bound in range(7):
            for t in (0, 3, 6):
                naive = [e for e in itertools.product(range(bound + 1),
                                                      repeat=r)
                         if sum(e) <= bound
                         and sum(x * d[0] for x, d in zip(e, degree_map))
                         == t]
                got = enumerate_monomials(degree_map, (t,), bound=bound)
                assert list(got) == naive
                checked += 1
    # a rank-2 grading behaves the same way
    degree_map = [(1, 0), (0, 1), (1, 1), (2, 1)]
    for bound in (3, 6):
        for t in ((2, 2), (3, 1), (0, 0)):
            naive = [e for e in itertools.product(range(bound + 1),
                                                  repeat=4)
                     if sum(e) <= bound
                     and tuple(sum(x * d[i]
                                   for x, d in zip(e, degree_map))
                               for i in range(2)) == t]
            got = enumerate_monomials(degree_map, t, bound=bound)
            assert list(got) == naive
            checked += 1
    print("PASS criterion 8: 200 normal forms, %d divisor dimensions, "
          "%d enumeration cases" % (curves, checked))
