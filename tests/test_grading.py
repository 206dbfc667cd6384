"""Tests for presented abelian groups, class boxes and Smith normal form.

sympy's matrix routines serve as the independent oracle for rank and
invariant factors.
"""

import itertools

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from hypothesis import given, settings, strategies as st

from coxring import exactmath as em
from coxring.grading import (
    MAX_BOX_VECTORS,
    BoxTooLarge,
    FGAbelianGroup,
    box_vector_count,
    box_vectors,
    smith_normal_form,
    within_limit,
)

from conveniences import isomorphic


small_ints = st.integers(min_value=-9, max_value=9)


def matrices(max_dim=5):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda n: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda m: st.lists(
                st.lists(small_ints, min_size=m, max_size=m),
                min_size=n, max_size=n)))


def check_snf(M, U, D, V):
    n, m = len(M), len(M[0])
    sM = sympy.Matrix(M)
    sU = sympy.Matrix(U)
    sV = sympy.Matrix(V)
    sD = sympy.Matrix(D)
    assert sU * sM * sV == sD
    assert abs(sU.det()) == 1
    assert abs(sV.det()) == 1
    diag = [D[i][i] for i in range(min(n, m))]
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


class TestSmithNormalForm:
    def test_identity(self):
        U, D, V = smith_normal_form([[1, 0], [0, 1]])
        assert D == [[1, 0], [0, 1]]
        check_snf([[1, 0], [0, 1]], U, D, V)

    def test_diag_2_4(self):
        M = [[2, 4], [6, 8]]
        U, D, V = smith_normal_form(M)
        assert [D[0][0], D[1][1]] == [2, 4]
        check_snf(M, U, D, V)
        # |det D| = |det M| = 8
        assert D[0][0] * D[1][1] == 8

    def test_diag_1_2(self):
        M = [[1, 1], [0, 2]]
        U, D, V = smith_normal_form(M)
        assert [D[0][0], D[1][1]] == [1, 2]
        check_snf(M, U, D, V)

    @given(matrices())
    @settings(max_examples=80, deadline=None)
    def test_random_certified(self, M):
        U, D, V = smith_normal_form(M)
        check_snf(M, U, D, V)

    @given(matrices(4))
    @settings(max_examples=40, deadline=None)
    def test_invariant_factors_match_sympy(self, M):
        _, D, _ = smith_normal_form(M)
        diag = [D[i][i] for i in range(min(len(M), len(M[0])))]
        mine = [d for d in diag if d != 0]
        theirs = sorted(abs(int(x))
                        for x in sympy_snf(sympy.Matrix(M)).diagonal()
                        if x != 0)
        assert mine == theirs


def product(A, B):
    cols = list(zip(*B))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols]
            for row in A]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


class TestSmithInverses:
    """_smith mirrors every operation on U and V onto their inverses, and
    smith_normal_form certifies unimodularity by those inverses."""

    # 0 by m matrices are the empty row list; n by 0 have empty rows
    @given(st.integers(min_value=0, max_value=5).flatmap(
        lambda n: st.integers(min_value=0, max_value=5).flatmap(
            lambda m: st.lists(
                st.lists(small_ints, min_size=m, max_size=m),
                min_size=n, max_size=n))))
    @settings(max_examples=120, deadline=None)
    def test_inverses_are_exact(self, M):
        U, D, V, Uinv, Vinv = em._smith(M)
        n, m = len(U), len(V)
        assert n == len(M)
        assert product(U, Uinv) == identity(n)
        assert product(Uinv, U) == identity(n)
        assert product(V, Vinv) == identity(m)
        assert product(Vinv, V) == identity(m)
        assert product(product(U, M), V) == D

    def test_groups_without_relations_keep_their_data(self):
        G = FGAbelianGroup(3)
        assert G.cached_snf == (identity(3), [[], [], []], [])
        G = FGAbelianGroup(0)
        assert G.cached_snf == ([], [], [])

    @pytest.mark.parametrize("spoil", [3, 4])
    def test_wrong_inverse_is_caught(self, monkeypatch, spoil):
        honest = em._smith

        def spoiled(A):
            out = list(honest(A))
            out[spoil] = [row[:] for row in out[spoil]]
            out[spoil][0][0] += 1
            return tuple(out)

        monkeypatch.setattr(em, "_smith", spoiled)
        with pytest.raises(AssertionError, match="not unimodular"):
            smith_normal_form([[2, 4], [6, 8]])


class TestBoxLimit:
    def test_eleven_generators_at_radius_two_refused(self):
        G = FGAbelianGroup(11)
        assert 5 ** 11 > MAX_BOX_VECTORS
        with pytest.raises(BoxTooLarge, match="48828125"):
            G.box(units(11), 2)
        assert G.box(units(11), 0) == ((0,) * 11,)

    def test_count_too_long_to_print_is_refused(self):
        # 3^100001 has more decimal digits than str() of an int allows
        with pytest.raises(BoxTooLarge, match=r"lists 3\^100001 coefficient"):
            box_vector_count(100001, 1)
        assert box_vector_count(100001, 0) == 1
        assert box_vector_count(12, 1) == 3 ** 12

    def test_huge_power_is_never_built(self):
        k = 99999999999999999999999
        with pytest.raises(BoxTooLarge, match=r"lists 5\^%d coefficient" % k):
            box_vector_count(k, 2)
        assert box_vector_count(k, 0) == 1

    @pytest.mark.parametrize("radius", [1, 2, 3, 7])
    def test_refusals_match_the_built_power(self, radius):
        # the message of within_limit on the whole power, across the
        # 1000-bit switch from digits to b^k
        base = 2 * radius + 1
        # past the last k that box_vector_count multiplies out in full
        for k in range(1, 1000 // (base.bit_length() - 1) + 40):
            try:
                expected = within_limit(
                    base ** k, MAX_BOX_VECTORS,
                    "a box of radius %d over %d generators lists %%s "
                    "coefficient vectors" % (radius, k), power=(base, k))
            except BoxTooLarge as exc:
                with pytest.raises(BoxTooLarge) as got:
                    box_vector_count(k, radius)
                assert str(got.value) == str(exc)
            else:
                assert box_vector_count(k, radius) == expected


def units(k):
    return [tuple(int(i == j) for j in range(k)) for i in range(k)]


def sorted_product_box(generators, radius, ambient_rank):
    """The box as a sorted materialised product: every coefficient vector,
    sorted by sum |c_k| and then by -c, each mapped to its combination."""
    coefficients = sorted(
        itertools.product(range(-radius, radius + 1), repeat=len(generators)),
        key=lambda c: (sum(abs(x) for x in c), tuple(-x for x in c)))
    return [tuple(sum(x * g[i] for x, g in zip(c, generators))
                  for i in range(ambient_rank))
            for c in coefficients]


def class_key_box(G, generators, radius):
    """The distinct classes of the box by one class_key per vector."""
    out, seen = [], set()
    for amb in sorted_product_box(generators, radius, G.ambient_rank):
        if G.class_key(amb) not in seen:
            seen.add(G.class_key(amb))
            out.append(amb)
    return tuple(out)


def layer_coefficients(k, radius):
    """The coefficient vectors by the recursive layer walk the partial-sum
    walk replaced: one recursion level per generator."""

    def layer(k, total):
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

    if k == 0:
        return [()]
    return [c for total in range(k * radius + 1) for c in layer(k, total)]


def dot_box_vectors(generators, radius, ambient_rank):
    """The layer walk with one dot product per ambient coordinate."""
    columns = list(zip(*generators)) or [()] * ambient_rank
    return [tuple(em._dot(c, col) for col in columns)
            for c in layer_coefficients(len(generators), radius)]


def dot_group_box(G, generators, radius):
    """FGAbelianGroup.box with linear keys by one dot product each."""
    nfree = G.rank
    columns = list(zip(*generators)) or [()] * G.ambient_rank
    key_columns = (list(zip(*(G.class_key(g) for g in generators)))
                   or [()] * (nfree + len(G.invariant_factors)))
    out, seen = [], set()
    for c in layer_coefficients(len(generators), radius):
        key = [em._dot(c, col) for col in key_columns]
        for i, d in enumerate(G.invariant_factors, nfree):
            key[i] %= d
        if tuple(key) not in seen:
            seen.add(tuple(key))
            out.append(tuple(em._dot(c, col) for col in columns))
    return tuple(out)


class TestBoxOrder:
    """The partial-sum box walk against the sorted product, against the
    layer walk with dot products that it replaced, and the linear class
    keys of FGAbelianGroup.box against one class_key per vector."""

    @given(st.integers(min_value=0, max_value=4),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_coefficients_match_the_sorted_product(self, k, radius):
        assert box_vectors(units(k), radius, k) == sorted_product_box(
            units(k), radius, k)

    @given(st.integers(min_value=0, max_value=4).flatmap(
        lambda k: st.lists(st.lists(small_ints, min_size=2, max_size=2),
                           min_size=k, max_size=k)),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_vectors_match_the_sorted_product(self, generators, radius):
        assert box_vectors(generators, radius, 2) == sorted_product_box(
            generators, radius, 2)

    @given(st.integers(min_value=0, max_value=3).flatmap(
        lambda n: st.integers(min_value=0, max_value=5).flatmap(
            lambda k: st.lists(st.lists(small_ints, min_size=n, max_size=n),
                               min_size=k, max_size=k)).map(
                                   lambda g: (n, g))),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_vectors_match_the_dot_product_walk(self, shaped, radius):
        n, generators = shaped
        got = box_vectors(generators, radius, n)
        assert got == dot_box_vectors(generators, radius, n)
        assert all(type(x) is int for v in got for x in v)

    @given(st.lists(st.lists(small_ints, min_size=3, max_size=3),
                    min_size=0, max_size=3),
           st.integers(min_value=0, max_value=5).flatmap(
               lambda k: st.lists(st.lists(small_ints, min_size=3,
                                           max_size=3),
                                  min_size=k, max_size=k)),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_group_box_matches_the_dot_product_walk(self, rels, generators,
                                                    radius):
        G = FGAbelianGroup(3, rels)
        assert G.box(generators, radius) == dot_group_box(G, generators,
                                                          radius)

    @given(st.lists(st.lists(small_ints, min_size=3, max_size=3),
                    min_size=0, max_size=3),
           st.integers(min_value=0, max_value=3).flatmap(
               lambda k: st.lists(st.lists(small_ints, min_size=3,
                                           max_size=3),
                                  min_size=k, max_size=k)),
           st.integers(min_value=0, max_value=2))
    @settings(max_examples=60, deadline=None)
    def test_linear_keys_match_class_key(self, rels, generators, radius):
        # torsion parts come from relations such as (2, 0, 0)
        G = FGAbelianGroup(3, rels)
        assert G.box(generators, radius) == class_key_box(G, generators,
                                                          radius)

    def test_torsion_box(self):
        # Z^2 / <(1,0),(1,2)> = Z/2: two classes, the second at (0, 1)
        G = FGAbelianGroup(2, [(1, 0), (1, 2)])
        assert G.box([(0, 1)], 3) == ((0, 0), (0, 1))

    def test_refused_before_any_vector(self):
        with pytest.raises(BoxTooLarge):
            box_vectors(units(11), 2, 11)

    def test_many_generators_do_not_recurse(self):
        # one level per generator would pass the recursion limit
        assert box_vectors([(1,)] * 3000, 0, 1) == [(0,)]
        G = FGAbelianGroup(2)
        assert G.box([(1, 0)] * 3000, 0) == ((0, 0),)


class TestFGAbelianGroup:
    def test_free_group(self):
        G = FGAbelianGroup(3)
        assert G.rank == 3
        assert G.invariant_factors == ()

    def test_torsion_group(self):
        # Z^2 / <(1,0),(1,2)> = Z/2
        G = FGAbelianGroup(2, [(1, 0), (1, 2)])
        assert G.rank == 0
        assert G.invariant_factors == (2,)

    def test_rank_four_cokernel_presentation(self):
        rels = [(1, 1, 0, 0, -1, -1), (0, 0, 1, 1, -1, -1)]
        G = FGAbelianGroup(6, rels)
        assert G.rank == 4
        assert G.invariant_factors == ()

    def test_contains_zero_and_coords(self):
        G = FGAbelianGroup(2, [(2, 0)])
        assert G.contains_zero((2, 0))
        assert G.contains_zero((-4, 0))
        assert not G.contains_zero((1, 0))
        assert not G.contains_zero((0, 1))
        a = G.class_key((3, 5))
        b = G.class_key((1, 5))
        c = G.class_key((0, 5))
        assert a == b
        assert a != c

    @given(st.lists(st.lists(small_ints, min_size=3, max_size=3),
                    min_size=0, max_size=3),
           st.lists(small_ints, min_size=3, max_size=3),
           st.lists(small_ints, min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_coords_separate_classes(self, rels, v, w):
        G = FGAbelianGroup(3, rels)
        diff = [a - b for a, b in zip(v, w)]
        same = em._hnf_coords(em._hnf_rows(rels), diff) is not None
        assert G.same_class(v, w) == same
        assert (G.class_key(v) == G.class_key(w)) == same

    @given(st.lists(st.lists(small_ints, min_size=3, max_size=3),
                    min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_presentation_independence(self, cols):
        # adding a sum of relation columns leaves their span unchanged
        extra = [a + b for a, b in zip(cols[0], cols[-1])]
        G1 = FGAbelianGroup(3, cols)
        G2 = FGAbelianGroup(3, cols + [extra])
        assert G1.rank == G2.rank
        assert G1.invariant_factors == G2.invariant_factors
        assert isomorphic(G1, G2)

    def test_describe(self):
        G = FGAbelianGroup(2, [(1, 0), (1, 2)])
        assert G.describe() == {"rank": 0, "invariant_factors": [2]}
