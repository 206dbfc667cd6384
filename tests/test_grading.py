"""Tests for presented abelian groups, Smith normal form, and characters.

sympy's matrix routines serve as the independent oracle for rank and
invariant factors.
"""

from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from hypothesis import given, settings, strategies as st

from coxring import exactmath as em
from coxring.grading import (
    MAX_BOX_VECTORS,
    BoxTooLarge,
    Character,
    FGAbelianGroup,
    GroupHom,
    Obstructed,
    cokernel,
    extend_character,
    lift_onto_free,
    smith_normal_form,
)


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
        assert G._uinv == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        G = FGAbelianGroup(0)
        assert G.cached_snf == ([], [], [])
        assert G._uinv == ()

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
        G = FGAbelianGroup.free(11)
        units = [tuple(int(i == j) for j in range(11)) for i in range(11)]
        assert 5 ** 11 > MAX_BOX_VECTORS
        with pytest.raises(BoxTooLarge, match="48828125"):
            G.box(units, 2)
        assert G.box(units, 0) == ((0,) * 11,)


class TestFGAbelianGroup:
    def test_free_group(self):
        G = FGAbelianGroup.free(3)
        assert G.rank == 3
        assert G.invariant_factors == ()
        assert G.is_free()

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

    def test_canonical_representative(self):
        G = FGAbelianGroup(2, [(2, 0)])
        r1 = G.canonical_representative((3, 5))
        r2 = G.canonical_representative((1, 5))
        assert r1 == r2
        assert G.same_class(r1, (3, 5))

    @given(st.lists(st.lists(small_ints, min_size=3, max_size=3),
                    min_size=0, max_size=3),
           st.lists(small_ints, min_size=3, max_size=3),
           st.lists(small_ints, min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_coords_separate_classes(self, rels, v, w):
        G = FGAbelianGroup(3, rels)
        same = G.same_class(v, w)
        assert (G.class_key(v) == G.class_key(w)) == same

    def test_describe(self):
        G = FGAbelianGroup(2, [(1, 0), (1, 2)])
        assert G.describe() == {"rank": 0, "invariant_factors": [2]}


class TestGroupHom:
    def test_well_defined_check(self):
        Z2 = FGAbelianGroup(1, [(2,)])
        Z = FGAbelianGroup.free(1)
        # reduction Z -> Z/2 is fine
        GroupHom(Z, Z2, [[1]])
        # Z/2 -> Z via identity is not well defined
        with pytest.raises(ValueError):
            GroupHom(Z2, Z, [[1]])

    def test_apply_and_surjective(self):
        Z = FGAbelianGroup.free(1)
        Z2 = FGAbelianGroup.free(2)
        diag = GroupHom(Z2, Z2, [[1, 0], [0, 2]])
        assert diag.apply((1, 1)) == (1, 2)
        assert not diag.is_surjective()
        assert GroupHom(Z2, Z, [[1, 1]]).is_surjective()

    def test_kernel_lattice(self):
        Z2 = FGAbelianGroup.free(2)
        Z = FGAbelianGroup.free(1)
        f = GroupHom(Z2, Z, [[1, 1]])
        ker = f.kernel_lattice()
        assert len(ker) == 1
        v = ker[0]
        assert v[0] + v[1] == 0 and v != (0, 0)


class TestCokernel:
    def test_zero_map(self):
        Z2 = FGAbelianGroup.free(2)
        G, proj = cokernel(GroupHom(Z2, Z2, [[0, 0], [0, 0]]))
        assert G.rank == 2 and G.invariant_factors == ()
        assert proj.apply((1, 2)) == (1, 2)

    def test_rank_four(self):
        Z2 = FGAbelianGroup.free(2)
        Z6 = FGAbelianGroup.free(6)
        cols = [(1, 1, 0, 0, -1, -1), (0, 0, 1, 1, -1, -1)]
        f = GroupHom(Z2, Z6, [[cols[j][i] for j in range(2)]
                              for i in range(6)])
        G, proj = cokernel(f)
        assert G.rank == 4 and G.invariant_factors == ()
        # projection kills the image
        assert G.contains_zero(proj.apply(f.apply((1, 0))))
        assert G.contains_zero(proj.apply(f.apply((0, 1))))

    def test_z_mod_2(self):
        Z2 = FGAbelianGroup.free(2)
        f = GroupHom(Z2, Z2, [[1, 1], [0, 2]])
        G, _ = cokernel(f)
        assert G.rank == 0 and G.invariant_factors == (2,)

    @given(st.lists(st.lists(small_ints, min_size=3, max_size=3),
                    min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_presentation_independence(self, cols):
        # doubling each generator of the subgroup leaves the span unchanged
        Z3 = FGAbelianGroup.free(3)
        src1 = FGAbelianGroup.free(len(cols))
        m1 = [[cols[j][i] for j in range(len(cols))] for i in range(3)]
        G1, _ = cokernel(GroupHom(src1, Z3, m1))
        cols2 = cols + [[a + b for a, b in zip(cols[0], cols[-1])]]
        src2 = FGAbelianGroup.free(len(cols2))
        m2 = [[cols2[j][i] for j in range(len(cols2))] for i in range(3)]
        G2, _ = cokernel(GroupHom(src2, Z3, m2))
        assert G1.isomorphic(G2)


class TestLiftOntoFree:
    def test_free_identity(self):
        G = FGAbelianGroup.free(3)
        L, onto = lift_onto_free(G)
        assert L.rank == 3
        assert onto.is_surjective()

    def test_cyclic(self):
        G = FGAbelianGroup(1, [(2,)])
        L, onto = lift_onto_free(G)
        assert L.rank == 1
        assert onto.is_surjective()

    def test_mixed(self):
        # Z^4 + Z/2 presented on ambient Z^5
        G = FGAbelianGroup(5, [(0, 0, 0, 0, 2)])
        L, onto = lift_onto_free(G)
        assert L.rank == 5
        assert onto.is_surjective()

    @given(st.lists(st.lists(small_ints, min_size=4, max_size=4),
                    min_size=0, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_rank_is_minimal_generator_count(self, rels):
        G = FGAbelianGroup(4, rels)
        L, onto = lift_onto_free(G)
        assert L.rank == G.rank + len(G.invariant_factors)
        assert onto.is_surjective()


class TestCharacter:
    def test_evaluation(self):
        Z2 = FGAbelianGroup.free(2)
        c = Character(Z2, [2, 3])
        assert c((1, 1)) == 6
        assert c((-1, 2)) == Fraction(9, 2)
        assert c((0, 0)) == 1

    def test_rejects_zero_value(self):
        with pytest.raises(ValueError):
            Character(FGAbelianGroup.free(1), [0])

    def test_extend_identity(self):
        Z2 = FGAbelianGroup.free(2)
        c = Character(Z2, [2, 3])
        emb = GroupHom(Z2, Z2, [[1, 0], [0, 1]])
        assert extend_character(c, emb) == c

    def test_extend_square_root(self):
        Z = FGAbelianGroup.free(1)
        c = Character(Z, [4])
        emb = GroupHom(Z, Z, [[2]])
        ext = extend_character(c, emb)
        assert ext.values[0] == 2
        assert ext((2,)) == 4

    def test_extend_obstructed(self):
        Z = FGAbelianGroup.free(1)
        c = Character(Z, [2])
        emb = GroupHom(Z, Z, [[2]])
        with pytest.raises(Obstructed) as exc:
            extend_character(c, emb)
        assert exc.value.prime == 2
        assert exc.value.exponent == 1
        assert exc.value.divisor == 2

    def test_extend_saturated_always_works(self):
        # span{(1,1,0),(0,1,1)} is saturated in Z^3: extension basis-wise
        Z2 = FGAbelianGroup.free(2)
        Z3 = FGAbelianGroup.free(3)
        emb = GroupHom(Z2, Z3, [[1, 0], [1, 1], [0, 1]])
        c = Character(Z2, [Fraction(5, 3), 7])
        ext = extend_character(c, emb)
        assert ext(emb.apply((1, 0))) == Fraction(5, 3)
        assert ext(emb.apply((0, 1))) == 7

    @given(st.lists(st.fractions(min_value=Fraction(1, 9), max_value=9,
                                 max_denominator=9),
                    min_size=2, max_size=2))
    @settings(max_examples=30, deadline=None)
    def test_extend_restricts_correctly(self, vals):
        Z2 = FGAbelianGroup.free(2)
        Z3 = FGAbelianGroup.free(3)
        emb = GroupHom(Z2, Z3, [[1, 0], [2, 1], [0, 3]])
        c = Character(Z2, vals)
        try:
            ext = extend_character(c, emb)
        except Obstructed:
            return
        assert ext(emb.apply((1, 0))) == c((1, 0))
        assert ext(emb.apply((0, 1))) == c((0, 1))
        assert ext(emb.apply((2, -1))) == c((2, -1))
