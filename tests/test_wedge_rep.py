import random

from fractions import Fraction

import pytest

from lie_elements.exactmath import ExactMatrix
from lie_elements.group_algebra import GroupAlgebraElement
from lie_elements.lie_generators import kappa, nu
from lie_elements.perm import Permutation, all_permutations
from lie_elements.wedge_rep import (ResourceLimitError, WedgeBasis,
                                    action_matrix, action_rank, alg_matrix,
                                    grp_matrix, is_lie, kernel_dim,
                                    lie_space, sort_with_sign)


class TestWedgeBasis:
    def test_sizes(self):
        assert len(WedgeBasis(5, 2)) == 10
        assert len(WedgeBasis(5, 0)) == 1
        assert len(WedgeBasis(5, 5)) == 1

    def test_sort_with_sign(self):
        assert sort_with_sign((2, 1, 3)) == ((1, 2, 3), -1)
        assert sort_with_sign((3, 2, 1)) == ((1, 2, 3), -1)
        assert sort_with_sign((1, 2, 3)) == ((1, 2, 3), 1)
        assert sort_with_sign((1, 2, 2)) is None


class TestActions:
    def test_grp_is_multiplicative(self):
        rng = random.Random(21)
        perms = all_permutations(4)
        for _ in range(10):
            x = GroupAlgebraElement.from_permutation(rng.choice(perms))
            y = GroupAlgebraElement.from_permutation(rng.choice(perms))
            for m in range(5):
                assert (grp_matrix(x * y, m)
                        == grp_matrix(x, m) @ grp_matrix(y, m))

    def test_top_wedge_sign_and_fixed_points(self):
        # on the top wedge the multiplicative action is the sign and the
        # derivation action counts fixed points
        for p in all_permutations(4):
            x = GroupAlgebraElement.from_permutation(p)
            assert grp_matrix(x, 4).data[0][0] == p.sign()
            fixed = sum(1 for i in range(1, 5) if p(i) == i)
            assert alg_matrix(x, 4).data[0][0] == fixed

    def test_m1_actions_agree(self):
        rng = random.Random(22)
        perms = all_permutations(4)
        x = GroupAlgebraElement.zero(4)
        for _ in range(5):
            x = x + GroupAlgebraElement.from_permutation(
                rng.choice(perms), rng.randint(-3, 3))
        assert grp_matrix(x, 1) == alg_matrix(x, 1)

    def test_m0(self):
        x = GroupAlgebraElement.one(3).scale(Fraction(5, 2))
        assert grp_matrix(x, 0).data[0][0] == Fraction(5, 2)
        assert alg_matrix(x, 0).data[0][0] == 0


class TestIsLie:
    def test_generators_pass(self):
        assert is_lie(kappa(4, 1, 3))
        assert is_lie(nu(4, 1, 2, 4))

    def test_non_lie(self):
        assert not is_lie(GroupAlgebraElement.one(3))
        assert not is_lie(GroupAlgebraElement.from_cycles(3, [(1, 2)]))


class TestLieSpace:
    def test_n2_is_kappa_line(self):
        space = lie_space(2)
        assert space.dim == 1
        basis = space.basis[0]
        k = kappa(2, 1, 2)
        # proportional to the transposition difference
        ratio = basis.coeff(Permutation.identity(2))
        assert basis == k.scale(ratio)

    def test_n3_dim_and_membership(self):
        space = lie_space(3)
        assert space.dim == 4
        for b in space.basis:
            assert is_lie(b)
            assert b.coeff_sum() == 0

    def test_deterministic(self):
        a = lie_space(3)
        b = lie_space(3)
        assert a.basis == b.basis

    def test_resource_bound(self):
        with pytest.raises(ResourceLimitError):
            lie_space(7)

    def test_closed_under_bracket_n3(self):
        from lie_elements.lie_generators import span_rank
        space = lie_space(3)
        rank = span_rank(space.basis)
        for a in space.basis:
            for b in space.basis:
                extended = list(space.basis) + [a.bracket(b)]
                assert span_rank(extended) == rank


class TestActionMatrix:
    def test_permutation_matrix(self):
        x = GroupAlgebraElement.from_cycles(3, [(1, 2, 3)])
        m = action_matrix(x, "permutation")
        # v_1 -> v_2 etc.
        assert m.data[1][0] == 1 and m.data[2][1] == 1 and m.data[0][2] == 1

    def test_permutation_is_first_wedge_power(self):
        rng = random.Random(29)
        for n in (3, 4, 5):
            perms = all_permutations(n)
            for _ in range(5):
                x = GroupAlgebraElement(n, {
                    rng.choice(perms): Fraction(rng.randint(-9, 9),
                                                rng.randint(1, 5))
                    for _ in range(4)})
                assert action_matrix(x, "permutation") == grp_matrix(x, 1)
                assert action_matrix(x) == grp_matrix(x, 1)

    def test_reflection_consistency(self):
        # the reflection matrix is the permutation action restricted to
        # the zero-sum hyperplane in the basis v_i - v_n
        rng = random.Random(23)
        perms = all_permutations(4)
        for _ in range(10):
            x = GroupAlgebraElement.from_permutation(
                rng.choice(perms), rng.randint(-3, 3))
            P = action_matrix(x, "permutation")
            R = action_matrix(x, "reflection")
            n = 4
            for j in range(1, n):
                image = [P.data[i][j - 1] - P.data[i][n - 1]
                         for i in range(n)]
                # the image has zero coefficient sum, so its b-basis
                # coordinates are just the v_i coefficients for i < n
                for i in range(1, n):
                    assert R.data[i - 1][j - 1] == image[i - 1]

    def test_unknown_representation(self):
        with pytest.raises(ValueError):
            action_matrix(GroupAlgebraElement.one(3), "spin")


class TestKernelDim:
    def test_small_values(self):
        assert kernel_dim(2) == (1, 0)
        assert kernel_dim(3) == (4, 0)
        assert kernel_dim(4) == (13, 4)

    def test_n5(self):
        assert kernel_dim(5) == (66, 50)

    def test_precomputed_space(self):
        for n in (2, 3, 4):
            assert kernel_dim(n, space=lie_space(n)) == kernel_dim(n)

    def test_action_rank_flattens_actions(self):
        # kappa_12 and kappa_13 act by independent matrices, and their
        # sum adds no rank
        xs = [kappa(3, 1, 2), kappa(3, 1, 3)]
        assert action_rank(xs) == 2
        assert action_rank(xs + [xs[0] + xs[1]]) == 2
        assert action_rank([GroupAlgebraElement.zero(3)]) == 0


class TestLieSpaceN6:
    def test_dim(self):
        assert lie_space(6).dim == 493
