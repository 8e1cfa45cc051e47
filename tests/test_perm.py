import random

import pytest

from lie_elements.perm import (DegreeMismatchError, InvalidCycleError,
                               Permutation, all_permutations)


class TestConstruction:
    def test_from_cycles(self):
        p = Permutation.from_cycles(4, [(1, 2, 3)])
        assert p(1) == 2 and p(2) == 3 and p(3) == 1 and p(4) == 4

    def test_identity(self):
        assert Permutation.identity(3).is_identity()

    def test_invalid_cycle_repeat(self):
        with pytest.raises(InvalidCycleError):
            Permutation.from_cycles(3, [(1, 2), (2, 3)])

    def test_invalid_cycle_range(self):
        with pytest.raises(InvalidCycleError):
            Permutation.from_cycles(3, [(1, 4)])


class TestComposition:
    def test_left_action_example(self):
        # (12)(23) composes to (123): the right factor acts first
        left = Permutation.from_cycles(3, [(1, 2)])
        right = Permutation.from_cycles(3, [(2, 3)])
        assert left * right == Permutation.from_cycles(3, [(1, 2, 3)])

    def test_compose_pointwise(self):
        rng = random.Random(4)
        perms = all_permutations(4)
        for _ in range(30):
            a, b = rng.choice(perms), rng.choice(perms)
            c = a * b
            for i in range(1, 5):
                assert c(i) == a(b(i))

    def test_inverse(self):
        for p in all_permutations(4):
            assert (p * p.inverse()).is_identity()

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            Permutation.identity(3) * Permutation.identity(4)

    def test_compose_equals_checked_construction(self):
        # compose skips the bijection check of Permutation(...); its result
        # must be the permutation that the checked constructor builds
        perms = all_permutations(4)
        for a in perms:
            for b in perms:
                c = a.compose(b)
                assert c == Permutation([a(b(i)) for i in range(1, 5)])
                assert type(c.images) is tuple and hash(c) == hash(c.images)


class TestCyclesAndSign:
    def test_cycles_sorted(self):
        p = Permutation.from_cycles(5, [(4, 5), (1, 3, 2)])
        assert p.cycles() == [(1, 3, 2), (4, 5)]

    def test_sign_multiplicative(self):
        rng = random.Random(8)
        perms = all_permutations(4)
        for _ in range(40):
            a, b = rng.choice(perms), rng.choice(perms)
            assert (a * b).sign() == a.sign() * b.sign()

    def test_sign_transposition(self):
        assert Permutation.transposition(5, 2, 4).sign() == -1

    def test_sign_cycle_count_formula(self):
        for p in all_permutations(4):
            assert p.sign() == (-1) ** (p.n + p.cycle_count())


class TestMisc:
    def test_extend(self):
        p = Permutation.from_cycles(3, [(1, 2)])
        q = p.extend(5)
        assert q.n == 5 and q(1) == 2 and q(4) == 4 and q(5) == 5

    def test_str(self):
        assert str(Permutation.identity(3)) == "()"
        assert str(Permutation.from_cycles(4, [(1, 2, 4)])) == "(1 2 4)"

    def test_all_permutations_count_and_order(self):
        perms = all_permutations(4)
        assert len(perms) == 24
        assert perms == sorted(perms)
        assert len(set(perms)) == 24
