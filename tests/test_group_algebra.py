import random

from fractions import Fraction

import pytest

from hypothesis import given, settings, strategies as st

from lie_elements.group_algebra import GroupAlgebraElement, \
    UnsupportedUnitError
from lie_elements.perm import DegreeMismatchError, Permutation, \
    all_permutations
from oracles import element_from_json, random_element


class TestLinearStructure:
    def test_zero_and_one(self):
        z = GroupAlgebraElement.zero(3)
        e = GroupAlgebraElement.one(3)
        assert z.is_zero()
        assert e.coeff(Permutation.identity(3)) == 1
        assert (e - e).is_zero()

    def test_cancellation(self):
        a = GroupAlgebraElement.from_cycles(3, [(1, 2)], 2)
        b = GroupAlgebraElement.from_cycles(3, [(1, 2)], -2)
        assert (a + b).is_zero()

    def test_scale(self):
        a = GroupAlgebraElement.from_cycles(3, [(1, 2)], Fraction(1, 2))
        assert a.scale(4).coeff(Permutation.from_cycles(3, [(1, 2)])) == 2
        assert a.scale(0).is_zero()

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            GroupAlgebraElement.one(3) + GroupAlgebraElement.one(4)


class TestRingStructure:
    def test_multiply_matches_composition(self):
        rng = random.Random(12)
        perms = all_permutations(4)
        for _ in range(20):
            p, q = rng.choice(perms), rng.choice(perms)
            x = GroupAlgebraElement.from_permutation(p)
            y = GroupAlgebraElement.from_permutation(q)
            assert x * y == GroupAlgebraElement.from_permutation(p * q)

    def test_one_is_unit(self):
        rng = random.Random(13)
        x = random_element(4, rng, 4)
        e = GroupAlgebraElement.one(4)
        assert e * x == x and x * e == x

    def test_associativity_random(self):
        rng = random.Random(14)
        for _ in range(10):
            x, y, z = (random_element(3, rng, 3) for _ in range(3))
            assert (x * y) * z == x * (y * z)

    def test_bracket_alternating(self):
        rng = random.Random(15)
        x = random_element(4, rng, 4)
        assert x.bracket(x).is_zero()

    def test_jacobi_identity(self):
        rng = random.Random(16)
        for n in (3, 4, 5):
            for _ in range(3):
                x = random_element(n, rng, 5)
                y = random_element(n, rng, 5)
                z = random_element(n, rng, 5)
                total = (x.bracket(y.bracket(z))
                         + y.bracket(z.bracket(x))
                         + z.bracket(x.bracket(y)))
                assert total.is_zero()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), *[st.lists(st.tuples(
            st.sampled_from(all_permutations(n)),
            st.fractions(min_value=-9, max_value=9, max_denominator=6)),
            max_size=4)] * 3)))
    def test_jacobi_identity_property(self, drawn):
        n, *term_lists = drawn
        x, y, z = (GroupAlgebraElement(n, dict(terms))
                   for terms in term_lists)
        total = (x.bracket(y.bracket(z)) + y.bracket(z.bracket(x))
                 + z.bracket(x.bracket(y)))
        assert total.is_zero()

    def test_conjugation_is_bracket_automorphism(self):
        rng = random.Random(17)
        perms = all_permutations(4)
        for _ in range(10):
            sigma = rng.choice(perms)
            x = random_element(4, rng, 4)
            y = random_element(4, rng, 4)
            lhs = x.bracket(y).conjugate_by(sigma)
            rhs = x.conjugate_by(sigma).bracket(y.conjugate_by(sigma))
            assert lhs == rhs

    def test_conjugation_needs_group_element(self):
        x = GroupAlgebraElement.one(3)
        with pytest.raises(UnsupportedUnitError):
            x.conjugate_by(GroupAlgebraElement.one(3))


class TestFunctionals:
    def test_coeff_sum(self):
        x = (GroupAlgebraElement.one(3)
             - GroupAlgebraElement.from_cycles(3, [(1, 2)]))
        assert x.coeff_sum() == 0
        assert GroupAlgebraElement.one(3).coeff_sum() == 1

    def test_iota_fixes_new_point(self):
        x = GroupAlgebraElement.from_cycles(3, [(1, 2, 3)], Fraction(2, 3))
        y = x.iota()
        assert y.n == 4
        perm = Permutation.from_cycles(4, [(1, 2, 3)])
        assert y.coeff(perm) == Fraction(2, 3)

    def test_iota_is_bracket_homomorphism(self):
        rng = random.Random(18)
        for _ in range(5):
            x = random_element(3, rng, 4)
            y = random_element(3, rng, 4)
            assert x.bracket(y).iota() == x.iota().bracket(y.iota())


class TestSerialization:
    def test_json_round_trip(self):
        rng = random.Random(19)
        x = random_element(4, rng, 6)
        assert element_from_json(x.to_json()) == x

    def test_str_rendering(self):
        x = (GroupAlgebraElement.one(3)
             - GroupAlgebraElement.from_cycles(3, [(1, 2)]))
        assert str(x) == "1 - (1 2)"

    def test_str_coefficients(self):
        # identity, unit, negative, non-unit and polynomial coefficients;
        # a coefficient of several terms prints in parentheses
        from lie_elements.exactmath import MultiPoly
        x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
        e = Permutation.identity(3)
        t = Permutation.from_cycles(3, [(1, 2)])
        c = Permutation.from_cycles(3, [(1, 2, 3)])
        for terms, text in [
                ({}, "0"),
                ({e: 1}, "1"),
                ({e: -1}, "-1"),
                ({e: 2, t: -3}, "2*1 - 3*(1 2)"),
                ({c: -1, t: Fraction(1, 2), e: 1}, "1 + 1/2*(1 2) - (1 2 3)"),
                ({t: Fraction(-2, 3), c: Fraction(2, 3)},
                 "-2/3*(1 2) + 2/3*(1 2 3)"),
                ({t: x, c: -y}, "x*(1 2) - y*(1 2 3)"),
                ({e: MultiPoly.constant(-1), c: x}, "-1 + x*(1 2 3)"),
                ({e: x - 1, t: x}, "(x - 1)*1 + x*(1 2)"),
                ({e: MultiPoly.constant(-1), t: -x + y},
                 "-1 + (-x + y)*(1 2)"),
                ({e: 3 * x * y, t: -(x * x)}, "3*x*y*1 - x^2*(1 2)")]:
            element = GroupAlgebraElement(3, terms)
            assert str(element) == text
            assert repr(element) == "GroupAlgebraElement(n=3, %s)" % text
