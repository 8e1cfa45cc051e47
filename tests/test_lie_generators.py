import random

from fractions import Fraction
from itertools import permutations

import pytest

from lie_elements import lie_generators
from lie_elements.exactmath import ExactMatrix, Span
from lie_elements.group_algebra import GroupAlgebraElement
from lie_elements.lie_generators import (all_kappas, eta,
                                         kappa, lie_closure, nu,
                                         no_invariant_line,
                                         repeated_commutator_set,
                                         span_contains, span_dims,
                                         span_rank, verify_relations)
from lie_elements.perm import Permutation, all_permutations
from lie_elements.wedge_rep import is_lie, lie_space


class TestGenerators:
    def test_kappa_terms(self):
        k = kappa(3, 1, 2)
        assert k.coeff(Permutation.identity(3)) == 1
        assert k.coeff(Permutation.from_cycles(3, [(1, 2)])) == -1
        assert len(k.terms) == 2

    def test_nu_terms(self):
        v = nu(4, 1, 2, 3)
        assert v.coeff(Permutation.from_cycles(4, [(1, 2, 3)])) == 1
        assert v.coeff(Permutation.from_cycles(4, [(1, 3, 2)])) == -1

    def test_eta_terms(self):
        e = eta(4, 1, 2, 3, 4)
        assert e.coeff(Permutation.from_cycles(4, [(1, 2, 3, 4)])) == 1
        assert e.coeff(Permutation.from_cycles(4, [(1, 4, 3, 2)])) == 1
        assert e.coeff(Permutation.from_cycles(4, [(1, 2, 4, 3)])) == -1
        assert e.coeff(Permutation.from_cycles(4, [(1, 3, 4, 2)])) == -1

    def test_repeated_index_rejected(self):
        with pytest.raises(ValueError):
            kappa(4, 1, 1)
        with pytest.raises(ValueError):
            nu(4, 1, 2, 1)
        with pytest.raises(ValueError):
            eta(4, 1, 2, 3, 3)


class TestBracketIdentities:
    def test_nu_from_kappas(self):
        assert kappa(3, 1, 2).bracket(kappa(3, 2, 3)) == nu(3, 1, 2, 3)

    def test_nu_from_kappas_all_tuples(self):
        n = 5
        for i, j, k in permutations(range(1, n + 1), 3):
            assert kappa(n, i, j).bracket(kappa(n, j, k)) == nu(n, i, j, k)

    def test_eta_from_kappa_nu_all_tuples(self):
        # [kappa_il, nu_ijk] = eta_iljk; equivalently eta_ijkl is the
        # bracket [kappa_ij, nu_ikl]
        n = 5
        for i, j, k, l in permutations(range(1, n + 1), 4):
            lhs = kappa(n, i, l).bracket(nu(n, i, j, k))
            assert lhs == eta(n, i, l, j, k)
            assert kappa(n, i, j).bracket(nu(n, i, k, l)) == eta(n, i, j, k, l)

    def test_bracket_with_self_zero(self):
        assert kappa(4, 1, 2).bracket(kappa(4, 1, 2)).is_zero()


class TestRelations:
    def test_no_violations_n4_n5(self):
        assert verify_relations(4) == []
        assert verify_relations(5, indices=(1, 3, 4, 5)) == []

    def test_three_term_relation_explicit(self):
        total = eta(4, 1, 2, 3, 4) + eta(4, 1, 3, 4, 2) + eta(4, 1, 4, 2, 3)
        assert total.is_zero()

    def test_nu_antisymmetry_explicit(self):
        assert nu(4, 2, 1, 3) == -nu(4, 1, 2, 3)
        assert nu(4, 2, 3, 1) == nu(4, 1, 2, 3)


class TestSpans:
    def test_span_dims(self):
        assert span_dims(4) == (1, 1, 2)

    def test_eta_pair_is_basis(self):
        pair = [eta(4, 1, 2, 3, 4), eta(4, 1, 3, 4, 2)]
        assert span_rank(pair) == 2
        # every index permutation stays inside the 2-dimensional span
        for p in permutations((1, 2, 3, 4)):
            assert span_rank(pair + [eta(4, *p)]) == 2

    def test_no_invariant_line(self):
        assert no_invariant_line()


def invariant_line_form(m):
    """Binary quadratic q(x, y) whose roots in P^1 are the invariant lines
    of the 2x2 matrix m: (M v) wedge v for v = (x, y)."""
    a, b = m.data[0]
    c, d = m.data[1]
    # (ax+by, cx+dy) wedge (x, y) = (ax+by)y - (cx+dy)x
    return (-c, a - d, b)  # coefficients of x^2, xy, y^2


def poly_gcd(p, q):
    """Monic gcd of univariate polynomials given as low-to-high Fraction
    coefficient tuples."""
    def norm(u):
        u = list(u)
        while u and not u[-1]:
            u.pop()
        return u

    p, q = norm(p), norm(q)
    while q:
        # p mod q
        r = p[:]
        while len(r) >= len(q) and any(r):
            if not r[-1]:
                r.pop()
                continue
            factor = r[-1] / q[-1]
            shift = len(r) - len(q)
            for t in range(len(q)):
                r[shift + t] -= factor * q[t]
            r.pop()
        p, q = q, norm(r)
    if p:
        lead = p[-1]
        p = [v / lead for v in p]
    return p


def gcd_no_common_line(matrices):
    """The invariant-line criterion no_invariant_line used before Burnside's,
    kept as its oracle: a common line is a common projective root of the
    quadratics (M v) wedge v, found by polynomial gcds over Q."""
    forms = [invariant_line_form(m) for m in matrices]
    # root at infinity (y = 0, the line through (1, 0)): needs x^2 coeff 0
    if all(f[0] == 0 for f in forms):
        return False
    # affine roots: gcd of the dehomogenized quadratics in x (y = 1)
    polys = [(Fraction(f[2]), Fraction(f[1]), Fraction(f[0])) for f in forms]
    g = polys[0]
    for q in polys[1:]:
        g = poly_gcd(g, q)
    return len(g) <= 1


class TestBurnsideCriterion:
    """_no_common_line (words of length <= 3 span all 2x2 matrices)
    against the gcd criterion it replaced."""

    def check(self, matrices):
        expected = gcd_no_common_line(matrices)
        assert lie_generators._no_common_line(matrices) == expected
        return expected

    def test_index_representation(self):
        assert self.check(lie_generators.index_rep_matrices())

    def test_common_rational_line(self):
        # upper-triangular matrices share the line of e1; so do their
        # conjugates, on the image of e1
        p = ExactMatrix([[2, 1], [1, 1]])
        p_inv = ExactMatrix([[1, -1], [-1, 2]])
        rng = random.Random(5)
        for _ in range(10):
            triple = [p @ ExactMatrix([[rng.randint(-4, 4), rng.randint(-4, 4)],
                                       [0, rng.randint(-4, 4)]]) @ p_inv
                      for _ in range(3)]
            assert not self.check(triple)

    def test_common_line_only_over_gaussian_rationals(self):
        # a 90 degree rotation fixes no rational line, but fixes (1, +-i)
        assert not self.check([ExactMatrix([[0, -1], [1, 0]])])

    def test_scalar_matrices(self):
        assert not self.check([ExactMatrix([[c, 0], [0, c]])
                               for c in (2, -1, 0)])

    def test_length_one_words_fall_short(self):
        # I, E11 and the swap span 3 dimensions; E11 * swap = E12 is the
        # length-2 word that reaches the fourth
        e11 = ExactMatrix([[1, 0], [0, 0]])
        swap = ExactMatrix([[0, 1], [1, 0]])
        assert self.check([e11, swap])

    def test_random_triples(self):
        # small entries, and half the matrices upper triangular, so that
        # shared lines and scalars are common
        rng = random.Random(29)

        def matrix():
            low = rng.randint(-2, 2) if rng.random() < 0.5 else 0
            return ExactMatrix([[rng.randint(-2, 2), rng.randint(-2, 2)],
                                [low, rng.randint(-2, 2)]])

        verdicts = [self.check([matrix() for _ in range(3)])
                    for _ in range(300)]
        assert set(verdicts) == {True, False}


class TestClosure:
    def test_closure_dims(self):
        assert len(lie_closure(all_kappas(3), 3)) == 4
        assert len(lie_closure(all_kappas(4), 4)) == 12

    def test_closure_members_are_lie(self):
        for x in lie_closure(all_kappas(3), 3):
            assert is_lie(x)

    def test_closure_contains_generator_families(self):
        closure = lie_closure(all_kappas(4), 4)
        rank = span_rank(closure)
        for extra in (nu(4, 1, 2, 3), eta(4, 1, 2, 3, 4), eta(4, 1, 3, 4, 2)):
            assert span_rank(closure + [extra]) == rank

    def test_closure_inside_solver_space(self):
        space = lie_space(4)
        closure = lie_closure(all_kappas(4), 4)
        base = span_rank(space.basis)
        assert span_rank(list(space.basis) + closure) == base

    def test_span_contains(self):
        space = lie_space(4)
        closure = lie_closure(all_kappas(4), 4)
        assert span_contains(space.basis, closure)
        assert span_contains(space.basis, [])
        # the closure spans less than the space
        assert not span_contains(closure, space.basis)
        # one closure element moved out of the span by a non-Lie element
        for k in (0, len(closure) - 1):
            moved = list(closure)
            moved[k] = moved[k] + GroupAlgebraElement.one(4)
            assert not span_contains(space.basis, moved)


class TestRepeatedCommutators:
    def test_count(self):
        assert len(repeated_commutator_set(4)) == 6
        assert len(repeated_commutator_set(5)) == 24

    def test_members_are_lie(self):
        for x in repeated_commutator_set(4):
            assert is_lie(x)

    def test_degree_below_two_rejected(self):
        # below n = 2 there is no commutator to take
        for n in (0, 1):
            with pytest.raises(ValueError):
                repeated_commutator_set(n)


class FractionEchelon:
    """The dense Fraction echelon lie_closure used before the integer
    kernel, kept as its oracle: a reduced echelon basis maintained on every
    insert."""

    def __init__(self, n):
        self.perms = all_permutations(n)
        self.rows = []

    def insert(self, x):
        vec = [x.coeff(p) for p in self.perms]
        for pivot, row in self.rows:
            if vec[pivot]:
                factor = vec[pivot]
                vec = [a - factor * b for a, b in zip(vec, row)]
        pivot = next((i for i, v in enumerate(vec) if v), None)
        if pivot is None:
            return False
        inv = Fraction(1) / vec[pivot]
        vec = [v * inv for v in vec]
        for _, row in self.rows:
            if row[pivot]:
                factor = row[pivot]
                row[:] = [a - factor * b for a, b in zip(row, vec)]
        self.rows.append((pivot, vec))
        self.rows.sort(key=lambda item: item[0])
        return True

    def elements(self, n):
        return [GroupAlgebraElement(
                    n, {self.perms[i]: c for i, c in enumerate(row) if c})
                for _, row in self.rows]


def _oracle_closure(generators, n):
    """The closure loop of test_closure_matches_fraction_echelon, over the
    oracle echelon and GroupAlgebraElement.bracket."""
    echelon = FractionEchelon(n)
    frontier = [g for g in generators if echelon.insert(g)]
    while frontier:
        frontier = [y for x in frontier for y in
                    (x.bracket(g) for g in generators)
                    if echelon.insert(y)]
    return [x.to_json() for x in echelon.elements(n)]


class TestClosureKernel:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_closure_matches_fraction_echelon(self, n):
        # the closure loop, run over the oracle echelon
        generators = all_kappas(n)
        echelon = FractionEchelon(n)
        frontier = [g for g in generators if echelon.insert(g)]
        while frontier:
            frontier = [y for x in frontier for y in
                        (x.bracket(g) for g in generators)
                        if echelon.insert(y)]
        closure = lie_closure(generators, n)
        assert [x.to_json() for x in closure] == \
            [x.to_json() for x in echelon.elements(n)]

    def test_echelon_matches_rref(self):
        # sparse random vectors, many dependent: the span of their rows
        # grows exactly when the rank does and ends at the rref of them all
        rng = random.Random(8)
        n = 3
        perms = all_permutations(n)
        span = Span()
        oracle = FractionEchelon(n)
        for _ in range(15):
            vec = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                   if rng.random() < 0.35 else Fraction(0)
                   for _ in range(6)]
            element = GroupAlgebraElement(n, {
                p: c for p, c in zip(perms, vec) if c})
            assert span.insert(lie_generators._row(element)) == \
                oracle.insert(element)
        assert [[row.get(c, 0) for c in range(6)]
                for row in span.reduced()] == [row for _, row in oracle.rows]

    def test_closure_dim_n5(self):
        assert len(lie_closure(all_kappas(5), 5)) == 40

    @pytest.mark.parametrize("n", [3, 4])
    def test_scaled_generators_same_closure(self, n):
        # the bracket is bilinear, so nonzero multiples of the generators
        # close to the same span
        expected = [x.to_json() for x in lie_closure(all_kappas(n), n)]
        for factor in (Fraction(1, 2), -3):
            scaled = [k.scale(factor) for k in all_kappas(n)]
            assert [x.to_json() for x in lie_closure(scaled, n)] == expected

    @pytest.mark.parametrize("n", [4, 5])
    def test_other_generators_match_oracle(self, n):
        # the first four of test_wedge_rep._generators(n), which
        # test_lie_elements_with_small_perturbation closes over, and a nu
        # with an eta, whose supports are 3- and 4-cycles
        for generators in (
                [kappa(n, 1, 2), kappa(n, 1, 3), kappa(n, 1, 4),
                 kappa(n, 2, 3)],
                [nu(n, 1, 2, 3), eta(n, 1, 2, 3, 4)]):
            assert [x.to_json() for x in lie_closure(generators, n)] == \
                _oracle_closure(generators, n)

    def test_identity_alone(self):
        one = GroupAlgebraElement.one(4).scale(Fraction(2, 3))
        closure = lie_closure([one], 4)
        assert [x.to_json() for x in closure] == \
            [GroupAlgebraElement.one(4).to_json()]
