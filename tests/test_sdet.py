import random

from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from hypothesis import given, settings, strategies as st

from lie_elements import sdet as sdet_module
from lie_elements.exactmath import (DimensionError, ExactMatrix, MultiPoly,
                                    ResourceLimitError, StructureError,
                                    _bareiss_det)
from lie_elements.perm import Permutation
from lie_elements.sdet import (EdgeSystem, _gram_c_value,
                               _pair_product, build_AB, instances,
                               monomial_coefficient, mu_from_weights,
                               mu_table, phi, sdet,
                               sdet_identity_formula, sdet_via_coeff,
                               shuffle)


def rand_matrix(n, rng):
    return ExactMatrix([[Fraction(rng.randint(-6, 6)) for _ in range(n)]
                        for _ in range(n)])


def symbolic_matrix(letter, n):
    return ExactMatrix([[MultiPoly.variable("%s_%d_%d" % (letter, i, j))
                         for j in range(1, n + 1)] for i in range(1, n + 1)])


class TestShuffle:
    def test_extremes(self):
        rng = random.Random(1)
        A, B = rand_matrix(3, rng), rand_matrix(3, rng)
        assert shuffle(A, B, ()) == B
        assert shuffle(A, B, (1, 2, 3)) == A

    def test_single_row(self):
        A = ExactMatrix([[1, 2], [3, 4]])
        B = ExactMatrix([[5, 6], [7, 8]])
        assert shuffle(A, B, (1,)) == ExactMatrix([[1, 2], [7, 8]])

    def test_out_of_range(self):
        A = ExactMatrix([[1]])
        with pytest.raises(DimensionError):
            shuffle(A, A, (2,))


class TestSdetIdentities:
    def test_1x1(self):
        assert sdet(ExactMatrix([[3]]), ExactMatrix([[5]])) == 30

    def test_2x2_against_identity(self):
        A = symbolic_matrix("a", 2)
        value = sdet(A, ExactMatrix.identity(2))
        a = lambda i, j: MultiPoly.variable("a_%d_%d" % (i, j))
        assert value == 4 * a(1, 1) * a(2, 2) - 2 * a(1, 2) * a(2, 1)

    def test_symmetry_random(self):
        rng = random.Random(2)
        for n in (2, 3, 4):
            for _ in range(5):
                A, B = rand_matrix(n, rng), rand_matrix(n, rng)
                assert sdet(A, B) == sdet(B, A)

    def test_coefficient_form_random(self):
        rng = random.Random(3)
        for n in (1, 2, 3, 4):
            for _ in range(5):
                A, B = rand_matrix(n, rng), rand_matrix(n, rng)
                assert sdet(A, B) == sdet_via_coeff(A, B)

    def test_multiplication_random(self):
        rng = random.Random(4)
        for n in (2, 3, 4):
            for _ in range(5):
                A, B, C = (rand_matrix(n, rng) for _ in range(3))
                assert sdet(A @ C, B @ C) == sdet(A, B) * C.det() ** 2

    def test_bihomogeneous(self):
        rng = random.Random(5)
        for n in (2, 3):
            A, B = rand_matrix(n, rng), rand_matrix(n, rng)
            lam, mu = Fraction(3), Fraction(-5, 2)
            assert (sdet(A.scale(lam), B.scale(mu))
                    == lam ** n * mu ** n * sdet(A, B))

    def test_identity_formula_random(self):
        rng = random.Random(6)
        for n in (1, 2, 3, 4):
            A = rand_matrix(n, rng)
            assert sdet_identity_formula(A) == sdet(A, ExactMatrix.identity(n))

    def test_zero_A(self):
        rng = random.Random(7)
        for n in (2, 3):
            B = rand_matrix(n, rng)
            assert sdet(ExactMatrix.zero(n, n), B) == 0

    def test_resource_bound(self):
        big = ExactMatrix.identity(11)
        with pytest.raises(ResourceLimitError):
            sdet(big, big)


class TestMonomialCoefficient:
    def test_double_loop(self):
        result = monomial_coefficient([(1, 1), (1, 1)])
        assert result.coefficient == 2
        assert result.cycle_count == 1

    def test_degree_violation(self):
        with pytest.raises(StructureError):
            monomial_coefficient([(1, 2), (1, 2), (1, 2), (2, 1)])

    def _check_symbolic(self, n):
        A = symbolic_matrix("a", n)
        B = symbolic_matrix("b", n)
        value = sdet(A, B)
        for mono, coeff in value.terms.items():
            edges = []
            for var, exp in mono:
                _, i, j = var.split("_")
                edges.extend([(int(i), int(j))] * exp)
            result = monomial_coefficient(edges)
            assert result.coefficient == coeff
            assert all(len(c) % 2 == 0 for c in result.cycles)
            assert abs(coeff) == 2 ** result.cycle_count

    def test_exhaustive_n2(self):
        self._check_symbolic(2)

    def test_exhaustive_n3(self):
        self._check_symbolic(3)

    def test_exhaustive_n4(self):
        self._check_symbolic(4)

    def test_cycles_are_those_of_sigma_inverse_tau(self):
        # the edges {(i, sigma(i))} and {(i, tau(i))} give as many
        # auxiliary cycles as sigma^-1 tau has cycles, in any edge order
        rng = random.Random(16)
        for n in range(1, 8):
            for _ in range(50):
                sigma, tau = (Permutation(rng.sample(range(1, n + 1), n))
                              for _ in range(2))
                edges = ([(i, sigma(i)) for i in range(1, n + 1)]
                         + [(i, tau(i)) for i in range(1, n + 1)])
                rng.shuffle(edges)
                assert (monomial_coefficient(edges).cycle_count
                        == sigma.inverse().compose(tau).cycle_count())


class TestEdgeSystems:
    def test_build_AB_example(self):
        A, B = build_AB(EdgeSystem(4, ((1, 2, 3, 4),)))
        assert A.data[0] == [1, -1, 0, 0]
        assert B.data[0] == [0, 0, 1, -1]

    def test_rows_sum_to_zero(self):
        system = EdgeSystem(6, ((2, 5, 1, 6), (3, 4, 2, 1)))
        A, B = build_AB(system)
        for row in A.data + B.data:
            assert sum(row) == 0

    def test_repeats_allowed(self):
        system = EdgeSystem(4, ((1, 2, 3, 4), (1, 2, 3, 4)))
        assert system.r == 2

    def test_degenerate_tuple_rejected(self):
        with pytest.raises(StructureError):
            EdgeSystem(4, ((1, 2, 2, 4),))


class TestPhi:
    def test_single_tuple_vanishes(self):
        assert phi(EdgeSystem(4, ((1, 2, 3, 4),))) == 0

    def test_doubled_tuple(self):
        assert phi(EdgeSystem(4, ((1, 2, 3, 4), (1, 2, 3, 4)))) == -8

    def test_phi_top_summands_equal(self):
        # the n column subsets of size n-1 all give the same value
        from lie_elements.sdet import _column_subset
        rng = random.Random(9)
        for n in (4, 5):
            tuples = tuple(tuple(rng.sample(range(1, n + 1), 4))
                           for _ in range(n - 1))
            A, B = build_AB(EdgeSystem(n, tuples))
            values = set()
            for J in combinations(range(1, n + 1), n - 1):
                values.add(sdet(_column_subset(A, J), _column_subset(B, J)))
            assert len(values) == 1

    def test_r_exceeds_n(self):
        system = EdgeSystem(4, tuple([(1, 2, 3, 4)] * 5))
        with pytest.raises(DimensionError):
            phi(system)


class TestMuTables:
    def test_instances_count(self):
        assert len(instances(5)) == 10

    def test_single_eta_charpoly(self):
        # weight 1 on one generator instance: t^4 - 4 t^2
        def weight(inst):
            ok = inst.quad == (1, 2, 3, 4) and inst.variant == "T1"
            return Fraction(1 if ok else 0)
        assert mu_from_weights(4, 1, weight) == 0
        assert mu_from_weights(4, 2, weight) == -4
        assert mu_from_weights(4, 3, weight) == 0

    def _candidates(self, n, r):
        """Size-r multisets of instance indices, multiplicities at most 2."""
        return [m for m in combinations_with_replacement(
            range(len(instances(n))), r) if all(m.count(i) <= 2 for i in m)]

    def _check_against_phi(self, n, r, multisets):
        # the Gram-kernel table against the Fraction column-subset sum
        insts = instances(n)
        table = dict(mu_table(n, r))
        for m in multisets:
            c = table.get(m, 0) * 2 ** sum(m.count(i) == 2 for i in set(m))
            tuples = tuple(insts[i].tuple4 for i in m)
            assert c == phi(EdgeSystem(n, tuples))

    def test_full_table_matches_phi_exhaustive(self):
        for n in (4, 5):
            for r in (1, 2, 3):
                self._check_against_phi(n, r, self._candidates(n, r))

    def test_full_table_matches_phi_sampled(self):
        rng = random.Random(10)
        for n, r in ((5, 4), (6, 3)):
            sample = rng.sample(self._candidates(n, r), 60)
            self._check_against_phi(n, r, sample)

    def test_top_table_matches_full(self):
        # at r = n-1 mu_table reads the top table; the Gram table is the
        # independent path
        for n in (4, 5):
            assert mu_table(n, n - 1) == sdet_module._gram_table(n, n - 1)

    @pytest.mark.parametrize("n, r", [
        (5, 0),             # r < 1
        (4, 5),             # r > n
    ])
    def test_bad_arguments(self, n, r):
        with pytest.raises(DimensionError):
            mu_table(n, r)
        with pytest.raises(DimensionError):
            mu_from_weights(n, r, lambda inst: Fraction(1))

    def test_non_rational_weight(self):
        x = MultiPoly.variable("x")
        with pytest.raises(TypeError, match="cannot build a rational"):
            mu_from_weights(4, 2, lambda inst: x)


# -- the r = n-1 tables against the path the prefix-wedge search replaced --


def _oracle_restricted_row(tuple4, J, first_pair):
    i, j, k, l = tuple4
    p, q = (i, j) if first_pair else (k, l)
    row = [0] * len(J)
    for col, label in enumerate(J):
        if label == p:
            row[col] = 1
        elif label == q:
            row[col] = -1
    return tuple(row)


def _oracle_int_det(rows, cache):
    """Determinant of a small integer matrix given as a tuple of row
    tuples, memoized after sorting rows (sign tracked)."""
    order = sorted(range(len(rows)), key=lambda i: rows[i])
    sign = 1
    seen = [False] * len(rows)
    for start in range(len(rows)):
        if seen[start]:
            continue
        length = 0
        idx = start
        while not seen[idx]:
            seen[idx] = True
            idx = order[idx]
            length += 1
        if length % 2 == 0:
            sign = -sign
    key = tuple(rows[i] for i in order)
    for a, b in zip(key, key[1:]):
        if a == b:
            return 0
    value = cache.get(key)
    if value is None:
        value = _bareiss_det([list(row) for row in key])
        cache[key] = value
    return sign * value


def _oracle_top_c_value(tuple4s, n, cache):
    """n times the 2^r-term shuffle-determinant sum on the columns
    {1..n-1}, one determinant per row choice."""
    r = len(tuple4s)
    J = tuple(range(1, n))
    a_rows = [_oracle_restricted_row(t, J, True) for t in tuple4s]
    b_rows = [_oracle_restricted_row(t, J, False) for t in tuple4s]
    if any(not any(a) and not any(b) for a, b in zip(a_rows, b_rows)):
        return 0
    total = 0
    for mask in range(2 ** r):
        left = tuple(a_rows[s] if mask >> s & 1 else b_rows[s]
                     for s in range(r))
        d1 = _oracle_int_det(left, cache)
        if not d1:
            continue
        right = tuple(b_rows[s] if mask >> s & 1 else a_rows[s]
                      for s in range(r))
        total += d1 * _oracle_int_det(right, cache)
    return n * total


def _oracle_top_table(n):
    insts = instances(n)
    cache = {}
    table = []
    for multiset in combinations_with_replacement(range(len(insts)), n - 1):
        counts = {}
        for idx in multiset:
            counts[idx] = counts.get(idx, 0) + 1
        if any(c > 2 for c in counts.values()):
            continue
        c = _oracle_top_c_value([insts[idx].tuple4 for idx in multiset], n,
                                cache)
        if c:
            denom = 2 ** sum(count == 2 for count in counts.values())
            table.append((multiset, Fraction(c, denom)))
    return table


def _oracle_mu(n, r, weight_of):
    """The weighted sum in Fractions, one weight_of call per table slot."""
    insts = instances(n)
    total = Fraction(0)
    for multiset, value in mu_table(n, r):
        prod = value
        for idx in multiset:
            prod = prod * weight_of(insts[idx])
        total = prod + total
    return total


class TestPrefixWedgeSearch:
    def test_top_tables_match_oracle(self):
        for n in (4, 5):
            assert mu_table(n, n - 1) == _oracle_top_table(n)

    def test_top_table_n6_sampled_against_gram(self):
        # present and absent multisets alike against the Gram c-value
        insts = instances(6)
        pairs = [p for inst in insts
                 for p in (inst.tuple4[:2], inst.tuple4[2:])]
        products = [[_pair_product(p, q) for q in pairs] for p in pairs]
        table = mu_table(6, 5)
        values = dict(table)
        rng = random.Random(11)
        sample = [m for m, _ in rng.sample(table, 30)]
        while len(sample) < 60:
            m = tuple(sorted(rng.choices(range(len(insts)), k=5)))
            if all(m.count(i) <= 2 for i in m) and m not in values:
                sample.append(m)
        for m in sample:
            doubles = sum(m.count(i) == 2 for i in set(m))
            assert (values.get(m, 0)
                    == Fraction(_gram_c_value(products, m), 2 ** doubles))

    def test_search_prunes_vanishing_prefixes(self, monkeypatch):
        # no wedge below a vanished side, no fold of an empty node
        wedge, fold = sdet_module._wedge, sdet_module._symmetric_fold

        def checked_wedge(form, row):
            assert form
            return wedge(form, row)

        def checked_fold(pairs, r):
            assert pairs and all(L and R for L, R in pairs)
            return fold(pairs, r)

        monkeypatch.setattr(sdet_module, "_wedge", checked_wedge)
        monkeypatch.setattr(sdet_module, "_symmetric_fold", checked_fold)
        # past the cache, so the checked kernels run
        assert sdet_module._top_table.__wrapped__(5) == mu_table(5, 4)

    @pytest.mark.slow
    def test_top_table_n6_matches_oracle(self):
        assert mu_table(6, 5) == _oracle_top_table(6)


class TestWeightedSums:
    def test_matches_fraction_loop(self):
        rng = random.Random(12)
        shapes = [(n, r) for n in (4, 5) for r in range(1, n + 1)]
        shapes += [(6, r) for r in (1, 2, 3)]
        for n, r in shapes:
            for den in (1, 10, 2520):
                weights = {}
                for inst in instances(n):
                    weights[inst] = Fraction(rng.randint(-9, 9),
                                             rng.choice([d for d in (1, 2, 5,
                                                                     7, 10,
                                                                     2520)
                                                         if den % d == 0]))
                weights[instances(n)[0]] = Fraction(0)
                value = mu_from_weights(n, r, weights.__getitem__)
                assert type(value) is Fraction
                assert value == _oracle_mu(n, r, weights.__getitem__)

    def test_fractional_table_values(self, monkeypatch):
        # every table the theorem gives has integer values; the sum must
        # still be exact for values with denominators
        table = [((0, 0), Fraction(1, 2)), ((0, 1), Fraction(-3, 4)),
                 ((1, 1), Fraction(5))]
        monkeypatch.setattr(sdet_module, "_gram_table", lambda n, r: table)
        weights = dict(zip(instances(4), (Fraction(2, 3), Fraction(-5, 7))))
        value = mu_from_weights(4, 2, weights.__getitem__)
        assert value == _oracle_mu(4, 2, weights.__getitem__)
        assert value == (Fraction(1, 2) * Fraction(4, 9)
                         + Fraction(3, 4) * Fraction(10, 21)
                         + 5 * Fraction(25, 49))


@st.composite
def matrix_pairs(draw):
    """Two integer matrices of one size 1..4, and a row and a column
    permutation of that size."""
    n = draw(st.integers(1, 4))
    cell = st.integers(-5, 5)
    a, b = (draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                          min_size=n, max_size=n)) for _ in range(2))
    rows, cols = (draw(st.permutations(range(n))) for _ in range(2))
    return a, b, rows, cols


class TestSdetProperties:
    @settings(max_examples=60, deadline=None)
    @given(matrix_pairs())
    def test_symmetries(self, drawn):
        a, b, rows, cols = drawn
        A, B = ExactMatrix(a), ExactMatrix(b)
        value = sdet(A, B)
        assert sdet(B, A) == value
        assert sdet(ExactMatrix([a[r] for r in rows]),
                    ExactMatrix([b[r] for r in rows])) == value
        assert sdet(ExactMatrix([[row[c] for c in cols] for row in a]),
                    ExactMatrix([[row[c] for c in cols] for row in b])) \
            == value
        assert sdet_via_coeff(A, B) == value
