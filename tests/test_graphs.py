import random

from fractions import Fraction
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)
from math import prod

import pytest

from lie_elements.exactmath import (MultiPoly, ResourceLimitError,
                                    StructureError)
from lie_elements.perm import Permutation
from lie_elements.graphs import (FourGraph, LabeledTree, NotAThreeTreeError,
                                 ThreeGraph, _signed_three_trees, delta_sign,
                                 enumerate_four_graphs, enumerate_three_trees,
                                 enumerate_trees, is_three_tree,
                                 prufer_decode,
                                 spanning_tree_sum, three_tree_sum,
                                 tree_weight)


class TestTrees:
    def test_counts(self):
        for n, expected in ((1, 1), (2, 1), (3, 3), (4, 16), (5, 125)):
            assert len(list(enumerate_trees(n))) == expected

    def test_bound(self):
        # next, not list: without the bound, a list would hold 9^7 trees
        with pytest.raises(ResourceLimitError):
            next(enumerate_trees(9))
        assert next(enumerate_trees(8)).n == 8

    def test_bounds_fire_at_the_call(self):
        # each enumerator checks its bound before it returns an iterator
        for call in (lambda: enumerate_three_trees(10),
                     lambda: enumerate_trees(9),
                     lambda: enumerate_four_graphs(3, 30)):
            with pytest.raises(ResourceLimitError):
                call()

    def test_uniqueness(self):
        trees = list(enumerate_trees(5))
        assert len({t.edges for t in trees}) == len(trees)

    def test_prufer_decode_is_a_bijection(self):
        # every sequence decodes to a valid tree (LabeledTree checks it),
        # and no two to the same one: n^(n-2) distinct trees in all
        for n in (3, 4, 5, 6):
            trees = {prufer_decode(seq, n).edges
                     for seq in product(range(1, n + 1), repeat=n - 2)}
            assert len(trees) == n ** (n - 2)

    def test_cycle_rejected(self):
        with pytest.raises(StructureError):
            LabeledTree(3, ((1, 2), (2, 3), (1, 3)))

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(StructureError):
            LabeledTree(4, ((1, 2),))

    def test_out_of_range_edge_rejected(self):
        for edge in ((1, 5), (0, 4), (0, 2)):
            with pytest.raises(StructureError):
                LabeledTree(3, ((1, 2), edge))


class TestTreeWeight:
    def test_unit_weights(self):
        weights = {(i, j): Fraction(1) for i in range(1, 4)
                   for j in range(i + 1, 4)}
        for tree in enumerate_trees(3):
            assert tree_weight(tree, weights) == 1

    def test_star(self):
        tree = LabeledTree(3, ((1, 2), (1, 3)))
        w12 = MultiPoly.variable("w12")
        w13 = MultiPoly.variable("w13")
        assert tree_weight(tree, {(1, 2): w12, (1, 3): w13}) == w12 * w13

    def test_symmetric_lookup(self):
        tree = LabeledTree(2, ((1, 2),))
        assert tree_weight(tree, {(2, 1): Fraction(7)}) == 7

    def test_missing_weight(self):
        with pytest.raises(KeyError):
            tree_weight(LabeledTree(2, ((1, 2),)), {})

    def test_both_orders_summed(self):
        # a table holding (i, j) and (j, i) weighs the edge by their sum,
        # as verify_mtt builds the element from it
        weights = {(1, 2): 3, (2, 1): 4}
        tree = LabeledTree(2, ((1, 2),))
        for value in (tree_weight(tree, weights),
                      spanning_tree_sum(2, weights)):
            assert value == 7 and isinstance(value, Fraction)


def prufer_tree_sum(n, weights):
    """The spanning-tree sum the slow way: one LabeledTree per Prufer
    sequence and one weight product per tree."""
    return sum((tree_weight(t, weights) for t in enumerate_trees(n)),
               Fraction(0))


def rational_weights(keys, rng, den):
    """Seeded weights p/q with q | den, about a quarter of them zero."""
    out = {}
    for key in keys:
        zero = rng.random() < 0.25
        out[key] = Fraction(0 if zero else rng.randint(-50, 50),
                            rng.choice([d for d in range(1, den + 1)
                                        if den % d == 0]))
    return out


def rational_pair_weights(n, rng, den):
    return rational_weights(combinations(range(1, n + 1), 2), rng, den)


class TestSpanningTreeSum:
    def test_symbolic_visits_every_tree_once(self):
        # each tree is its own square-free monomial, so equal polynomials
        # mean every tree is counted exactly once
        for n in range(1, 7):
            weights = {(i, j): MultiPoly.variable("w_%d_%d" % (i, j))
                       for i, j in combinations(range(1, n + 1), 2)}
            assert spanning_tree_sum(n, weights) == \
                prufer_tree_sum(n, weights)

    def test_rational_matches_prufer_sum(self):
        rng = random.Random(5)
        for n in range(1, 8):
            for den in (1, 10, 2520):
                weights = rational_pair_weights(n, rng, den)
                value = spanning_tree_sum(n, weights)
                assert isinstance(value, Fraction)
                assert value == prufer_tree_sum(n, weights)

    def test_symbolic_fractional_coefficients(self):
        # polynomial weights whose coefficients have denominators take the
        # same scaled path as rational ones
        for n in range(1, 6):
            weights = {(i, j): MultiPoly.variable("w_%d_%d" % (i, j))
                       * Fraction(1, i + j) + Fraction(j, 2)
                       for i, j in combinations(range(1, n + 1), 2)}
            assert spanning_tree_sum(n, weights) == \
                prufer_tree_sum(n, weights)

    def test_cayley_count_and_zero_weights(self):
        for n in range(1, 8):
            ones = {e: Fraction(1)
                    for e in combinations(range(1, n + 1), 2)}
            assert spanning_tree_sum(n, ones) == (n ** (n - 2) if n > 1
                                                  else 1)
        # a vertex whose edges all weigh zero is in no weighted tree
        weights = {e: Fraction(0 if 4 in e else 3)
                   for e in combinations(range(1, 5), 2)}
        assert spanning_tree_sum(4, weights) == 0

    def test_symmetric_lookup_and_missing_weight(self):
        weights = {(2, 1): Fraction(3), (1, 3): Fraction(5),
                   (3, 2): Fraction(7)}
        assert spanning_tree_sum(3, weights) == 3 * 5 + 3 * 7 + 5 * 7
        with pytest.raises(KeyError):
            spanning_tree_sum(3, {(1, 2): Fraction(1)})
        with pytest.raises(ValueError):
            spanning_tree_sum(0, {})


def filtered_three_trees(m):
    """The 3-trees by brute force: every sorted triangle multiset that
    passes is_three_tree, in combinations_with_replacement order."""
    n = 2 * m + 1
    triples = list(combinations(range(1, n + 1), 3))
    return [ThreeGraph(n, chosen)
            for chosen in combinations_with_replacement(triples, m)
            if is_three_tree(ThreeGraph(n, chosen))]


class TestThreeTrees:
    def test_single_triangle(self):
        assert is_three_tree(ThreeGraph(3, ((1, 2, 3),)))

    def test_disconnected_rejected(self):
        # two triangles sharing no vertex cannot cover 2m+1 = 5 vertices
        graph = ThreeGraph(5, ((1, 2, 3), (3, 4, 5)))
        assert is_three_tree(graph)
        # wrong vertex coverage
        assert not is_three_tree(ThreeGraph(5, ((1, 2, 3), (1, 2, 4))))

    def test_counts(self):
        assert len(list(enumerate_three_trees(1))) == 1
        assert len(list(enumerate_three_trees(2))) == 15

    def test_enumeration_matches_filter(self):
        # every enumerated graph passes the predicate and has the right shape
        for g in enumerate_three_trees(2):
            assert is_three_tree(g)
            assert g.m == 2
            assert g.vertices() == [1, 2, 3, 4, 5]

    def test_resource_bound(self):
        with pytest.raises(ResourceLimitError):
            list(enumerate_three_trees(4))

    def test_search_matches_filter_in_order(self):
        for m in (1, 2, 3):
            assert list(enumerate_three_trees(m)) == filtered_three_trees(m)
        assert len(filtered_three_trees(3)) == 735


def signed_fraction_sum(m, weights):
    """The signed 3-tree sum as a Fraction sum over fresh 3-trees, kept as
    the oracle of three_tree_sum."""
    return sum((delta_sign(tree)
                * prod(weights[t] for t in tree.triangles)
                for tree in enumerate_three_trees(m)), Fraction(0))


class TestThreeTreeSum:
    def test_rational_matches_fraction_sum(self):
        rng = random.Random(11)
        for m in (1, 2, 3):
            triples = list(combinations(range(1, 2 * m + 2), 3))
            for den in (1, 10, 2520):
                weights = rational_weights(triples, rng, den)
                value = three_tree_sum(m, weights)
                assert isinstance(value, Fraction)
                assert value == signed_fraction_sum(m, weights)

    def test_symbolic_matches_fraction_sum(self):
        for m in (1, 2, 3):
            weights = {t: MultiPoly.variable("w_%d_%d_%d" % t)
                       * Fraction(1, t[2]) for t in
                       combinations(range(1, 2 * m + 2), 3)}
            assert three_tree_sum(m, weights) == \
                signed_fraction_sum(m, weights)

    def test_signed_table_matches_fresh_listing(self):
        for m in (1, 2, 3):
            fresh = tuple((delta_sign(tree), tree.triangles)
                          for tree in enumerate_three_trees(m))
            assert _signed_three_trees(m) == fresh
            assert _signed_three_trees(m) is _signed_three_trees(m)

    def test_bound_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ResourceLimitError):
                three_tree_sum(4, {})


class TestDeltaSign:
    def test_single_triangle_positive(self):
        assert delta_sign(ThreeGraph(3, ((1, 2, 3),))) == 1

    def test_edge_order_invariance(self):
        for g in enumerate_three_trees(2):
            value = delta_sign(g)
            shuffled = ThreeGraph(g.n, tuple(reversed(g.triangles)))
            assert delta_sign(shuffled) == value

    def test_sign_distribution_m2(self):
        values = [delta_sign(g) for g in enumerate_three_trees(2)]
        assert sorted(set(values)) == [-1, 1]

    def test_not_a_tree_rejected(self):
        with pytest.raises(NotAThreeTreeError):
            delta_sign(ThreeGraph(5, ((1, 2, 3), (1, 2, 4))))


def permutation_delta(triangles, n, check_reorder=True):
    """delta_sign by composing Permutation objects, kept as an oracle."""
    def from_order(order):
        sigma = Permutation.identity(n)
        for t in order:
            sigma = sigma.compose(Permutation.from_cycles(n, [t]))
        cycle = [1]
        nxt = sigma(1)
        while nxt != 1:
            cycle.append(nxt)
            nxt = sigma(nxt)
        if len(cycle) != n:
            raise NotAThreeTreeError("not a single %d-cycle" % n)
        return Permutation(cycle).sign()

    value = from_order(triangles)
    if check_reorder and len(triangles) > 1:
        if from_order(tuple(reversed(triangles))) != value:
            raise NotAThreeTreeError("sign depends on the edge order")
    return value


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotAThreeTreeError:
        return "not a 3-tree"


class TestDeltaSignOracle:
    def test_every_three_tree(self):
        for m in (1, 2, 3):
            trees = list(enumerate_three_trees(m))
            for g in trees:
                assert delta_sign(g) == permutation_delta(g.triangles, g.n)
                for order in permutations(g.triangles):
                    assert (delta_sign(ThreeGraph(g.n, order))
                            == permutation_delta(order, g.n, False))
            assert len(trees) == (1, 15, 735)[m - 1]

    def test_every_triangle_multiset(self):
        # 3-trees and non-trees alike: the same sign or the same rejection
        for m in (1, 2, 3):
            n = 2 * m + 1
            triples = list(combinations(range(1, n + 1), 3))
            for chosen in combinations_with_replacement(triples, m):
                g = ThreeGraph(n, chosen)
                assert (_outcome(delta_sign, g)
                        == _outcome(permutation_delta, g.triangles, n))


class TestFourGraphs:
    def test_counts(self):
        assert len(list(enumerate_four_graphs(1, 4))) == 2
        assert len(list(enumerate_four_graphs(1, 5))) == 10
        # multisets of size 2 over the 2 variants of a single 4-subset
        assert len(list(enumerate_four_graphs(2, 4))) == 3

    def test_variant_validation(self):
        with pytest.raises(StructureError):
            FourGraph(4, (((1, 2, 3, 4), "T9"),))

    def test_degenerate_edge(self):
        with pytest.raises(StructureError):
            FourGraph(4, (((1, 2, 3, 3), "T1"),))
