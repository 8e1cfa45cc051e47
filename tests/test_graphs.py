import random

from fractions import Fraction
from itertools import product

import pytest

from lie_elements.exactmath import MultiPoly, StructureError
from lie_elements.graphs import (FourGraph, LabeledTree, NotAThreeTreeError,
                                 ResourceLimitError, ThreeGraph, delta_sign,
                                 enumerate_four_graphs, enumerate_three_trees,
                                 enumerate_trees, is_three_tree,
                                 prufer_decode, prufer_encode, tree_weight)


class TestTrees:
    def test_counts(self):
        for n, expected in ((1, 1), (2, 1), (3, 3), (4, 16), (5, 125)):
            assert len(list(enumerate_trees(n))) == expected

    def test_uniqueness(self):
        trees = list(enumerate_trees(5))
        assert len({t.edges for t in trees}) == len(trees)

    def test_prufer_round_trip(self):
        for n in (3, 4, 5, 6):
            for seq in product(range(1, n + 1), repeat=n - 2):
                tree = prufer_decode(seq, n)
                assert prufer_encode(tree) == seq

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


class TestDeltaSign:
    def test_single_triangle_positive(self):
        assert delta_sign(ThreeGraph(3, ((1, 2, 3),))) == 1

    def test_edge_order_invariance(self):
        for g in enumerate_three_trees(2):
            value = delta_sign(g, check_reorder=True)
            shuffled = ThreeGraph(g.n, tuple(reversed(g.triangles)))
            assert delta_sign(shuffled, check_reorder=False) == value

    def test_sign_distribution_m2(self):
        values = [delta_sign(g) for g in enumerate_three_trees(2)]
        assert sorted(set(values)) == [-1, 1]

    def test_not_a_tree_rejected(self):
        with pytest.raises(NotAThreeTreeError):
            delta_sign(ThreeGraph(5, ((1, 2, 3), (1, 2, 4))))


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
