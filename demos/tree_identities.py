"""Two tree-enumeration identities, checked exactly over Q.

First the weighted matrix-tree identity: the determinant of the action of
the pair-weighted element sum(w_ij * kappa_ij) on the reflection
representation equals n times the weighted count of labeled spanning
trees.  Then the odd-n Pfaffian variant: the triple-weighted element
sum(w_ijk * nu_ijk) acts by a skew form whose Pfaffian squares to the
square of the signed sum over 3-trees.
"""

from fractions import Fraction
from itertools import combinations
from math import prod

from lie_elements.graphs import (delta_sign, enumerate_three_trees,
                                 enumerate_trees)
from lie_elements.verify import verify_mtt, verify_pft


def main():
    n = 4
    weights = {}
    value = 1
    for pair in combinations(range(1, n + 1), 2):
        weights[pair] = Fraction(value, 3)
        value += 1

    # a tree's edges are ascending pairs, the keys of the weight table
    trees = list(enumerate_trees(n))
    total = sum(prod(weights[e] for e in t.edges) for t in trees)
    print("n = %d: %d labeled trees, weighted sum %s" % (n, len(trees),
                                                         total))
    report = verify_mtt(n, weights=weights)
    print("matrix-tree check: det = %s, n * sum = %s, status %s"
          % (report.lhs, report.rhs, report.status))

    print()
    n = 5
    m = (n - 1) // 2
    signed = [(g, delta_sign(g)) for g in enumerate_three_trees(m)]
    print("n = %d: %d 3-trees with %d triangles" % (n, len(signed), m))
    for graph, sign in signed[:4]:
        print("  triangles %s  delta = %+d"
              % (list(graph.triangles), sign))
    report = verify_pft(n, seed=11)
    print("pfaffian check: Pf = %s, signed sum = %s, status %s"
          % (report.lhs, report.rhs, report.status))


if __name__ == "__main__":
    main()
