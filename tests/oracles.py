"""Reference definitions and random inputs that the tests compare against.

Nothing in the package calls these.  Each is the literal definition of a
value the package computes another way (phi over column subsets, the
3-tree test, tree weights, the wedge sign of a sort), or a plain helper
the tests need (trace, substitution, reading an element back from JSON).
"""

import json

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Tuple

from lie_elements.exactmath import (DimensionError, ExactMatrix, MultiPoly,
                                    StructureError, rational)
from lie_elements.graphs import (LabeledTree, ThreeGraph, _pair_weight,
                                 _UnionFind)
from lie_elements.group_algebra import GroupAlgebraElement
from lie_elements.perm import Permutation, all_permutations, inversion_sign
from lie_elements.sdet import sdet


# -- random inputs -------------------------------------------------------


def rand_matrix(n, rng, bound):
    """An n x n matrix of integer Fractions drawn from -bound..bound."""
    return ExactMatrix([[Fraction(rng.randint(-bound, bound))
                         for _ in range(n)] for _ in range(n)])


def random_element(n, rng, terms):
    """A sum of `terms` random permutations of S_n, each with a small
    rational coefficient."""
    perms = all_permutations(n)
    x = GroupAlgebraElement.zero(n)
    for _ in range(terms):
        x = x + GroupAlgebraElement.from_permutation(
            rng.choice(perms), Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    return x


# -- exact arithmetic ----------------------------------------------------


def substitute(p: MultiPoly, values: dict):
    """Evaluate some variables at Fraction values; returns MultiPoly."""
    result = MultiPoly()
    for mono, coeff in p.terms.items():
        factor = coeff
        rest = []
        for v, e in mono:
            if v in values:
                factor *= rational(values[v]) ** e
            else:
                rest.append((v, e))
        result = result + MultiPoly({tuple(rest): factor})
    return result


def trace(m: ExactMatrix):
    if not m.is_square():
        raise DimensionError("trace of a non-square matrix")
    acc = Fraction(0)
    for i in range(m.rows):
        acc = acc + m.data[i][i]
    return acc


# -- group algebra and wedges --------------------------------------------


def element_from_json(text: str) -> GroupAlgebraElement:
    obj = json.loads(text)
    n = obj["n"]
    terms = {}
    for item in obj["terms"]:
        perm = Permutation.from_cycles(n, item["cycles"])
        terms[perm] = rational(item["coefficient"])
    return GroupAlgebraElement(n, terms)


def sort_with_sign(seq):
    """Sort indices, returning (tuple, sign) or None on a repeat.

    The sign is the parity of the inversions, i.e. the sign the wedge
    picks up when its factors are reordered."""
    items = tuple(seq)
    if len(set(items)) < len(items):
        return None
    return tuple(sorted(items)), inversion_sign(items)


# -- trees and 3-trees ---------------------------------------------------


def tree_weight(tree: LabeledTree, weights):
    """Product of edge weights; the table is read symmetrically."""
    total = Fraction(1)
    for i, j in tree.edges:
        total = total * _pair_weight(weights, i, j)
    return total


def is_three_tree(graph: ThreeGraph) -> bool:
    """True iff the triangle complex is contractible.

    For complexes of triangles glued only at vertices this is equivalent to:
    connected, exactly 2m+1 vertices covering 1..n, and iterated leaf
    pruning (remove a triangle two of whose vertices lie in no other
    triangle) ending in a single triangle.
    """
    m = graph.m
    if m == 0:
        return False
    verts = graph.vertices()
    if graph.n != 2 * m + 1 or verts != list(range(1, graph.n + 1)):
        return False
    uf = _UnionFind(verts)
    for i, j, k in graph.triangles:
        uf.union(i, j)
        uf.union(i, k)
    if len({uf.find(v) for v in verts}) != 1:
        return False
    remaining = list(graph.triangles)
    while len(remaining) > 1:
        count = {}
        for t in remaining:
            for v in t:
                count[v] = count.get(v, 0) + 1
        for idx, t in enumerate(remaining):
            if sum(1 for v in t if count[v] == 1) >= 2:
                del remaining[idx]
                break
        else:
            return False
    return True


# -- edge systems and the coefficient functional -------------------------


@dataclass(frozen=True)
class EdgeSystem:
    """Ordered list of 4-tuples of distinct labels in 1..n (repeats allowed)."""

    n: int
    tuples: Tuple[Tuple[int, int, int, int], ...]

    def __post_init__(self):
        tuples = tuple(tuple(t) for t in self.tuples)
        object.__setattr__(self, "tuples", tuples)
        if not tuples:
            raise StructureError("an edge system needs at least one tuple")
        for t in tuples:
            if len(t) != 4 or len(set(t)) != 4:
                raise StructureError("tuple %r is not 4 distinct labels"
                                     % (t,))
            if not all(1 <= v <= self.n for v in t):
                raise StructureError("tuple %r out of 1..%d" % (t, self.n))

    @property
    def r(self) -> int:
        return len(self.tuples)


def build_AB(system: EdgeSystem) -> Tuple[ExactMatrix, ExactMatrix]:
    """r x n difference matrices: row s of A is e_i - e_j, of B is e_k - e_l."""
    def difference(p, q):
        return [(c == p) - (c == q) for c in range(1, system.n + 1)]

    return (ExactMatrix([difference(i, j) for i, j, _, _ in system.tuples]),
            ExactMatrix([difference(k, l) for _, _, k, l in system.tuples]))


def _column_subset(M: ExactMatrix, cols) -> ExactMatrix:
    return ExactMatrix([[row[c - 1] for c in cols] for row in M.data])


def phi(system: EdgeSystem):
    """The sum over r-subsets J of columns of sdet(A^J, B^J)."""
    r, n = system.r, system.n
    if r > n:
        raise DimensionError("r=%d exceeds n=%d" % (r, n))
    A, B = build_AB(system)
    total = Fraction(0)
    for J in combinations(range(1, n + 1), r):
        total = total + sdet(_column_subset(A, J), _column_subset(B, J))
    return total
