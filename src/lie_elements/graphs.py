"""Labeled trees, signed 3-trees, and 4-graphs.

Trees are enumerated through Prufer sequences; spanning_tree_sum adds up the
weights of all trees of K_n by a recurrence over vertex subsets instead.  A
3-graph is a multiset of solid triangles glued at vertices; the contractible
ones ("3-trees") are enumerated by a pruned depth-first search and carry a
sign delta computed from the cycle structure of the product of their
triangles.  4-graphs pair each 4-subset of vertices with one of two
tetrahedron variants and index the coefficients of the characteristic
polynomial expansion.
"""

from __future__ import annotations

import heapq

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import comb, prod
from typing import Iterator, Sequence, Tuple

from .exactmath import StructureError, _check_bound, _scaled_integers
from .perm import inversion_sign
from .sdet import instances


class NotAThreeTreeError(ValueError):
    """The triangle product is not a single cycle on all vertices."""


THREE_TREE_EDGE_BOUND = 3
# the most trees or 4-graphs enumerate_trees and enumerate_four_graphs will
# visit, and the most trees spanning_tree_sum will sum over (the term count
# of a symbolic sum)
ENUMERATION_BOUND = 2_000_000


# -- plain trees ---------------------------------------------------------


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[rx] = ry
        return True


@dataclass(frozen=True)
class LabeledTree:
    """A tree on vertices 1..n given by its n-1 unordered edges."""

    n: int
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        edges = tuple(tuple(sorted(e)) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        if len(edges) != self.n - 1:
            raise StructureError(
                "%d edges on %d vertices" % (len(edges), self.n))
        uf = _UnionFind(range(1, self.n + 1))
        for i, j in edges:
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise StructureError("edge (%d,%d) out of range" % (i, j))
            if not uf.union(i, j):
                raise StructureError("edge (%d,%d) closes a cycle" % (i, j))


def prufer_decode(seq: Sequence[int], n: int) -> LabeledTree:
    """Tree on 1..n from a Prufer sequence of length n-2."""
    if n < 2:
        if seq:
            raise StructureError("nonempty sequence for n=%d" % n)
        return LabeledTree(n, ())
    seq = list(seq)
    if len(seq) != n - 2:
        raise StructureError("sequence length %d, expected %d"
                             % (len(seq), n - 2))
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return LabeledTree(n, tuple(edges))


def enumerate_trees(n: int) -> Iterator[LabeledTree]:
    """All n^(n-2) labeled trees on 1..n, via Prufer decoding; a count
    above ENUMERATION_BOUND raises ResourceLimitError."""
    if n < 1:
        raise ValueError("n must be positive")
    _check_bound(n ** max(n - 2, 0), ENUMERATION_BOUND, "labeled trees")
    return (prufer_decode(seq, n)
            for seq in product(range(1, n + 1), repeat=max(n - 2, 0)))


def _pair_weight(weights, i: int, j: int):
    """The weight of the edge {i, j}: the entries under (i, j) and (j, i)
    summed, as verify reads a pair table; KeyError if neither is there."""
    found = [weights[key] for key in ((i, j), (j, i)) if key in weights]
    if not found:
        raise KeyError("no weight for edge (%d,%d)" % (i, j))
    return sum(found[1:], found[0])


def tree_weight(tree: LabeledTree, weights):
    """Product of edge weights; the table is read symmetrically."""
    total = Fraction(1)
    for i, j in tree.edges:
        total = total * _pair_weight(weights, i, j)
    return total


def spanning_tree_sum(n: int, weights):
    """Sum over all spanning trees of K_n of the product of edge weights.

    The table is read symmetrically, as tree_weight reads it.  The sum is
    built up over vertex subsets S, in increasing order as bitmasks: f(S)
    is the weight of the trees on S, 1 on a single vertex.  Otherwise let a
    be the least vertex of S and c the least of the others; removing a
    from a tree on S leaves one subtree on the vertex set U that holds c,
    joined to a by one of the edges {a, u}, u in U, and a tree on S - U
    that holds a.  So f(S) is the sum over c in U within S - {a} of
    f(U) * (w_au summed over u in U) * f(S - U), and each tree on S is
    counted exactly once.  The sum runs in Z: the edge weights are scaled
    once by the lcm s of their denominators, and since every tree has n-1
    edges the sum is f(all) / s^(n-1).  A MultiPoly weight scales the same
    way (its denominator is the lcm of its coefficients' denominators), so
    rational and symbolic tables take one path; a rational table gives a
    Fraction.  More than ENUMERATION_BOUND trees to sum over (the term
    count of a symbolic sum) raises ResourceLimitError.
    """
    if n < 1:
        raise ValueError("n must be positive")
    _check_bound(n ** max(n - 2, 0), ENUMERATION_BOUND, "labeled trees")
    edges = list(combinations(range(n), 2))
    scaled, scale = _scaled_integers(
        [_pair_weight(weights, i + 1, j + 1) for i, j in edges])
    table = [[0] * n for _ in range(n)]
    for (i, j), w in zip(edges, scaled):
        table[i][j] = table[j][i] = w
    full = 1 << n
    # link[a][U]: the weight of the edges from vertex a into a set U of
    # vertices above a, that is, U a multiple of 2^(a+1)
    link = [[0] * full for _ in range(n)]
    for a, (row, out) in enumerate(zip(table, link)):
        for U in range(2 << a, full, 2 << a):
            low = U & -U
            out[U] = out[U ^ low] + row[low.bit_length() - 1]
    f = [1] * full                      # 1 on each single vertex
    for S in range(1, full):
        rest = S & (S - 1)              # S without its least vertex a
        if not rest:
            continue
        out = link[(S ^ rest).bit_length() - 1]
        c = rest & -rest
        free = sub = rest ^ c
        total = 0
        while True:                     # U = c plus each subset of free
            U = c | sub
            total = total + f[U] * out[U] * f[S ^ U]
            if not sub:
                break
            sub = (sub - 1) & free
        f[S] = total
    return f[-1] * Fraction(1, scale ** (n - 1))


# -- 3-graphs ------------------------------------------------------------


@dataclass(frozen=True)
class ThreeGraph:
    """A multiset of solid triangles; triples stored sorted ascending."""

    n: int
    triangles: Tuple[Tuple[int, int, int], ...]

    def __post_init__(self):
        triangles = tuple(tuple(sorted(t)) for t in self.triangles)
        object.__setattr__(self, "triangles", triangles)
        for t in triangles:
            if len(set(t)) != 3:
                raise StructureError("degenerate triangle %r" % (t,))
            if not all(1 <= v <= self.n for v in t):
                raise StructureError("triangle %r out of 1..%d"
                                     % (t, self.n))

    @property
    def m(self) -> int:
        return len(self.triangles)

    def vertices(self):
        return sorted({v for t in self.triangles for v in t})


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


def enumerate_three_trees(m: int, bound=THREE_TREE_EDGE_BOUND
                          ) -> Iterator[ThreeGraph]:
    """All 3-trees with m triangles on vertices 1..2m+1, each once.  An m
    above `bound` raises ResourceLimitError; bound=None lifts the bound."""
    if m < 1:
        raise ValueError("m must be positive")
    _check_bound(m, bound, "3-tree triangles")
    n = 2 * m + 1
    triples = list(combinations(range(1, n + 1), 3))
    # Lexicographic search over sorted triangle multisets, in the order of
    # combinations_with_replacement.  A triangle is kept only if it joins
    # three different components of the triangles before it; m such
    # triangles leave one component of 2m+1 vertices, so every leaf is a
    # connected complex covering 1..n, i.e. a 3-tree.
    comp = list(range(n + 1))       # component label of each vertex
    chosen = []

    def search(start):
        if len(chosen) == m:
            yield ThreeGraph(n, tuple(chosen))
            return
        for idx in range(start, len(triples)):
            i, j, k = triples[idx]
            a, b, c = comp[i], comp[j], comp[k]
            if a == b or a == c or b == c:
                continue
            saved = comp[:]
            for v in range(1, n + 1):
                if comp[v] == b or comp[v] == c:
                    comp[v] = a
            chosen.append(triples[idx])
            yield from search(idx)
            chosen.pop()
            comp[:] = saved

    return search(0)


def delta_sign(graph: ThreeGraph) -> int:
    """Sign of a 3-tree.

    The product of the triangles (as 3-cycles, composed in edge-list order
    with the rightmost applied first) is a single cycle on all vertices;
    writing that cycle as (a_1 ... a_n) starting from a_1 = 1, the sign is
    the parity of the permutation s -> a_s.  The value does not depend on
    the edge order; as a self-check the computation is repeated on the
    reversed edge list and compared.
    """
    n = graph.n
    value = _delta_from_order(graph.triangles, n)
    if graph.m > 1:
        again = _delta_from_order(tuple(reversed(graph.triangles)), n)
        if again != value:
            raise NotAThreeTreeError("sign depends on the edge order")
    return value


def _delta_from_order(triangles, n: int) -> int:
    sigma = list(range(n + 1))      # sigma[i] is the image of i
    for i, j, k in triangles:
        # sigma <- sigma * (i j k), the 3-cycle applied first
        sigma[i], sigma[j], sigma[k] = sigma[j], sigma[k], sigma[i]
    cycle = [1]
    nxt = sigma[1]
    while nxt != 1:
        cycle.append(nxt)
        nxt = sigma[nxt]
    if len(cycle) != n:
        raise NotAThreeTreeError(
            "triangle product is not a single %d-cycle" % n)
    return inversion_sign(cycle)


def three_tree_sum(m: int, weights):
    """Sum over the 3-trees T with m triangles of delta(T) times the
    product of T's triangle weights, the table keyed by ascending triples.

    The signed triangle lists come from a table built once per m.  The sum
    runs in Z: the weights are scaled once by the lcm s of their
    denominators, and since every 3-tree has m triangles the sum is
    total / s^m; a MultiPoly weight scales the same way, so rational and
    symbolic tables take one path.  An m above THREE_TREE_EDGE_BOUND
    raises ResourceLimitError on every call, before the table is read.
    """
    _check_bound(m, THREE_TREE_EDGE_BOUND, "3-tree triangles")
    keys = list(weights)
    scaled, scale = _scaled_integers([weights[key] for key in keys])
    scaled = dict(zip(keys, scaled))
    total = sum(sign * prod(scaled[t] for t in triangles)
                for sign, triangles in _signed_three_trees(m))
    return total * Fraction(1, scale ** m)


@lru_cache(maxsize=None)
def _signed_three_trees(m: int):
    """(delta_sign(T), T.triangles) for every 3-tree T with m triangles,
    in the order of enumerate_three_trees; each sign is computed once, with
    its reversed-order self-check."""
    return tuple((delta_sign(tree), tree.triangles)
                 for tree in enumerate_three_trees(m))


# -- 4-graphs ------------------------------------------------------------

VARIANTS = tuple(inst.variant for inst in instances(4))


@dataclass(frozen=True)
class FourGraph:
    """A multiset of 4-edges, each a 4-subset tagged with a variant."""

    n: int
    edges: Tuple[Tuple[Tuple[int, int, int, int], str], ...]

    def __post_init__(self):
        edges = tuple((tuple(sorted(q)), v) for q, v in self.edges)
        object.__setattr__(self, "edges", edges)
        for quad, variant in edges:
            if len(set(quad)) != 4:
                raise StructureError("degenerate 4-edge %r" % (quad,))
            if not all(1 <= v <= self.n for v in quad):
                raise StructureError("4-edge %r out of 1..%d"
                                     % (quad, self.n))
            if variant not in VARIANTS:
                raise StructureError("unknown variant %r" % (variant,))

    @property
    def r(self) -> int:
        return len(self.edges)


def enumerate_four_graphs(r: int, n: int) -> Iterator[FourGraph]:
    """All multisets of r (4-subset, variant) pairs on vertices 1..n; a
    count above ENUMERATION_BOUND raises ResourceLimitError."""
    if r < 1:
        raise ValueError("r must be positive")
    if n < 4:
        raise ValueError("n must be at least 4")
    pairs = [(inst.quad, inst.variant) for inst in instances(n)]
    _check_bound(comb(len(pairs) + r - 1, r), ENUMERATION_BOUND,
                 "four-graphs")
    return (FourGraph(n, chosen)
            for chosen in combinations_with_replacement(pairs, r))
