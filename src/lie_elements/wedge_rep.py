"""Exterior-power actions of group-algebra elements and the Lie-element test.

Two operators on each wedge power Lambda^m(Q^n): the multiplicative one
(apply a permutation to every wedge factor) and the derivation one (apply it
to one factor at a time, Leibniz style).  An element whose two actions agree
for every m is a "Lie element"; the full space of such elements is found by
an exact linear solve over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import List, Optional

from .exactmath import ExactMatrix, ResourceLimitError
from .group_algebra import GroupAlgebraElement
from .perm import all_permutations


DEFAULT_SOLVER_BOUND = 6


class WedgeBasis:
    """All m-subsets of {1..n}, lexicographic, with index lookup."""

    __slots__ = ("n", "m", "subsets", "index")

    def __init__(self, n: int, m: int):
        if not 0 <= m <= n:
            raise ValueError("wedge degree %d out of 0..%d" % (m, n))
        self.n = n
        self.m = m
        self.subsets = [tuple(c) for c in combinations(range(1, n + 1), m)]
        self.index = {s: i for i, s in enumerate(self.subsets)}

    def __len__(self):
        return len(self.subsets)


def sort_with_sign(seq):
    """Sort indices, returning (tuple, sign) or None on a repeat.

    The sign counts inversions removed by sorting, i.e. the sign the wedge
    picks up when its factors are reordered."""
    items = list(seq)
    sign = 1
    # insertion sort; m is tiny
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and items[j - 1] == items[j]:
            return None
    return tuple(items), sign


def grp_matrix(x: GroupAlgebraElement, m: int) -> ExactMatrix:
    """Matrix of the multiplicative action of x on Lambda^m(Q^n)."""
    n = x.n
    basis = WedgeBasis(n, m)
    if m == 0:
        return ExactMatrix([[x.coeff_sum()]])
    size = len(basis)
    data = [[Fraction(0)] * size for _ in range(size)]
    for perm, coeff in x.terms.items():
        for col, subset in enumerate(basis.subsets):
            sorted_images = sort_with_sign(perm(i) for i in subset)
            # a permutation never repeats an image
            image, sign = sorted_images
            row = basis.index[image]
            data[row][col] = data[row][col] + sign * coeff
    return ExactMatrix(data)


def alg_matrix(x: GroupAlgebraElement, m: int) -> ExactMatrix:
    """Matrix of the derivation (one-factor-at-a-time) action of x."""
    n = x.n
    basis = WedgeBasis(n, m)
    if m == 0:
        return ExactMatrix([[Fraction(0)]])
    size = len(basis)
    data = [[Fraction(0)] * size for _ in range(size)]
    for perm, coeff in x.terms.items():
        for col, subset in enumerate(basis.subsets):
            for p in range(m):
                replaced = subset[:p] + (perm(subset[p]),) + subset[p + 1:]
                sorted_images = sort_with_sign(replaced)
                if sorted_images is None:
                    continue
                image, sign = sorted_images
                row = basis.index[image]
                data[row][col] = data[row][col] + sign * coeff
    return ExactMatrix(data)


def is_lie(x: GroupAlgebraElement) -> bool:
    """True iff the two actions agree on every wedge power m = 0..n."""
    for m in range(x.n + 1):
        if grp_matrix(x, m) != alg_matrix(x, m):
            return False
    return True


@dataclass(frozen=True)
class LieSpaceResult:
    n: int
    basis: List[GroupAlgebraElement]

    @property
    def dim(self) -> int:
        return len(self.basis)


def lie_space(n: int, max_n: int = DEFAULT_SOLVER_BOUND) -> LieSpaceResult:
    """Exact basis of the space of Lie elements in Q[S_n].

    One unknown per permutation; one homogeneous equation per entry of each
    (multiplicative - derivation) matrix difference, m = 0..n.  The kernel
    basis comes from reduced echelon form with unknowns in lexicographic
    image order, so the output is deterministic.
    """
    if n > max_n:
        raise ResourceLimitError(
            "lie_space(%d) exceeds the bound %d" % (n, max_n))
    perms = all_permutations(n)
    rows = []
    # m = 0: sum of coefficients must vanish
    rows.append([Fraction(1)] * len(perms))
    for m in range(1, n + 1):
        basis = WedgeBasis(n, m)
        size = len(basis)
        # blocks[(row, col)][perm index] -> integer coefficient
        blocks = {}

        def _accumulate(image, col, gi, value):
            entry = blocks.setdefault((basis.index[image], col), {})
            entry[gi] = entry.get(gi, 0) + value

        for gi, perm in enumerate(perms):
            for col, subset in enumerate(basis.subsets):
                image, sign = sort_with_sign(perm(i) for i in subset)
                _accumulate(image, col, gi, sign)
                for p in range(m):
                    replaced = subset[:p] + (perm(subset[p]),) + subset[p + 1:]
                    sorted_images = sort_with_sign(replaced)
                    if sorted_images is None:
                        continue
                    image, sign = sorted_images
                    _accumulate(image, col, gi, -sign)
        for key in sorted(blocks):
            entry = blocks[key]
            if any(entry.values()):
                row = [Fraction(0)] * len(perms)
                for gi, val in entry.items():
                    row[gi] = Fraction(val)
                rows.append(row)
    system = ExactMatrix(rows)
    kernel = system.nullspace()
    basis = []
    for vec in kernel:
        terms = {perms[i]: c for i, c in enumerate(vec) if c}
        basis.append(GroupAlgebraElement(n, terms))
    return LieSpaceResult(n=n, basis=basis)


def action_matrix(x: GroupAlgebraElement, representation: str = "permutation"
                  ) -> ExactMatrix:
    """Matrix of x on Q^n ("permutation") or on the zero-sum hyperplane
    ("reflection", basis v_i - v_n for i = 1..n-1)."""
    n = x.n
    if representation == "permutation":
        return grp_matrix(x, 1)
    if representation == "reflection":
        data = [[Fraction(0)] * (n - 1) for _ in range(n - 1)]
        for perm, coeff in x.terms.items():
            for j in range(1, n):
                # x (v_j - v_n) = sum_g a_g (v_{g(j)} - v_{g(n)})
                img_j, img_n = perm(j), perm(n)
                if img_j < n:
                    data[img_j - 1][j - 1] = data[img_j - 1][j - 1] + coeff
                if img_n < n:
                    data[img_n - 1][j - 1] = data[img_n - 1][j - 1] - coeff
        return ExactMatrix(data)
    raise ValueError("unknown representation %r" % representation)


def action_rank(elements) -> int:
    """Rank of the permutation actions of the elements on Q^n, each n x n
    matrix flattened into one row."""
    rows = []
    for x in elements:
        mat = action_matrix(x, "permutation")
        rows.append([v for row in mat.data for v in row])
    return ExactMatrix(rows).rank()


def kernel_dim(n: int, max_n: int = DEFAULT_SOLVER_BOUND,
               space: Optional[LieSpaceResult] = None):
    """(dim of the Lie space, dim of its subspace acting by zero on Q^n).

    `space` is lie_space(n) when the caller has already solved for it."""
    if space is None:
        space = lie_space(n, max_n=max_n)
    return space.dim, space.dim - action_rank(space.basis)
