"""Permutations of {1..n}: composition, cycles, sign.

Composition uses the left-action convention (sigma*tau)(i) = sigma(tau(i)),
so products of cycles are read right to left; this is the convention under
which (12)(23) = (123).
"""

from __future__ import annotations

from itertools import combinations, permutations as _itertools_permutations


class InvalidCycleError(ValueError):
    """A cycle list repeats an index or leaves the range 1..n."""


class DegreeMismatchError(ValueError):
    """Operands act on different ground sets."""


class Permutation:
    """A bijection of {1..n}; images[i-1] = sigma(i)."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise InvalidCycleError("images %r are not a bijection" % (images,))
        self.images = images

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        return cls.from_cycles(n, [(i, j)])

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Permutation":
        images = list(range(1, n + 1))
        seen = set()
        for cycle in cycles:
            cycle = tuple(cycle)
            for idx in cycle:
                if not 1 <= idx <= n:
                    raise InvalidCycleError("index %d out of 1..%d" % (idx, n))
                if idx in seen:
                    raise InvalidCycleError("index %d repeated" % idx)
                seen.add(idx)
            for pos, idx in enumerate(cycle):
                images[idx - 1] = cycle[(pos + 1) % len(cycle)]
        return cls(images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """Left action: (self*other)(i) = self(other(i))."""
        if self.n != other.n:
            raise DegreeMismatchError("degrees %d and %d" % (self.n, other.n))
        # a composite of two bijections is one, so skip __init__'s check
        out = Permutation.__new__(Permutation)
        out.images = tuple([self.images[x - 1] for x in other.images])
        return out

    __mul__ = compose

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(inv)

    def cycles(self, include_fixed=False):
        """Disjoint cycles, each starting at its smallest element, sorted."""
        seen = [False] * self.n
        out = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            cycle = [start]
            seen[start - 1] = True
            nxt = self(start)
            while nxt != start:
                cycle.append(nxt)
                seen[nxt - 1] = True
                nxt = self(nxt)
            if len(cycle) > 1 or include_fixed:
                out.append(tuple(cycle))
        return out

    def cycle_count(self) -> int:
        """Number of orbits, fixed points counted as 1-cycles."""
        return len(self.cycles(include_fixed=True))

    def sign(self) -> int:
        """Parity; equals (-1)**(n + cycle_count)."""
        return -1 if (self.n + self.cycle_count()) % 2 else 1

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.images, start=1))

    def extend(self, n: int) -> "Permutation":
        """The same permutation inside S_n (new points fixed)."""
        if n < self.n:
            raise DegreeMismatchError("cannot shrink a permutation")
        return Permutation(self.images + tuple(range(self.n + 1, n + 1)))

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        return "Permutation(%r)" % (self.images,)

    def __str__(self):
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(str(i) for i in c) + ")" for c in cyc)


def inversion_sign(seq) -> int:
    """The parity of the inversions of a sequence of distinct values, i.e.
    the sign of the permutation that sorts it."""
    return -1 if sum(a > b for a, b in combinations(seq, 2)) % 2 else 1


def all_permutations(n: int):
    """All of S_n, in lexicographic order of image tuples."""
    return [Permutation(p) for p in _itertools_permutations(range(1, n + 1))]
