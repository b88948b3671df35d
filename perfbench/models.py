"""Independent models of the up-set algebras the benchmark asks about.

An algebra of up-sets is kept as the ascending list of its up-set bitmasks,
which is also how medlat numbers elements (index = rank of the mask).  The
Brouwer order is reverse inclusion, so the bottom is the full carrier.
These models answer structural questions (size, width, covers, negations)
without going through medlat, and are used only as oracles and to choose
valid element indices for generated specs.
"""

from __future__ import annotations

import random


def powerset_up_masks(n: int) -> list[int]:
    """Principal up-sets of the bn(n) frame: element i is the subset with
    bitmask i+1, and i <= j when subset(i) contains subset(j)."""
    sets = [s + 1 for s in range((1 << n) - 1)]
    return [sum(1 << j for j, t in enumerate(sets) if (s | t) == s) for s in sets]


def chain_up_masks(k: int) -> list[int]:
    """Principal up-sets of the k-element chain 0 < 1 < ... < k-1."""
    return [((1 << k) - 1) ^ ((1 << i) - 1) for i in range(k)]


def leq_up_masks(n: int, le_pairs) -> list[int]:
    """Principal up-sets of a poset given as its non-reflexive pairs i <= j
    (already transitively closed)."""
    up = [1 << i for i in range(n)]
    for i, j in le_pairs:
        up[i] |= 1 << j
    return up


def open_masks(up: list[int]) -> list[int]:
    """All up-sets (unions of principal up-sets), ascending."""
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for b in up:
                v = u | b
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return sorted(seen)


def random_poset(rng: random.Random, n: int, p_edge: float = 0.35):
    """Random order on 0..n-1 (edges along a random linear order, closed
    transitively), as its non-reflexive pairs."""
    perm = list(range(n))
    rng.shuffle(perm)
    le = [[i == j for j in range(n)] for i in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p_edge:
                le[perm[a]][perm[b]] = True
    for k in range(n):
        for i in range(n):
            if le[i][k]:
                for j in range(n):
                    if le[k][j]:
                        le[i][j] = True
    return [(i, j) for i in range(n) for j in range(n) if i != j and le[i][j]]


class UpsetAlgebra:
    """Order structure of a family of up-sets under reverse inclusion."""

    def __init__(self, masks: list[int], up: list[int] | None = None):
        self.masks = masks
        self.up = up  # principal up-sets of the frame, when poset-backed

    @property
    def size(self) -> int:
        return len(self.masks)

    def le(self, x: int, y: int) -> bool:
        return (self.masks[x] | self.masks[y]) == self.masks[x]

    def sub(self, keep) -> "UpsetAlgebra":
        return UpsetAlgebra([self.masks[i] for i in keep])

    def interval(self, lo: int, hi: int) -> "UpsetAlgebra":
        return self.sub(z for z in range(self.size) if self.le(lo, z) and self.le(z, hi))

    def below(self, f: int) -> "UpsetAlgebra":
        """The initial segment [bottom, f]; a factor by the principal filter
        of f is isomorphic to it."""
        return self.sub(z for z in range(self.size) if self.le(z, f))

    def _strict_up(self) -> list[list[int]]:
        return [[y for y in range(self.size) if y != x and self.le(x, y)]
                for x in range(self.size)]

    def width(self) -> int:
        """Largest antichain: size minus a maximum matching of the strict
        order (Dilworth), by augmenting paths."""
        adj = self._strict_up()
        match_right = [-1] * self.size

        def augment(u, seen):
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    if match_right[v] < 0 or augment(match_right[v], seen):
                        match_right[v] = u
                        return True
            return False

        matched = sum(augment(u, set()) for u in range(self.size))
        return self.size - matched

    def cover_count(self) -> int:
        adj = self._strict_up()
        sets = [set(a) for a in adj]
        return sum(1 for x in range(self.size) for y in adj[x]
                   if not any(y in sets[z] for z in adj[x]))

    def negations_meet_irreducible(self) -> bool:
        """Every negation -U = {a : up(a) misses U} is empty or principal
        (the meet-irreducible up-sets); poset-backed algebras only."""
        principal = set(self.up) | {0}
        for u in self.masks:
            neg = 0
            for a, ua in enumerate(self.up):
                if ua & u == 0:
                    neg |= 1 << a
            if neg not in principal:
                return False
        return True


def bn_model(n: int) -> UpsetAlgebra:
    up = powerset_up_masks(n)
    return UpsetAlgebra(open_masks(up), up)


def chain_model(m: int) -> UpsetAlgebra:
    """chain:m is the algebra of the (m-1)-element chain."""
    up = chain_up_masks(m - 1)
    return UpsetAlgebra(open_masks(up), up)


def poset_model(n: int, le_pairs) -> UpsetAlgebra:
    up = leq_up_masks(n, le_pairs)
    return UpsetAlgebra(open_masks(up), up)
