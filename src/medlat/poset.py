"""Finite posets, up-sets, antichain analytics and enumeration up to isomorphism.

Elements are dense integer indices 0..n-1; the order is a full boolean
matrix, so every comparability query is O(1).  An up-set is a uint64
bitmask (bit i = element i), which keeps set algebra on open sets cheap and
bounds a carrier at ``MAX_POSET_SIZE`` elements.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError, ResourceLimitError
from .kernels import permute_masks

MAX_POSET_SIZE = 64        # the width of a uint64 up-set bitmask
MAX_UP_SETS = 1 << 20      # up-sets one open-set enumeration may produce
ENUMERATION_CAP = 7


def _check_poset_size(n: int) -> None:
    """Refuse a carrier of n elements before any n x n array is built."""
    if n > MAX_POSET_SIZE:
        raise ResourceLimitError(f"poset has {n} elements; the cap is {MAX_POSET_SIZE}")


def _as_bool_matrix(leq) -> np.ndarray:
    m = np.asarray(leq, dtype=bool)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"order relation must be a square matrix, got shape {m.shape}")
    return m


def _bool_square(r: np.ndarray) -> np.ndarray:
    """The relation r;r as a boolean matrix.  The float32 product cannot wrap
    around to zero, unlike a uint8 one at 256 witnesses."""
    f = r.astype(np.float32)
    return (f @ f) > 0


def cover_matrix(leq: np.ndarray) -> np.ndarray:
    """The Hasse diagram of an order: x < y with nothing strictly between."""
    lt = leq & ~np.eye(leq.shape[0], dtype=bool)
    return lt & ~_bool_square(lt)


def hasse_dot(leq: np.ndarray, labels, graph: str, attrs=None) -> str:
    """The Hasse diagram of an order as a DOT digraph named graph, drawn
    bottom to top; attrs[i], when given, extends node i's attribute list."""
    lines = [f"digraph {graph} {{", "  rankdir=BT;"]
    for i, label in enumerate(labels):
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"{attrs[i] if attrs else ""}];')
    for i, j in np.argwhere(cover_matrix(leq)):
        lines.append(f"  n{int(i)} -> n{int(j)};")
    lines.append("}")
    return "\n".join(lines)


def single_covers(leq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the elements with exactly one lower cover and with exactly
    one upper cover, in O(m^2).  x has one lower cover iff some y < x has one
    element fewer below it (then y is that cover; with two covers, each has
    at least two fewer), and dually above."""
    below = leq.sum(axis=0)  # includes x itself
    above = leq.sum(axis=1)
    one_lower = (leq & (below[:, None] + 1 == below)).any(axis=0)
    one_upper = (leq & (above + 1 == above[:, None])).any(axis=1)
    return one_lower, one_upper


def check_partial_order(leq: np.ndarray) -> None:
    """Raise InputError unless leq is reflexive, antisymmetric and transitive."""
    n = leq.shape[0]
    if not leq[np.diag_indices(n)].all():
        i = int(np.flatnonzero(~leq[np.diag_indices(n)])[0])
        raise InputError(f"relation is not reflexive: ({i},{i}) missing")
    sym = leq & leq.T
    sym[np.diag_indices(n)] = False
    if sym.any():
        i, j = map(int, np.argwhere(sym)[0])
        raise InputError(f"relation is not antisymmetric: {i} <= {j} and {j} <= {i}")
    missing = _bool_square(leq) & ~leq
    if missing.any():
        i, j = map(int, np.argwhere(missing)[0])
        raise InputError(f"relation is not transitive: ({i},{j}) missing")


def _row_masks(rel: np.ndarray) -> np.ndarray:
    """Row i of a boolean matrix as a uint64 bitmask (bit j = rel[i, j])."""
    bits = np.uint64(1) << np.arange(rel.shape[1], dtype=np.uint64)
    return (rel * bits[None, :]).sum(axis=1, dtype=np.uint64)


@dataclass(frozen=True, eq=False)
class Poset:
    """An immutable finite partial order over elements 0..size-1.

    ``automorphisms``, when known, is a (g, size) array whose rows are
    element permutations that preserve the order; ``from_poset`` lifts them
    to the algebra.
    """

    leq: np.ndarray
    labels: tuple[str, ...]
    name: str = "poset"
    automorphisms: np.ndarray | None = None

    def __post_init__(self):
        self.leq.setflags(write=False)
        if self.automorphisms is not None:
            self.automorphisms.setflags(write=False)

    @property
    def size(self) -> int:
        return self.leq.shape[0]

    @property
    def up_masks(self) -> np.ndarray:
        """up_masks[a] = bitmask of the principal up-set of a."""
        return _row_masks(self.leq)

    @property
    def down_masks(self) -> np.ndarray:
        """down_masks[a] = bitmask of the principal down-set of a."""
        return _row_masks(self.leq.T)

    def __repr__(self):
        return f"Poset({self.name!r}, size={self.size})"


def make_poset(leq, labels=None, name: str = "poset") -> Poset:
    m = _as_bool_matrix(leq)
    check_partial_order(m)
    n = m.shape[0]
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    else:
        labels = tuple(labels)
        if len(labels) != n:
            raise InputError(f"expected {n} labels, got {len(labels)}")
    return Poset(m.copy(), labels, name)


def chain_poset(n: int) -> Poset:
    if n < 0:
        raise InputError("chain length must be nonnegative")
    _check_poset_size(n)
    leq = np.triu(np.ones((n, n), dtype=bool))
    return Poset(leq, tuple(str(i) for i in range(n)), f"chain{n}")


def open_sets(p: Poset) -> np.ndarray:
    """Bitmasks of all up-closed subsets of p, ascending, as uint64.

    Elements are added top-down, in order of the size of their up-set, so
    each one is minimal among those added so far: the new up-sets are the
    old ones that contain its strict up-set, with the element added.  The
    count only grows, so checking it before each step is exact.
    """
    _check_poset_size(p.size)
    up = p.up_masks
    masks = np.zeros(1, dtype=np.uint64)
    for x in np.argsort(p.leq.sum(axis=1), kind="stable"):
        bit = np.uint64(1) << np.uint64(x)
        above = up[x] & ~bit
        new = masks[(masks & above) == above] | bit
        if masks.size + new.size > MAX_UP_SETS:
            raise ResourceLimitError(f"poset {p.name!r} has more than {MAX_UP_SETS} up-sets")
        masks = np.concatenate([masks, new])
    masks.sort()
    return masks


def powerset_poset(n: int) -> Poset:
    """Nonempty subsets of {0..n-1} ordered by reverse inclusion (full set is
    minimum), with the n! automorphisms induced by permuting {0..n-1}."""
    if n < 1:
        raise InputError("powerset_poset needs n >= 1")
    size = (1 << min(n, MAX_POSET_SIZE)) - 1  # min: a huge n builds no huge int
    _check_poset_size(size)
    sets = np.arange(1, size + 1)  # element i corresponds to bitmask i+1
    leq = (sets[:, None] | sets[None, :]) == sets[:, None]  # [i, j]: set i >= set j
    labels = tuple("{" + ",".join(str(b) for b in range(n) if s >> b & 1) + "}"
                   for s in sets.tolist())
    bits = (sets[:, None] >> np.arange(n)) & 1                     # [i, b]: b in set i
    perms = np.array(list(itertools.permutations(range(n))))       # identity first
    images = (bits[None, :, :] << perms[:, None, :]).sum(axis=2)   # [g, i]: set of g(i)
    return Poset(leq, labels, f"2^{n}-{{}}", (images - 1).astype(np.int32))


# ---------------------------------------------------------------------------
# Canonical forms and enumeration up to isomorphism
# ---------------------------------------------------------------------------

def _neighbours(rows: list) -> tuple[list, list]:
    """Per element of an order given as row lists, the elements strictly
    below it and those strictly above it, ascending."""
    below = [[j for j, b in enumerate(col) if b and j != i] for i, col in enumerate(zip(*rows))]
    above = [[j for j, b in enumerate(row) if b and j != i] for i, row in enumerate(rows)]
    return below, above


def _refine_colors(leq: np.ndarray) -> list[int]:
    """The refined colour of each element of an order matrix (``_colors``)."""
    return _colors(*_neighbours(leq.tolist()))


def _colors(below: list, above: list) -> list[int]:
    """Colour refinement from (down-set size, up-set size): each round ranks
    an element by its colour and the sorted colours below and above it, and
    stops when the number of classes does not grow."""
    n = len(below)
    colors = [(len(below[i]) + 1, len(above[i]) + 1) for i in range(n)]
    for _ in range(n):
        if len(set(colors)) == n:
            # distinct colours rank by themselves, and the next round keeps them
            ranked = {c: r for r, c in enumerate(sorted(colors))}
            return [ranked[c] for c in colors]
        sig = [(c, tuple(sorted([colors[j] for j in b])), tuple(sorted([colors[j] for j in a])))
               for c, b, a in zip(colors, below, above)]
        ranked = {s: r for r, s in enumerate(sorted(set(sig)))}
        new = [ranked[s] for s in sig]
        if len(set(new)) == len(set(colors)):
            colors = new
            break
        colors = new
    return colors


_KEY_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def canonical_form(p: Poset | np.ndarray) -> bytes:
    """Lexicographically minimal relation matrix (row-major, one byte per
    entry) over the relabelings that keep the refined colour classes in
    colour order.  An array is taken as a partial order without checking.

    Positions are filled in order, each by an element x of the first cell of
    an ordered partition that starts as the colour classes.  Placing x splits
    every cell into the elements not above x, then those above it: that is
    the least row x can get, and the rows placed before stay as they are,
    since a cell only ever holds elements with equal bits in them.  A branch
    stops as soon as its rows exceed the best key's, and of twins (the same
    strict down- and up-sets) only one is tried, because swapping two is an
    automorphism that fixes every element placed.  Once every cell holds one
    element the rest of the order is forced, and its rows are read off at
    once.  Cells are bitmasks of elements, and a row is an n-bit int with
    position 0 highest.
    """
    leq = p.leq if isinstance(p, Poset) else _as_bool_matrix(p)
    n = leq.shape[0]
    below, above = _neighbours(leq.tolist())
    colors = _colors(below, above)
    twin = [(tuple(below[x]), tuple(above[x])) for x in range(n)]
    up = [sum(1 << y for y in above[x]) for x in range(n)]
    best = None  # the rows of the least key so far

    def search(placed: list, cells: list, key: list):
        nonlocal best
        if len(cells) == n - len(placed):  # single elements: the order is forced
            order = placed + [cell.bit_length() - 1 for cell in cells]
            for x in order[len(placed):]:
                ux, r = up[x] | 1 << x, 0
                for y in order:
                    r = r << 1 | ux >> y & 1
                key = key + [r]
            if best is None or key < best:
                best = key
            return
        first, tried = cells[0], set()
        rest = first
        while rest:
            x = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if twin[x] in tried:
                continue
            tried.add(twin[x])
            ux, r = up[x], 0
            for y in placed:
                r = r << 1 | ux >> y & 1
            r = r << 1 | 1
            split = []
            for cell in (first & ~(1 << x), *cells[1:]):
                hi = cell & ux
                r = r << cell.bit_count() | (1 << hi.bit_count()) - 1
                split += [part for part in (cell ^ hi, hi) if part]
            key_x = key + [r]
            if best is None or key_x <= best[:len(key_x)]:
                search(placed + [x], split, key_x)

    classes = [sum(1 << x for x in range(n) if colors[x] == c) for c in sorted(set(colors))]
    search([], classes, [])
    return "".join(format(r, f"0{n}b") for r in best).encode().translate(_KEY_BYTES)


def order_isomorphisms(leq1: np.ndarray, leq2: np.ndarray):
    """Every order isomorphism from leq1 onto leq2, as a list of images.

    Backtracks over the refined colour classes, smallest class first: x may
    go to y of its colour when (x, y) agrees with every pair already assigned,
    in both directions, which by antisymmetry also keeps y unused.  Isomorphic
    orders refine to matching colours, so no isomorphism is missed.  There is
    no cost bound: the worst case is exponential.
    """
    n = leq1.shape[0]
    c1 = _refine_colors(leq1)
    c2 = c1 if leq2 is leq1 else _refine_colors(leq2)
    if leq2.shape[0] != n or sorted(c1) != sorted(c2):
        return
    l1, l2 = leq1.tolist(), leq2.tolist()
    order = sorted(range(n), key=lambda x: (c1.count(c1[x]), c1[x]))
    image, tries = [-1] * n, []  # tries[d]: the images left to try for order[d]
    while True:
        d = len(tries)
        if d == n:
            yield list(image)
        else:
            x, done = order[d], order[:d]
            tries.append(iter([y for y in range(n) if c2[y] == c1[x] and all(
                l1[x][z] == l2[y][image[z]] and l1[z][x] == l2[image[z]][y] for z in done)]))
        # back up to the deepest level with an image left, and take it
        while tries and (y := next(tries[-1], -1)) < 0:
            tries.pop()
        if not tries:
            return
        image[order[len(tries) - 1]] = y


def _least_in_orbit(masks: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Whether each uint64 mask of elements is the least of its images under
    the element permutations perms (one per row)."""
    return (permute_masks(masks, perms) >= masks).all(axis=0)


@lru_cache(maxsize=None)
def _enumerate_canonical(n: int) -> tuple[bytes, ...]:
    """The canonical keys of the n-element posets, one per isomorphism
    class, ascending.

    Each class is reached from a class P of size n - 1 by adding a new
    maximal element x whose strict down-set is a down-set D of P.  Most
    children that repeat a class are not keyed:

    - For an automorphism s of P, D and s(D) give isomorphic children, so
      only the D whose up-set complement is the least mask of its orbit
      under Aut(P) is tried.  Aut(P) is trivial when P's refined colours
      are all distinct, and is not computed then.
    - A child is keyed only when no other maximal element has a larger
      profile than x.  The profile of y is the sum of B**|down(z)| over the
      z <= y, with B = n: its digits count the elements below y by the size
      of their down-sets, so it is an isomorphism invariant.  Adding x
      changes no down-set of P, so the profiles of P's maximal elements are
      read once per parent.

    No class is lost.  Every class C has a maximal element y with the
    largest profile.  Deleting y leaves a poset isomorphic to some P of size
    n - 1, and the isomorphism takes y's strict down-set to a down-set D' of
    P.  The kept representative D of D''s orbit rebuilds C with x in y's
    place, so x has the largest profile and that child is keyed.  Maximal
    elements with equal profiles that no automorphism swaps still give
    repeats; ``seen`` drops them.
    """
    if n == 1:
        return (canonical_form(make_poset(np.ones((1, 1), dtype=bool))),)
    seen: set[bytes] = set()
    m = n - 1
    full = np.uint64((1 << m) - 1)
    bits = np.uint64(1) << np.arange(m, dtype=np.uint64)
    labels = tuple(str(i) for i in range(m))
    leq = np.zeros((n, n), dtype=bool)
    leq[m, m] = True
    for key in _enumerate_canonical(m):
        base = np.frombuffer(key, dtype=np.uint8).reshape(m, m).astype(bool)
        ups = open_sets(Poset(base, labels))
        if len(set(_refine_colors(base))) < m:
            ups = ups[_least_in_orbit(ups, np.array(list(order_isomorphisms(base, base))))]
        # the strict down-set of x is the complement of an up-set
        below = ((full ^ ups)[:, None] & bits) != 0
        weight = n ** base.sum(axis=0)            # B**|down(z)|; n**n fits int64 to n = 15
        maximal = np.flatnonzero(base.sum(axis=1) == 1)
        rivals = (weight @ base)[maximal]         # the profiles of P's maximal elements
        profile = n ** (below.sum(axis=1) + 1) + below @ weight
        best_rival = np.where(below[:, maximal], 0, rivals).max(axis=1, initial=0)
        leq[:m, :m] = base
        for column in below[profile >= best_rival]:
            leq[:m, m] = column
            seen.add(canonical_form(leq))
    return tuple(sorted(seen))


def check_enumeration_bound(n: int) -> None:
    """Refuse a poset size bound below 1 or above ``ENUMERATION_CAP``."""
    if n < 1:
        raise InputError(f"the poset size bound must be at least 1, got {n}")
    if n > ENUMERATION_CAP:
        raise ResourceLimitError(f"poset enumeration cap is {ENUMERATION_CAP}, got n={n}")


def enumerate_posets(n: int) -> list[Poset]:
    """One representative per isomorphism class of n-element posets."""
    check_enumeration_bound(n)
    out = []
    for k, key in enumerate(_enumerate_canonical(n)):
        leq = np.frombuffer(key, dtype=np.uint8).reshape(n, n).astype(bool)
        out.append(Poset(leq, tuple(str(i) for i in range(n)), f"P{n}.{k}"))
    return out


def max_antichain_size(leq) -> int:
    """Size of the largest pairwise-incomparable subset of a partial order.

    Uses Dilworth's theorem: a minimum chain cover of the order has the same
    size as a maximum antichain, and the cover size is n minus a maximum
    matching in the bipartite graph with an edge x -> y for each x < y.
    The matching grows along augmenting paths: each pass searches from every
    unmatched x with one shared visited set, and the passes stop when one
    finds no path (then none exists, as the matching did not change).
    """
    m = _as_bool_matrix(leq)
    check_partial_order(m)
    return _dilworth_width(m)


def _dilworth_width(m: np.ndarray) -> int:
    """``max_antichain_size`` of a boolean order matrix taken as a partial
    order without checking it."""
    n = m.shape[0]
    # Relabel by decreasing up-set size, a linear extension in which the
    # nearest elements above x come first in its row: covers are tried first.
    order = np.argsort(-m.sum(axis=1), kind="stable")
    lt = m[np.ix_(order, order)] & ~np.eye(n, dtype=bool)
    above = [np.flatnonzero(row).tolist() for row in lt]
    mate = [-1] * n  # mate[y] = x when the edge x -> y is matched
    free = list(range(n))
    while True:
        seen = [False] * n
        still = [x for x in free if not _augment(x, above, mate, seen)]
        if len(still) == len(free):
            return len(free)
        free = still


def _augment(root: int, above: list, mate: list, seen: list) -> bool:
    """Depth-first search for an augmenting path from the unmatched root,
    flipping it into the matching if found.  The stack is explicit, so long
    chains cannot hit the recursion limit."""
    stack = [(root, iter(above[root]))]
    via = []  # via[i] is the y that led from stack[i] to stack[i + 1]
    while stack:
        for y in stack[-1][1]:
            if seen[y]:
                continue
            seen[y] = True
            if mate[y] < 0:
                for (x, _), z in zip(stack, via + [y]):
                    mate[z] = x
                return True
            stack.append((mate[y], iter(above[mate[y]])))
            via.append(y)
            break
        else:
            stack.pop()
            if via:
                via.pop()
    return False


# ---------------------------------------------------------------------------
# JSON poset files
# ---------------------------------------------------------------------------

def poset_from_dict(d: dict) -> Poset:
    try:
        labels = d["elements"]
        pairs = d["le"]
    except (KeyError, TypeError) as e:
        raise InputError(f"poset file needs 'elements' and 'le' keys: {e}")
    if not isinstance(labels, list):
        raise InputError(f"'elements' must be a list of labels, got {type(labels).__name__}")
    n = len(labels)
    _check_poset_size(n)
    if not isinstance(pairs, list):
        raise InputError(f"'le' must be a list of pairs, got {type(pairs).__name__}")
    leq = np.eye(n, dtype=bool)
    for pair in pairs:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(isinstance(x, int) and not isinstance(x, bool) for x in pair)):
            raise InputError(f"bad le pair {pair!r}: expected two integer indices")
        i, j = pair
        if not (0 <= i < n and 0 <= j < n):
            raise InputError(f"le pair {pair!r} out of range for {n} elements")
        leq[i, j] = True
    check_partial_order(leq)
    return Poset(leq, tuple(str(x) for x in labels), str(d.get("name", "poset")))


def poset_to_dict(p: Poset) -> dict:
    pairs = [[int(i), int(j)] for i in range(p.size) for j in range(p.size)
             if i != j and p.leq[i, j]]
    return {"name": p.name, "elements": list(p.labels), "le": pairs}


def load_poset(path: str) -> Poset:
    with open(path) as f:
        try:
            d = json.load(f)
        except RecursionError:  # the decoder recurses once per nested array or object
            raise InputError(f"{path}: JSON nests too deeply") from None
    return poset_from_dict(d)
