"""Finite Brouwer algebras, held as tables or as the up-sets of a poset.

A Brouwer algebra here is a bounded distributive lattice with the
co-implication  a -> b = min{c : a + c >= b}  (order-dual of a Heyting
algebra); the *least* element is the designated truth value.  Its four
tables (order, join, meet, implication) are m x m numpy arrays.  An algebra
built from a poset (``from_poset``, and so ``bn`` and ``chain_algebra``)
holds the poset and its up-set masks instead, and builds each table, its
element labels and its lifted automorphisms only when first read: scans,
``eval_formula`` and negations compute on the masks
(``BrouwerAlgebra.operations``), order questions (irreducibles, widths, DOT
export) read ``leq`` alone, and intervals, factors and JSON the others.
Labels are read by what prints or names an element; the automorphisms by
the table builder and by scans with a leading variable (see ``kernels``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import kernels
from .errors import InputError, ResourceLimitError
from .poset import (
    MAX_POSET_SIZE,
    Poset,
    _row_masks,
    check_partial_order,
    chain_poset,
    hasse_dot,
    open_sets,
    order_isomorphisms,
    powerset_poset,
    single_covers,
)

MAX_ALGEBRA_SIZE = 1 << 13  # elements; each of the four tables, when built, is m x m
ELEMENT_DTYPE = np.uint16   # of every array of element indices an algebra holds
assert MAX_ALGEBRA_SIZE <= 1 << 16, "element indices must fit ELEMENT_DTYPE"
_TABLE_BLOCK = 1 << 20      # table entries computed at a time
VALIDATE_CAP = 320
BN_CAP = 5


_TABLES = ("leq", "join", "meet", "imp")
_DERIVED = _TABLES + ("labels", "automorphisms")  # built on first read when poset-backed


@dataclass(frozen=True, eq=False)
class BrouwerAlgebra:
    # The four tables; all None for a poset-backed algebra, which builds each
    # from its poset and masks when it is first read (see __getattr__), and
    # so its labels and automorphisms when they are left None too.
    leq: np.ndarray | None   # bool (m, m)
    join: np.ndarray | None  # ELEMENT_DTYPE (m, m), the lattice +
    meet: np.ndarray | None  # ELEMENT_DTYPE (m, m), the lattice x
    imp: np.ndarray | None   # ELEMENT_DTYPE (m, m)
    bottom: int
    top: int
    labels: tuple[str, ...] | None
    provenance: str
    poset: Poset | None = None
    open_masks: np.ndarray | None = None  # uint64 per element, ascending, when poset-backed
    # ELEMENT_DTYPE (g, m) element permutations.  A factory, unlike a default,
    # leaves no class attribute, which a dropped field would read as None
    # instead of reaching __getattr__.
    automorphisms: np.ndarray | None = field(default_factory=lambda: None)

    def __post_init__(self):
        """Takes the element arrays in any integer dtype and stores them in
        ELEMENT_DTYPE, after refusing more than MAX_ALGEBRA_SIZE elements and
        every entry outside [0, m): narrowing first would wrap -1 or
        2**16 + x onto a valid-looking element.  Tables left out (all four
        None) are dropped from the instance, to be built when first read, and
        so are the labels and automorphisms of such an algebra when None."""
        given = [getattr(self, t) is not None for t in _TABLES]
        if any(given) and not all(given):
            raise InputError("an algebra takes all four tables or none of them")
        lazy = not any(given)
        if lazy:
            if self.poset is None or self.open_masks is None:
                raise InputError("an algebra without tables needs its poset and up-set masks")
            for t in _DERIVED:
                if getattr(self, t) is None:
                    object.__delattr__(self, t)
        m = self.size
        if m > MAX_ALGEBRA_SIZE:
            raise ResourceLimitError(f"{self.provenance} has {m} elements; the cap is {MAX_ALGEBRA_SIZE}")
        if not lazy:
            self.leq.setflags(write=False)
        for name in ("automorphisms",) if lazy else ("join", "meet", "imp", "automorphisms"):
            t = self.__dict__.get(name)
            if t is None:  # automorphisms are optional, or built when first read
                continue
            if t.ndim != 2 or t.shape[1] != m or (t.shape[0] != m and name != "automorphisms"):
                raise InputError(f"{name} table shape {t.shape} does not match size {m}")
            kind = t.dtype.kind
            if kind not in "iu":
                raise InputError(f"{name} table entries must be integers, not {t.dtype}")
            if t.size and (t.max() >= m or kind == "i" and t.min() < 0):
                raise InputError(f"{name} table entries out of element range [0, {m})")
            if t.dtype != ELEMENT_DTYPE:
                t = t.astype(ELEMENT_DTYPE)
                object.__setattr__(self, name, t)
            t.setflags(write=False)

    def __getattr__(self, name):
        """Reached only for an attribute the instance lacks: a table, the
        labels or the automorphisms of a poset-backed algebra not read
        before.  That one alone is built then, in the masks' numbering, and
        kept: a table by ``_up_set_table`` (which reads the automorphisms),
        the automorphisms by ``_lift_automorphisms`` (None when the poset
        has none), the labels as the sets of poset labels."""
        masks = self.__dict__.get("open_masks")
        if name not in _DERIVED or masks is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        p = self.poset
        if name == "labels":
            value = tuple("{" + ",".join(p.labels[i] for i in range(p.size) if u >> i & 1) + "}"
                          for u in masks.tolist())
        elif name == "automorphisms":
            value = None if p.automorphisms is None else _lift_automorphisms(p, masks)
        else:
            value = _up_set_table(name, p, masks, self.automorphisms)
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(self, name, value)
        return value

    @property
    def size(self) -> int:
        return len(self.open_masks) if self.open_masks is not None else self.leq.shape[0]

    @cached_property
    def operations(self) -> kernels.Operations:
        """The algebra as the kernels compute in it: on the up-set masks when
        it has a poset, which builds no table, else on its tables."""
        if self.open_masks is not None:
            return kernels.mask_operations(self.open_masks, self.poset.down_masks)
        tables = (self.join, self.meet, self.imp)
        return kernels.Operations(*map(kernels.table_operation, tables), self.bottom, self.top)

    def check_element(self, x: int) -> int:
        x = int(x)
        if not 0 <= x < self.size:
            raise InputError(f"element index {x} out of range for algebra of size {self.size}")
        return x

    def __repr__(self):
        return f"BrouwerAlgebra({self.provenance!r}, size={self.size})"


# ---------------------------------------------------------------------------
# construction from a poset
# ---------------------------------------------------------------------------

def _position_tables(masks: np.ndarray, width: int) -> list[np.ndarray]:
    """Byte-radix tables that map each of the distinct masks (bits below
    width) to its position in the list, in whatever order it is given.

    A lookup reads one byte of the wanted mask per table, the most
    significant of its ceil(width / 8) bytes first.  The first table is
    indexed by that byte alone; each later one is a raveled (nodes + 1) x 256
    table indexed by node * 256 + byte, whose last row is a dead node that
    no mask reaches.  A byte no mask has at a node leads to the dead node,
    and in the last table, which holds the positions, to -1.  So the tables
    hold at most ceil(width / 8) * (len(masks) + 1) * 256 int32 entries, and
    node * 256 + byte fits an int32: ``open_sets`` lists at most 2**20 masks."""
    nbytes = max(1, -(-width // 8))
    masks = masks.astype("<u8")
    byte = masks.view(np.uint8).reshape(-1, 8)  # byte b holds bits 8b..8b+7
    node, rows = 0, 1  # the root table has no dead row
    tables = []
    for b in range(nbytes - 1, -1, -1):
        if b:
            prefixes, child = np.unique(masks >> np.uint64(8 * b), return_inverse=True)
            dead = len(prefixes)
        else:
            child, dead = np.arange(len(masks), dtype=np.int32), -1
        t = np.full(rows * 256, dead, dtype=np.int32)
        key = node * 256 + byte[:, b]
        t[key] = child
        tables.append(t)
        node, rows = child, dead + 1
    if (t[key] != child).any():  # a later copy of a mask took its place
        raise InputError("internal: the masks are not distinct")
    return tables


def _index_of_masks(tables: list[np.ndarray], wanted: np.ndarray) -> np.ndarray:
    """The int32 positions of the wanted masks in the list that
    ``_position_tables`` was built on; a mask not in it is refused."""
    nbytes = len(tables)
    wanted = wanted.astype("<u8", copy=False)
    if int(wanted.max(initial=0)) >> 8 * nbytes:  # a byte no table reads
        raise InputError("internal: mask not found among the up-sets")
    byte = wanted.view(np.uint8).reshape(wanted.shape + (8,))
    idx = tables[0].take(byte[..., nbytes - 1])
    for b, t in zip(range(nbytes - 2, -1, -1), tables[1:]):
        idx <<= 8
        idx |= byte[..., b]
        idx = t.take(idx, mode="clip")  # in range: a node is at most the dead row
    if idx.min(initial=0) < 0:
        raise InputError("internal: mask not found among the up-sets")
    return idx


def _check_automorphisms(p: Poset) -> None:
    """Refuses automorphisms of p that are not rows of element indices of
    p, or that do not preserve its order."""
    sigma = np.asarray(p.automorphisms)
    n = p.size
    if (sigma.ndim != 2 or sigma.shape[1] != n or not np.issubdtype(sigma.dtype, np.integer)
            or ((sigma < 0) | (sigma >= n)).any()):
        raise InputError(f"automorphisms of {p.name!r} must be rows of {n} element indices")
    bad = (p.leq[sigma[:, :, None], sigma[:, None, :]] != p.leq).any(axis=(1, 2))
    if bad.any():
        raise InputError(f"row {int(np.flatnonzero(bad)[0])} of the automorphisms "
                         f"of {p.name!r} does not preserve the order")


def _lift_automorphisms(p: Poset, masks: np.ndarray) -> np.ndarray:
    """The element permutations U |-> sigma(U) of B(p), one ELEMENT_DTYPE row
    per automorphism sigma of p (checked by ``_check_automorphisms``)."""
    lifted = _index_of_masks(_position_tables(masks, p.size),
                             kernels.permute_masks(masks, np.asarray(p.automorphisms)))
    return lifted.astype(ELEMENT_DTYPE)


def _up_set_table(name: str, p: Poset, masks: np.ndarray, automorphisms: np.ndarray | None = None):
    """The table name (leq, join, meet or imp) of the algebra of all up-sets
    of p, element i being masks[i], in any order: join = intersection,
    meet = union, and U -> V = {a : [a) & U <= V}, computed a band of about
    ``_TABLE_BLOCK`` entries at a time.  A result mask is turned back into
    its element by the byte-radix tables of ``_position_tables``.

    automorphisms, when given, are element permutations g of the algebra
    (rows of ``_lift_automorphisms``, which a poset-backed algebra lifts on
    the first read of a table; they need not form a group).  Row x
    is then filled from a row r with g(r) = x that is computed directly:
    leq[x, g(v)] = leq[r, v] and T[x, g(v)] = g(T[r, v]) for join, meet and
    imp.  r is the least preimage of x under the rows, taken only when r is
    its own least preimage; every other row is computed directly: for a
    group, one row per orbit, its least element, and with none, every row."""
    m = len(masks)
    tables = None if name == "leq" else _position_tables(masks, p.size)
    luts = kernels.imp_luts(p.down_masks) if name == "imp" else None
    table = np.empty((m, m), dtype=bool if name == "leq" else ELEMENT_DTYPE)
    direct, fills = np.arange(m), ()  # the rows computed, and the (g, g^-1) that fill
    if automorphisms is not None:
        ar = np.arange(m, dtype=np.int32)
        inverse = np.empty_like(automorphisms)
        np.put_along_axis(inverse, automorphisms, ar[None, :], axis=1)
        via = inverse.argmin(axis=0)  # the row g giving x its least preimage
        source = np.minimum(inverse[via, ar], ar)
        filled = (source < ar) & (source[source] == source)
        direct = np.flatnonzero(~filled)
        fills = zip(automorphisms, inverse)
    rows = max(1, _TABLE_BLOCK // m)
    for lo in range(0, len(direct), rows):
        band = direct[lo:lo + rows]
        u = masks[band, None]
        if name == "leq":
            table[band] = (u & masks) == masks  # U >= V as sets
        else:
            out = (kernels.imp_masks(masks[band], masks, luts) if name == "imp"
                   else u & masks if name == "join" else u | masks)
            table[band] = _index_of_masks(tables, out)
    # Each g fills the rows it reaches from their sources, a band at a time:
    # one take along the rows by g^-1, and for join, meet and imp one take of
    # g on the values.
    for k, (g, inv) in enumerate(fills):
        targets = np.flatnonzero(filled & (via == k))
        for lo in range(0, len(targets), rows):
            x = targets[lo:lo + rows]
            t = table[source[x]].take(inv, axis=1)
            table[x] = t if name == "leq" else g.take(t, mode="clip")  # every entry is an element
    return table


def from_poset(p: Poset, provenance: str | None = None) -> BrouwerAlgebra:
    """The algebra of up-closed subsets of p, ordered by reverse inclusion
    and numbered by ascending mask: bottom = whole carrier, top = empty set;
    its provenance is ``B(name of p)`` unless given.
    It holds p and its masks alone.  p's automorphisms, when it carries
    them, are checked here; each table, the element labels and the
    automorphisms lifted to element permutations are built when first read
    (see ``BrouwerAlgebra.__getattr__``), and the table builder then
    computes one row per orbit and fills the others by permutation."""
    masks = open_sets(p)
    m = len(masks)
    if m > MAX_ALGEBRA_SIZE:
        raise ResourceLimitError(f"B({p.name}) has {m} elements; the cap is {MAX_ALGEBRA_SIZE}")
    if p.automorphisms is not None:
        _check_automorphisms(p)
    return BrouwerAlgebra(
        leq=None, join=None, meet=None, imp=None,
        bottom=m - 1, top=0,
        labels=None, provenance=provenance or f"B({p.name})",
        poset=p, open_masks=masks,
    )


def from_tables(leq, join, meet, imp, bottom, top, labels=None,
                provenance: str = "tables") -> BrouwerAlgebra:
    """Wrap copies of raw tables without validating the laws (see validate);
    the algebra refuses entries that are not elements.  An integer table is
    copied in its own dtype, any other (a float zeros table) as int64."""
    leq = np.array(leq, dtype=bool)
    join, meet, imp = (np.array(t) for t in (join, meet, imp))
    join, meet, imp = (t if t.dtype.kind in "iu" else t.astype(np.int64) for t in (join, meet, imp))
    if labels is None:
        labels = tuple(f"e{i}" for i in range(leq.shape[0]))
    return BrouwerAlgebra(leq, join, meet, imp, int(bottom), int(top), tuple(labels), provenance)


@lru_cache(maxsize=None)
def bn(n: int) -> BrouwerAlgebra:
    """The level-n algebra: opens of the nonempty subsets of {0..n-1} by reverse inclusion."""
    if n < 1:
        raise InputError("bn needs n >= 1")
    if n > BN_CAP:
        raise ResourceLimitError(f"bn cap is {BN_CAP}, got n={n}")
    return from_poset(powerset_poset(n), provenance=f"bn:{n}")


@lru_cache(maxsize=None)
def chain_algebra(m: int) -> BrouwerAlgebra:
    if m < 1:
        raise InputError("chain algebra needs at least one element")
    return from_poset(chain_poset(m - 1), provenance=f"chain:{m}")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    law: str
    witness: tuple


def validate(a: BrouwerAlgebra) -> list[Violation]:
    """Exhaustively check the Brouwer-algebra laws; empty list means valid.

    Each violated law is reported once, with a minimal witness tuple.
    """
    m = a.size
    if m > VALIDATE_CAP:
        raise ResourceLimitError(
            f"validate is cubic in size; {m} elements exceeds cap {VALIDATE_CAP}")
    out: list[Violation] = []
    try:
        check_partial_order(a.leq)
    except InputError as e:
        out.append(Violation("order", (str(e),)))
        return out

    if not a.leq[a.bottom, :].all():
        out.append(Violation("bottom", (int(np.flatnonzero(~a.leq[a.bottom])[0]),)))
    if not a.leq[:, a.top].all():
        out.append(Violation("top", (int(np.flatnonzero(~a.leq[:, a.top])[0]),)))

    ar = np.arange(m)
    # join is the least upper bound
    ub_ok = a.leq[ar[:, None], a.join] & a.leq[ar[None, :], a.join]
    if not ub_ok.all():
        i, j = map(int, np.argwhere(~ub_ok)[0])
        out.append(Violation("join-upper-bound", (i, j)))
    common_ub = a.leq[:, None, :] & a.leq[None, :, :]          # (a, b, c)
    least = a.leq[a.join]                                       # (a, b, c)
    bad = common_ub & ~least
    if bad.any():
        i, j, c = map(int, np.argwhere(bad)[0])
        out.append(Violation("join-least", (i, j, c)))

    # meet is the greatest lower bound
    lb_ok = a.leq[a.meet, ar[:, None]] & a.leq[a.meet, ar[None, :]]
    if not lb_ok.all():
        i, j = map(int, np.argwhere(~lb_ok)[0])
        out.append(Violation("meet-lower-bound", (i, j)))
    common_lb = a.leq.T[:, None, :] & a.leq.T[None, :, :]      # c <= a and c <= b
    greatest = a.leq.T[a.meet]                                  # c <= meet(a,b)
    bad = common_lb & ~greatest
    if bad.any():
        i, j, c = map(int, np.argwhere(bad)[0])
        out.append(Violation("meet-greatest", (i, j, c)))

    # a x (b + c) = (a x b) + (a x c)
    lhs = a.meet[ar[:, None, None], a.join[None, :, :]]
    rhs = a.join[a.meet[:, :, None], a.meet[:, None, :]]
    bad = lhs != rhs
    if bad.any():
        i, j, c = map(int, np.argwhere(bad)[0])
        out.append(Violation("distributivity", (i, j, c)))

    # residuation: imp(a,b) is the least c with a + c >= b
    reach = a.leq[ar[None, :], a.join[ar[:, None], a.imp]]      # b <= a + (a->b)
    if not reach.all():
        i, j = map(int, np.argwhere(~reach)[0])
        out.append(Violation("residuation-reaches", (i, j)))
    covers = a.leq[ar[None, :, None], a.join[:, None, :]]       # (a, b, c): b <= a + c
    minimal = a.leq[a.imp]                                      # (a, b, c): a->b <= c
    bad = covers & ~minimal
    if bad.any():
        i, j, c = map(int, np.argwhere(bad)[0])
        out.append(Violation("residuation-minimal", (i, j, c)))
    return out


# ---------------------------------------------------------------------------
# irreducibles
# ---------------------------------------------------------------------------

def _irreducible_masks(a: BrouwerAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """(meet-irreducible, join-irreducible) masks: in a finite lattice, at
    most one upper (lower) cover, so the bounds, with none, count too."""
    one_lower, one_upper = single_covers(a.leq)
    one_upper[a.top] = one_lower[a.bottom] = True
    return one_upper, one_lower


def meet_irreducible(a: BrouwerAlgebra, x: int) -> bool:
    return bool(_irreducible_masks(a)[0][a.check_element(x)])


def irreducibles(a: BrouwerAlgebra) -> tuple[list[int], list[int]]:
    """(meet_irreducibles, join_irreducibles), each sorted by element index."""
    meets, joins = _irreducible_masks(a)
    return np.flatnonzero(meets).tolist(), np.flatnonzero(joins).tolist()


# ---------------------------------------------------------------------------
# intervals and factors
# ---------------------------------------------------------------------------

def interval(a: BrouwerAlgebra, lo: int, hi: int) -> BrouwerAlgebra:
    """The interval [lo, hi] with inherited lattice operations and
    implication  u ->' v = (u -> v) + lo."""
    lo = a.check_element(lo)
    hi = a.check_element(hi)
    if not a.leq[lo, hi]:
        raise InputError(f"interval needs lo <= hi, got {lo} !<= {hi}")
    elems = np.flatnonzero(a.leq[lo, :] & a.leq[:, hi])
    # Outside the interval pos is 2**16 - 1, no element of an interval that
    # leaves out an element of a: the algebra refuses an entry that escapes.
    pos = np.full(a.size, np.iinfo(ELEMENT_DTYPE).max, dtype=ELEMENT_DTYPE)
    pos[elems] = np.arange(len(elems))
    sub = np.ix_(elems, elems)
    join = pos[a.join[sub]]
    meet = pos[a.meet[sub]]
    imp = pos[a.join[a.imp[sub], lo]]
    leq = a.leq[sub]
    labels = tuple(a.labels[i] for i in elems)
    return BrouwerAlgebra(leq, join, meet, imp,
                          int(pos[lo]), int(pos[hi]), labels,
                          f"interval({a.provenance},{lo},{hi})")


@dataclass(frozen=True, eq=False)
class FactorResult:
    algebra: BrouwerAlgebra
    class_of: np.ndarray          # element index -> class index
    representatives: tuple[int, ...]
    degenerate: bool
    iso_to_initial_segment: "AlgebraMap | None"


def factor_by_principal_filter(a: BrouwerAlgebra, f: int) -> FactorResult:
    """Quotient by the principal filter of f:  b <= c in the factor iff
    b x d <= c for some d >= f.  Meet is monotone, so d = f decides every
    pair, and the classes are the values of b x f, numbered in order of
    first occurrence.

    A finite distributive lattice is the algebra of up-sets of its
    join-irreducibles J (Birkhoff): each class becomes the up-set of the
    members of J not below it, and the tables are built on those up-sets,
    in class order.  Before any table, the quotient is refused when J has
    more than ``MAX_POSET_SIZE`` elements, and when its order is not a
    distributive lattice.  The operations come from the quotient order
    alone (they are not transported), so the map [b] |-> b x f onto the
    initial segment [0, f] is checked, as an independent test, to be a
    bijective B-homomorphism.
    """
    f = a.check_element(f)
    _, first, value_class = np.unique(a.meet[:, f], return_index=True, return_inverse=True)
    order = np.argsort(first)  # the values of b x f by first occurrence
    reps = first[order]
    class_of = np.argsort(order).astype(np.int32)[value_class]
    k = len(reps)
    leq_q = a.leq[a.meet[reps, f]][:, reps]
    ji = np.flatnonzero(single_covers(leq_q)[0])  # one lower cover
    if len(ji) > MAX_POSET_SIZE:
        raise ResourceLimitError(
            f"factor of {a.provenance} by {f} has {len(ji)} join-irreducibles; "
            f"the cap is {MAX_POSET_SIZE}")
    ups = _row_masks(~leq_q[ji].T)  # bit t of class x: ji[t] is not below x
    j_poset = Poset(leq_q[ji][:, ji], tuple(map(str, ji)), f"J({a.provenance},{f})")
    # A distributive lattice iff x |-> ups[x] is an order isomorphism onto
    # the up-sets of J; the order is compared a band of rows at a time.
    rows = max(1, _TABLE_BLOCK // k)
    bands = (slice(lo, lo + rows) for lo in range(0, k, rows))
    if not (all((((ups[r, None] | ups) == ups[r, None]) == leq_q[r]).all() for r in bands)
            and np.array_equal(np.sort(ups), open_sets(j_poset))):
        raise InputError("quotient order has no unique bound (not a distributive lattice)")
    # The order of the up-sets ups is leq_q, as checked above.
    join_q, meet_q, imp_q = (_up_set_table(t, j_poset, ups) for t in ("join", "meet", "imp"))
    bottom_q = int(class_of[a.bottom])
    top_q = int(class_of[a.top])
    labels = tuple(f"[{a.labels[r]}]" for r in reps)
    alg = BrouwerAlgebra(leq_q, join_q, meet_q, imp_q, bottom_q, top_q,
                         labels, f"factor({a.provenance},{f})")
    iso = _factor_map(a, f, alg, reps) if k > 1 else None
    return FactorResult(alg, class_of, tuple(reps.tolist()), k == 1, iso)


def _factor_map(a: BrouwerAlgebra, f: int, factor: BrouwerAlgebra,
                reps: list[int]) -> AlgebraMap | None:
    """[b] |-> b x f onto [0, f], when it is a bijective B-homomorphism
    (b and c are in one class iff b x f = c x f), else None."""
    segment = interval(a, a.bottom, f)
    pos = np.full(a.size, -1, dtype=np.int32)
    pos[a.leq[a.bottom] & a.leq[:, f]] = np.arange(segment.size, dtype=np.int32)
    image = pos[a.meet[reps, f]]
    iso = AlgebraMap(factor, segment, image)
    ok = (image >= 0).all() and iso.is_bijective() and is_b_homomorphism(iso)[0]
    return iso if ok else None


# ---------------------------------------------------------------------------
# maps between algebras
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AlgebraMap:
    source: BrouwerAlgebra
    target: BrouwerAlgebra
    image: np.ndarray  # element index in source -> element index in target

    def __post_init__(self):
        if len(self.image) != self.source.size:
            raise InputError("map must be total on the source carrier")
        self.image.setflags(write=False)

    def __call__(self, x: int) -> int:
        return int(self.image[self.source.check_element(x)])

    def is_bijective(self) -> bool:
        return (self.source.size == self.target.size
                and len(set(int(i) for i in self.image)) == self.source.size)


def is_b_homomorphism(f: AlgebraMap) -> tuple[bool, tuple | None]:
    """True iff f preserves join, meet, imp and both bounds; otherwise the
    first violating (operation, pair)."""
    s, t, img = f.source, f.target, f.image
    if img[s.bottom] != t.bottom:
        return False, ("bottom", (s.bottom,))
    if img[s.top] != t.top:
        return False, ("top", (s.top,))
    for name, op_s, op_t in (("join", s.join, t.join),
                             ("meet", s.meet, t.meet),
                             ("imp", s.imp, t.imp)):
        lhs = img[op_s]
        rhs = op_t[img[:, None], img[None, :]]
        bad = lhs != rhs
        if bad.any():
            i, j = map(int, np.argwhere(bad)[0])
            return False, (name, (i, j))
    return True, None


@dataclass(frozen=True, eq=False)
class PlusMapResult:
    map: AlgebraMap
    surjective: bool


def plus_a_map(a: BrouwerAlgebra, shift: int, c: int) -> PlusMapResult:
    """The map u |-> u + shift from [0, c] to [shift, c + shift]."""
    shift = a.check_element(shift)
    c = a.check_element(c)
    b = int(a.join[c, shift])
    src = interval(a, a.bottom, c)
    tgt = interval(a, shift, b)
    src_elems = np.flatnonzero(a.leq[:, c])
    tgt_elems = np.flatnonzero(a.leq[shift, :] & a.leq[:, b])
    pos_tgt = np.full(a.size, -1, dtype=np.int32)
    pos_tgt[tgt_elems] = np.arange(len(tgt_elems), dtype=np.int32)
    image = pos_tgt[a.join[src_elems, shift]]
    if (image < 0).any():
        raise InputError("internal: image escapes the target interval")
    amap = AlgebraMap(src, tgt, image.astype(np.int32))
    surj = len(set(int(i) for i in image)) == tgt.size
    return PlusMapResult(amap, surj)


# ---------------------------------------------------------------------------
# isomorphism search
# ---------------------------------------------------------------------------

def is_isomorphic(a1: BrouwerAlgebra, a2: BrouwerAlgebra) -> AlgebraMap | None:
    """A bijective B-homomorphism a1 -> a2, or None.

    A finite distributive lattice is fixed by its poset of join-irreducibles
    (Birkhoff), so each order isomorphism between those posets is extended by
    joins and then checked against every operation table.
    """
    if a1.size != a2.size:
        return None
    # the join-irreducibles other than the bottom: exactly one lower cover
    ji1 = np.flatnonzero(single_covers(a1.leq)[0])
    ji2 = np.flatnonzero(single_covers(a2.leq)[0])
    for perm in order_isomorphisms(a1.leq[np.ix_(ji1, ji1)], a2.leq[np.ix_(ji2, ji2)]):
        # each x goes to the join of the images of the join-irreducibles below it
        image = np.full(a1.size, a2.bottom, dtype=np.int32)
        for x, y in zip(ji1, ji2[perm]):
            above = a1.leq[x]
            image[above] = a2.join[image[above], y]
        f = AlgebraMap(a1, a2, image)
        if f.is_bijective() and is_b_homomorphism(f)[0]:
            return f
    return None


# ---------------------------------------------------------------------------
# the KP predicate
# ---------------------------------------------------------------------------

def all_negations_meet_irreducible(a: BrouwerAlgebra) -> tuple[bool, int | None]:
    """True iff -x is meet-irreducible for every element x; else the least
    witness x."""
    ops = a.operations  # on the masks of a poset-backed algebra: no imp table
    negations = ops.element(ops.imp(ops.value(np.arange(a.size)), ops.top))
    bad = np.flatnonzero(~_irreducible_masks(a)[0][negations])
    return (False, int(bad[0])) if bad.size else (True, None)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def algebra_to_dict(a: BrouwerAlgebra) -> dict:
    return {
        "size": a.size,
        "bottom": a.bottom,
        "top": a.top,
        "le": a.leq.astype(int).tolist(),
        "join": a.join.tolist(),
        "meet": a.meet.tolist(),
        "imp": a.imp.tolist(),
        "labels": list(a.labels),
        "provenance": a.provenance,
    }


def algebra_to_json(a: BrouwerAlgebra) -> str:
    return json.dumps(algebra_to_dict(a))


def algebra_to_dot(a: BrouwerAlgebra) -> str:
    """Hasse diagram; meet-irreducible elements are drawn as boxes, and the
    bottom with a thick line."""
    boxed = _irreducible_masks(a)[0].tolist()
    attrs = [(", shape=box" if boxed[i] else ", shape=ellipse")
             + (", penwidth=2" if i == a.bottom else "") for i in range(a.size)]
    return hasse_dot(a.leq, a.labels, "hasse", attrs)
