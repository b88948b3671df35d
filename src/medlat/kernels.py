"""Numeric kernels: valuation scans, up-set implication, bit permutation.

A formula reaches the kernels as a node list (``logic.compile_formula``):
one ``(op, x, y)`` triple per distinct subterm, in topological order, so
every operand comes before the nodes that read it and the root is last.

    op 0: variable x                      op 2: join(x, y)
    op 1: the bottom (x = 0) or top (1)   op 3: meet(x, y)
                                          op 4: imp(x, y)

An operator's x and y are node indices.  The constants are symbolic: the
kernel reads the bottom and top off the algebra it scans, so one node list
serves every algebra.

An algebra reaches the kernels as its three operations, the values of its
bounds and, optionally, the value of each element (``Operations``).  Two
kinds exist.  On element indices, an operation is one lookup in its m x m
table on ``x * m + y`` (``table_operation``; a table passed where an
operation is expected is read so).  Its values have the table's dtype, at
least uint16: the index is formed in that dtype while m * m - 1 fits uint16
(up to m = 256), and above that by ``np.multiply`` with ``dtype=intp``,
which no promotion rule can narrow.  On the up-set masks of a poset
(``mask_operations``, Birkhoff's representation), an element's value is its
mask in the narrowest unsigned dtype that holds the poset, join is ``&``,
meet is ``|``, and ``U -> V = P \\ down(U \\ V)`` is one lookup per 16 bits of
``U & ~V`` in a complemented down-closure table (``imp_luts``, read by
``imp_lookup``).  The masks may be listed in any order: an element is found
from its mask by the mask's rank among them, so both kinds number the
elements alike.

``_run`` is the one interpreter, and ``evaluate`` its public form.  Its
leaves are one value array per variable, and the arrays broadcast against
each other: each operator node is one call of its operation, so a node's
array carries only the axes of the variables it contains, and a constant
stays a scalar.  A node's value is dropped after its last reader, so a run
holds only the values that are still to be read.

``first_fail`` scans valuation indices in mixed radix, the first variable
most significant.  The trailing j variables, the most with m**j <= _BLOCK,
are broadcast axes: the values of the m elements on axis 1 + t for the t-th
of them, built once per scan.  The m**j valuations that share the values of
the leading variables form a block.  A step of the scan covers up to
_BLOCK // m**j consecutive blocks: the leading variables are decoded with
``valuation_digits``, one row per block, and enter as the values of those
digits in (c, 1, ..., 1) columns.  The root, broadcast to (c, m, ..., m),
holds the step's valuations in index order; a range that starts or ends
inside a block is sliced out of it.

Two things make a scan with leading variables cheaper.  A node that reads
no leading variable, itself or through its operands, has the same value in
every block: these scan-invariant nodes run once per scan, over the
trailing axes, and only the other nodes run per block.  And when the
algebra has automorphisms (each one a permutation g of its elements, such
as the lifted permutations of {0..n-1} on ``bn(n)``), a formula fails at a
valuation v iff it fails at g(v), so the block of leading values t fails
iff the block of g(t) does.  The scan skips block t when some g(t) is an
earlier block that lies wholly inside [start, stop).  The same call scans
that block (or, if it was skipped too, an earlier block of its orbit)
before t or in the same step, so a failure in t would follow an earlier one
and the least failing index is unchanged.  So a scan of a sub-range of the
space skips only blocks whose image lies inside that range.

``imp_masks`` computes one block of the implication of an up-set algebra on
uint64 bitmasks, for the table builder, with the scan's tables and lookup.
``union_tables`` builds every table that maps a run of mask bits to the
union of per-bit masks, by doubling: the down-closure tables (16 bits each)
and the per-byte tables with which ``permute_masks`` moves the bits of masks
under element permutations.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

OP_VAR, OP_CONST, OP_JOIN, OP_MEET, OP_IMP = 0, 1, 2, 3, 4

_BLOCK = 1 << 15
_NARROW = 1 << 16  # the most m * m whose indices x * m + y all fit uint16
_CHUNK = 16  # mask bits read by one complemented down-closure table
_LOW = (1 << _CHUNK) - 1


def valuation_digits(idx: np.ndarray, nvars: int, m: int) -> np.ndarray:
    """Mixed-radix digits of valuation indices, most significant variable
    first: row i holds the values of the variables in valuation idx[i]."""
    radix = m ** np.arange(nvars - 1, -1, -1, dtype=np.int64)
    return (idx[:, None] // radix[None, :]) % m


def _programs(nodes, lead):
    """The two programs of a scan whose variables below lead are leading:
    the steps (i, op, x, y, dead) of the scan-invariant operator nodes, and
    those of the nodes that read a leading variable, each in order.  dead
    lists the operands whose value can go once node i, their last reader,
    has run; a scan-invariant node that a block reads stays for every block."""
    block, last, keep = [], {}, set()  # block[i]: node i reads a leading variable
    for i, (op, x, y) in enumerate(nodes):
        if op > OP_CONST:
            last[x] = last[y] = i
            block.append(block[x] or block[y])
            if block[i]:
                keep.update((x, y))
        else:
            block.append(op == OP_VAR and x < lead)
    progs = ([], [])
    for i, (op, x, y) in enumerate(nodes):
        if op > OP_CONST:
            dead = [d for d in {x, y} if last[d] == i and (block[i] or d not in keep)]
            progs[block[i]].append((i, op, x, y, dead))
    return progs


def _leaves(nodes, leaves, bottom, top):
    """The values by node before a run: leaves[x] for variable x, the
    value of each constant, None for the operators."""
    consts = (bottom, top)
    return [leaves[x] if op == OP_VAR else consts[x] if op == OP_CONST else None
            for op, x, _ in nodes]


def table_operation(table):
    """The operation of an m x m table of element indices, on index arrays:
    one lookup on x * m + y, formed in intp above m = 256."""
    m = table.shape[0]
    flat = table.ravel()
    if m * m > _NARROW:
        return lambda x, y: flat.take(np.multiply(x, m, dtype=np.intp) + y)
    return lambda x, y: flat.take(x * m + y)


def _operations(join, meet, imp):
    """The operations by op code; a table stands for its lookup."""
    return (None, None) + tuple(op if callable(op) else table_operation(op)
                                for op in (join, meet, imp))


@dataclass(frozen=True, eq=False)
class Operations:
    """An algebra as the kernels compute in it: its three operations, the
    values of its bottom and top, and the value of each element, or None
    when the values are the element indices."""
    join: Callable
    meet: Callable
    imp: Callable
    bottom: object
    top: object
    values: np.ndarray | None = None

    def value(self, x):
        """The value of element x (an int or an index array)."""
        return x if self.values is None else self.values.take(x)

    def element(self, v):
        """The element of value v: on masks, the one whose mask has v's rank."""
        if self.values is None:
            return v
        ranked, order = self._ranks
        return order.take(ranked.searchsorted(v))

    @cached_property
    def _ranks(self):
        """The values in ascending order, and the element of each."""
        order = np.argsort(self.values)
        return self.values.take(order), order


def mask_operations(masks, down_masks) -> Operations:
    """The operations of the algebra of all up-sets of a poset, on their
    masks: masks lists them in any order, and down_masks holds the poset's
    principal down-sets.  The bottom is the whole carrier and the top the
    empty set.  The values are copies of the masks in the narrowest
    unsigned dtype that holds the poset's bits."""
    full = (1 << len(down_masks)) - 1
    dtype = np.min_scalar_type(full)
    values = masks.astype(dtype)
    luts = imp_luts(down_masks, dtype)

    def imp(u, v):
        return imp_lookup(u & ~v, luts)

    return Operations(np.bitwise_and, np.bitwise_or, imp, dtype.type(full), dtype.type(0), values)


def _run(steps, vals, ops):
    """The interpreter: runs a program of ``_programs`` on vals, the values by
    node, in place; ops[op] is the function of an operator.
    Returns the root's value, or None if the root has none yet."""
    for i, op, x, y, dead in steps:
        vals[i] = ops[op](vals[x], vals[y])
        for d in dead:
            vals[d] = None
    return vals[-1]


def evaluate(nodes, leaves, join, meet, imp, bottom, top):
    """Value of a node list's root with leaves[i] as the value of variable i.

    The leaves are value arrays that broadcast against each other; the
    result has the shape the leaves of the formula's variables broadcast to,
    and is a scalar for a formula without variables.  join, meet and imp are
    operations or m x m tables, and bottom and top the values of the bounds.
    """
    vals = _leaves(nodes, leaves, bottom, top)
    return _run(_programs(nodes, 0)[0], vals, _operations(join, meet, imp))


def _trailing(nvars: int, m: int) -> int:
    """How many trailing variables the scan broadcasts: the most j <= nvars
    with m**j <= _BLOCK."""
    j = 0
    while j < nvars and m ** (j + 1) <= _BLOCK:
        j += 1
    return j


def first_fail(nodes, nvars, m, join, meet, imp, bottom, top, start, stop,
               automorphisms=None, values=None, programs=None):
    """Least valuation index in [start, stop) where the root of the node list
    does not hit the bottom, the designated element, or -1.
    join, meet and imp are operations or m x m tables; values, when given,
    holds the value of each element that the operations take (else it is
    the element's index), and bottom and top are values too.
    ``automorphisms``, a (g, m) array of element permutations that preserve
    the operations and fix the bottom, lets the scan skip blocks (see the
    module notes).  ``programs``, when given, is a memo of the node list's
    ``_programs`` by lead: the scan reads its programs there and adds them
    on first use, as ``logic`` does for each catalogue formula, once per
    process."""
    j = _trailing(nvars, m)
    inner = m ** j
    lead = nvars - j
    ops = _operations(join, meet, imp)
    elements = np.arange(m) if values is None else values
    trailing = [elements.reshape((1,) * (1 + t) + (m,) + (1,) * (j - 1 - t))
                for t in range(j)]
    memo = {} if programs is None else programs
    if lead not in memo:
        memo[lead] = _programs(nodes, lead)
    shared_prog, prog = memo[lead]
    shared = _leaves(nodes, [None] * lead + trailing, bottom, top)
    _run(shared_prog, shared, ops)
    columns = [(i, x) for i, (op, x, _) in enumerate(nodes) if op == OP_VAR and x < lead]
    auts = automorphisms if lead else None
    if auts is not None:
        radix = m ** np.arange(lead - 1, -1, -1, dtype=np.int64)
        first_full = -(-start // inner)  # the first block wholly inside the range
    per_step = max(1, _BLOCK // inner)
    end = -(-stop // inner)
    for b in range(start // inner, end, per_step):
        c = min(per_step, end - b)
        blocks = range(b, b + c)
        vals = shared
        if lead:
            idx = np.arange(b, b + c, dtype=np.int64)
            digits = valuation_digits(idx, lead, m)
            if auts is not None:
                images = (auts[:, digits] * radix).sum(axis=2)  # (g, c) block indices
                keep = ~((images >= first_full) & (images < idx)).any(axis=0)
                if not keep.any():
                    continue
                blocks, digits = idx[keep].tolist(), digits[keep]
            vals = shared.copy()
            for i, x in columns:
                vals[i] = elements.take(digits[:, x]).reshape((len(blocks),) + (1,) * j)
        fails = np.asarray(_run(prog, vals, ops) != bottom)
        if not fails.any():
            continue
        fails = np.broadcast_to(fails, (len(blocks),) + (m,) * j).ravel()
        # Only the range's first block starts before start, and only its
        # last block ends after stop.
        lo = max(start - blocks[0] * inner, 0)
        hi = min(fails.size, stop - (blocks[-1] - len(blocks) + 1) * inner)
        bad = np.flatnonzero(fails[lo:hi])
        if bad.size:
            row, col = divmod(lo + int(bad[0]), inner)
            return blocks[row] * inner + col
    return -1


def union_tables(singles, width: int) -> list[np.ndarray]:
    """Per-bit union tables, built by doubling.  singles[..., i] is the
    uint64 mask that bit i stands for; table k covers the bits
    width * k .. width * k + w - 1, w = min(width, n - width * k), and
    tables[k][..., x] is the union of singles[..., width * k + i] over the
    bits i of x.  n bits give max(1, ceil(n / width)) tables, the last with
    2**w entries per row, so a mask of n bits indexes every table in range."""
    n = singles.shape[-1]
    tables = []
    for lo in range(0, max(n, 1), width):
        w = min(width, n - lo)
        t = np.zeros(singles.shape[:-1] + (1 << w,), dtype=np.uint64)
        for b in range(w):
            t[..., 1 << b:2 << b] = t[..., :1 << b] | singles[..., lo + b, None]
        tables.append(t)
    return tables


def imp_luts(down_masks, dtype=np.uint64) -> list[np.ndarray]:
    """Complemented down-closure tables of a poset whose principal down-sets
    are down_masks, one per 16 bits: luts[k][w] is P minus the union of the
    down-sets of the elements 16k + i over the bits i of w, in dtype."""
    full = np.uint64((1 << len(down_masks)) - 1)
    return [(t ^ full).astype(dtype) for t in union_tables(down_masks, _CHUNK)]


def imp_lookup(w, luts):
    """P \\ down(w) for masks w, one lookup in ``imp_luts`` per 16 bits: with
    w = U & ~V this is U -> V."""
    if len(luts) == 1:  # a poset of at most _CHUNK elements: w indexes the table
        return luts[0].take(w)
    out = luts[0].take(w & _LOW)
    for k in range(1, len(luts)):
        out &= luts[k].take(w >> _CHUNK * k & _LOW)
    return out


def imp_masks(rows, cols, luts):
    """Implication block of an up-set algebra, as bitmasks: for U in rows and
    V in cols, out[i, j] = U -> V = {a : [a) & U <= V} = P \\ down(U \\ V),
    read off the tables of ``imp_luts``."""
    return imp_lookup(rows[:, None] & ~cols[None, :], luts)


def permute_masks(masks, perms) -> np.ndarray:
    """The images of uint64 masks of elements under element permutations:
    out[g, i] is masks[i] with each bit j moved to perms[g, j].  Each byte
    of a mask is one lookup in a per-row table of the images of that byte's
    values (``union_tables`` of the singletons 1 << perms[g, j])."""
    byte = masks.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)  # byte b: bits 8b..8b+7
    tables = union_tables(np.uint64(1) << perms.astype(np.uint64), 8)
    out = tables[0].take(byte[:, 0], axis=1)
    for b in range(1, len(tables)):
        out |= tables[b].take(byte[:, b], axis=1)
    return out
