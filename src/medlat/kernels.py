"""Numeric kernels: valuation-space scanning and up-set implication.

Formulas are compiled to postfix programs over small int arrays so the
kernels never touch Python objects:

    opcode 0: push variable arg          3: pop two, push meet[x, y]
    opcode 1: push constant element arg  4: pop two, push imp[x, y]
    opcode 2: pop two, push join[x, y]

``_run`` is the one interpreter, and ``evaluate`` its public form.  Its
leaves are one int array per variable, and the arrays broadcast against
each other: each binary opcode is one table lookup on ``x * m + y``, so a
subterm's array carries only the axes of the variables it contains, and a
constant stays a scalar.

``first_fail`` scans valuation indices in mixed radix, the first variable
most significant.  The trailing j variables, the most with m**j <= _BLOCK,
are broadcast axes: ``arange(m)`` on axis 1 + t for the t-th of them, built
once per scan.  The m**j valuations that share the values of the leading
variables form a block.  A step of the scan covers up to _BLOCK // m**j
consecutive blocks: the leading variables are decoded with
``valuation_digits``, one row per block, and enter as (c, 1, ..., 1)
columns.  The root, broadcast to (c, m, ..., m), holds the step's
valuations in index order; a range that starts or ends inside a block is
sliced out of it.

Two things make a scan with leading variables cheaper.  Every maximal
subterm without a leading variable has the same value in every block, so it
is evaluated once per scan, over the trailing axes, and the block loop
reads it as an extra leaf.  And when the algebra has automorphisms (each
one a permutation g of its elements, such as the lifted permutations of
{0..n-1} on ``bn(n)``), a formula fails at a valuation v iff it fails at
g(v), so the block of leading values t fails iff the block of g(t) does.
The scan skips block t when some g(t) is an earlier block that lies wholly
inside [start, stop).  The same call scans that block (or, if it was
skipped too, an earlier block of its orbit) before t or in the same step,
so a failure in t would follow an earlier one and the least failing index
is unchanged.  So a scan of a sub-range of the space skips only blocks
whose image lies inside that range.

``imp_masks`` computes one block of the implication of an up-set algebra on
bitmasks, ``U -> V = P \\ down(U \\ V)``.  The down-closure is a union of
table lookups, one per byte of the mask (``lut_union``), in the tables
``down_luts`` builds once per poset from its principal down-sets.  The same
lookups, in tables built from singletons, permute the bits of masks.
"""

from __future__ import annotations

import numpy as np

OP_VAR, OP_CONST, OP_JOIN, OP_MEET, OP_IMP = 0, 1, 2, 3, 4

_BLOCK = 1 << 15
_BYTE_BITS = ((np.arange(256) >> np.arange(8)[:, None]) & 1).astype(np.uint64)  # [i, w]: bit i of w


def valuation_digits(idx: np.ndarray, nvars: int, m: int) -> np.ndarray:
    """Mixed-radix digits of valuation indices, most significant variable
    first: row i holds the values of the variables in valuation idx[i]."""
    radix = m ** np.arange(nvars - 1, -1, -1, dtype=np.int64)
    return (idx[:, None] // radix[None, :]) % m


def _program(ops, args) -> tuple[list[int], list[int]]:
    return np.asarray(ops).tolist(), np.asarray(args).tolist()


def _run(prog, leaves, tables, m):
    """The postfix interpreter over a program (opcodes, args) of lists;
    tables[op] is the raveled table of a binary opcode."""
    stack = []
    for op, arg in zip(*prog):
        if op == OP_VAR:
            stack.append(leaves[arg])
        elif op == OP_CONST:
            stack.append(arg)
        else:
            b = stack.pop()
            a = stack.pop()
            stack.append(tables[op].take(a * m + b))
    return stack[0]


def evaluate(ops, args, leaves, join, meet, imp):
    """Value of a postfix program with leaves[i] as the value of variable i.

    The leaves are int arrays that broadcast against each other; the result
    has the shape the leaves of the program's variables broadcast to, and is
    a scalar for a program without variables.
    """
    tables = (None, None, join.ravel(), meet.ravel(), imp.ravel())
    return _run(_program(ops, args), leaves, tables, join.shape[0])


def _hoist(prog, lead: int, nvars: int):
    """Split a program into the maximal subterms that have an operator and
    no leading variable (index below ``lead``), and the program that reads
    the h-th of them as variable nvars + h.  Returns (program, subterms)."""
    hoisted = []

    def as_leaf(frag):
        if len(frag) == 1:  # a variable or a constant costs nothing to redo
            return frag
        hoisted.append(frag)
        return [(OP_VAR, nvars + len(hoisted) - 1)]

    stack = []  # (fragment as (op, arg) pairs, contains a leading variable)
    for op, arg in zip(*prog):
        if op == OP_VAR:
            stack.append(([(op, arg)], arg < lead))
        elif op == OP_CONST:
            stack.append(([(op, arg)], False))
        else:
            b, b_lead = stack.pop()
            a, a_lead = stack.pop()
            if a_lead or b_lead:
                a = a if a_lead else as_leaf(a)
                b = b if b_lead else as_leaf(b)
            stack.append((a + b + [(op, arg)], a_lead or b_lead))
    frag, has_lead = stack[0]
    frag = frag if has_lead else as_leaf(frag)
    return _unzip(frag), [_unzip(h) for h in hoisted]


def _unzip(pairs):
    return [op for op, _ in pairs], [arg for _, arg in pairs]


def _trailing(nvars: int, m: int) -> int:
    """How many trailing variables the scan broadcasts: the most j <= nvars
    with m**j <= _BLOCK."""
    j = 0
    while j < nvars and m ** (j + 1) <= _BLOCK:
        j += 1
    return j


def scan_block(nvars: int, m: int) -> int:
    """Valuations per block of ``first_fail``: m**j for its j broadcast
    trailing variables.  It divides m**nvars."""
    return m ** _trailing(nvars, m)


def first_fail(ops, args, nvars, m, join, meet, imp, designated, start, stop,
               automorphisms=None):
    """Least valuation index in [start, stop) where the program does not hit
    the designated element, or -1.  ``automorphisms``, a (g, m) array of
    element permutations that preserve the operations and fix the
    designated element, lets the scan skip blocks (see the module notes)."""
    j = _trailing(nvars, m)
    inner = m ** j
    lead = nvars - j
    tables = (None, None, join.ravel(), meet.ravel(), imp.ravel())
    trailing = [np.arange(m).reshape((1,) * (1 + t) + (m,) + (1,) * (j - 1 - t))
                for t in range(j)]
    prog = _program(ops, args)
    shared = trailing  # the leaves every block reads
    if lead:
        prog, hoisted = _hoist(prog, lead, nvars)
        shared = trailing + [_run(h, [None] * lead + trailing, tables, m) for h in hoisted]
    auts = automorphisms if lead else None
    if auts is not None:
        radix = m ** np.arange(lead - 1, -1, -1, dtype=np.int64)
        first_full = -(-start // inner)  # the first block wholly inside the range
    per_step = max(1, _BLOCK // inner)
    end = -(-stop // inner)
    for b in range(start // inner, end, per_step):
        c = min(per_step, end - b)
        blocks = range(b, b + c)
        leaves = shared
        if lead:
            idx = np.arange(b, b + c, dtype=np.int64)
            digits = valuation_digits(idx, lead, m)
            if auts is not None:
                images = (auts[:, digits] * radix).sum(axis=2)  # (g, c) block indices
                keep = ~((images >= first_full) & (images < idx)).any(axis=0)
                if not keep.any():
                    continue
                blocks, digits = idx[keep].tolist(), digits[keep]
            leaves = [col.reshape((len(blocks),) + (1,) * j) for col in digits.T] + shared
        fails = np.asarray(_run(prog, leaves, tables, m) != designated)
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


def down_luts(down_masks) -> np.ndarray:
    """Per-byte down-closure tables of a poset whose principal down-sets are
    down_masks: luts[b, w] is the union of the down-sets of the elements
    8b + i over the bits i of w.  An n-element poset has max(1, ceil(n / 8))
    tables."""
    n = len(down_masks)
    d = np.zeros(max(1, -(-n // 8)) * 8, dtype=np.uint64)
    d[:n] = down_masks
    return np.bitwise_or.reduce(_BYTE_BITS * d.reshape(-1, 8, 1), axis=1)


def lut_union(w, luts):
    """Union over the bytes b of the uint64 masks w of luts[b][byte b of w]."""
    w = w.astype("<u8", copy=False)
    byte = w.view(np.uint8).reshape(w.shape + (8,))  # byte b holds bits 8b..8b+7
    out = luts[0].take(byte[..., 0])
    for b in range(1, len(luts)):
        out |= luts[b].take(byte[..., b])
    return out


def imp_masks(rows, cols, luts):
    """Implication block of an up-set algebra, as bitmasks: for U in rows and
    V in cols, out[i, j] = U -> V = {a : [a) & U <= V} = P \\ down(U \\ V),
    with down read off the tables of ``down_luts`` one byte of U \\ V at a time."""
    out = lut_union(rows[:, None] & ~cols[None, :], luts)
    out ^= np.bitwise_or.reduce(luts[:, 255])  # P: every element lies in its own down-set
    return out
