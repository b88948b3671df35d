"""Numeric kernels: valuation-space scanning and up-set implication.

Formulas are compiled to postfix programs over small int arrays so the
kernels never touch Python objects:

    opcode 0: push variable arg          3: pop two, push meet[x, y]
    opcode 1: push constant element arg  4: pop two, push imp[x, y]
    opcode 2: pop two, push join[x, y]

``evaluate`` is the one interpreter.  Its leaves are one int array per
variable, and the arrays broadcast against each other: each binary opcode
is one table lookup on ``x * m + y``, so a subterm's array carries only the
axes of the variables it contains, and a constant stays a scalar.

``first_fail`` scans valuation indices in mixed radix, the first variable
most significant.  The trailing j variables, the most with m**j <= _BLOCK,
are broadcast axes: ``arange(m)`` on axis 1 + t for the t-th of them, built
once per scan.  The m**j valuations that share the values of the leading
variables form a block.  A step of the scan covers up to _BLOCK // m**j
consecutive blocks: the leading variables are decoded with
``valuation_digits``, one row per block, and enter as (c, 1, ..., 1)
columns.  The root, broadcast to (c, m, ..., m) and raveled in C order, is
the step's valuations in index order; a range that starts or ends inside a
block is sliced out of it.

``imp_masks`` computes one block of the implication of an up-set algebra on
bitmasks, ``U -> V = P \\ down(U \\ V)``.  The down-closure is a union of
table lookups, one per byte of the mask, in the tables ``down_luts`` builds
once per poset from its principal down-sets.
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


def evaluate(ops, args, leaves, join, meet, imp):
    """Value of a postfix program with leaves[i] as the value of variable i.

    The leaves are int arrays that broadcast against each other; the result
    has the shape the leaves of the program's variables broadcast to, and is
    a scalar for a program without variables.
    """
    m = join.shape[0]
    tables = (None, None, join.ravel(), meet.ravel(), imp.ravel())
    stack = []
    for op, arg in zip(np.asarray(ops).tolist(), np.asarray(args).tolist()):
        if op == OP_VAR:
            stack.append(leaves[arg])
        elif op == OP_CONST:
            stack.append(arg)
        else:
            b = stack.pop()
            a = stack.pop()
            stack.append(tables[op].take(a * m + b))
    return stack[0]


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


def first_fail(ops, args, nvars, m, join, meet, imp, designated, start, stop):
    """Least valuation index in [start, stop) where the program does not hit
    the designated element, or -1."""
    j = _trailing(nvars, m)
    inner = m ** j
    trailing = [np.arange(m).reshape((1,) * (1 + t) + (m,) + (1,) * (j - 1 - t))
                for t in range(j)]
    per_step = max(1, _BLOCK // inner)
    end = -(-stop // inner)
    for b in range(start // inner, end, per_step):
        c = min(per_step, end - b)
        leaves = trailing
        if j < nvars:
            lead = valuation_digits(np.arange(b, b + c, dtype=np.int64), nvars - j, m)
            leaves = [col.reshape((c,) + (1,) * j) for col in lead.T] + trailing
        fails = np.asarray(evaluate(ops, args, leaves, join, meet, imp) != designated)
        if not fails.any():
            continue
        lo = b * inner
        fails = np.broadcast_to(fails, (c,) + (m,) * j).ravel()
        bad = np.flatnonzero(fails[max(start - lo, 0):stop - lo])
        if bad.size:
            return int(max(start, lo) + bad[0])
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


def imp_masks(rows, cols, luts):
    """Implication block of an up-set algebra, as bitmasks: for U in rows and
    V in cols, out[i, j] = U -> V = {a : [a) & U <= V} = P \\ down(U \\ V),
    with down read off the tables of ``down_luts`` one byte of U \\ V at a time."""
    w = (rows[:, None] & ~cols[None, :]).astype("<u8", copy=False)
    byte = w.view(np.uint8).reshape(w.shape + (8,))  # byte b holds bits 8b..8b+7
    out = luts[0].take(byte[..., 0])
    for b in range(1, len(luts)):
        out |= luts[b].take(byte[..., b])
    out ^= np.bitwise_or.reduce(luts[:, 255])  # P: every element lies in its own down-set
    return out
