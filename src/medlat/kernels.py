"""Numeric kernels: valuation-space scanning and up-set implication.

Formulas are compiled to postfix programs over small int arrays so the
kernels never touch Python objects:

    opcode 0: push variable arg          3: pop two, push meet[x, y]
    opcode 1: push constant element arg  4: pop two, push imp[x, y]
    opcode 2: pop two, push join[x, y]

``eval_on_valuations`` is the one interpreter: it runs a program on a block
of explicit valuations, one numpy table lookup per opcode.  ``first_fail``
scans a range of valuation indices in blocks of ``_BLOCK``, decoding each
block with ``valuation_digits``.

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


def eval_on_valuations(ops, args, valuations, join, meet, imp):
    """Vectorized evaluation of a postfix program on explicit valuations.

    valuations: int array (count, nvars).  Returns int array (count,).
    """
    m = join.shape[0]
    tables = {OP_JOIN: join.ravel(), OP_MEET: meet.ravel(), OP_IMP: imp.ravel()}
    vals = np.asarray(valuations, dtype=np.int64)
    stack = []
    for op, arg in zip(ops, args):
        if op == OP_VAR:
            stack.append(vals[:, arg])
        elif op == OP_CONST:
            stack.append(np.full(vals.shape[0], arg, dtype=np.int64))
        else:
            b = stack.pop()
            a = stack.pop()
            stack.append(tables[op][a * m + b])
    return stack[0]


def first_fail(ops, args, nvars, m, join, meet, imp, designated, start, stop):
    """Least valuation index in [start, stop) where the program does not hit
    the designated element, or -1."""
    for lo in range(start, stop, _BLOCK):
        hi = min(lo + _BLOCK, stop)
        vals = valuation_digits(np.arange(lo, hi, dtype=np.int64), nvars, m)
        res = eval_on_valuations(ops, args, vals, join, meet, imp)
        bad = np.flatnonzero(res != designated)
        if bad.size:
            return int(lo + bad[0])
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
