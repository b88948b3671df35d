"""Numeric kernels: valuation-space scanning and implication tables.

Formulas are compiled to postfix programs over small int arrays so the
kernels never touch Python objects:

    opcode 0: push variable arg          3: pop two, push meet[x, y]
    opcode 1: push constant element arg  4: pop two, push imp[x, y]
    opcode 2: pop two, push join[x, y]

``eval_on_valuations`` is the one interpreter: it runs a program on a block
of explicit valuations, one numpy table lookup per opcode.  ``first_fail``
scans a range of valuation indices in blocks of ``_BLOCK``, decoding each
block with ``valuation_digits``.
"""

from __future__ import annotations

import numpy as np

OP_VAR, OP_CONST, OP_JOIN, OP_MEET, OP_IMP = 0, 1, 2, 3, 4

_BLOCK = 1 << 15


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


def imp_masks(masks, up_masks):
    """For opens U, V (as bitmasks): imp[U,V] = mask of {a : [a) & U <= V}."""
    masks = np.ascontiguousarray(masks, dtype=np.uint64)
    up_masks = np.ascontiguousarray(up_masks, dtype=np.uint64)
    m = masks.shape[0]
    bits = np.uint64(1) << np.arange(up_masks.shape[0], dtype=np.uint64)
    out = np.empty((m, m), dtype=np.uint64)
    filt = masks[:, None] & up_masks[None, :]  # (m, psize)
    for v in range(m):
        ok = (filt & ~masks[v]) == 0
        out[:, v] = (ok * bits[None, :]).sum(axis=1, dtype=np.uint64)
    return out
