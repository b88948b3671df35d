"""Differential tests: the table kernels against the recursive evaluator
``logic.eval_formula`` and against the definitions they implement."""

import itertools

import numpy as np
import pytest

from medlat import kernels
from medlat.algebra import bn, chain_algebra
from medlat.logic import axiom, compile_formula, eval_formula, parse, variables


def _programs():
    out = []
    for name in ("kp", "lin", "jan", "sc_standard"):
        f = axiom(name)
        for a in (bn(2), bn(3), chain_algebra(4)):
            ops, args = compile_formula(f, a, variables(f))
            out.append((f, a, ops, args))
    return out


def _first_fail_reference(f, a, start, stop):
    """First index in [start, stop) whose valuation (mixed radix, variables
    sorted by name) the recursive evaluator sends off the bottom, or -1."""
    names = variables(f)
    vals = itertools.product(range(a.size), repeat=len(names))
    for idx, row in enumerate(itertools.islice(vals, start, stop), start):
        if eval_formula(f, a, dict(zip(names, row))) != a.bottom:
            return idx
    return -1


@pytest.mark.parametrize("case", range(12))
def test_first_fail_backends_agree(case):
    """The kernel scan and the recursive evaluator find the same index."""
    f, a, ops, args = _programs()[case]
    k = len(variables(f))
    total = a.size ** k
    spans = [(0, total), (total // 3, 2 * total // 3), (total - 1, total)]
    for start, stop in spans:
        got = kernels.first_fail(ops, args, k, a.size, a.join, a.meet,
                                 a.imp, a.bottom, start, stop)
        assert got == _first_fail_reference(f, a, start, stop)


def test_first_fail_matches_slow_evaluator():
    f = parse("~p | (p -> q)")
    a = bn(2)
    names = variables(f)
    ops, args = compile_formula(f, a, names)
    first = kernels.first_fail(ops, args, 2, a.size, a.join, a.meet, a.imp,
                               a.bottom, 0, a.size ** 2)
    # recompute by brute force with the recursive evaluator
    ref = -1
    for idx in range(a.size ** 2):
        val = {"p": idx // a.size, "q": idx % a.size}
        if eval_formula(f, a, val) != a.bottom:
            ref = idx
            break
    assert first == ref


def test_first_fail_spans_blocks():
    """A failure past the first block of the scan is found at its index.
    In the 2-element algebra the formula is a clause that fails only at
    the valuation whose digits are the bits of target."""
    a = chain_algebra(2)
    target = kernels._BLOCK + 7233
    bits = format(target, "016b")
    f = parse(" | ".join(f"~{v}" if b == "1" else v
                         for v, b in zip("abcdefghijklmnop", bits)))
    ops, args = compile_formula(f, a, variables(f))
    assert kernels.first_fail(ops, args, 16, 2, a.join, a.meet, a.imp,
                              a.bottom, 0, 2 ** 16) == target


def test_eval_on_valuations_matches_slow_evaluator():
    rng = np.random.default_rng(99)
    a = bn(3)
    f = axiom("kp")
    names = variables(f)
    ops, args = compile_formula(f, a, names)
    vals = rng.integers(0, a.size, size=(200, len(names)), dtype=np.int64)
    got = kernels.eval_on_valuations(ops, args, vals, a.join, a.meet, a.imp)
    for row, g in zip(vals, got):
        assert eval_formula(f, a, dict(zip(names, map(int, row)))) == g


def test_valuation_digits_decode_indices():
    idx = np.arange(5 ** 3, dtype=np.int64)
    digits = kernels.valuation_digits(idx, 3, 5)
    assert digits.tolist() == [list(v) for v in itertools.product(range(5), repeat=3)]
    assert kernels.valuation_digits(idx[:4], 0, 5).shape == (4, 0)


def test_imp_masks_backends_agree():
    """imp_masks matches residuation: U -> V is the least W with U + W >= V,
    read off the order and join tables of bn(1..3)."""
    for n in (1, 2, 3):
        a = bn(n)
        got = kernels.imp_masks(a.open_masks, a.poset.up_masks)
        for u in range(a.size):
            for v in range(a.size):
                cover = np.flatnonzero(a.leq[v, a.join[u, :]])
                least = [w for w in cover if a.leq[w, cover].all()]
                assert int(got[u, v]) == int(a.open_masks[least[0]])


def test_imp_masks_definition():
    for n in (1, 2, 3):
        a = bn(n)
        up = a.poset.up_masks
        out = kernels.imp_masks(a.open_masks, up)
        for u in range(a.size):
            for v in range(a.size):
                want = 0
                for x in range(a.poset.size):
                    if int(a.open_masks[u]) & int(up[x]) & ~int(a.open_masks[v]) == 0:
                        want |= 1 << x
                assert int(out[u, v]) == want


def test_no_fail_returns_minus_one():
    f = parse("p -> p")
    a = bn(2)
    ops, args = compile_formula(f, a, ["p"])
    assert kernels.first_fail(ops, args, 1, a.size, a.join, a.meet, a.imp,
                              a.bottom, 0, a.size) == -1
