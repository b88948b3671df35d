"""Differential tests: the table kernels against the recursive evaluator
``logic.eval_formula`` and against the definitions they implement."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_poset
from medlat import kernels
from medlat.algebra import bn, chain_algebra, from_poset
from medlat.logic import (
    AXIOM_TEXT,
    And,
    Bot,
    Imp,
    Not,
    Or,
    Top,
    Var,
    axiom,
    compile_formula,
    eval_formula,
    parse,
    variables,
)
from medlat.poset import chain_poset, open_sets


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


# (formula, level n of bn(n)) with 0 to 8 variables.  bn(3) with 4
# variables (19**4 valuations, 4 blocks of 19**3 per step), bn(4) with 3
# (167**3, one block of 167**2 per step) and bn(2) with 7 (5**7, two blocks of
# 5**6 per step) have one leading variable, decoded once per block; bn(2)
# with 8 has two, p and q.
_SCANS = [
    ("T", 1), ("F", 2), ("F -> T", 3),
    ("p | ~p", 3), ("(p -> q) | (q -> p)", 3), ("kp", 3), ("(p -> q) | (q -> r) | ~~p", 2),
    ("(p -> q) | (r -> s)", 2), ("(p -> q) | (r -> s)", 3),
    ("(p | ~p) & (q -> q) & (r -> r) & (s -> s)", 3), ("~s | ~~(p & r) | (q -> p)", 3),
    ("kp", 4), ("~~r -> r | (p -> q)", 4), ("~~r -> r", 4),
    ("(p -> w) | (r & s & t & u & q -> w)", 2), ("~w | ~~w | (p & q & r & s & t & u)", 2),
    ("(q -> p) | (r & s & t & u & v & w)", 2),
]


def _ranges(total, block):
    """The whole space when it is small; else short ranges at its ends and
    around block edges, some starting or ending inside a block."""
    if total <= 2000:
        return [(0, total), (total // 3, 2 * total // 3), (total - 1, total)]
    edges = [e for e in (block, 2 * block, 5 * block, total - block) if 0 < e < total]
    return ([(0, 40), (total - 40, total), (total // 2, total // 2 + 1)]
            + [(e - 20, e + 20) for e in edges] + [(e + 7, e + 8) for e in edges])


@pytest.mark.parametrize("text,n", _SCANS)
def test_first_fail_matches_reference(text, n):
    """The broadcast scan and the recursive evaluator find the same index,
    for whole spaces and for ranges that cut blocks."""
    f = parse(AXIOM_TEXT.get(text, text))
    a = bn(n)
    k = len(variables(f))
    ops, args = compile_formula(f, a, variables(f))
    total = a.size ** k
    for start, stop in _ranges(total, kernels.scan_block(k, a.size)):
        got = kernels.first_fail(ops, args, k, a.size, a.join, a.meet,
                                 a.imp, a.bottom, start, stop)
        assert got == _first_fail_reference(f, a, start, stop), (start, stop)


def test_scan_block_divides_the_space():
    assert kernels.scan_block(0, 7) == 1
    assert kernels.scan_block(3, 19) == 19 ** 3 and kernels.scan_block(4, 19) == 19 ** 3
    assert kernels.scan_block(3, 167) == 167 ** 2
    assert kernels.scan_block(16, 2) == kernels._BLOCK
    assert kernels.scan_block(5, 1) == 1


def test_first_fail_memory_stays_within_blocks():
    """One scan of the 167**3 valuations of kp on bn(4) never holds more than
    a few arrays of _BLOCK int64 entries; the whole space would be 37 MB."""
    a = bn(4)
    f = axiom("kp")
    ops, args = compile_formula(f, a, variables(f))
    tracemalloc.start()
    try:
        got = kernels.first_fail(ops, args, 3, a.size, a.join, a.meet, a.imp,
                                 a.bottom, 0, a.size ** 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == -1
    assert peak < 4 * kernels._BLOCK * 8


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


def test_evaluate_matches_slow_evaluator():
    """Sampled valuation columns as the leaves, as the sampling scan passes them."""
    rng = np.random.default_rng(99)
    a = bn(3)
    f = axiom("kp")
    names = variables(f)
    ops, args = compile_formula(f, a, names)
    vals = rng.integers(0, a.size, size=(200, len(names)), dtype=np.int64)
    got = kernels.evaluate(ops, args, vals.T, a.join, a.meet, a.imp)
    for row, g in zip(vals, got):
        assert eval_formula(f, a, dict(zip(names, map(int, row)))) == g


def test_evaluate_broadcasts_leaves():
    """A subterm carries the axes of its variables only; constants stay scalars."""
    a = bn(2)
    f = parse("(p -> q) | ~p & T")
    ops, args = compile_formula(f, a, ["p", "q"])
    leaves = [np.arange(a.size).reshape(-1, 1), np.arange(a.size).reshape(1, -1)]
    got = kernels.evaluate(ops, args, leaves, a.join, a.meet, a.imp)
    assert got.shape == (a.size, a.size)
    for p, q in itertools.product(range(a.size), repeat=2):
        assert got[p, q] == eval_formula(f, a, {"p": p, "q": q})
    ops, args = compile_formula(parse("F -> T"), a, [])
    assert np.ndim(kernels.evaluate(ops, args, [], a.join, a.meet, a.imp)) == 0


def test_valuation_digits_decode_indices():
    idx = np.arange(5 ** 3, dtype=np.int64)
    digits = kernels.valuation_digits(idx, 3, 5)
    assert digits.tolist() == [list(v) for v in itertools.product(range(5), repeat=3)]
    assert kernels.valuation_digits(idx[:4], 0, 5).shape == (4, 0)


def _imp_posets():
    """Posets whose up-set masks span one to eight lookup bytes: bn(1..4)
    (bn(4)'s poset has 15 elements), chains of 20 and 64 elements (bit 63)
    and seeded random posets with 9 to 20 elements."""
    rng = np.random.default_rng(41)
    return ([bn(n).poset for n in (1, 2, 3, 4)] + [chain_poset(20), chain_poset(64)]
            + [random_poset(rng, n) for n in range(9, 21)])


def _imp_block(p, rng, k=40):
    """Up to k rows and k columns of p's up-sets and imp_masks on them."""
    masks = open_sets(p)
    rows = rng.choice(len(masks), size=min(k, len(masks)), replace=False)
    cols = rng.choice(len(masks), size=min(k, len(masks)), replace=False)
    out = kernels.imp_masks(masks[rows], masks[cols], kernels.down_luts(p.down_masks))
    return rows, cols, out


def test_imp_masks_backends_agree():
    """imp_masks matches residuation: U -> V is the least W with U + W >= V,
    read off the order and join tables of the algebra."""
    rng = np.random.default_rng(7)
    for p in _imp_posets():
        a = from_poset(p)
        rows, cols, got = _imp_block(p, rng)
        for i, u in enumerate(rows):
            for j, v in enumerate(cols):
                cover = np.flatnonzero(a.leq[v, a.join[u, :]])
                least = cover[a.leq[np.ix_(cover, cover)].all(axis=1)]
                assert int(got[i, j]) == int(a.open_masks[least[0]])


def test_imp_masks_definition():
    """imp_masks matches its definition {x : [x) & U <= V}, bit by bit."""
    rng = np.random.default_rng(8)
    for p in _imp_posets():
        masks = open_sets(p).tolist()
        up = [int(x) for x in p.up_masks]
        rows, cols, out = _imp_block(p, rng)
        for i, u in enumerate(rows):
            for j, v in enumerate(cols):
                want = sum(1 << x for x in range(p.size)
                           if masks[u] & up[x] & ~masks[v] == 0)
                assert int(out[i, j]) == want


def test_down_luts_one_table_per_byte():
    for n, tables in ((0, 1), (1, 1), (8, 1), (9, 2), (64, 8)):
        luts = kernels.down_luts(chain_poset(n).down_masks)
        assert luts.shape == (tables, 256) and luts.dtype == np.uint64
    # in a chain the down-set of a set of elements is that of its largest
    luts = kernels.down_luts(chain_poset(64).down_masks)
    assert int(luts[7, 0b1000_0000]) == (1 << 64) - 1
    assert int(luts[0, 0b0000_0101]) == 0b111


def test_no_fail_returns_minus_one():
    f = parse("p -> p")
    a = bn(2)
    ops, args = compile_formula(f, a, ["p"])
    assert kernels.first_fail(ops, args, 1, a.size, a.join, a.meet, a.imp,
                              a.bottom, 0, a.size) == -1


# ---------------------------------------------------------------------------
# symmetry-reduced scan and hoisting
# ---------------------------------------------------------------------------

_formulas_1_to_4 = st.recursive(
    st.sampled_from([Var("p"), Var("q"), Var("r"), Var("s"), Top(), Bot()]),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Imp, sub, sub),
    ),
    max_leaves=12,
).filter(lambda f: variables(f))

# Scan block sizes: the default, and small ones that give bn(2) and bn(3)
# leading variables and steps of one or several blocks.
_BLOCK_SIZES = (kernels._BLOCK, 5, 19, 25, 40, 50, 100, 400)


@settings(max_examples=150, deadline=None)
@given(f=_formulas_1_to_4, n=st.sampled_from([2, 3]),
       block=st.sampled_from(_BLOCK_SIZES), data=st.data())
def test_first_fail_skip_matches_full_scan(f, n, block, data):
    """Skipping blocks whose image under an automorphism was scanned
    earlier finds the same index as scanning every block, on whole spaces
    and on ranges that start or end inside a block."""
    a = bn(n)
    names = variables(f)
    k = len(names)
    total = a.size ** k
    ops, args = compile_formula(f, a, names)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_BLOCK", block)
        if total // kernels.scan_block(k, a.size) > 400:
            mp.setattr(kernels, "_BLOCK", 1 << 15)  # keep each example short
        start = data.draw(st.integers(0, total - 1), label="start")
        stop = data.draw(st.one_of(st.just(total), st.integers(start + 1, total)), label="stop")

        def scan(auts):
            return kernels.first_fail(ops, args, k, a.size, a.join, a.meet, a.imp,
                                      a.bottom, start, stop, auts)

        got = scan(a.automorphisms)
        assert got == scan(None)
    if total <= 2000:
        assert got == _first_fail_reference(f, a, start, stop)


def _count_blocks(monkeypatch):
    """Patch the interpreter to count the blocks the scan evaluates: the
    rows of the first leading leaf (a scan-wide subterm has none)."""
    rows = []
    run = kernels._run

    def counting(prog, leaves, tables, m):
        if leaves and leaves[0] is not None:
            rows.append(np.shape(leaves[0])[0])
        return run(prog, leaves, tables, m)

    monkeypatch.setattr(kernels, "_run", counting)
    return rows


def test_kp_scan_on_bn4_evaluates_one_block_per_orbit(monkeypatch):
    """S_4 leaves 29 orbits of the 167 values of the leading variable, so a
    full kp scan on bn(4) evaluates 29 blocks instead of 167."""
    a = bn(4)
    f = axiom("kp")
    ops, args = compile_formula(f, a, variables(f))
    rows = _count_blocks(monkeypatch)
    for auts, blocks in ((None, 167), (a.automorphisms, 29)):
        rows.clear()
        assert kernels.first_fail(ops, args, 3, a.size, a.join, a.meet, a.imp,
                                  a.bottom, 0, a.size ** 3, auts) == -1
        assert sum(rows) == blocks


def test_hoist_evaluates_block_invariant_subterms_once():
    """In kp with p leading, q | r is the only subterm with an operator and
    no p; the split program reads it as variable 3 and has the same value."""
    a = bn(2)
    f = axiom("kp")
    ops, args = compile_formula(f, a, ["p", "q", "r"])
    prog, hoisted = kernels._hoist(kernels._program(ops, args), 1, 3)
    qr = compile_formula(parse("q | r"), a, ["p", "q", "r"])
    assert hoisted == [kernels._program(*qr)]
    assert len(prog[0]) == len(ops) - 2
    tables = (None, None, a.join.ravel(), a.meet.ravel(), a.imp.ravel())
    leaves = [np.arange(a.size).reshape(-1, 1, 1), np.arange(a.size).reshape(1, -1, 1),
              np.arange(a.size).reshape(1, 1, -1)]
    inv = kernels._run(hoisted[0], leaves, tables, a.size)
    assert (kernels._run(prog, leaves + [inv], tables, a.size)
            == kernels.evaluate(ops, args, leaves, a.join, a.meet, a.imp)).all()
    # an operand on the left is hoisted too, and a lone variable is not
    ops, args = compile_formula(parse("(q & r) -> p | r"), a, ["p", "q", "r"])
    qr = compile_formula(parse("q & r"), a, ["p", "q", "r"])
    assert kernels._hoist(kernels._program(ops, args), 1, 3)[1] == [kernels._program(*qr)]
