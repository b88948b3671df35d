"""Differential tests: the table kernels against the recursive evaluator
``logic.eval_formula`` and against the definitions they implement."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import clause_formula, random_poset
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
    antichain_formula,
    axiom,
    compile_formula,
    eval_formula,
    parse,
    render,
    variables,
)
from medlat.poset import antichain_poset, chain_poset, make_poset, open_sets


def _programs():
    out = []
    for name in ("kp", "lin", "jan", "sc_standard"):
        f = axiom(name)
        for a in (bn(2), bn(3), chain_algebra(4)):
            out.append((f, a, compile_formula(f, variables(f))[0]))
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
    f, a, nodes = _programs()[case]
    k = len(variables(f))
    total = a.size ** k
    spans = [(0, total), (total // 3, 2 * total // 3), (total - 1, total)]
    for start, stop in spans:
        got = kernels.first_fail(nodes, k, a.size, a.join, a.meet,
                                 a.imp, a.bottom, a.top, start, stop)
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
    nodes, _ = compile_formula(f, variables(f))
    total = a.size ** k
    for start, stop in _ranges(total, a.size ** kernels._trailing(k, a.size)):
        got = kernels.first_fail(nodes, k, a.size, a.join, a.meet,
                                 a.imp, a.bottom, a.top, start, stop)
        assert got == _first_fail_reference(f, a, start, stop), (start, stop)


def _int64_walk(f, a, env):
    """f's value with env[name] as the values of each variable, read off
    int64 copies of the tables, so no index is formed in a narrow dtype."""
    join, meet, imp = (t.astype(np.int64) for t in (a.join, a.meet, a.imp))

    def go(g):
        if isinstance(g, Var):
            return env[g.name]
        if isinstance(g, (Top, Bot)):
            return a.bottom if isinstance(g, Top) else a.top
        if isinstance(g, Not):
            return imp[go(g.sub), a.top]
        table = join if isinstance(g, And) else meet if isinstance(g, Or) else imp
        return table[go(g.left), go(g.right)]

    return go(f)


def test_node_index_does_not_overflow_above_256_elements():
    """x * m + y passes 2**16 - 1 once m > 256: formed in the 2-byte element
    dtype, the index of an operator on an operator node's value would wrap.
    On the 512 elements of a 9-element antichain's algebra and the 384 of a
    2-chain beside 7 points, the kernel agrees with an int64 walk of the
    tables over all m**2 valuations, and the scan with the recursive
    evaluator; so it does on the 256 of an 8-element antichain, the largest
    algebra whose indices fit the element dtype.  The second formula is
    valid, so a wrapped index shows as a failure."""
    leq = np.eye(9, dtype=bool)
    leq[0, 1] = True
    for poset in (antichain_poset(9), make_poset(leq), antichain_poset(8)):
        a = from_poset(poset)
        m = a.size
        p, q = np.arange(m).reshape(-1, 1), np.arange(m).reshape(1, -1)
        for text in ("(p -> q) | (q -> p)", "(~p | q) -> (q | ~p)"):
            f = parse(text)
            nodes, _ = compile_formula(f, ["p", "q"])
            got = kernels.evaluate(nodes, [p, q], a.join, a.meet, a.imp, a.bottom, a.top)
            assert np.array_equal(got, _int64_walk(f, a, {"p": p, "q": q})), (m, text)
            for start, stop in _ranges(m ** 2, m ** kernels._trailing(2, m)):
                got = kernels.first_fail(nodes, 2, m, a.join, a.meet, a.imp, a.bottom, a.top,
                                         start, stop)
                assert got == _first_fail_reference(f, a, start, stop), (m, text, start, stop)


def test_scan_block_divides_the_space():
    """A block of ``first_fail`` is m ** _trailing(nvars, m) valuations, a
    divisor of the m ** nvars in the space."""
    assert kernels._trailing(0, 7) == 0
    assert kernels._trailing(3, 19) == 3 and kernels._trailing(4, 19) == 3
    assert kernels._trailing(3, 167) == 2
    assert 2 ** kernels._trailing(16, 2) == kernels._BLOCK
    assert kernels._trailing(5, 1) == 5


def test_first_fail_memory_stays_within_blocks():
    """One scan of the 167**3 valuations of kp on bn(4) never holds more than
    a few arrays of _BLOCK int64 entries; the whole space would be 37 MB.
    The second formula has 20 nodes, so its block holds the values of many
    nodes unless each goes after its last reader."""
    a = bn(4)
    cases = ((axiom("kp"), -1),
             (parse("((p -> q) & (q -> r) & (r -> p) & ~p & ~~q)"
                    " | ((p | q) -> (q | r) -> (r & p))"), a.size))
    for f, want in cases:
        nodes, _ = compile_formula(f, variables(f))
        tracemalloc.start()
        try:
            got = kernels.first_fail(nodes, 3, a.size, a.join, a.meet, a.imp,
                                     a.bottom, a.top, 0, a.size ** 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 4 * kernels._BLOCK * 8, render(f)


def test_first_fail_matches_slow_evaluator():
    f = parse("~p | (p -> q)")
    a = bn(2)
    names = variables(f)
    nodes, _ = compile_formula(f, names)
    first = kernels.first_fail(nodes, 2, a.size, a.join, a.meet, a.imp,
                               a.bottom, a.top, 0, a.size ** 2)
    # recompute by brute force with the recursive evaluator
    ref = -1
    for idx in range(a.size ** 2):
        val = {"p": idx // a.size, "q": idx % a.size}
        if eval_formula(f, a, val) != a.bottom:
            ref = idx
            break
    assert first == ref


def test_first_fail_spans_blocks():
    """A failure past the first block of the scan is found at its index, and
    of failures in several blocks the least one (17 variables are 4 blocks)."""
    a = chain_algebra(2)
    for nvars, targets in ((16, [kernels._BLOCK + 7233]),
                           (17, [3 * kernels._BLOCK + 5]),
                           (17, [3 * kernels._BLOCK + 5, 2 * kernels._BLOCK + 9])):
        f = clause_formula(nvars, *targets)
        nodes, _ = compile_formula(f, variables(f))
        assert kernels.first_fail(nodes, nvars, 2, a.join, a.meet, a.imp,
                                  a.bottom, a.top, 0, 2 ** nvars) == min(targets)


def test_evaluate_matches_slow_evaluator():
    """Sampled valuation columns as the leaves, as the sampling scan passes them."""
    rng = np.random.default_rng(99)
    a = bn(3)
    f = axiom("kp")
    names = variables(f)
    nodes, _ = compile_formula(f, names)
    vals = rng.integers(0, a.size, size=(200, len(names)), dtype=np.int64)
    got = kernels.evaluate(nodes, vals.T, a.join, a.meet, a.imp, a.bottom, a.top)
    for row, g in zip(vals, got):
        assert eval_formula(f, a, dict(zip(names, map(int, row)))) == g


def test_evaluate_broadcasts_leaves():
    """A subterm carries the axes of its variables only; constants stay scalars."""
    a = bn(2)
    f = parse("(p -> q) | ~p & T")
    nodes, _ = compile_formula(f, ["p", "q"])
    leaves = [np.arange(a.size).reshape(-1, 1), np.arange(a.size).reshape(1, -1)]
    got = kernels.evaluate(nodes, leaves, a.join, a.meet, a.imp, a.bottom, a.top)
    assert got.shape == (a.size, a.size)
    for p, q in itertools.product(range(a.size), repeat=2):
        assert got[p, q] == eval_formula(f, a, {"p": p, "q": q})
    nodes, _ = compile_formula(parse("F -> T"), [])
    assert np.ndim(kernels.evaluate(nodes, [], a.join, a.meet, a.imp, a.bottom, a.top)) == 0


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
    out = kernels.imp_masks(masks[rows], masks[cols], kernels.imp_luts(p.down_masks))
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


def test_imp_luts_one_table_per_16_bits():
    """An n-element poset has max(1, ceil(n / 16)) tables, the last indexed
    by the bits it covers alone."""
    for n, sizes in ((0, [1]), (1, [2]), (16, [1 << 16]), (17, [1 << 16, 2]),
                     (31, [1 << 16, 1 << 15]), (64, [1 << 16] * 4)):
        luts = kernels.imp_luts(chain_poset(n).down_masks)
        assert [t.shape for t in luts] == [(k,) for k in sizes], n
        assert all(t.dtype == np.uint64 for t in luts)
    # in a chain the down-set of a set of elements is that of its largest
    full = (1 << 64) - 1
    luts = kernels.imp_luts(chain_poset(64).down_masks)
    assert int(luts[3][1 << 15]) == 0
    assert int(luts[0][0b101]) == full ^ 0b111
    assert int(luts[2][0]) == full


def test_permute_masks_matches_a_loop():
    """Each image against the mask rebuilt one bit at a time; widths 0..9,
    31 and 64 cover zero to two, four and eight bytes."""
    rng = np.random.default_rng(13)
    for n in [*range(10), 31, 64]:
        perms = np.array([rng.permutation(n) for _ in range(4)]).reshape(4, n)
        masks = rng.integers(0, 1 << n, size=30, dtype=np.uint64)
        want = [[sum(1 << int(g[i]) for i in range(n) if int(u) >> i & 1) for u in masks]
                for g in perms]
        assert kernels.permute_masks(masks, perms).tolist() == want, n


def test_no_fail_returns_minus_one():
    f = parse("p -> p")
    a = bn(2)
    nodes, _ = compile_formula(f, ["p"])
    assert kernels.first_fail(nodes, 1, a.size, a.join, a.meet, a.imp,
                              a.bottom, a.top, 0, a.size) == -1


# ---------------------------------------------------------------------------
# symmetry-reduced scan and scan-invariant nodes
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

# Formulas that reuse subterms, and unshared trees built by constructors.
_shared_formulas = st.one_of(
    st.recursive(
        st.sampled_from([Var("p"), Var("q"), Var("r"), Top(), Bot()]),
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Imp, sub, sub),
            sub.map(lambda g: And(g, g)),
            sub.map(lambda g: Imp(g, Not(g))),
            st.tuples(sub, sub).map(lambda gh: Or(Imp(*gh), Imp(*gh[::-1]))),
        ),
        max_leaves=8,
    ).filter(lambda f: variables(f)),
    st.sampled_from([antichain_formula(3), antichain_formula(4)]),
)

# Scan block sizes: the default, and small ones that give bn(2) and bn(3)
# leading variables and steps of one or several blocks.
_BLOCK_SIZES = (kernels._BLOCK, 5, 19, 25, 40, 50, 100, 400)


@settings(max_examples=250, deadline=None)
@given(f=st.one_of(_formulas_1_to_4, _shared_formulas), n=st.sampled_from([2, 3]),
       block=st.sampled_from(_BLOCK_SIZES), data=st.data())
def test_first_fail_skip_matches_full_scan(f, n, block, data):
    """Skipping blocks whose image under an automorphism was scanned
    earlier finds the same index as scanning every block, on whole spaces
    and on ranges that start or end inside a block.  A formula compiles to
    the node list of its parse, however much of it is shared."""
    a = bn(n)
    names = variables(f)
    k = len(names)
    total = a.size ** k
    compiled = compile_formula(f, names)
    assert compile_formula(parse(render(f)), names) == compiled
    nodes = compiled[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_BLOCK", block)
        if total // a.size ** kernels._trailing(k, a.size) > 400:
            mp.setattr(kernels, "_BLOCK", 1 << 15)  # keep each example short
        start = data.draw(st.integers(0, total - 1), label="start")
        stop = data.draw(st.one_of(st.just(total), st.integers(start + 1, total)), label="stop")

        def scan(auts):
            return kernels.first_fail(nodes, k, a.size, a.join, a.meet, a.imp,
                                      a.bottom, a.top, start, stop, auts)

        got = scan(a.automorphisms)
        assert got == scan(None)
    if total <= 2000:
        assert got == _first_fail_reference(f, a, start, stop)


def _record_runs(monkeypatch):
    """Patch the interpreter to record each run: the operator nodes it
    evaluates and the root it returns.  The scan-invariant pass of a scan
    whose root reads a leading variable returns None."""
    runs = []
    run = kernels._run

    def recording(steps, vals, ops):
        out = run(steps, vals, ops)
        runs.append(([step[0] for step in steps], out))
        return out

    monkeypatch.setattr(kernels, "_run", recording)
    return runs


def test_kp_scan_on_bn4_evaluates_one_block_per_orbit(monkeypatch):
    """S_4 leaves 29 orbits of the 167 values of the leading variable, so a
    full kp scan on bn(4) evaluates 29 blocks instead of 167."""
    a = bn(4)
    f = axiom("kp")
    nodes, _ = compile_formula(f, variables(f))
    runs = _record_runs(monkeypatch)
    for auts, blocks in ((None, 167), (a.automorphisms, 29)):
        runs.clear()
        assert kernels.first_fail(nodes, 3, a.size, a.join, a.meet, a.imp,
                                  a.bottom, a.top, 0, a.size ** 3, auts) == -1
        assert sum(np.shape(out)[0] for _, out in runs if out is not None) == blocks


def test_scan_invariant_nodes_run_once_per_scan(monkeypatch):
    """In kp with p leading, q | r is the only operator node without p: it
    runs once per scan, not once per block, and the roots of the blocks
    make up the value of the whole formula."""
    a = bn(2)
    names = ["p", "q", "r"]
    nodes, _ = compile_formula(axiom("kp"), names)
    qr = nodes.index((kernels.OP_MEET, nodes.index((kernels.OP_VAR, 1, 0)),
                      nodes.index((kernels.OP_VAR, 2, 0))))
    monkeypatch.setattr(kernels, "_BLOCK", a.size ** 2)  # p leads, one block per step
    runs = _record_runs(monkeypatch)
    assert kernels.first_fail(nodes, 3, a.size, a.join, a.meet, a.imp,
                              a.bottom, a.top, 0, a.size ** 3) == -1
    assert runs[0] == ([qr], None)
    assert sum(qr in ran for ran, _ in runs) == 1
    roots = [out for _, out in runs[1:]]
    assert len(roots) == a.size
    leaves = [np.arange(a.size).reshape(-1, 1, 1), np.arange(a.size).reshape(1, -1, 1),
              np.arange(a.size).reshape(1, 1, -1)]
    whole = kernels.evaluate(nodes, leaves, a.join, a.meet, a.imp, a.bottom, a.top)
    np.testing.assert_array_equal(np.concatenate(roots), whole)
