import hashlib
import itertools

import numpy as np
import pytest

from medlat.algebra import is_b_homomorphism, validate
from medlat import freedist
from medlat.errors import InputError, ResourceLimitError
from medlat.freedist import (
    bottom,
    free_algebra,
    free_element,
    free_enumerate,
    free_imp,
    free_join,
    free_leq,
    free_meet,
    free_neg,
    generator,
    generator_negations,
    independence_check,
    iso_to_bn,
    render_free,
    top,
)


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------

def test_normalization_drops_dominated_components():
    # a0 + a0*a1 = a0  (the larger subset meets to a smaller element)
    e = free_element(2, [(0,), (0, 1)])
    assert e.family == ((0,),)


def test_normalization_deduplicates_and_sorts():
    e = free_element(3, [(2, 0), (1,), (0, 2)])
    assert e.family == ((0, 2), (1,))


def test_normalization_is_idempotent():
    for e in free_enumerate(3):
        assert free_element(3, e.family) == e


def test_constants():
    assert bottom(3).family == ()
    assert top(3).family == ((0,), (1,), (2,))
    assert [generator(3, i).family for i in range(3)] == [((0,),), ((1,),), ((2,),)]


def test_free_element_rejects_bad_input():
    with pytest.raises(InputError):
        free_element(2, [()])
    with pytest.raises(InputError):
        free_element(2, [(5,)])
    with pytest.raises(InputError):
        free_element(0, [])


def test_mixed_generator_counts_rejected():
    with pytest.raises(InputError):
        free_join(generator(2, 0), generator(3, 0))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_free_sizes():
    assert [len(free_enumerate(n)) for n in range(1, 5)] == [2, 5, 19, 167]


def test_free_enumerate_distinct_and_capped():
    elems = free_enumerate(3)
    assert len(set(elems)) == len(elems)
    with pytest.raises(ResourceLimitError):
        free_enumerate(6)


# ---------------------------------------------------------------------------
# operations against first-principles oracles
# ---------------------------------------------------------------------------

def test_leq_is_a_partial_order():
    elems = free_enumerate(3)
    for a in elems:
        assert free_leq(a, a)
    for a, b in itertools.combinations(elems, 2):
        assert not (free_leq(a, b) and free_leq(b, a))


def test_join_meet_are_bounds():
    elems = free_enumerate(3)
    for a, b in itertools.product(elems, repeat=2):
        j = free_join(a, b)
        m = free_meet(a, b)
        assert free_leq(a, j) and free_leq(b, j)
        assert free_leq(m, a) and free_leq(m, b)
        # least / greatest among all enumerated bounds
        for c in elems:
            if free_leq(a, c) and free_leq(b, c):
                assert free_leq(j, c)
            if free_leq(c, a) and free_leq(c, b):
                assert free_leq(c, m)


def test_lattice_identities():
    elems = free_enumerate(2)
    for a, b in itertools.product(elems, repeat=2):
        assert free_join(a, b) == free_join(b, a)
        assert free_meet(a, b) == free_meet(b, a)
        assert free_join(a, free_meet(a, b)) == a
        assert free_meet(a, free_join(a, b)) == a
    for a, b, c in itertools.product(elems, repeat=3):
        assert (free_meet(a, free_join(b, c))
                == free_join(free_meet(a, b), free_meet(a, c)))


def test_imp_is_residuation():
    elems = free_enumerate(3)
    for a, b in itertools.product(elems, repeat=2):
        r = free_imp(a, b)
        assert free_leq(b, free_join(a, r))
        for c in elems:
            if free_leq(b, free_join(a, c)):
                assert free_leq(r, c)


def test_bounds():
    elems = free_enumerate(3)
    for a in elems:
        assert free_leq(bottom(3), a)
        assert free_leq(a, top(3))


# ---------------------------------------------------------------------------
# tables and the isomorphism
# ---------------------------------------------------------------------------

# The tables of free_algebra(1..4) that `verify iso`, `verify arrow` and
# free:<n> specs read: sha256 of leq, join, meet and imp, each with its dtype
# and shape, then the bounds and the labels, as built pair by pair from the
# per-element operations.
FREE_TABLES_SHA256 = {
    1: "abb30b3bc0f89320ebe40a70139eae8412698ab3359976b013c1719bc1c3ce55",
    2: "d203618ad414bb2ab1957e0714db9f1b5009c7bcce9082fbe1ea63739132cc7d",
    3: "ab076aa9bea636f471f75200f13bfb4e334c6b6ccf02c23e611afd9892df544a",
    4: "4544cc138acb2b9b276a07cec1d8618c15f090f73e1b11c554126000f703df57",
}


@pytest.mark.parametrize("n", sorted(FREE_TABLES_SHA256))
def test_free_tables_are_frozen(n):
    a, _ = free_algebra(n)
    h = hashlib.sha256()
    for t in (a.leq, a.join, a.meet, a.imp):
        h.update(f"{t.dtype}{t.shape}".encode())
        h.update(np.ascontiguousarray(t).data)
    h.update(f"{a.bottom},{a.top}".encode())
    h.update("\n".join(a.labels).encode())
    assert h.hexdigest() == FREE_TABLES_SHA256[n]


def _assert_tables_match_operations(n, pairs):
    """Each sampled entry of free_algebra(n)'s tables against the
    per-element operations on the same normal forms."""
    a, elems = free_algebra(n)
    for i, j in pairs:
        x, y = elems[i], elems[j]
        assert a.leq[i, j] == free_leq(x, y), (n, i, j)
        assert elems[a.join[i, j]] == free_join(x, y), (n, i, j)
        assert elems[a.meet[i, j]] == free_meet(x, y), (n, i, j)
        assert elems[a.imp[i, j]] == free_imp(x, y), (n, i, j)
    assert elems[a.bottom] == bottom(n) and elems[a.top] == top(n)
    assert a.labels == tuple(map(render_free, elems))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bitmask_tables_match_the_operations_on_all_pairs(n):
    m = len(free_enumerate(n))
    _assert_tables_match_operations(n, itertools.product(range(m), repeat=2))


def test_bitmask_tables_match_the_operations_on_sampled_pairs():
    m = len(free_enumerate(4))
    rng = np.random.default_rng(20)
    _assert_tables_match_operations(4, rng.integers(0, m, size=(3000, 2)).tolist())


@pytest.mark.parametrize("n", [2, 3, 4])
def test_an_order_that_is_no_distributive_lattice_is_refused(monkeypatch, n):
    """Without the up-closure, a <= b reads as inclusion of the families.
    That order has no greatest element (for n = 2, {a0*a1} and {a0, a1}
    are both maximal), and the table builder refuses it."""
    monkeypatch.setattr(freedist, "_up", lambda g, shifts: g)
    with pytest.raises(InputError, match="not a distributive lattice"):
        free_algebra.__wrapped__(n)


@pytest.mark.parametrize("f", [free_enumerate, free_algebra, iso_to_bn])
@pytest.mark.parametrize("n", [0, -1, -(10 ** 30)])
def test_a_generator_count_below_one_is_an_input_error(f, n):
    with pytest.raises(InputError, match="n >= 1"):
        f(n)


def test_free_algebra_validates():
    for n in (1, 2, 3, 4):
        alg, elems = free_algebra(n)
        assert alg.size == len(elems)
        assert validate(alg) == []
        assert alg.provenance == f"free:{n}"


def test_iso_to_bn_verified():
    for n in (1, 2, 3, 4):
        amap, elems = iso_to_bn(n)
        assert amap.is_bijective()
        ok, _ = is_b_homomorphism(amap)
        assert ok
        assert len(elems) == amap.source.size


def test_iso_transports_negation():
    amap, elems = iso_to_bn(3)
    tgt = amap.target
    for i, e in enumerate(elems):
        j = elems.index(free_neg(e))
        assert amap(j) == tgt.imp[amap(i), tgt.top]


def test_iso_cap():
    with pytest.raises(ResourceLimitError):
        iso_to_bn(5)


# ---------------------------------------------------------------------------
# negation and independence identities
# ---------------------------------------------------------------------------

def test_generator_negations_report():
    for n in (2, 3, 4):
        rep = generator_negations(n)
        assert rep["ok"] and rep["neg_top_is_bottom"]
        assert len(rep["rows"]) == n
    with pytest.raises(InputError):
        generator_negations(1)


def test_neg_of_generator_explicitly():
    # -a0 = a1 + a2 in the 3-generator lattice, and --a0 = a0
    g0 = generator(3, 0)
    assert free_neg(g0) == free_element(3, [(1,), (2,)])
    assert free_neg(free_neg(g0)) == g0


def test_independence():
    for n in (2, 3, 4):
        for i in range(n):
            rest = [j for j in range(n) if j != i]
            for size in range(len(rest) + 1):
                for comb in itertools.combinations(rest, size):
                    assert not independence_check(n, i, comb)
    with pytest.raises(InputError):
        independence_check(3, 1, [1, 2])


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_render_examples():
    assert render_free(bottom(3)) == "0"
    assert render_free(top(3)) == "1"
    assert render_free(free_element(3, [(0, 1), (2,)])) == "a0*a1 + a2"
