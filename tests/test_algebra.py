import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from conftest import random_poset
from medlat import algebra, kernels, poset
from medlat.algebra import (
    AlgebraMap,
    BrouwerAlgebra,
    algebra_to_dict,
    algebra_to_dot,
    algebra_to_json,
    all_negations_meet_irreducible,
    bn,
    chain_algebra,
    factor_by_principal_filter,
    from_poset,
    from_tables,
    interval,
    irreducibles,
    is_b_homomorphism,
    is_isomorphic,
    meet_irreducible,
    plus_a_map,
    validate,
)
from medlat.errors import InputError, ResourceLimitError
from medlat.freedist import free_algebra
from medlat.poset import (
    Poset,
    antichain_poset,
    cover_matrix,
    enumerate_posets,
    load_poset,
    open_sets,
    powerset_poset,
)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_fork_algebra(fork):
    a = from_poset(fork)
    assert a.size == 5
    assert validate(a) == []
    assert a.labels[a.bottom] == "{r,a,b}"
    assert a.labels[a.top] == "{}"
    # join is intersection, meet is union: {a} + {b} = {}, {a} x {b} = {a,b}
    i_a = a.labels.index("{a}")
    i_b = a.labels.index("{b}")
    assert a.join[i_a, i_b] == a.top
    assert a.labels[a.meet[i_a, i_b]] == "{a,b}"


def test_bn_sizes():
    assert [bn(n).size for n in range(1, 5)] == [2, 5, 19, 167]
    with pytest.raises(InputError):
        bn(0)
    with pytest.raises(ResourceLimitError):
        bn(6)


def test_chain_algebra_is_linear():
    a = chain_algebra(4)
    assert a.size == 4
    assert validate(a) == []
    assert (a.leq | a.leq.T).all()


# The element numbering of bn(1..5) that fixtures and tests name: sha256 of
# leq, join, meet, imp, open_masks and automorphisms, each with its dtype and
# shape, as computed with the binary-search index the position tables replace.
# The element arrays were int32 then, so they are hashed widened to int32.
BN_NUMBERING_SHA256 = {
    1: "ab9b5d3c0bd98b30f5532749cd9bc8ad8d13d6227dbb72ebc2084ab84a3be442",
    2: "714f24a6eed0f277934a5aff970171d93ac27d4a31e52de48858c5b6d536012d",
    3: "5f056e6237a2c6737ee6f1501980b80baaa06cb46da3a77ae32694edcf74923d",
    4: "6a1cb4acbf7aa33056ef5427c9480ffe84740fad8985c80e2ebda1b1588f2186",
    5: "3a1fb3ba1bf57c62aa457fce26b96a9b169b4e42b17e0e7560e3217a3e0d0ff0",
}


@pytest.mark.parametrize("n", sorted(BN_NUMBERING_SHA256))
def test_bn_numbering_is_frozen(n):
    a = bn(n)  # bn(5) is built once per process: bn is cached
    assert all(t.dtype == algebra.ELEMENT_DTYPE for t in (a.join, a.meet, a.imp, a.automorphisms))
    h = hashlib.sha256()
    for t in (a.leq, a.join, a.meet, a.imp, a.open_masks, a.automorphisms):
        if t.dtype == algebra.ELEMENT_DTYPE:
            t = t.astype(np.int32)
        h.update(f"{t.dtype}{t.shape}".encode())
        h.update(np.ascontiguousarray(t).data)
    assert h.hexdigest() == BN_NUMBERING_SHA256[n]


def _mask_list(width, rng):
    """Distinct masks below 2**width, mask 0 among them, at least one
    value below 2**width left out."""
    drawn = {0}
    while len(drawn) < min((1 << width) - 1, 300):
        drawn.add(int(rng.integers(0, 1 << 64, dtype=np.uint64)) >> (64 - width))
    return sorted(drawn)


@pytest.mark.parametrize("shuffled", [False, True], ids=["sorted", "shuffled"])
@pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 17, 63, 64])
def test_mask_positions_match_a_dict(width, shuffled):
    """The byte-radix position tables against a dict from mask to position,
    on sorted and shuffled lists; a mask not in the list is refused, inside
    the width and with a bit at or above it."""
    rng = np.random.default_rng(width)
    values = _mask_list(width, rng)
    if shuffled:
        values = [values[i] for i in rng.permutation(len(values))]
    masks = np.array(values, dtype=np.uint64)
    oracle = {v: i for i, v in enumerate(values)}
    tables = algebra._position_tables(masks, width)
    assert len(tables) == max(1, -(-width // 8))
    found = algebra._index_of_masks(tables, masks)
    assert found.dtype == np.int32 and found.tolist() == list(range(len(values)))
    pick = rng.integers(0, len(values), (7, 11))
    assert algebra._index_of_masks(tables, masks[pick]).tolist() == \
        [[oracle[values[i]] for i in row] for row in pick.tolist()]
    # inside the width: the lowest bit of a listed mask flipped, which
    # leaves the tables only at the last byte, and the least unlisted value
    inside = [values[-1] ^ 1, next(v for v in range(1 << width) if v not in oracle)]
    above = [values[-1] | 1 << bit for bit in (width, 8 * len(tables), 63) if width <= bit < 64]
    absent = [v for v in inside if v not in oracle] + above
    assert len(absent) >= 1 + (width < 64)
    for v in absent:
        wanted = masks.copy()
        wanted[len(values) // 2] = v
        with pytest.raises(InputError, match="not found"):
            algebra._index_of_masks(tables, wanted)


def test_mask_positions_refuse_a_repeated_mask():
    with pytest.raises(InputError, match="not distinct"):
        algebra._position_tables(np.array([0, 5, 3, 5], dtype=np.uint64), 3)


def test_random_algebras_validate():
    rng = np.random.default_rng(5)
    for _ in range(15):
        a = from_poset(random_poset(rng, int(rng.integers(1, 7))))
        assert validate(a) == []


def test_bn5_tables_take_seven_bytes_per_entry():
    """leq is one byte per entry and join, meet and imp two each: 402 MB
    for bn(5)'s 7,580 elements, where int32 tables took 747 MB."""
    a = bn(5)
    assert sum(t.nbytes for t in (a.leq, a.join, a.meet, a.imp)) == 7_580 ** 2 * 7


def test_every_algebra_holds_element_indices_in_the_element_dtype():
    b3 = bn(3)
    cases = [bn(2), b3, chain_algebra(4), from_poset(antichain_poset(3)), free_algebra(2)[0],
             from_tables(b3.leq, b3.join.astype(np.int64), b3.meet, b3.imp, b3.bottom, b3.top),
             interval(b3, b3.bottom, 5), factor_by_principal_filter(b3, 5).algebra]
    for a in cases:
        arrays = (a.join, a.meet, a.imp) + (() if a.automorphisms is None else (a.automorphisms,))
        assert all(t.dtype == algebra.ELEMENT_DTYPE for t in arrays), a


@pytest.mark.parametrize("bad", [-1, 3, 65_536 + 1])
@pytest.mark.parametrize("name", ["join", "meet", "imp", "automorphisms"])
def test_entries_outside_the_elements_are_refused_before_narrowing(name, bad):
    """-1, m and 2**16 + 1 are not elements of the 3-element chain; narrowed
    to ELEMENT_DTYPE before the check, 2**16 + 1 would read as element 1."""
    base = chain_algebra(3)
    arrays = {t: getattr(base, t).astype(np.int64) for t in ("join", "meet", "imp")}
    arrays["automorphisms"] = np.arange(3)[None, :]
    arrays[name][0, 1] = bad
    with pytest.raises(InputError, match="out of element range"):
        BrouwerAlgebra(base.leq, arrays["join"], arrays["meet"], arrays["imp"], base.bottom,
                       base.top, base.labels, "bad", automorphisms=arrays["automorphisms"])
    if name != "automorphisms":
        with pytest.raises(InputError, match="out of element range"):
            from_tables(base.leq, arrays["join"], arrays["meet"], arrays["imp"],
                        base.bottom, base.top)


def test_more_elements_than_the_cap_are_refused_before_narrowing(monkeypatch):
    """With 2**16 + 2 elements, 65,537 is in range and would narrow to
    element 1: the algebra refuses any size above MAX_ALGEBRA_SIZE first.
    The m x m arrays are broadcast views already in the element dtype, so
    none is allocated, even if the cap were not checked."""
    m = (1 << 16) + 2
    leq = np.broadcast_to(np.True_, (m, m))
    t = np.broadcast_to(algebra.ELEMENT_DTYPE(0), (m, m))
    with pytest.raises(ResourceLimitError, match="cap"):
        BrouwerAlgebra(leq, t, t, t, 0, 0, (), "big", automorphisms=np.full((1, m), 65_537))
    base = chain_algebra(3)
    monkeypatch.setattr(algebra, "MAX_ALGEBRA_SIZE", 2)
    with pytest.raises(ResourceLimitError, match="cap"):
        from_tables(base.leq, base.join, base.meet, base.imp, base.bottom, base.top)


def test_from_tables_copies_integer_tables_and_converts_the_others():
    """An integer table keeps its values and is not frozen in place; a float
    one is read as integers, as from_tables always took it."""
    base = chain_algebra(3)
    join = base.join.astype(np.int32)
    a = from_tables(base.leq, join, base.meet.astype(float), base.imp, base.bottom, base.top)
    assert join.flags.writeable
    for name in ("join", "meet", "imp"):
        assert np.array_equal(getattr(a, name), getattr(base, name))
        assert getattr(a, name).dtype == algebra.ELEMENT_DTYPE


def test_interval_refuses_an_operation_that_leaves_it():
    """In unvalidated tables a meet may leave an interval; the interval is
    refused, not given an entry that is no element of it."""
    base = chain_algebra(3)  # bottom 2 < 1 < top 0
    meet = base.meet.copy()
    meet[1, 2] = base.top
    a = from_tables(base.leq, base.join, meet, base.imp, base.bottom, base.top)
    assert interval(base, 2, 1).size == 2
    with pytest.raises(InputError, match="out of element range"):
        interval(a, 2, 1)


def test_neg_on_bn2():
    # -{} = everything, -{a} = {b}, -{b} = {a}, -(larger opens) = {}
    a = bn(2)
    assert a.imp[:, a.top].tolist() == [4, 2, 1, 0, 0]
    assert a.imp[a.bottom, a.top] == a.top
    assert a.imp[a.top, a.top] == a.bottom


def test_from_tables_rejects_bad_shapes():
    leq = np.eye(2, dtype=bool)
    good = np.zeros((2, 2), dtype=int)
    with pytest.raises(InputError):
        from_tables(leq, good, good, np.zeros((3, 3), dtype=int), 0, 1)
    with pytest.raises(InputError):
        from_tables(leq, good, good, np.full((2, 2), 7), 0, 1)


# ---------------------------------------------------------------------------
# validate catches broken structures
# ---------------------------------------------------------------------------

def _m3_lattice():
    """Diamond with three atoms: the smallest non-distributive lattice."""
    # order: 0 bottom, 1/2/3 atoms, 4 top
    leq = np.eye(5, dtype=bool)
    leq[0, :] = True
    leq[:, 4] = True
    join = np.empty((5, 5), dtype=np.int32)
    meet = np.empty((5, 5), dtype=np.int32)
    for i in range(5):
        for j in range(5):
            ub = [c for c in range(5) if leq[i, c] and leq[j, c]]
            join[i, j] = next(c for c in ub if all(leq[c, d] for d in ub))
            lb = [c for c in range(5) if leq[c, i] and leq[c, j]]
            meet[i, j] = next(c for c in lb if all(leq[d, c] for d in lb))
    return leq, join, meet


def test_validate_flags_non_distributive():
    leq, join, meet = _m3_lattice()
    a = from_tables(leq, join, meet, join, 0, 4, provenance="m3")
    laws = {v.law for v in validate(a)}
    assert "distributivity" in laws


def test_validate_flags_bad_implication():
    base = bn(2)
    imp = base.imp.copy()
    imp[1, 2] = base.top  # pretend {a} -> {b} were the empty set
    a = from_tables(base.leq, base.join, base.meet, imp,
                    base.bottom, base.top, provenance="tampered")
    laws = {v.law for v in validate(a)}
    assert "residuation-reaches" in laws or "residuation-minimal" in laws


def test_validate_flags_bad_join():
    base = bn(2)
    join = base.join.copy()
    join[1, 2] = 1  # {a} + {b} must be the empty set, not {a}
    a = from_tables(base.leq, join, base.meet, base.imp,
                    base.bottom, base.top, provenance="tampered")
    assert any(v.law.startswith("join") for v in validate(a))


def test_validate_cap():
    with pytest.raises(ResourceLimitError):
        validate(from_poset(antichain_poset(9)))  # 512 elements


def test_from_poset_refuses_oversized_algebra():
    with pytest.raises(ResourceLimitError, match="16384 elements"):
        from_poset(antichain_poset(14))


# ---------------------------------------------------------------------------
# irreducibles
# ---------------------------------------------------------------------------

def _irreducible_oracle(a, x, kind):
    others = [y for y in range(a.size) if y != x]
    table = a.join if kind == "join" else a.meet
    side = a.leq[:, x] if kind == "join" else a.leq[x, :]
    cands = [y for y in others if side[y]]
    return not any(table[y, z] == x for y in cands for z in cands)


def test_irreducibles_bn2():
    meets, joins = irreducibles(bn(2))
    assert meets == [0, 1, 2, 4]
    assert joins == [1, 2, 3, 4]


def test_irreducibles_against_oracle():
    for a in (bn(2), bn(3), chain_algebra(5)):
        joins = irreducibles(a)[1]
        for x in range(a.size):
            assert (x in joins) == _irreducible_oracle(a, x, "join")
            assert meet_irreducible(a, x) == _irreducible_oracle(a, x, "meet")


def _irreducible_cases():
    for n in range(1, 5):
        for p in enumerate_posets(n):
            yield from_poset(p)
    yield free_algebra(2)[0]
    yield free_algebra(3)[0]
    b3 = bn(3)
    for lo, hi in np.argwhere(b3.leq):
        yield interval(b3, lo, hi)
    for f in range(b3.size):
        yield factor_by_principal_filter(b3, f).algebra


def test_irreducibles_match_the_table_definition():
    """The masks read off the order agree with "no two elements strictly
    below (above) x join (meet) to x" on the algebras of every poset with at
    most 4 elements, the free algebras on 2 and 3 generators, and the
    intervals and factors of bn(3)."""
    for a in _irreducible_cases():
        meets, joins = irreducibles(a)
        assert meets == [x for x in range(a.size) if _irreducible_oracle(a, x, "meet")]
        assert joins == [x for x in range(a.size) if _irreducible_oracle(a, x, "join")]


# ---------------------------------------------------------------------------
# intervals and factors
# ---------------------------------------------------------------------------

def test_interval_whole_is_isomorphic():
    a = bn(2)
    whole = interval(a, a.bottom, a.top)
    assert whole.size == a.size
    assert is_isomorphic(whole, a) is not None


def test_interval_validates():
    a = bn(3)
    for lo, hi in ((a.bottom, 5), (3, a.top), (2, 2)):
        if not a.leq[lo, hi]:
            continue
        assert validate(interval(a, lo, hi)) == []


def test_interval_rejects_unordered_bounds():
    a = bn(2)
    with pytest.raises(InputError):
        interval(a, a.top, a.bottom)


def test_factor_matches_interval_on_bn2():
    a = bn(2)
    for x in range(a.size):
        res = factor_by_principal_filter(a, x)
        if res.degenerate:
            assert x == a.bottom
            continue
        assert res.iso_to_initial_segment is not None
        assert res.algebra.size == interval(a, a.bottom, x).size
        assert validate(res.algebra) == []


def test_factor_map_sends_each_class_to_its_meet_with_f():
    """On every factor of bn(3), the returned isomorphism onto [0, f] sends
    the class of each x <= f to x itself (x x f = x)."""
    a = bn(3)
    for f in range(a.size):
        res = factor_by_principal_filter(a, f)
        if res.degenerate:
            assert res.iso_to_initial_segment is None
            continue
        iso = res.iso_to_initial_segment
        segment = np.flatnonzero(a.leq[:, f])  # [0, f], in interval's order
        assert iso.is_bijective() and is_b_homomorphism(iso) == (True, None)
        for x in segment:
            assert segment[iso(res.class_of[x])] == x, (f, x)


def test_factor_map_that_is_no_homomorphism_is_refused():
    """The factor's tables come from the quotient order alone, so when the
    algebra's own imp table is wrong, the map onto [0, f] does not preserve
    imp and no isomorphism is returned."""
    a = bn(2)
    wrong = from_tables(a.leq, a.join, a.meet, np.full_like(a.imp, a.bottom),
                        a.bottom, a.top)
    assert factor_by_principal_filter(a, a.top).iso_to_initial_segment is not None
    assert factor_by_principal_filter(wrong, wrong.top).iso_to_initial_segment is None


def test_factor_class_structure():
    a = bn(3)
    res = factor_by_principal_filter(a, 5)
    assert res.class_of.shape == (a.size,)
    for k, r in enumerate(res.representatives):
        assert res.class_of[r] == k
    # the filter itself collapses into the class of the top
    filt = np.flatnonzero(a.leq[5, :])
    assert len({int(res.class_of[x]) for x in filt}) == 1
    assert res.class_of[a.top] == res.class_of[5]


def test_factor_by_bottom_is_degenerate():
    a = bn(2)
    res = factor_by_principal_filter(a, a.bottom)
    assert res.degenerate
    assert res.algebra.size == 1


def _factor_reference(a, f):
    """The quotient by the principal filter of f, by brute force: classes of
    b <= c iff b x d <= c for some d >= f, and join, meet and implication as
    least upper bound, greatest lower bound and least c with j <= i + c,
    searched element by element in the quotient order."""
    m = a.size
    reach = [[any(a.leq[a.meet[b, d], c] for d in range(m) if a.leq[f, d])
              for c in range(m)] for b in range(m)]
    reps, class_of = [], []
    for x in range(m):
        k = next((i for i, r in enumerate(reps) if reach[x][r] and reach[r][x]), None)
        if k is None:
            k = len(reps)
            reps.append(x)
        class_of.append(k)
    k = len(reps)
    le = [[reach[r][s] for s in reps] for r in reps]

    def least(cands, below):
        best = [c for c in cands if all(below(c, x) for x in cands)]
        if len(best) != 1:
            raise InputError("no unique bound")
        return best[0]

    up = lambda c, x: le[c][x]
    down = lambda c, x: le[x][c]
    join = [[least([c for c in range(k) if le[i][c] and le[j][c]], up) for j in range(k)]
            for i in range(k)]
    meet = [[least([c for c in range(k) if le[c][i] and le[c][j]], down) for j in range(k)]
            for i in range(k)]
    imp = [[least([c for c in range(k) if le[j][join[i][c]]], up) for j in range(k)]
           for i in range(k)]
    return le, join, meet, imp, class_of, reps


def _factor_cases():
    for n in range(1, 5):
        for p in enumerate_posets(n):
            a = from_poset(p)
            yield from ((a, f) for f in range(a.size))
    for a in (bn(3), free_algebra(2)[0], free_algebra(3)[0]):
        yield from ((a, f) for f in range(a.size))


def test_factor_matches_brute_force():
    """Every factor of the algebras of posets with at most 4 elements, of
    bn(3) and of the free algebras on 2 and 3 generators (which have no
    poset): the array-built quotient equals the element-by-element one."""
    for a, f in _factor_cases():
        res = factor_by_principal_filter(a, f)
        le, join, meet, imp, class_of, reps = _factor_reference(a, f)
        q = res.algebra
        assert q.leq.tolist() == le
        assert (q.join.tolist(), q.meet.tolist(), q.imp.tolist()) == (join, meet, imp)
        assert res.class_of.tolist() == class_of and list(res.representatives) == reps
        assert (q.bottom, q.top) == (class_of[a.bottom], class_of[a.top])


def test_factor_of_a_non_lattice_order_is_refused():
    """Factoring by the top keeps the order; a bowtie (1, 2 below 3, 4) has
    no least upper bound of 1 and 2, so the quotient join does not exist."""
    leq = np.eye(6, dtype=bool)
    for lo, hi in ((1, 3), (1, 4), (2, 3), (2, 4)):
        leq[lo, hi] = True
    leq[0, :] = leq[:, 5] = True
    meet = np.zeros((6, 6), dtype=np.int32)
    meet[:, 5] = np.arange(6)  # b x top = b: the classes are the elements
    a = from_tables(leq, np.zeros((6, 6)), meet, np.zeros((6, 6)), bottom=0, top=5)
    with pytest.raises(InputError, match="no unique bound"):
        factor_by_principal_filter(a, 5)


def _no_tables(*args):
    raise AssertionError("the tables were built")


def _order_by_its_top(leq):
    """Tables whose order is leq and whose meet with the last element is
    the identity, so factoring by it leaves the order as it is."""
    m = len(leq)
    meet = np.zeros((m, m), dtype=np.int32)
    meet[:, m - 1] = np.arange(m)
    return from_tables(leq, np.zeros((m, m)), meet, np.zeros((m, m)), bottom=0, top=m - 1)


def _order(m, pairs):
    leq = np.eye(m, dtype=bool)
    for lo, hi in pairs:
        leq[lo, hi] = True
    return leq


@pytest.mark.parametrize("leq", [
    # M3: 0 < 1, 2, 3 < 4, a lattice but not distributive
    _order(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)]),
    # N5: 0 < 1 < 2 < 4 and 0 < 3 < 4
    _order(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)]),
    # the subsets of {0, 1, 2} as bitmasks, without {0, 1} <= {0, 1, 2}:
    # each element is still the set of join-irreducibles below it, but not
    # every inclusion is in the order
    _order(8, [(lo, hi) for lo in range(8) for hi in range(8)
               if lo | hi == hi and (lo, hi) != (3, 7)]),
], ids=["M3", "N5", "cube-minus-one-pair"])
def test_factor_of_an_order_that_is_no_distributive_lattice_is_refused(monkeypatch, leq):
    """The quotient order must be the up-sets of its join-irreducibles: the
    two non-distributive five-element lattices have too few elements for
    that, and the cut cube has the elements but not the order.  Each is
    refused before any table."""
    monkeypatch.setattr("medlat.algebra._up_set_table", _no_tables)
    with pytest.raises(InputError, match="no unique bound"):
        factor_by_principal_filter(_order_by_its_top(leq), len(leq) - 1)


def test_factor_with_too_many_join_irreducibles_is_refused(monkeypatch):
    """Factoring a 66-element chain by its top keeps all 66 elements, 65 of
    them join-irreducible: more than a uint64 up-set mask holds, so the
    factor is refused before any table."""
    ar = np.arange(66)
    leq = ar[:, None] <= ar[None, :]
    imp = np.where(leq.T, 0, ar[None, :])  # a -> b: bottom when b <= a, else b
    a = from_tables(leq, np.maximum.outer(ar, ar), np.minimum.outer(ar, ar), imp,
                    bottom=0, top=65)
    assert validate(a) == []
    monkeypatch.setattr("medlat.algebra._up_set_table", _no_tables)
    with pytest.raises(ResourceLimitError, match="65 join-irreducibles"):
        factor_by_principal_filter(a, a.top)


def test_factor_builds_its_tables_once_from_the_class_up_sets(monkeypatch):
    """A factor's tables are built straight in class order: no algebra of
    its join-irreducibles is built, and their up-sets are enumerated once
    per factor, for the check that the classes are all of them."""
    cases = (bn(3), free_algebra(3)[0])  # built before from_poset is patched
    monkeypatch.setattr("medlat.algebra.from_poset", _no_tables)
    calls = []
    real_open_sets = algebra.open_sets

    def counting(p):
        calls.append(p.name)
        return real_open_sets(p)

    monkeypatch.setattr("medlat.algebra.open_sets", counting)
    for a in cases:
        for f in range(a.size):
            calls.clear()
            res = factor_by_principal_filter(a, f)
            assert res.degenerate or res.iso_to_initial_segment is not None
            assert len(calls) == 1


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

def test_bn_automorphisms_are_bijective_homomorphisms():
    """bn(n) carries the n! permutations of {0..n-1}, lifted to its elements;
    each is a bijective B-homomorphism, and the first is the identity."""
    for n in (1, 2, 3, 4):
        a = bn(n)
        auts = a.automorphisms
        assert auts.shape == (math.factorial(n), a.size) and auts.dtype == algebra.ELEMENT_DTYPE
        assert not auts.flags.writeable
        assert auts[0].tolist() == list(range(a.size))
        assert len({tuple(g) for g in auts.tolist()}) == len(auts)
        for g in auts:
            f = AlgebraMap(a, a, g.copy())
            assert f.is_bijective() and is_b_homomorphism(f) == (True, None)


def test_powerset_automorphisms_permute_the_points():
    """Element i of powerset_poset(n) is the set with bitmask i + 1; the
    permutation of the points that swaps 0 and 1 maps {0} to {1}."""
    p = powerset_poset(3)
    swap = p.automorphisms[2]  # permutations in lexicographic order: (1, 0, 2)
    assert p.labels[swap[0]] == "{1}" and p.labels[swap[2]] == "{0,1}"
    assert (p.leq[np.ix_(swap, swap)] == p.leq).all()


def test_a_non_automorphism_is_refused(fork):
    """Swapping the root of the fork with a leaf does not preserve the order."""
    auts = np.array([[0, 1, 2], [0, 2, 1]], dtype=np.int32)
    a = from_poset(Poset(fork.leq, fork.labels, "fork", auts))
    assert a.automorphisms.shape == (2, a.size)
    for bad in ([[1, 0, 2]], [[0, 1, 1]], [[0, 1, 3]], [[0, 1]], [[0.0, 1.0, 2.0]]):
        with pytest.raises(InputError):
            from_poset(Poset(fork.leq, fork.labels, "fork", np.array(bad)))


def _with_automorphisms(p, auts):
    return Poset(p.leq, p.labels, p.name, None if auts is None else np.array(auts, dtype=np.int32))


def _same_tables(p, auts):
    """from_poset of p with the automorphism rows auts equals from_poset of
    p without any: same tables, masks and labels.  Each table is read alone
    on a fresh pair of algebras, so that it is built by itself."""
    for name in algebra._TABLES:
        a, b = (from_poset(_with_automorphisms(p, x)) for x in (auts, None))
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
        assert set(algebra._TABLES) & vars(a).keys() == {name}
    assert np.array_equal(a.open_masks, b.open_masks)
    assert (a.labels, a.bottom, a.top) == (b.labels, b.bottom, b.top)
    return a


@pytest.mark.parametrize("case", ["powerset1", "powerset2", "powerset3", "powerset4",
                                  "antichain4-S4", "fork-swap"])
def test_orbit_filled_tables_equal_the_direct_build(case, fork):
    """Rows filled by permutation from one row per orbit give the tables that
    computing every row gives, each table built alone."""
    if case.startswith("powerset"):
        p = powerset_poset(int(case[-1]))
        auts = p.automorphisms
    elif case == "antichain4-S4":
        p, auts = antichain_poset(4), list(itertools.permutations(range(4)))
    else:
        p, auts = fork, [[0, 1, 2], [0, 2, 1]]
    a = _same_tables(p, auts)
    assert a.automorphisms.shape == (len(auts), a.size)


@pytest.mark.parametrize("case", ["antichain3-lone-3-cycle", "fork-swap-without-identity"])
def test_automorphism_rows_that_are_no_group_fill_the_right_tables(case, fork):
    """Rows that are no group: a lone 3-cycle reaches the third element of
    an orbit only as its square, and the fork's swap comes without the
    identity.  Every row that no given permutation reaches from a directly
    computed row is computed too."""
    p, auts = ((antichain_poset(3), [[1, 2, 0]]) if case.startswith("antichain")
               else (fork, [[0, 2, 1]]))
    _same_tables(p, auts)


def test_bn_computes_one_implication_row_per_orbit(monkeypatch):
    """The rows of bn(1..4) passed to imp_masks are one per orbit of the
    n! permutations (the orbit's least element), against every row
    without automorphisms.  The tables are built when one is first read."""
    real = kernels.imp_masks
    rows = []

    def counting(u, v, luts):
        rows.extend(np.searchsorted(masks, u).tolist())
        return real(u, v, luts)

    monkeypatch.setattr("medlat.kernels.imp_masks", counting)
    for n, orbits, size in ((1, 2, 2), (2, 4, 5), (3, 9, 19), (4, 29, 167)):
        p = powerset_poset(n)
        masks = open_sets(p)
        rows.clear()
        a = from_poset(p)
        assert rows == []
        a.imp
        assert len(rows) == orbits
        assert rows == [x for x in range(a.size) if a.automorphisms[:, x].min() == x]
        rows.clear()
        from_poset(_with_automorphisms(p, None)).imp
        assert len(rows) == size


def test_only_powerset_algebras_carry_automorphisms(tmp_path):
    path = tmp_path / "vee.json"
    path.write_text(json.dumps({"name": "vee", "elements": ["r", "a", "b"],
                                "le": [[0, 1], [0, 2]]}))
    others = [chain_algebra(3), from_poset(enumerate_posets(3)[0]),
              from_poset(load_poset(str(path))), free_algebra(2)[0],
              factor_by_principal_filter(bn(3), 5).algebra, interval(bn(3), 3, 0)]
    assert all(a.automorphisms is None for a in others)


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------

def test_identity_is_homomorphism():
    a = bn(2)
    ok, viol = is_b_homomorphism(AlgebraMap(a, a, np.arange(a.size, dtype=np.int32)))
    assert ok and viol is None


def test_non_homomorphism_reports_witness():
    a = bn(2)
    image = np.arange(a.size, dtype=np.int32)
    image[3] = 1  # collapse {{0},{1}} onto {{0}}: breaks the lattice operations
    from medlat.algebra import AlgebraMap
    ok, viol = is_b_homomorphism(AlgebraMap(a, a, image))
    assert not ok
    assert viol[0] in ("join", "meet", "imp")


def test_plus_a_map_bn2_all_pairs():
    a = bn(2)
    for shift in range(a.size):
        for c in range(a.size):
            res = plus_a_map(a, shift, c)
            ok, _ = is_b_homomorphism(res.map)
            assert ok and res.surjective


def test_is_isomorphic_positive():
    """free(n) = bn(n) for n <= 3, and bn(n) is its own factor by the top."""
    for n in range(1, 5):
        a = bn(n)
        assert is_isomorphic(a, a) is not None
        if n <= 3:
            m = is_isomorphic(free_algebra(n)[0], a)
            assert m is not None and m.is_bijective()
            assert is_b_homomorphism(m)[0]
        assert is_isomorphic(a, factor_by_principal_filter(a, a.top).algebra) is not None


def test_is_isomorphic_negative_same_size():
    # both have 5 elements but different shapes
    assert is_isomorphic(bn(2), chain_algebra(5)) is None


def test_is_isomorphic_negative_different_size():
    assert is_isomorphic(bn(1), bn(2)) is None


def test_is_isomorphic_agrees_with_the_posets():
    """Birkhoff: for posets P, Q with at most 4 elements and algebras of one
    size, B(P) and B(Q) are isomorphic iff P and Q are."""
    algebras = [(p, from_poset(p)) for n in range(1, 5) for p in enumerate_posets(n)]
    pairs = 0
    for (p, a), (q, b) in itertools.product(algebras, repeat=2):
        if a.size == b.size:
            found = is_isomorphic(a, b)
            assert (found is not None) == (p is q), (p.name, q.name)
            pairs += 1
    assert pairs > len(algebras)


def test_isomorphism_search_needs_no_canonical_form(monkeypatch):
    """Both isomorphism questions go through the one poset search, so they
    answer with the canonical form out of reach."""
    def refuse(*args):
        raise AssertionError("canonical labelling used")

    monkeypatch.setattr(poset, "canonical_form", refuse)
    perm = np.random.default_rng(12).permutation(12)
    leq = antichain_poset(12).leq.copy()
    leq[0, 1] = True  # one comparable pair, so the relabelling is not the identity
    p = Poset(leq, tuple(map(str, range(12))))
    q = Poset(leq[np.ix_(perm, perm)], p.labels)
    for n in (12, 20):  # one colour class of n! relabelings
        assert poset.posets_isomorphic(antichain_poset(n), antichain_poset(n))
    assert poset.posets_isomorphic(p, q)
    assert not poset.posets_isomorphic(p, antichain_poset(12))
    assert is_isomorphic(bn(3), bn(3)) is not None


# ---------------------------------------------------------------------------
# the negation predicate
# ---------------------------------------------------------------------------

def test_all_negations_meet_irreducible():
    ok, witness = all_negations_meet_irreducible(bn(2))
    assert ok and witness is None
    bad = from_poset(antichain_poset(2))
    ok, witness = all_negations_meet_irreducible(bad)
    assert not ok
    assert not meet_irreducible(bad, bad.imp[witness, bad.top])


def test_all_negations_meet_irreducible_gives_the_least_witness():
    for n in range(1, 6):
        for p in enumerate_posets(n):
            a = from_poset(p)
            witness = next((x for x in range(a.size)
                            if not _irreducible_oracle(a, a.imp[x, a.top], "meet")), None)
            assert all_negations_meet_irreducible(a) == (witness is None, witness)


def test_irreducibles_and_factors_take_no_matrix_product(monkeypatch):
    """Irreducibility is read off down-set and up-set sizes, so neither the
    factors nor the irreducibility questions multiply order matrices."""
    def no_product(r):
        raise AssertionError("an order matrix was multiplied")

    monkeypatch.setattr("medlat.poset._bool_square", no_product)
    b3, b4 = bn(3), bn(4)
    for f in range(b3.size):
        assert factor_by_principal_filter(b3, f).algebra.size >= 1
    meets, joins = irreducibles(b4)
    assert len(meets) == len(joins) == 16  # 15 subsets of {0..3} and a bound
    assert all_negations_meet_irreducible(b4) == (True, None)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_algebra_json_round_trip():
    a = bn(2)
    d = json.loads(algebra_to_json(a))
    assert d == algebra_to_dict(a)
    b = from_tables(np.array(d["le"], dtype=bool), d["join"], d["meet"],
                    d["imp"], d["bottom"], d["top"], d["labels"])
    assert validate(b) == []
    assert is_isomorphic(a, b) is not None


def test_cover_relation_chain():
    a = chain_algebra(4)
    cov = cover_matrix(a.leq)
    assert cov.sum() == 3  # a 4-chain has exactly 3 covering pairs


def test_cover_relation_long_chain():
    # 256 elements lie between the ends: a uint8 product would wrap to 0
    n = 258
    ar = np.arange(n)
    leq = ar[:, None] <= ar[None, :]
    a = from_tables(leq, np.maximum.outer(ar, ar), np.minimum.outer(ar, ar),
                    np.zeros((n, n), dtype=int), 0, n - 1)
    assert cover_matrix(a.leq).sum() == n - 1


def test_dot_output_marks_meet_irreducibles():
    a = bn(2)
    dot = algebra_to_dot(a)
    assert dot.startswith("digraph")
    assert dot.count("shape=box") == len(irreducibles(a)[0])
    assert dot.count("->") == int(cover_matrix(a.leq).sum())
