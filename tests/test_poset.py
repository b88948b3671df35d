import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import medlat
import medlat.poset as poset_module
from conftest import random_poset, transitive_closure_poset
from medlat.algebra import from_poset
from medlat.errors import InputError, ResourceLimitError
from medlat.poset import (
    MAX_UP_SETS,
    _enumerate_canonical,
    _least_in_orbit,
    _refine_colors,
    antichain_poset,
    canonical_form,
    chain_poset,
    check_partial_order,
    cover_matrix,
    enumerate_posets,
    hasse_dot,
    load_poset,
    make_poset,
    max_antichain_size,
    open_sets,
    order_isomorphisms,
    posets_isomorphic,
    poset_from_dict,
    poset_to_dict,
    powerset_poset,
    single_covers,
)


# ---------------------------------------------------------------------------
# order axioms
# ---------------------------------------------------------------------------

def test_rejects_non_reflexive():
    m = np.zeros((2, 2), dtype=bool)
    m[0, 0] = True
    with pytest.raises(InputError, match="reflexive"):
        check_partial_order(m)


def test_rejects_non_antisymmetric():
    m = np.ones((2, 2), dtype=bool)
    with pytest.raises(InputError, match="antisymmetric"):
        check_partial_order(m)


def test_rejects_non_transitive():
    m = np.eye(3, dtype=bool)
    m[0, 1] = m[1, 2] = True
    with pytest.raises(InputError, match="transitive"):
        check_partial_order(m)


def test_rejects_non_transitive_with_256_witnesses():
    # 256 elements lie between 0 and 257: a uint8 product would wrap to 0
    m = np.triu(np.ones((258, 258), dtype=bool))
    m[0, 257] = False
    with pytest.raises(InputError, match=r"transitive: \(0,257\)"):
        check_partial_order(m)


def test_make_poset_label_count():
    with pytest.raises(InputError, match="labels"):
        make_poset(np.eye(2, dtype=bool), labels=("a",))


def _assert_single_covers(leq):
    one_lower, one_upper = single_covers(leq)
    cov = cover_matrix(leq)
    assert one_lower.tolist() == (cov.sum(axis=0) == 1).tolist()
    assert one_upper.tolist() == (cov.sum(axis=1) == 1).tolist()


def test_single_covers_enumerated():
    for n in range(1, 7):
        for p in enumerate_posets(n):
            _assert_single_covers(p.leq)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), data=st.data())
def test_single_covers_random_orders(n, data):
    """Transitive closures of random DAGs (edges from lower to higher
    index), each relabelled by a random permutation."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    perm = data.draw(st.permutations(range(n)))
    p = transitive_closure_poset(n, [(perm[i], perm[j]) for i, j in edges])
    _assert_single_covers(p.leq)


def test_single_covers_long_chain():
    # 256 elements lie between the ends: a uint8 product would wrap to 0
    leq = np.triu(np.ones((258, 258), dtype=bool))
    _assert_single_covers(leq)
    one_lower, one_upper = single_covers(leq)
    assert np.flatnonzero(~one_lower).tolist() == [0]
    assert np.flatnonzero(~one_upper).tolist() == [257]


def test_up_masks(fork):
    # bit i of up_masks[a] set iff a <= i
    assert list(fork.up_masks) == [0b111, 0b010, 0b100]


# ---------------------------------------------------------------------------
# open sets
# ---------------------------------------------------------------------------

def _open_masks_oracle(p):
    out = []
    for mask in range(1 << p.size):
        members = {i for i in range(p.size) if mask >> i & 1}
        if all(j in members
               for i in members for j in range(p.size) if p.leq[i, j]):
            out.append(mask)
    return out


def test_open_sets_fork(fork):
    masks = open_sets(fork).tolist()
    assert open_sets(fork).dtype == np.uint64
    assert masks == _open_masks_oracle(fork) == [0b000, 0b010, 0b100, 0b110, 0b111]


def test_open_sets_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = random_poset(rng, int(rng.integers(1, 7)))
        assert open_sets(p).tolist() == _open_masks_oracle(p)


def test_open_sets_counts():
    assert len(open_sets(chain_poset(5))) == 6
    assert len(open_sets(antichain_poset(4))) == 16
    assert len(open_sets(chain_poset(20))) == 21
    assert len(open_sets(antichain_poset(18))) == 2 ** 18
    assert len(open_sets(antichain_poset(20))) == MAX_UP_SETS
    assert len(open_sets(chain_poset(64))) == 65
    assert len(open_sets(powerset_poset(5))) == 7580  # size of bn(5)


def test_open_sets_closure_under_union_intersection():
    rng = np.random.default_rng(3)
    p = random_poset(rng, 6)
    masks = set(open_sets(p).tolist())
    for a in masks:
        for b in masks:
            assert (a | b) in masks
            assert (a & b) in masks


def test_open_sets_frontier_path_matches_definition():
    # a chain keeps the count of an 18-element carrier small
    p = chain_poset(18)
    masks = open_sets(p).tolist()
    assert len(masks) == 19
    for mask in masks:
        members = {i for i in range(p.size) if mask >> i & 1}
        assert all(j in members
                   for i in members for j in range(p.size) if p.leq[i, j])


def test_open_sets_cap():
    with pytest.raises(ResourceLimitError, match="up-sets"):
        open_sets(antichain_poset(21))
    with pytest.raises(ResourceLimitError, match="65 elements"):
        open_sets(chain_poset(65))


# ---------------------------------------------------------------------------
# the powerset posets
# ---------------------------------------------------------------------------

def test_powerset_poset_shape():
    p = powerset_poset(2)
    assert p.size == 3
    assert p.labels == ("{0}", "{1}", "{0,1}")
    # reverse inclusion: the full set is the minimum
    assert p.leq[2].all()
    assert p.leq.sum(axis=1).tolist() == [1, 1, 3]  # nothing lies above a singleton


def test_powerset_poset_is_reverse_inclusion():
    p = powerset_poset(3)
    for i in range(p.size):
        for j in range(p.size):
            s, t = i + 1, j + 1
            assert p.leq[i, j] == ((s | t) == s)


def test_powerset_poset_caps():
    with pytest.raises(InputError):
        powerset_poset(0)
    with pytest.raises(ResourceLimitError):
        powerset_poset(7)


# ---------------------------------------------------------------------------
# enumeration up to isomorphism
# ---------------------------------------------------------------------------

def _brute_force_class_count(n):
    """All labeled partial orders on n elements, deduplicated by the minimum
    relation matrix over all n! relabelings (no refinement shortcuts)."""
    classes = set()
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    perms = list(itertools.permutations(range(n)))
    for bits in range(1 << len(offdiag)):
        m = np.eye(n, dtype=bool)
        for k, (i, j) in enumerate(offdiag):
            if bits >> k & 1:
                m[i, j] = True
        try:
            check_partial_order(m)
        except InputError:
            continue
        key = min(m[np.ix_(p, p)].astype(np.uint8).tobytes() for p in perms)
        classes.add(key)
    return len(classes)


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 5), (4, 16)])
def test_enumerate_posets_against_brute_force(n, count):
    assert len(enumerate_posets(n)) == count == _brute_force_class_count(n)


def test_enumerate_posets_larger_counts():
    assert [len(enumerate_posets(n)) for n in (5, 6, 7)] == [63, 318, 2045]


# The canonical keys of every poset with 1 to 7 elements, in the order
# _enumerate_canonical gives them, which is the order the names P<n>.<k>
# count (tests name P7.1924): sha256 of the concatenated keys.
CANONICAL_KEYS_SHA256 = "50b0b8edec051d3783c692c03fb02c0235796f3fd92ce80d28e86f3550a742d0"


def test_canonical_keys_are_frozen():
    h = hashlib.sha256()
    for n in range(1, 8):
        for key in _enumerate_canonical(n):
            h.update(key)
    assert h.hexdigest() == CANONICAL_KEYS_SHA256


def _generate_and_dedupe(max_n):
    """The keys of the posets with 1..max_n elements, by the reference
    enumeration: every down-set of every class of size n - 1 becomes the
    strict down-set of a new maximal element, and every child is keyed."""
    levels = [(canonical_form(np.ones((1, 1), dtype=bool)),)]
    for n in range(2, max_n + 1):
        seen = set()
        full = np.uint64((1 << (n - 1)) - 1)
        bits = np.uint64(1) << np.arange(n - 1, dtype=np.uint64)
        for key in levels[-1]:
            base = np.frombuffer(key, dtype=np.uint8).reshape(n - 1, n - 1).astype(bool)
            parent = make_poset(base)
            below = ((full ^ open_sets(parent))[:, None] & bits) != 0
            leq = np.zeros((n, n), dtype=bool)
            leq[: n - 1, : n - 1] = base
            leq[n - 1, n - 1] = True
            for column in below:
                leq[: n - 1, n - 1] = column
                seen.add(canonical_form(leq))
        levels.append(tuple(sorted(seen)))
    return levels


def test_enumeration_matches_generate_and_dedupe():
    for n, keys in enumerate(_generate_and_dedupe(6), start=1):
        assert _enumerate_canonical(n) == keys, n


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 7), data=st.data())
def test_every_random_order_has_its_class_enumerated(n, data):
    """Transitive closures of random DAGs, relabelled by a random
    permutation: the key of each is one of the enumerated keys."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    perm = data.draw(st.permutations(range(n)))
    p = transitive_closure_poset(n, [(perm[i], perm[j]) for i, j in edges])
    assert canonical_form(p) in set(_enumerate_canonical(n))


def test_cold_enumeration_keys_about_one_child_per_class(monkeypatch):
    """A cold build of sizes 1..7 keys at most 2,600 children for its 2,450
    classes; keying every down-set of every parent took 6,378.  The build
    leaves the cache full again."""
    calls = 0
    key = poset_module.canonical_form

    def counted(p):
        nonlocal calls
        calls += 1
        return key(p)

    monkeypatch.setattr(poset_module, "canonical_form", counted)
    _enumerate_canonical.cache_clear()
    assert sum(len(_enumerate_canonical(n)) for n in range(1, 8)) == 2450
    assert calls <= 2600


def test_least_in_orbit_matches_a_loop():
    """Against the least image of each mask over the rows, computed one row
    and one bit at a time; widths 1..20, 31 and 64 cover masks of one to
    three, four and eight bytes."""
    rng = np.random.default_rng(21)
    for m in [*range(1, 21), 31, 64]:
        perms = np.array([rng.permutation(m) for _ in range(5)] + [np.arange(m)])
        masks = np.unique(rng.integers(0, 1 << m, size=40, dtype=np.uint64))
        want = [int(u) == min(sum(1 << int(g[i]) for i in range(m) if int(u) >> i & 1)
                              for g in perms)
                for u in masks]
        assert _least_in_orbit(masks, perms).tolist() == want, m


def _reference_colors(leq):
    """Colour refinement computed on the matrix itself: the reference for
    ``_refine_colors``."""
    n = leq.shape[0]
    colors = [(int(leq[:, i].sum()), int(leq[i, :].sum())) for i in range(n)]
    for _ in range(n):
        sig = [
            (colors[i], tuple(sorted(colors[j] for j in range(n) if leq[j, i] and j != i)),
             tuple(sorted(colors[j] for j in range(n) if leq[i, j] and j != i)))
            for i in range(n)
        ]
        ranked = {s: r for r, s in enumerate(sorted(set(sig)))}
        new = [ranked[s] for s in sig]
        if len(set(new)) == len(set(colors)):
            colors = new
            break
        colors = new
    return colors


def _reference_canonical_form(leq):
    """The least relation matrix over every product of permutations of the
    colour classes, in colour order: the definition canonical_form keeps."""
    colors = _reference_colors(leq)
    classes = [[i for i, c in enumerate(colors) if c == k] for k in sorted(set(colors))]
    best = None
    for parts in itertools.product(*(itertools.permutations(g) for g in classes)):
        perm = np.array([i for part in parts for i in part], dtype=np.intp)
        key = leq[np.ix_(perm, perm)].astype(np.uint8).tobytes()
        if best is None or key < best:
            best = key
    return best


def _relabelled_orders():
    """Every poset with at most 6 elements under three seeded relabelings,
    then the antichains and chains with at most 8 elements."""
    rng = np.random.default_rng(20)
    for n in range(1, 7):
        for p in enumerate_posets(n):
            for _ in range(3):
                perm = rng.permutation(n)
                yield p.leq[np.ix_(perm, perm)]
    for n in range(9):
        yield antichain_poset(n).leq
        yield chain_poset(n).leq


def test_canonical_form_matches_the_permutation_definition():
    count = 0
    for leq in _relabelled_orders():
        assert _refine_colors(leq) == _reference_colors(leq), leq.tolist()
        assert canonical_form(leq) == _reference_canonical_form(leq), leq.tolist()
        count += 1
    assert count == 3 * (1 + 2 + 5 + 16 + 63 + 318) + 2 * 9


def test_canonical_form_of_a_wide_antichain_tries_one_twin():
    """The definition ranges over 20! relabelings here; twins cut the
    search to one branch per position."""
    start = time.perf_counter()
    key = canonical_form(antichain_poset(20))
    assert time.perf_counter() - start < 0.5
    assert key == np.eye(20, dtype=np.uint8).tobytes()


def test_enumerate_posets_pairwise_non_isomorphic():
    ps = enumerate_posets(4)
    keys = {canonical_form(p) for p in ps}
    assert len(keys) == len(ps)


def test_enumerate_posets_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_posets(8)


def test_posets_isomorphic(fork):
    relabeled = transitive_closure_poset(3, [(2, 0), (2, 1)])
    assert posets_isomorphic(fork, relabeled)
    assert not posets_isomorphic(fork, chain_poset(3))
    assert not posets_isomorphic(fork, chain_poset(4))
    assert posets_isomorphic(chain_poset(0), antichain_poset(0))


def _order_preserving_perms(l1, l2):
    """The bijections x -> f[x] with x <= y iff f[x] <= f[y], by brute force."""
    n = len(l1)
    return {f for f in itertools.permutations(range(n))
            if all(l1[x, y] == l2[f[x], f[y]] for x in range(n) for y in range(n))}


def test_order_isomorphisms_agree_with_canonical_forms():
    """Over every same-size pair of posets with at most 5 elements (4,255
    pairs), one side relabelled by a seeded permutation: the search yields
    an isomorphism iff the canonical forms are equal, and what it yields
    preserves the order both ways.  On the pairs of a poset with a relabelled
    copy of itself it yields every such bijection, each once."""
    rng = np.random.default_rng(18)
    pairs = 0
    for n in range(1, 6):
        ps = enumerate_posets(n)
        for p in ps:
            for q in ps:
                perm = rng.permutation(n)
                leq = q.leq[np.ix_(perm, perm)]
                isos = list(order_isomorphisms(p.leq, leq))
                assert bool(isos) == (canonical_form(p) == canonical_form(q)), (p.name, q.name)
                for f in isos:
                    assert sorted(f) == list(range(n))
                    assert np.array_equal(leq[np.ix_(f, f)], p.leq), (p.name, q.name, f)
                if p is q:
                    assert len(isos) == len(set(map(tuple, isos)))
                    assert set(map(tuple, isos)) == _order_preserving_perms(p.leq, leq)
                pairs += 1
    assert pairs == 4255


# ---------------------------------------------------------------------------
# antichains
# ---------------------------------------------------------------------------

def _max_antichain_oracle(p):
    best = 0
    for mask in range(1 << p.size):
        members = [i for i in range(p.size) if mask >> i & 1]
        if all(not p.leq[i, j]
               for i in members for j in members if i != j):
            best = max(best, len(members))
    return best


def test_max_antichain_examples(fork):
    assert max_antichain_size(fork.leq) == 2
    assert max_antichain_size(chain_poset(6).leq) == 1
    assert max_antichain_size(antichain_poset(5).leq) == 5


def test_max_antichain_random():
    rng = np.random.default_rng(23)
    for _ in range(30):
        p = random_poset(rng, int(rng.integers(1, 11)))
        assert max_antichain_size(p.leq) == _max_antichain_oracle(p)


def test_max_antichain_enumerated():
    for n in range(1, 7):
        for p in enumerate_posets(n):
            assert max_antichain_size(p.leq) == _max_antichain_oracle(p)


def test_max_antichain_matches_up_set_minima():
    """Antichains are the sets of minimal elements of up-sets, so the width
    is the largest such set over open_sets; posets with 8 to 40 elements."""
    rng = np.random.default_rng(5)
    for n in range(8, 41, 2):
        for density in (0.2, 0.4):
            p = random_poset(rng, n, density)
            ups = open_sets(p)
            covered = np.zeros_like(ups)  # union of the strict up-sets of members
            for x, strict in enumerate(p.up_masks & ~(np.uint64(1) << np.arange(n, dtype=np.uint64))):
                covered[(ups >> np.uint64(x)) & np.uint64(1) == 1] |= strict
            width = max(bin(int(u)).count("1") for u in ups & ~covered)
            assert max_antichain_size(p.leq) == width


def test_max_antichain_of_boolean_lattices_is_sperner():
    """The up-sets of a k-antichain form the Boolean lattice 2^k, whose
    widest level has C(k, floor(k/2)) elements (Sperner's theorem)."""
    for k in range(11):
        assert max_antichain_size(from_poset(antichain_poset(k)).leq) == math.comb(k, k // 2)


def test_max_antichain_of_a_long_chain():
    # augmenting paths are searched with an explicit stack, not recursion
    assert max_antichain_size(np.triu(np.ones((3000, 3000), dtype=bool))) == 1


def test_import_does_not_load_networkx():
    src = str(Path(medlat.__file__).resolve().parent.parent)
    code = "import sys, medlat; print(any(m.split('.')[0] == 'networkx' for m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60).stdout
    assert out.strip() == "False"


# ---------------------------------------------------------------------------
# JSON files
# ---------------------------------------------------------------------------

def test_poset_dict_round_trip(fork):
    q = poset_from_dict(poset_to_dict(fork))
    assert q.labels == fork.labels
    assert (q.leq == fork.leq).all()
    assert q.name == fork.name


def test_load_poset(tmp_path, fork):
    path = tmp_path / "fork.json"
    path.write_text(json.dumps(poset_to_dict(fork)))
    p = load_poset(str(path))
    assert (p.leq == fork.leq).all()


def test_poset_from_dict_errors():
    with pytest.raises(InputError):
        poset_from_dict({"elements": ["a"]})
    with pytest.raises(InputError):
        poset_from_dict({"elements": ["a", "b"], "le": [[0, 5]]})
    with pytest.raises(InputError):
        poset_from_dict({"elements": ["a", "b"], "le": [[0, 1], [1, 0]]})
    # only lists of pairs of integers (not bools, floats or strings)
    for le in ([5], [[0.5, 1]], [[0, 1.0]], [[True, 1]], [["0", "1"]], [[0, 1, 1]],
               [[0]], [None], 5, "01", {"0": 1}):
        with pytest.raises(InputError):
            poset_from_dict({"elements": ["a", "b"], "le": le})


def test_poset_from_dict_needs_a_list_of_elements():
    # a string or an object is not read as its characters or keys
    for elements in ("abc", {"a": 0, "b": 1}):
        with pytest.raises(InputError, match="'elements' must be a list"):
            poset_from_dict({"elements": elements, "le": []})


def test_hasse_dot_escapes_labels():
    dot = hasse_dot(np.ones((1, 1), dtype=bool), ['a\\b"c'], "g")
    assert '  n0 [label="a\\\\b\\"c"];' in dot.splitlines()
