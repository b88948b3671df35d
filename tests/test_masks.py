"""The up-set mask path of poset-backed algebras against the table path.

A poset-backed algebra (``from_poset``, ``bn``, ``chain_algebra``, and the
free algebras and factors, whose masks are in the numbering of their
order) scans and evaluates on its up-set masks, and builds each of its four
tables only when that table is read.  A table copy of it has no poset, so
it computes on the tables: the two must give the same answers, and the
scans must leave the poset-backed algebra's tables unbuilt.
"""

import json
import random

import numpy as np
import pytest

from conftest import antichain_poset, random_formula
from medlat import algebra, kernels
from medlat.algebra import (
    TableAlgebra,
    UpSetAlgebra,
    algebra_to_dot,
    all_negations_meet_irreducible,
    bn,
    chain_algebra,
    factor_by_principal_filter,
    from_poset,
    from_tables,
    irreducibles,
    validate,
)
from medlat.cli import main
from medlat.freedist import free_algebra
from medlat.logic import (
    axiom,
    countermodel_search,
    eval_formula,
    is_valid,
    parse,
    variables,
)
from medlat.poset import (
    chain_poset,
    enumerate_posets,
    load_poset,
    open_sets,
    powerset_poset,
)

TABLES = ("leq", "join", "meet", "imp")
NAMES = ("p", "q", "r")
# IPC theorems, so that some scans run through every valuation
THEOREMS = ("p -> p", "p & q -> q", "p -> p | q", "p & (p -> q) -> q",
            "~~(p | ~p)", "(p -> q) -> (q -> r) -> p -> r")


def unbuilt(a) -> bool:
    """None of a's four tables has been built."""
    return not set(TABLES) & vars(a).keys()


def table_copy(a):
    """a without its poset: the same tables, read by the table path."""
    return from_tables(a.leq, a.join, a.meet, a.imp, a.bottom, a.top, a.labels, "tables")


def seeded_formulas(seed, count, depth=4):
    """The theorems and count random formulas in 1 to 3 variables."""
    rng = random.Random(seed)
    out = [parse(t) for t in THEOREMS]
    for _ in range(count):
        out.append(random_formula(rng, NAMES[:rng.randint(1, 3)], depth))
    return out


def answer(rep):
    return (rep.valid, rep.countermodel, rep.value_reached, rep.valuations_checked, rep.mode)


def small_poset_algebras():
    """bn(1..4), the chains of 1 and 2 elements, B(P) for every poset with
    at most 5 elements, free:1..4, and every principal factor of bn(1..3)
    and of free:3, whose masks are in the numbering of their order."""
    out = [bn(n) for n in range(1, 5)] + [chain_algebra(1), chain_algebra(2)]
    out += [from_poset(p) for n in range(1, 6) for p in enumerate_posets(n)]
    out += [free_algebra(n)[0] for n in range(1, 5)]
    bases = [bn(n) for n in range(1, 4)] + [free_algebra(3)[0]]
    return out + [factor_by_principal_filter(b, f).algebra for b in bases for f in range(b.size)]


@pytest.mark.parametrize("seed", range(3))
def test_scans_on_masks_match_the_tables(seed):
    """valid, countermodel, value reached and valuations checked agree on
    seeded formulas in 1 to 3 variables."""
    formulas = seeded_formulas(seed, 6)
    for a in small_poset_algebras():
        t = table_copy(a)
        for f in formulas:
            got = answer(is_valid(f, a, budget=10**9))
            assert got == answer(is_valid(f, t, budget=10**9)), (a.provenance, str(f))


def test_sampled_scans_on_masks_match_the_tables():
    a = bn(3)
    t = table_copy(a)
    for f in seeded_formulas(11, 12):
        if len(variables(f)) < 2:
            continue
        got = is_valid(f, a, budget=300, sample_seed=5)
        assert got.mode == "sampling"
        assert answer(got) == answer(is_valid(f, t, budget=300, sample_seed=5)), str(f)


def test_eval_formula_on_masks_matches_the_tables():
    rng = random.Random(3)
    for a in [bn(n) for n in range(1, 5)] + [from_poset(p) for p in enumerate_posets(4)]:
        t = table_copy(a)
        for f in seeded_formulas(rng.random(), 4, depth=5):
            for _ in range(5):
                val = {v: rng.randrange(a.size) for v in NAMES}
                assert eval_formula(f, a, val) == eval_formula(f, t, val), (a.provenance, str(f))


def test_one_variable_axioms_on_bn5_match_the_tables():
    """The table side wraps bn(5)'s own tables rather than copying them,
    which would hold another 402 MB."""
    a = bn(5)
    t = TableAlgebra(a.leq, a.join, a.meet, a.imp, a.bottom, a.top, a.labels, "tables")
    for name in ("jan", "lem", "sc_paper", "sc_standard"):
        f = axiom(name)
        assert answer(is_valid(f, a)) == answer(is_valid(f, t)), name


@pytest.mark.parametrize("n", [1, 2, 3, 4, "free:3", "factor:bn:3,5"])
def test_scans_build_no_tables(n):
    """is_valid, exhaustive and sampled, and eval_formula leave the tables
    of a fresh bn(n), free:3 and factor of bn(3) by 5 unbuilt (free:3 and
    the factor hold only the order they were built from).  Read
    afterwards, bn(n)'s and free:3's are their frozen ones, and the
    factor's are valid and carry the map onto [0, 5]."""
    if n == "free:3":
        a, frozen = free_algebra.__wrapped__(3)[0], free_algebra(3)[0]
    elif n == "factor:bn:3,5":
        res = factor_by_principal_filter(bn(3), 5)
        a, frozen = res.algebra, None
    else:
        a, frozen = from_poset(powerset_poset(n), provenance=f"bn:{n}"), bn(n)
    held = set(TABLES) & vars(a).keys()
    assert held == ({"leq"} if isinstance(n, str) else set())
    for f in seeded_formulas(n, 6):  # a str seeds random.Random too
        is_valid(f, a, budget=10**9)
        is_valid(f, a, budget=50, sample_seed=1)
        eval_formula(f, a, dict.fromkeys(NAMES, a.size // 2))
    assert set(TABLES) & vars(a).keys() == held
    assert a.open_masks.dtype == np.uint64
    assert np.array_equal(a.operations.values, a.open_masks)
    if frozen is None:
        assert validate(a) == [] and res.iso_to_initial_segment is not None
        return
    for name in TABLES + ("open_masks", "automorphisms"):
        x, y = getattr(a, name), getattr(frozen, name)
        assert x is y is None or x.dtype == y.dtype and np.array_equal(x, y), name


def test_bn5_is_scanned_without_its_tables():
    """A fresh bn(5) scans on uint32 copies of its masks, which stay uint64."""
    a = algebra.bn.__wrapped__(5)  # not the cached bn(5), whose tables other tests read
    assert (is_valid(axiom("jan"), a).valid, is_valid(axiom("lem"), a).valid) == (False, False)
    assert eval_formula(parse("p -> p"), a, {"p": 17}) == a.bottom
    assert unbuilt(a)
    assert a.open_masks.dtype == np.uint64 and a.operations.values.dtype == np.uint32


def test_countermodel_search_builds_no_tables():
    res = countermodel_search(parse("~p | ~~p"), 4)
    assert res.found and unbuilt(res.algebra)
    eval_formula(res.report.formula, res.algebra, res.report.countermodel)
    assert unbuilt(res.algebra)


def test_tables_are_built_once_and_read_only(monkeypatch):
    """Reading a table of a poset-backed algebra builds that table alone,
    once, and keeps it read-only."""
    real, built = algebra._up_set_table, []

    def counting(name, *args):
        built.append(name)
        return real(name, *args)

    monkeypatch.setattr("medlat.algebra._up_set_table", counting)
    a = from_poset(chain_poset(3))
    for i, name in enumerate(TABLES):
        t = getattr(a, name)
        assert getattr(a, name) is t and not t.flags.writeable
        assert built == list(TABLES[:i + 1])
        assert set(TABLES) & vars(a).keys() == set(TABLES[:i + 1])


def test_order_questions_build_leq_alone(tmp_path, monkeypatch, capsys):
    """irreducibles, the KP class predicate, the DOT export and report read
    the order of a fresh poset-backed algebra and compute its negations on
    the masks: join, meet and imp stay unbuilt."""
    path = tmp_path / "vee.json"
    path.write_text(json.dumps({"name": "vee", "elements": ["r", "a", "b"],
                                "le": [[0, 1], [0, 2]]}))
    for p in (powerset_poset(3), load_poset(str(path))):
        a = from_poset(p)
        irreducibles(a)
        all_negations_meet_irreducible(a)
        algebra_to_dot(a)
        assert set(TABLES) & vars(a).keys() == {"leq"}, p.name
    built = []

    def recording(p):
        built.append(from_poset(p))
        return built[-1]

    monkeypatch.setattr("medlat.algebra.from_poset", recording)
    assert main(["report", "--algebra", f"poset:{path}", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["structure"]["size"] == 5
    assert len(built) == 1 and set(TABLES) & vars(built[0]).keys() == {"leq"}


def test_labels_and_automorphisms_are_built_on_first_read(tmp_path, capsys):
    """Scans without a leading variable and eval_formula read neither the
    labels nor the automorphisms of a fresh poset-backed algebra.  A
    3-variable scan on B(2^4-{}) has one leading variable (167**2 <= _BLOCK
    valuations per block), so it lifts the automorphisms to skip blocks, but
    builds no labels.  The first read of leq, a compare per entry, builds
    neither.  check still prints the labels of its countermodel."""
    derived = {"labels", "automorphisms"}
    a = from_poset(powerset_poset(4))
    assert not derived & vars(a).keys()
    assert not is_valid(parse("p | ~p"), a).valid
    assert not is_valid(parse("(p -> q) | (q -> p)"), a).valid
    eval_formula(parse("p & q -> r"), a, {"p": 1, "q": 2, "r": 3})
    assert not derived & vars(a).keys()
    assert is_valid(parse("p & q & r -> p"), a).valid
    assert derived & vars(a).keys() == {"automorphisms"} and unbuilt(a)
    b = from_poset(powerset_poset(4))
    b.leq
    assert not derived & vars(b).keys()
    path = tmp_path / "vee.json"
    path.write_text(json.dumps({"name": "vee", "elements": ["r", "a", "b"],
                                "le": [[0, 1], [0, 2]]}))
    assert main(["check", "~p | ~~p", "--algebra", f"poset:{path}"]) == 1
    assert "countermodel: p -> {a} (#1); value {a,b}" in capsys.readouterr().out


def eager_labels(p):
    """The labels as from_poset built them before they were built on first
    read: each up-set as the set of its poset labels."""
    return tuple("{" + ",".join(p.labels[i] for i in range(p.size) if u >> i & 1) + "}"
                 for u in open_sets(p).tolist())


def test_labels_built_on_first_read_match_the_eager_build():
    posets = [p for n in range(1, 6) for p in enumerate_posets(n)]
    posets += [powerset_poset(n) for n in range(1, 5)] + [chain_poset(n) for n in range(9)]
    for p in posets:
        a = from_poset(p)
        assert "labels" not in vars(a)
        assert a.labels == eager_labels(p), p.name


def test_negations_on_masks_match_the_tables():
    """The KP class predicate computes the negations on the masks of a
    poset-backed algebra and on the imp table of its table copy."""
    for a in small_poset_algebras():
        assert all_negations_meet_irreducible(a) == all_negations_meet_irreducible(table_copy(a))


def test_an_algebra_takes_all_four_tables_or_its_masks():
    """A table algebra takes its four tables and an up-set algebra its
    poset and masks, so no algebra holds part of one and part of the other.
    An unknown attribute is an AttributeError."""
    a = chain_algebra(3)
    with pytest.raises(TypeError):
        TableAlgebra(a.leq, a.join, a.bottom, a.top, a.labels, "part")
    with pytest.raises(TypeError):
        TableAlgebra(a.leq, a.join, a.meet, a.imp, a.bottom, a.top, a.labels, "mixed",
                     poset=a.poset)
    with pytest.raises(TypeError):
        UpSetAlgebra(a.poset, a.open_masks, "mixed", leq=a.leq)
    with pytest.raises(AttributeError):
        a.no_such_table


@pytest.mark.parametrize("p", [chain_poset(0), antichain_poset(5), chain_poset(16),
                               antichain_poset(9), chain_poset(17), chain_poset(40),
                               chain_poset(64)], ids=lambda p: p.name)
def test_mask_operations_match_the_byte_tables(p):
    """The mask operations against their definitions on every pair of
    up-sets (the first 300 of them), in a dtype that holds the poset: the
    implication U -> V = {x : [x) & U <= V} is built one bit x at a time."""
    masks = open_sets(p)[:300]
    ops = kernels.mask_operations(masks, p.down_masks)
    assert ops.values.dtype.itemsize * 8 >= p.size
    u, v = ops.values[:, None], ops.values[None, :]
    outside = masks[:, None] & ~masks[None, :]  # U \ V
    want = np.zeros_like(outside)
    for x, up in enumerate(p.up_masks):
        want[(outside & up) == 0] |= np.uint64(1) << np.uint64(x)
    assert np.array_equal(ops.imp(u, v).astype(np.uint64), want)
    assert np.array_equal(ops.join(u, v).astype(np.uint64), masks[:, None] & masks[None, :])
    assert np.array_equal(ops.meet(u, v).astype(np.uint64), masks[:, None] | masks[None, :])
    assert ops.element(ops.values[::-1]).tolist() == list(range(len(masks)))[::-1]
    # the same up-sets listed in a shuffled order, as a factor or free:n lists them
    shuffled = masks[np.random.default_rng(p.size).permutation(len(masks))]
    ops = kernels.mask_operations(shuffled, p.down_masks)
    assert (int(ops.bottom), int(ops.top)) == ((1 << p.size) - 1, 0)
    ar = np.arange(len(masks))
    assert ops.element(ops.value(ar)).tolist() == ar.tolist()
    assert ops.element(ops.value(ar[::-1])).tolist() == ar[::-1].tolist()
