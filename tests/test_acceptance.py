"""End-to-end acceptance suite.

Each test covers one headline property of the package, prints a single
PASS line (always visible, even under pytest capture) and enforces a
runtime ceiling.  Expected values here were produced by independent
brute-force oracles and frozen; see tests/data/axiom_fixtures.jsonl for
the frozen axiom table.
"""

import itertools
import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_formula
from medlat.algebra import (
    bn,
    from_poset,
    interval,
    factor_by_principal_filter,
    irreducibles,
    is_b_homomorphism,
    plus_a_map,
    validate,
)
from medlat.freedist import free_enumerate, generator_negations, independence_check, iso_to_bn
from medlat.logic import (
    And,
    Bot,
    Not,
    Or,
    Top,
    Var,
    antichain_formula,
    axiom,
    countermodel_search,
    is_valid,
    kp_class_check,
    parse,
)
from medlat.poset import enumerate_posets, max_antichain_size, order_isomorphisms

FIXTURES = Path(__file__).parent / "data" / "axiom_fixtures.jsonl"


@pytest.fixture
def report(capsys):
    """Print one always-visible summary line, bypassing pytest capture."""
    def emit(line: str) -> None:
        with capsys.disabled():
            print(line, flush=True)
    return emit


class _Timer:
    def __init__(self, limit: float):
        self.limit = limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.1f}s exceeds limit {self.limit}s")
        return False


def _resolve(spec: str):
    from medlat.cli import resolve_algebra
    return resolve_algebra(spec)


def test_01_construction_soundness(report):
    with _Timer(30) as t:
        count = 0
        for n in range(1, 6):
            for p in enumerate_posets(n):
                assert validate(from_poset(p)) == []
                count += 1
    report(f"PASS 01 construction soundness: {count} algebras from posets "
            f"<= 5 elements satisfy all laws ({t.elapsed:.1f}s)")


def test_02_size_and_iso_suite(report):
    expected = {1: 2, 2: 5, 3: 19, 4: 167}
    with _Timer(60) as t:
        for n, size in expected.items():
            assert len(free_enumerate(n)) == size
            assert bn(n).size == size
            amap, _ = iso_to_bn(n)  # raises unless bijective B-homomorphism
            assert amap.is_bijective()
    report(f"PASS 02 size/iso suite: free lattice sizes {tuple(expected.values())} "
            f"match the open-set algebras, isomorphisms verified ({t.elapsed:.1f}s)")


def test_03_arrow_agreement(report):
    with _Timer(10) as t:
        for n in range(1, 5):
            amap, _ = iso_to_bn(n)
            src, tgt, img = amap.source, amap.target, amap.image
            # independent residuation oracle on the target:
            # imp(a,b) = least c with b <= a + c
            m = tgt.size
            ar = np.arange(m)
            covers = tgt.leq[ar[None, :, None], tgt.join[:, None, :]]  # (a,b,c)
            oracle = np.empty((m, m), dtype=np.int64)
            for a_ in range(m):
                for b_ in range(m):
                    cand = np.flatnonzero(covers[a_, b_])
                    least = cand[tgt.leq[np.ix_(cand, cand)].all(axis=1)]
                    assert least.size == 1
                    oracle[a_, b_] = least[0]
            assert (img[src.imp] == oracle[img[:, None], img[None, :]]).all()
    report(f"PASS 03 arrow agreement: free implication matches the residuation "
            f"min-scan on all pairs for n = 1..4 ({t.elapsed:.1f}s)")


def _truth_table_taut(f) -> bool:
    from medlat.logic import variables
    names = variables(f)

    def go(g, env):
        if isinstance(g, Var):
            return env[g.name]
        if isinstance(g, Top):
            return True
        if isinstance(g, Bot):
            return False
        if isinstance(g, Not):
            return not go(g.sub, env)
        if isinstance(g, And):
            return go(g.left, env) and go(g.right, env)
        if isinstance(g, Or):
            return go(g.left, env) or go(g.right, env)
        return (not go(g.left, env)) or go(g.right, env)

    return all(go(f, dict(zip(names, bits)))
               for bits in itertools.product((False, True), repeat=len(names)))


def test_04_classical_calibration(report):
    rng = random.Random(20260823)
    names = ["p", "q", "r", "s"]
    b1 = bn(1)
    mismatches = 0
    for _ in range(1000):
        f = random_formula(rng, names, 6)
        if bool(is_valid(f, b1).valid) != _truth_table_taut(f):
            mismatches += 1
    assert mismatches == 0
    report("PASS 04 classical calibration: 2-element validity matches truth "
            "tables on 1000 random formulas (0 mismatches)")


def test_05_axiom_fixtures(report):
    entries = [json.loads(line) for line in FIXTURES.read_text().splitlines() if line]
    assert len(entries) == 24
    table = {(e["algebra"], e["axiom"]): e for e in entries}

    with _Timer(60) as t:
        for e in entries:
            rep = is_valid(parse(e["formula"]), _resolve(e["algebra"]))
            live = rep.to_dict()
            assert live["valid"] == e["valid"], (e, live)
            assert live["countermodel"] == e["countermodel"], (e, live)

    # headline facts, asserted against the frozen table itself
    assert table[("chain:3", "lem")]["valid"] is False
    assert table[("bn:2", "jan")]["valid"] is False
    assert table[("bn:2", "jan")]["countermodel"]["assignment"] == {"p": 1}
    assert table[("bn:2", "lin")]["valid"] is False
    assert table[("bn:2", "lin")]["countermodel"]["assignment"] == {"p": 1, "q": 2}
    for n in (1, 2, 3):
        assert table[(f"bn:{n}", "kp")]["valid"] is True
    for n in (2, 3):
        assert table[(f"bn:{n}", "sc_paper")]["valid"] is False
        assert table[(f"bn:{n}", "sc_standard")]["valid"] is True
    report(f"PASS 05 axiom fixtures: all 24 frozen oracle rows reproduced "
            f"exactly ({t.elapsed:.1f}s)")


def test_06_factor_is_initial_segment(report):
    with _Timer(60) as t:
        pairs = 0
        for n in range(1, 5):
            for p in enumerate_posets(n):
                a = from_poset(p)
                for x in range(a.size):
                    res = factor_by_principal_filter(a, x)
                    if res.degenerate:
                        assert x == a.bottom
                        assert interval(a, a.bottom, x).size == 1
                    else:
                        assert res.iso_to_initial_segment is not None
                    pairs += 1
    report(f"PASS 06 factor/interval: quotient by each principal filter is "
            f"isomorphic to the initial segment ({pairs} cases, {t.elapsed:.1f}s)")


def test_07_shift_homomorphisms(report):
    a = bn(3)
    with _Timer(30) as t:
        for shift in range(a.size):
            for c in range(a.size):
                res = plus_a_map(a, shift, c)
                ok, viol = is_b_homomorphism(res.map)
                assert ok, (shift, c, viol)
                assert res.surjective, (shift, c)
    report(f"PASS 07 shift homomorphisms: u -> u + a is a surjective "
            f"B-homomorphism for all {a.size}^2 pairs in bn(3) ({t.elapsed:.1f}s)")


def test_08_kp_characterization_slice(report):
    with _Timer(300) as t:
        rep = kp_class_check(5)
        assert rep.ok
        assert not rep.positive_kp_failures
        assert rep.positive  # the class is nonempty
    report(f"PASS 08 KP slice: all {len(rep.positive)} algebras (posets <= 5) "
            f"with meet-irreducible negations validate KP ({t.elapsed:.1f}s)")


def test_09_free_lattice_identities(report):
    with _Timer(10) as t:
        for n in range(2, 5):
            assert generator_negations(n)["ok"]
            for i in range(n):
                rest = [j for j in range(n) if j != i]
                for size in range(len(rest) + 1):
                    for comb in itertools.combinations(rest, size):
                        assert not independence_check(n, i, comb)
    report(f"PASS 09 free-lattice identities: negation and independence "
            f"identities hold for n = 2..4 ({t.elapsed:.1f}s)")


def test_10_antichain_separation(report):
    with _Timer(300) as t:
        sizes = [max_antichain_size(bn(n).leq) for n in range(1, 5)]
        assert all(a < b for a, b in zip(sizes, sizes[1:])), sizes

        checked = 0
        for n in range(1, 6):
            for p in enumerate_posets(n):
                a = from_poset(p)
                if a.bottom not in irreducibles(a)[0]:
                    continue
                width = max_antichain_size(a.leq)
                for k in (2, 3, 4):
                    rep = is_valid(antichain_formula(k), a)
                    assert bool(rep.valid) == (width < k), (p.name, k, width)
                    checked += 1
    report(f"PASS 10 antichain separation: widths {sizes} strictly increase; "
            f"formula/width agreement on {checked} cases ({t.elapsed:.1f}s)")


def test_11_countermodel_search(report):
    from conftest import transitive_closure_poset

    with _Timer(120) as t:
        jan = countermodel_search(axiom("jan"), 5)
        assert jan.found and jan.poset.size == 3
        fork = transitive_closure_poset(3, [(0, 1), (0, 2)])
        assert next(order_isomorphisms(jan.poset.leq, fork.leq), None) is not None

        lem = countermodel_search(axiom("lem"), 5)
        assert lem.found and lem.poset.size == 2
        chain2 = transitive_closure_poset(2, [(0, 1)])
        assert next(order_isomorphisms(lem.poset.leq, chain2.leq), None) is not None

        triv = countermodel_search(parse("p -> p"), 7)
        assert not triv.found
        assert "does not prove" in triv.note
    report(f"PASS 11 countermodel search: jan -> 3-element fork, lem -> "
            f"2-chain, p -> p -> none within bound 7 ({t.elapsed:.1f}s)")


def test_12_performance(report):
    from medlat.cli import main

    with _Timer(60) as t1:
        rc = main(["report", "--algebra", "bn:4", "--json"])
        assert rc == 0
    with _Timer(60) as t2:
        b5 = bn(5)
        for name in ("jan", "lem", "sc_paper", "sc_standard"):
            rep = is_valid(axiom(name), b5)
            assert rep.valid is not None
    report(f"PASS 12 performance: full bn(4) report in {t1.elapsed:.1f}s, "
            f"1-variable axioms on bn(5) in {t2.elapsed:.1f}s")
