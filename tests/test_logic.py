import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import clause_formula
from medlat import kernels, logic
from medlat.algebra import bn, chain_algebra, from_poset
from medlat.errors import InputError, ResourceLimitError
from medlat.logic import (
    AXIOM_TEXT,
    And,
    Bot,
    Imp,
    Not,
    Or,
    ParseError,
    Top,
    Var,
    antichain_formula,
    axiom,
    countermodel_search,
    eval_formula,
    evaluation_budget,
    is_valid,
    kp_class_check,
    lm_member,
    parse,
    render,
    variables,
)
from medlat.poset import enumerate_posets


# ---------------------------------------------------------------------------
# parsing and rendering
# ---------------------------------------------------------------------------

def test_precedence_and_associativity():
    assert parse("p -> q -> r") == Imp(Var("p"), Imp(Var("q"), Var("r")))
    assert parse("~p & q | r") == Or(And(Not(Var("p")), Var("q")), Var("r"))
    assert parse("p | q & r") == Or(Var("p"), And(Var("q"), Var("r")))
    assert parse("~~p") == Not(Not(Var("p")))
    assert parse("T -> F") == Imp(Top(), Bot())


def test_parentheses_override():
    assert parse("(p -> q) -> r") == Imp(Imp(Var("p"), Var("q")), Var("r"))
    assert parse("p & (q | r)") == And(Var("p"), Or(Var("q"), Var("r")))


def test_unicode_aliases():
    assert parse("¬p ∧ q ∨ r → ⊤") == parse("~p & q | r -> T")
    assert parse("⊥") == Bot()


def test_render_minimal_parens():
    for text, expect in [
        ("(p & q) | r", "p & q | r"),
        ("p -> (q -> r)", "p -> q -> r"),
        ("(p -> q) -> r", "(p -> q) -> r"),
        ("~(p & q)", "~(p & q)"),
        ("(p | q) & r", "(p | q) & r"),
    ]:
        assert render(parse(text)) == expect


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse("p @ q")
    assert exc.value.position == 2
    with pytest.raises(ParseError) as exc:
        parse("p &")
    assert exc.value.position == 3
    with pytest.raises(ParseError):
        parse("(p | q")
    with pytest.raises(ParseError):
        parse("")


def _depth(f):
    if isinstance(f, (Var, Top, Bot)):
        return 0
    if isinstance(f, Not):
        return 1 + _depth(f.sub)
    return 1 + max(_depth(f.left), _depth(f.right))


def test_depth_cap():
    """Depth 64 parses and depth 65 is refused, whichever connective nests."""
    for text in (lambda k: "~" * k + "p",
                 lambda k: " & ".join(["p"] * (k + 1)),
                 lambda k: " | ".join(["p"] * (k + 1)),
                 lambda k: " -> ".join(["p"] * (k + 1)),
                 lambda k: "(p & " * k + "p" + ")" * k):
        assert _depth(parse(text(64))) == 64
        with pytest.raises(InputError, match="depth|nest"):
            parse(text(65))


def test_parentheses_nest_at_most_the_depth_cap():
    assert parse("(" * 64 + "p" + ")" * 64) == Var("p")
    with pytest.raises(InputError, match="parentheses nest deeper than cap 64 at position 64"):
        parse("(" * 65 + "p" + ")" * 65)


def test_variables_sorted():
    assert variables(parse("r & p | q -> p")) == ["p", "q", "r"]
    assert variables(parse("T | F")) == []


def test_parse_shares_equal_subformulas():
    text = "(p -> q) & (p -> q) | ~(p -> q) & T & T"
    f = parse(text)
    pq = Imp(Var("p"), Var("q"))
    tree = Or(And(pq, Imp(Var("p"), Var("q"))),
              And(And(Not(Imp(Var("p"), Var("q"))), Top()), Top()))
    assert f == tree
    assert f.left.left is f.left.right is f.right.left.left.sub
    assert f.right.left.right is f.right.right
    assert f.left.left.left is f.right.left.left.sub.left
    for got, want in zip(logic.compile_formula(f, ["p", "q"]),
                         logic.compile_formula(tree, ["p", "q"])):
        np.testing.assert_array_equal(got, want)
    assert render(f) == render(tree)
    assert parse(text) is not f  # no state outlives a parse


_formula = st.recursive(
    st.sampled_from([Var("p"), Var("q"), Var("r"), Top(), Bot()]),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Imp, sub, sub),
    ),
    max_leaves=40,
)


def _depth_30_formula():
    """Every connective in both argument positions, nested 30 deep."""
    f = Var("p")
    for i in range(30):
        f = (Not(f), And(f, Var("q")), Or(Top(), f), Imp(f, Bot()),
             And(Var("r"), f), Or(f, Var("p")), Imp(Var("q"), f))[i % 7]
    return f


@settings(max_examples=200, deadline=None)
@given(_formula)
@example(_depth_30_formula())
def test_render_parse_round_trip(f):
    assert parse(render(f)) == f


# ---------------------------------------------------------------------------
# evaluation and the designated value
# ---------------------------------------------------------------------------

def test_constants_evaluate_to_bounds():
    a = bn(2)
    assert eval_formula(Top(), a, {}) == a.bottom  # truth is the least element
    assert eval_formula(Bot(), a, {}) == a.top


def test_eval_formula_matches_tables():
    a = bn(2)
    f = parse("p & q -> ~p | r")
    for p in range(a.size):
        for q in range(a.size):
            for r in range(a.size):
                want = int(a.imp[a.join[p, q], a.meet[a.imp[p, a.top], r]])
                assert eval_formula(f, a, {"p": p, "q": q, "r": r}) == want


def test_eval_formula_unbound_variable():
    with pytest.raises(InputError, match="unbound"):
        eval_formula(parse("p"), bn(1), {})


def test_tautologies_and_countermodels():
    a = bn(2)
    assert is_valid(parse("p -> p"), a).valid is True
    assert is_valid(parse("T"), a).valid is True
    rep = is_valid(parse("F"), a)
    assert rep.valid is False and rep.value_reached == a.top


def test_countermodel_is_least_and_rechecks():
    a = bn(2)
    rep = is_valid(axiom("lin"), a)
    assert rep.valid is False
    assert rep.countermodel == {"p": 1, "q": 2}
    assert eval_formula(axiom("lin"), a, rep.countermodel) == rep.value_reached
    assert rep.value_reached != a.bottom


@pytest.mark.parametrize("f,a", [
    (clause_formula(17, 3 * kernels._BLOCK + 5, 2 * kernels._BLOCK + 9), chain_algebra(2)),
    (clause_formula(17, 3 * kernels._BLOCK + 5), chain_algebra(2)),
    (parse("~~r -> r | (p -> q)"), bn(4)),
    (parse("(p -> w) | (r & s & t & u & q -> w)"), bn(2)),
])
def test_workers_1_2_3_agree(f, a):
    """The scan cut into 1, 2 or 3 runs of whole blocks finds, as its least
    failure, the countermodel of is_valid, also when several runs find one
    (the 17-variable space has 4 blocks)."""
    names = variables(f)
    k = len(names)
    nodes, _ = logic.compile_formula(f, names)
    total = a.size ** k
    nblocks = total // a.size ** kernels._trailing(k, a.size)
    rep = is_valid(f, a)
    want = -1 if rep.valid else rep.valuations_checked - 1
    for w in (1, 2, 3):
        cuts = [total // nblocks * (nblocks * i // w) for i in range(w + 1)]
        found = [kernels.first_fail(nodes, k, a.size, a.join, a.meet, a.imp, a.bottom,
                                    a.top, lo, hi, a.automorphisms)
                 for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
        assert min((x for x in found if x >= 0), default=-1) == want


def test_formula_nodes_have_slots():
    f = parse("~p & (q | T) -> F")
    nodes = [f, f.left, f.left.left, f.left.right, f.left.right.right, f.right]
    assert not any(hasattr(g, "__dict__") for g in nodes)


# ---------------------------------------------------------------------------
# budget and sampling
# ---------------------------------------------------------------------------

def test_budget_exceeded_without_seed():
    with pytest.raises(ResourceLimitError, match="sampling"):
        is_valid(axiom("kp"), bn(3), budget=10)


def test_budget_counts_valuations_times_postfix_length():
    """lin on bn(3): 19**2 = 361 valuations and a postfix program of 7 ops,
    though it compiles to 5 nodes; the scan needs 361 * 7 = 2527 steps."""
    f = axiom("lin")
    nodes, length = logic.compile_formula(f, ["p", "q"])
    assert (len(nodes), length) == (5, 7)
    with pytest.raises(ResourceLimitError, match="2527 steps"):
        is_valid(f, bn(3), budget=2526)
    rep = is_valid(f, bn(3), budget=2527)
    assert (rep.mode, rep.valuations_checked) == ("exhaustive", 22)


def test_compile_formula_emits_each_distinct_subterm_once():
    """The Rieger-Nishimura formula nf12 has 13 distinct subformulas and a
    tree of 477 postfix ops; its node list adds only the top that ~p reads."""
    nf = [Var("p"), Not(Var("p"))]
    for k in range(2, 13):
        nf.append(Or(nf[k - 2], nf[k - 1]) if k % 2 == 0 else Imp(nf[k - 1], nf[k - 3]))
    nodes, length = logic.compile_formula(nf[12], ["p"])
    assert (len(nodes), length) == (14, 477)
    assert nodes[-1] == (kernels.OP_MEET, 11, 12)  # nf10 | nf11, the root last


def test_sampling_finds_countermodel_deterministically():
    a = bn(3)
    r1 = is_valid(axiom("lin"), a, budget=2000, sample_seed=42)
    r2 = is_valid(axiom("lin"), a, budget=2000, sample_seed=42)
    assert r1.valid is False and r1.mode == "sampling"
    assert r1.to_dict() == r2.to_dict()
    assert eval_formula(axiom("lin"), a, r1.countermodel) == r1.value_reached


def test_sampling_never_claims_validity():
    rep = is_valid(axiom("kp"), bn(3), budget=2000, sample_seed=1)
    assert rep.valid is None and rep.mode == "sampling"


@pytest.mark.parametrize("text,n,budget,seed,countermodel,value,checked", [
    ("(p -> q) | (q -> p)", 3, 2000, 42, {"p": 1, "q": 2}, 16, 285),
    ("(p -> q) | (r -> s) | ~~(p & s)", 3, 5000, 7, {"p": 1, "q": 2, "r": 16, "s": 14}, 15, 333),
    ("F & T", 2, 1, 3, {}, 0, 1),
    ("~p | ~~p", 4, 20, 1, {"p": 85}, 148, 2),
])
def test_sampling_answers_are_fixed_by_the_seed(text, n, budget, seed, countermodel,
                                                value, checked):
    """Sampled countermodels recorded from the per-valuation interpreter that
    the broadcast one replaced: the same seed gives the same answer."""
    rep = is_valid(parse(text), bn(n), budget=budget, sample_seed=seed)
    assert (rep.valid, rep.mode) == (False, "sampling")
    assert (rep.countermodel, rep.value_reached, rep.valuations_checked) == (
        countermodel, value, checked)


@pytest.mark.parametrize("budget,seed", [(1000, 1), (10 ** 30, None)])
def test_valuation_space_wider_than_int64_is_refused(budget, seed):
    # 19^15 > 2^63 - 1: sampling and exhaustive scans would both index it in int64
    f = parse(" | ".join("abcdefghijklmno"))
    with pytest.raises(ResourceLimitError, match="int64"):
        is_valid(f, bn(3), budget=budget, sample_seed=seed)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("MEDLAT_BUDGET", "1e3")
    assert evaluation_budget() == 1000
    for raw in ("bogus", "inf"):
        monkeypatch.setenv("MEDLAT_BUDGET", raw)
        with pytest.raises(InputError):
            evaluation_budget()
    monkeypatch.delenv("MEDLAT_BUDGET")
    assert evaluation_budget() == 100_000_000


def test_a_budget_below_one_is_refused(monkeypatch):
    """Below 1 step, the budget= argument and MEDLAT_BUDGET are input
    errors, not a scan of one sampled valuation."""
    for budget in (0, -1):
        with pytest.raises(InputError, match="at least 1"):
            is_valid(parse("p | ~p"), bn(2), budget=budget, sample_seed=3)
    for raw in ("0", "-1", "0.5"):
        monkeypatch.setenv("MEDLAT_BUDGET", raw)
        with pytest.raises(InputError, match="MEDLAT_BUDGET must be at least 1"):
            evaluation_budget()
        with pytest.raises(InputError, match="MEDLAT_BUDGET"):
            is_valid(parse("p"), bn(1), sample_seed=1)
    assert is_valid(parse("p -> p"), bn(1), budget=6).valid  # 2 valuations x 3 steps


# ---------------------------------------------------------------------------
# axioms, levels, searches
# ---------------------------------------------------------------------------

def test_axiom_catalogue():
    for name, text in AXIOM_TEXT.items():
        assert axiom(name) == parse(text)
    with pytest.raises(InputError):
        axiom("nope")


def test_lm_member_lin():
    rep = lm_member(axiom("lin"), 2)
    assert [r.valid for _, r in rep.levels] == [True, False]
    assert rep.in_all_levels is False


def test_lm_member_kp():
    rep = lm_member(axiom("kp"), 3)
    assert rep.in_all_levels is True


def test_lm_member_caps():
    with pytest.raises(ResourceLimitError):
        lm_member(axiom("kp"), 6)
    with pytest.raises(ResourceLimitError, match="budget"):
        lm_member(axiom("lin"), 5)  # 7,580^2 valuations x 7 steps on bn(5)


def test_lm_member_answers_two_variables_at_level_5_within_the_budget():
    """The step budget alone decides how far a formula is scanned."""
    rep = lm_member(axiom("lin"), 5, budget=10**9)
    assert [n for n, _ in rep.levels] == [1, 2, 3, 4, 5]
    top = rep.levels[-1][1]
    assert top.valid is False and top.mode == "exhaustive"
    assert rep.in_all_levels is False


def test_countermodel_search_bound_note():
    res = countermodel_search(parse("p -> p"), 3)
    assert not res.found
    assert "does not prove" in res.note
    with pytest.raises(ResourceLimitError):
        countermodel_search(parse("p"), 8)


def test_antichain_formula_shape():
    # k=2 is the linearity axiom up to variable names
    assert (render(antichain_formula(2))
            == render(axiom("lin")).replace("p", "x1").replace("q", "x2"))
    f = antichain_formula(3)
    assert variables(f) == ["x1", "x2", "x3"]
    with pytest.raises(InputError):
        antichain_formula(7)


# ---------------------------------------------------------------------------
# the KP class
# ---------------------------------------------------------------------------

def test_kp_class_check_small():
    rep = kp_class_check(4)
    assert rep.ok
    assert not rep.positive_kp_failures
    assert rep.positive and rep.negative


def test_kp_class_check_shares_the_enumeration_cap(monkeypatch):
    """ENUMERATION_CAP bounds the class check: 8 is refused before any
    algebra is built, and 7, every poset that can be enumerated, is checked."""
    with monkeypatch.context() as mp:
        mp.setattr("medlat.logic.from_poset", _no_algebra)
        with pytest.raises(ResourceLimitError, match="cap is 7"):
            kp_class_check(8)
    rep = kp_class_check(7)
    assert len(rep.positive) + len(rep.negative) == 1 + 2 + 5 + 16 + 63 + 318 + 2045
    assert len(rep.positive) == 204
    # the predicate does not imply KP at size 7: one algebra of the positive
    # class refutes it (kp_class_check(6) finds none)
    assert not rep.ok and rep.positive_kp_failures == ("P7.1924:B(P7.1924)",)


def _no_algebra(p):
    raise AssertionError("an algebra was built")


def test_kp_fails_on_a_frame_whose_negations_are_principal():
    """P7.1924 by Kripke semantics on Python sets: every negation of an
    up-set is empty or principal (meet-irreducible in the algebra), and the
    countermodel is_valid reports refutes KP at the root."""
    p = next(q for q in enumerate_posets(7) if q.name == "P7.1924")
    a = from_poset(p)
    up = [frozenset(np.flatnonzero(row).tolist()) for row in p.leq]
    world = frozenset(range(p.size))

    def imp(u, v):
        return frozenset(x for x in world if not (up[x] & u) - v)

    def negation(u):
        return imp(u, frozenset())

    sets = [frozenset(i for i in world if m >> i & 1) for m in a.open_masks.tolist()]
    assert all(not negation(u) or negation(u) in up for u in sets)
    rep = is_valid(axiom("kp"), a)
    v = {name: sets[x] for name, x in rep.countermodel.items()}
    np_ = negation(v["p"])
    kp = imp(imp(np_, v["q"] | v["r"]), imp(np_, v["q"]) | imp(np_, v["r"]))
    assert rep.valid is False and 0 not in kp


def test_validity_report_json_shape():
    rep = is_valid(axiom("jan"), bn(2))
    d = rep.to_dict()
    assert d["valid"] is False
    assert d["algebra"] == "bn:2"
    assert d["countermodel"]["labels"] == {"p": "{{0}}"}
    json.dumps(d)  # serializable
