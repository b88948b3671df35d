"""Formula syntax, evaluation in Brouwer algebras, validity and searches.

Validity is algebraic: a formula holds in an algebra when every valuation
evaluates to the *least* element (the designated truth value).  Under this
convention And maps to the lattice join, Or to the meet, and the theory of
the 2-element algebra is exactly classical truth-table validity.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import kernels
from .algebra import (
    BN_CAP,
    BrouwerAlgebra,
    all_negations_meet_irreducible,
    bn,
    from_poset,
)
from .errors import InputError, ResourceLimitError
from .poset import Poset, check_enumeration_bound, enumerate_posets

MAX_FORMULA_DEPTH = 64
DEFAULT_BUDGET = 100_000_000


def evaluation_budget() -> int:
    """The one work limit, in steps: MEDLAT_BUDGET, else DEFAULT_BUDGET.
    A value that is no number, or below 1 step, is an input error."""
    raw = os.environ.get("MEDLAT_BUDGET", "")
    if raw:
        try:
            budget = int(float(raw))
        except (ValueError, OverflowError):  # OverflowError: int(float("inf"))
            raise InputError(f"MEDLAT_BUDGET must be a number, got {raw!r}")
        return _check_budget(budget, "MEDLAT_BUDGET")
    return DEFAULT_BUDGET


def _check_budget(budget: int, name: str = "the step budget") -> int:
    """budget, refused as an input error when it is below 1 step."""
    if budget < 1:
        raise InputError(f"{name} must be at least 1, got {budget}")
    return budget


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------

class Formula:
    __slots__ = ()

    def __str__(self):
        return render(self)


@dataclass(frozen=True, slots=True)
class Var(Formula):
    name: str


@dataclass(frozen=True, slots=True)
class Top(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Bot(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Imp(Formula):
    left: Formula
    right: Formula


def variables(f: Formula) -> list[str]:
    seen: dict[int, Formula] = {}  # the subformulas walked, by id: a shared one once

    def walk(g):
        if id(g) not in seen:
            seen[id(g)] = g
            if isinstance(g, Not):
                walk(g.sub)
            elif isinstance(g, (And, Or, Imp)):
                walk(g.left)
                walk(g.right)

    walk(f)
    return sorted({g.name for g in seen.values() if isinstance(g, Var)})


# ---------------------------------------------------------------------------
# parser (recursive descent; ~ > & > | > ->, -> right-associative)
# ---------------------------------------------------------------------------

class ParseError(InputError):
    def __init__(self, message: str, position: int, expected: tuple[str, ...]):
        super().__init__(f"{message} at position {position} (expected {', '.join(expected)})")
        self.position = position
        self.expected = expected


_UNICODE = {"¬": "~", "∧": "&", "∨": "|", "→": "->",
            "⊤": "T", "⊥": "F"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    for k, v in _UNICODE.items():
        text = text.replace(k, v)
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("->", i):
            toks.append(("->", "->", i))
            i += 2
        elif c in "|&~()":
            toks.append((c, c, i))
            i += 1
        elif c in ("T", "F"):
            toks.append(("const", c, i))
            i += 1
        elif c.islower() and c.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("var", text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", i,
                             ("variable", "T", "F", "(", "~"))
    toks.append(("end", "", n))
    return toks


def parse(text: str) -> Formula:
    """The formula of text.  Equal subformulas are one shared node, so a
    parsed formula holds only its distinct subformulas.  Only parentheses
    recurse: a node deeper than ``MAX_FORMULA_DEPTH`` is refused as it is
    built, and parentheses nested deeper as they open, so no text reaches
    Python's recursion limit."""
    toks = _tokenize(text)
    pos, nesting = [0], [0]  # the next token; the parentheses open
    shared: dict = {}  # variable name, or (class, *ids of the parts) -> node
    depths: dict[int, int] = {}  # id of a node -> its depth

    def node(cls, *parts) -> Formula:
        # The parts are shared already, so their identities name the node;
        # shared keeps them alive, and their ids unique, while the parse runs.
        key = (cls, *map(id, parts))
        out = shared.get(key)
        if out is None:
            d = 1 + max((depths[id(q)] for q in parts), default=-1)
            if d > MAX_FORMULA_DEPTH:
                raise InputError(f"formula depth exceeds cap {MAX_FORMULA_DEPTH}")
            out = shared[key] = cls(*parts)
            depths[id(out)] = d
        return out

    def peek():
        return toks[pos[0]]

    def take(kind):
        tk = toks[pos[0]]
        if tk[0] != kind:
            raise ParseError(f"unexpected token {tk[1]!r}", tk[2], (kind,))
        pos[0] += 1
        return tk

    def p_imp() -> Formula:
        parts = [p_or()]
        while peek()[0] == "->":
            take("->")
            parts.append(p_or())
        out = parts.pop()
        while parts:  # -> is right-associative
            out = node(Imp, parts.pop(), out)
        return out

    def p_or() -> Formula:
        out = p_and()
        while peek()[0] == "|":
            take("|")
            out = node(Or, out, p_and())
        return out

    def p_and() -> Formula:
        out = p_not()
        while peek()[0] == "&":
            take("&")
            out = node(And, out, p_not())
        return out

    def p_not() -> Formula:
        count = 0
        while peek()[0] == "~":
            take("~")
            count += 1
        out = p_atom()
        for _ in range(count):
            out = node(Not, out)
        return out

    def p_atom() -> Formula:
        kind, val, at = peek()
        if kind == "var":
            take("var")
            out = shared.get(val)
            if out is None:
                out = shared[val] = Var(val)
                depths[id(out)] = 0
            return out
        if kind == "const":
            take("const")
            return node(Top if val == "T" else Bot)
        if kind == "(":
            if nesting[0] == MAX_FORMULA_DEPTH:
                raise InputError(f"parentheses nest deeper than cap {MAX_FORMULA_DEPTH} "
                                 f"at position {at}")
            take("(")
            nesting[0] += 1
            out = p_imp()
            nesting[0] -= 1
            take(")")
            return out
        raise ParseError(f"unexpected token {val!r}", at,
                         ("variable", "T", "F", "(", "~"))

    out = p_imp()
    take("end")
    return out


def render(f: Formula) -> str:
    def go(g, level: int) -> str:
        if isinstance(g, Var):
            return g.name
        if isinstance(g, Top):
            return "T"
        if isinstance(g, Bot):
            return "F"
        if isinstance(g, Not):
            return "~" + go(g.sub, 3)
        if isinstance(g, And):
            s = f"{go(g.left, 2)} & {go(g.right, 3)}"
            lvl = 2
        elif isinstance(g, Or):
            s = f"{go(g.left, 1)} | {go(g.right, 2)}"
            lvl = 1
        else:
            s = f"{go(g.left, 1)} -> {go(g.right, 0)}"
            lvl = 0
        return f"({s})" if lvl < level else s

    return go(f, 0)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def eval_formula(f: Formula, a: BrouwerAlgebra, valuation: dict[str, int]) -> int:
    """Plain recursive evaluation (the slow path; also the independent
    re-check used on reported countermodels), in the algebra's operations:
    on the up-set masks of an ``UpSetAlgebra``, which builds no table."""
    ops = a.operations

    def go(g):
        if isinstance(g, Var):
            if g.name not in valuation:
                raise InputError(f"unbound variable {g.name!r}")
            return ops.value(a.check_element(valuation[g.name]))
        if isinstance(g, Top):
            return ops.bottom
        if isinstance(g, Bot):
            return ops.top
        if isinstance(g, Not):
            return ops.imp(go(g.sub), ops.top)
        if isinstance(g, And):
            return ops.join(go(g.left), go(g.right))
        if isinstance(g, Or):
            return ops.meet(go(g.left), go(g.right))
        return ops.imp(go(g.left), go(g.right))

    return int(ops.element(go(f)))


_OPS = {And: kernels.OP_JOIN, Or: kernels.OP_MEET, Imp: kernels.OP_IMP}


def compile_formula(f: Formula, var_order: list[str]):
    """The node list of f for the kernels and its postfix length: one
    (op, x, y) triple per distinct subterm of f, equal subterms merged even
    where f does not share them, every operand before its readers and the
    root last.  A variable's x is its position in var_order, a constant's x
    is 0 for the bottom (T) and 1 for the top (F), and ~g is g -> F.  The
    postfix length counts the leaves and operators of f as a tree."""
    slot = {v: i for i, v in enumerate(var_order)}
    index: dict[tuple[int, int, int], int] = {}  # node -> its position, in order
    sizes: list[int] = []  # postfix length by node
    seen: dict[int, int] = {}  # id of a subformula of f -> its node
    false = Bot()  # the top that negation reads

    def go(g) -> int:
        i = seen.get(id(g))
        if i is None:
            if isinstance(g, Var):
                key = (kernels.OP_VAR, slot[g.name], 0)
            elif isinstance(g, Not):
                key = (kernels.OP_IMP, go(g.sub), go(false))
            elif isinstance(g, (Top, Bot)):
                key = (kernels.OP_CONST, int(isinstance(g, Bot)), 0)
            else:
                key = (_OPS[type(g)], go(g.left), go(g.right))
            i = seen[id(g)] = index.setdefault(key, len(index))
            if i == len(sizes):
                sizes.append(1 if key[0] <= kernels.OP_CONST else sizes[key[1]] + sizes[key[2]] + 1)
        return i

    go(f)
    return tuple(index), sizes[-1]


# ---------------------------------------------------------------------------
# validity
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ValidityReport:
    formula: Formula
    algebra: BrouwerAlgebra
    valid: bool | None            # None = unknown (sampling found nothing)
    countermodel: dict[str, int] | None
    value_reached: int | None
    valuations_checked: int
    mode: str                     # "exhaustive" or "sampling"

    def to_dict(self) -> dict:
        cm = None
        if self.countermodel is not None:
            cm = {
                "assignment": {v: int(i) for v, i in self.countermodel.items()},
                "labels": {v: self.algebra.labels[i]
                           for v, i in self.countermodel.items()},
                "value": int(self.value_reached),
                "value_label": self.algebra.labels[self.value_reached],
            }
        return {
            "formula": render(self.formula),
            "algebra": self.algebra.provenance,
            "valid": self.valid,
            "countermodel": cm,
            "valuations_checked": self.valuations_checked,
            "mode": self.mode,
        }


def is_valid(f: Formula, a: BrouwerAlgebra, budget: int | None = None,
             sample_seed: int | None = None, workers: int = 1) -> ValidityReport:
    """Exhaustive scan of all |carrier|^|vars| valuations, in canonical
    (mixed-radix, variables sorted by name) order; the countermodel
    returned is always the least one.  If the step count exceeds the
    budget, a seeded sampling mode must be requested explicitly and can
    only answer invalid-or-unknown; a negative seed is an input error.
    Either mode refuses more than 2**63 - 1 valuations.
    Both compute in ``a.operations``, on the up-set masks of an
    ``UpSetAlgebra``, so neither builds its tables.
    The scan is single-threaded: ``workers`` must be 1, the value the benchmark
    harness passes, and the keyword goes once the harness stops passing it.
    """
    if workers != 1:
        raise InputError(f"workers must be 1 (the scan is single-threaded), got {workers!r}")
    if sample_seed is not None and sample_seed < 0:
        raise InputError(f"the sampling seed must be at least 0, got {sample_seed}")
    var_order = variables(f)
    k = len(var_order)
    m = a.size
    total = m ** k
    if total > np.iinfo(np.int64).max:
        raise ResourceLimitError(f"{m}^{k} valuations do not fit in int64 indices")
    nodes, length = compile_formula(f, var_order)
    steps = total * length
    budget = evaluation_budget() if budget is None else _check_budget(budget)
    if steps > budget and sample_seed is None:
        raise ResourceLimitError(
            f"exhaustive check needs {total} valuations (~{steps} steps) "
            f"> budget {budget}; pass a sampling seed for sampling mode")
    ops = a.operations

    if steps > budget:
        count = max(1, budget // length)
        rng = np.random.default_rng(sample_seed)
        best = None
        done = 0
        while done < count:
            block = min(count - done, 1 << 15)
            idxs = rng.integers(0, total, size=block, dtype=np.int64)
            vals = ops.value(kernels.valuation_digits(idxs, k, m))
            res = kernels.evaluate(nodes, vals.T, ops.join, ops.meet, ops.imp, ops.bottom, ops.top)
            bad = np.flatnonzero(np.broadcast_to(res != ops.bottom, idxs.shape))
            if bad.size:
                cand = int(idxs[bad].min())
                best = cand if best is None else min(best, cand)
            done += block
        if best is None:
            return ValidityReport(f, a, None, None, None, count, "sampling")
        return _refuted(f, a, var_order, best, count, "sampling")

    # Only a scan with a leading variable (more than _BLOCK valuations) skips
    # blocks by the automorphisms, so only such a scan reads (and lifts) them.
    auts = a.automorphisms if total > kernels._BLOCK else None
    first = kernels.first_fail(nodes, k, m, ops.join, ops.meet, ops.imp, ops.bottom, ops.top,
                               0, total, auts, ops.values)
    if first < 0:
        return ValidityReport(f, a, True, None, None, total, "exhaustive")
    return _refuted(f, a, var_order, first, first + 1, "exhaustive")


def _refuted(f, a, var_order, idx, checked, mode) -> ValidityReport:
    """The report of a countermodel: valuation index idx, decoded as the scan
    numbers valuations."""
    digits = kernels.valuation_digits(np.array([idx], dtype=np.int64), len(var_order), a.size)
    cm = dict(zip(var_order, digits[0].tolist()))
    return ValidityReport(f, a, False, cm, eval_formula(f, a, cm), checked, mode)


# ---------------------------------------------------------------------------
# the named axioms
# ---------------------------------------------------------------------------

AXIOM_TEXT = {
    "kp": "(~p -> q | r) -> (~p -> q) | (~p -> r)",
    "sc_paper": "((~~p -> p) -> (~p | p)) -> (~~p | p)",
    "sc_standard": "((~~p -> p) -> (p | ~p)) -> (~p | ~~p)",
    "jan": "~p | ~~p",
    "lin": "(p -> q) | (q -> p)",
    "lem": "p | ~p",
}


def axiom(name: str) -> Formula:
    if name not in AXIOM_TEXT:
        raise InputError(
            f"unknown axiom {name!r}; catalogue: {', '.join(sorted(AXIOM_TEXT))}")
    return parse(AXIOM_TEXT[name])


# ---------------------------------------------------------------------------
# membership in the finite-problems hierarchy
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LevelReport:
    levels: tuple[tuple[int, ValidityReport], ...]
    in_all_levels: bool

    def to_dict(self):
        return {
            "levels": [{"n": n, **r.to_dict()} for n, r in self.levels],
            "in_all_levels": self.in_all_levels,
        }


def lm_member(f: Formula, max_level: int, budget: int | None = None) -> LevelReport:
    """Validity of f in bn(1)..bn(max_level); membership up to that level."""
    if max_level < 1:
        raise InputError("level must be >= 1")
    if max_level > BN_CAP:
        raise ResourceLimitError(f"level cap is {BN_CAP}")
    rows = []
    ok = True
    for n in range(1, max_level + 1):
        rep = is_valid(f, bn(n), budget=budget)
        rows.append((n, rep))
        ok &= bool(rep.valid)
    return LevelReport(tuple(rows), ok)


# ---------------------------------------------------------------------------
# countermodel search over all small posets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SearchResult:
    found: bool
    poset: Poset | None
    algebra: BrouwerAlgebra | None
    report: ValidityReport | None
    max_size: int
    note: str


def countermodel_search(f: Formula, max_size: int,
                        budget: int | None = None) -> SearchResult:
    """Scan algebras of all posets with 1..max_size elements in canonical
    order; first countermodel wins.  Absence within the bound is NOT a
    validity proof."""
    check_enumeration_bound(max_size)
    for n in range(1, max_size + 1):
        for p in enumerate_posets(n):
            a = from_poset(p)
            rep = is_valid(f, a, budget=budget)
            if rep.valid is False:
                return SearchResult(True, p, a, rep, max_size, "countermodel found")
    return SearchResult(
        False, None, None, None, max_size,
        f"no countermodel within poset size {max_size}; "
        "this does not prove validity in the full logic")


# ---------------------------------------------------------------------------
# derived formula families
# ---------------------------------------------------------------------------

def antichain_formula(k: int) -> Formula:
    """Pairwise-comparability disjunction over x1..xk; valid exactly in
    algebras whose order has no k-antichain, provided the bottom is
    meet-irreducible.  k=2 is the linearity axiom."""
    if not 2 <= k <= 6:
        raise InputError("antichain_formula needs 2 <= k <= 6")
    names = [f"x{i}" for i in range(1, k + 1)]
    out: Formula | None = None
    for i in range(k):
        for j in range(i + 1, k):
            pair = Or(Imp(Var(names[i]), Var(names[j])),
                      Imp(Var(names[j]), Var(names[i])))
            out = pair if out is None else Or(out, pair)
    return out


# ---------------------------------------------------------------------------
# the KP class
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class KpClassReport:
    positive: tuple[str, ...]         # algebras where every negation is meet-irreducible
    negative: tuple[str, ...]
    positive_kp_failures: tuple[str, ...]
    negative_kp_valid: tuple[str, ...]
    negative_kp_invalid: tuple[str, ...]
    ok: bool


def kp_class_check(max_size: int, budget: int | None = None) -> KpClassReport:
    """Partition all algebras of posets up to max_size elements by the
    every-negation-meet-irreducible predicate and report where KP fails on
    the positive class.  It fails nowhere up to size 6, and on one algebra
    of size-7 posets, B(P7.1924).  KP on the negative class is only reported."""
    check_enumeration_bound(max_size)
    kp = axiom("kp")
    pos, negl, fails, nkv, nki = [], [], [], [], []
    for n in range(1, max_size + 1):
        for p in enumerate_posets(n):
            a = from_poset(p)
            flag, _ = all_negations_meet_irreducible(a)
            name = f"{p.name}:{a.provenance}"
            rep = is_valid(kp, a, budget=budget)
            if flag:
                pos.append(name)
                if not rep.valid:
                    fails.append(name)
            else:
                negl.append(name)
                (nkv if rep.valid else nki).append(name)
    return KpClassReport(tuple(pos), tuple(negl), tuple(fails),
                         tuple(nkv), tuple(nki), not fails)

