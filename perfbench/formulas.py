"""Benchmark-side formula generation and classical truth tables.

Formulas are built as small tuples and rendered to the text syntax that
``medlat.logic.parse`` reads, so the library only ever sees strings:

    ("v", name) | ("T",) | ("F",) | ("~", a) | (op, a, b)   op in & | ->

Nothing here imports medlat: the generators and the classical evaluator
are independent of the code under test.
"""

from __future__ import annotations

import itertools

BINARY = ("&", "|", "->")

# Named axioms, verbatim from the library's catalogue (fixtures refer to them).
AXIOMS = {
    "kp": "(~p -> q | r) -> (~p -> q) | (~p -> r)",
    "sc_paper": "((~~p -> p) -> (~p | p)) -> (~~p | p)",
    "sc_standard": "((~~p -> p) -> (p | ~p)) -> (~p | ~~p)",
    "jan": "~p | ~~p",
    "lin": "(p -> q) | (q -> p)",
    "lem": "p | ~p",
}

# Intuitionistic (IPC) theorem schemas over metavariables A, B, C.  Every
# substitution instance is valid in every Brouwer algebra, so an exhaustive
# check must scan all valuations before answering "valid".
SCHEMAS = (
    ("->", "A", ("->", "B", "A")),
    ("->", ("->", "A", ("->", "B", "C")), ("->", ("->", "A", "B"), ("->", "A", "C"))),
    ("->", ("&", "A", "B"), "A"),
    ("->", "A", ("->", "B", ("&", "A", "B"))),
    ("->", "A", ("|", "A", "B")),
    ("->", ("->", "A", "C"), ("->", ("->", "B", "C"), ("->", ("|", "A", "B"), "C"))),
    ("->", ("~", "A"), ("->", "A", "B")),
    ("->", "A", ("~", ("~", "A"))),
    ("->", ("->", "A", "B"), ("->", ("~", "B"), ("~", "A"))),
    ("->", ("->", ("|", "A", "B"), "C"), ("->", "A", "C")),
    ("->", ("&", "A", ("|", "B", "C")), ("|", ("&", "A", "B"), ("&", "A", "C"))),
)


def var(name: str):
    return ("v", name)


def parse(text: str):
    """Read the library's text syntax (~ > & > | > ->, -> right-associative)."""
    toks = text.replace("->", " > ").replace("(", " ( ").replace(")", " ) ") \
               .replace("~", " ~ ").replace("&", " & ").replace("|", " | ").split()
    pos = 0

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def peek():
        return toks[pos] if pos < len(toks) else None

    def imp():
        left = disj()
        if peek() == ">":
            take()
            return ("->", left, imp())
        return left

    def chain(op, sub):
        out = sub()
        while peek() == op:
            take()
            out = (op, out, sub())
        return out

    def disj():
        return chain("|", conj)

    def conj():
        return chain("&", unary)

    def unary():
        tok = take()
        if tok == "~":
            return ("~", unary())
        if tok == "(":
            out = imp()
            take()
            return out
        return (tok,) if tok in ("T", "F") else var(tok)

    return imp()


def rename(f, mapping: dict):
    if f[0] == "v":
        return var(mapping.get(f[1], f[1]))
    return (f[0],) + tuple(rename(g, mapping) for g in f[1:])


def render(f) -> str:
    tag = f[0]
    if tag == "v":
        return f[1]
    if tag in ("T", "F"):
        return tag
    if tag == "~":
        return "~" + _atom(f[1])
    return f"{_atom(f[1])} {tag} {_atom(f[2])}"


def _atom(f) -> str:
    s = render(f)
    return s if f[0] in ("v", "T", "F", "~") else f"({s})"


def prog_len(f) -> int:
    """Length of the postfix program ``compile_formula`` makes for f."""
    tag = f[0]
    if tag in ("v", "T", "F"):
        return 1
    if tag == "~":
        return prog_len(f[1]) + 2
    return prog_len(f[1]) + prog_len(f[2]) + 1


def variables(f) -> set[str]:
    if f[0] == "v":
        return {f[1]}
    return set().union(*(variables(g) for g in f[1:] if isinstance(g, tuple)))


def substitute(schema, env):
    if isinstance(schema, str):
        return env[schema]
    return (schema[0],) + tuple(substitute(g, env) for g in schema[1:])


def classical(f, val: dict) -> bool:
    tag = f[0]
    if tag == "v":
        return val[f[1]]
    if tag == "T":
        return True
    if tag == "F":
        return False
    if tag == "~":
        return not classical(f[1], val)
    a, b = classical(f[1], val), classical(f[2], val)
    if tag == "&":
        return a and b
    if tag == "|":
        return a or b
    return (not a) or b


def classical_tautology(f) -> bool:
    names = sorted(variables(f))
    return all(classical(f, dict(zip(names, bits)))
               for bits in itertools.product((False, True), repeat=len(names)))


def random_formula(rng, names, binaries: int, neg_p: float = 0.2):
    """A random formula with exactly ``binaries`` binary connectives."""
    if binaries == 0:
        out = var(rng.choice(names))
    else:
        k = rng.randrange(binaries)
        out = (rng.choice(BINARY), random_formula(rng, names, k, neg_p),
               random_formula(rng, names, binaries - 1 - k, neg_p))
    if rng.random() < neg_p:
        out = ("~", out)
    return out


def random_over(rng, names, binaries: int, neg_p: float = 0.2):
    """A random formula that uses every variable in ``names``."""
    while True:
        f = random_formula(rng, names, binaries, neg_p)
        if variables(f) == set(names):
            return f


def random_of_len(rng, names, length: int):
    """A random formula over all of ``names`` with postfix length ``length``
    (odd: every binary connective and every negation adds 2) that is false
    when every variable is false.  The all-top valuation comes first in the
    scan order and, on {bottom, top}, evaluation is classical, so such a
    formula fails at the first valuation and its cost does not depend on
    where its least countermodel lies."""
    top = (length - 1) // 2
    while True:
        f = random_over(rng, names, rng.randint(max(len(names) - 1, top - 3), top))
        if prog_len(f) == length and not classical(f, dict.fromkeys(names, False)):
            return f


def theorem_instance(rng, names, length: int):
    """An IPC schema with random subformulas over ``names`` substituted,
    using every name, with postfix length ``length``."""
    while True:
        schema = rng.choice(SCHEMAS)
        env = {m: random_formula(rng, names, rng.randrange(3), neg_p=0.15)
               for m in "ABC"}
        f = substitute(schema, env)
        if variables(f) == set(names) and prog_len(f) == length:
            return f


def rn_ladder(depth: int, name: str = "p") -> dict:
    """Rieger-Nishimura formulas nf[0..depth] in one variable:
    nf0 = p, nf1 = ~p, nf(2k+2) = nf(2k) | nf(2k+1), nf(2k+3) = nf(2k+2) -> nf(2k)."""
    nf = {0: var(name), 1: ("~", var(name))}
    for k in range(2, depth + 1):
        if k % 2 == 0:
            nf[k] = ("|", nf[k - 2], nf[k - 1])
        else:
            nf[k] = ("->", nf[k - 1], nf[k - 3])
    return nf


def swap_variant(rng, f):
    """f with the operands of some & and | swapped: an equivalent formula,
    so validity and the failing posets do not change."""
    tag = f[0]
    if tag in ("&", "|"):
        a, b = swap_variant(rng, f[1]), swap_variant(rng, f[2])
        return (tag, b, a) if rng.random() < 0.5 else (tag, a, b)
    if tag in ("->", "~"):
        return (tag,) + tuple(swap_variant(rng, g) for g in f[1:])
    return f


def stretch(rng, f, length: int):
    """``f & (g -> g)`` for g of postfix length ``length`` (odd) over f's
    variables.  And is the lattice join and ``g -> g`` the least element, so
    the result takes f's value everywhere; it only costs more to compile and
    evaluate.  g is a balanced tree whose connectives cycle through BINARY,
    so its cost does not depend on the seed, which picks only the leaves."""
    names = sorted(variables(f))
    ops = itertools.cycle(BINARY)

    def tree(binaries):
        if binaries == 0:
            return var(rng.choice(names))
        left = (binaries - 1) // 2
        return (next(ops), tree(left), tree(binaries - 1 - left))

    g = tree((length - 1) // 2)
    return ("&", f, ("->", g, g)) if rng.random() < 0.5 else ("&", ("->", g, g), f)
