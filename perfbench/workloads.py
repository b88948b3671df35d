"""The three workloads: seeded inputs, one cycle of ops, and the oracles.

Each workload hands the runner a *cycle*: a fixed mix of op slots whose
parameters (formulas, specs) are drawn from the seed.  The runner executes
whole cycles, so every run sees the same mix whatever its length.  An op's
``run`` calls the public API through module attributes at call time (so a
traced run sees the wrapped functions).  Its ``check`` is the oracle: it
runs after the timed phase, fills ``props`` with traffic properties of the
answer and returns None, or the reason the answer is wrong.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import formulas as F
import models

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "data" / "axiom_fixtures.jsonl"
POSET_COUNTS = (1, 2, 5, 16, 63, 318, 2045)
BN_SIZES = {1: 2, 2: 5, 3: 19, 4: 167, 5: 7580}
SAMPLED_VALUATIONS = 6
NAMES = ("p", "q", "r")


@dataclass
class Op:
    kind: str                                  # traffic class
    key: tuple                                 # identity, for repeat counting
    size: int                                  # algebra size (0: many algebras)
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    props: dict = field(default_factory=dict)  # traffic properties of the answer


def load_fixtures() -> dict:
    out = {}
    for line in FIXTURES.read_text().splitlines():
        if line.strip():
            e = json.loads(line)
            out[(e["algebra"], e["axiom"])] = e
    return out


def seeded_rng(*parts) -> random.Random:
    return random.Random("|".join(str(p) for p in parts))


def _decode(idx: int, m: int, names: list[str]) -> dict:
    out = {}
    for v in reversed(names):
        out[v] = idx % m
        idx //= m
    return out


def check_validity(lib, ast, rep, a, rng, props, expect=None, fixture=None):
    """Oracle for one ValidityReport, by recursive evaluation
    (``logic.eval_formula``) rather than the scan kernel."""
    lg = lib.logic
    f = lg.parse(F.render(ast))
    names = sorted(F.variables(ast))
    m = a.size
    props["valid"] = rep.valid
    if expect is not None and rep.valid is not expect:
        return f"expected valid={expect}, got {rep.valid}"
    if fixture is not None:
        cm = fixture["countermodel"]
        if rep.valid is not fixture["valid"]:
            return f"fixture says valid={fixture['valid']}, got {rep.valid}"
        if cm is not None and rep.countermodel != cm["assignment"]:
            return f"fixture countermodel {cm['assignment']}, got {rep.countermodel}"
    if rep.valid is False:
        first = rep.valuations_checked - 1
        if rep.countermodel != _decode(first, m, names):
            return "countermodel is not the valuation at the reported index"
        value = lg.eval_formula(f, a, rep.countermodel)
        if value == a.bottom or value != rep.value_reached:
            return f"countermodel evaluates to {value}, reported {rep.value_reached}"
        for idx in rng.sample(range(first), min(first, SAMPLED_VALUATIONS)):
            if lg.eval_formula(f, a, _decode(idx, m, names)) != a.bottom:
                return f"valuation {idx} below the least countermodel {first} also fails"
        return None
    if rep.valid is True:
        if not F.classical_tautology(ast):
            return "answered valid for a formula that is not a classical tautology"
        for _ in range(SAMPLED_VALUATIONS):
            val = {v: rng.randrange(m) for v in names}
            if lg.eval_formula(f, a, val) != a.bottom:
                return f"answered valid but {val} fails"
        return None
    return f"answer is {rep.valid!r}"


class Workload:
    name = ""

    def __init__(self, seed: int, outdir: Path):
        self.seed = seed
        self.outdir = outdir
        self.lib = None

    def cycle(self, index: int) -> list[Op]:
        rng = seeded_rng(self.name, self.seed, "cycle", index)
        ops = self.make_cycle(rng)
        rng.shuffle(ops)
        return ops

    def make_cycle(self, rng) -> list[Op]:
        raise NotImplementedError

    def setup(self, lib) -> None:
        """Fill the library's caches for what the ops touch (timed as set-up)."""
        raise NotImplementedError

    def check_setup(self) -> list[str]:
        return []

    def probes(self) -> dict:
        """Untimed checks reported next to the metrics."""
        return {}


# ---------------------------------------------------------------------------
# levels: is_valid on the bn(n) level algebras
# ---------------------------------------------------------------------------

# (level, variables, kind, ops per cycle).  theorem = IPC instance (full
# scan), random = random formula, axiom = named axiom, fixture = named axiom
# on a fixture algebra (bn:1..3, chain:3), answer compared with the fixture.
LEVEL_SLOTS = (
    (4, 3, "theorem", 2), (4, 3, "axiom", 1), (4, 3, "random", 8),
    (4, 2, "theorem", 12), (4, 2, "axiom", 1), (4, 2, "random", 8),
    (3, 3, "theorem", 8), (3, 3, "random", 6),
    (3, 2, "theorem", 8), (3, 2, "random", 6),
    (5, 1, "theorem", 14), (5, 1, "axiom", 4), (5, 1, "random", 10),
    (0, 0, "fixture", 12),
)
LEVEL_AXIOMS = {1: ("jan", "lem", "sc_paper", "sc_standard"), 2: ("lin",), 3: ("kp",)}
# Postfix lengths, taken in turn by the ops of a slot, so the cost mix of a
# cycle does not depend on the seed.  3 variables on bn(4) is 4.66 M
# valuations, so 21 steps is the most the default budget (1e8) allows.
THEOREM_LENS = {1: (11, 15, 19), 2: (13, 17, 21, 25), 3: (15, 19)}
RANDOM_LENS = {1: (7, 9, 11, 13, 15), 2: (9, 11, 13, 15), 3: (11, 13, 15, 17)}


def resolve_small(lib, spec: str):
    kind, arg = spec.split(":")
    return lib.algebra.bn(int(arg)) if kind == "bn" else lib.algebra.chain_algebra(int(arg))


def _nth(options, j):
    return options[j % len(options)]


class Levels(Workload):
    name = "levels"

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        self.fixtures = load_fixtures()

    def setup(self, lib):
        self.lib = lib
        for n in range(1, 6):
            lib.algebra.bn(n)
        lib.algebra.chain_algebra(3)

    def make_cycle(self, rng):
        return [self._op(rng, n, k, kind, j)
                for n, k, kind, count in LEVEL_SLOTS for j in range(count)]

    def _op(self, rng, n, k, kind, j):
        fixture = None
        spec = f"bn:{n}"
        names = list(NAMES[:k])
        if kind == "fixture":
            spec, axiom = rng.choice(sorted(self.fixtures))
            fixture = self.fixtures[(spec, axiom)]
            ast = F.parse(F.AXIOMS[axiom])
        elif kind == "axiom":
            ast = F.parse(F.AXIOMS[_nth(LEVEL_AXIOMS[k], j)])
        elif kind == "theorem":
            ast = F.theorem_instance(rng, names, _nth(THEOREM_LENS[k], j))
        else:
            ast = F.random_of_len(rng, names, _nth(RANDOM_LENS[k], j))
        text = F.render(ast)
        expect = True if kind == "theorem" else None
        check_rng = seeded_rng(self.seed, text, spec)
        props = {}

        def run():
            lg = self.lib.logic
            return lg.is_valid(lg.parse(text), resolve_small(self.lib, spec), workers=1)

        def check(rep):
            return check_validity(self.lib, ast, rep, resolve_small(self.lib, spec),
                                  check_rng, props, expect=expect, fixture=fixture)

        size = 3 if spec == "chain:3" else BN_SIZES[int(spec.split(":")[1])]
        return Op(f"{spec}.v{k}.{kind}", (text, spec), size, run, check, props)


# ---------------------------------------------------------------------------
# search: countermodel_search up to poset size 7, and kp_class_check(6)
# ---------------------------------------------------------------------------

def _search_families() -> dict:
    """Non-theorems by the size of their smallest countermodel poset.

    nf is the Rieger-Nishimura ladder; ``q | (q -> g)`` with q not in g
    needs one point more than g (a root where q fails below a countermodel
    of g); W needs a root below four maximal points of distinct types.
    """
    nf = F.rn_ladder(12)
    p, q = F.var("p"), F.var("q")

    def lift(g):
        return ("|", q, ("->", q, g))

    def neg(g):
        return ("~", g)

    w = ("|", ("|", neg(("&", p, q)), neg(("&", p, neg(q)))),
         ("|", neg(("&", neg(p), q)), neg(("&", neg(p), neg(q)))))
    ax = {k: F.parse(t) for k, t in F.AXIOMS.items()}
    return {
        2: [ax["lem"], nf[5], lift(p)],
        3: [ax["jan"], ax["lin"], nf[4], nf[7], lift(nf[2])],
        4: [ax["kp"], ax["sc_standard"], nf[6], nf[9], lift(nf[4]),
            F.parse(antichain_text(3))],
        5: [nf[8], w, lift(nf[6])],
        6: [nf[10], lift(nf[8])],
        7: [nf[12], lift(nf[10])],
    }


def antichain_text(k: int) -> str:
    names = NAMES[:k]
    pairs = [f"(({a} -> {b}) | ({b} -> {a}))"
             for i, a in enumerate(names) for b in names[i + 1:]]
    return " | ".join(pairs)


# kind -> ops per cycle.  cmN = non-theorem whose smallest countermodel has
# N elements; theorem = IPC instance in 2 variables (sweeps all 2450 posets).
SEARCH_SLOTS = {"theorem": 2, "kp_class": 1, "cm7": 1, "cm6": 2, "cm5": 42,
                "cm4": 72, "cm3": 84, "cm2": 72}
# Non-theorems of these sizes get ``f & (g -> g)`` with g of the postfix
# length taken in turn from STRETCH (0: f as it is): the same answer at a
# graded cost, so the latencies of a cycle form a continuum rather than one
# narrow band per size, and the percentiles move smoothly with the speed of
# the machine.
STRETCHED = (2, 3, 4, 5)
STRETCH = (0, 15, 31, 47, 63, 95, 127)
SEARCH_MAX = 7
KP_CLASS_MAX = 6
THEOREM_LEN = 23


class Search(Workload):
    name = "search"

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        self.families = _search_families()
        self.counts = None

    def setup(self, lib):
        self.lib = lib
        self.counts = tuple(len(lib.poset.enumerate_posets(n))
                            for n in range(1, SEARCH_MAX + 1))

    def check_setup(self):
        if self.counts != POSET_COUNTS:
            return [f"poset counts {self.counts}, expected {POSET_COUNTS}"]
        return []

    def make_cycle(self, rng):
        ops = []
        for kind, count in SEARCH_SLOTS.items():
            for j in range(count):
                if kind == "kp_class":
                    ops.append(self._kp_op())
                elif kind == "theorem":
                    ops.append(self._search_op(
                        F.theorem_instance(rng, ["p", "q"], THEOREM_LEN), None, kind))
                else:
                    # Family and stretch are taken in turn, so the cost mix
                    # is fixed; the seed picks the renaming, the swaps and g.
                    size = int(kind[2:])
                    family = self.families[size]
                    base = _nth(family, j)
                    names = sorted(F.variables(base))
                    perm = names[:]
                    rng.shuffle(perm)
                    f = F.swap_variant(rng, F.rename(base, dict(zip(names, perm))))
                    if size in STRETCHED and _nth(STRETCH, j):
                        f = F.stretch(rng, f, _nth(STRETCH, j))
                    ops.append(self._search_op(f, size, kind))
        return ops

    def _search_op(self, ast, size, kind):
        text = F.render(ast)
        check_rng = seeded_rng(self.seed, text)
        props = {}

        def run():
            lg = self.lib.logic
            return lg.countermodel_search(lg.parse(text), SEARCH_MAX)

        def check(res):
            props["cm_size"] = res.poset.size if res.found else None
            props["valid"] = not res.found
            if size is None:
                return "theorem instance has a countermodel" if res.found else None
            if not res.found or res.poset.size != size:
                return f"smallest countermodel {props['cm_size']}, expected {size}"
            return check_validity(self.lib, ast, res.report, res.algebra, check_rng,
                                  {}, expect=False)

        return Op(kind, (text,), 0, run, check, props)

    def _kp_op(self):
        props = {}

        def run():
            return self.lib.logic.kp_class_check(KP_CLASS_MAX)

        def check(rep):
            total = sum(POSET_COUNTS[:KP_CLASS_MAX])
            props["positive"] = len(rep.positive)
            if not rep.ok:
                return f"kp fails on {rep.positive_kp_failures[:3]}"
            classified = len(rep.positive) + len(rep.negative)
            if classified != total:
                return f"classified {classified} algebras, expected {total}"
            return None

        return Op("kp_class", ("kp_class",), 0, run, check, props)


# ---------------------------------------------------------------------------
# report: in-process medlat.cli.main(argv) calls
# ---------------------------------------------------------------------------

# kind -> ops per cycle
REPORT_SLOTS = {
    "report.bn4": 1, "check.bn4.v3": 1, "verify.factor": 1,
    "verify.kp": 1, "verify.hom": 1, "export.bn4": 2,
    "report.factor3": 2, "export.factor3": 2, "report.factor4": 1,
    "report.bn": 8, "report.chain": 7, "report.poset": 9, "report.interval": 8,
    "report.ladder": 24,
    "export.small": 12, "check.small": 23, "verify.light": 9,
}
# Poset files: (elements, fewest up-sets, most up-sets), one file each.
POSET_FILES = ((3, 5, 6), (4, 7, 9), (5, 10, 14), (3, 5, 6), (4, 7, 9), (5, 10, 14))
# Larger poset files for report.ladder: (elements, fewest up-sets, most
# up-sets), taken in turn (7-element posets have 36, 38, ... 64, 72, 80, 96
# or 128 up-sets, nothing in between).  Their reports cost from about 4 to
# 80 ms in steps of at most 1.6x, so the latencies of a cycle form a
# continuum and the percentiles move smoothly with the speed of the machine.
POSET_LADDER = ((6, 16, 18), (6, 20, 22), (6, 24, 26), (6, 28, 32), (7, 36, 38),
                (7, 40, 42), (7, 44, 48), (7, 52, 56), (7, 60, 64), (7, 72, 72),
                (7, 80, 80), (7, 96, 96))
CHAINS = tuple(range(2, 9))
# Size bands of generated interval and factor specs, by level.
INTERVAL_BAND = {3: (6, 10), 4: (16, 24)}
FACTOR_BAND = {3: (6, 10), 4: (8, 12)}
MALFORMED = ("bn:x", "interval:bn:2", "factor:bn:3", "chain:", "poset:{missing}")


def run_cli(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lib.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class Report(Workload):
    name = "report"

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        self.fixtures = load_fixtures()
        self.bn_models = {n: models.bn_model(n) for n in range(1, 5)}
        self.posets = self._write_posets()
        self.small_posets = sorted(k for k in self.posets if Path(k).name[0] == "P")
        self.large_posets = [k for k in self.posets if Path(k).name[0] == "L"]
        self._lib_algebras = {}
        self._model_facts = {}

    def _write_posets(self) -> dict:
        """Seeded posets written as files: spec -> (size, le pairs)."""
        rng = seeded_rng(self.name, self.seed, "posets")
        folder = self.outdir / f"posets-{self.seed}"
        folder.mkdir(parents=True, exist_ok=True)
        out = {}
        bands = [(f"P{i}", n, lo, hi) for i, (n, lo, hi) in enumerate(POSET_FILES)]
        bands += [(f"L{i}", n, lo, hi) for i, (n, lo, hi) in enumerate(POSET_LADDER)]
        for name, n, lo, hi in bands:
            while True:
                # The small files keep the default edge probability; the
                # large ones draw it, so that every band is reachable.
                edge = {} if name[0] == "P" else {"p_edge": rng.uniform(0.02, 0.4)}
                pairs = models.random_poset(rng, n, **edge)
                if lo <= models.poset_model(n, pairs).size <= hi:
                    break
            path = folder / f"{name}.json"
            path.write_text(json.dumps({"name": name,
                                        "elements": [f"x{j}" for j in range(n)],
                                        "le": [list(pr) for pr in pairs]}))
            out[f"poset:{path}"] = (n, pairs)
        return out

    def setup(self, lib):
        self.lib = lib
        for n in range(1, 5):
            lib.algebra.bn(n)
            lib.freedist.free_algebra(n)
        for m in CHAINS:
            lib.algebra.chain_algebra(m)
        for n in range(1, 6):
            lib.poset.enumerate_posets(n)

    # -- independent facts about a spec -----------------------------------

    def model(self, spec: str) -> models.UpsetAlgebra:
        kind, rest = spec.split(":", 1)
        if kind == "bn":
            return self.bn_models[int(rest)]
        if kind == "chain":
            return models.chain_model(int(rest))
        if kind == "poset":
            return models.poset_model(*self.posets[spec])
        inner, *idx = rest.split(",")
        base = self.bn_models[int(inner.split(":")[1])]
        if kind == "interval":
            return base.interval(int(idx[0]), int(idx[1]))
        return base.below(int(idx[0]))

    def facts(self, spec: str) -> dict:
        if spec not in self._model_facts:
            m = self.model(spec)
            self._model_facts[spec] = {
                "size": m.size, "width": m.width(), "covers": m.cover_count(),
                "negs": m.negations_meet_irreducible() if m.up is not None else None}
        return self._model_facts[spec]

    def lib_algebra(self, spec: str):
        if spec not in self._lib_algebras:
            self._lib_algebras[spec] = self.lib.cli.resolve_algebra(spec)
        return self._lib_algebras[spec]

    # -- specs ------------------------------------------------------------

    def _interval_spec(self, rng, n):
        m = self.bn_models[n]
        lo_size, hi_size = INTERVAL_BAND[n]
        while True:
            lo, hi = rng.randrange(m.size), rng.randrange(m.size)
            if m.le(lo, hi) and lo_size <= m.interval(lo, hi).size <= hi_size:
                return f"interval:bn:{n},{lo},{hi}"

    def _factor_spec(self, rng, n):
        m = self.bn_models[n]
        lo_size, hi_size = FACTOR_BAND[n]
        while True:
            f = rng.randrange(m.size)
            if lo_size <= m.below(f).size <= hi_size:
                return f"factor:bn:{n},{f}"

    def _small_spec(self, rng, j):
        """Small specs taken in turn: bn:1..3, chains, poset files, intervals."""
        pick, i = j % 4, j // 4
        if pick == 0:
            return f"bn:{_nth((1, 2, 3), i)}"
        if pick == 1:
            return f"chain:{_nth(CHAINS, i)}"
        if pick == 2:
            return _nth(self.small_posets, i)
        return self._interval_spec(rng, 3)

    # -- ops --------------------------------------------------------------

    def make_cycle(self, rng):
        return [self._make(rng, kind, j)
                for kind, count in REPORT_SLOTS.items() for j in range(count)]

    def _make(self, rng, kind, j):
        if kind == "report.bn4":
            return self._report("bn:4", kind)
        if kind == "report.bn":
            return self._report(f"bn:{_nth((1, 2, 3), j)}", kind)
        if kind == "report.chain":
            return self._report(f"chain:{_nth(CHAINS, j)}", kind)
        if kind == "report.poset":
            return self._report(_nth(self.small_posets, j), kind)
        if kind == "report.interval":
            return self._report(self._interval_spec(rng, _nth((3, 4), j)), kind)
        if kind == "report.factor3":
            return self._report(self._factor_spec(rng, 3), kind)
        if kind == "report.factor4":
            return self._report(self._factor_spec(rng, 4), kind)
        if kind == "report.ladder":
            return self._report(_nth(self.large_posets, j), kind)
        if kind == "export.bn4":
            return self._export("bn:4", kind)
        if kind == "export.factor3":
            return self._export(self._factor_spec(rng, 3), kind)
        if kind == "export.small":
            return self._export(self._small_spec(rng, j), kind)
        if kind == "check.bn4.v3":
            return self._check(F.theorem_instance(rng, list(NAMES), 19), "bn:4", True, kind)
        if kind == "check.small":
            spec = self._small_spec(rng, j // 2)
            if j % 2:
                return self._check(F.theorem_instance(rng, ["p", "q"], 17), spec, True, kind)
            ast = F.parse(F.AXIOMS[_nth(("lem", "jan", "lin"), j // 2)])
            return self._check(ast, spec, None, kind)
        if kind == "verify.light":
            return self._verify(_nth(("iso", "arrow", "free"), j), kind)
        return self._verify(kind.split(".")[1], kind)

    def _cli_op(self, kind, argv, size, check):
        props = {}
        return Op(kind, tuple(argv), size, lambda: run_cli(self.lib, argv),
                  lambda res: check(res, props), props)

    def _report(self, spec, kind):
        def check(res, props):
            rc, out, _ = res
            props["exit"] = rc
            if rc != 0:
                return f"report exit {rc}"
            data = json.loads(out)
            facts = self.facts(spec)
            st = data["structure"]
            if st["size"] != facts["size"] or st["max_antichain"] != facts["width"]:
                return f"structure {st}, expected size {facts['size']} width {facts['width']}"
            if facts["negs"] is not None and st["all_negations_meet_irreducible"] != facts["negs"]:
                return "negation meet-irreducibility flag disagrees with the model"
            for row in data["axioms"]:
                why = self._check_axiom_row(spec, row)
                if why:
                    return f"{row['axiom']}: {why}"
            return None

        size = self.facts(spec)["size"]
        return self._cli_op(kind, ["report", "--json", "--algebra", spec], size, check)

    def _check_axiom_row(self, spec, row):
        if "error" in row:
            return row["error"]
        fixture = self.fixtures.get((spec, row["axiom"]))
        if fixture is not None:
            cm = fixture["countermodel"]
            if row["valid"] is not fixture["valid"]:
                return f"fixture says valid={fixture['valid']}"
            if cm is not None and row["countermodel"]["assignment"] != cm["assignment"]:
                return "countermodel differs from the fixture"
            return None
        a = self.lib_algebra(spec)
        lg = self.lib.logic
        f = lg.parse(F.AXIOMS[row["axiom"]])
        if row["valid"] is False:
            cm = row["countermodel"]
            value = lg.eval_formula(f, a, cm["assignment"])
            if value == a.bottom or value != cm["value"]:
                return f"countermodel evaluates to {value}"
        elif row["valid"] is True:
            rng = seeded_rng(self.seed, spec, row["axiom"])
            names = sorted(F.variables(F.parse(F.AXIOMS[row["axiom"]])))
            for _ in range(SAMPLED_VALUATIONS):
                val = {v: rng.randrange(a.size) for v in names}
                if lg.eval_formula(f, a, val) != a.bottom:
                    return f"valid but {val} fails"
        else:
            return f"answer {row['valid']!r}"
        return None

    def _export(self, spec, kind):
        def check(res, props):
            rc, out, _ = res
            props["exit"] = rc
            facts = self.facts(spec)
            nodes = sum(1 for line in out.splitlines() if "[label=" in line)
            edges = sum(1 for line in out.splitlines() if " -> " in line)
            if rc != 0 or nodes != facts["size"] or edges != facts["covers"]:
                return (f"exit {rc}, {nodes} nodes / {edges} edges, expected "
                        f"{facts['size']} / {facts['covers']}")
            return None

        return self._cli_op(kind, ["export", "--dot", "--algebra", spec],
                            self.facts(spec)["size"], check)

    def _check(self, ast, spec, expect, kind):
        """check a formula; expect None = decide the expected code from an
        independent evaluation: invalid iff eval_formula finds a failing
        valuation among all of them (small algebras only)."""
        text = F.render(ast)

        def check(res, props):
            rc, out, _ = res
            props["exit"] = rc
            want = expect
            if want is None:
                want = self._valid_by_eval(ast, spec)
            code = 0 if want else 1
            word = "VALID" if want else "INVALID"
            if rc != code or not out.startswith(word):
                return f"exit {rc}, output {out[:30]!r}; expected {code} {word}"
            return None

        return self._cli_op(kind, ["check", text, "--algebra", spec],
                            self.facts(spec)["size"], check)

    def _valid_by_eval(self, ast, spec):
        a = self.lib_algebra(spec)
        lg = self.lib.logic
        f = lg.parse(F.render(ast))
        names = sorted(F.variables(ast))
        return all(lg.eval_formula(f, a, dict(zip(names, vals))) == a.bottom
                   for vals in itertools.product(range(a.size), repeat=len(names)))

    def _verify(self, suite, kind):
        def check(res, props):
            rc, out, _ = res
            props["exit"] = rc
            if rc != 0 or f"suite {suite}: PASS" not in out:
                return f"verify {suite}: exit {rc}, {out[:60]!r}"
            return None

        return self._cli_op(kind, ["verify", suite], 0, check)

    def probes(self):
        """Malformed specs, outside the timed ops: the contract answer is
        exit 2 with no traceback."""
        missing = str(self.outdir / f"posets-{self.seed}" / "missing.json")
        breaks = []
        for spec in MALFORMED:
            spec = spec.format(missing=missing)
            try:
                rc, _, _ = run_cli(self.lib, ["report", "--json", "--algebra", spec])
            except Exception as e:  # the defect being probed: report it, keep going
                breaks.append(f"{spec}: raised {type(e).__name__}")
                continue
            if rc != 2:
                breaks.append(f"{spec}: exit {rc}")
        return {"malformed_specs": len(MALFORMED), "malformed_contract_breaks": breaks}


WORKLOADS = {w.name: w for w in (Levels, Search, Report)}
