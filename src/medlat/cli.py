"""Command-line front end.

Exit codes are a contract: 0 = valid / suite passed / countermodel found,
1 = invalid / nothing found, 2 = error or unknown.  An error prints nothing
on stdout and an ``error:`` line on stderr; ``check --sample`` that finds no
countermodel prints its UNKNOWN report on stdout and nothing on stderr.
Algebras are addressed by composable selector strings:

    bn:<n> | free:<n> | chain:<m> | poset:<file>
    | interval:<spec>,<a>,<b> | factor:<spec>,<a>

where <a>, <b> are element indices or unique element labels.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

from . import algebra as alg
from . import freedist as fd
from . import logic as lg
from . import poset as ps
from .errors import InputError, MedlatError, ResourceLimitError

EXIT_VALID = 0
EXIT_INVALID = 1
EXIT_ERROR = 2


def resolve_element(a: alg.BrouwerAlgebra, token: str) -> int:
    token = token.strip()
    if token.lstrip("-").isdigit():
        return a.check_element(int(token))
    hits = [i for i, lab in enumerate(a.labels) if lab == token]
    if len(hits) == 1:
        return hits[0]
    if not hits:
        raise InputError(f"no element labelled {token!r} in {a.provenance}")
    raise InputError(f"label {token!r} is ambiguous in {a.provenance}")


def resolve_algebra(spec: str) -> alg.BrouwerAlgebra:
    """The algebra a selector names; a malformed selector or an unreadable
    poset file is an InputError."""
    try:
        return _resolve(spec)
    except (ValueError, OSError) as e:  # ValueError includes JSONDecodeError
        raise InputError(f"bad algebra spec {spec!r}: {e}") from e


def _split_elements(rest: str, count: int) -> list[str]:
    """The inner spec and the count element tokens of rest, cut at its last
    count commas outside braces and brackets: labels such as {{0},{1}} and
    [{}] hold commas, and the inner spec keeps any text."""
    cuts, depth = [len(rest)], 0
    for i in range(len(rest) - 1, -1, -1):
        depth = max(0, depth + (rest[i] in "}]") - (rest[i] in "{["))
        if rest[i] == "," and not depth and len(cuts) <= count:
            cuts.insert(0, i)
    if len(cuts) <= count:
        raise ValueError(f"expected {count} element(s) after the inner spec")
    return [rest[:cuts[0]]] + [rest[i + 1:j] for i, j in zip(cuts, cuts[1:])]


def _resolve(spec: str) -> alg.BrouwerAlgebra:
    spec = spec.strip()
    if ":" not in spec:
        raise InputError(f"bad algebra spec {spec!r}")
    kind, rest = spec.split(":", 1)
    if kind == "bn":
        return alg.bn(int(rest))
    if kind == "free":
        return fd.free_algebra(int(rest))[0]
    if kind == "chain":
        return alg.chain_algebra(int(rest))
    if kind == "poset":
        return alg.from_poset(ps.load_poset(rest))
    if kind == "interval":
        inner, a_tok, b_tok = _split_elements(rest, 2)
        base = _resolve(inner)
        return alg.interval(base, resolve_element(base, a_tok),
                            resolve_element(base, b_tok))
    if kind == "factor":
        inner, a_tok = _split_elements(rest, 1)
        base = _resolve(inner)
        return alg.factor_by_principal_filter(base, resolve_element(base, a_tok)).algebra
    raise InputError(f"unknown algebra kind {kind!r} in spec {spec!r}")


def _print_report(rep: lg.ValidityReport, as_json: bool):
    if as_json:
        print(json.dumps(rep.to_dict(), sort_keys=True))
        return
    status = {True: "VALID", False: "INVALID", None: "UNKNOWN"}[rep.valid]
    print(f"{status}  {lg.render(rep.formula)}  in {rep.algebra.provenance} "
          f"({rep.valuations_checked} valuations, {rep.mode})")
    if rep.countermodel is not None:
        parts = ", ".join(f"{v} -> {rep.algebra.labels[i]} (#{i})"
                          for v, i in sorted(rep.countermodel.items()))
        print(f"  countermodel: {parts}; value {rep.algebra.labels[rep.value_reached]}")


def cmd_check(args) -> int:
    a = resolve_algebra(args.algebra)
    f = lg.parse(args.formula)
    rep = lg.is_valid(f, a, budget=args.budget, sample_seed=args.sample)
    _print_report(rep, args.json)
    if rep.valid is True:
        return EXIT_VALID
    if rep.valid is False:
        return EXIT_INVALID
    return EXIT_ERROR


def cmd_countermodel(args) -> int:
    f = lg.parse(args.formula)
    res = lg.countermodel_search(f, args.max_size, budget=args.budget)
    if not res.found:
        if args.json:
            print(json.dumps({"found": False, "note": res.note}))
        else:
            print(f"none within bound {args.max_size}")
        return EXIT_INVALID
    if args.dot:
        print(ps.hasse_dot(res.poset.leq, res.poset.labels, "poset"))
    elif args.json:
        print(json.dumps({
            "found": True,
            "poset": ps.poset_to_dict(res.poset),
            "report": res.report.to_dict(),
        }, sort_keys=True))
    else:
        print(f"poset {res.poset.name} ({res.poset.size} elements)")
        print(json.dumps(ps.poset_to_dict(res.poset)))
        _print_report(res.report, False)
    return EXIT_VALID


def cmd_report(args) -> int:
    a = resolve_algebra(args.algebra)
    rows = []
    for name in sorted(lg.AXIOM_TEXT):
        try:
            rep = lg.is_valid(lg.axiom(name), a, budget=args.budget)
            rows.append({"axiom": name, **rep.to_dict()})
        except MedlatError as e:
            rows.append({"axiom": name, "error": str(e)})
    flag, witness = alg.all_negations_meet_irreducible(a)
    structure = {
        "size": a.size,
        # Every algebra a spec names is built by the library, so its order
        # is a partial order and is not checked again.
        "max_antichain": ps._dilworth_width(a.leq),
        "all_negations_meet_irreducible": flag,
    }
    if args.json:
        print(json.dumps({"algebra": a.provenance, "axioms": rows,
                          "structure": structure}, sort_keys=True))
    else:
        print(f"algebra {a.provenance}: size {a.size}, "
              f"max antichain {structure['max_antichain']}, "
              f"negations meet-irreducible: {flag}")
        for row in rows:
            if "error" in row:
                print(f"  {row['axiom']:<12} ERROR  {row['error']}")
            else:
                status = {True: "valid", False: "invalid", None: "unknown"}[row["valid"]]
                extra = ""
                if row["countermodel"]:
                    extra = "  countermodel " + json.dumps(row["countermodel"]["labels"])
                print(f"  {row['axiom']:<12} {status}{extra}")
    return EXIT_VALID


def cmd_enumerate(args) -> int:
    if args.posets is not None:
        items = ps.enumerate_posets(args.posets)
        if args.json:
            print(json.dumps([ps.poset_to_dict(p) for p in items]))
        else:
            print(f"{len(items)} posets with {args.posets} elements")
            for p in items:
                print(f"  {p.name}: le={ps.poset_to_dict(p)['le']}")
    else:
        # B(P) has one element per up-set of P; no table is built
        out = [(p.name, len(ps.open_sets(p))) for p in ps.enumerate_posets(args.algebras)]
        if args.json:
            print(json.dumps([{"poset": n, "algebra_size": s} for n, s in out]))
        else:
            print(f"{len(out)} algebras from posets with {args.algebras} elements")
            for n, s in out:
                print(f"  B({n}): {s} elements")
    return EXIT_VALID


def cmd_export(args) -> int:
    budget = None if args.dot else lg.evaluation_budget()
    a = resolve_algebra(args.algebra)
    entries = 4 * a.size ** 2  # the four tables, as JSON lists
    if budget is not None and entries > budget:
        raise ResourceLimitError(f"JSON export of {a.provenance} holds {entries} table entries, "
                                 f"more than the step budget {budget}")
    text = alg.algebra_to_dot(a) if args.dot else alg.algebra_to_json(a)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise InputError(f"cannot write {args.output}: {e.strerror}") from e
    else:
        print(text)
    return EXIT_VALID


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _suite_iso() -> list[str]:
    # iso_to_bn compares the sizes, then checks that the transport map is a
    # bijection preserving every operation, imp included, and raises if not.
    fails = []
    for n in range(1, fd.ISO_CAP + 1):
        try:
            fd.iso_to_bn(n)
        except MedlatError as e:
            fails.append(f"iso failure at n={n}: {e}")
    return fails


def _suite_factor(max_poset: int = 4) -> list[str]:
    fails = []
    for n in range(1, max_poset + 1):
        for p in ps.enumerate_posets(n):
            a = alg.from_poset(p)
            for x in range(a.size):
                res = alg.factor_by_principal_filter(a, x)
                if res.degenerate:
                    if x != a.bottom:
                        fails.append(f"{a.provenance}: unexpected collapse at {x}")
                    continue
                if res.iso_to_initial_segment is None:
                    fails.append(f"{a.provenance}: factor at {x} not iso to [0,{x}]")
    return fails


def _suite_hom() -> list[str]:
    fails = []
    a = alg.bn(3)
    for shift in range(a.size):
        for c in range(a.size):
            res = alg.plus_a_map(a, shift, c)
            ok, viol = alg.is_b_homomorphism(res.map)
            if not ok:
                fails.append(f"plus_a_map({shift},{c}) violates {viol[0]} at {viol[1]}")
            if not res.surjective:
                fails.append(f"plus_a_map({shift},{c}) not surjective")
    return fails


def _suite_kp(max_poset: int = 5) -> list[str]:
    rep = lg.kp_class_check(max_poset)
    if rep.ok:
        return []
    return [f"KP fails on meet-irreducible-negation algebra {x}"
            for x in rep.positive_kp_failures]


def _suite_free() -> list[str]:
    fails = []
    for n in range(2, 5):
        if not fd.generator_negations(n)["ok"]:
            fails.append(f"generator negation identities fail at n={n}")
        for i in range(n):
            rest = [j for j in range(n) if j != i]
            for size in range(len(rest) + 1):
                for comb in itertools.combinations(rest, size):
                    if fd.independence_check(n, i, comb):
                        fails.append(f"independence fails: a{i} <= join{comb} (n={n})")
    return fails


SUITES = {
    "iso": _suite_iso,
    "arrow": _suite_iso,  # the transported imp is checked with the other operations
    "factor": _suite_factor,
    "hom": _suite_hom,
    "kp": _suite_kp,
    "free": _suite_free,
}


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    bounded = ("factor", "kp")  # the suites that read --max-poset
    if args.max_poset is not None:  # refused before any suite runs
        if args.suite not in bounded + ("all",):
            raise InputError(f"verify {args.suite} does not read --max-poset")
        ps.check_enumeration_bound(args.max_poset)
        # The KP class property holds for every poset with at most 6
        # elements and is false at 7, so a larger bound would report a true
        # counterexample as a failure of the library.
        if "kp" in names and args.max_poset > 6:
            raise InputError(f"verify kp stops at poset size 6: at 7, B(P7.1924) has only "
                             f"meet-irreducible negations and refutes KP (got {args.max_poset})")
    failures, ran = [], {}  # each distinct suite runs once, and prints under each name
    for name in names:
        fn = SUITES[name]
        if fn not in ran:
            ran[fn] = fn(args.max_poset) if name in bounded and args.max_poset is not None else fn()
        fails = ran[fn]
        print(f"suite {name}: {'PASS' if not fails else 'FAIL'}"
              f" ({len(fails)} failures)")
        for msg in fails:
            print(f"  {msg}")
        failures.extend(fails)
    return EXIT_VALID if not failures else EXIT_INVALID


# ---------------------------------------------------------------------------

def _budget(text: str) -> int:
    """A --budget value: an integer of at least 1, else an InputError, which
    main reports like every other input error."""
    try:
        budget = int(text)
    except ValueError:
        raise InputError(f"--budget must be an integer, got {text!r}") from None
    return lg._check_budget(budget, "--budget")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it, so
    repeated ``main`` calls in one process parse with one tree.  Sharing it
    is safe: argparse looks up sys.stdout, sys.stderr and the terminal width
    when it prints, and ``main`` reads MEDLAT_BUDGET on each call."""
    ap = argparse.ArgumentParser(prog="medlat", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    # Each subcommand gets only the flags it reads.
    def budget(sp):
        sp.add_argument("--budget", type=_budget, default=None,
                        help="evaluation step budget (default: MEDLAT_BUDGET or 1e8)")

    def as_json(sp):
        sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("check", help="decide a formula in one algebra")
    sp.add_argument("formula")
    sp.add_argument("--algebra", required=True)
    sp.add_argument("--sample", type=int, default=None, metavar="SEED",
                    help="sampling mode seed (required when over budget)")
    budget(sp)
    as_json(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("countermodel", help="search small posets for a countermodel")
    sp.add_argument("formula")
    sp.add_argument("--max-size", type=int, default=5, dest="max_size")
    sp.add_argument("--dot", action="store_true")
    budget(sp)
    as_json(sp)
    sp.set_defaults(fn=cmd_countermodel)

    sp = sub.add_parser("report", help="axiom catalogue table for one algebra")
    sp.add_argument("--algebra", required=True)
    budget(sp)
    as_json(sp)
    sp.set_defaults(fn=cmd_report)

    sp = sub.add_parser("verify", help="batch property suites")
    sp.add_argument("suite", choices=sorted(SUITES) + ["all"])
    sp.add_argument("--max-poset", type=int, default=None, dest="max_poset")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("enumerate", help="posets or algebras up to isomorphism")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--posets", type=int, default=None)
    g.add_argument("--algebras", type=int, default=None)
    as_json(sp)
    sp.set_defaults(fn=cmd_enumerate)

    sp = sub.add_parser("export", help="dump one algebra as JSON or DOT")
    sp.add_argument("--algebra", required=True)
    g = sp.add_mutually_exclusive_group()
    g.add_argument("--dot", action="store_true")
    g.add_argument("--json", action="store_true")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(fn=cmd_export)

    return ap


def _drop_stdout() -> None:
    """Point standard output at os.devnull, so that the interpreter's flush
    at exit of what its buffer still holds cannot fail again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if "budget" in vars(args) and args.budget is None:
            args.budget = lg.evaluation_budget()  # a bad MEDLAT_BUDGET is refused before any work
        code = args.fn(args)
        sys.stdout.flush()  # a write error surfaces here, not at exit
        return code
    except MedlatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as e:  # standard output failed: a closed pipe or a full disk
        _drop_stdout()
        print(f"error: cannot write the output: {e.strerror}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
