import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import medlat
from conftest import child_env
from medlat.cli import build_parser, main, resolve_algebra, resolve_element
from medlat.errors import InputError
from medlat.algebra import bn, chain_algebra, from_poset
from medlat.poset import enumerate_posets, max_antichain_size, powerset_poset


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# ---------------------------------------------------------------------------
# selectors
# ---------------------------------------------------------------------------

def test_resolve_algebra_specs():
    assert resolve_algebra("bn:2").size == 5
    assert resolve_algebra("chain:4").size == 4
    assert resolve_algebra("free:2").size == 5
    assert resolve_algebra("interval:bn:2,4,3").size == 2
    assert resolve_algebra("interval:bn:2,3,0").size == 4
    assert resolve_algebra("factor:bn:2,3").size == 2
    assert resolve_algebra("factor:bn:2,1").size == 3


@pytest.mark.parametrize("by_label, by_index", [
    ("factor:bn:2,{{0},{1}}", "factor:bn:2,3"),
    ("interval:bn:2,{{0},{1}},{}", "interval:bn:2,3,0"),
    ("factor:factor:bn:3,5,[{{0},{1},{0,1}}]", "factor:factor:bn:3,5,4"),
    ("interval:factor:bn:3,5, [{{0},{1}}],[{}] ", "interval:factor:bn:3,5,3,0"),
])
def test_element_labels_with_commas_name_their_element(capsys, by_label, by_index):
    """Element tokens are split off the right end of a spec at commas
    outside braces and brackets, so a bn label of two sets and a factor
    label [...] name their element as its index does."""
    assert run(capsys, "report", "--algebra", by_label, "--json") == \
        run(capsys, "report", "--algebra", by_index, "--json")
    rc, out, err = run(capsys, "report", "--algebra", by_index, "--json")
    assert rc == 0 and err == "" and out


def test_resolve_algebra_poset_file(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "name": "vee", "elements": ["r", "a", "b"], "le": [[0, 1], [0, 2]],
    }))
    assert resolve_algebra(f"poset:{path}").size == 5


def test_resolve_algebra_errors():
    for bad in ("nonsense", "bn", "wat:3"):
        with pytest.raises(InputError):
            resolve_algebra(bad)


def test_resolve_element_by_label_and_index():
    a = bn(2)
    assert resolve_element(a, "1") == 1
    assert resolve_element(a, "{{0}}") == 1
    with pytest.raises(InputError, match="no element"):
        resolve_element(a, "{zzz}")
    with pytest.raises(InputError):
        resolve_element(a, "99")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_exit_codes(capsys):
    rc, out, _ = run(capsys, "check", "p -> p", "--algebra", "bn:2")
    assert rc == 0 and out.startswith("VALID")
    rc, out, _ = run(capsys, "check", "p | ~p", "--algebra", "bn:2")
    assert rc == 1 and out.startswith("INVALID")
    assert "countermodel" in out


def test_check_parse_error_exits_2(capsys):
    rc, _, err = run(capsys, "check", "p &", "--algebra", "bn:2")
    assert rc == 2 and "error:" in err


@pytest.mark.parametrize("text", ["~" * 2000 + "p", "(" * 400 + "p" + ")" * 400,
                                  " & ".join(["p"] * 3000)],
                         ids=["2000-negations", "400-parentheses", "3000-conjuncts"])
def test_deep_formula_text_exits_2(capsys, text):
    rc, out, err = run(capsys, "check", text, "--algebra", "bn:1")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


_TOKENS = st.sampled_from(["p", "q", "T", "F", "~", "&", "|", "->", "(", ")", " "])


@settings(max_examples=200, deadline=None)
@given(runs=st.lists(st.tuples(_TOKENS, st.integers(1, 3000)), max_size=20))
def test_any_formula_text_keeps_the_exit_code_contract(runs):
    # Runs of one token reach deep nesting.  After "--" a text that starts
    # with "->" is the formula, not a flag.
    text = "".join(token * count for token, count in runs)
    assert main(["check", "--algebra", "bn:1", "--", text]) in (0, 1, 2)


def test_check_unknown_algebra_exits_2(capsys):
    rc, _, err = run(capsys, "check", "p", "--algebra", "zz:1")
    assert rc == 2 and "error:" in err


@pytest.mark.parametrize("spec", ["bn:x", "interval:bn:2", "factor:bn:3", "chain:",
                                  "poset:{tmp}/missing.json"])
def test_report_malformed_spec_exits_2(capsys, tmp_path, spec):
    rc, out, err = run(capsys, "report", "--algebra", spec.format(tmp=tmp_path))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("le", ["[5]", "[[0.5, 1]]", "[[true, 1]]", "[[0, 1, 1]]", "5"])
def test_malformed_le_entries_exit_2(capsys, tmp_path, le):
    path = tmp_path / "p.json"
    path.write_text('{"elements": ["a", "b"], "le": %s}' % le)
    rc, out, err = run(capsys, "check", "p", "--algebra", f"poset:{path}")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_a_deeply_nested_poset_file_exits_2(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    rc, out, err = run(capsys, "report", "--algebra", f"poset:{path}")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_check_budget_error_exits_2(capsys):
    rc, _, err = run(capsys, "check", "(~p -> q | r) -> (~p -> q) | (~p -> r)",
                     "--algebra", "bn:3", "--budget", "10")
    assert rc == 2 and "sampling" in err


@pytest.mark.parametrize("argv,budget_env", [
    (["check", " | ".join("abcdefghijklmno"), "--algebra", "bn:3",
      "--sample", "1", "--budget", "1000"], None),  # 19^15 valuations > int64
    (["check", "p", "--algebra", "bn:2"], "inf"),
])
def test_unrepresentable_numbers_exit_2(capsys, monkeypatch, argv, budget_env):
    if budget_env is not None:
        monkeypatch.setenv("MEDLAT_BUDGET", budget_env)
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("check", "p", "--algebra", "bn:2", "--budget", "0"),
    ("check", "p | ~p", "--algebra", "bn:2", "--budget", "0", "--sample", "3"),
    ("check", "p", "--algebra", "bn:1", "--budget", "-1", "--sample", "1"),
    ("countermodel", "p | ~p", "--budget", "0"),
    ("report", "--algebra", "bn:2", "--budget", "0"),
])
def test_a_budget_below_one_is_an_input_error(capsys, argv):
    """--budget 0 neither samples one valuation nor prints a report of
    refused rows: it is one error line and exit 2, like --max-size 0."""
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: --budget must be at least 1") and err.count("\n") == 1


@pytest.mark.parametrize("spec,message", [
    ("free:0", "error: free_algebra needs n >= 1, got n=0"),
    ("free:-1", "error: free_algebra needs n >= 1, got n=-1"),
    ("free:5", "error: free_algebra cap is 4, got n=5"),
])
def test_free_generator_counts_outside_1_to_4_exit_2(capsys, spec, message):
    """A count below 1 is an input error and one above the cap a limit;
    both are one error line and exit 2."""
    rc, out, err = run(capsys, "check", "p", "--algebra", spec)
    assert (rc, out) == (2, "")
    assert err == message + "\n"


@pytest.mark.parametrize("argv", [
    ("check", "p", "--algebra", "bn:1", "--sample", "1"),
    ("countermodel", "p | ~p"),
    ("report", "--algebra", "bn:2"),
    ("export", "--algebra", "bn:2"),
])
def test_a_budget_env_below_one_is_an_input_error(capsys, monkeypatch, argv):
    monkeypatch.setenv("MEDLAT_BUDGET", "-1")
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: MEDLAT_BUDGET must be at least 1") and err.count("\n") == 1


def test_a_budget_that_is_no_integer_is_an_input_error(capsys):
    rc, out, err = run(capsys, "check", "p", "--algebra", "bn:2", "--budget", "1e3")
    assert (rc, out) == (2, "") and err == "error: --budget must be an integer, got '1e3'\n"


def factor_argv(command):
    """check or report on factor:bn:4,<top> (167 classes), with its exit code."""
    formula = ["p | ~p"] if command == "check" else []
    argv = [command, *formula, "--algebra", f"factor:bn:4,{bn(4).top}", "--json"]
    return argv, (1 if command == "check" else 0)


@pytest.mark.parametrize("command", ["check", "report"])
def test_factor_answers_whatever_the_budget(capsys, command):
    """The step budget bounds valuation scans only: a small --budget does
    not refuse factor:bn:4,<top>."""
    argv, expected = factor_argv(command)
    rc, out, err = run(capsys, *argv, "--budget", "1000")
    assert (rc, err) == (expected, "") and json.loads(out)


def test_factor_answers_under_a_small_budget_env(capsys, monkeypatch):
    """A small MEDLAT_BUDGET does not refuse factor:bn:4,<top> either."""
    monkeypatch.setenv("MEDLAT_BUDGET", "1e6")
    for command in ("check", "report"):
        argv, expected = factor_argv(command)
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (expected, "") and json.loads(out)


def test_check_sampling_mode(capsys):
    """A countermodel found by sampling exits 1.  Finding none is "unknown":
    exit 2, with the report on stdout and nothing on stderr."""
    for formula, budget, seed, want_rc, want_valid in (("p | ~p", "50", "7", 1, False),
                                                       ("p -> p", "10", "1", 2, None)):
        rc, out, err = run(capsys, "check", formula, "--algebra", "bn:3",
                           "--budget", budget, "--sample", seed, "--json")
        d = json.loads(out)
        assert (rc, d["valid"], d["mode"], err) == (want_rc, want_valid, "sampling", "")


def test_a_negative_sampling_seed_exits_2(capsys):
    rc, out, err = run(capsys, "check", "p | ~p", "--algebra", "bn:3", "--budget", "50",
                       "--sample", "-1")
    assert (rc, out) == (2, "")
    assert err == "error: the sampling seed must be at least 0, got -1\n"


def test_check_json_byte_stable(capsys):
    rc1, out1, _ = run(capsys, "check", "~p | ~~p", "--algebra", "bn:2", "--json")
    rc2, out2, _ = run(capsys, "check", "~p | ~~p", "--algebra", "bn:2", "--json")
    assert (rc1, out1) == (rc2, out2) == (1, out1)
    d = json.loads(out1)
    assert d["valid"] is False
    assert d["countermodel"]["assignment"] == {"p": 1}


# (MEDLAT_BUDGET, argv) pairs; "p -> p" in bn:2 needs more than one step
_REUSED = [
    (None, ["check", "p | ~p", "--algebra", "bn:2"]),
    ("1", ["check", "p -> p", "--algebra", "bn:2"]),
    (None, ["countermodel", "~p | ~~p", "--max-size", "4", "--json"]),
    (None, ["report", "--algebra", "bn:3", "--json"]),
    ("1e6", ["check", "p -> p", "--algebra", "bn:2"]),
    (None, ["export", "--dot", "--algebra", "bn:2"]),
    (None, ["verify", "factor", "--max-poset", "3"]),
    (None, ["enumerate", "--posets", "3"]),
    (None, ["check", "p", "--algebra", "bn:2", "--parallel", "2"]),
    (None, ["--help"]),
]


def _outcome(capsys, monkeypatch, budget_env, argv):
    if budget_env is None:
        monkeypatch.delenv("MEDLAT_BUDGET", raising=False)
    else:
        monkeypatch.setenv("MEDLAT_BUDGET", budget_env)
    try:
        rc = main(list(argv))
    except SystemExit as e:  # argparse exits on --help and on a bad flag
        rc = ("exit", e.code)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_the_parser_is_built_once_and_reused(capsys, monkeypatch):
    """main parses with one parser per process; each argv gives the same
    stdout, stderr and exit code whatever ran before it, and MEDLAT_BUDGET
    is read on every call."""
    assert build_parser() is build_parser()
    first = [_outcome(capsys, monkeypatch, *case) for case in _REUSED]
    assert [rc for rc, _, _ in first] == [1, 2, 0, 0, 0, 0, 0, 0, ("exit", 2), ("exit", 0)]
    assert first[8][2].startswith("usage: medlat") and first[9][1].startswith("usage: medlat")
    for order in (range(len(_REUSED)), reversed(range(len(_REUSED)))):
        for i in order:
            assert _outcome(capsys, monkeypatch, *_REUSED[i]) == first[i], _REUSED[i]


# The exit code and the sha256 of stdout of each argv, one per kind of
# algebra spec (up-set, free, interval, factor and their nesting) and per
# command that prints one, as first recorded before the table algebras and
# the up-set algebras became two classes.  The last five, recorded before
# free:n and the factors became up-set algebras, print countermodels and
# labels in an order's own numbering, tables built on first read, and an
# interval of free:n.
_PINNED = {
    ("report", "--algebra", "bn:4", "--json"):
        (0, "07f0a2a2a8a0f6992d1758b8f20c1ab89d362e2d2e64d6c73bacdf88502493ad"),
    ("report", "--algebra", "chain:5", "--json"):
        (0, "2bb3bf39eaf8d9629925f3d323efa9ec3fb87f034ea084e502ff31a0f7da8313"),
    ("report", "--algebra", "free:3", "--json"):
        (0, "2403696482c64ede7856d20c8af19b73c44a3c6bfa786050450aa75b2d4a0012"),
    ("report", "--algebra", "interval:bn:3,10,0", "--json"):
        (0, "acd0c6cf938c50dbd20b07fc8ce2e15c3f0d048dd94d518321cd6cd0ca912477"),
    ("report", "--algebra", "interval:free:3,0,7", "--json"):
        (0, "4af3f1861c0093b5b330d18de393caaaee75a8cd21e3504d03dc4f627a3047d9"),
    ("report", "--algebra", "factor:bn:4,40", "--json"):
        (0, "d638139728e7f444d71b8d41beac3de8f5a16f6f736ee5a1a811059a4233848b"),
    ("report", "--algebra", "factor:free:3,7", "--json"):
        (0, "6b52ce2490ae1ee6599419e4e236d6cd8e8d0a23e454fa734a1d07ec18d684b0"),
    ("report", "--algebra", "interval:factor:bn:3,5,3,0", "--json"):
        (0, "9fcd75c6977742a2727ae3973bfabe58184e672d031a0e5e6ae858c7398fe4b9"),
    ("report", "--algebra", "factor:factor:bn:3,5,2", "--json"):
        (0, "3fd4e796d7de86432a19930931a95194082039c27d5aa3f7c37f3aa801ef1ad1"),
    ("export", "--dot", "--algebra", "bn:3"):
        (0, "d6a39c43ea03c49dfe8e7876f57f738c95d64d5657963fde84fd1c8e1b8e0d26"),
    ("export", "--dot", "--algebra", "interval:factor:bn:3,5,3,0"):
        (0, "3f24e11197ff6129a3193f909902736be4944c2f5b5766f05fd1ae99dc7dc398"),
    ("export", "--algebra", "factor:bn:3,5"):
        (0, "75affac990244ceab3c7f7534128997db11432f701262e290f29272074d18c68"),
    ("check", "(p -> q) | (q -> p)", "--algebra", "bn:4"):
        (1, "f0ab754eb904ed6f125a0d015b1869740710a1bd6c64b9d6ca2b6bf567ff329c"),
    ("check", "p | ~p", "--algebra", "factor:free:3,7"):
        (1, "503095b9fd1c457fd51832ed14edf99bf984cde2d42c21019485badb210d950b"),
    ("check", "~p | ~~p", "--algebra", "bn:5"):
        (1, "54d75bd21a88fb63f7e04c941729381fde8591892d59520c5dca89ddb8e86878"),
    ("countermodel", "~p | ~~p", "--max-size", "4", "--json"):
        (0, "1359a40165afa1eefdc8efaba29c23ddcdb9ab2bfd35d2d8955286e20ec311be"),
    ("verify", "factor"):
        (0, "24128880465c956e511f85d489fbd230b1d61f2094354ee9cf54af049a8d0b46"),
    ("check", "(p -> q) | (q -> p)", "--algebra", "factor:bn:4,40"):
        (1, "6e4c87a64d880ee9f96bfac6ca6865a66d71dba3798ebfb59a02ff23671f7064"),
    ("report", "--json", "--algebra", "free:4"):
        (0, "6a18388ebcb7f45bec75a720047de7459a1e80c1a5d312f69a3e7b6c89840241"),
    ("export", "--algebra", "free:2"):
        (0, "5c5c02315ed27c793f25e229e9215d94b921ddf07b86aec748213656bc2872d1"),
    ("export", "--dot", "--algebra", "factor:bn:4,0"):
        (0, "ed5a487e8d0715755764aa4648997979d63f98b3bcf49271ac2e8a07b16d19b8"),
    ("check", "~p | ~~p", "--algebra", "interval:free:4,0,100"):
        (1, "3bd0de261fc7aac40c580a0e7ac8d0438a1c51135bbada721c136489c818968d"),
    # refusal rows print the step count of each axiom's postfix length
    ("report", "--algebra", "bn:4", "--budget", "1000"):
        (0, "e6d542dca7ced251a512f03ed345cd8ebc71e08dd621cecda1eed76de2f79e21"),
    ("report", "--json", "--algebra", "chain:5"):
        (0, "2bb3bf39eaf8d9629925f3d323efa9ec3fb87f034ea084e502ff31a0f7da8313"),
    ("report", "--algebra", "interval:bn:3,10,0"):
        (0, "fe8539b0e1c43a0eb44be9f1b4ce76867c9b6e009158061062e26b2f15802af5"),
}


def test_cli_answers_are_pinned_byte_for_byte(capsys, monkeypatch):
    """Each pinned argv exits with its code and prints, byte for byte, the
    stdout it printed when pinned."""
    monkeypatch.delenv("MEDLAT_BUDGET", raising=False)
    got = {}
    for argv in _PINNED:
        rc = main(list(argv))
        got[argv] = (rc, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert {argv: got[argv] for argv in _PINNED if got[argv] != _PINNED[argv]} == {}


# ---------------------------------------------------------------------------
# countermodel
# ---------------------------------------------------------------------------

def test_countermodel_found(capsys):
    rc, out, _ = run(capsys, "countermodel", "p | ~p", "--max-size", "3", "--json")
    assert rc == 0
    d = json.loads(out)
    assert d["found"] and len(d["poset"]["elements"]) == 2


def test_countermodel_none(capsys):
    rc, out, _ = run(capsys, "countermodel", "p -> p", "--max-size", "4")
    assert rc == 1 and "none" in out


def test_countermodel_dot(capsys):
    rc, out, _ = run(capsys, "countermodel", "~p | ~~p", "--max-size", "4", "--dot")
    assert rc == 0 and out.startswith("digraph")


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_bn1_all_valid(capsys):
    rc, out, _ = run(capsys, "report", "--algebra", "bn:1", "--json")
    assert rc == 0
    d = json.loads(out)
    # the displayed sc variant is the lone classical failure (see fixtures)
    byname = {row["axiom"]: row["valid"] for row in d["axioms"]}
    assert byname.pop("sc_paper") is False
    assert all(v is True for v in byname.values())
    assert d["structure"]["size"] == 2


def test_report_bn2(capsys):
    rc, out, _ = run(capsys, "report", "--algebra", "bn:2", "--json")
    d = json.loads(out)
    byname = {row["axiom"]: row["valid"] for row in d["axioms"]}
    assert byname == {"jan": False, "kp": True, "lem": False, "lin": False,
                      "sc_paper": False, "sc_standard": True}
    assert d["structure"]["max_antichain"] == 2
    assert d["structure"]["all_negations_meet_irreducible"] is True


def test_report_does_not_check_the_order_again(capsys, monkeypatch):
    """Every algebra a spec names is built by the library, so report reads
    its width without re-checking the order."""
    width = max_antichain_size(bn(3).leq)

    def no_check(leq):
        raise AssertionError("the order was checked")

    monkeypatch.setattr("medlat.poset.check_partial_order", no_check)
    rc, out, _ = run(capsys, "report", "--algebra", "bn:3", "--json")
    assert rc == 0 and json.loads(out)["structure"]["max_antichain"] == width


def test_report_factor_by_top_matches_base(capsys):
    _, out_base, _ = run(capsys, "report", "--algebra", "bn:2", "--json")
    _, out_fact, _ = run(capsys, "report", "--algebra", "factor:bn:2,0", "--json")
    base = json.loads(out_base)
    fact = json.loads(out_fact)
    assert ([(r["axiom"], r["valid"]) for r in base["axioms"]]
            == [(r["axiom"], r["valid"]) for r in fact["axioms"]])
    assert base["structure"]["size"] == fact["structure"]["size"]


# ---------------------------------------------------------------------------
# enumerate / export / verify
# ---------------------------------------------------------------------------

def test_enumerate_posets(capsys):
    rc, out, _ = run(capsys, "enumerate", "--posets", "4", "--json")
    assert rc == 0 and len(json.loads(out)) == 16


def test_enumerate_algebras(capsys):
    rc, out, _ = run(capsys, "enumerate", "--algebras", "3", "--json")
    rows = json.loads(out)
    assert rc == 0 and len(rows) == 5
    assert {r["algebra_size"] for r in rows} == {4, 5, 6, 8}


def test_export_json(capsys):
    rc, out, _ = run(capsys, "export", "--algebra", "chain:3", "--json")
    d = json.loads(out)
    assert rc == 0 and d["size"] == 3 and d["provenance"] == "chain:3"


def test_export_dot_to_file(tmp_path, capsys):
    path = tmp_path / "out.dot"
    rc, out, _ = run(capsys, "export", "--algebra", "bn:2", "--dot",
                     "-o", str(path))
    assert rc == 0 and out == ""
    text = path.read_text()
    assert text.startswith("digraph") and "shape=box" in text


def test_verify_suites(capsys):
    rc, out, _ = run(capsys, "verify", "iso")
    assert rc == 0 and "PASS" in out
    rc, out, _ = run(capsys, "verify", "free")
    assert rc == 0
    rc, out, _ = run(capsys, "verify", "factor", "--max-poset", "3")
    assert rc == 0


def test_verify_iso_reports_a_size_mismatch(capsys, monkeypatch):
    """iso_to_bn compares the sizes itself; the suite reports its refusal."""
    monkeypatch.setattr("medlat.freedist.bn", lambda n: chain_algebra(n + 2))
    rc, out, _ = run(capsys, "verify", "iso")
    assert rc == 1 and "iso failure at n=1: size mismatch" in out


def test_verify_arrow_reports_a_broken_implication(capsys, monkeypatch):
    """One wrong implication entry in the target is a failure of the suite
    (exit 1), not an error.  The target is a fresh bn(n) whose imp table,
    built on first read, is replaced by a tampered copy."""
    def tampered(n):
        a = from_poset(powerset_poset(n), provenance=f"bn:{n}")
        imp = a.imp.copy()
        imp[0, 0] = (imp[0, 0] + 1) % a.size
        vars(a)["imp"] = imp
        return a

    monkeypatch.setattr("medlat.freedist.bn", tampered)
    rc, out, err = run(capsys, "verify", "arrow")
    assert rc == 1 and "suite arrow: FAIL" in out and not err
    assert "fails to preserve imp" in out


def test_verify_all_runs_the_iso_suite_once(capsys, monkeypatch):
    """arrow is another name for the iso suite: ``verify all`` runs it once
    (iso_to_bn on n = 1..4) and prints its line under both names."""
    calls = []
    real = medlat.freedist.iso_to_bn

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr("medlat.freedist.iso_to_bn", counting)
    rc, out, _ = run(capsys, "verify", "all", "--max-poset", "4")
    assert rc == 0 and calls == [1, 2, 3, 4]
    assert "suite arrow: PASS (0 failures)" in out and "suite iso: PASS (0 failures)" in out


def test_verify_kp_stops_at_poset_size_6(capsys):
    """At 7 elements B(P7.1924) has only meet-irreducible negations and
    refutes KP, so the suite refuses the bound instead of failing."""
    rc, out, _ = run(capsys, "verify", "kp", "--max-poset", "6")
    assert rc == 0 and "PASS" in out
    rc, out, err = run(capsys, "verify", "kp", "--max-poset", "7")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "B(P7.1924)" in err


def test_verify_all_refuses_kp_bound_before_any_suite(capsys):
    """The kp rule is checked with the other bounds, so ``verify all`` exits
    2 before the other suites run and print a line."""
    rc, out, err = run(capsys, "verify", "all", "--max-poset", "7")
    assert rc == 2 and "suite" not in out
    assert err.startswith("error:") and "B(P7.1924)" in err


@pytest.mark.parametrize("argv", [
    ("verify", "kp", "--max-poset", "-1"),
    ("verify", "kp", "--max-poset", "0"),
    ("verify", "factor", "--max-poset", "0"),
    ("verify", "all", "--max-poset", "0"),
    ("countermodel", "p", "--max-size", "0"),
])
def test_bounds_below_1_exit_2(capsys, argv):
    """A bound that admits no poset is an input error, before any suite
    runs: not a PASS that checked nothing, not the default bound, and not
    "none within bound"."""
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("suite", ["hom", "iso", "arrow", "free"])
def test_max_poset_on_a_suite_that_ignores_it_exits_2(capsys, suite):
    """Only factor, kp and all read --max-poset; any other suite refuses it
    before running, instead of checking the bound and then ignoring it."""
    rc, out, err = run(capsys, "verify", suite, "--max-poset", "3")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "--max-poset" in err


@pytest.mark.parametrize("budget,expected", [("1000", 2), ("1443", 2), ("1444", 0)])
def test_json_export_is_refused_above_the_budget(capsys, monkeypatch, budget, expected):
    """bn:3 has 19 elements, so its JSON holds 4 x 19^2 = 1444 table entries;
    a smaller MEDLAT_BUDGET refuses the export before the lists are built."""
    monkeypatch.setenv("MEDLAT_BUDGET", budget)
    rc, out, err = run(capsys, "export", "--algebra", "bn:3", "--json")
    assert rc == expected
    if expected == 2:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
    else:
        assert json.loads(out)["size"] == 19


def test_json_export_of_bn5_is_refused_before_any_table(capsys, monkeypatch):
    """bn:5's size comes from its up-set masks, so its 4 x 7580^2 entries are
    refused under the default budget before its tables are built."""
    fresh = medlat.algebra.bn.__wrapped__(5)  # not the cached bn(5), whose tables other tests read
    monkeypatch.setattr("medlat.algebra.bn", lambda n: fresh)
    monkeypatch.delenv("MEDLAT_BUDGET", raising=False)
    rc, out, err = run(capsys, "export", "--algebra", "bn:5")
    assert rc == 2 and out == "" and "229825600 table entries" in err
    assert not {"leq", "join", "meet", "imp"} & vars(fresh).keys()


@pytest.mark.parametrize("argv", [
    ("countermodel", "p", "--parallel", "2"),
    ("verify", "iso", "--parallel", "2"),
    ("enumerate", "--posets", "2", "--parallel", "2"),
    ("verify", "iso", "--budget", "10"),
    ("enumerate", "--posets", "2", "--budget", "10"),
    ("verify", "iso", "--json"),
    ("check", "p", "--algebra", "bn:2", "--parallel", "2"),
    ("report", "--algebra", "bn:2", "--parallel", "2"),
])
def test_flags_a_subcommand_ignores_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_flags_in_use_still_work(capsys):
    rc, out, _ = run(capsys, "countermodel", "p | ~p", "--max-size", "2",
                     "--budget", "1000", "--json")
    assert rc == 0 and json.loads(out)["found"] is True
    rc, _, err = run(capsys, "countermodel", "p | ~p", "--budget", "1")
    assert rc == 2 and "budget" in err
    rc, out, _ = run(capsys, "report", "--algebra", "bn:2", "--budget", "1000", "--json")
    assert rc == 0 and len(json.loads(out)["axioms"]) == 6
    rc, out, _ = run(capsys, "check", "p | ~p", "--algebra", "bn:2", "--budget", "100",
                     "--json")
    assert rc == 1 and json.loads(out)["valid"] is False
    rc, out, _ = run(capsys, "enumerate", "--algebras", "2", "--json")
    assert rc == 0 and len(json.loads(out)) == 2
    for n in range(1, 5):
        rc, out, _ = run(capsys, "enumerate", "--algebras", str(n), "--json")
        sizes = {row["poset"]: row["algebra_size"] for row in json.loads(out)}
        assert rc == 0 and sizes == {p.name: from_poset(p).size for p in enumerate_posets(n)}


# ---------------------------------------------------------------------------
# resource limits
# ---------------------------------------------------------------------------

def _write_poset_files(tmp):
    """chain30.json, chain65.json and antichain16.json in tmp."""
    for name, n, le in (("chain30", 30, True), ("chain65", 65, True),
                        ("antichain16", 16, False)):
        (tmp / f"{name}.json").write_text(json.dumps({
            "name": name, "elements": [str(i) for i in range(n)],
            "le": [[i, j] for i in range(n) for j in range(i + 1, n)] if le else [],
        }))


def _assert_output_error(returncode: int, stderr: str) -> None:
    """Exit 2 with one ``error:`` line: no traceback, and no "Exception
    ignored" line from the interpreter's flush of standard output at exit."""
    assert returncode == 2, stderr
    assert stderr.startswith("error:") and stderr.count("\n") == 1, stderr


# The child prints its peak RSS in KiB.  VmHWM starts afresh at exec, unlike
# ru_maxrss, which a child inherits from a large parent such as this one.
_CHILD = """
import sys
from medlat.cli import main
rc = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
sys.exit(rc)
"""


# chain:66 is a 65-element chain poset; antichain16 has 65,536 up-sets
@pytest.mark.parametrize("spec", ["chain:100000", "chain:66", "poset:{tmp}/antichain16.json",
                                  "poset:{tmp}/chain65.json"])
@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_oversized_specs_are_refused_before_allocating(tmp_path, spec):
    _write_poset_files(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, "report", "--algebra", spec.format(tmp=tmp_path)],
        capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert int(proc.stdout) < 200 * 1024  # peak RSS below 200 MB


# chain:m has m elements; chain:31 and chain30.json are the same 30-element chain poset
@pytest.mark.parametrize("spec,size", [("chain:30", 30), ("chain:31", 31),
                                       ("poset:{tmp}/chain30.json", 31)])
def test_long_chains_with_few_up_sets_work(capsys, tmp_path, spec, size):
    _write_poset_files(tmp_path)
    rc, out, _ = run(capsys, "report", "--algebra", spec.format(tmp=tmp_path), "--json")
    assert rc == 0 and json.loads(out)["structure"]["size"] == size


# Selectors from the grammar in the cli docstring, with out-of-range and huge
# integers and junk tokens.  bn:5 takes seconds to build and is left out, and
# so are quotients of bn:4 and free:4, which take seconds each.
_JUNK = st.sampled_from(["", "x", "-", "--1", "1.5", "0x10", "1e3", "\u0663", "\u00b2",
                        "9" * 5000])
_NUM = st.one_of(st.integers(-2, 3), st.integers(6, 10 ** 30)).map(str) | _JUNK
_CHAIN = st.one_of(st.integers(-2, 12), st.integers(64, 67),
                   st.integers(10 ** 5, 10 ** 30)).map(str) | _JUNK
_ELEM = (st.one_of(st.integers(-2, 40), st.integers(10 ** 18, 10 ** 30)).map(str)
         | st.sampled_from(["{}", "{0}", "{{0}}", "[{}]"]) | _JUNK)
_SMALL = st.one_of(
    st.builds("bn:{}".format, _NUM),
    st.builds("free:{}".format, _NUM),
    st.builds("chain:{}".format, _CHAIN),
    st.sampled_from(["poset:", "poset:/", "poset:/nonexistent/p.json", "zz:1", "bn", "",
                     ":", "interval:", "factor:", "interval:,,", "factor:,"]),
)
_SPECS = st.one_of(
    st.sampled_from(["bn:4", "free:4", "chain:65"]),
    st.recursive(_SMALL, lambda inner: st.one_of(
        st.builds("interval:{},{},{}".format, inner, _ELEM, _ELEM),
        st.builds("factor:{},{}".format, inner, _ELEM)), max_leaves=3),
)


@settings(max_examples=150, deadline=None)
@given(spec=_SPECS)
def test_any_selector_keeps_the_exit_code_contract(spec):
    # main() must return an exit code; an escaping exception is a traceback
    assert main(["check", "p | ~p", "--algebra", spec]) in (0, 1, 2)


# Output errors in a child process, where the interpreter flushes standard
# output at exit.

def test_a_reader_that_stops_early_gets_exit_2():
    """``medlat enumerate --posets 7 | head -1``: the listing (about 200 kB)
    outgrows the pipe, so the child is still writing when the pipe closes."""
    proc = subprocess.Popen([sys.executable, "-m", "medlat.cli", "enumerate", "--posets", "7"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=child_env())
    assert proc.stdout.readline() == "2045 posets with 7 elements\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    _assert_output_error(proc.wait(timeout=60), stderr)


def test_an_unwritable_output_file_gets_exit_2(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "medlat.cli", "export", "--algebra", "bn:2",
                           "-o", str(tmp_path / "missing" / "x.json")],
                          capture_output=True, text=True, env=child_env(), timeout=60)
    _assert_output_error(proc.returncode, proc.stderr)
    assert proc.stdout == ""


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_a_full_disk_gets_exit_2():
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "medlat.cli", "countermodel", "p",
                               "--max-size", "7", "--json"],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              env=child_env(), timeout=60)
    _assert_output_error(proc.returncode, proc.stderr)
