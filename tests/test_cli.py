import json

import pytest

from medlat.cli import main, resolve_algebra, resolve_element
from medlat.errors import InputError
from medlat.algebra import bn


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


def test_check_unknown_algebra_exits_2(capsys):
    rc, _, err = run(capsys, "check", "p", "--algebra", "zz:1")
    assert rc == 2 and "error:" in err


@pytest.mark.parametrize("spec", ["bn:x", "interval:bn:2", "factor:bn:3", "chain:",
                                  "poset:{tmp}/missing.json"])
def test_report_malformed_spec_exits_2(capsys, tmp_path, spec):
    rc, out, err = run(capsys, "report", "--algebra", spec.format(tmp=tmp_path))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_check_budget_error_exits_2(capsys):
    rc, _, err = run(capsys, "check", "(~p -> q | r) -> (~p -> q) | (~p -> r)",
                     "--algebra", "bn:3", "--budget", "10")
    assert rc == 2 and "sampling" in err


def test_check_sampling_mode(capsys):
    rc, out, _ = run(capsys, "check", "p | ~p", "--algebra", "bn:3",
                     "--budget", "50", "--sample", "7", "--json")
    assert rc == 1
    d = json.loads(out)
    assert d["mode"] == "sampling" and d["valid"] is False


def test_check_json_byte_stable(capsys):
    rc1, out1, _ = run(capsys, "check", "~p | ~~p", "--algebra", "bn:2", "--json")
    rc2, out2, _ = run(capsys, "check", "~p | ~~p", "--algebra", "bn:2", "--json")
    assert (rc1, out1) == (rc2, out2) == (1, out1)
    d = json.loads(out1)
    assert d["valid"] is False
    assert d["countermodel"]["assignment"] == {"p": 1}


def test_check_parallel_matches_serial(capsys):
    _, out1, _ = run(capsys, "check", "(p -> q) | (q -> p)",
                     "--algebra", "bn:2", "--json")
    _, out4, _ = run(capsys, "check", "(p -> q) | (q -> p)",
                     "--algebra", "bn:2", "--json", "--parallel", "4")
    assert out1 == out4


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
