import json
from pathlib import Path

import jsonschema
import pytest

from subrings import cli
from subrings.cli import main

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--n", "3", "--e", "3", "--p", "2")
    assert code == 0
    assert json.loads(out) == {"n": 3, "e": 3, "p": 2, "f": 6}


def test_count_alpha(capsys):
    code, out, _ = run(capsys, "count", "--alpha", "2,1", "--p", "3")
    assert code == 0
    assert json.loads(out)["g_alpha"] == 3


def test_count_irreducible(capsys):
    code, out, _ = run(capsys, "count", "--n", "4", "--e", "4", "--p", "3", "--irreducible")
    assert code == 0
    assert json.loads(out)["g"] == 13


def test_bounds_json_keys(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "6", "--e", "20")
    assert code == 0
    payload = json.loads(out)
    assert payload["h"] == 16 and payload["b"] == 12
    assert payload["cap"] == pytest.approx((3 - 2 * 2**0.5) * 5 * 20)


def test_bounds_csv(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "6", "--e", "20", "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split(",")[:4] == ["n", "e", "h", "b"]
    assert row.split(",")[:4] == ["6", "20", "16", "12"]


def test_table1_exit_and_ok(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_table1_csv_schema(capsys):
    code, out, _ = run(capsys, "table1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,e,h_computed,b_computed,h_printed,b_printed,h_match,b_match"
    assert len(lines) == 11
    assert "6,30,24,24,30,30,0,0" in lines


def test_zeta_coeff(capsys):
    code, out, _ = run(capsys, "zeta-coeff", "--n", "3", "--e", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"][3]["coefficients"] == [4, 1]


def test_closure_match_exit_zero(capsys):
    code, out, _ = run(capsys, "closure", "--alpha", "2,2", "--p", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert payload["count"] == 5


def test_closure_with_substitution(capsys):
    code, out, _ = run(
        capsys, "closure", "--alpha", "3,2,1,1", "--p", "2", "--substitute", "1.2.1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert len(payload["conditions"]) == 3


def test_closure_refuses_a_repeated_slot(capsys):
    code, out, err = run(
        capsys, "closure", "--alpha", "2,2,1", "--p", "3", "--substitute", "1.2.1,1.2.0"
    )
    assert code == 1 and out == ""
    assert "slot (1,2)" in err


def test_audit_sandwich(capsys):
    code, out, _ = run(capsys, "audit-sandwich", "--n", "3", "--m", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["violations"] == 0


def test_interp_ok_and_mismatch(capsys):
    code, out, _ = run(
        capsys, "interp", "--n", "4", "--e", "5", "--primes", "2,3,5,7",
        "--degree-cap", "2", "--irreducible",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["polynomial"]["coefficients"] == [1, 1, 7]

    code, out, _ = run(
        capsys, "interp", "--n", "4", "--e", "5", "--primes", "2,3,5,7",
        "--degree-cap", "1", "--irreducible",
    )
    assert code == 2
    assert json.loads(out)["mismatch"]["reason"] == "degree_exceeds_cap"


def test_usage_errors_exit_one(capsys):
    code, _, err = run(capsys, "count", "--p", "2")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "count", "--alpha", "0,1", "--p", "2")
    assert code == 1
    code, _, err = run(capsys, "closure", "--alpha", "2,2", "--p", "5", "--substitute", "zz")
    assert code == 1
    # p must be prime: these gave a traceback or a silent wrong count
    for argv in (
        ("count", "--n", "3", "--e", "3", "--p", "0"),
        ("count", "--n", "3", "--e", "3", "--p", "4"),
        ("count", "--n", "3", "--e", "3", "--p", "1"),
        ("count", "--n", "3", "--e", "3", "--p", "-2"),
        ("count", "--alpha", "2,1", "--p", "9"),
        ("closure", "--alpha", "2,2", "--p", "0"),
        ("interp", "--n", "2", "--e", "4", "--primes", "2,4,6", "--degree-cap", "0"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.splitlines()[-1].startswith("error: argument --p"), argv
        assert "not a prime" in err, argv
    # negative exponents, degree caps and budgets, and a zero rank: these
    # exited 0, 2 or 0, or leaked an itertools message
    for argv, message in (
        (("count", "--n", "2", "--e", "-3", "--p", "2", "--irreducible"), "e >= 0"),
        (("interp", "--n", "3", "--e", "-2", "--primes", "2,3,5", "--degree-cap", "0",
          "--irreducible"), "e >= 0"),
        (("interp", "--n", "3", "--e", "2", "--primes", "2,3,5", "--degree-cap", "-1"),
         "interpolate_count requires degree_cap >= 0, got degree_cap=-1"),
        (("count", "--n", "3", "--e", "3", "--p", "2", "--node-budget", "-5"),
         "argument --node-budget: not a nonnegative integer: '-5'"),
        (("audit-sandwich", "--n", "0", "--m", "2"), "requires n >= 1"),
        # --alpha counts one diagonal, which these flags cannot describe
        (("count", "--alpha", "2,1", "--n", "5", "--e", "9", "--p", "2"),
         "--alpha takes no --n, --e or --irreducible"),
        (("count", "--alpha", "2,1", "--irreducible", "--p", "2"),
         "--alpha takes no --n, --e or --irreducible"),
        (("count", "--alpha", "2,1", "--e", "3", "--p", "2"),
         "--alpha takes no --n, --e or --irreducible"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.splitlines()[-1].startswith("error: "), argv
        assert message in err, argv


def test_bad_flag_exits_one(capsys):
    code, _, _ = run(capsys, "count", "--n", "notanumber", "--e", "1", "--p", "2")
    assert code == 1


def test_resource_limit_exit_three(capsys):
    code, _, err = run(
        capsys, "count", "--n", "4", "--e", "6", "--p", "3", "--node-budget", "10"
    )
    assert code == 3
    assert "node budget" in err


def test_node_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("SUBRINGS_NODE_BUDGET", "10")
    code, _, err = run(capsys, "count", "--n", "4", "--e", "6", "--p", "3")
    assert code == 3
    # explicit flag wins over the environment
    code, out, _ = run(
        capsys, "count", "--n", "4", "--e", "6", "--p", "3",
        "--node-budget", "1000000",
    )
    assert code == 0
    assert json.loads(out)["f"] == 266
    for bad in ("banana", "-5"):
        monkeypatch.setenv("SUBRINGS_NODE_BUDGET", bad)
        code, out, err = run(capsys, "count", "--n", "2", "--e", "1", "--p", "2")
        assert code == 1 and out == ""
        assert err.startswith("error: SUBRINGS_NODE_BUDGET")
    # a zero budget is valid: it stops at the first node
    monkeypatch.setenv("SUBRINGS_NODE_BUDGET", "0")
    code, _, err = run(capsys, "count", "--n", "4", "--e", "6", "--p", "3")
    assert code == 3 and "1 nodes > budget 0" in err


def test_csv_rejected_for_nontabular(capsys):
    code, _, err = run(capsys, "count", "--n", "2", "--e", "1", "--p", "2", "--format", "csv")
    assert code == 1


def test_text_format(capsys):
    code, out, _ = run(capsys, "count", "--n", "3", "--e", "1", "--p", "5", "--format", "text")
    assert code == 0
    assert json.loads(out)["f"] == 3  # text mode is an indented dump


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "count", "--n", "2", "--e", "3", "--p", "5", "--output", str(target)
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["f"] == 1


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    # used to end in a FileNotFoundError traceback
    target = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, "bounds", "--n", "3", "--e", "2", "--output", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "No such file or directory" in err
    assert not target.exists()


def test_byte_determinism(capsys):
    _, out1, _ = run(capsys, "closure", "--alpha", "3,2,1,1", "--p", "3")
    _, out2, _ = run(capsys, "closure", "--alpha", "3,2,1,1", "--p", "3")
    assert out1 == out2
    _, t1, _ = run(capsys, "table1")
    _, t2, _ = run(capsys, "table1")
    assert t1 == t2


@pytest.mark.parametrize(
    "row", cli._CHECKS, ids=[f"{module}.{operation}" for module, operation, _ in cli._CHECKS]
)
def test_verify_row(row):
    failing = [r for r in cli._verify_records(row, None) if not r["ok"]]
    assert not failing, "\n".join(
        f"{r['name']} {r['inputs']}: expected {r['expected']}, actual {r['actual']}"
        for r in failing
    )


def test_verify_reports_a_failing_check(capsys, monkeypatch):
    false_row = ("counting", "count_subrings", lambda budget: [
        ("deliberately_false", {"n": 2, "e": 1, "p": 2}, 2, cli.count_subrings(2, 1, 2, budget)),
    ])
    monkeypatch.setattr(cli, "_CHECKS", cli._CHECKS + (false_row,))
    code, out, _ = run(capsys, "verify")
    assert code == 2
    payload = json.loads(out)
    assert (payload["checks"], payload["failures"], payload["ok"]) == (329, 1, False)
    assert payload["failing"] == [{
        "name": "deliberately_false",
        "module": "counting",
        "operation": "count_subrings",
        "inputs": {"n": 2, "e": 1, "p": 2},
        "expected": "2",
        "actual": "1",
        "ok": False,
    }]
    jsonschema.validate(payload, json.loads((SCHEMAS / "verify.json").read_text()))


def test_outputs_validate_against_schemas(capsys):
    def check(schema_name, *argv):
        _, out, _ = run(capsys, *argv)
        schema = json.loads((SCHEMAS / schema_name).read_text())
        poly_schema = json.loads((SCHEMAS / "polynomial.json").read_text())
        if schema.get("properties", {}).get("polynomial", {}).get("$ref"):
            schema["properties"]["polynomial"] = poly_schema
        jsonschema.validate(json.loads(out), schema)

    check("count.json", "count", "--n", "3", "--e", "2", "--p", "2")
    check("count.json", "count", "--alpha", "2,1", "--p", "3")
    check("count.json", "count", "--n", "3", "--e", "3", "--p", "2", "--irreducible")
    check("bounds.json", "bounds", "--n", "10", "--e", "30")
    check("table1.json", "table1")
    check("zeta-coeff.json", "zeta-coeff", "--n", "4", "--e", "3")
    check("closure.json", "closure", "--alpha", "2,2", "--p", "3")
    check("audit-sandwich.json", "audit-sandwich", "--n", "3", "--m", "2")
    check(
        "interp.json", "interp", "--n", "2", "--e", "4", "--primes", "2,3,5",
        "--degree-cap", "0",
    )
    check("verify.json", "verify")
