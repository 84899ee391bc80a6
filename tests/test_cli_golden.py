"""Byte-for-byte CLI regression.

Each case runs ``subrings.cli.main`` in process and compares its stdout,
its stderr and its exit code with ``tests/golden/<case>.json``.  The
golden files record the output of the code before a refactor, so a
refactor that changes any byte of it fails here.  A change that means to
alter CLI output rewrites them with

    PYTHONPATH=src python tests/test_cli_golden.py

and says which cases changed and why.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from subrings.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# argparse wraps its usage line to the terminal width
COLUMNS = "80"

CASES = {
    "count_f": ["count", "--n", "3", "--e", "3", "--p", "2"],
    "count_f_rank4": ["count", "--n", "4", "--e", "3", "--p", "3"],
    "count_g": ["count", "--n", "4", "--e", "4", "--p", "3", "--irreducible"],
    "count_alpha": ["count", "--alpha", "2,1,1", "--p", "3"],
    "count_text": ["count", "--n", "3", "--e", "1", "--p", "5", "--format", "text"],
    # f_4(3^4) takes 3 nodes, so neither of these two budgets trips
    "count_budget_exit3": ["count", "--n", "4", "--e", "4", "--p", "3", "--node-budget", "10"],
    "count_budget_partial": [
        "count", "--n", "4", "--e", "4", "--p", "3", "--node-budget", "300",
    ],
    "count_f_budget_exit3": [
        "count", "--n", "4", "--e", "6", "--p", "3", "--node-budget", "100",
    ],
    "count_g_budget_exit3": [
        "count", "--n", "4", "--e", "5", "--p", "2", "--irreducible", "--node-budget", "20",
    ],
    "count_csv_rejected": ["count", "--n", "2", "--e", "1", "--p", "2", "--format", "csv"],
    "count_missing_n": ["count", "--p", "2"],
    "count_bad_int": ["count", "--n", "notanumber", "--e", "1", "--p", "2"],
    "count_bad_alpha": ["count", "--alpha", "0,1", "--p", "2"],
    "count_alpha_conflict": ["count", "--alpha", "2,1", "--n", "5", "--e", "9", "--p", "2"],
    "interp_ok": [
        "interp", "--n", "4", "--e", "5", "--primes", "2,3,5,7", "--degree-cap", "2",
        "--irreducible",
    ],
    "interp_mismatch_exit2": [
        "interp", "--n", "4", "--e", "5", "--primes", "2,3,5,7", "--degree-cap", "1",
        "--irreducible",
    ],
    "interp_text": [
        "interp", "--n", "2", "--e", "4", "--primes", "2,3,5", "--degree-cap", "0",
        "--format", "text",
    ],
    "bounds": ["bounds", "--n", "6", "--e", "20"],
    "bounds_csv": ["bounds", "--n", "10", "--e", "30", "--format", "csv"],
    "table1": ["table1"],
    "table1_csv": ["table1", "--format", "csv"],
    "zeta_coeff": ["zeta-coeff", "--n", "3", "--e", "4"],
    "zeta_coeff_text": ["zeta-coeff", "--n", "4", "--e", "3", "--format", "text"],
    "closure": ["closure", "--alpha", "2,2", "--p", "5"],
    "closure_substitute": [
        "closure", "--alpha", "3,2,1,1", "--p", "2", "--substitute", "1.2.1",
    ],
    "closure_bad_substitute": [
        "closure", "--alpha", "2,2", "--p", "5", "--substitute", "zz",
    ],
    "audit_sandwich": ["audit-sandwich", "--n", "3", "--m", "2"],
    "audit_sandwich_csv": ["audit-sandwich", "--n", "3", "--m", "3", "--format", "csv"],
    "verify": ["verify"],
    "verify_csv_rejected": ["verify", "--format", "csv"],
    # one case for each (command, exit code) pair the cases above miss
    "interp_bad_primes_exit1": [
        "interp", "--n", "4", "--e", "5", "--primes", "2,4", "--degree-cap", "0",
    ],
    # a held-out prime that is also fitted makes the check vacuous
    "interp_repeated_prime_exit1": [
        "interp", "--n", "6", "--e", "7", "--primes", "2,3,5,7,11,13,13", "--degree-cap", "5",
    ],
    "interp_budget_exit3": [
        "interp", "--n", "4", "--e", "6", "--primes", "2,3,5,7", "--degree-cap", "2",
        "--irreducible", "--node-budget", "100",
    ],
    "bounds_small_e_exit1": ["bounds", "--n", "4", "--e", "1"],
    "table1_bad_format_exit1": ["table1", "--format", "xml"],
    "zeta_coeff_no_factor_exit1": ["zeta-coeff", "--n", "5", "--e", "3"],
    # the rescaling a12 = p*a12' is unsound for (2, 2): 1 solution, 3 matrices
    "closure_mismatch_exit2": [
        "closure", "--alpha", "2,2", "--p", "3", "--substitute", "1.2.1",
    ],
    "closure_budget_exit3": [
        "closure", "--alpha", "3,2,1,1", "--p", "3", "--node-budget", "5",
    ],
    "audit_sandwich_bad_modulus_exit1": ["audit-sandwich", "--n", "3", "--m", "6"],
    "audit_sandwich_budget_exit3": [
        "audit-sandwich", "--n", "4", "--m", "4", "--node-budget", "200",
    ],
    "verify_budget_exit3": ["verify", "--node-budget", "0"],
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit_code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_golden(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    monkeypatch.delenv("SUBRINGS_NODE_BUDGET", raising=False)
    expected = json.loads((GOLDEN / f"{case}.json").read_text())
    actual = run_cli(CASES[case])
    assert actual["argv"] == expected["argv"]
    assert actual["exit_code"] == expected["exit_code"]
    assert actual["stdout"] == expected["stdout"]
    assert actual["stderr"] == expected["stderr"]


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    os.environ.pop("SUBRINGS_NODE_BUDGET", None)
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.json"):
        stale.unlink()
    for name, argv in sorted(CASES.items()):
        record = run_cli(argv)
        (GOLDEN / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
        print(f"{name}: exit {record['exit_code']}")
