"""Regenerate reference.json: one exact expected value per pool member.

    python3 perfbench/make_reference.py

Each value is written only when two independent routes agree; otherwise
the script stops.  The table is generated once, at a commit whose numbers
are trusted, and committed: the benchmark checks later code against it and
never against the code under test at the same commit.  Regenerating it is
a change to the benchmark, not to the library.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import subrings as S  # noqa: E402

import closed_forms  # noqa: E402
import workloads  # noqa: E402

SOURCES = {
    "closed_form_g5": "g_5(p^6) = 1+p+2p^2+11p^3+p^4 and g_5(p^7) = 1+p+6p^2+21p^3+15p^4 "
    "(frozen in the counting tests), equal to the irreducible HNF scan",
    "local_factor": "x^e coefficient of the cubic or quartic local factor (closed_forms.py), "
    "equal to the general HNF scan count_subrings",
    "scan_vs_congruence": "irreducible HNF scan (count_irreducible / count_by_diagonal) equal to "
    "the closure congruence count (extract_conditions + count_solutions, summed over diagonals)",
    "scan_vs_recurrence": "general HNF scan count_subrings equal to recurrence_f over "
    "irreducible counts",
    "stehling_vs_brute_force": "Stehling product formula count_subgroups_of_order equal to the "
    "brute-force sublattice oracle brute_force_subgroups",
    "sandwich_theorem": "every group between Z + m^2 Z^n and Z + m Z^n is a subring, so the "
    "audit finds no violation",
    "verify_passes": "`subrings verify` exits 0 with no failing check",
}


class Disagreement(RuntimeError):
    pass


def agree(key, a, b):
    if a != b:
        raise Disagreement(f"{key}: {a} != {b}")
    return a


def g_alpha_sum(n, e, p):
    return sum(
        S.count_solutions(S.extract_conditions(alpha), p)
        for alpha in workloads.compositions(n, e)
    )


def entries_for(task):
    """(key, value, source) for every answer the task is checked on."""
    op = task["op"]
    if op == "count_irreducible":
        n, e, p = task["args"]
        key = f"g({n}, {e}, {p})"
        scan = S.count_irreducible(n, e, p)
        closed = closed_forms.closed_form(key)
        if closed is not None:
            yield key, agree(key, closed, scan), "closed_form_g5"
        else:
            yield key, agree(key, scan, g_alpha_sum(n, e, p)), "scan_vs_congruence"
    elif op == "count_subrings":
        n, e, p = task["args"]
        key = f"f({n}, {e}, {p})"
        scan = S.count_subrings(n, e, p)
        closed = closed_forms.closed_form(key)
        if closed is not None:
            yield key, agree(key, closed, scan), "local_factor"
        else:
            yield key, agree(key, scan, S.recurrence_f(n, e, p)), "scan_vs_recurrence"
    elif op == "congruence":
        alpha = tuple(task["alpha"])
        system = S.extract_conditions(alpha)
        for p in task["primes"]:
            key = f"g_alpha({alpha}, {p})"
            yield key, agree(
                key, S.count_by_diagonal(alpha, p), S.count_solutions(system, p)
            ), "scan_vs_congruence"
    elif op == "subgroup_order":
        n, t, k, p = task["args"]
        yield from _subgroups(n, t, k, p)
    elif op == "sandwich":
        n, m = task["args"]
        p, t = workloads.prime_power(m)
        for kappa in range(t * (n - 1) + 1):
            yield from _subgroups(n, t, kappa, p)
        yield "sandwich_violations", 0, "sandwich_theorem"
    elif op == "verify":
        yield "verify", {"exit": 0, "ok": True, "failures": 0}, "verify_passes"


def _subgroups(n, t, k, p):
    key = f"subgroups({n}, {t}, {k}, {p})"
    yield key, agree(
        key, S.brute_force_subgroups(n, t, k, p), S.count_subgroups_of_order(n, t, k)(p)
    ), "stehling_vs_brute_force"


def main() -> int:
    values = {}
    for table in (workloads.WORKLOADS, workloads.TINY):
        for slots in table.values():
            for pool in slots:
                for task in pool:
                    for key, value, source in entries_for(task):
                        values[key] = [value, source]
                        print(key, value, source, flush=True)
    out = {
        "about": "Exact expected answers; each value is [value, source id]. "
        "Regenerate with make_reference.py only at a trusted commit.",
        "sources": SOURCES,
        "values": dict(sorted(values.items())),
    }
    write_table(out, HERE / "reference.json")
    return 0


def write_table(table: dict, path: Path) -> None:
    """JSON with one line per reference value."""
    lines = ["{"]
    for key in ("about", "sources"):
        lines.append(f" {json.dumps(key)}: {json.dumps(table[key], indent=2)},")
    values = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in table["values"].items()]
    lines += [' "values": {', ",\n".join(values), " }", "}"]
    path.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    sys.exit(main())
