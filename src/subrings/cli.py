"""Command-line front end.

Every command emits machine-readable output (JSON canonical; CSV as a
projection for the tabular commands; text is the same indented JSON).
Exit codes: 0 success, 1 usage error, 2 a comparator found a mismatch,
3 resource limit exceeded.  Output is byte-deterministic for a fixed
invocation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from mpmath.libmp import isprime

from . import __version__
from .bounds import bound_report, c7, minorant_divergence
from .closure import count_solutions, extract_conditions
from .counting import (
    InterpolationMismatch,
    ResourceLimitError,
    count_by_diagonal,
    count_irreducible,
    count_subrings,
    interpolate_count,
    recurrence_f,
    scan_by_diagonal,
    scan_subrings,
)
from .hnf import certify
from .partitions import compositions
from .paths import family_count, family_matrices, path_area_identity_check, two_value_compositions
from .polyp import PolyP
from .subgroups import brute_force_subgroups, count_subgroups_of_order, sandwich_subring_audit
from .zeta import local_coefficients, table1

NODE_BUDGET_ENV = "SUBRINGS_NODE_BUDGET"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_RESOURCE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; 2 is reserved for comparator
    # mismatches here, so route usage problems to exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(Exception):
    pass


def _prime(text: str) -> int:
    """argparse type: one prime."""
    try:
        p = int(text)
    except ValueError:
        p = None
    if p is None or not isprime(p):
        raise argparse.ArgumentTypeError(f"not a prime: {text!r}")
    return p


def _primes(text: str) -> tuple[int, ...]:
    """argparse type: comma-separated primes."""
    return tuple(_prime(x) for x in text.split(","))


def _poly_json(poly: PolyP):
    return {"coefficients": list(poly.coeffs), "text": str(poly)}


def _build_parser() -> _Parser:
    ap = _Parser(prog="subrings", description=__doc__)
    ap.add_argument("--version", action="version", version=f"subrings {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, budget=True, fmt=True):
        if budget:
            p.add_argument("--node-budget", type=int, default=None)
        if fmt:
            p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--output", default=None, help="write to file instead of stdout")

    p = sub.add_parser("count", help="f_n / g_n / g_alpha at one prime")
    p.add_argument("--n", type=int)
    p.add_argument("--e", type=int)
    p.add_argument("--p", type=_prime, required=True)
    p.add_argument("--alpha", help="comma-separated diagonal composition")
    p.add_argument("--irreducible", action="store_true")
    common(p)

    p = sub.add_parser("interp", help="polynomial fit across primes with held-out check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--primes", type=_primes, required=True, help="comma-separated primes")
    p.add_argument("--degree-cap", type=int, required=True)
    p.add_argument("--irreducible", action="store_true")
    common(p)

    p = sub.add_parser("bounds", help="lower-bound exponent report for (n, e)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    common(p, budget=False)

    p = sub.add_parser("table1", help="computed vs printed bound exponents")
    common(p, budget=False)

    p = sub.add_parser("zeta-coeff", help="local factor coefficients f_n(p^e)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--e", type=int, required=True, help="highest exponent")
    common(p, budget=False)

    p = sub.add_parser("closure", help="closure congruences for a diagonal")
    p.add_argument("--alpha", required=True)
    p.add_argument("--p", type=_prime, required=True)
    p.add_argument(
        "--substitute",
        default=None,
        help="comma-separated i.j.k triples: rescale slot (i,j) by p^k",
    )
    common(p)

    p = sub.add_parser("audit-sandwich", help="sandwich subgroups are subrings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True, help="prime-power modulus")
    common(p)

    p = sub.add_parser("verify", help="cross-module oracle equivalence suite")
    common(p)
    return ap


def _parse_alpha(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"malformed composition {text!r}")
    if not parts or any(x < 1 for x in parts):
        raise ValueError(f"composition parts must be positive: {text!r}")
    return parts


def _cmd_count(args, budget):
    if args.alpha:
        alpha = _parse_alpha(args.alpha)
        value = count_by_diagonal(alpha, args.p, budget)
        payload = {"alpha": list(alpha), "p": args.p, "g_alpha": value}
    elif args.irreducible:
        if args.n is None or args.e is None:
            raise ValueError("count --irreducible needs --n and --e")
        payload = {
            "n": args.n, "e": args.e, "p": args.p,
            "g": count_irreducible(args.n, args.e, args.p, budget),
        }
    else:
        if args.n is None or args.e is None:
            raise ValueError("count needs --n and --e (or --alpha)")
        payload = {
            "n": args.n, "e": args.e, "p": args.p,
            "f": count_subrings(args.n, args.e, args.p, budget),
        }
    return payload, EXIT_OK


def _cmd_interp(args, budget):
    result = interpolate_count(
        args.n, args.e, args.primes, args.degree_cap,
        irreducible=args.irreducible, node_budget=budget,
    )
    base = {
        "n": args.n, "e": args.e, "primes": list(args.primes),
        "degree_cap": args.degree_cap, "irreducible": args.irreducible,
    }
    if isinstance(result, InterpolationMismatch):
        base["ok"] = False
        base["mismatch"] = {
            "reason": result.reason,
            "counts": list(result.counts),
            "detail": result.detail,
        }
        return base, EXIT_MISMATCH
    base["ok"] = True
    base["polynomial"] = _poly_json(result)
    base["degree"] = None if result.is_zero() else int(result.degree)
    return base, EXIT_OK


def _cmd_bounds(args, budget):
    return bound_report(args.n, args.e).to_dict(), EXIT_OK


def _cmd_table1(args, budget):
    rows = [r.to_dict() for r in table1()]
    flagged = [
        (r["n"], r["e"], r["h_computed"], r["b_computed"])
        for r in rows
        if not (r["h_match"] and r["b_match"])
    ]
    # the single flagged row is the table's documented steady state; any
    # other disagreement means the bound code or the constants regressed
    ok = flagged == [(6, 30, 24, 24)]
    payload = {"rows": rows, "mismatches": len(flagged), "ok": ok}
    return payload, EXIT_OK if ok else EXIT_MISMATCH


def _cmd_zeta(args, budget):
    coeffs = local_coefficients(args.n, args.e)
    return {
        "n": args.n,
        "coefficients": [
            {"e": e, **_poly_json(c)} for e, c in enumerate(coeffs)
        ],
    }, EXIT_OK


def _cmd_closure(args, budget):
    alpha = _parse_alpha(args.alpha)
    substitutions = {}
    if args.substitute:
        for triple in args.substitute.split(","):
            try:
                i, j, k = (int(x) for x in triple.split("."))
            except ValueError:
                raise ValueError(f"malformed substitution {triple!r}")
            substitutions[(i, j)] = k
    system = extract_conditions(alpha, substitutions or None)
    solved = count_solutions(system, args.p, budget)
    oracle = scan_by_diagonal(alpha, args.p, budget)
    payload = {
        "alpha": list(alpha),
        "p": args.p,
        "conditions": system.texts(),
        "count": solved,
        "enumerated": oracle,
        "match": solved == oracle,
    }
    return payload, EXIT_OK if solved == oracle else EXIT_MISMATCH


def _cmd_audit(args, budget):
    audit = sandwich_subring_audit(args.n, args.m, budget)
    rows = [
        {
            "order_exponent": r.order_exponent,
            "index_exponent": r.index_exponent,
            "sandwich_count": r.sandwich_count,
            "subgroup_count": r.subgroup_count,
            "violations": r.violations,
            "match": r.match,
        }
        for r in audit.rows
    ]
    ok = audit.total_violations == 0 and audit.all_counts_match
    return (
        {"n": audit.n, "m": audit.m, "rows": rows,
         "violations": audit.total_violations, "ok": ok},
        EXIT_OK if ok else EXIT_MISMATCH,
    )


def _verify_checks(budget):
    """Desk-scale oracle equivalences; every failure names the two sides."""
    checks = []

    def record(name, module, operation, inputs, expected, actual):
        checks.append(
            {
                "name": name,
                "module": module,
                "operation": operation,
                "inputs": inputs,
                "expected": str(expected),
                "actual": str(actual),
                "ok": expected == actual,
            }
        )

    for p in (2, 3, 5):
        for e in range(0, 7):
            record(
                "rank2_unique_subring", "counting", "count_subrings",
                {"n": 2, "e": e, "p": p}, 1, count_subrings(2, e, p, budget),
            )
    for p in (2, 3):
        coeffs = local_coefficients(3, 4)
        for e in range(0, 5):
            record(
                "cubic_factor_vs_enumerator", "zeta", "local_coefficients",
                {"n": 3, "e": e, "p": p},
                scan_subrings(3, e, p, budget), coeffs[e](p),
            )
    coeffs4 = local_coefficients(4, 3)
    for e in range(0, 4):
        record(
            "quartic_factor_vs_enumerator", "zeta", "local_coefficients",
            {"n": 4, "e": e, "p": 2},
            scan_subrings(4, e, 2, budget), coeffs4[e](2),
        )
    for n in (3, 4):
        for p in (2, 3):
            record(
                "irreducible_minimal_index", "counting", "count_irreducible",
                {"n": n, "e": n - 1, "p": p}, 1, count_irreducible(n, n - 1, p, budget),
            )
            record(
                "irreducible_next_index", "counting", "count_irreducible",
                {"n": n, "e": n, "p": p},
                (p ** (n - 1) - 1) // (p - 1), count_irreducible(n, n, p, budget),
            )
    for p in (2, 3):
        for e in range(2, 5):
            for alpha in compositions(3, e):
                system = extract_conditions(alpha)
                record(
                    "closure_vs_enumeration", "closure", "count_solutions",
                    {"alpha": list(alpha.parts), "p": p},
                    scan_by_diagonal(alpha, p, budget),
                    count_solutions(system, p, budget),
                )
    for n in range(2, 5):
        for e in range(0, 4):
            for p in (2, 3):
                record(
                    "recurrence_vs_enumeration", "counting", "recurrence_f",
                    {"n": n, "e": e, "p": p},
                    scan_subrings(n, e, p, budget), recurrence_f(n, e, p, budget),
                )
    for n in (3, 4):
        for t in (1, 2):
            for k in range(0, t * (n - 1) + 1):
                for p in (2, 3):
                    record(
                        "subgroup_formula_vs_bruteforce", "subgroups",
                        "count_subgroups_of_order",
                        {"n": n, "t": t, "k": k, "p": p},
                        brute_force_subgroups(n, t, k, p, budget),
                        count_subgroups_of_order(n, t, k)(p),
                    )
    for n in (3, 4):
        for m in (2, 3):
            audit = sandwich_subring_audit(n, m, budget)
            record(
                "sandwich_all_subrings", "subgroups", "sandwich_subring_audit",
                {"n": n, "m": m}, 0, audit.total_violations,
            )
            record(
                "sandwich_counts_match", "subgroups", "sandwich_subring_audit",
                {"n": n, "m": m}, True, audit.all_counts_match,
            )
    for p in (2, 3):
        for n in range(3, 5):
            for (k, l) in ((2, 1), (3, 2), (2, 3)):
                for d in range(0, n):
                    for alpha in two_value_compositions(n, d, k, l):
                        mats = list(family_matrices(alpha, k, l, p))
                        all_ok = all(
                            certify(A).irreducible for A in mats
                        )
                        record(
                            "family_size", "paths", "family_matrices",
                            {"alpha": list(alpha.parts), "k": k, "l": l, "p": p},
                            family_count(alpha, k, l)(p), len(mats),
                        )
                        record(
                            "family_members_are_subrings", "paths", "family_matrices",
                            {"alpha": list(alpha.parts), "k": k, "l": l, "p": p},
                            True, all_ok,
                        )
    for u in range(0, 5):
        for v in range(0, 5):
            for q in (2, 3):
                record(
                    "path_area_identity", "paths", "path_area_identity_check",
                    {"u": u, "v": v, "q": q}, True, path_area_identity_check(u, v, q),
                )
    rows = table1()
    bad = [(r.n, r.e) for r in rows if not (r.h_match and r.b_match)]
    record(
        "table1_single_known_mismatch", "zeta", "table1", {}, [(6, 30)], bad,
    )
    for n in (6, 10):
        rho, dstar = c7(n, with_argmax=True)
        for delta_num in (-1, 0, 1):
            s = rho + Fraction(delta_num, 1000)
            record(
                "minorant_boundary", "bounds", "minorant_divergence",
                {"n": n, "d": dstar, "s": str(s)},
                s <= rho, minorant_divergence(dstar, n, s),
            )
    return checks


def _cmd_verify(args, budget):
    checks = _verify_checks(budget)
    failures = [c for c in checks if not c["ok"]]
    payload = {
        "checks": len(checks),
        "failures": len(failures),
        "failing": failures,
        "ok": not failures,
    }
    return payload, EXIT_OK if not failures else EXIT_MISMATCH


# command -> CSV columns; the commands listed here are the tabular ones.
# A payload with "rows" writes one line per row, any other one line.
_CSV_COLUMNS = {
    "bounds": ["n", "e", "h", "b", "c", "argmax_t", "argmax_d", "argmax_C", "cap"],
    "table1": [
        "n", "e", "h_computed", "b_computed", "h_printed", "b_printed",
        "h_match", "b_match",
    ],
    "audit-sandwich": [
        "order_exponent", "index_exponent", "sandwich_count",
        "subgroup_count", "violations", "match",
    ],
}


def _to_csv(columns: list[str], payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in payload.get("rows", [payload]):
        cells = (row[k] for k in columns)
        writer.writerow([int(v) if isinstance(v, bool) else v for v in cells])
    return buf.getvalue()


def _emit(args, payload):
    fmt = getattr(args, "format", "json")
    if fmt == "csv":
        if args.command not in _CSV_COLUMNS:
            raise ValueError(f"csv output is only available for {sorted(_CSV_COLUMNS)}")
        out = _to_csv(_CSV_COLUMNS[args.command], payload)
    else:
        # json and text are the same indented dump
        out = json.dumps(payload, indent=2, default=str) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


_COMMANDS = {
    "count": _cmd_count,
    "interp": _cmd_interp,
    "bounds": _cmd_bounds,
    "table1": _cmd_table1,
    "zeta-coeff": _cmd_zeta,
    "closure": _cmd_closure,
    "audit-sandwich": _cmd_audit,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    budget = getattr(args, "node_budget", None)
    if budget is None and NODE_BUDGET_ENV in os.environ:
        try:
            budget = int(os.environ[NODE_BUDGET_ENV])
        except ValueError:
            print(f"error: malformed {NODE_BUDGET_ENV}", file=sys.stderr)
            return EXIT_USAGE
    try:
        payload, code = _COMMANDS[args.command](args, budget)
        _emit(args, payload)
    except ResourceLimitError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
