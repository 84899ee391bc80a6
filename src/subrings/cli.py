"""Command-line front end.

Every command emits machine-readable output (JSON canonical; CSV as a
projection for the tabular commands; text is the same indented JSON).
Exit codes: 0 success, 1 usage error, 2 a comparator found a mismatch,
3 resource limit exceeded.  Output is byte-deterministic for a fixed
invocation.  `verify` runs one table of oracle checks; the test suite
runs the same table, one test per row.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction

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
from .hnf import identity_in_span, is_closed, is_irreducible
from .limits import is_prime
from .partitions import compositions
from .paths import family_count, family_matrices, path_area_identity_check, two_value_compositions
from .polyp import PolyP
from .subgroups import (
    _sandwich_hnf_agreement,
    brute_force_subgroups,
    count_subgroups_of_order,
    sandwich_subring_audit,
)
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
    if p is None or not is_prime(p):
        raise argparse.ArgumentTypeError(f"not a prime: {text!r}")
    return p


def _primes(text: str) -> tuple[int, ...]:
    """argparse type: comma-separated primes."""
    return tuple(_prime(x) for x in text.split(","))


def _node_budget(text: str) -> int:
    """argparse type: a node budget, an integer >= 0."""
    try:
        budget = int(text)
    except ValueError:
        budget = -1
    if budget < 0:
        raise argparse.ArgumentTypeError(f"not a nonnegative integer: {text!r}")
    return budget


def _poly_json(poly: PolyP):
    return {"coefficients": list(poly.coeffs), "text": str(poly)}


def _build_parser() -> _Parser:
    ap = _Parser(prog="subrings", description=__doc__)
    ap.add_argument("--version", action="version", version=f"subrings {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, budget=True):
        if budget:
            p.add_argument("--node-budget", type=_node_budget, default=None)
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
        if args.n is not None or args.e is not None or args.irreducible:
            raise ValueError("count --alpha takes no --n, --e or --irreducible")
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
    base["degree"] = int(result.degree) if result else None
    return base, EXIT_OK


def _cmd_bounds(args, budget):
    return asdict(bound_report(args.n, args.e)), EXIT_OK


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
            if (i, j) in substitutions:
                raise ValueError(f"slot ({i},{j}) substituted more than once")
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
    rows = [{**asdict(r), "match": r.match} for r in audit.rows]
    ok = audit.total_violations == 0 and audit.all_counts_match
    return (
        {"n": audit.n, "m": audit.m, "rows": rows,
         "violations": audit.total_violations, "ok": ok},
        EXIT_OK if ok else EXIT_MISMATCH,
    )


def _verify_records(row, budget):
    """Run one row of _CHECKS: one record per check, naming the
    inputs and both sides."""
    module, operation, checks = row
    for name, inputs, expected, actual in checks(budget):
        yield {
            "name": name,
            "module": module,
            "operation": operation,
            "inputs": inputs,
            "expected": str(expected),
            "actual": str(actual),
            "ok": expected == actual,
        }


def _cmd_verify(args, budget):
    checks = [r for row in _CHECKS for r in _verify_records(row, budget)]
    failures = [c for c in checks if not c["ok"]]
    payload = {
        "checks": len(checks),
        "failures": len(failures),
        "failing": failures,
        "ok": not failures,
    }
    return payload, EXIT_OK if not failures else EXIT_MISMATCH


# The checks of `subrings verify`, also run one row at a time by
# tests/test_cli.py.  Row: (module, operation, checks); checks(budget)
# yields (name, inputs, expected, actual), and a check holds when
# expected == actual.  Rows call the library through this module's
# globals when they run, so a wrapper bound over those names sees every
# call.
_CHECKS = (
    ("counting", "count_subrings", lambda budget: (
        ("rank2_unique_subring", {"n": 2, "e": e, "p": p}, 1, count_subrings(2, e, p, budget))
        for p in (2, 3, 5) for e in range(7)
    )),
    ("zeta", "local_coefficients", lambda budget: (
        (name, {"n": n, "e": e, "p": p}, scan_subrings(n, e, p, budget), coeffs[e](p))
        for n, name, primes, top in (
            (3, "cubic_factor_vs_enumerator", (2, 3), 4),
            (4, "quartic_factor_vs_enumerator", (2,), 3),
        )
        for p in primes for coeffs in (local_coefficients(n, top),) for e in range(top + 1)
    )),
    ("counting", "count_irreducible", lambda budget: (
        (name, {"n": n, "e": e, "p": p}, expected, count_irreducible(n, e, p, budget))
        for n in (3, 4) for p in (2, 3)
        for name, e, expected in (
            ("irreducible_minimal_index", n - 1, 1),
            ("irreducible_next_index", n, (p ** (n - 1) - 1) // (p - 1)),
        )
    )),
    ("closure", "count_solutions", lambda budget: (
        ("closure_vs_enumeration", {"alpha": list(alpha), "p": p},
         scan_by_diagonal(alpha, p, budget), count_solutions(extract_conditions(alpha), p, budget))
        for p in (2, 3) for e in range(2, 5) for alpha in compositions(3, e)
    )),
    ("counting", "recurrence_f", lambda budget: (
        ("recurrence_vs_enumeration", {"n": n, "e": e, "p": p},
         scan_subrings(n, e, p, budget), recurrence_f(n, e, p, budget))
        for n in range(2, 5) for e in range(4) for p in (2, 3)
    )),
    ("subgroups", "count_subgroups_of_order", lambda budget: (
        ("subgroup_formula_vs_bruteforce", {"n": n, "t": t, "k": k, "p": p},
         brute_force_subgroups(n, t, k, p, budget), count_subgroups_of_order(n, t, k)(p))
        for n in (3, 4) for t in (1, 2) for k in range(t * (n - 1) + 1) for p in (2, 3)
    )),
    ("subgroups", "sandwich_subring_audit", lambda budget: (
        (name, {"n": n, "m": m}, expected, actual)
        for n in (3, 4) for m in (2, 3)
        for audit in (sandwich_subring_audit(n, m, budget),)
        for name, expected, actual in (
            ("sandwich_all_subrings", 0, audit.total_violations),
            ("sandwich_counts_match", True, audit.all_counts_match),
        )
    )),
    # the audit's closed-form HNF against generic elimination
    ("hnf", "hnf_from_generators", lambda budget: (
        ("sandwich_closed_form_vs_elimination", {"n": n, "m": m}, walked, agreeing)
        for n, m in ((3, 4), (4, 3))
        for walked, agreeing in (_sandwich_hnf_agreement(n, m, budget),)
    )),
    ("paths", "family_matrices", lambda budget: (
        (name, {"alpha": list(alpha), "k": k, "l": l, "p": p}, expected, actual)
        for p in (2, 3) for n in (3, 4) for k, l in ((2, 1), (3, 2), (2, 3))
        for d in range(n) for alpha in two_value_compositions(n, d, k, l)
        for mats in (list(family_matrices(alpha, k, l, p)),)
        for name, expected, actual in (
            ("family_size", family_count(alpha, k, l)(p), len(mats)),
            ("family_members_are_subrings", True, all(
                identity_in_span(A) and is_closed(A) and is_irreducible(A) for A in mats
            )),
        )
    )),
    ("paths", "path_area_identity_check", lambda budget: (
        ("path_area_identity", {"u": u, "v": v, "q": q}, True, path_area_identity_check(u, v, q))
        for u in range(5) for v in range(5) for q in (2, 3)
    )),
    ("zeta", "table1", lambda budget: [(
        "table1_single_known_mismatch", {}, [(6, 30)],
        [(r.n, r.e) for r in table1() if not (r.h_match and r.b_match)],
    )]),
    ("bounds", "minorant_divergence", lambda budget: (
        ("minorant_boundary", {"n": n, "d": dstar, "s": str(s)}, s <= rho,
         minorant_divergence(dstar, n, s))
        for n in (6, 10) for rho, dstar in (c7(n, with_argmax=True),)
        for s in (rho + Fraction(delta, 1000) for delta in (-1, 0, 1))
    )),
)


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
    if args.format == "csv":
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
            budget = _node_budget(os.environ[NODE_BUDGET_ENV])
        except argparse.ArgumentTypeError as err:
            print(f"error: {NODE_BUDGET_ENV}: {err}", file=sys.stderr)
            return EXIT_USAGE
    try:
        payload, code = _COMMANDS[args.command](args, budget)
        _emit(args, payload)
    except ResourceLimitError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as err:  # OSError: an unwritable --output
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
