"""One measured round in a fresh interpreter.

Reads a job (JSON) on stdin, imports the library from the checkout's
``src``, builds the inputs, runs the queries in order while checking every
answer against the reference table, and prints one JSON report on stdout.
``mode == "setup"`` stops where the first query would start, so the parent
can sample interpreter start-up and set-up alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import speed
from workloads import prime_power

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# time.monotonic is CLOCK_MONOTONIC on Linux, shared with the parent, so the
# parent can time set-up from its spawn to the first query.


def _answers(S, task):
    """Run one task; yields (reference key, actual value) for every answer."""
    op = task["op"]
    if op == "count_irreducible":
        n, e, p = task["args"]
        yield f"g({n}, {e}, {p})", S.count_irreducible(n, e, p)
    elif op == "count_subrings":
        n, e, p = task["args"]
        yield f"f({n}, {e}, {p})", S.count_subrings(n, e, p)
    elif op == "congruence":
        alpha = tuple(task["alpha"])
        subs = {(i, j): k for i, j, k in task["subs"]} or None
        system = S.extract_conditions(alpha, subs)
        for p in task["primes"]:
            yield f"g_alpha({alpha}, {p})", S.count_solutions(system, p)
    elif op == "subgroup_order":
        n, t, k, p = task["args"]
        key = f"subgroups({n}, {t}, {k}, {p})"
        yield key, S.brute_force_subgroups(n, t, k, p)
        yield key, S.count_subgroups_of_order(n, t, k)(p)
    elif op == "sandwich":
        n, m = task["args"]
        audit = S.sandwich_subring_audit(n, m)
        p, t = prime_power(m)
        for row in audit.rows:
            key = f"subgroups({n}, {t}, {row.order_exponent}, {p})"
            yield key, row.sandwich_count
            yield key, row.subgroup_count
        yield "sandwich_violations", audit.total_violations
    elif op == "verify":
        yield "verify", _verify()
    else:
        raise ValueError(f"unknown task op {op!r}")


def _verify():
    from subrings import cli

    out = io.StringIO()
    tracer = _TRACER
    idx = tracer.open("cli.verify") if tracer else None
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify"])
    finally:
        if tracer:
            tracer.close(idx)
    payload = json.loads(out.getvalue())
    return {"exit": code, "ok": payload["ok"], "failures": payload["failures"]}


_TRACER = None


def main() -> int:
    global _TRACER
    job = json.loads(sys.stdin.read())
    root = Path(job["root"])
    src = root / "src"
    sys.path.insert(0, str(src))
    import subrings as S

    if not Path(S.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"subrings was imported from {S.__file__}, not from {src}")
    reference = json.loads(REFERENCE.read_text())["values"]
    tasks = job["tasks"]
    if job["trace"]:
        from spans import Tracer

        _TRACER = Tracer()
        _TRACER.install()
    ready = time.monotonic()
    # the host's speed, sampled before and after the queries (speed.py)
    report = {"ready": ready, "kernel_s": speed.burst()}
    if job["mode"] == "setup":
        print(json.dumps(report))
        return 0

    attempted = failed = 0
    failures = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for qid, task in enumerate(tasks):
        if _TRACER:
            _TRACER.current_query = qid
        try:
            for key, actual in _answers(S, task):
                attempted += 1
                expected = reference[key][0]
                if actual != expected:
                    failed += 1
                    failures.append({"task": task, "key": key, "expected": expected,
                                     "actual": actual})
        except Exception:
            # a raising query counts as one failed answer; the round goes on
            attempted += 1
            failed += 1
            failures.append({"task": task, "error": traceback.format_exc(limit=3)})
    wall = time.perf_counter() - t0
    report["kernel_s"] += speed.burst()
    report.update(
        wall_s=wall,
        cpu_s=time.process_time() - cpu0,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=attempted,
        failed=failed,
        failures=failures[:5],
    )
    if _TRACER:
        from spans import layer_metrics

        report["layers"] = layer_metrics(_TRACER, wall)
        if job.get("spans"):
            _TRACER.dump(Path(job["spans"]), {"workload": job["workload"], "seed": job["seed"],
                                               "tasks": tasks})
    print(json.dumps(report, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
