"""The subrings benchmark.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 42 --trace 0

Runs one workload (see workloads.py and README.md) for about ``--seconds``
seconds.  Every round is a fresh interpreter with cold memo caches running
the seed's whole query list; a few extra interpreters only start up, to
sample set-up time.  Every answer is checked against reference.json.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics (medians over rounds,
times scaled to the reference host speed as speed.py explains) with
``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  The line before it holds the run's metadata and, for every
metric, its median, tail percentile and sample count.  The exit code is 0
when every answer was right, 1 when one was wrong, 2 when the run could
not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from stats import summarize
from workloads import WORKLOADS, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_STARTS = 7  # set-up-only interpreters per run, besides one per round
ROUND_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER_UNITS = {
    "counting.count_by_diagonal.calls": "count",
    "counting.count_by_diagonal.self_s": "s",
    "counting.accepted_g": "count",
    "counting.us_per_accepted_g": "us",
    "counting.count_subrings.calls": "count",
    "counting.count_subrings.self_s": "s",
    "counting.accepted_f": "count",
    "counting.us_per_accepted_f": "us",
    "counting.count_irreducible.self_s": "s",
    "closure.count_solutions.calls": "count",
    "closure.count_solutions.self_s": "s",
    "closure.solutions": "count",
    "closure.us_per_solution": "us",
    "closure.extract_conditions.calls": "count",
    "closure.extract_conditions.self_s": "s",
    "closure.conditions": "count",
    "subgroups.iter_sublattices_containing.self_s": "s",
    "subgroups.sublattices": "count",
    "subgroups.us_per_sublattice": "us",
    "subgroups.brute_force_subgroups.self_s": "s",
    "subgroups.count_subgroups_of_order.self_s": "s",
    "subgroups.sandwich_subring_audit.self_s": "s",
    "hnf.hnf_from_generators.calls": "count",
    "hnf.hnf_from_generators.self_s": "s",
    "hnf.is_closed.self_s": "s",
    "hnf.identity_in_span.self_s": "s",
    "cli.verify.self_s": "s",
    **{f"{m}.self_s": "s" for m in ("counting", "closure", "subgroups", "hnf", "cli",
                                    "zeta", "polyp", "paths", "bounds")},
    **{f"{m}.share": "fraction" for m in ("counting", "closure", "subgroups", "hnf", "cli",
                                          "zeta", "polyp", "paths", "bounds")},
    "process.cpu_s": "s",
    "harness.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "error_rate": "fraction",
}

class BenchError(RuntimeError):
    """The run could not be made (missing sources, a crashed child)."""


def source_root() -> Path:
    src = ROOT / "src" / "subrings"
    if not (src / "__init__.py").is_file():
        raise BenchError(f"no library sources at {src}")
    return ROOT


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def spawn(job: dict) -> tuple[dict, float]:
    """Run one child; returns its report and its set-up time."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=ROOT,
    )
    try:
        out, err = proc.communicate(json.dumps(job), timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"a {job['mode']} round exceeded {ROUND_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {err.strip()[-2000:]}")
    report = json.loads(out.strip().splitlines()[-1])
    return report, report["ready"] - t0


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    start = time.monotonic()
    root = source_root()
    nproc = os.cpu_count() or 1
    load_before = os.getloadavg()
    job = {"root": str(root), "workload": workload, "seed": seed,
           "tasks": build(workload, seed, 0, tiny), "trace": False, "mode": "setup"}

    setup = []  # (raw, scaled) set-up times
    for _ in range(SETUP_STARTS):
        report, setup_s = spawn(job)
        setup.append((setup_s, setup_s * speed.scale(report["kernel_s"])))
    rounds: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    # Rounds alternate untraced and traced when tracing; start another only
    # if it should end within the time asked for.
    while True:
        want_trace = trace and len(traced) < len(rounds)
        spans = OUT / "spans" / f"{workload}.r{len(traced)}.json" if want_trace else None
        t0 = time.monotonic()
        # a traced round repeats the inputs of the untraced round before it
        tasks = build(workload, seed, len(rounds) - want_trace, tiny)
        report, setup_s = spawn(dict(job, tasks=tasks, mode="run", trace=want_trace,
                                     spans=str(spans) if spans else None))
        k = speed.scale(report["kernel_s"])
        longest = max(longest, time.monotonic() - t0)
        if want_trace:
            traced.append(report)
        else:
            report["scaled_wall_s"] = report["wall_s"] * k
            rounds.append(report)
            setup.append((setup_s, setup_s * k))
        enough = rounds and (traced or not trace)
        if enough and time.monotonic() - start + longest > seconds:
            break

    every = rounds + traced
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    samples = {
        "wall_s": [r["scaled_wall_s"] for r in rounds],
        "setup_s": [scaled for _, scaled in setup],
        "peak_rss_mib": [r["peak_rss_mib"] for r in rounds],
    }
    raw = {"wall_s": [r["wall_s"] for r in rounds], "setup_s": [s for s, _ in setup]}
    kernel_s = [r["kernel_s"] for r in every]
    if trace:
        metrics, units = per_layer(rounds, traced), PER_LAYER_UNITS
        metrics["error_rate"] = failed / attempted
    else:
        metrics = {k: statistics.median(v) for k, v in samples.items()}
        units = END_TO_END_UNITS
    load_after = os.getloadavg()
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": nproc,
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "load_above_nproc": max(load_before[0], load_after[0]) > nproc,
        "git_commit": git_commit(),
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "tasks_per_round": len(job["tasks"]),
        "error_rate": failed / attempted,
        "summary": {k: dict(summarize(v), unit=END_TO_END_UNITS[k]) for k, v in samples.items()},
        "samples": samples,
        "raw_samples": raw,
        "raw_summary": {k: summarize(v) for k, v in raw.items()},
        "kernel_s": dict(summarize([statistics.median(k) for k in kernel_s]),
                         reference=speed.REFERENCE_S),
        "failures": [f for r in every for f in r["failures"]][:5],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return {"detail": detail, "result": result}


def per_layer(rounds: list[dict], traced: list[dict]) -> dict:
    """Medians over the traced rounds, with the process CPU time and the
    tracing overhead measured against the untraced rounds."""
    layers = [r["layers"] for r in traced]
    out = {}
    for name in PER_LAYER_UNITS:
        values = [layer.get(name, 0) for layer in layers]
        out[name] = statistics.median(values)
    untraced_wall = statistics.median(r["wall_s"] for r in rounds)
    out["process.cpu_s"] = statistics.median(r["cpu_s"] for r in rounds)
    out["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="cheap query lists, for smoke tests")
    args = ap.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(out["detail"], default=str))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
