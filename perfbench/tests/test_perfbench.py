"""Tests of the benchmark itself (not of the library).

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import closed_forms
import workloads
from spans import Tracer, covered, layer_metrics, self_times
from stats import tail_percentile

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())


def bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


# --- spans -----------------------------------------------------------------

def test_self_time_subtracts_children():
    #   0 root [0, 10]
    #   1   a  [1, 4]
    #   2     a1 [2, 3]
    #   3   b  [5, 7]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 7.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    start = [0.0, 1.0, 3.0, 9.0]
    end = [10.0, 4.0, 6.0, 12.0]  # the last child runs past its parent
    parent = [-1, 0, 0, 0]
    assert self_times(start, end, parent)[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert covered([(0, 1), (0.5, 2), (3, 4)]) == 3


def test_tracer_nests_calls_and_generator_steps():
    tracer = Tracer()

    def leaf(x):
        return x

    def gen(k):
        yield from range(k)

    traced_leaf = tracer.wrap("m.leaf", leaf)
    traced_gen = tracer.wrap("m.gen", gen)

    def outer():
        return sum(traced_leaf(x) for x in traced_gen(3))

    traced_outer = tracer.wrap("m.outer", outer)
    assert traced_outer() == 3
    names = [tracer.names[i] for i in tracer.name_id]
    assert names.count("m.gen") == 4  # three items and the final StopIteration
    assert names.count("m.leaf") == 3
    root = names.index("m.outer")
    assert all(p == root for i, p in enumerate(tracer.parent) if i != root)
    selfs = tracer.self_times()
    whole = tracer.end[root] - tracer.start[root]
    assert sum(selfs) == pytest.approx(whole)


def test_spans_written_at_the_end_as_json(tmp_path):
    tracer = Tracer()
    tracer.current_query = 4
    tracer.wrap("m.f", lambda: None)()
    tracer.dump(tmp_path / "run.json", {"workload": "w"})
    record = json.loads((tmp_path / "run.json").read_text())
    assert record["workload"] == "w" and record["names"] == ["m.f"]
    assert record["name_id"] == [0] and record["query"] == [4] and record["parent"] == [-1]
    assert record["end"][0] >= record["start"][0]


def test_rates_are_per_round():
    tracer = Tracer()
    tracer.wrap("counting.count_by_diagonal", lambda: 4)()
    tracer.wrap("counting.count_by_diagonal", lambda: 6)()
    out = layer_metrics(tracer, 1.0)
    assert out["counting.accepted_g"] == 10
    assert out["counting.us_per_accepted_g"] == pytest.approx(
        out["counting.count_by_diagonal.self_s"] / 10 * 1e6)
    assert "closure.us_per_solution" not in out  # no solutions counted


# --- stats -----------------------------------------------------------------

@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
     (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    values = list(range(1, n + 1))
    tail = tail_percentile(values)
    if expected is None:
        assert tail is None
        return
    q, v = tail
    assert q == expected
    assert sum(x > v for x in values) >= 10


# --- reference table -------------------------------------------------------

def test_closed_forms_reproduce_enumerated_small_values():
    assert [closed_forms.f_local(3, e, 2) for e in range(6)] == [1, 3, 4, 6, 10, 12]
    assert [closed_forms.f_local(3, e, 3) for e in range(6)] == [1, 3, 4, 7, 13, 16]
    assert [closed_forms.f_local(4, e, 2) for e in range(5)] == [1, 6, 13, 25, 50]
    assert [closed_forms.f_local(4, e, 3) for e in range(4)] == [1, 6, 13, 29]


@pytest.mark.parametrize("p", [2, 3])
def test_reference_matches_closed_forms_at_small_primes(p):
    keyed = {k: v for k, (v, _) in REFERENCE["values"].items() if k.endswith(f", {p})")}
    checked = [k for k in keyed if closed_forms.closed_form(k) is not None]
    assert {"f(3, 5, %d)" % p, "g(5, 6, %d)" % p} <= set(checked)
    for key in checked:
        assert keyed[key] == closed_forms.closed_form(key), key


def test_every_closed_form_entry_matches():
    for key, (value, source) in REFERENCE["values"].items():
        if source in ("closed_form_g5", "local_factor"):
            assert value == closed_forms.closed_form(key), key


def test_every_pool_member_has_a_reference():
    for table in (workloads.WORKLOADS, workloads.TINY):
        for workload, slots in table.items():
            for pool in slots:
                for task in pool:
                    assert task_reference_keys(task) <= set(REFERENCE["values"]), task


def task_reference_keys(task):
    op, args = task["op"], task.get("args")
    if op == "count_irreducible":
        return {"g(%d, %d, %d)" % tuple(args)}
    if op == "count_subrings":
        return {"f(%d, %d, %d)" % tuple(args)}
    if op == "congruence":
        return {f"g_alpha({tuple(task['alpha'])}, {p})" for p in task["primes"]}
    if op == "subgroup_order":
        return {"subgroups(%d, %d, %d, %d)" % tuple(args)}
    if op == "sandwich":
        n, m = args
        p, t = workloads.prime_power(m)
        return {f"subgroups({n}, {t}, {k}, {p})" for k in range(t * (n - 1) + 1)}
    return {"verify"}


# --- workloads -------------------------------------------------------------

def test_seed_fixes_the_query_list():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 7, 0) == workloads.build(name, 7, 0)
    assert workloads.build("congruence", 1, 0) != workloads.build("congruence", 2, 0)
    assert workloads.build("congruence", 1, 0) != workloads.build("congruence", 1, 1)


def test_repeated_call_is_rejected():
    task = {"op": "count_irreducible", "args": [4, 5, 3]}
    with pytest.raises(ValueError, match="repeats"):
        workloads.check_cold([task, dict(task)])
    system = {"op": "congruence", "alpha": [2, 2], "subs": [], "primes": [3]}
    with pytest.raises(ValueError, match="repeats"):
        workloads.check_cold([system, dict(system, primes=[5])])


# --- the command -----------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0",
                 "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tiny_traced_run_reports_every_layer_metric():
    proc = bench("--workload", "oracles", "--seed", "3", "--seconds", "1", "--trace", "1",
                 "--tiny")
    assert proc.returncode == 0, proc.stderr
    metrics = last_json(proc.stdout)["metrics"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert metrics["subgroups.sublattices"]["value"] > 0
    assert metrics["hnf.hnf_from_generators.calls"]["value"] > 0
    assert metrics["cli.verify.self_s"]["value"] > 0


def test_wrong_reference_fails_the_run(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    reference = json.loads((HERE / "reference.json").read_text())
    reference["values"]["f(4, 4, 2)"][0] += 1
    (tmp_path / "perfbench" / "reference.json").write_text(json.dumps(reference))
    proc = bench("--workload", "scan", "--seed", "1", "--seconds", "1", "--tiny", cwd=tmp_path)
    assert proc.returncode != 0
    result = last_json(proc.stdout)
    assert not result["correct"] and result["failed"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "scan", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
