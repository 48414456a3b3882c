"""Tests of the benchmark itself: span arithmetic, the correctness gate, the
traced run and the metric list in BENCHMARK.json.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import spans
import workloads

VERIFY_4X4 = workloads.runs("rook-verify", 0)[0]


class FakeClock:
    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


def test_self_time_is_duration_minus_children():
    # main [0, 10] holds a [1, 4], which holds b [2, 3], and c [5, 9];
    # a second, top-level a runs over [11, 12].
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10, 11, 12]))
    tracer.enter("main")
    tracer.enter("a")
    tracer.enter("b")
    tracer.exit()
    tracer.exit(work=7)
    tracer.enter("c")
    tracer.exit()
    tracer.exit()
    tracer.enter("a")
    tracer.exit(work=2)
    assert tracer.stats == {
        "main": [1, 3, 0, 0],
        "a": [2, 3, 9, 7],
        "b": [1, 1, 0, 0],
        "c": [1, 4, 0, 0],
    }
    assert tracer.top_s == 11


def test_work_is_counted_after_the_span_closes(monkeypatch):
    now = [0.0]
    tracer = spans.Tracer(clock=lambda: now[0])

    def work(_):
        now[0] += 1.0

    def count(args, kwargs, result):
        now[0] += 5.0
        return 3

    monkeypatch.setitem(spans.WORK, "m.work", count)
    spans._wrap(work, "m.work", tracer)(None)
    assert tracer.stats == {"m.work": [1, 1.0, 3, 3]}


def test_module_times_add_up_to_wall_plus_worker_time():
    # Main process: wall 9 = unattributed 2 + cli 1 + search 4 + pool wait 2;
    # the workers' spans cover 3 s, all in cycles.
    trace = {
        "stats": {"cli.main": [1, 1.0, 0, 0], "search.max_intersecting_family": [2, 4.0, 10, 7],
                  "pool.wait": [1, 2.0, 0, 0], "cycles.interval_start": [4, 3.0, 1, 1]},
        "startup_s": 0.5,
        "unattributed_s": 2.0,
        "worker_s": 3.0,
        "wall_s": 9.0,
    }
    metrics = run.layer_metrics(trace)
    modules = sum(metrics[f"{module}.self_s"][0] for module in run.MODULES)
    assert modules + metrics["cli.pool_wait_s"][0] + metrics["trace.unattributed_s"][0] == 12.0
    assert metrics["cli.self_s"][0] == 1.0
    assert metrics["search.max_intersecting_family.self_s"][0] == 4.0
    assert metrics["search.max_intersecting_family.max_vertices"][0] == 7
    assert metrics["cycles.interval_start.hit_ratio"][0] == 0.25


def test_expected_report_passes(tmp_path):
    outcomes = run.run_pass([VERIFY_4X4], run.load_expected("rook-verify"), tmp_path)
    assert run.failed_ratio(outcomes) == 0


def test_tampered_expected_report_fails(tmp_path):
    expected = run.load_expected("rook-verify")
    expected[VERIFY_4X4.name]["report"]["result"]["max_intersecting"] += 1
    outcomes = run.run_pass([VERIFY_4X4], expected, tmp_path)
    assert run.failed_ratio(outcomes) == 1.0
    assert outcomes[0].failure == "report differs from the expected report"


def test_traceback_exit_fails_even_with_the_expected_exit_code(tmp_path):
    missing = workloads.Run("check-witness-missing",
                            ("check-witness", "--report", "missing.json", "--json"))
    expected = run.load_expected("rook-verify")
    expected[missing.name] = {"exit": 1, "report": {}}
    outcomes = run.run_pass([VERIFY_4X4, missing], expected, tmp_path)
    assert run.failed_ratio(outcomes) == 0.5
    assert outcomes[1].child.exit_code == 1
    assert outcomes[1].failure.startswith("exit 1, stderr:")


def test_sampled_run_is_checked_by_its_own_fields():
    sampled = workloads.runs("cycle-sweep", 3)[-1]
    assert sampled.sampled and "3" in sampled.argv

    def stdout(all_equal, all_within_bound):
        return json.dumps({"result": {"all_equal": all_equal,
                                      "all_within_bound": all_within_bound}})

    assert run.check(sampled, 0, stdout(True, True), "", {}) is None
    assert run.check(sampled, 0, stdout(False, True), "", {}) is not None
    assert run.check(sampled, 0, stdout(True, False), "", {}) is not None
    assert run.check(sampled, 1, stdout(True, True), "", {}) is not None


def test_pool_worker_spans_reach_the_trace(tmp_path):
    lemma1 = workloads.Run("lemma1-4x4", ("lemma1", "--n", "4", "--m", "4", "--threads", "2",
                                          "--json"))
    [outcome] = run.run_pass([lemma1], {}, tmp_path, traced=True)
    assert outcome.child.exit_code == 0
    stats = outcome.trace["stats"]
    # 3! * 3! orders, r = 1 and 2; every call runs in a pool worker, while
    # the CLI process waits in one pool per r.
    assert stats["cycles.max_intersecting_intervals"][0] == 72
    assert stats["cli.main"][0] == 1
    assert stats["pool.wait"][0] == 2
    assert "cycles.diagonal_interval" not in stats
    trace = outcome.trace
    assert 0 < trace["startup_s"] < trace["wall_s"]
    assert 0 < trace["unattributed_s"] < trace["wall_s"]
    assert 0 < trace["worker_s"] < 2 * stats["pool.wait"][1]
    in_cli_process = trace["wall_s"] - trace["unattributed_s"] - stats["pool.wait"][1]
    assert abs(sum(entry[1] for name, entry in stats.items() if name != "pool.wait")
               - trace["worker_s"] - in_cli_process) < 1e-6


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    trace = {"stats": {}, "startup_s": 1.0, "unattributed_s": 1.0, "worker_s": 0.0,
             "wall_s": 2.0}
    printed = {name: unit for name, (_, unit) in run.layer_metrics(trace).items()}
    printed["trace.overhead_ratio"] = "ratio"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == printed
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rook-verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
