"""Runs one benchmark workload through the ekrcheck CLI and prints its metrics.

    python3 bench/run.py --workload rook-verify --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the children import ekrcheck
from ``src/``, so there is nothing to build or install.  A pass runs every
CLI invocation of the workload in sequence, one child process each, and
checks every report.  Passes repeat until ``--seconds`` have gone by and
each metric is the median over passes.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and prints the per-layer metrics.  The last line of standard output is one
JSON object; README.md explains every metric.

``--record`` runs one pass and rewrites the workload's expected reports
under ``bench/expected/``; use it only when a report change is intended.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from spans import POOL_WAIT, SPAWNED_ENV, TRACE_DIR_ENV

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected"
SETUPS_PER_PASS = 3  # spread over the run, so that setup_s sees the same load as the passes
CHILD_CAP_S = 150.0  # a child still running after this is killed and fails

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}

# Spans reported with calls and self time; with self time only; with the
# number of items they return.
CALLED = (
    "search.max_intersecting_family",
    "rook.enumerate_placements",
    "graphs.enumerate_independent",
    "graphs.maximal_independent_sets",
    "cycles.enumerate_cyclic_orders",
    "cycles.all_intervals",
    "cycles.max_intersecting_intervals",
    "cycles.interval_start",
    "cycles.check_interval_windows",
    "cycles.restrict_to_order",
    "cli.main",
)
SELF_ONLY = (
    "search.rook_ekr_report",
    "search.graph_ekr_report",
    "rook.star_family",
    "rook.is_intersecting",
    "rook.random_intersecting_family",
    "graphs.lexicographic_product",
    "graphs.load_graph",
    "cycles.interval_double_count",
)
ITEMS = (
    "rook.enumerate_placements",
    "graphs.enumerate_independent",
    "graphs.maximal_independent_sets",
    "cycles.enumerate_cyclic_orders",
)
MODULES = ("cli", "rook", "search", "graphs", "cycles")


@dataclass
class Child:
    exit_code: int
    wall_s: float
    cpu_s: float  # user + system, including the child's waited-for pool workers
    maxrss_kb: int


@dataclass
class Outcome:
    run: workloads.Run
    child: Child
    failure: str | None
    trace: dict | None


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], cwd: Path, stdout_path: Path, stderr_path: Path,
          extra_env: dict | None = None, cap_s: float = CHILD_CAP_S) -> Child:
    """Run one child in its own process group and reap it with wait4, which
    reports its resource use; the whole group is killed after ``cap_s``."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **(extra_env or {}))
    # Fresh files: on ext4, closing a file that was truncated and rewritten
    # forces its data out, which would add a variable delay to the timing.
    stdout_path.unlink(missing_ok=True)
    stderr_path.unlink(missing_ok=True)
    with open(stdout_path, "xb") as out, open(stderr_path, "xb") as err:
        started = time.perf_counter()
        env[SPAWNED_ENV] = repr(time.monotonic())
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(cap_s, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall_s, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def strip_elapsed(obj):
    """Drop every elapsed_ms field, recursively."""
    if isinstance(obj, dict):
        return {k: strip_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [strip_elapsed(v) for v in obj]
    return obj


def check(run: workloads.Run, exit_code: int, stdout: str, stderr: str,
          expected: dict) -> str | None:
    """Why the run failed, or None when its exit code, stderr and report are right."""
    if stderr:
        return f"exit {exit_code}, stderr: {stderr.strip().splitlines()[-1]}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return f"exit {exit_code}, stdout is not one JSON document"
    if run.sampled:
        result = report.get("result") if isinstance(report, dict) else None
        if exit_code != 0 or not isinstance(result, dict):
            return f"exit {exit_code}, expected 0"
        if result.get("all_equal") is not True or result.get("all_within_bound") is not True:
            return "all_equal or all_within_bound is not true"
        return None
    want = expected.get(run.name)
    if want is None:
        return "no expected report"
    if exit_code != want["exit"]:
        return f"exit {exit_code}, expected {want['exit']}"
    if strip_elapsed(report) != want["report"]:
        return "report differs from the expected report"
    return None


def failed_ratio(outcomes: list[Outcome]) -> float:
    return sum(o.failure is not None for o in outcomes) / len(outcomes)


def _add_stats(total: dict[str, list], stats: dict[str, list]) -> None:
    for name, (calls, self_s, work, max_work) in stats.items():
        entry = total.setdefault(name, [0, 0.0, 0, 0])
        entry[0] += calls
        entry[1] += self_s
        entry[2] += work
        entry[3] = max(entry[3], max_work)


def read_trace(trace_dir: Path, wall_s: float) -> dict:
    """Merge the records one traced run left, one file per process.  The
    unattributed time is the run's wall time outside the main process's
    top-level spans: interpreter start-up, imports and exit.  The worker
    time is the time covered by spans in pool workers."""
    stats: dict[str, list] = {}
    startup_s, top_s, worker_s = 0.0, 0.0, 0.0
    for path in sorted(trace_dir.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record["startup_s"] is None:
            worker_s += record["top_s"]
        else:
            startup_s, top_s = record["startup_s"], record["top_s"]
        _add_stats(stats, record["stats"])
    return {"stats": stats, "startup_s": startup_s, "unattributed_s": wall_s - top_s,
            "worker_s": worker_s, "wall_s": wall_s}


def run_pass(plan: list[workloads.Run], expected: dict, workdir: Path,
             traced: bool = False) -> list[Outcome]:
    outcomes = []
    for run in plan:
        out, err = workdir / f"{run.name}.json", workdir / f"{run.name}.err"
        if traced:
            trace_dir = workdir / "trace" / run.name
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
            child = spawn([sys.executable, str(BENCH / "spans.py"), *run.argv], workdir, out, err,
                          {TRACE_DIR_ENV: str(trace_dir)})
        else:
            child = spawn([sys.executable, "-m", "ekrcheck", *run.argv], workdir, out, err)
        failure = check(run, child.exit_code, out.read_text(encoding="utf-8"),
                        err.read_text(encoding="utf-8"), expected)
        trace = read_trace(trace_dir, child.wall_s) if traced else None
        outcomes.append(Outcome(run, child, failure, trace))
    return outcomes


def merge_traces(outcomes: list[Outcome]) -> dict:
    """One pass's traces summed over its runs."""
    total = {"stats": {}, "startup_s": 0.0, "unattributed_s": 0.0, "worker_s": 0.0,
             "wall_s": 0.0}
    for outcome in outcomes:
        for key in ("startup_s", "unattributed_s", "worker_s", "wall_s"):
            total[key] += outcome.trace[key]
        _add_stats(total["stats"], outcome.trace["stats"])
    return total


def layer_metrics(trace: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass.  Self times are summed over all
    processes, pool workers included.  The module self times, the pool wait
    and the unattributed time add up to the wall time plus the worker time."""
    stats = trace["stats"]

    def stat(name: str, index: int):
        return stats.get(name, [0, 0.0, 0, 0])[index]

    metrics = {}
    for name in CALLED:
        metrics[f"{name}.calls"] = (stat(name, 0), "count")
    for name in CALLED + SELF_ONLY:
        metrics[f"{name}.self_s"] = (stat(name, 1), "s")
    for name in ITEMS:
        metrics[f"{name}.items"] = (stat(name, 2), "count")
    metrics["search.max_intersecting_family.vertices"] = (
        stat("search.max_intersecting_family", 2), "count")
    metrics["search.max_intersecting_family.max_vertices"] = (
        stat("search.max_intersecting_family", 3), "count")
    starts = stat("cycles.interval_start", 0)
    metrics["cycles.interval_start.hit_ratio"] = (
        stat("cycles.interval_start", 2) / starts if starts else 0.0, "ratio")
    for module in MODULES:
        module_s = sum(entry[1] for name, entry in stats.items() if name.split(".")[0] == module)
        metrics[f"{module}.self_s"] = (module_s, "s")
    metrics["cli.pool_wait_s"] = (stat(POOL_WAIT, 1), "s")
    metrics["cli.startup_s"] = (trace["startup_s"], "s")
    metrics["trace.unattributed_s"] = (trace["unattributed_s"], "s")
    metrics["trace.worker_s"] = (trace["worker_s"], "s")
    metrics["trace.wall_s"] = (trace["wall_s"], "s")
    return metrics


def load_expected(workload: str) -> dict:
    return json.loads((EXPECTED / f"{workload}.json").read_text(encoding="utf-8"))


def set_up(workload: str, workdir: Path) -> float:
    """Time one set-up: a fresh interpreter imports ekrcheck.cli and writes
    the workload's input files."""
    out, err = workdir / "setup.out", workdir / "setup.err"
    for name in workloads.INPUT_GRAPHS.get(workload, {}):
        (workdir / name).unlink(missing_ok=True)
    child = spawn([sys.executable, str(BENCH / "workloads.py"), workload, str(workdir)],
                  workdir, out, err)
    if child.exit_code != 0 or err.read_text(encoding="utf-8"):
        raise RuntimeError(f"set-up failed with exit {child.exit_code}: "
                           f"{err.read_text(encoding='utf-8')}")
    return child.wall_s


def _summarize(outcomes: list[Outcome]) -> dict[str, float]:
    return {
        "wall_s": sum(o.child.wall_s for o in outcomes),
        "cpu_s": sum(o.child.cpu_s for o in outcomes),
        "peak_rss_mb": max(o.child.maxrss_kb for o in outcomes) / 1024,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    plan = workloads.runs(workload, seed)
    expected = load_expected(workload)
    setups: list[float] = []
    untraced: list[dict] = []
    traced: list[dict[str, tuple[float, str]]] = []
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    while True:
        setups += [set_up(workload, workdir) for _ in range(SETUPS_PER_PASS)]
        use_trace = trace and len(traced) < len(untraced)
        outcomes = run_pass(plan, expected, workdir, use_trace)
        attempted += len(outcomes)
        for outcome in outcomes:
            if outcome.failure is not None:
                failed += 1
                print(f"FAIL {outcome.run.name}: {outcome.failure}")
        summary = _summarize(outcomes)
        print(f"pass {len(untraced) + len(traced) + 1} ({'traced' if use_trace else 'untraced'}): "
              f"wall {summary['wall_s']:.3f} s, cpu {summary['cpu_s']:.3f} s, "
              f"failed {failed_ratio(outcomes):.3f}")
        if use_trace:
            traced.append(layer_metrics(merge_traces(outcomes)))
        else:
            untraced.append(summary)
        if time.monotonic() >= deadline and (traced or not trace):
            break

    consistent = True
    if trace:
        metrics = {}
        for name, (value, unit) in traced[0].items():
            values = [pass_metrics[name][0] for pass_metrics in traced]
            if unit == "count":
                # Counters are deterministic: every traced pass must agree.
                consistent &= len(set(values)) == 1
                metrics[name] = {"value": value, "unit": unit}
            else:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
        untraced_wall = statistics.median(p["wall_s"] for p in untraced)
        metrics["trace.overhead_ratio"] = {
            "value": metrics["trace.wall_s"]["value"] / untraced_wall - 1, "unit": "ratio"}
    else:
        metrics = {name: {"value": statistics.median(p[name] for p in untraced), "unit": unit}
                   for name, unit in END_TO_END.items() if name != "setup_s"}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    if not consistent:
        print("FAIL counters differ between traced passes")
    return {"correct": failed == 0 and consistent, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def record(workload: str, workdir: Path) -> Path:
    set_up(workload, workdir)
    entries = []
    for outcome in run_pass(workloads.runs(workload, 0), {}, workdir):
        if outcome.run.sampled:
            continue
        err = (workdir / f"{outcome.run.name}.err").read_text(encoding="utf-8")
        if err:
            raise RuntimeError(f"{outcome.run.name} wrote to stderr: {err}")
        report = json.loads((workdir / f"{outcome.run.name}.json").read_text(encoding="utf-8"))
        entry = {"exit": outcome.child.exit_code, "report": strip_elapsed(report)}
        entries.append(f"{json.dumps(outcome.run.name)}: {json.dumps(entry, sort_keys=True)}")
    path = EXPECTED / f"{workload}.json"
    EXPECTED.mkdir(exist_ok=True)
    path.write_text("{\n" + ",\n".join(entries) + "\n}\n", encoding="utf-8")
    return path


@contextlib.contextmanager
def work_directory():
    """A fresh directory under ``.bench_work/`` in the checkout, removed on
    exit together with ``.bench_work/`` once that is empty."""
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir)
        try:
            work_root.rmdir()
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the workload's expected reports instead of measuring")
    args = parser.parse_args(argv)
    if not (SRC / "ekrcheck" / "cli.py").is_file():
        print(f"bench: no ekrcheck sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    with work_directory() as workdir:
        if args.record:
            print(f"wrote {record(args.workload, workdir)}")
            return 0
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
