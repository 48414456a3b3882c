"""Compare the benchmark results of two commits on one workload.

    python3 bench/compare.py parent.jsonl change.jsonl

Each file holds one result line per run, as run.py prints it last, all for
one workload and one ``--trace`` setting.  Metrics with unit ``count`` are
deterministic and compared exactly: any difference is listed.  Every other
metric is compared by its median over the runs.  An end-to-end metric whose
median got worse by more than its bound in BENCHMARK.json is a regression,
and so is any run that failed; the exit code is then 1.  A metric whose
parent runs spread (quartile distance over median) wider than its bound is
reported as unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> tuple[dict[str, list[float]], dict[str, str], int]:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failed = 0
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        result = json.loads(line)
        failed += result["failed"] + (not result["correct"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    return values, units, failed


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main(parent_path: str, change_path: str) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, units, parent_failed = load(parent_path)
    change, _, change_failed = load(change_path)
    regressed = change_failed > parent_failed
    print(f"failed runs: parent {parent_failed}, change {change_failed}")
    identical = 0
    for name in sorted(set(parent) | set(change)):
        old, new = parent.get(name, []), change.get(name, [])
        if not old or not new:
            print(f"{name}: only in {'change' if new else 'parent'}")
            continue
        if units[name] == "count":
            if set(old) != set(new) or len(set(old)) != 1:
                print(f"{name}: {sorted(set(old))} -> {sorted(set(new))}")
            else:
                identical += 1
            continue
        before, after = statistics.median(old), statistics.median(new)
        change_ratio = (after - before) / before if before else 0.0
        better = declared.get(name, {}).get("better", "lower")
        worse_by = change_ratio if better == "lower" else -change_ratio
        bound = declared.get(name, {}).get("bound")
        verdict = ""
        if bound is not None:
            if spread(old) > bound:
                verdict = "unresolved (parent spread wider than the bound)"
            elif worse_by > bound:
                verdict = f"REGRESSED beyond {bound:.0%}"
                regressed = True
            else:
                verdict = f"within {bound:.0%}"
        print(f"{name}: {before:.6g} -> {after:.6g} {units[name]} ({change_ratio:+.1%}, "
              f"spread {spread(old):.1%} / {spread(new):.1%}) {verdict}")
    print(f"{identical} count metrics identical")
    return 1 if regressed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
