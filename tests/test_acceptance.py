"""Acceptance suite: one test per criterion, at the stated budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Each line reports PASS/FAIL and the measured runtime against
the criterion's wall-clock budget.
"""

import json
import time
from contextlib import contextmanager
from random import Random

import pytest

from ekrcheck import (
    Family,
    binomial,
    cartesian_product,
    complete_graph,
    cycle_graph,
    empty_graph,
    enumerate_placements,
    graph_ekr_report,
    independence_number,
    interval_double_counts,
    lexicographic_product,
    max_intersecting_family,
    maximal_independent_sets,
    min_maximal_independent_size,
    pairwise_intersecting,
    path_graph,
    random_intersecting_family,
    rook_placement_count,
    rook_star_count,
    star_family,
)
from helpers import brute_force_max_intersecting, canonical_json_without_elapsed, run_cli

VERIFY_INSTANCES = [
    ((2, 2, 1), 1),
    ((3, 3, 1), 1),
    ((4, 4, 2), 9),
    ((4, 5, 2), 12),
    ((5, 5, 2), 16),
    ((6, 6, 2), 25),
]

LEMMA1_GRIDS = [(4, 4), (4, 5), (5, 5)]


@contextmanager
def criterion(number, name, limit_seconds):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - started
    in_time = elapsed <= limit_seconds
    status = "PASS" if in_time else "FAIL (over time budget)"
    print(f"\nACCEPTANCE {number} ({name}): {status} [{elapsed:.1f}s of {limit_seconds}s]")
    assert in_time, f"criterion {number} took {elapsed:.1f}s, over its {limit_seconds}s budget"


def _verify_args(n, m, r, threads):
    return ["verify", "--n", str(n), "--m", str(m), "--r", str(r),
            "--json", "--threads", str(threads)]


def _lemma1_args(n, m, threads):
    return ["lemma1", "--n", str(n), "--m", str(m), "--json", "--threads", str(threads)]


@pytest.fixture(scope="session")
def thread1_cli_runs():
    """Reports for criteria 3 and 5, produced once with --threads 1."""
    runs = {}
    for (n, m, r), _ in VERIFY_INSTANCES:
        code, out, err = run_cli(*_verify_args(n, m, r, 1))
        assert code == 0, err
        runs[("verify", n, m, r)] = out
    for n, m in LEMMA1_GRIDS:
        code, out, err = run_cli(*_lemma1_args(n, m, 1))
        assert code == 0, err
        runs[("lemma1", n, m)] = out
    return runs


def test_criterion_1_count_formula():
    with criterion(1, "placement count formula, r <= n <= m <= 6", 60):
        for n in range(1, 7):
            for m in range(n, 7):
                for r in range(1, n + 1):
                    assert len(enumerate_placements(n, m, r)) == rook_placement_count(n, m, r)


def test_criterion_2_star_formula():
    with criterion(2, "star count formula at every cell, r <= n <= m <= 5", 30):
        for n in range(1, 6):
            for m in range(n, 6):
                for r in range(1, n + 1):
                    expected = rook_star_count(n, m, r)
                    for row in range(1, n + 1):
                        for col in range(1, m + 1):
                            assert len(star_family(n, m, r, (row, col))) == expected


def test_criterion_3_rook_verdicts(thread1_cli_runs):
    with criterion(3, "rook grids are EKR at the six named instances", 600):
        for (n, m, r), expected in VERIFY_INSTANCES:
            report = json.loads(thread1_cli_runs[("verify", n, m, r)])
            assert report["result"]["max_intersecting"] == expected
            assert report["result"]["best_star"] == expected
            assert report["result"]["verdict"] == "EKR_HOLDS"
        # cross-check the value 9 by a full subfamily scan on a reduced
        # instance that provably preserves the maximum (it contains a star)
        reduced = sorted(
            set(star_family(4, 4, 2, (1, 1)).sets) | set(star_family(4, 4, 2, (2, 2)).sets)
        )
        assert len(reduced) == 17
        assert brute_force_max_intersecting(reduced) == 9
        assert max_intersecting_family(reduced)[0] == 9


def test_criterion_4_classic_ekr_on_empty_graphs():
    with criterion(4, "classic EKR bound on edgeless graphs, n <= 7", 60):
        for n in range(2, 8):
            for r in range(1, n // 2 + 1):
                report = graph_ekr_report(empty_graph(n), r)
                assert report.max_intersecting == binomial(n - 1, r - 1)
                assert report.verdict == "EKR_HOLDS"


def test_criterion_5_interval_bound(thread1_cli_runs):
    with criterion(5, "per-order interval bound equals r with tightness", 120):
        for n, m in LEMMA1_GRIDS:
            report = json.loads(thread1_cli_runs[("lemma1", n, m)])
            checks = report["result"]["checks"]
            assert [c["r"] for c in checks] == list(range(1, min(n, m) // 2 + 1))
            for check in checks:
                assert check["min_over_orders"] == check["r"]
                assert check["max_over_orders"] == check["r"]
                assert check["all_equal_r"]


def test_criterion_6_occurrence_count():
    with criterion(6, "interval occurrence count over all 36 orders", 60):
        code, out, err = run_cli("occurrence", "--n", "4", "--m", "4", "--r", "1", "--json")
        assert code == 0, err
        assert json.loads(out)["result"]["all_match"]
        code, out, err = run_cli("occurrence", "--n", "4", "--m", "4", "--r", "2", "--json")
        assert code == 0, err
        report = json.loads(out)
        assert report["result"]["all_match"]
        assert report["result"]["expected_occurrences"] == 8
        assert report["result"]["placements"] == 72


def test_criterion_7_double_count_identity():
    with criterion(7, "double-count identity and cycle bound", 60):
        bound = 2 * 36
        star = star_family(4, 4, 2, (1, 1))
        lhs, rhs = interval_double_counts([star])[0]
        assert lhs == rhs == 72
        assert lhs <= bound
        families = [random_intersecting_family(4, 4, 2, Random(seed)) for seed in range(100)]
        for family, (lhs, rhs) in zip(families, interval_double_counts(families)):
            assert pairwise_intersecting(family)
            assert lhs == rhs
            assert lhs <= bound


def test_criterion_8_well_coveredness():
    with criterion(8, "rook grids are well covered with alpha = min(n,m)", 60):
        for n in range(1, 6):
            for m in range(1, 6):
                g = cartesian_product(complete_graph(n), complete_graph(m))
                sizes = {len(s) for s in maximal_independent_sets(g, max_vertices=25)}
                assert sizes == {min(n, m)}


def test_criterion_9_lexicographic_products():
    with criterion(9, "EKR transfers to G[K_2] on the named graph list", 300):
        graph_list = [
            empty_graph(2), empty_graph(3), empty_graph(4),
            path_graph(3), path_graph(4), cycle_graph(4), cycle_graph(5),
        ]
        checked = 0
        for g in graph_list:
            mu = min_maximal_independent_size(g)
            for r in range(1, mu // 2 + 1):
                premise = graph_ekr_report(g, r)
                conclusion = graph_ekr_report(lexicographic_product(g, complete_graph(2)), r)
                assert premise.holds
                if premise.holds:
                    assert conclusion.holds
                    checked += 1
        assert checked == 7  # E2, E3, E4 (r=1,2), P4, C4, C5


def test_criterion_10_search_oracle_equivalence():
    with criterion(10, "search agrees with the full subfamily scan", 120):
        rng = Random(0)
        for _ in range(200):
            n, m = rng.randint(2, 5), rng.randint(2, 5)
            r = rng.randint(1, min(n, m))
            pool = enumerate_placements(n, m, r)
            sample = rng.sample(pool, rng.randint(1, min(len(pool), 18)))
            size, witness = max_intersecting_family(sample)
            assert size == brute_force_max_intersecting(sample)
            assert len(witness) == size
            assert pairwise_intersecting(Family(n, m, r, witness))


def test_criterion_11_thread_determinism(thread1_cli_runs):
    with criterion(11, "byte-identical reports at --threads 1 and 8", 600):
        for (n, m, r), _ in VERIFY_INSTANCES:
            code, out, err = run_cli(*_verify_args(n, m, r, 8))
            assert code == 0, err
            assert canonical_json_without_elapsed(out) == canonical_json_without_elapsed(
                thread1_cli_runs[("verify", n, m, r)]
            )
        for n, m in LEMMA1_GRIDS:
            code, out, err = run_cli(*_lemma1_args(n, m, 8))
            assert code == 0, err
            assert canonical_json_without_elapsed(out) == canonical_json_without_elapsed(
                thread1_cli_runs[("lemma1", n, m)]
            )
