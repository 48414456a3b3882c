import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from math import factorial, perm
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ekrcheck import counts, cycles, enumerate_placements, graphs, load_family, load_graph, search
from ekrcheck import rook, witness
from ekrcheck import cli
from ekrcheck.cli import main
from ekrcheck.errors import InputError, ResourceLimitError, write_json
from helpers import canonical_json_without_elapsed, rook_orbit, run_cli


class TestCount:
    def test_values(self):
        code, out, _ = run_cli("count", "--n", "4", "--m", "4", "--r", "2", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 1
        assert report["result"]["placements"] == 72
        assert report["result"]["star"] == 9

    def test_plain_table_mentions_both_counts(self):
        code, out, _ = run_cli("count", "--n", "4", "--m", "4", "--r", "2")
        assert code == 0
        assert "72" in out and "9" in out


class TestVerify:
    def test_four_by_four(self):
        code, out, _ = run_cli("verify", "--n", "4", "--m", "4", "--r", "2", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["max_intersecting"] == 9
        assert report["result"]["best_star"] == 9
        assert report["result"]["verdict"] == "EKR_HOLDS"
        assert report["counterexample"] is None

    def test_first_placement_meets_no_other(self, capsys):
        assert main(["verify", "--n", "3", "--m", "3", "--r", "1", "--json"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert (result["max_intersecting"], result["witness"]) == (1, [[[1, 1]]])

    def test_missing_r_is_a_usage_error(self):
        code, _, err = run_cli("verify", "--n", "4", "--m", "4")
        assert code == 2
        assert "--r" in err

    def test_budget_exhaustion_is_inconclusive(self):
        code, out, _ = run_cli(
            "verify", "--n", "5", "--m", "5", "--r", "4", "--json", "--budget-seconds", "0"
        )
        assert code == 3
        report = json.loads(out)
        assert report["result"]["status"] == "inconclusive"
        # The star, and the identity order's bound.
        assert (report["result"]["lower_bound"], report["result"]["upper_bound"]) == (96, 120)
        assert report["parameters"]["n"] == 5

    def test_witness_phase_budget_exit_reports_the_exact_maximum(self, tmp_path, capsys):
        # The max phase on this graph's 2-sets closes at its root, but their
        # witness is not their sorted prefix, and its pass needs 4 nodes.
        path = tmp_path / "g5.json"
        path.write_text(json.dumps({"vertices": 5, "edges": [[1, 4], [1, 5], [3, 4]]}))
        argv = ["lex", "--graph", str(path), "--k", "1", "--r", "2", "--json"]
        assert main([*argv, "--budget-nodes", "3"]) == 3
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["reason"] == "premise: clique search exceeded 3 nodes"
        assert result["lower_bound"] == result["upper_bound"] == 4
        assert main([*argv, "--budget-nodes", "4"]) == 0

    def test_max_phase_budget_exit_keeps_the_open_bounds(self):
        # 5x5 r=4 searched with its orbit and the identity order's diagonal
        # intervals: the orbit bound (120) is above the star (96), so the max
        # search runs.  The bounds count the first placement, which the
        # search leaves out.
        diagonals = rook.diagonal_intervals(range(1, 6), range(1, 6), 4)
        with pytest.raises(ResourceLimitError) as info:
            search.max_intersecting_family(
                enumerate_placements(5, 5, 4), search.SearchBudget(max_nodes=1),
                rook_orbit(5, 5, 4), diagonals,
            )
        assert str(info.value) == "clique search exceeded 1 nodes"
        assert (info.value.lower_bound, info.value.upper_bound) == (96, 99)

    @pytest.mark.parametrize("n, r", [(4, 2), (5, 2)])
    @pytest.mark.parametrize("budget", [
        ["--budget-seconds", "0"], ["--budget-sets", "200"],
        ["--budget-seconds", "0", "--budget-sets", "200"],
    ])
    def test_max_phase_closed_by_the_orbit_bound_answers_under_any_budget(
        self, capsys, n, r, budget
    ):
        # The identity order's bound is the star, so the clock is never read;
        # 5x5 at r = 2 has 200 placements, none of them listed.
        argv = ["verify", "--n", str(n), "--m", str(n), "--r", str(r), "--json"]
        assert main(argv) == 0
        full = canonical_json_without_elapsed(capsys.readouterr().out)
        assert main([*argv, *budget]) == 0
        assert canonical_json_without_elapsed(capsys.readouterr().out) == full

    @pytest.mark.parametrize(
        "n, r, bounds",
        [
            # The clock is read before the first union after the identity
            # order's, with the star and that order's bound.
            (5, 4, (96, 120)),
        ],
    )
    def test_zero_seconds_budget_exits_3_on_the_first_node(self, n, r, bounds):
        code, out, _ = run_cli(
            "verify", "--n", str(n), "--m", str(n), "--r", str(r), "--json",
            "--budget-seconds", "0",
        )
        assert code == 3
        result = json.loads(out)["result"]
        assert result["status"] == "inconclusive"
        assert result["reason"] == "the union bound exceeded 0.0 seconds"
        assert (result["lower_bound"], result["upper_bound"]) == bounds

    def test_zero_seconds_budget_exits_3_before_a_large_search_is_built(self):
        # 5,400 placements, whose identity order's bound (900) exceeds the
        # star (600): the clock is read before the next union, and none of
        # them is listed.
        code, out, _ = run_cli(
            "verify", "--n", "6", "--m", "6", "--r", "4", "--json", "--budget-seconds", "0"
        )
        assert code == 3
        result = json.loads(out)["result"]
        assert result["reason"] == "the union bound exceeded 0.0 seconds"
        assert (result["lower_bound"], result["upper_bound"]) == (600, 900)

    def test_a_star_sized_answer_lists_no_placement(self, monkeypatch, capsys):
        # 10x10 r4: 1,058,400 placements, whose orbit bound is the star, so
        # the star at (1, 1) answers and nothing else is listed.
        def refuse(*args):
            raise AssertionError("the placements were listed")

        monkeypatch.setattr(rook, "enumerate_placements", refuse)
        argv = ["verify", "--n", "10", "--m", "10", "--r", "4", "--json"]
        assert main([*argv, "--budget-sets", "1100000"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["max_intersecting"] == result["best_star"] == 42336
        assert result["verdict"] == "EKR_HOLDS"
        assert result["witness"] == json.loads(json.dumps(rook.star_family(10, 10, 4, (1, 1)).sets))
        # The set budget still bounds the placements, as when they were listed.
        monkeypatch.undo()
        assert main(argv) == 3
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["reason"] == "1058400 placements exceed the output budget of 1000000"

    def test_a_rule_that_does_not_close_exits_3_with_the_exact_bounds(self, monkeypatch, capsys):
        # Capped at the identity order alone, 5x5 at r = 4 keeps its bound of
        # 120 over the star of 96, and nothing is listed.
        def refuse(*args):
            raise AssertionError("the placements were listed")

        monkeypatch.setattr(rook, "enumerate_placements", refuse)
        monkeypatch.setattr(search, "MAX_UNION_ORDERS", 1)
        assert main(["verify", "--n", "5", "--m", "5", "--r", "4", "--json"]) == 3
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["reason"] == "the union bound stays above the star through 1-order unions"
        assert (result["lower_bound"], result["upper_bound"]) == (96, 120)

    def test_enumeration_budgets_exit_3(self):
        code, out, _ = run_cli("orders", "--n", "8", "--m", "8", "--json")
        assert code == 3
        assert json.loads(out)["result"]["status"] == "inconclusive"
        code, _, _ = run_cli(
            "enumerate", "--n", "8", "--m", "8", "--r", "4", "--budget-sets", "100", "--json"
        )
        assert code == 3
        code, _, _ = run_cli(
            "product", "--kind", "lexicographic", "--graph", "K70", "--graph", "K70", "--json"
        )
        assert code == 3


class TestSweeps:
    def test_lemma1(self):
        code, out, _ = run_cli("lemma1", "--n", "4", "--m", "4", "--r", "2", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["all_pass"]
        (check,) = report["result"]["checks"]
        assert check["min_over_orders"] == check["max_over_orders"] == 2

    def test_lemma1_sweeps_all_r_when_omitted(self):
        code, out, _ = run_cli("lemma1", "--n", "4", "--m", "4", "--json")
        assert code == 0
        assert [c["r"] for c in json.loads(out)["result"]["checks"]] == [1, 2]

    def test_occurrence(self):
        code, out, _ = run_cli("occurrence", "--n", "4", "--m", "4", "--r", "2", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["all_match"]
        assert report["result"]["expected_occurrences"] == 8

    def test_occurrence_at_seven_by_seven_r3(self):
        code, out, _ = run_cli("occurrence", "--n", "7", "--m", "7", "--r", "3", "--json")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["all_match"]
        assert (result["placements"], result["expected_occurrences"]) == (7350, 3456)

    def test_full_placements_at_r_equal_to_n_and_m(self):
        # Each order realizes a full placement at n starts, and counts once.
        code, out, _ = run_cli("count", "--n", "4", "--m", "4", "--r", "4", "--json")
        assert code == 0
        assert json.loads(out)["result"]["interval_occurrences"] == 6
        code, out, _ = run_cli("occurrence", "--n", "4", "--m", "4", "--r", "4", "--json")
        assert code == 0
        assert json.loads(out)["result"]["all_match"] is True
        code, out, _ = run_cli(
            "double-count", "--n", "4", "--m", "4", "--r", "4", "--samples", "3", "--json"
        )
        assert code == 0
        assert json.loads(out)["result"]["all_equal"] is True

    def test_windows(self):
        code, out, _ = run_cli("windows", "--n", "4", "--m", "4", "--r", "2", "--json")
        assert code == 0
        assert json.loads(out)["result"]["all_pass"]

    def test_lemma1_past_a_million_orders(self, capsys):
        # One order stands for all of them, so no order count refuses it.
        assert main(["lemma1", "--n", "8", "--m", "8", "--json"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["all_pass"]
        assert {check["orders"] for check in result["checks"]} == {25401600}

    def test_occurrence_past_a_million_orders(self, capsys):
        assert main(["occurrence", "--n", "8", "--m", "8", "--r", "2", "--json"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["all_match"]
        assert (result["placements"], result["orders"]) == (1568, 25401600)

    @pytest.mark.parametrize("n, m, r", [(4, 4, 2), (3, 5, 3), (4, 4, 4), (8, 8, 5)])
    def test_occurrence_lists_no_placement_and_looks_up_once(self, n, m, r, monkeypatch, capsys):
        # Relabelling keeps every placement's count, so the first placement
        # stands for all of them (cycles docstring, "Relabelling").
        def refuse(*args):
            raise AssertionError("the placements were listed")

        looked_up = []
        original = cycles.interval_tally

        def counted(*args):
            tally = original(*args)

            def lookup(placement):
                looked_up.append(placement)
                return tally(placement)

            return lookup

        monkeypatch.setattr(rook, "enumerate_placements", refuse)
        monkeypatch.setattr(cycles, "interval_tally", counted)
        assert main(["occurrence", "--n", str(n), "--m", str(m), "--r", str(r), "--json"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert looked_up == [tuple((k, k) for k in range(1, r + 1))]
        assert result["all_match"] is True
        assert result["placements"] == counts.rook_placement_count(n, m, r)

    def test_occurrence_beyond_the_tally_budget_exits_3(self, capsys):
        started = time.monotonic()
        assert main(["occurrence", "--n", "12", "--m", "12", "--r", "1", "--json"]) == 3
        assert time.monotonic() - started < 1
        reason = json.loads(capsys.readouterr().out)["result"]["reason"]
        assert reason == (
            "interval tally needs at least 958003344 window steps and products, "
            "over the budget of 50000000"
        )

    def test_occurrence_on_a_grid_the_order_budget_allowed(self, capsys):
        # 9! orders, 10! row window steps: answered before the tally was
        # factored, and still answered under its work guard.
        assert main(["occurrence", "--n", "10", "--m", "1", "--r", "1", "--json"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert (result["placements"], result["orders"], result["all_match"]) == (10, 362880, True)

    @pytest.mark.parametrize("command, n, m, r, work", [
        ("lemma1", 2, 1600, 1, 10240000),
        # 20 * (1600 + 19 * 40 * 79): the base against the 1,600 intervals,
        # then the 40 intervals of each of the 38 windows in pairs.
        ("windows", 40, 40, 20, 1232800),
    ])
    def test_interval_pairs_past_the_budget_exit_3(self, command, n, m, r, work):
        task = {
            "lemma1": f"r=1: comparing {n * m} intervals in pairs",
            "windows": f"checking the windows of one start on the {n} x {m} grid",
        }[command]
        code, out, err = run_cli(command, "--n", str(n), "--m", str(m), "--r", str(r), "--json")
        assert (code, err) == (3, "")
        assert json.loads(out)["result"]["reason"] == (
            f"{task} needs {work} cell steps, over the budget of 1000000"
        )

    @pytest.mark.parametrize("argv", [
        ["lemma1", "--n", "14", "--m", "14", "--r", "100"],
        ["windows", "--n", "300", "--m", "300", "--r", "400"],
    ])
    def test_a_bad_r_exits_2_before_the_work_is_counted(self, argv, capsys):
        assert main([*argv, "--json"]) == 2
        assert "r must satisfy 1 <= r <= min(n,m)/2" in capsys.readouterr().err

    def test_lemma1_counts_each_r_apart(self, capsys):
        # (14 * 14)^2 * r is at most 268,912 for r <= 7; at 20 x 20 every
        # r up to 6 passes, and r = 7 needs 1,120,000.
        assert main(["lemma1", "--n", "14", "--m", "14", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["all_pass"] is True
        assert main(["lemma1", "--n", "20", "--m", "20", "--json"]) == 3
        assert json.loads(capsys.readouterr().out)["result"]["reason"].startswith("r=7: ")

    @pytest.mark.parametrize("argv, reason", [
        (["lemma1", "--n", "1000000", "--m", "1000000"],
         f"r=1: comparing {10**12} intervals in pairs needs {10**24} cell steps"),
        (["windows", "--n", "1000000", "--m", "1000000", "--r", "1"],
         f"checking the windows of one start on the 1000000 x 1000000 grid needs {10**12} "
         "cell steps"),
        (["occurrence", "--n", "1000000", "--m", "1000000", "--r", "1"],
         "interval tally needs at least 958003344 window steps and products"),
        # Each passes its work guard; the number of orders alone is too long.
        (["windows", "--n", "2", "--m", "500000", "--r", "1"],
         "windows on a 2 x 500000 grid: a side exceeds"),
        (["orders", "--n", "1000000", "--m", "1000000"],
         "orders on a 1000000 x 1000000 grid: a side exceeds"),
    ], ids=["lemma1", "windows", "occurrence", "windows-sides", "orders"])
    def test_huge_grids_exit_3_at_once(self, argv, reason, capsys):
        started = time.monotonic()
        assert main([*argv, "--json"]) == 3
        assert time.monotonic() - started < 1
        assert json.loads(capsys.readouterr().out)["result"]["reason"].startswith(reason)

    @pytest.mark.parametrize("n, r", [(24, 6), (24, 12)])
    def test_windows_answers_grids_that_lemma1_refuses(self, n, r, capsys):
        # 37,296 and 155,808 steps; lemma1 would need (24 * 24)^2 * r.
        assert main(["windows", "--n", str(n), "--m", str(n), "--r", str(r), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["all_pass"] is True

    def test_counts_past_4300_digits_are_reported_exactly(self, capsys):
        assert main(["count", "--n", "2", "--m", "1600", "--r", "1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["cyclic_orders"] == factorial(1599)

    def test_count_answers_a_side_at_the_budget(self, capsys):
        assert main(["count", "--n", "10000", "--m", "2", "--r", "1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["cyclic_orders"] == factorial(9999)

    def test_count_past_the_side_budget_exits_3_at_once(self, capsys):
        started = time.monotonic()
        assert main(["count", "--n", "2", "--m", "10001", "--r", "1", "--json"]) == 3
        assert time.monotonic() - started < 1
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["result"]["reason"] == (
            "count on a 2 x 10001 grid: a side exceeds the budget of 10000"
        )


class TestOrdersAndFiles:
    def test_orders_inline(self):
        code, out, _ = run_cli("orders", "--n", "3", "--m", "3", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["count"] == 4
        assert report["result"]["orders"][0] == {"sigma1": [1, 2, 3], "sigma2": [1, 2, 3]}

    def test_enumerate_to_file(self, tmp_path):
        out_path = tmp_path / "family.json"
        code, out, _ = run_cli(
            "enumerate", "--n", "3", "--m", "3", "--r", "2", "--out", str(out_path), "--json"
        )
        assert code == 0
        family = load_family(str(out_path))
        assert len(family) == 18
        assert json.loads(out)["result"]["written"] == str(out_path)

    def test_product_to_file(self, tmp_path):
        out_path = tmp_path / "rook.json"
        code, _, _ = run_cli(
            "product", "--kind", "cartesian",
            "--graph", "K3", "--graph", "K4", "--out", str(out_path), "--json",
        )
        assert code == 0
        g = load_graph(str(out_path))
        assert g.vertex_count == 12
        assert g.edge_count == 3 * 6 + 4 * 3

    def test_product_of_k5_with_itself_is_the_papers_grid(self, capsys):
        argv = ["product", "--kind", "cartesian", "--graph", "K5", "--graph", "K5", "--json"]
        assert main(argv) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert (result["vertices"], result["edge_count"]) == (25, 100)

    @pytest.mark.parametrize("extra, code", [([], 3), (["--vertex-budget", "4200"], 0)])
    def test_product_bound_is_the_larger_budget(self, capsys, extra, code):
        argv = ["product", "--kind", "lexicographic", "--graph", "E70", "--graph", "E60"]
        assert main([*argv, *extra, "--json"]) == code
        result = json.loads(capsys.readouterr().out)["result"]
        if code == 3:
            assert result["reason"] == "product on 4200 vertices exceeds the budget of 4096"
        else:
            assert (result["vertices"], result["edge_count"]) == (4200, 0)

    def test_product_needs_two_graphs(self):
        code, _, err = run_cli("product", "--kind", "cartesian", "--graph", "K3")
        assert code == 2
        assert "two" in err


class TestGraphCommands:
    def test_graph_stats_shorthand(self):
        code, out, _ = run_cli("graph-stats", "--graph", "C5", "--json")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["independence_number"] == 2
        assert result["well_covered"]

    def test_oversized_shorthand_is_refused_before_it_is_built(self):
        code, out, _ = run_cli("graph-stats", "--graph", "K5000", "--json")
        assert code == 3
        result = json.loads(out)["result"]
        assert result["status"] == "inconclusive"
        assert "5000 vertices" in result["reason"]

    def test_graph_stats_rejects_nonsense(self):
        code, _, err = run_cli("graph-stats", "--graph", "Q7")
        assert code == 2
        assert "Q7" in err

    def test_ht(self):
        code, out, _ = run_cli("ht", "--graph", "C4", "--json")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["all_hold"]
        assert len(result["reports"]) == 1
        assert result["reports"][0]["verdict"] == "EKR_HOLDS"

    def test_ht_on_a_claw_has_an_empty_range(self, tmp_path, capsys):
        # The centre alone is a maximal independent set, so mu = 1.
        path = tmp_path / "claw.json"
        graphs.save_graph(graphs.SimpleGraph(4, [(1, 2), (1, 3), (1, 4)]), str(path))
        assert main(["ht", "--graph", str(path), "--json"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert (result["min_maximal_independent_size"], result["reports"]) == (1, [])
        assert result["all_hold"]

    def test_ht_on_the_four_by_four_rook_graph(self, tmp_path, capsys):
        path = tmp_path / "k4xk4.json"
        k4 = graphs.complete_graph(4)
        graphs.save_graph(graphs.cartesian_product(k4, k4), str(path))
        assert main(["ht", "--graph", str(path), "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)["result"]["reports"]
        assert [(report["parameters"]["r"], report["verdict"]) for report in reports] == [
            (1, "EKR_HOLDS"), (2, "EKR_HOLDS"),
        ]

    def test_ht_on_an_edgeless_graph(self, capsys):
        assert main(["ht", "--graph", "E5", "--json"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["min_maximal_independent_size"] == 5
        assert [(report["parameters"]["r"], report["max_intersecting"], report["witness"])
                for report in result["reports"]] == [
            (1, 1, [[1]]),
            (2, 4, [[1, 2], [1, 3], [1, 4], [1, 5]]),
        ]

    def test_ht_on_the_edgeless_graph_at_n_equal_2r_plus_1(self):
        # At r=4 the greedy coloring bound is loose (n = 2r + 1); the cycle
        # certificate closes the maximum search at its root.
        code, out, _ = run_cli("ht", "--graph", "E9", "--json")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["all_hold"]
        maxima = {report["parameters"]["r"]: report["max_intersecting"]
                  for report in result["reports"]}
        assert maxima[4] == 56

    @pytest.mark.parametrize("graph, reports", [("C5", 1), ("E8", 4)])
    def test_ht_computes_mu_once(self, monkeypatch, capsys, graph, reports):
        # One enumeration of the maximal independent sets serves every r.
        calls = []
        original = graphs.maximal_independent_sets

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(graphs, "maximal_independent_sets", counted)
        assert main(["ht", "--graph", graph, "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["result"]["reports"]) == reports
        assert len(calls) == 1

    @pytest.mark.parametrize("argv, failed", [
        (["--graph", "E5", "--k", "2", "--r", "3"], "premise"),
        (["--graph", "E4", "--k", "1", "--r", "3"], "conclusion"),
    ])
    def test_a_failing_lex_run_builds_the_product_once(self, monkeypatch, capsys, argv, failed):
        # A failed conclusion's counterexample is drawn from the product that
        # the conclusion was searched on.
        calls = []
        original = graphs.lexicographic_product

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(graphs, "lexicographic_product", counted)
        assert main(["lex", *argv, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert not report["result"][failed]["verdict"].endswith("HOLDS")
        assert len(calls) == 1

    def test_lex_holds(self):
        code, out, _ = run_cli("lex", "--graph", "E4", "--k", "2", "--r", "2", "--json")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["premise"]["verdict"] == "EKR_HOLDS"
        assert result["conclusion"]["verdict"] == "EKR_HOLDS"
        assert not result["implication_violated"]

    @pytest.mark.parametrize("graph, r, family, star", [
        ("E10", 6, 210, 126), ("E12", 7, 792, 462),
    ])
    def test_lex_on_a_family_whose_members_all_meet(self, tmp_path, graph, r, family, star):
        # Every r-subset of [n] meets every other once 2r > n.  The seed takes
        # them all, so the run needs no search; a search alone took 6.9 s on
        # E10 and ran out of 20 s on E12.
        argv = ["lex", "--graph", graph, "--k", "1", "--r", str(r), "--budget-seconds", "10"]
        code, out, err = run_cli(*argv, "--json")
        assert (code, err) == (1, "")
        result = json.loads(out)["result"]
        for side in ("premise", "conclusion"):
            assert (result[side]["max_intersecting"], result[side]["best_star"]) == (family, star)
        path = tmp_path / "report.json"
        path.write_text(out)
        code, out, _ = run_cli("check-witness", "--report", str(path), "--json")
        assert code == 0
        assert json.loads(out)["result"]["confirmed"]


class TestDoubleCount:
    def test_sampled_mode_is_seeded(self):
        args = ["double-count", "--n", "4", "--m", "4", "--r", "2",
                "--samples", "20", "--seed", "3", "--json"]
        code1, out1, _ = run_cli(*args)
        code2, out2, _ = run_cli(*args)
        assert code1 == code2 == 0
        assert canonical_json_without_elapsed(out1) == canonical_json_without_elapsed(out2)
        report = json.loads(out1)
        assert report["seed"] == 3
        assert report["result"]["all_equal"]
        assert report["result"]["all_within_bound"]

    def test_family_file_mode(self, tmp_path):
        out_path = tmp_path / "family.json"
        run_cli("enumerate", "--n", "4", "--m", "4", "--r", "2", "--out", str(out_path))
        code, out, _ = run_cli("double-count", "--family", str(out_path), "--json")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["lhs"] == result["rhs"] == 72 * 8

    def test_sampled_families_share_one_tally(self, monkeypatch, capsys):
        calls, lookups = [], []
        original = cycles.interval_tally

        def counted(*args):
            calls.append(args)
            tally = original(*args)

            def looked_up(placement):
                lookups.append(placement)
                return tally(placement)

            return looked_up

        monkeypatch.setattr(cycles, "interval_tally", counted)
        argv = ["double-count", "--n", "4", "--m", "4", "--r", "2", "--samples", "6", "--json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["result"]["families"] == 6
        assert len(calls) == 1
        # The one memoized lookup answers every member of every sampled
        # family, and is asked for each distinct member once.
        families = [rook.random_intersecting_family(4, 4, 2, Random(i)) for i in range(6)]
        members = [member for family in families for member in family]
        assert len(set(members)) < len(members)
        assert lookups == list(dict.fromkeys(members))

    def test_order_budget_exits_3(self):
        # The tally's work guard, not the number of orders, makes it fail closed.
        code, out, _ = run_cli(
            "double-count", "--n", "12", "--m", "12", "--r", "1", "--samples", "1", "--json"
        )
        assert code == 3
        assert json.loads(out)["result"]["reason"] == (
            "interval tally needs at least 958003344 window steps and products, "
            "over the budget of 50000000"
        )

    def test_a_tally_past_the_budget_exits_3_before_any_family_is_sampled(
        self, monkeypatch, capsys
    ):
        # Each sample starts from a star, 1,058,400 placements at 11 x 11 r = 5.
        def unbuilt(*args):
            raise AssertionError("a family was sampled")

        monkeypatch.setattr(rook, "star_family", unbuilt)
        argv = ["double-count", "--n", "11", "--m", "11", "--r", "5", "--json"]
        assert main(argv) == 3
        work = 2 * factorial(11) + perm(11, 5) ** 2
        assert json.loads(capsys.readouterr().out)["result"]["reason"] == (
            f"interval tally needs at least {work} window steps and products, "
            "over the budget of 50000000"
        )
        assert main([*argv, "--samples", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["families"] == 0
        assert main([*argv[:-2], "12", "--json"]) == 2
        assert capsys.readouterr().err == "ekrcheck: error: r must be in 1..min(n,m)=11, got 12\n"

    @pytest.mark.parametrize("grid, message", [
        (["0", "3", "1"], "grid dimensions must be at least 1, got (0, 3)"),
        (["3", "3", "4"], "r must be in 1..min(n,m)=3, got 4"),
    ])
    @pytest.mark.parametrize("samples", ["0", "2"])
    def test_a_bad_grid_exits_2_whatever_the_samples(self, capsys, grid, message, samples):
        n, m, r = grid
        argv = ["double-count", "--n", n, "--m", m, "--r", r, "--samples", samples, "--json"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"ekrcheck: error: {message}\n")

    def test_needs_family_or_grid(self):
        code, _, err = run_cli("double-count")
        assert code == 2
        assert "family" in err

    @pytest.mark.parametrize("flag", ["--n", "--m", "--r"])
    def test_family_mode_refuses_a_grid_flag(self, tmp_path, capsys, flag):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(FAMILY))
        assert main(["double-count", "--family", str(path), flag, "9", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"ekrcheck: error: {flag} cannot be given with --family: the file gives the grid\n"
        )


class TestViolationsAndWitnesses:
    def test_out_of_range_failure_produces_counterexample(self, tmp_path):
        code, out, _ = run_cli("lex", "--graph", "E4", "--k", "1", "--r", "3", "--json")
        assert code == 1
        report = json.loads(out)
        payload = report["counterexample"]
        assert payload["kind"] == "intersecting_family_exceeds_star"
        report_path = tmp_path / "report.json"
        report_path.write_text(out)
        check_code, check_out, _ = run_cli("check-witness", "--report", str(report_path), "--json")
        assert check_code == 0
        assert json.loads(check_out)["result"]["confirmed"]

    def test_tampered_counterexample_is_refuted(self, tmp_path):
        _, out, _ = run_cli("lex", "--graph", "E4", "--k", "1", "--r", "3", "--json")
        report = json.loads(out)
        report["counterexample"]["family"] = report["counterexample"]["family"][:2]
        report_path = tmp_path / "tampered.json"
        report_path.write_text(json.dumps(report))
        code, check_out, _ = run_cli("check-witness", "--report", str(report_path), "--json")
        assert code == 1
        assert not json.loads(check_out)["result"]["confirmed"]

    def test_non_intersecting_claim_is_refuted(self, tmp_path):
        fake = {
            "schema": 1,
            "command": "verify",
            "counterexample": {
                "kind": "intersecting_family_exceeds_star",
                "context": {"type": "rook", "n": 2, "m": 2, "r": 2},
                "family": [[[1, 1], [2, 2]], [[1, 2], [2, 1]]],
                "best_star": 1,
            },
        }
        report_path = tmp_path / "fake.json"
        report_path.write_text(json.dumps(fake))
        code, out, _ = run_cli("check-witness", "--report", str(report_path), "--json")
        assert code == 1
        assert "intersecting" in json.loads(out)["result"]["detail"]

    def test_report_without_counterexample_is_an_input_error(self, tmp_path):
        _, out, _ = run_cli("verify", "--n", "2", "--m", "2", "--r", "1", "--json")
        report_path = tmp_path / "clean.json"
        report_path.write_text(out)
        code, _, err = run_cli("check-witness", "--report", str(report_path))
        assert code == 2
        assert "counterexample" in err


class TestForcedCounterexamples:
    """Each sweep's counterexample producer, forced by a faulty stub: the
    run exits 1 with the payload, and check-witness, whose recomputation
    is correct, refutes it once the stub is gone."""

    def run(self, monkeypatch, capsys, argv: list[str]) -> dict:
        assert main([*argv, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        monkeypatch.undo()
        assert _check_witness_in_process(report)[0] == 1
        return report

    def test_occurrence(self, monkeypatch, capsys):
        original = cycles.interval_tally

        def off_by_one(*args):
            tally = original(*args)
            return lambda placement: tally(placement) + 1

        monkeypatch.setattr(cycles, "interval_tally", off_by_one)
        report = self.run(monkeypatch, capsys, ["occurrence", "--n", "4", "--m", "4", "--r", "2"])
        expected = counts.interval_occurrence_count(4, 4, 2)
        assert report["result"]["all_match"] is False
        assert report["counterexample"] == {
            "kind": "occurrence_mismatch", "n": 4, "m": 4, "placement": [[1, 1], [2, 2]],
            "expected": expected, "found": expected + 1,
        }

    def test_double_count(self, monkeypatch, capsys):
        original = cycles.interval_double_counts

        def unequal(families):
            return [cycles.DoubleCount(lhs, rhs + 1) for lhs, rhs in original(families)]

        monkeypatch.setattr(cycles, "interval_double_counts", unequal)
        argv = ["double-count", "--n", "4", "--m", "4", "--r", "2", "--samples", "2"]
        report = self.run(monkeypatch, capsys, argv)
        payload = report["counterexample"]
        assert report["result"]["all_equal"] is False
        assert payload["kind"] == "double_count_violation"
        assert (payload["family"]["n"], payload["family"]["m"], payload["family"]["r"]) == (4, 4, 2)
        assert payload["rhs"] == payload["lhs"] + 1
        assert payload["bound"] == report["result"]["bound"] == 2 * 36

    @pytest.mark.parametrize("lhs, asked", [(72, 0), (73, 1)])
    def test_only_an_intersecting_family_is_held_to_the_bound(
        self, monkeypatch, capsys, tmp_path, lhs, asked
    ):
        # Two disjoint placements, so an lhs above the bound, r times the
        # orders, is no fault; whether they meet is asked only then.
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"n": 4, "m": 4, "r": 2, "sets": [
            [[1, 1], [2, 2]], [[3, 3], [4, 4]],
        ]}))
        monkeypatch.setattr(cycles, "interval_double_counts",
                            lambda families: [cycles.DoubleCount(lhs, lhs)])
        calls = []
        original = rook.pairwise_intersecting

        def counted(family):
            calls.append(family)
            return original(family)

        monkeypatch.setattr(rook, "pairwise_intersecting", counted)
        assert main(["double-count", "--family", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["counterexample"] is None
        assert report["result"]["all_within_bound"] is True
        assert (report["result"]["lhs"], report["result"]["bound"]) == (lhs, 72)
        assert len(calls) == asked

    def test_ht(self, monkeypatch, capsys):
        original = search.graph_ekr_report

        def failing_from_r2(g, r, *args, **kwargs):
            report = original(g, r, *args, **kwargs)
            if r < 2:
                return report
            return search.EkrReport(
                report.parameters, report.max_intersecting, report.max_intersecting - 1,
                search.VERDICT_FAILS, report.witness, report.elapsed,
            )

        monkeypatch.setattr(search, "graph_ekr_report", failing_from_r2)
        report = self.run(monkeypatch, capsys, ["ht", "--graph", "E8"])
        result, payload = report["result"], report["counterexample"]
        # Every r is still reported, and the first failure gives the payload.
        assert [entry["verdict"] for entry in result["reports"]] == \
            ["EKR_HOLDS"] + ["EKR_FAILS"] * 3
        assert result["all_hold"] is False
        assert payload["kind"] == "intersecting_family_exceeds_star"
        assert payload["context"]["r"] == 2
        assert payload["family"] == result["reports"][1]["witness"]
        assert len(payload["family"]) == 7 and payload["best_star"] == 6


class TestOutputContract:
    def test_json_mode_emits_exactly_one_document(self):
        _, out, _ = run_cli("verify", "--n", "3", "--m", "3", "--r", "1", "--json")
        json.loads(out)  # would fail on trailing junk

    def test_reruns_are_byte_identical(self):
        args = ["verify", "--n", "4", "--m", "4", "--r", "2", "--json"]
        _, out1, _ = run_cli(*args)
        _, out2, _ = run_cli(*args)
        assert canonical_json_without_elapsed(out1) == canonical_json_without_elapsed(out2)

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(
        st.integers() | st.text(),
        lambda inner: (st.lists(inner) | st.tuples(inner, inner) | st.tuples(inner)
                       | st.dictionaries(st.text(), inner)),
        max_leaves=30,
    ))
    def test_tuples_are_written_as_lists(self, document):
        def as_lists(value):
            if isinstance(value, dict):
                return {key: as_lists(item) for key, item in value.items()}
            if isinstance(value, (list, tuple)):
                return [as_lists(item) for item in value]
            return value

        written = []
        for doc in (document, as_lists(document)):
            stream = io.StringIO()
            write_json(doc, stream)
            written.append(stream.getvalue())
        assert written[0] == written[1]

    def test_table_counts_the_witness_entries(self):
        code, out, _ = run_cli("verify", "--n", "4", "--m", "4", "--r", "2")
        assert code == 0
        assert ["witness", "<9", "entries>"] in [line.split() for line in out.splitlines()]

    def test_table_rows_have_distinct_keys(self, capsys):
        # verify's result has its own elapsed_ms, printed as result.elapsed_ms.
        assert main(["verify", "--n", "4", "--m", "4", "--r", "2"]) == 0
        keys = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert len(keys) == len(set(keys))
        assert keys[-2:] == ["result.elapsed_ms", "elapsed_ms"]

    def test_main_is_callable_in_process(self, capsys):
        assert main(["count", "--n", "3", "--m", "3", "--r", "1", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["placements"] == 9

    def test_threads_do_not_change_reports(self):
        base = ["lemma1", "--n", "4", "--m", "4", "--r", "2", "--json"]
        _, out1, _ = run_cli(*base, "--threads", "1")
        _, out2, _ = run_cli(*base, "--threads", "4")
        assert canonical_json_without_elapsed(out1) == canonical_json_without_elapsed(out2)

    def test_a_closed_pipe_exits_141_without_a_traceback(self):
        # orders 6 x 6 writes megabytes, far past what the pipe holds, so the
        # command is still writing when the reader stops after one line.
        proc = subprocess.Popen(
            [sys.executable, "-m", "ekrcheck", "orders", "--n", "6", "--m", "6", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 141
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, code", [
        (["count", "--n", "4", "--m", "4", "--r", "2", "--json"], 0),
        (["count", "--n", "4", "--m", "4", "--r", "2"], 0),
        (["lex", "--graph", "E5", "--k", "2", "--r", "3", "--json"], 1),
        (["verify", "--n", "4", "--m", "4", "--json"], 2),
        (["verify", "--n", "5", "--m", "5", "--r", "4", "--budget-seconds", "0", "--json"], 3),
    ])
    def test_python_m_exits_as_main_returns(self, capsys, argv, code):
        proc_code, proc_out, _ = run_cli(*argv)
        assert main(argv) == proc_code == code
        out = capsys.readouterr().out
        if "--json" in argv and code != 2:
            assert canonical_json_without_elapsed(out) == canonical_json_without_elapsed(proc_out)
        else:  # a table ends in its elapsed_ms row; a usage error prints nothing
            assert out.splitlines()[:-1] == proc_out.splitlines()[:-1]

    def test_a_closed_pipe_exits_141_from_python_m_and_from_main(self, monkeypatch):
        argv = ["count", "--n", "4", "--m", "4", "--r", "2", "--json"]
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "ekrcheck", *argv],
                                  stdout=write, stderr=subprocess.PIPE, timeout=120)
            with open(write, "w", closefd=False) as stream:
                monkeypatch.setattr(sys, "stdout", stream)
                code = main(argv)
                monkeypatch.undo()
        finally:
            os.close(write)
        assert proc.returncode == code == 141
        assert proc.stderr == b""


def json_values():
    """Nested JSON-like values, with what the writer leaves to ``json``:
    floats (nan and inf too), keys that are not str, and strings that need
    escapes (quotes, backslashes, control, non-ASCII and astral
    characters)."""
    strings = st.text() | st.text(st.sampled_from('a "\\\x00\x1f\x7f\né\u20ac\U0001f600\ud800'))
    leaves = (st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40)
              | st.floats() | strings)
    keys = strings | st.integers() | st.booleans() | st.none() | st.floats(allow_nan=False)
    return st.recursive(leaves, lambda inner: (
        st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(strings, inner)
        | st.dictionaries(keys, inner) | st.lists(st.lists(st.integers()))
    ), max_leaves=40)


class Batches:
    """A text stream that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


class TestJsonWriter:
    """``write_json`` writes the text of ``json.JSONEncoder(indent=2)``."""

    @settings(max_examples=200, deadline=None)
    @given(json_values())
    def test_the_text_is_that_of_the_json_encoder(self, document):
        stream = io.StringIO()
        write_json(document, stream)
        assert stream.getvalue() == json.dumps(document, indent=2) + "\n"

    @pytest.mark.parametrize("workload", ["cycle-sweep", "graph-sweep", "rook-verify"])
    def test_every_expected_benchmark_report_reencodes(self, workload):
        bench = os.path.join(os.path.dirname(__file__), "..", "bench")
        with open(os.path.join(bench, "expected", f"{workload}.json"), encoding="utf-8") as fh:
            expected = json.load(fh)
        assert expected
        for entry in expected.values():
            stream = io.StringIO()
            write_json(entry["report"], stream)
            assert stream.getvalue() == json.dumps(entry["report"], indent=2) + "\n"

    @pytest.mark.parametrize("document", [
        {"orders": [{"sigma1": [1, 2, i], "sigma2": (i, "x")} for i in range(5000)]},
        # A witness: each placement is one piece, not the whole list.
        {"witness": [((1, 1), (2, i)) for i in range(10000)]},
    ], ids=["orders", "witness"])
    def test_a_large_document_is_written_in_batches(self, document):
        stream = Batches()
        write_json(document, stream)
        assert len(stream.writes) > 2
        assert "".join(stream.writes) == json.dumps(document, indent=2) + "\n"


# A minimal run of each command, and the flags it reads among those that
# every command used to take; all of them also take --json and --threads.
COMMAND_RUNS = {
    "count": (["--n", "3", "--m", "3", "--r", "1"], []),
    "enumerate": (["--n", "3", "--m", "3", "--r", "1"], ["--out", "--budget-sets"]),
    "verify": (["--n", "3", "--m", "3", "--r", "1"], ["--budget-seconds", "--budget-sets"]),
    "lemma1": (["--n", "3", "--m", "3"], []),
    "occurrence": (["--n", "3", "--m", "3", "--r", "1"], ["--budget-sets"]),
    "double-count": (["--n", "3", "--m", "3", "--r", "1", "--samples", "1"], ["--seed"]),
    "windows": (["--n", "3", "--m", "3", "--r", "1"], []),
    "orders": (["--n", "3", "--m", "3"], ["--out", "--budget-sets"]),
    "graph-stats": (["--graph", "C5"], ["--vertex-budget"]),
    "product": (["--kind", "cartesian", "--graph", "K2", "--graph", "K3"],
                ["--vertex-budget", "--out"]),
    "ht": (["--graph", "E3"],
           ["--budget-nodes", "--budget-seconds", "--budget-sets", "--vertex-budget"]),
    "lex": (["--graph", "E3", "--k", "1", "--r", "1"],
            ["--budget-nodes", "--budget-seconds", "--budget-sets", "--vertex-budget"]),
    "check-witness": (["--report", "{report}"], []),
}
# A value each of those flags accepts.
SHARED_FLAGS = {
    "--out": "artifact.json", "--seed": "1", "--budget-nodes": "1000", "--budget-seconds": "60",
    "--budget-sets": "1000", "--vertex-budget": "24",
}


class TestEachCommandTakesOnlyItsFlags:
    def test_the_table_covers_every_command(self):
        assert sorted(cli._COMMANDS) == sorted(COMMAND_RUNS)

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, (_, reads) in COMMAND_RUNS.items()
        for flag in SHARED_FLAGS if flag not in reads
    ])
    def test_a_flag_the_command_does_not_read_exits_2(self, capsys, command, flag):
        argv, _ = COMMAND_RUNS[command]
        assert main([command, *argv, flag, SHARED_FLAGS[flag], "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} {SHARED_FLAGS[flag]}" in captured.err

    @pytest.mark.parametrize("command", sorted(COMMAND_RUNS))
    def test_every_command_runs_with_threads_and_the_flags_it_reads(
        self, tmp_path, monkeypatch, capsys, command
    ):
        monkeypatch.chdir(tmp_path)
        report = {"counterexample": PAYLOADS["window"]}
        (tmp_path / "report.json").write_text(json.dumps(report))
        argv, reads = COMMAND_RUNS[command]
        argv = [arg.replace("{report}", "report.json") for arg in argv]
        flags = [part for flag in reads for part in (flag, SHARED_FLAGS[flag])]
        for threads in ("1", "8"):
            code = main([command, *argv, *flags, "--threads", threads, "--json"])
            captured = capsys.readouterr()
            # check-witness refutes the made-up window counterexample (exit 1)
            assert (code, captured.err) == (1 if command == "check-witness" else 0, "")
            assert json.loads(captured.out)["command"] == command


    @pytest.mark.parametrize("command", sorted(COMMAND_RUNS))
    def test_help_is_that_of_the_parser_of_every_command(self, capsys, command):
        # A run builds only its own command's parser; its help must not change.
        argv, _ = COMMAND_RUNS[command]
        full, _ = cli.build_parser().parse_known_args([command, *argv])
        assert main([command, "--help"]) == 0
        assert capsys.readouterr().out == full.parser.format_help()

    def test_an_unknown_command_lists_every_command(self, capsys):
        assert main(["bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice" in captured.err and "bogus" in captured.err
        choices = captured.err.split("choose from", 1)[1]
        assert all(command in choices for command in cli._COMMANDS)

    def test_an_unknown_flag_prints_the_usage_of_the_command(self, capsys):
        assert main(["verify", "--n", "4", "--m", "4", "--r", "2", "--out", "x.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ekrcheck verify ")
        assert captured.err.endswith(
            "ekrcheck verify: error: unrecognized arguments: --out x.json\n"
        )


# The family file that the double-count runs below read.
FAMILY = {"n": 3, "m": 3, "r": 1, "sets": [[[1, 1]]]}
# A run of each command that can exit 3, which exits 0 as it stands, and
# the extra flags or the lowered module bound that make the same run exit 3.
BUDGET_EXITS = [
    (["count", "--n", "3", "--m", "3", "--r", "1"], [], (cli, "COUNT_SIDE_BUDGET", 1)),
    (["enumerate", "--n", "3", "--m", "3", "--r", "1"], ["--budget-sets", "1"], None),
    (["verify", "--n", "5", "--m", "5", "--r", "4"], ["--budget-seconds", "0"], None),
    (["lemma1", "--n", "4", "--m", "4"], [], (cycles, "INTERVAL_WORK_BUDGET", 0)),
    (["lemma1", "--n", "4", "--m", "4", "--r", "2"], [], (cycles, "INTERVAL_WORK_BUDGET", 0)),
    (["occurrence", "--n", "4", "--m", "4", "--r", "2"], ["--budget-sets", "1"], None),
    (["double-count", "--n", "4", "--m", "4", "--r", "2", "--samples", "2"], [],
     (cycles, "TALLY_WORK_BUDGET", 0)),
    (["double-count", "--family", "family.json"], [], (cycles, "TALLY_WORK_BUDGET", 0)),
    # windows 4 x 4 at r = 2 takes 2 * (16 + 4 * 7) = 88 steps, one over this bound.
    (["windows", "--n", "4", "--m", "4", "--r", "2"], [], (cycles, "INTERVAL_WORK_BUDGET", 87)),
    (["orders", "--n", "3", "--m", "3"], ["--budget-sets", "1"], None),
    (["graph-stats", "--graph", "C5"], ["--vertex-budget", "1"], None),
    (["product", "--kind", "cartesian", "--graph", "K2", "--graph", "K3"],
     ["--vertex-budget", "0"], (graphs, "DEFAULT_PRODUCT_VERTEX_BUDGET", 0)),
    (["ht", "--graph", "E5"], ["--budget-sets", "0"], None),
    (["lex", "--graph", "E4", "--k", "2", "--r", "2"], ["--budget-sets", "5"], None),
]


class TestBudgetExitsNameTheirBounds:
    """An ht budget exit names the r, and a lex exit the report, whose
    bounds it carries."""

    @pytest.mark.parametrize("argv, reason, bounds", [
        # C10 answers r = 1 without a node; r = 2 stops at its first.
        (["ht", "--graph", "C10", "--budget-seconds", "0"],
         "r=2: clique search exceeded 0.0 seconds", (7, 10)),
        (["ht", "--graph", "E5", "--budget-sets", "0"],
         "r=1: more than 0 independent sets; raise the budget to enumerate", (None, None)),
        (["lex", "--graph", "C10", "--k", "2", "--r", "2", "--budget-nodes", "0"],
         "premise: clique search exceeded 0 nodes", (7, 10)),
        (["lex", "--graph", "E4", "--k", "2", "--r", "3", "--budget-nodes", "3"],
         "conclusion: clique search exceeded 3 nodes", (12, 16)),
        # The conclusion takes mu from the premise, and still refuses G[K_3]
        # on 36 vertices once its sets are listed.
        (["lex", "--graph", "E12", "--k", "3", "--r", "2"],
         "conclusion: exhaustive search on 36 vertices exceeds the budget of 24", (None, None)),
    ], ids=["ht-seconds", "ht-sets", "lex-premise", "lex-conclusion", "lex-conclusion-vertices"])
    def test_the_reason_names_the_report(self, capsys, argv, reason, bounds):
        assert main([*argv, "--json"]) == 3
        result = json.loads(capsys.readouterr().out)["result"]
        assert (result["reason"], result["lower_bound"], result["upper_bound"]) == (reason, *bounds)

    @pytest.mark.parametrize("argv, budget", [
        (["ht", "--graph", "E10"], ["--budget-seconds", "0"]),
        (["lex", "--graph", "E4", "--k", "2", "--r", "2"], ["--budget-nodes", "0"]),
    ])
    def test_reports_the_sorted_prefix_answers_read_no_budget(self, capsys, argv, budget):
        # Each report's witness is the sorted prefix of its sets, taken
        # before any node, so a spent budget gives the unbudgeted report.
        assert main([*argv, "--json"]) == 0
        full = canonical_json_without_elapsed(capsys.readouterr().out)
        assert main([*argv, *budget, "--json"]) == 0
        assert canonical_json_without_elapsed(capsys.readouterr().out) == full

    def test_an_exit_before_the_reports_is_not_prefixed(self, tmp_path, capsys):
        # mu, found before any r, is past the vertex budget.
        path = tmp_path / "e5.json"
        path.write_text(json.dumps({"vertices": 5, "edges": []}))
        assert main(["ht", "--graph", str(path), "--vertex-budget", "1", "--json"]) == 3
        assert json.loads(capsys.readouterr().out)["result"]["reason"] == (
            "exhaustive search on 5 vertices exceeds the budget of 1"
        )


class TestOutOfMemory:
    """A MemoryError from a handler is an inconclusive report (exit 3),
    never a traceback, whose exit 1 would read as "refuted"."""

    @pytest.mark.parametrize("argv, module, name", [
        (["verify", "--n", "4", "--m", "4", "--r", "2"], search, "rook_ekr_report"),
        (["ht", "--graph", "E5"], graphs, "min_maximal_independent_size"),
        (["check-witness", "--report", "report.json"], witness, "check_report"),
    ], ids=["verify", "ht", "check-witness"])
    def test_is_inconclusive_with_null_bounds(
        self, tmp_path, monkeypatch, capsys, argv, module, name
    ):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.chdir(tmp_path)
        (tmp_path / "report.json").write_text(json.dumps({"counterexample": None}))
        monkeypatch.setattr(module, name, exhausted)
        assert main([*argv, "--json"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["result"] == {
            "status": "inconclusive", "reason": "out of memory",
            "lower_bound": None, "upper_bound": None,
        }
        assert report["counterexample"] is None


class TestParametersOnEveryExitPath:
    @pytest.mark.parametrize("argv, extra, bound", BUDGET_EXITS,
                             ids=[" ".join(argv) for argv, _, _ in BUDGET_EXITS])
    def test_a_budget_exit_echoes_the_parameters_of_a_full_run(
        self, tmp_path, monkeypatch, capsys, argv, extra, bound
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "family.json").write_text(json.dumps(FAMILY))
        assert main([*argv, "--json"]) == 0
        full = json.loads(capsys.readouterr().out)["parameters"]
        if bound:
            monkeypatch.setattr(*bound)
        assert main([*argv, *extra, "--json"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["status"] == "inconclusive"
        # Same keys, in the same order, with the same values.
        assert list(report["parameters"].items()) == list(full.items())

    @pytest.mark.parametrize("argv, parameters", [
        (["lemma1", "--n", "40", "--m", "40"], {"n": 40, "m": 40, "r": None}),
        (["double-count", "--family", "big.json"], {"family": "big.json", "n": 13, "m": 13, "r": 1}),
    ])
    def test_budget_exits_past_the_bounds_echo_every_parameter(
        self, tmp_path, monkeypatch, capsys, argv, parameters
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "big.json").write_text(json.dumps({**FAMILY, "n": 13, "m": 13}))
        assert main([*argv, "--json"]) == 3
        echoed = json.loads(capsys.readouterr().out)["parameters"]
        assert list(echoed.items()) == list(parameters.items())


class TestFailsClosed:
    """Bad files and malformed reports exit 2 with a message naming the culprit."""

    def test_missing_report_file(self, tmp_path):
        path = tmp_path / "missing.json"
        code, _, err = run_cli("check-witness", "--report", str(path))
        assert code == 2
        assert str(path) in err

    def test_missing_family_file(self, tmp_path):
        path = tmp_path / "missing.json"
        code, _, err = run_cli("double-count", "--family", str(path))
        assert code == 2
        assert str(path) in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("json_flag", [["--json"], []], ids=["json", "table"])
    def test_a_full_stdout_exits_2_with_one_line(self, json_flag):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "ekrcheck", "count", "--n", "4", "--m", "4", "--r", "2",
                 *json_flag],
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        assert proc.returncode == 2
        assert proc.stderr == "ekrcheck: error: <stdout>: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_a_full_stdout_in_process(self, monkeypatch, capsys):
        with open("/dev/full", "w") as full:
            monkeypatch.setattr(sys, "stdout", full)
            code = main(["count", "--n", "4", "--m", "4", "--r", "2", "--json"])
            monkeypatch.undo()
        assert code == 2
        assert capsys.readouterr().err == "ekrcheck: error: <stdout>: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_a_full_out_file_is_named(self):
        code, out, err = run_cli("orders", "--n", "3", "--m", "3", "--out", "/dev/full")
        assert (code, out) == (2, "")
        assert err == "ekrcheck: error: /dev/full: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_to_a_full_stdout_exits_2_with_one_line(self, argv, unbuffered):
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "ekrcheck", *argv], stdout=full,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == "ekrcheck: error: <stdout>: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_help_to_a_full_stdout_in_process(self, monkeypatch, capsys):
        with open("/dev/full", "w") as full:
            monkeypatch.setattr(sys, "stdout", full)
            code = main(["verify", "--help"])
            monkeypatch.undo()
        assert code == 2
        assert capsys.readouterr().err == "ekrcheck: error: <stdout>: No space left on device\n"

    def test_help_into_a_closed_pipe_exits_141_silently(self):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "ekrcheck", "--help"],
                                  stdout=write, stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, b"")

    def test_unwritable_out(self, tmp_path):
        path = tmp_path / "no-such-directory" / "family.json"
        code, _, err = run_cli("enumerate", "--n", "3", "--m", "3", "--r", "1", "--out", str(path))
        assert code == 2
        assert str(path) in err

    @pytest.mark.parametrize("content, message", [
        (b'{"vertices": "\xff"}', "not UTF-8 text at byte 14"),
        (b"[" * 100000 + b"]" * 100000, "JSON nested too deeply to read"),
    ])
    @pytest.mark.parametrize("argv", [
        ["graph-stats", "--graph"], ["double-count", "--family"], ["check-witness", "--report"],
    ])
    def test_unreadable_json_file_exits_2(self, tmp_path, capsys, content, message, argv):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        assert main([*argv, str(path), "--json"]) == 2
        assert capsys.readouterr().err == f"ekrcheck: error: {path}: {message}\n"

    def test_non_object_report(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, _, err = run_cli("check-witness", "--report", str(path))
        assert code == 2
        assert "JSON object" in err

    def test_non_object_counterexample(self, tmp_path):
        path = tmp_path / "scalar.json"
        path.write_text(json.dumps({"counterexample": 5}))
        code, _, err = run_cli("check-witness", "--report", str(path))
        assert code == 2
        assert '"counterexample"' in err

    def test_payload_missing_a_field(self, tmp_path):
        _, out, _ = run_cli("lex", "--graph", "E4", "--k", "1", "--r", "3", "--json")
        report = json.loads(out)
        del report["counterexample"]["family"]
        path = tmp_path / "no-family.json"
        path.write_text(json.dumps(report))
        code, _, err = run_cli("check-witness", "--report", str(path))
        assert code == 2
        assert '"family"' in err

    def test_boolean_cell_coordinate(self, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"n": 2, "m": 2, "r": 1, "sets": [[[True, 1]]]}))
        code, _, err = run_cli("double-count", "--family", str(path))
        assert code == 2
        assert "integers" in err

    def test_boolean_vertex_count(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"vertices": True, "edges": []}))
        code, _, err = run_cli("graph-stats", "--graph", str(path))
        assert code == 2
        assert '"vertices"' in err

    @pytest.mark.parametrize(
        "flag", ["--budget-nodes", "--budget-sets", "--vertex-budget", "--budget-seconds"]
    )
    def test_negative_budget_is_a_usage_error(self, flag, capsys):
        # Each command is one that reads the flag, so the type check refuses it.
        if flag in ("--vertex-budget", "--budget-nodes"):
            command = ["ht", "--graph", "E4"]
        else:
            command = ["verify", "--n", "4", "--m", "4", "--r", "2"]
        assert main([*command, flag, "-1"]) == 2
        assert flag in capsys.readouterr().err

    def test_zero_budgets_are_accepted(self, capsys):
        # ht reads all four budgets: zero ones end the run at a budget, never
        # as a usage error.
        zeros = ["--budget-nodes", "0", "--budget-sets", "0",
                 "--vertex-budget", "0", "--budget-seconds", "0"]
        assert main(["ht", "--graph", "E3", "--json", *zeros]) == 3
        assert json.loads(capsys.readouterr().out)["result"]["status"] == "inconclusive"

    def test_negative_samples_is_a_usage_error(self, capsys):
        argv = ["double-count", "--n", "3", "--m", "3", "--r", "1", "--json"]
        assert main([*argv, "--samples", "-1"]) == 2
        assert "--samples" in capsys.readouterr().err
        assert main([*argv, "--samples", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["families"] == 0

    @pytest.mark.parametrize("argv", [
        ["double-count", "--n", "0", "--m", "3", "--r", "1", "--samples", "2"],
        ["verify", "--n", "0", "--m", "3", "--r", "1"],
    ])
    def test_an_empty_grid_is_blamed_on_the_grid(self, capsys, argv):
        assert main([*argv, "--json"]) == 2
        err = capsys.readouterr().err
        assert err == "ekrcheck: error: grid dimensions must be at least 1, got (0, 3)\n"


# One well-formed counterexample of each kind, as its producer writes it;
# "graph_star" is the one that `lex --graph E4 --k 1 --r 3` reports.
PAYLOADS = {
    "rook_star": {
        "kind": "intersecting_family_exceeds_star",
        "context": {"type": "rook", "n": 2, "m": 2, "r": 2},
        "family": [[[1, 1], [2, 2]], [[1, 2], [2, 1]]],
        "best_star": 1,
    },
    "graph_star": {
        "kind": "intersecting_family_exceeds_star",
        "context": {"type": "graph", "graph": {"vertices": 4, "edges": []}, "r": 3},
        "family": [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]],
        "best_star": 3,
    },
    "gap": {
        "kind": "interval_tightness_gap", "sigma1": [1, 2, 3, 4], "sigma2": [1, 2, 3, 4],
        "r": 2, "found_max": 1, "family": [[[1, 1], [2, 2]]],
    },
    "exceeds_r": {
        "kind": "interval_family_exceeds_r", "sigma1": [1, 2, 3, 4], "sigma2": [1, 2, 3, 4],
        "r": 2, "found_max": 3,
        "family": [[[1, 1], [2, 2]], [[1, 1], [4, 4]], [[2, 2], [3, 3]]],
    },
    "window": {
        "kind": "window_violation", "sigma1": [1, 2, 3, 4], "sigma2": [1, 2, 3, 4],
        "start": [1, 1], "r": 2, "failure": "x", "witness": [],
    },
    "occurrence": {
        "kind": "occurrence_mismatch", "n": 4, "m": 4, "placement": [[1, 1], [2, 2]],
        "expected": 8, "found": 7,
    },
    "double_count": {
        "kind": "double_count_violation",
        "family": {"n": 4, "m": 4, "r": 2, "sets": [[[1, 1], [2, 2]]]},
        "lhs": 1, "rhs": 2, "bound": 72,
    },
}


def _run_on_file(document: object, *argv: str) -> tuple[int, str, str]:
    """Run the CLI in-process on ``document`` written to a temporary JSON
    file, whose path follows ``argv``; returns (exit code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, path, "--json"])
    return code, out.getvalue(), err.getvalue()


def _check_witness_in_process(report: object) -> tuple[int, str, str]:
    """Run check-witness on a report written to a temporary file."""
    return _run_on_file(report, "check-witness", "--report")


def _with(name: str, *path: object) -> dict:
    """A copy of ``PAYLOADS[name]`` with the field at ``path[:-1]`` set to ``path[-1]``."""
    payload = copy.deepcopy(PAYLOADS[name])
    *keys, last, value = path
    node = payload
    for key in keys:
        node = node[key]
    node[last] = value
    return payload


class TestFileReaders:
    """Each file reader refuses a malformed document with one line that
    names the file and the field."""

    @pytest.mark.parametrize("argv, document, names", [
        (["double-count", "--family"], [1, 2], "family document must be a JSON object"),
        (["double-count", "--family"], {"m": 2, "r": 1, "sets": []}, '"n"'),
        (["double-count", "--family"], {"n": 2, "m": 2, "r": 1, "sets": 5}, '"sets"'),
        (["graph-stats", "--graph"], "C5", "graph document must be a JSON object"),
        (["graph-stats", "--graph"], {"edges": []}, '"vertices"'),
        (["graph-stats", "--graph"], {"vertices": 3, "edges": {}}, '"edges"'),
        (["check-witness", "--report"], 7, "report must be a JSON object"),
        (["check-witness", "--report"],
         {"counterexample": {k: v for k, v in PAYLOADS["occurrence"].items() if k != "found"}},
         '"found"'),
        (["check-witness", "--report"],
         {"counterexample": {**PAYLOADS["window"], "r": "2"}}, '"r"'),
    ], ids=[f"{reader}-{case}" for reader in ("family", "graph", "report")
            for case in ("not-an-object", "missing-field", "wrong-type")])
    def test_each_file_reader_names_the_file_and_the_field(self, tmp_path, argv, document, names):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(document))
        code, out, err = run_cli(*argv, str(path), "--json")
        assert (code, out) == (2, "")
        assert err.startswith(f"ekrcheck: error: {path}: ")
        assert names in err
        assert len(err.splitlines()) == 1


class TestCheckWitnessFailsClosed:
    """A malformed counterexample exits 2 with a message naming the field."""

    @pytest.mark.parametrize("payload, field", [
        (_with("window", "start", "ab"), '"start"'),
        (_with("window", "start", [1]), '"start"'),
        (_with("window", "sigma1", 5), '"sigma1"'),
        (_with("window", "sigma2", [1, 2, "x", 4]), '"sigma2"'),
        (_with("rook_star", "family", 5), '"family"'),
        (_with("rook_star", "family", [5]), '"family"[0]'),
        (_with("rook_star", "context", "n", "4"), '"n"'),
        (_with("graph_star", "context", "r", "2"), '"r"'),
        (_with("graph_star", "family", [[1, "2", 3]]), '"family"[0]'),
        (_with("occurrence", "n", "4"), '"n"'),
        (_with("occurrence", "placement", 5), '"placement"'),
        (_with("occurrence", "found", None), '"found"'),
        (_with("window", "kind", ["x"]), "kind"),
        (_with("gap", "r", True), '"r"'),
        (_with("gap", "found_max", "1"), '"found_max"'),
        (_with("exceeds_r", "family", [[[1, 1], [2, 2]], 3]), '"family"[1]'),
    ])
    def test_malformed_field_exits_2(self, payload, field):
        code, _, err = _check_witness_in_process({"counterexample": payload})
        assert code == 2
        assert field in err

    def test_from_the_command_line_without_a_traceback(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"counterexample": _with("window", "start", "ab")}))
        code, _, err = run_cli("check-witness", "--report", str(path))
        assert code == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize("found, code", [(1036799, 1), (1036800, 0)])
    def test_an_eight_by_eight_occurrence_report_is_answered(self, found, code, monkeypatch):
        # 25,401,600 orders, past the order budget; the count walks row and
        # column orders apart.  The true count is 2! * 6! * 6! = 1,036,800.
        # A report is confirmed only when the closed form itself is wrong, as
        # it once was at r = n = m, so the exit-0 case makes it wrong.
        expected = 1036800
        if code == 0:
            expected = 1036801
            monkeypatch.setattr(counts, "interval_occurrence_count", lambda n, m, r: expected)
        payload = {**PAYLOADS["occurrence"], "n": 8, "m": 8, "expected": expected, "found": found}
        exit_code, out, err = _check_witness_in_process({"counterexample": payload})
        assert (exit_code, err) == (code, "")
        assert json.loads(out)["result"]["detail"].startswith("recomputed occurrence count")

    @pytest.mark.parametrize("payload, reason", [
        ({**PAYLOADS["gap"], "sigma1": list(range(1, 41)), "sigma2": list(range(1, 41)),
          "r": 20, "found_max": 19},
         "comparing 1600 intervals in pairs needs 51200000 cell steps"),
        ({**PAYLOADS["window"], "sigma1": list(range(1, 301)), "sigma2": list(range(1, 301)),
          "r": 150},
         "checking the windows of one start on the 300 x 300 grid needs 4029795000 cell steps"),
        ({**PAYLOADS["exceeds_r"], "sigma1": list(range(1, 301)), "sigma2": list(range(1, 301)),
          "r": 150},
         "listing the 90000 intervals of an order needs 13500000 cell steps"),
        ({**PAYLOADS["occurrence"], "n": 2 * 10**6, "m": 2 * 10**6, "placement": [[1, 1]]},
         "counting the orders of one placement needs at least 958003200 window steps"),
    ], ids=["gap", "window", "exceeds_r", "occurrence"])
    def test_a_payload_past_the_work_budget_exits_3_at_once(self, payload, reason):
        started = time.monotonic()
        code, out, err = _check_witness_in_process({"counterexample": payload})
        assert time.monotonic() - started < 1
        assert (code, err) == (3, "")
        assert json.loads(out)["result"]["reason"].startswith(reason)

    def test_an_occurrence_report_must_expect_the_closed_form(self):
        payload = {**PAYLOADS["occurrence"], "expected": 999, "found": 8}
        code, out, err = _check_witness_in_process({"counterexample": payload})
        assert (code, err) == (1, "")
        assert json.loads(out)["result"]["detail"] \
            == "expected 999 is not the closed-form occurrence count 8"

    @pytest.mark.parametrize("r, family", [
        (2, [[[1, 1]], [[1, 1], [2, 2]], [[4, 4], [1, 1]]]),
        (1, [[[1, 1]], [[1, 1], [2, 2]]]),
    ])
    def test_an_interval_family_with_members_of_the_wrong_size_is_refuted(self, r, family):
        payload = {**PAYLOADS["exceeds_r"], "r": r, "found_max": len(family), "family": family}
        code, out, err = _check_witness_in_process({"counterexample": payload})
        assert (code, err) == (1, "")
        assert json.loads(out)["result"]["detail"].endswith(
            f"is not an interval of the order with r={r} cells"
        )

    def test_an_interval_family_past_the_half_range_exits_2(self):
        # The four 3-intervals on the main diagonal of 4 x 4 pairwise meet.
        family = [[[(k + d) % 4 + 1] * 2 for d in range(3)] for k in range(4)]
        payload = {**PAYLOADS["exceeds_r"], "r": 3, "found_max": 4, "family": family}
        code, out, err = _check_witness_in_process({"counterexample": payload})
        assert (code, out) == (2, "")
        assert "r must satisfy 1 <= r <= min(n,m)/2 = 2, got 3" in err

    @pytest.mark.parametrize("start, message", [
        ([6, 1], "start position i out of range 1..5: 6"),
        ([1, 0], "start position j out of range 1..5: 0"),
    ])
    def test_a_window_start_off_the_grid_exits_2(self, start, message):
        ring = [1, 2, 3, 4, 5]
        payload = {**PAYLOADS["window"], "sigma1": ring, "sigma2": ring, "start": start}
        code, out, err = _check_witness_in_process({"counterexample": payload})
        assert (code, out) == (2, "")
        assert err.endswith(f".json: {message}\n")

    @pytest.mark.parametrize("context", [
        {"type": "graph", "graph": {"vertices": 3, "edges": []}, "r": 0},
        {"type": "rook", "n": 3, "m": 3, "r": 0},
    ], ids=["graph", "rook"])
    def test_a_family_at_r_0_exits_2(self, context):
        # No command reports a family at r = 0: both verdicts refuse r < 1.
        payload = {**PAYLOADS["graph_star"], "context": context, "family": [[]]}
        code, out, err = _check_witness_in_process({"counterexample": payload})
        assert (code, out) == (2, "")
        with pytest.raises(InputError) as refused:
            search.graph_ekr_report(graphs.empty_graph(3), 0)
        assert err.endswith(f": {refused.value}\n")
        assert str(refused.value) == "r must be at least 1, got 0"

    @pytest.mark.parametrize("name", sorted(PAYLOADS))
    def test_well_formed_payloads_keep_their_verdict(self, name):
        code, out, err = _check_witness_in_process({"counterexample": PAYLOADS[name]})
        assert (code, err) == ((0, "") if name == "graph_star" else (1, ""))
        assert json.loads(out)["result"]["kind"] == PAYLOADS[name]["kind"]

    def test_graph_star_payload_is_what_lex_reports(self, capsys):
        assert main(["lex", "--graph", "E4", "--k", "1", "--r", "3", "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["counterexample"] == PAYLOADS["graph_star"]


class TestValidatorVerdicts:
    """Each verdict branch of each validator in ``witness.VALIDATORS``."""

    @pytest.mark.parametrize("payload, code, message", [
        (_with("rook_star", "family", [[[1, 1], [2, 2]], [[1, 1]]]), 1,
         "family member has the wrong size"),
        (_with("graph_star", "family", [[1, 2, 3], [1, 2]]), 1,
         "family member has the wrong size"),
        ({**_with("graph_star", "context", "graph", {"vertices": 4, "edges": [[1, 2]]}),
          "family": [[1, 2, 3], [1, 3, 4], [2, 3, 4]]}, 1,
         "family member [1, 2, 3] is not independent"),
        (_with("rook_star", "context", "type", "torus"), 1,
         "unknown counterexample context 'torus'"),
        (_with("rook_star", "family", [[[1, 1], [2, 2]], [[2, 2], [1, 1]]]), 1,
         "family contains duplicate members"),
        (_with("exceeds_r", "family", [[[1, 1], [2, 2]], [[1, 1], [2, 2]]]), 1,
         "family contains duplicate members"),
        (_with("exceeds_r", "family", [[[1, 1], [2, 2]], [[1, 1], [4, 4]]]), 1,
         "family size 2 does not exceed r=2"),
        (_with("occurrence", "placement", []), 2,
         'counterexample "placement": r must be in 1..min(n,m)=4, got 0'),
    ], ids=["rook-size", "graph-size", "not-independent", "unknown-context",
            "rook-duplicates", "interval-duplicates", "interval-size", "empty-placement"])
    def test_a_refuted_or_malformed_payload(self, payload, code, message):
        exit_code, out, err = _check_witness_in_process({"counterexample": payload})
        if code == 1:
            assert (exit_code, err) == (1, "")
            result = json.loads(out)["result"]
            assert (result["confirmed"], result["detail"]) == (False, message)
        else:
            assert (exit_code, out) == (2, "")
            assert err.endswith(f".json: {message}\n")

    @pytest.mark.parametrize("name, target, replacement, detail", [
        ("gap", (cycles, "max_intersecting_intervals_witness"), lambda order, r: ((),) * (r - 1),
         "recomputed interval maximum 1 is below r=2"),
        ("exceeds_r", (rook, "pairwise_intersecting"), lambda members: True,
         "intersecting interval family of 3 exceeds r=2"),
        ("double_count", (cycles, "interval_double_counts"), lambda families: [(1, 2)],
         "recomputed lhs=1 differs from rhs=2"),
        ("double_count", (cycles, "interval_double_counts"), lambda families: [(73, 73)],
         "recomputed lhs=73 exceeds the bound 72"),
        ("window", (cycles, "check_interval_windows"),
         lambda order, i, j, r: cycles.WindowReport(False, order, (i, j), r, failure="forged"),
         "recomputed window check fails: forged"),
    ], ids=["gap", "exceeds-r", "double-count-differs", "double-count-bound", "window"])
    def test_a_real_counterexample_is_confirmed(
        self, monkeypatch, name, target, replacement, detail
    ):
        # Each library check is made to find the violation that the payload
        # claims, so the validator's confirmed branch runs.
        monkeypatch.setattr(*target, replacement)
        code, out, err = _check_witness_in_process({"counterexample": PAYLOADS[name]})
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert result == {"kind": PAYLOADS[name]["kind"], "confirmed": True, "detail": detail}


# Small values only, so that a grid or graph in a fuzzed payload stays tiny
# and every check finishes in milliseconds.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats(-2, 5) | st.text(max_size=3),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
FIELDS = sorted(
    {key for payload in PAYLOADS.values() for key in payload} | {"type", "graph", "n", "m"}
)
KINDS = sorted({payload["kind"] for payload in PAYLOADS.values()})


def _mutate(draw, document: dict) -> dict:
    """``document`` with one to three fields replaced or deleted at any depth."""
    for _ in range(draw(st.integers(1, 3))):
        node = document
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
            else:
                if isinstance(node, dict) and draw(st.booleans()):
                    del node[key]
                else:
                    node[key] = draw(JSON_VALUES)
                break
    return document


@st.composite
def mutated_reports(draw):
    """A report around a well-formed payload, with one to three fields
    replaced or deleted at any depth (the payload itself included)."""
    return _mutate(draw, {
        "schema": 1, "command": "lex",
        "counterexample": copy.deepcopy(PAYLOADS[draw(st.sampled_from(sorted(PAYLOADS)))]),
    })


@st.composite
def random_reports(draw):
    """A payload of known field names with random values, under a known kind."""
    fields = draw(st.dictionaries(st.sampled_from(FIELDS), JSON_VALUES, max_size=7))
    return {"counterexample": {**fields, "kind": draw(st.sampled_from(KINDS))}}


class TestCheckWitnessFuzz:
    """Whatever the report holds, check-witness ends in exit 0-3 with no traceback."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mutated_reports() | random_reports() | JSON_VALUES)
    def test_every_report_gets_an_exit_code(self, report):
        code, _, err = _check_witness_in_process(report)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err


# Well-formed input files, as `product --out` and `enumerate --out` write them.
GRAPH_FILES = [
    {"vertices": 5, "edges": [[1, 2], [1, 5], [2, 3], [3, 4], [4, 5]]},
    {"vertices": 4, "edges": []},
]
FAMILY_FILES = [
    {"n": 4, "m": 4, "r": 2, "sets": [[[1, 1], [2, 2]], [[1, 1], [3, 3]], [[1, 2], [2, 1]]]},
    {"n": 3, "m": 2, "r": 1, "sets": [[[1, 1]], [[2, 2]]]},
]


@st.composite
def mutated_files(draw, documents):
    return _mutate(draw, copy.deepcopy(draw(st.sampled_from(documents))))


def random_files(fields):
    """A document of known field names with random values."""
    return st.dictionaries(st.sampled_from(fields), JSON_VALUES, max_size=len(fields))


class TestInputFileFuzz:
    """Whatever a graph or family file holds, the command ends in exit 0-3
    with no traceback."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mutated_files(GRAPH_FILES) | random_files(["vertices", "edges"]) | JSON_VALUES)
    def test_every_graph_file_gets_an_exit_code(self, document):
        code, _, err = _run_on_file(document, "graph-stats", "--graph")
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mutated_files(FAMILY_FILES) | random_files(["n", "m", "r", "sets"]) | JSON_VALUES)
    def test_every_family_file_gets_an_exit_code(self, document):
        code, _, err = _run_on_file(document, "double-count", "--family")
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err


class TestProducersMeetTheirValidators:
    """A faked failure in each counterexample producer that no in-range run
    reaches: check-witness must read the counterexample (never exit 2) and
    refute it (exit 1), since the real recomputation holds."""

    def produce_and_check(self, monkeypatch, capsys, command: str) -> str:
        """Run ``command`` on the 4 x 4 grid at r = 2 and check its
        counterexample; returns the counterexample's kind."""
        assert main([command, "--n", "4", "--m", "4", "--r", "2", "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        monkeypatch.undo()  # the validator recomputes with the real library
        code, out, err = _check_witness_in_process(report)
        assert (code, err) == (1, "")
        assert json.loads(out)["result"]["confirmed"] is False
        return report["counterexample"]["kind"]

    @pytest.mark.parametrize("kind", ["interval_family_exceeds_r", "interval_tightness_gap"])
    def test_lemma1(self, monkeypatch, capsys, kind):
        real = cycles.max_intersecting_intervals_witness

        def faked(order, r):
            if kind == "interval_tightness_gap":
                return real(order, r)[:-1]
            return tuple(sorted(cycles.all_intervals(order, r)))

        monkeypatch.setattr(cycles, "max_intersecting_intervals_witness", faked)
        assert self.produce_and_check(monkeypatch, capsys, "lemma1") == kind

    def test_windows(self, monkeypatch, capsys):
        def faked(order, r):
            return cycles.WindowReport(False, order, (2, 3), r, "faked failure", ())

        monkeypatch.setattr(cycles, "first_window_failure", faked)
        assert self.produce_and_check(monkeypatch, capsys, "windows") == "window_violation"

    def test_verify(self, monkeypatch, capsys):
        def faked(n, m, r, budget=None, max_sets=None):
            placements = tuple(enumerate_placements(n, m, r))
            parameters = {"kind": "rook", "n": n, "m": m, "r": r}
            return search.EkrReport(parameters, len(placements), 9, "EKR_FAILS", placements)

        monkeypatch.setattr(search, "rook_ekr_report", faked)
        kind = self.produce_and_check(monkeypatch, capsys, "verify")
        assert kind == "intersecting_family_exceeds_star"
