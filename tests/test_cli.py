import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from math import factorial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ekrcheck import cycles, enumerate_placements, graphs, load_family, load_graph, search
from ekrcheck import cli
from ekrcheck.cli import main
from helpers import canonical_json_without_elapsed, run_cli


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
            "verify", "--n", "4", "--m", "4", "--r", "2", "--json", "--budget-nodes", "1"
        )
        assert code == 3
        report = json.loads(out)
        assert report["result"]["status"] == "inconclusive"
        assert report["result"]["lower_bound"] <= report["result"]["upper_bound"]
        assert report["parameters"]["n"] == 4

    def test_witness_phase_budget_exit_reports_the_exact_maximum(self):
        # At 5x5 r=2 the max search over the placements that meet the first
        # one takes 2 nodes; the witness pass needs 15 more.
        code, out, _ = run_cli(
            "verify", "--n", "5", "--m", "5", "--r", "2", "--json", "--budget-nodes", "5"
        )
        assert code == 3
        result = json.loads(out)["result"]
        assert result["lower_bound"] == result["upper_bound"] == 16

    def test_max_phase_budget_exit_keeps_the_open_bounds(self):
        code, out, _ = run_cli(
            "verify", "--n", "5", "--m", "5", "--r", "2", "--json", "--budget-nodes", "1"
        )
        assert code == 3
        result = json.loads(out)["result"]
        # The bounds count the first placement, which the search leaves out.
        assert (result["lower_bound"], result["upper_bound"]) == (16, 17)

    @pytest.mark.parametrize(
        "n, bounds",
        [
            # The max search stops at the root bound without a node, so the
            # witness probe's first node sees the deadline, with exact bounds.
            (4, (9, 9)),
            # The max search's first node sees it, with the open bounds.
            (5, (16, 17)),
        ],
    )
    def test_zero_seconds_budget_exits_3_on_the_first_node(self, n, bounds):
        code, out, _ = run_cli(
            "verify", "--n", str(n), "--m", str(n), "--r", "2", "--json", "--budget-seconds", "0"
        )
        assert code == 3
        result = json.loads(out)["result"]
        assert result["status"] == "inconclusive"
        assert (result["lower_bound"], result["upper_bound"]) == bounds

    def test_zero_seconds_budget_exits_3_before_a_large_search_is_built(self):
        # 2,400 placements: the clock is read once enumeration ends.
        code, out, _ = run_cli(
            "verify", "--n", "6", "--m", "6", "--r", "3", "--json", "--budget-seconds", "0"
        )
        assert code == 3
        result = json.loads(out)["result"]
        assert result["reason"] == "enumerating the sets exceeded 0.0 seconds"
        assert (result["lower_bound"], result["upper_bound"]) == (None, None)

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
        ("windows", 40, 40, 20, 51200000),
    ])
    def test_interval_pairs_past_the_budget_exit_3(self, command, n, m, r, work):
        code, out, err = run_cli(command, "--n", str(n), "--m", str(m), "--r", str(r), "--json")
        assert (code, err) == (3, "")
        assert json.loads(out)["result"]["reason"] == (
            f"comparing {n * m} intervals in pairs needs {work} cell steps, "
            "over the budget of 1000000"
        )

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

    def test_ht_computes_mu_once(self, monkeypatch, capsys):
        calls = []
        original = graphs.maximal_independent_sets

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(graphs, "maximal_independent_sets", counted)
        assert main(["ht", "--graph", "C5", "--json"]) == 0
        assert len(calls) == 1

    def test_lex_holds(self):
        code, out, _ = run_cli("lex", "--graph", "E4", "--k", "2", "--r", "2", "--json")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["premise"]["verdict"] == "EKR_HOLDS"
        assert result["conclusion"]["verdict"] == "EKR_HOLDS"
        assert not result["implication_violated"]


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
        calls = []
        original = cycles.interval_tally

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cycles, "interval_tally", counted)
        argv = ["double-count", "--n", "4", "--m", "4", "--r", "2", "--samples", "6", "--json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["result"]["families"] == 6
        assert len(calls) == 1

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


class TestOutputContract:
    def test_json_mode_emits_exactly_one_document(self):
        _, out, _ = run_cli("verify", "--n", "3", "--m", "3", "--r", "1", "--json")
        json.loads(out)  # would fail on trailing junk

    def test_reruns_are_byte_identical(self):
        args = ["verify", "--n", "4", "--m", "4", "--r", "2", "--json"]
        _, out1, _ = run_cli(*args)
        _, out2, _ = run_cli(*args)
        assert canonical_json_without_elapsed(out1) == canonical_json_without_elapsed(out2)

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
        (["verify", "--n", "5", "--m", "5", "--r", "2", "--budget-nodes", "1", "--json"], 3),
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


# A minimal run of each command, and the flags it reads among those that
# every command used to take; all of them also take --json and --threads.
COMMAND_RUNS = {
    "count": (["--n", "3", "--m", "3", "--r", "1"], []),
    "enumerate": (["--n", "3", "--m", "3", "--r", "1"], ["--out", "--budget-sets"]),
    "verify": (["--n", "3", "--m", "3", "--r", "1"],
               ["--budget-nodes", "--budget-seconds", "--budget-sets"]),
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
    (["verify", "--n", "5", "--m", "5", "--r", "2"], ["--budget-nodes", "1"], None),
    (["lemma1", "--n", "4", "--m", "4"], [], (cli, "INTERVAL_PAIR_BUDGET", 0)),
    (["lemma1", "--n", "4", "--m", "4", "--r", "2"], [], (cli, "INTERVAL_PAIR_BUDGET", 0)),
    (["occurrence", "--n", "4", "--m", "4", "--r", "2"], ["--budget-sets", "1"], None),
    (["double-count", "--n", "4", "--m", "4", "--r", "2", "--samples", "2"], [],
     (cycles, "TALLY_WORK_BUDGET", 0)),
    (["double-count", "--family", "family.json"], [], (cycles, "TALLY_WORK_BUDGET", 0)),
    (["windows", "--n", "4", "--m", "4", "--r", "2"], [], (cli, "INTERVAL_PAIR_BUDGET", 0)),
    (["orders", "--n", "3", "--m", "3"], ["--budget-sets", "1"], None),
    (["graph-stats", "--graph", "C5"], ["--vertex-budget", "1"], None),
    (["product", "--kind", "cartesian", "--graph", "K2", "--graph", "K3"],
     ["--vertex-budget", "0"], (graphs, "DEFAULT_PRODUCT_VERTEX_BUDGET", 0)),
    (["ht", "--graph", "E5"], ["--budget-sets", "0"], None),
    (["lex", "--graph", "E4", "--k", "2", "--r", "2"], ["--budget-sets", "5"], None),
]


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
        if flag == "--vertex-budget":
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

    @pytest.mark.parametrize("name", sorted(PAYLOADS))
    def test_well_formed_payloads_keep_their_verdict(self, name):
        code, out, err = _check_witness_in_process({"counterexample": PAYLOADS[name]})
        assert (code, err) == ((0, "") if name == "graph_star" else (1, ""))
        assert json.loads(out)["result"]["kind"] == PAYLOADS[name]["kind"]

    def test_graph_star_payload_is_what_lex_reports(self, capsys):
        assert main(["lex", "--graph", "E4", "--k", "1", "--r", "3", "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["counterexample"] == PAYLOADS["graph_star"]


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
