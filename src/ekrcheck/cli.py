"""Command-line interface: every verification as a reproducible, scriptable run.

Each run emits one report; with ``--json`` that is a single JSON document on
standard output, otherwise a small fixed table.  Exit codes:

    0   verified / property holds
    1   violation found (a machine-checkable counterexample is embedded)
    2   usage or input error
    3   budget exhausted (inconclusive)

Reports from runs that exit 1 can be revalidated independently with the
``check-witness`` subcommand.

This module imports only the standard library and ``errors`` when it
loads; each handler imports the library modules it runs, so a command
compiles no module it does not use.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from collections.abc import Callable, Sequence

from .errors import (
    DEFAULT_NODE_BUDGET, DEFAULT_SEARCH_VERTEX_BUDGET, DEFAULT_SET_BUDGET, InputError,
    ResourceLimitError, load_json, save_json,
)

SCHEMA_VERSION = 1

_GRAPH_SHORTHAND = re.compile(r"([KEPC])(\d+)")


def _graph_argument(text: str, vertex_budget: int):
    """Resolve a graph argument: a JSON file path, or a shorthand such as
    K4 (complete), E3 (edgeless), P5 (path), C6 (cycle).

    A shorthand over the vertex budget is refused before it is built; every
    command that takes a graph would refuse it under that budget anyway.
    """
    from . import graphs

    if os.path.exists(text):
        return graphs.load_graph(text)
    match = _GRAPH_SHORTHAND.fullmatch(text)
    if match:
        vertices = int(match.group(2))
        if vertices > vertex_budget:
            raise ResourceLimitError(
                f"graph {text} on {vertices} vertices exceeds the budget of {vertex_budget}"
            )
        build = {
            "K": graphs.complete_graph,
            "E": graphs.empty_graph,
            "P": graphs.path_graph,
            "C": graphs.cycle_graph,
        }[match.group(1)]
        return build(vertices)
    raise InputError(
        f"graph argument {text!r} is neither an existing file nor a K/E/P/C shorthand"
    )


# lemma1 and windows compare each of the identity order's n*m intervals with
# every other at r cells a pair: (n*m)^2 * r steps for each r they evaluate.
# Grids past this many steps exit 3 before any comparison; every grid of at
# most 10^6 orders needs at most 14,406 (lemma1 on 7 x 7).
INTERVAL_PAIR_BUDGET = 10**6


def _check_interval_pairs(n: int, m: int, r_values: Sequence[int]) -> None:
    work = (n * m) ** 2 * sum(r_values)
    if work > INTERVAL_PAIR_BUDGET:
        raise ResourceLimitError(
            f"comparing {n * m} intervals in pairs needs {work} cell steps, "
            f"over the budget of {INTERVAL_PAIR_BUDGET}"
        )


# count writes (n-1)! * (m-1)! and its other counts in full, in time
# quadratic in their digits, so a grid with a side longer than this exits 3
# before any count is computed.  The largest grid it answers, 10^4 x 10^4,
# writes about 165,000 digits.
COUNT_SIDE_BUDGET = 10**4


def _placement_json(placement: tuple) -> list[list[int]]:
    return [list(cell) for cell in placement]


def _family_exceeds_star_payload(report, g) -> dict:
    """The counterexample of a search report that refutes EKR; ``g`` is the
    searched graph, or None for a rook grid."""
    from . import graphs

    params = report.parameters
    if params["kind"] == "rook":
        context = {"type": "rook", "n": params["n"], "m": params["m"], "r": params["r"]}
    else:
        context = {
            "type": "graph",
            "graph": graphs.graph_to_json_dict(g),
            "r": params["r"],
        }
    return {
        "kind": "intersecting_family_exceeds_star",
        "context": context,
        "family": report.witness_to_json(),
        "best_star": report.best_star,
    }


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (parameters, result, counterexample, exit_code)


def _run_count(args) -> tuple[dict, dict, dict | None, int]:
    from . import counts

    if max(args.n, args.m) > COUNT_SIDE_BUDGET:
        raise ResourceLimitError(
            f"count on a {args.n} x {args.m} grid: a side exceeds the budget of "
            f"{COUNT_SIDE_BUDGET}"
        )
    parameters = {"n": args.n, "m": args.m, "r": args.r}
    result = {
        "placements": counts.rook_placement_count(args.n, args.m, args.r),
        "star": counts.rook_star_count(args.n, args.m, args.r),
        "cyclic_orders": counts.cyclic_order_count(args.n, args.m),
        "interval_occurrences": counts.interval_occurrence_count(args.n, args.m, args.r),
    }
    return parameters, result, None, 0


def _run_enumerate(args) -> tuple[dict, dict, dict | None, int]:
    from . import rook

    parameters = {"n": args.n, "m": args.m, "r": args.r}
    placements = rook.enumerate_placements(args.n, args.m, args.r, args.budget_sets)
    family = rook.Family(args.n, args.m, args.r, tuple(placements))
    result: dict = {"count": len(family)}
    if args.out:
        rook.save_family(family, args.out)
        result["written"] = args.out
    else:
        result["family"] = rook.family_to_json_dict(family)
    return parameters, result, None, 0


def _run_verify(args) -> tuple[dict, dict, dict | None, int]:
    from . import search

    parameters = {"n": args.n, "m": args.m, "r": args.r}
    report = search.rook_ekr_report(
        args.n, args.m, args.r, budget=_budget(args), max_sets=args.budget_sets
    )
    counterexample = None if report.holds else _family_exceeds_star_payload(report, None)
    return parameters, report.to_json_dict(), counterexample, 0 if report.holds else 1


def _run_lemma1(args) -> tuple[dict, dict, dict | None, int]:
    from . import counts, cycles

    half = min(args.n, args.m) // 2
    r_values = [args.r] if args.r is not None else list(range(1, half + 1))
    parameters = {"n": args.n, "m": args.m, "r": args.r}
    order_total = counts.cyclic_order_count(args.n, args.m)
    _check_interval_pairs(args.n, args.m, r_values)
    # The maximum is the same in every order (cycles module docstring), so the
    # first order stands for all of them, counterexample included.
    order = cycles.reference_order(args.n, args.m)
    checks = []
    counterexample = None
    for r in r_values:
        witness = cycles.max_intersecting_intervals_witness(order, r)
        value = len(witness)
        checks.append(
            {
                "r": r,
                "orders": order_total,
                "min_over_orders": value,
                "max_over_orders": value,
                "all_equal_r": value == r,
            }
        )
        if counterexample is None and value != r:
            counterexample = {
                "kind": "interval_family_exceeds_r" if value > r else "interval_tightness_gap",
                **order.to_json_dict(),
                "r": r,
                "found_max": value,
                "family": [_placement_json(p) for p in witness],
            }
    result = {"checks": checks, "all_pass": counterexample is None}
    return parameters, result, counterexample, 0 if counterexample is None else 1


def _run_occurrence(args) -> tuple[dict, dict, dict | None, int]:
    from . import counts, cycles, rook

    parameters = {"n": args.n, "m": args.m, "r": args.r}
    expected = counts.interval_occurrence_count(args.n, args.m, args.r)
    placements = rook.enumerate_placements(args.n, args.m, args.r, args.budget_sets)
    tally = cycles.interval_tally(args.n, args.m, args.r)
    counterexample = None
    for placement in placements:
        value = tally[placement]
        if value != expected:
            counterexample = {
                "kind": "occurrence_mismatch",
                "n": args.n,
                "m": args.m,
                "placement": _placement_json(placement),
                "expected": expected,
                "found": value,
            }
            break
    result = {
        "placements": len(placements),
        "orders": counts.cyclic_order_count(args.n, args.m),
        "expected_occurrences": expected,
        "all_match": counterexample is None,
    }
    return parameters, result, counterexample, 0 if counterexample is None else 1


def _run_double_count(args) -> tuple[dict, dict, dict | None, int]:
    from random import Random

    from . import counts, cycles, rook

    order_total = None
    if args.family:
        family = rook.load_family(args.family)
        parameters = {
            "family": args.family,
            "n": family.n,
            "m": family.m,
            "r": family.r,
        }
        families = [family]
    else:
        if args.n is None or args.m is None or args.r is None:
            raise InputError("double-count needs --family, or --n/--m/--r to sample families")
        parameters = {
            "n": args.n,
            "m": args.m,
            "r": args.r,
            "samples": args.samples,
        }
        families = [
            rook.random_intersecting_family(args.n, args.m, args.r, Random(args.seed + i))
            for i in range(args.samples)
        ]
    checked = []
    counterexample = None
    double_counts = cycles.interval_double_counts(families)
    for family, (lhs, rhs) in zip(families, double_counts):
        if order_total is None:
            order_total = counts.cyclic_order_count(family.n, family.m)
        bound = family.r * order_total
        intersecting = rook.is_intersecting(family)
        entry = {
            "size": len(family),
            "lhs": lhs,
            "rhs": rhs,
            "equal": lhs == rhs,
            "intersecting": intersecting,
            "within_bound": (not intersecting) or lhs <= bound,
        }
        checked.append(entry)
        if counterexample is None and not (entry["equal"] and entry["within_bound"]):
            counterexample = {
                "kind": "double_count_violation",
                "family": rook.family_to_json_dict(family),
                "lhs": lhs,
                "rhs": rhs,
                "bound": bound,
            }
    result = {
        "families": len(checked),
        "all_equal": all(entry["equal"] for entry in checked),
        "all_within_bound": all(entry["within_bound"] for entry in checked),
        "bound": (families[0].r * order_total) if families else None,
        "max_lhs": max((entry["lhs"] for entry in checked), default=0),
    }
    if len(checked) == 1:
        result["lhs"] = checked[0]["lhs"]
        result["rhs"] = checked[0]["rhs"]
    return parameters, result, counterexample, 0 if counterexample is None else 1


def _run_windows(args) -> tuple[dict, dict, dict | None, int]:
    from . import counts, cycles

    parameters = {"n": args.n, "m": args.m, "r": args.r}
    order_total = counts.cyclic_order_count(args.n, args.m)
    _check_interval_pairs(args.n, args.m, [args.r])
    # Each start passes or fails alike in every order (cycles module
    # docstring), so the first order's first failure is the sweep's.
    order = cycles.reference_order(args.n, args.m)
    report = cycles.first_window_failure(order, args.r)
    counterexample = None if report is None else {
        "kind": "window_violation",
        **order.to_json_dict(),
        "start": list(report.start),
        "r": args.r,
        "failure": report.failure,
        "witness": [_placement_json(p) for p in (report.witness or ())],
    }
    result = {
        "orders": order_total,
        "starts_per_order": args.n * args.m,
        "all_pass": counterexample is None,
    }
    return parameters, result, counterexample, 0 if counterexample is None else 1


def _run_orders(args) -> tuple[dict, dict, dict | None, int]:
    from . import cycles

    parameters = {"n": args.n, "m": args.m}
    order_list = cycles.enumerate_cyclic_orders(args.n, args.m, args.budget_sets)
    payload = [order.to_json_dict() for order in order_list]
    result: dict = {"count": len(order_list)}
    if args.out:
        save_json(payload, args.out)
        result["written"] = args.out
    else:
        result["orders"] = payload
    return parameters, result, None, 0


def _run_graph_stats(args) -> tuple[dict, dict, dict | None, int]:
    from . import graphs

    g = _graph_argument(args.graph, args.vertex_budget)
    parameters = {"graph": args.graph}
    sets = graphs.maximal_independent_sets(g, args.vertex_budget)
    sizes = [len(s) for s in sets]
    result = {
        "vertices": g.vertex_count,
        "edge_count": g.edge_count,
        "independence_number": max(sizes),
        "min_maximal_independent_size": min(sizes),
        "maximal_independent_sets": len(sets),
        "well_covered": max(sizes) == min(sizes),
    }
    return parameters, result, None, 0


def _run_product(args) -> tuple[dict, dict, dict | None, int]:
    from . import graphs

    if len(args.graph or []) != 2:
        raise InputError("product needs exactly two --graph arguments")
    # --vertex-budget is meant for the exhaustive searches, so it only ever
    # raises the product's own default bound.
    bound = max(args.vertex_budget, graphs.DEFAULT_PRODUCT_VERTEX_BUDGET)
    left = _graph_argument(args.graph[0], bound)
    right = _graph_argument(args.graph[1], bound)
    build = graphs.cartesian_product if args.kind == "cartesian" else graphs.lexicographic_product
    product = build(left, right, bound)
    parameters = {"kind": args.kind, "graph": list(args.graph)}
    result: dict = {"vertices": product.vertex_count, "edge_count": product.edge_count}
    if args.out:
        graphs.save_graph(product, args.out)
        result["written"] = args.out
    else:
        result["graph"] = graphs.graph_to_json_dict(product)
    return parameters, result, None, 0


def _run_ht(args) -> tuple[dict, dict, dict | None, int]:
    from . import graphs, search

    budget = _budget(args)
    g = _graph_argument(args.graph, args.vertex_budget)
    parameters = {"graph": args.graph}
    mu = graphs.min_maximal_independent_size(g, args.vertex_budget)
    reports = search.holroyd_talbot_sweep(
        g, budget=budget, max_sets=args.budget_sets, vertex_budget=args.vertex_budget,
        known_min_maximal=mu,
    )
    counterexample = None
    for report in reports:
        if not report.holds:
            counterexample = _family_exceeds_star_payload(report, g)
            break
    result = {
        "min_maximal_independent_size": mu,
        "reports": [report.to_json_dict() for report in reports],
        "all_hold": counterexample is None,
    }
    return parameters, result, counterexample, 0 if counterexample is None else 1


def _run_lex(args) -> tuple[dict, dict, dict | None, int]:
    from . import graphs, search

    g = _graph_argument(args.graph, args.vertex_budget)
    parameters = {"graph": args.graph, "k": args.k, "r": args.r}
    outcome = search.lex_product_check(
        g, args.k, args.r,
        budget=_budget(args), max_sets=args.budget_sets, vertex_budget=args.vertex_budget,
    )
    counterexample = None
    if outcome.violation or not outcome.conclusion.holds:
        product = graphs.lexicographic_product(g, graphs.complete_graph(args.k))
        counterexample = _family_exceeds_star_payload(outcome.conclusion, product)
    elif not outcome.premise.holds:
        counterexample = _family_exceeds_star_payload(outcome.premise, g)
    result = {
        "premise": outcome.premise.to_json_dict(),
        "conclusion": outcome.conclusion.to_json_dict(),
        "implication_violated": outcome.violation,
    }
    exit_code = 0 if counterexample is None else 1
    return parameters, result, counterexample, exit_code


# ---------------------------------------------------------------------------
# independent counterexample validation


def _run_check_witness(args) -> tuple[dict, dict, dict | None, int]:
    from .witness import VALIDATORS

    report = load_json(args.report)
    if not isinstance(report, dict):
        raise InputError(f"{args.report}: a report must be a JSON object, got {type(report).__name__}")
    payload = report.get("counterexample")
    if payload is None:
        raise InputError("the report carries no counterexample to check")
    if not isinstance(payload, dict):
        raise InputError(f'"counterexample" must be a JSON object, got {type(payload).__name__}')
    kind = payload.get("kind")
    validator = VALIDATORS.get(kind) if isinstance(kind, str) else None
    if validator is None:
        raise InputError(f"unknown counterexample kind {kind!r}")
    confirmed, detail = validator(payload)
    parameters = {"report": args.report}
    result = {"kind": kind, "confirmed": confirmed, "detail": detail}
    return parameters, result, None, 0 if confirmed else 1


# ---------------------------------------------------------------------------
# wiring


def _budget(args):
    """The command's search budget; its --budget-seconds clock starts now."""
    from . import search

    return search.SearchBudget(max_nodes=args.budget_nodes, max_seconds=args.budget_seconds)


def _nonnegative(cast: Callable[[str], int | float]) -> Callable[[str], int | float]:
    """Argument type for budgets: ``cast`` the text and refuse values below 0."""

    def parse(text: str) -> int | float:
        value = cast(text)
        if not value >= 0:  # also refuses nan
            raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
        return value

    parse.__name__ = cast.__name__  # argparse names it in "invalid int value"
    return parse


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="emit one JSON report on stdout")
    parser.add_argument("--out", help="write the produced artifact to this file")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled checks (default 0)")
    parser.add_argument("--budget-nodes", type=_nonnegative(int), default=DEFAULT_NODE_BUDGET,
                        help="search node budget (default %(default)s)")
    parser.add_argument("--budget-seconds", type=_nonnegative(float), default=None,
                        help="wall-clock budget for searches")
    parser.add_argument("--budget-sets", type=_nonnegative(int), default=DEFAULT_SET_BUDGET,
                        help="output-size budget for enumerations (default %(default)s)")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect (sweeps run in one process)")
    parser.add_argument("--vertex-budget", type=_nonnegative(int),
                        default=DEFAULT_SEARCH_VERTEX_BUDGET,
                        help="vertex budget for exhaustive graph searches (default %(default)s)")


def _add_grid(parser: argparse.ArgumentParser, *, need_r: bool, r_optional: bool = False) -> None:
    parser.add_argument("--n", type=int, required=True, help="number of rows")
    parser.add_argument("--m", type=int, required=True, help="number of columns")
    if need_r:
        parser.add_argument("--r", type=int, required=not r_optional, default=None,
                            help="placement size")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ekrcheck",
        description="Exact verification of maximum intersecting families of "
                    "independent sets in rook's graphs and small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="closed-form counts for a grid")
    _add_grid(p, need_r=True)
    _add_common(p)
    p.set_defaults(handler=_run_count)

    p = sub.add_parser("enumerate", help="enumerate rook placements to a family file")
    _add_grid(p, need_r=True)
    _add_common(p)
    p.set_defaults(handler=_run_enumerate)

    p = sub.add_parser("verify", help="exact EKR verdict for the rook grid")
    _add_grid(p, need_r=True)
    _add_common(p)
    p.set_defaults(handler=_run_verify)

    p = sub.add_parser("lemma1", help="per-order interval bound sweep")
    _add_grid(p, need_r=True, r_optional=True)
    _add_common(p)
    p.set_defaults(handler=_run_lemma1)

    p = sub.add_parser("occurrence", help="per-placement order occurrence sweep")
    _add_grid(p, need_r=True)
    _add_common(p)
    p.set_defaults(handler=_run_occurrence)

    p = sub.add_parser("double-count", help="incidence identity on a family")
    p.add_argument("--family", help="family JSON file to check")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--samples", type=int, default=100,
                   help="number of sampled intersecting families (default 100)")
    _add_common(p)
    p.set_defaults(handler=_run_double_count)

    p = sub.add_parser("windows", help="interval window structure sweep")
    _add_grid(p, need_r=True)
    _add_common(p)
    p.set_defaults(handler=_run_windows)

    p = sub.add_parser("orders", help="enumerate canonical cyclic orders")
    _add_grid(p, need_r=False)
    _add_common(p)
    p.set_defaults(handler=_run_orders)

    p = sub.add_parser("graph-stats", help="independence statistics of a graph")
    p.add_argument("--graph", required=True, help="graph file or K/E/P/C shorthand")
    _add_common(p)
    p.set_defaults(handler=_run_graph_stats)

    p = sub.add_parser("product", help="cartesian or lexicographic product of two graphs")
    p.add_argument("--kind", choices=("cartesian", "lexicographic"), required=True)
    p.add_argument("--graph", action="append", help="give twice: left and right operand")
    _add_common(p)
    p.set_defaults(handler=_run_product)

    p = sub.add_parser("ht", help="EKR sweep over the conjectured range 1..mu/2")
    p.add_argument("--graph", required=True, help="graph file or K/E/P/C shorthand")
    _add_common(p)
    p.set_defaults(handler=_run_ht)

    p = sub.add_parser("lex", help="EKR implication check for G and G[K_k]")
    p.add_argument("--graph", required=True, help="graph file or K/E/P/C shorthand")
    p.add_argument("--k", type=int, required=True, help="clique size substituted per vertex")
    p.add_argument("--r", type=int, required=True, help="independent set size")
    _add_common(p)
    p.set_defaults(handler=_run_lex)

    p = sub.add_parser("check-witness", help="independently validate a report's counterexample")
    p.add_argument("--report", required=True, help="report JSON produced by an exit-1 run")
    _add_common(p)
    p.set_defaults(handler=_run_check_witness)

    return parser


_SAMPLED_COMMANDS = {"double-count"}


def _args_parameters(args) -> dict:
    """Best-effort parameter echo for reports built on error paths."""
    out = {}
    for key in ("n", "m", "r", "graph", "k", "family", "samples", "kind", "report"):
        value = getattr(args, key, None)
        if value is not None:
            out[key] = value
    return out


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
        return
    rows: list[tuple[str, object]] = [("command", report["command"])]
    rows.extend(report["parameters"].items())
    for key, value in report["result"].items():
        if isinstance(value, (dict, list)):
            rows.append((key, f"<{len(value)} entries>"))
        else:
            rows.append((key, value))
    if report["counterexample"] is not None:
        rows.append(("counterexample", report["counterexample"].get("kind")))
    rows.append(("elapsed_ms", report["elapsed_ms"]))
    width = max(len(key) for key, _ in rows)
    for key, value in rows:
        print(f"{key:<{width}}  {value}")


def main(argv: Sequence[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # Counts such as the number of cyclic orders are reported exactly,
        # past the 4,300 digits that Python otherwise converts to text.
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.monotonic()
    seed = args.seed if args.command in _SAMPLED_COMMANDS else None
    try:
        parameters, result, counterexample, exit_code = args.handler(args)
    except InputError as exc:
        print(f"ekrcheck: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        detail = f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc)
        print(f"ekrcheck: error: {detail}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        parameters = _args_parameters(args)
        result = {
            "status": "inconclusive",
            "reason": str(exc),
            "lower_bound": exc.lower_bound,
            "upper_bound": exc.upper_bound,
        }
        counterexample = None
        exit_code = 3
    report = {
        "schema": SCHEMA_VERSION,
        "command": args.command,
        "parameters": parameters,
        "result": result,
        "counterexample": counterexample,
        "elapsed_ms": int((time.monotonic() - started) * 1000),
        "seed": seed,
    }
    _emit(report, args.json)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
