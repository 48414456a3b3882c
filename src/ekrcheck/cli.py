"""Command-line interface: every verification as a reproducible, scriptable run.

Each run emits one report; with ``--json`` that is a single JSON document on
standard output, otherwise a small fixed table.  Exit codes:

    0   verified / property holds
    1   violation found (a machine-checkable counterexample is embedded)
    2   usage or input error, an unknown flag included
    3   budget exhausted (inconclusive)
    141 the reader closed standard output before the report was written

A report or help text that cannot be written for another reason (a full
disk, say) exits 2, with the reason on standard error.

Reports from runs that exit 1 can be revalidated independently with the
``check-witness`` subcommand; ``witness`` writes each counterexample kind.

This module imports only the standard library and ``errors`` when it
loads; each handler imports the library modules it runs, so a command
compiles no module it does not use, and imports a counterexample producer
only when it finds a violation.  Each command takes only the flags it reads.
A process started from the command line enters through ``run``, which ends
it without the interpreter's teardown once the report is written.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from collections.abc import Callable, Sequence
from typing import NoReturn

from .errors import (
    DEFAULT_NODE_BUDGET, DEFAULT_SEARCH_VERTEX_BUDGET, DEFAULT_SET_BUDGET, InputError,
    ResourceLimitError, bounds_of, save_json, write_json,
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


def _artifact(out: str | None, result: dict, key: str, document: object) -> dict:
    """``result`` with ``document`` written to the --out file, or held under
    ``key`` when there is none."""
    if out:
        save_json(document, out)
        result["written"] = out
    else:
        result[key] = document
    return result


# count, windows and orders compute (n-1)! * (m-1)!, and count writes it and
# its other counts in full, in time quadratic in their digits, so a grid with
# a side longer than this exits 3 before any count is computed.  The largest
# grid count answers, 10^4 x 10^4, writes about 165,000 digits.
COUNT_SIDE_BUDGET = 10**4


def _check_sides(command: str, n: int, m: int) -> None:
    if max(n, m) > COUNT_SIDE_BUDGET:
        raise ResourceLimitError(
            f"{command} on a {n} x {m} grid: a side exceeds the budget of {COUNT_SIDE_BUDGET}"
        )


# ---------------------------------------------------------------------------
# subcommand handlers: each takes (args, parameters), the report's parameters
# as main builds them, which only double-count edits, and returns
# (result, counterexample, exit_code)


def _run_count(args, parameters) -> tuple[dict, dict | None, int]:
    from . import counts

    _check_sides("count", args.n, args.m)
    result = {
        "placements": counts.rook_placement_count(args.n, args.m, args.r),
        "star": counts.rook_star_count(args.n, args.m, args.r),
        "cyclic_orders": counts.cyclic_order_count(args.n, args.m),
        "interval_occurrences": counts.interval_occurrence_count(args.n, args.m, args.r),
    }
    return result, None, 0


def _run_enumerate(args, parameters) -> tuple[dict, dict | None, int]:
    from . import rook

    placements = rook.enumerate_placements(args.n, args.m, args.r, args.budget_sets)
    family = rook.Family(args.n, args.m, args.r, tuple(placements))
    result = _artifact(args.out, {"count": len(family)}, "family", rook.family_to_json_dict(family))
    return result, None, 0


def _run_verify(args, parameters) -> tuple[dict, dict | None, int]:
    from . import search

    budget = search.SearchBudget(max_seconds=args.budget_seconds)
    report = search.rook_ekr_report(args.n, args.m, args.r, budget, args.budget_sets)
    counterexample = None
    if not report.holds:
        from .witness import family_exceeds_star_payload

        counterexample = family_exceeds_star_payload(report, None)
    return report.to_json_dict(), counterexample, 0 if report.holds else 1


def _run_lemma1(args, parameters) -> tuple[dict, dict | None, int]:
    from . import counts, cycles

    half = min(args.n, args.m) // 2
    r_values = [args.r] if args.r is not None else list(range(1, half + 1))
    # The maximum is the same in every order (cycles module docstring), so the
    # first order stands for all of them, counterexample included.
    order = cycles.reference_order(args.n, args.m)
    checks = []
    counterexample = None
    for r in r_values:
        with bounds_of(f"r={r}"):
            witness = cycles.max_intersecting_intervals_witness(order, r)
        value = len(witness)
        checks.append(
            {
                "r": r,
                # Counted after the check's guard, which keeps the sides short.
                "orders": counts.cyclic_order_count(args.n, args.m),
                "min_over_orders": value,
                "max_over_orders": value,
                "all_equal_r": value == r,
            }
        )
        if counterexample is None and value != r:
            from .witness import interval_family_payload

            counterexample = interval_family_payload(order, r, witness)
    result = {"checks": checks, "all_pass": counterexample is None}
    return result, counterexample, 0 if counterexample is None else 1


def _run_occurrence(args, parameters) -> tuple[dict, dict | None, int]:
    from . import counts, cycles, rook

    cycles.require_tally_work(args.n, args.m, args.r)
    placements = rook.require_placement_budget(args.n, args.m, args.r, args.budget_sets)
    expected = counts.interval_occurrence_count(args.n, args.m, args.r)
    # Every placement has the count of the first listed (cycles docstring,
    # "Relabelling"), so that one is looked up and none is listed.
    first = tuple((k, k) for k in range(1, args.r + 1))
    value = cycles.interval_tally(args.n, args.m, args.r)(first)
    counterexample = None
    if value != expected:
        from .witness import occurrence_payload

        counterexample = occurrence_payload(args.n, args.m, first, expected, value)
    result = {
        "placements": placements,
        "orders": counts.cyclic_order_count(args.n, args.m),
        "expected_occurrences": expected,
        "all_match": counterexample is None,
    }
    return result, counterexample, 0 if counterexample is None else 1


def _run_double_count(args, parameters) -> tuple[dict, dict | None, int]:
    from random import Random

    from . import counts, cycles, rook

    if args.family:
        for flag in ("n", "m", "r"):
            if parameters[flag] is not None:
                raise InputError(f"--{flag} cannot be given with --family: the file gives the grid")
        family = rook.load_family(args.family)
        parameters.update(n=family.n, m=family.m, r=family.r)
        del parameters["samples"]
        families = [family]
    else:
        if args.n is None or args.m is None or args.r is None:
            raise InputError("double-count needs --family, or --n/--m/--r to sample families")
        del parameters["family"]
        counts.require_placement_size(args.n, args.m, args.r)
        if args.samples:  # refuse the tally before a star is built for each sample
            cycles.require_tally_work(args.n, args.m, args.r)
        families = [
            rook.random_intersecting_family(args.n, args.m, args.r, Random(args.seed + i))
            for i in range(args.samples)
        ]
    counterexample = None
    double_counts = cycles.interval_double_counts(families)
    bound = None
    if families:  # all on the grid and at the r of the parameters
        bound = parameters["r"] * counts.cyclic_order_count(parameters["n"], parameters["m"])
    all_equal = all_within_bound = True
    for family, (lhs, rhs) in zip(families, double_counts):
        # Only an intersecting family is held to the bound.
        within_bound = lhs <= bound or not rook.pairwise_intersecting(family)
        all_equal &= lhs == rhs
        all_within_bound &= within_bound
        if counterexample is None and not (lhs == rhs and within_bound):
            from .witness import double_count_payload

            counterexample = double_count_payload(family, lhs, rhs, bound)
    result = {
        "families": len(families),
        "all_equal": all_equal,
        "all_within_bound": all_within_bound,
        "bound": bound,
        "max_lhs": max((lhs for lhs, _ in double_counts), default=0),
    }
    if len(families) == 1:
        result.update(lhs=double_counts[0].lhs, rhs=double_counts[0].rhs)
    return result, counterexample, 0 if counterexample is None else 1


def _run_windows(args, parameters) -> tuple[dict, dict | None, int]:
    from . import counts, cycles

    # Each start passes or fails alike in every order (cycles module
    # docstring), so the first order's first failure is the sweep's.
    order = cycles.reference_order(args.n, args.m)
    report = cycles.first_window_failure(order, args.r)
    _check_sides("windows", args.n, args.m)
    counterexample = None
    if report is not None:
        from .witness import window_payload

        counterexample = window_payload(report)
    result = {
        "orders": counts.cyclic_order_count(args.n, args.m),
        "starts_per_order": args.n * args.m,
        "all_pass": counterexample is None,
    }
    return result, counterexample, 0 if counterexample is None else 1


def _run_orders(args, parameters) -> tuple[dict, dict | None, int]:
    from . import counts, cycles

    counts.require_grid(args.n, args.m)
    _check_sides("orders", args.n, args.m)
    order_list = cycles.enumerate_cyclic_orders(args.n, args.m, args.budget_sets)
    payload = [order.to_json_dict() for order in order_list]
    result = _artifact(args.out, {"count": len(order_list)}, "orders", payload)
    return result, None, 0


def _run_graph_stats(args, parameters) -> tuple[dict, dict | None, int]:
    from . import graphs

    g = _graph_argument(args.graph, args.vertex_budget)
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
    return result, None, 0


def _run_product(args, parameters) -> tuple[dict, dict | None, int]:
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
    result = {"vertices": product.vertex_count, "edge_count": product.edge_count}
    result = _artifact(args.out, result, "graph", graphs.graph_to_json_dict(product))
    return result, None, 0


def _run_ht(args, parameters) -> tuple[dict, dict | None, int]:
    from . import graphs, search

    budget = _budget(args)
    g = _graph_argument(args.graph, args.vertex_budget)
    mu = graphs.min_maximal_independent_size(g, args.vertex_budget)
    # The conjectured range is 1..mu/2, empty when mu < 2.
    reports = []
    counterexample = None
    for r in range(1, mu // 2 + 1):
        with bounds_of(f"r={r}"):
            report = search.graph_ekr_report(
                g, r, budget, args.budget_sets, args.vertex_budget, known_min_maximal=mu
            )
        reports.append(report)
        if counterexample is None and not report.holds:
            from .witness import family_exceeds_star_payload

            counterexample = family_exceeds_star_payload(report, g)
    result = {
        "min_maximal_independent_size": mu,
        "reports": [report.to_json_dict() for report in reports],
        "all_hold": counterexample is None,
    }
    return result, counterexample, 0 if counterexample is None else 1


def _run_lex(args, parameters) -> tuple[dict, dict | None, int]:
    from . import graphs, search

    g = _graph_argument(args.graph, args.vertex_budget)
    if args.k < 1:
        raise InputError(f"k must be at least 1, got {args.k}")
    limits = (_budget(args), args.budget_sets, args.vertex_budget)
    # If G is r-EKR, so is G[K_k]; a budget exit names the report it was in.
    with bounds_of("premise"):
        premise = search.graph_ekr_report(g, args.r, *limits)
    product = graphs.lexicographic_product(g, graphs.complete_graph(args.k))
    # mu(G[K_k]) = mu(G): an independent set of G[K_k] takes at most one
    # copy of each vertex of G, and the copies of a vertex share its
    # neighbours, so the set projects onto an independent set of G of the
    # same size, which is maximal exactly when the set is; and every
    # maximal set of G lifts to one of G[K_k].
    mu = premise.parameters["min_maximal_independent_size"]
    with bounds_of("conclusion"):
        conclusion = search.graph_ekr_report(product, args.r, *limits, known_min_maximal=mu)
    # A violation is a failed conclusion, whose family is reported first.
    counterexample = None
    if not (premise.holds and conclusion.holds):
        from .witness import family_exceeds_star_payload

        if conclusion.holds:
            counterexample = family_exceeds_star_payload(premise, g)
        else:
            counterexample = family_exceeds_star_payload(conclusion, product)
    result = {
        "premise": premise.to_json_dict(),
        "conclusion": conclusion.to_json_dict(),
        "implication_violated": premise.holds and not conclusion.holds,
    }
    return result, counterexample, 0 if counterexample is None else 1


def _run_check_witness(args, parameters) -> tuple[dict, dict | None, int]:
    from .witness import check_report

    kind, confirmed, detail = check_report(args.report)
    result = {"kind": kind, "confirmed": confirmed, "detail": detail}
    return result, None, 0 if confirmed else 1


# ---------------------------------------------------------------------------
# wiring


def _budget(args):
    """The command's search budget; its --budget-seconds clock starts now."""
    from . import search

    return search.SearchBudget(max_nodes=args.budget_nodes, max_seconds=args.budget_seconds)


def _nonnegative(cast: Callable[[str], int | float]) -> Callable[[str], int | float]:
    """Argument type for budgets and --samples: ``cast`` the text, refuse values below 0."""

    def parse(text: str) -> int | float:
        value = cast(text)
        if not value >= 0:  # also refuses nan
            raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
        return value

    parse.__name__ = cast.__name__  # argparse names it in "invalid int value"
    return parse


# Flag groups: each flag is its add_argument name and options.
_GRID = (
    ("--n", {"type": int, "required": True, "help": "number of rows"}),
    ("--m", {"type": int, "required": True, "help": "number of columns"}),
)
_R = (("--r", {"type": int, "required": True, "help": "placement size"}),)
_GRAPH = (("--graph", {"required": True, "help": "graph file or K/E/P/C shorthand"}),)
_OUT = (("--out", {"help": "write the produced artifact to this file"}),)
_SECONDS_BUDGET = (("--budget-seconds", {"type": _nonnegative(float), "default": None,
                                         "help": "wall-clock budget for searches"}),)
_SEARCH_BUDGETS = (
    ("--budget-nodes", {"type": _nonnegative(int), "default": DEFAULT_NODE_BUDGET,
                        "help": "search node budget (default %(default)s)"}),
) + _SECONDS_BUDGET
_SET_BUDGET = (
    ("--budget-sets", {"type": _nonnegative(int), "default": DEFAULT_SET_BUDGET,
                       "help": "output-size budget for enumerations (default %(default)s)"}),
)
_VERTEX_BUDGET = (
    ("--vertex-budget", {"type": _nonnegative(int), "default": DEFAULT_SEARCH_VERTEX_BUDGET,
                         "help": "vertex budget for exhaustive graph searches "
                                 "(default %(default)s)"}),
)
_ALL_BUDGETS = _SEARCH_BUDGETS + _SET_BUDGET + _VERTEX_BUDGET
# Every command takes these.
_EVERY = (
    ("--json", {"action": "store_true", "help": "emit one JSON report on stdout"}),
    ("--threads", {"type": int, "default": 1, "help": "accepted for compatibility; has no "
                                                      "effect (sweeps run in one process)"}),
)

# The dests of the flags that set how a run goes, not what it checks.
_RUN_FLAGS = {"out", "seed", "budget_nodes", "budget_seconds", "budget_sets", "vertex_budget"}

# command -> (help, handler, flag groups); each command takes only the flags
# its handler reads, and any other flag is a usage error (exit 2).
_COMMANDS = {
    "count": ("closed-form counts for a grid", _run_count, (_GRID, _R)),
    "enumerate": ("enumerate rook placements to a family file", _run_enumerate,
                  (_GRID, _R, _OUT, _SET_BUDGET)),
    "verify": ("exact EKR verdict for the rook grid", _run_verify,
               (_GRID, _R, _SECONDS_BUDGET, _SET_BUDGET)),
    "lemma1": ("per-order interval bound sweep", _run_lemma1,
               (_GRID, (("--r", {"type": int, "default": None, "help": "placement size"}),))),
    "occurrence": ("per-placement order occurrence sweep", _run_occurrence,
                   (_GRID, _R, _SET_BUDGET)),
    "double-count": ("incidence identity on a family", _run_double_count, ((
        ("--family", {"help": "family JSON file to check"}),
        ("--n", {"type": int, "default": None}),
        ("--m", {"type": int, "default": None}),
        ("--r", {"type": int, "default": None}),
        ("--samples", {"type": _nonnegative(int), "default": 100,
                       "help": "number of sampled intersecting families (default 100)"}),
        ("--seed", {"type": int, "default": 0, "help": "seed for sampled checks (default 0)"}),
    ),)),
    "windows": ("interval window structure sweep", _run_windows, (_GRID, _R)),
    "orders": ("enumerate canonical cyclic orders", _run_orders, (_GRID, _OUT, _SET_BUDGET)),
    "graph-stats": ("independence statistics of a graph", _run_graph_stats,
                    (_GRAPH, _VERTEX_BUDGET)),
    "product": ("cartesian or lexicographic product of two graphs", _run_product, ((
        ("--kind", {"choices": ("cartesian", "lexicographic"), "required": True}),
        ("--graph", {"action": "append", "help": "give twice: left and right operand"}),
    ), _VERTEX_BUDGET, _OUT)),
    "ht": ("EKR sweep over the conjectured range 1..mu/2", _run_ht, (_GRAPH, _ALL_BUDGETS)),
    "lex": ("EKR implication check for G and G[K_k]", _run_lex, (_GRAPH, (
        ("--k", {"type": int, "required": True, "help": "clique size substituted per vertex"}),
        ("--r", {"type": int, "required": True, "help": "independent set size"}),
    ), _ALL_BUDGETS)),
    "check-witness": ("independently validate a report's counterexample", _run_check_witness, ((
        ("--report", {"required": True, "help": "report JSON produced by an exit-1 run"}),
    ),)),
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help and usage text on standard output fails
    as a report does: argparse's own writer drops the OSError of a failed
    write, so a run would exit 0 with its text lost.  The text is flushed
    at once, so the failure reaches ``main`` however stdout is buffered."""

    def _print_message(self, message: str, file=None) -> None:
        if message and file is sys.stdout:
            file.write(message)
            file.flush()
        else:
            super()._print_message(message, file)


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser for ``argv``: only the subparser of the command its first
    argument names, else (no command, --help, an unknown one) every one."""
    parser = _Parser(
        prog="ekrcheck",
        description="Exact verification of maximum intersecting families of "
                    "independent sets in rook's graphs and small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = [command for command in argv[:1] if command in _COMMANDS]
    for command in named or _COMMANDS:
        help_text, handler, groups = _COMMANDS[command]
        p = sub.add_parser(command, help=help_text)
        for group in (*groups, _EVERY):
            for name, options in group:
                p.add_argument(name, **options)
        p.set_defaults(handler=handler, parser=p)
    return parser


def _parameters(args) -> dict:
    """The report's parameters, the same on every exit path: each flag of the
    command's groups but ``_RUN_FLAGS``, in table order, keyed by its dest."""
    _, _, groups = _COMMANDS[args.command]
    dests = (name[2:].replace("-", "_") for group in groups for name, _ in group)
    return {dest: getattr(args, dest) for dest in dests if dest not in _RUN_FLAGS}


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        write_json(report, sys.stdout)
        return
    rows: list[tuple[str, object]] = [("command", report["command"])]
    rows.extend(report["parameters"].items())
    # A result key that repeats a top-level row (verify's elapsed_ms) is
    # printed as result.<key>, so that no two rows share a name.
    top = {"command", *report["parameters"], "counterexample", "elapsed_ms"}
    for key, value in report["result"].items():
        if isinstance(value, (dict, list, tuple)):
            value = f"<{len(value)} entries>"
        rows.append((f"result.{key}" if key in top else key, value))
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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:
            # The command's own parser refuses them, so its usage is printed.
            args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    except OSError as exc:
        return _unwritten(exc)
    started = time.monotonic()
    parameters = _parameters(args)
    try:
        result, counterexample, exit_code = args.handler(args, parameters)
    except InputError as exc:
        print(f"ekrcheck: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        detail = f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc)
        print(f"ekrcheck: error: {detail}", file=sys.stderr)
        return 2
    except (ResourceLimitError, MemoryError) as exc:
        if isinstance(exc, MemoryError):  # never a traceback: exit 1 reads as "refuted"
            exc = ResourceLimitError("out of memory")
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
        "seed": getattr(args, "seed", None),
    }
    try:
        _emit(report, args.json)
        sys.stdout.flush()
    except OSError as exc:
        return _unwritten(exc)
    return exit_code


def _unwritten(exc: OSError) -> int:
    """The exit code of a run whose standard output failed with ``exc``.

    A closed pipe (``ekrcheck orders ... | head``) exits as SIGPIPE would,
    128 + 13, and silently; any other failure is an error (exit 2) named
    on stderr, never a traceback (exit 1, which reads as "refuted").
    Standard output is pointed at the null device, so a later flush
    writes nowhere instead of raising again.
    """
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if isinstance(exc, BrokenPipeError):
        return 141
    print(f"ekrcheck: error: <stdout>: {exc.strerror}", file=sys.stderr)
    return 2


def run() -> NoReturn:
    """Run ``main`` as the whole process (``python -m ekrcheck`` and the
    ``ekrcheck`` script): flush both standard streams, then leave through
    ``os._exit``, skipping the teardown in which the interpreter frees
    every module and object after the report is out.  Every file a command
    writes is closed before ``main`` returns."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        code = _unwritten(exc)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
