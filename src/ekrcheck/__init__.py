"""Exact enumeration and verification of maximum intersecting families of
independent sets in rook's graphs and small general graphs.

The public names below are imported from their submodule on first use
(PEP 562), so ``import ekrcheck`` loads no submodule and a command-line run
compiles only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        (
            "binomial",
            "cyclic_order_count",
            "interval_occurrence_count",
            "rook_placement_count",
            "rook_star_count",
        ),
        "counts",
    ),
    **dict.fromkeys(
        (
            "CyclicOrder",
            "DoubleCount",
            "WindowReport",
            "all_intervals",
            "canonical_order",
            "check_interval_windows",
            "count_orders_containing",
            "enumerate_cyclic_orders",
            "first_window_failure",
            "interval_double_counts",
            "interval_tally",
            "max_intersecting_intervals_witness",
            "reference_order",
        ),
        "cycles",
    ),
    **dict.fromkeys(("InputError", "ResourceLimitError"), "errors"),
    **dict.fromkeys(
        (
            "SimpleGraph",
            "cartesian_product",
            "complete_graph",
            "cycle_graph",
            "empty_graph",
            "enumerate_independent",
            "independence_number",
            "is_well_covered",
            "lexicographic_product",
            "load_graph",
            "maximal_independent_sets",
            "min_maximal_independent_size",
            "path_graph",
            "save_graph",
            "twin_classes",
        ),
        "graphs",
    ),
    **dict.fromkeys(
        (
            "Family",
            "canonical_placement",
            "diagonal_intervals",
            "enumerate_placements",
            "load_family",
            "pairwise_intersecting",
            "random_intersecting_family",
            "random_placement",
            "row_projection",
            "save_family",
            "star_family",
        ),
        "rook",
    ),
    **dict.fromkeys(
        (
            "EkrReport",
            "SearchBudget",
            "graph_ekr_report",
            "max_intersecting_family",
            "rook_ekr_report",
        ),
        "search",
    ),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
