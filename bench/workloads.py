"""The benchmark's workloads: the ekrcheck runs each one makes, and its input files.

Every run is one ``ekrcheck`` process, started in the run's work
directory, so the file names in its arguments (and in its report) are
relative and the same on every machine.  Each workload takes about 4-6 s
per pass on a 2-core machine.

``python3 bench/workloads.py <workload> <directory>`` is the set-up step
that ``setup_s`` times: a fresh interpreter imports ``ekrcheck.cli`` and
writes the workload's input files.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class Run:
    """One CLI invocation.  Its standard output is saved as ``<name>.json``
    in the work directory; a ``sampled`` run is checked by its own result
    fields instead of a committed expected report."""

    name: str
    argv: tuple[str, ...]
    sampled: bool = False


WHY = {
    "rook-verify": "vertex-transitive rook grids: clique search and witness extraction in search "
                   "dominate; three r=2 grids stop at the root bound; cycles is not touched",
    "graph-sweep": "ht/lex/graph-stats on small general graphs: max search, graphs enumeration "
                   "and process start-up; the only counterexample producer/validator pair",
    "cycle-sweep": "lemma1 (2-worker pool), occurrence, windows and a seeded double-count: the "
                   "per-order cycle fan-out, with no clique search from search",
}

ROOK_GRIDS = ((4, 4, 2), (5, 5, 2), (6, 6, 2), (5, 5, 4), (5, 6, 3), (6, 6, 3), (6, 7, 3))

# Input graph files: name -> (left, right) factors of a Cartesian product.
INPUT_GRAPHS = {
    "graph-sweep": {"c4xc6.json": (("cycle", 4), ("cycle", 6)),
                    "p4xc5.json": (("path", 4), ("cycle", 5))},
}


def runs(workload: str, seed: int) -> list[Run]:
    """The runs of one pass, in order; ``seed`` feeds the sampled run only."""
    if workload == "rook-verify":
        return [Run(f"verify-{n}x{m}-r{r}",
                    ("verify", "--n", str(n), "--m", str(m), "--r", str(r), "--json"))
                for n, m, r in ROOK_GRIDS]
    if workload == "graph-sweep":
        return [
            Run("ht-E10", ("ht", "--graph", "E10", "--json")),
            Run("ht-c4xc6", ("ht", "--graph", "c4xc6.json", "--json")),
            Run("ht-p4xc5", ("ht", "--graph", "p4xc5.json", "--json")),
            Run("lex-E8-k2-r4", ("lex", "--graph", "E8", "--k", "2", "--r", "4", "--json")),
            # Exits 1; its standard output is the report that check-witness reads.
            Run("lex-E5-k2-r3", ("lex", "--graph", "E5", "--k", "2", "--r", "3", "--json")),
            Run("check-witness-lex-E5", ("check-witness", "--report", "lex-E5-k2-r3.json",
                                         "--json")),
            Run("graph-stats-C24", ("graph-stats", "--graph", "C24", "--json")),
            Run("graph-stats-c4xc6", ("graph-stats", "--graph", "c4xc6.json", "--json")),
        ]
    if workload == "cycle-sweep":
        return [
            Run("lemma1-6x6", ("lemma1", "--n", "6", "--m", "6", "--threads", "2", "--json")),
            Run("occurrence-5x5-r2", ("occurrence", "--n", "5", "--m", "5", "--r", "2", "--json")),
            Run("windows-5x5-r2", ("windows", "--n", "5", "--m", "5", "--r", "2", "--json")),
            Run("double-count-5x5-r2",
                ("double-count", "--n", "5", "--m", "5", "--r", "2", "--samples", "10",
                 "--seed", str(seed), "--json"),
                sampled=True),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(workload: str, directory: str) -> None:
    from ekrcheck import cli, graphs  # noqa: F401  (importing cli is part of set-up)

    builders = {"cycle": graphs.cycle_graph, "path": graphs.path_graph}
    for name, ((left, a), (right, b)) in INPUT_GRAPHS.get(workload, {}).items():
        product = graphs.cartesian_product(builders[left](a), builders[right](b))
        graphs.save_graph(product, os.path.join(directory, name))


if __name__ == "__main__":
    write_inputs(sys.argv[1], sys.argv[2])
