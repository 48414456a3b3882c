"""Exact maximum intersecting families and EKR verdicts.

The maximum intersecting family problem reduces to maximum clique on the
compatibility graph whose vertices are the input sets and whose edges join
intersecting pairs.  The engine is a branch-and-bound search with a greedy
coloring upper bound, branching in the caller's lexicographic vertex order;
a second, single depth-first pass in the same order stops at the first
maximum clique it reaches, which is the lexicographically smallest maximum
family, so results are deterministic regardless of how work is scheduled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from .counts import rook_star_count
from .errors import InputError, ResourceLimitError
from .graphs import (
    SimpleGraph,
    enumerate_independent,
    lexicographic_product,
    min_maximal_independent_size,
    complete_graph,
    DEFAULT_ENUMERATION_BUDGET,
    DEFAULT_SEARCH_VERTEX_BUDGET,
)
from .rook import enumerate_placements, DEFAULT_FAMILY_BUDGET

VERDICT_HOLDS = "EKR_HOLDS"
VERDICT_FAILS = "EKR_FAILS"
VERDICT_RANGE_HOLDS = "OUT_OF_THEOREM_RANGE_HOLDS"
VERDICT_RANGE_FAILS = "OUT_OF_THEOREM_RANGE_FAILS"


@dataclass
class SearchBudget:
    """Limits for the exact search; exceeding either fails loudly."""

    max_nodes: int = 10**8
    max_seconds: float | None = None


class _CliqueEngine:
    """Branch-and-bound maximum clique on a compatibility graph.

    Vertices are identified with indices 0..V-1 in the caller's
    (lexicographic) order, and every search branches in that order.
    """

    def __init__(self, adjacency: Sequence[int], budget: SearchBudget) -> None:
        self._adj = adjacency
        self._count = len(adjacency)
        self._budget = budget
        self._deadline = (
            time.monotonic() + budget.max_seconds if budget.max_seconds is not None else None
        )
        self._nodes = 0
        self.best = 0
        self.root_bound = self._count

    def full_mask(self) -> int:
        return (1 << self._count) - 1

    def _tick(self) -> None:
        self._nodes += 1
        if self._nodes > self._budget.max_nodes:
            raise ResourceLimitError(
                f"clique search exceeded {self._budget.max_nodes} nodes",
                lower_bound=self.best,
                upper_bound=self.root_bound,
            )
        if self._deadline is not None and self._nodes % 256 == 0:
            if time.monotonic() > self._deadline:
                raise ResourceLimitError(
                    f"clique search exceeded {self._budget.max_seconds} seconds",
                    lower_bound=self.best,
                    upper_bound=self.root_bound,
                )

    def _color(self, candidates: int) -> list[tuple[int, int]]:
        """Greedy coloring; returns (vertex, color) in nondecreasing color order."""
        colored: list[tuple[int, int]] = []
        color = 0
        remaining = candidates
        while remaining:
            color += 1
            pool = remaining
            while pool:
                v = (pool & -pool).bit_length() - 1
                bit = 1 << v
                pool &= ~bit & ~self._adj[v]
                remaining &= ~bit
                colored.append((v, color))
        return colored

    def max_clique_size(self, initial_best: int = 0) -> int:
        """Exact maximum clique size; ``initial_best`` must be attainable."""
        self.best = initial_best
        full = self.full_mask()
        if full:
            self.root_bound = self._color(full)[-1][1]
            if self.root_bound > self.best:
                self._expand(full, 0)
        # The search is complete, so a later budget exit reports exact bounds.
        self.root_bound = self.best
        return self.best

    def _expand(self, candidates: int, size: int) -> None:
        self._tick()
        colored = self._color(candidates)
        for index in range(len(colored) - 1, -1, -1):
            v, color = colored[index]
            if size + color <= self.best:
                return
            bit = 1 << v
            candidates &= ~bit
            if size + 1 > self.best:
                self.best = size + 1
            sub = candidates & self._adj[v]
            if sub:
                self._expand(sub, size + 1)

    def lex_smallest_clique(self, target: int) -> tuple[int, ...]:
        """Lexicographically smallest clique of the given size, as sorted
        caller-order indices.  Assumes such a clique exists.

        One depth-first search extends the chosen prefix with its candidates
        (the later vertices adjacent to the whole prefix) in increasing index
        order, and returns the first clique of the target size it reaches.
        Unpruned, it reaches those cliques in lexicographic order: two that
        first differ at position i share the prefix before i, and the
        subtree of the smaller i-th vertex is finished before the larger one
        is entered.  A node is pruned only when its candidates are fewer than
        the vertices still needed, or take fewer greedy colors (a coloring
        needs at least as many colors as the largest clique it colors), so a
        pruned subtree holds no clique of the target size.  Hence the first
        clique reached is the smallest.
        """
        chosen: list[int] = []

        def extend(candidates: int, need: int) -> bool:
            if need == 0:
                return True
            self._tick()
            if candidates.bit_count() < need or self._color(candidates)[-1][1] < need:
                return False
            while candidates:
                v = (candidates & -candidates).bit_length() - 1
                candidates &= candidates - 1
                chosen.append(v)
                if extend(candidates & self._adj[v], need - 1):
                    return True
                chosen.pop()
            return False

        if not extend(self.full_mask(), target):
            raise RuntimeError("internal error: failed to rebuild a maximum clique")
        return tuple(chosen)


def max_intersecting_family(
    sets: Sequence[tuple],
    budget: SearchBudget | None = None,
) -> tuple[int, tuple[tuple, ...]]:
    """Exact maximum size of a pairwise-intersecting subfamily, with witness.

    The witness is the lexicographically smallest maximum family (members
    sorted, families compared member-wise).  Certified before returning:
    the witness is pairwise intersecting and has the reported size.
    """
    budget = budget or SearchBudget()
    unique = sorted(set(sets))
    if not unique:
        return 0, ()
    element_masks: dict[object, int] = {}
    for index, member in enumerate(unique):
        for element in member:
            element_masks[element] = element_masks.get(element, 0) | (1 << index)
    adjacency = [0] * len(unique)
    for index, member in enumerate(unique):
        mask = 0
        for element in member:
            mask |= element_masks[element]
        adjacency[index] = mask & ~(1 << index)

    # Every element's stars are cliques, so the largest one seeds the bound.
    seed = max((mask.bit_count() for mask in element_masks.values()), default=0)
    seed = max(seed, 1)

    engine = _CliqueEngine(adjacency, budget)
    size = engine.max_clique_size(initial_best=seed)
    witness = tuple(unique[i] for i in engine.lex_smallest_clique(size))

    member_sets = [set(p) for p in witness]
    for i in range(len(member_sets)):
        for j in range(i + 1, len(member_sets)):
            if member_sets[i].isdisjoint(member_sets[j]):
                raise RuntimeError("internal error: witness is not pairwise intersecting")
    if len(witness) != size:
        raise RuntimeError("internal error: witness size does not match the reported maximum")
    return size, witness


@dataclass(frozen=True)
class EkrReport:
    """Verdict on whether stars are as large as every intersecting family."""

    parameters: dict
    max_intersecting: int
    best_star: int
    verdict: str
    witness: tuple[tuple, ...]
    elapsed: float = field(compare=False, default=0.0)

    @property
    def holds(self) -> bool:
        return self.max_intersecting <= self.best_star

    @property
    def in_theorem_range(self) -> bool:
        return self.verdict in (VERDICT_HOLDS, VERDICT_FAILS)

    def to_json_dict(self) -> dict:
        return {
            "parameters": dict(self.parameters),
            "max_intersecting": self.max_intersecting,
            "best_star": self.best_star,
            "verdict": self.verdict,
            "witness": [[list(cell) if isinstance(cell, tuple) else cell for cell in member]
                        for member in self.witness],
            "elapsed_ms": int(self.elapsed * 1000),
        }


def _verdict(holds: bool, in_range: bool) -> str:
    if in_range:
        return VERDICT_HOLDS if holds else VERDICT_FAILS
    return VERDICT_RANGE_HOLDS if holds else VERDICT_RANGE_FAILS


def rook_ekr_report(
    n: int,
    m: int,
    r: int,
    budget: SearchBudget | None = None,
    max_sets: int = DEFAULT_FAMILY_BUDGET,
) -> EkrReport:
    """Exact verdict for the n-by-m rook grid at size r.

    The comparator is the closed-form star size, the same at every cell by
    vertex transitivity.  In-theorem-range means r <= min(n, m)/2.
    """
    if not 1 <= r <= min(n, m):
        raise InputError(f"r must be in 1..min(n,m)={min(n, m)}, got {r}")
    started = time.monotonic()
    placements = enumerate_placements(n, m, r, max_sets)
    size, witness = max_intersecting_family(placements, budget)
    star = rook_star_count(n, m, r)
    return EkrReport(
        parameters={"kind": "rook", "n": n, "m": m, "r": r},
        max_intersecting=size,
        best_star=star,
        verdict=_verdict(size <= star, 2 * r <= min(n, m)),
        witness=witness,
        elapsed=time.monotonic() - started,
    )


def graph_ekr_report(
    g: SimpleGraph,
    r: int,
    budget: SearchBudget | None = None,
    max_sets: int = DEFAULT_ENUMERATION_BUDGET,
    vertex_budget: int = DEFAULT_SEARCH_VERTEX_BUDGET,
    known_min_maximal: int | None = None,
) -> EkrReport:
    """Exact verdict for an arbitrary graph at size r.

    The comparator is the best star over all vertices (the EKR property
    only asks for one good vertex).  In-theorem-range means r is at most
    half the smallest maximal independent set size.
    """
    if r < 1:
        raise InputError(f"r must be at least 1, got {r}")
    started = time.monotonic()
    sets = enumerate_independent(g, r, max_sets)
    star_sizes = [0] * (g.vertex_count + 1)
    for member in sets:
        for v in member:
            star_sizes[v] += 1
    best_star = max(star_sizes)
    mu = (
        known_min_maximal
        if known_min_maximal is not None
        else min_maximal_independent_size(g, vertex_budget)
    )
    size, witness = max_intersecting_family(sets, budget)
    return EkrReport(
        parameters={
            "kind": "graph",
            "vertices": g.vertex_count,
            "edge_count": g.edge_count,
            "r": r,
            "min_maximal_independent_size": mu,
        },
        max_intersecting=size,
        best_star=best_star,
        verdict=_verdict(size <= best_star, 2 * r <= mu),
        witness=witness,
        elapsed=time.monotonic() - started,
    )


def holroyd_talbot_sweep(
    g: SimpleGraph,
    budget: SearchBudget | None = None,
    max_sets: int = DEFAULT_ENUMERATION_BUDGET,
    vertex_budget: int = DEFAULT_SEARCH_VERTEX_BUDGET,
) -> list[EkrReport]:
    """One report per r in the conjectured range 1..mu/2 (empty if mu < 2)."""
    mu = min_maximal_independent_size(g, vertex_budget)
    return [
        graph_ekr_report(g, r, budget, max_sets, vertex_budget, known_min_maximal=mu)
        for r in range(1, mu // 2 + 1)
    ]


@dataclass(frozen=True)
class LexCheckResult:
    """Premise/conclusion pair for the lexicographic-product implication."""

    premise: EkrReport
    conclusion: EkrReport

    @property
    def violation(self) -> bool:
        """True if the premise holds but the conclusion fails; the EKR
        property is known to transfer to G[K_k], so this signals a bug."""
        return self.premise.holds and not self.conclusion.holds


def lex_product_check(
    g: SimpleGraph,
    k: int,
    r: int,
    budget: SearchBudget | None = None,
    max_sets: int = DEFAULT_ENUMERATION_BUDGET,
    vertex_budget: int = DEFAULT_SEARCH_VERTEX_BUDGET,
) -> LexCheckResult:
    """Check the implication: if G is r-EKR then G[K_k] is r-EKR."""
    if k < 1:
        raise InputError(f"k must be at least 1, got {k}")
    premise = graph_ekr_report(g, r, budget, max_sets, vertex_budget)
    product = lexicographic_product(g, complete_graph(k))
    conclusion = graph_ekr_report(product, r, budget, max_sets, vertex_budget)
    return LexCheckResult(premise=premise, conclusion=conclusion)
