"""Exact maximum intersecting families and EKR verdicts.

The maximum intersecting family problem reduces to maximum clique on the
compatibility graph whose vertices are the input sets and whose edges join
intersecting pairs.  The engine is a branch-and-bound search with a
coloring upper bound (greedy at the root, re-numbered as in Tomita et al.'s
MCS below it), branching in the caller's lexicographic vertex order; a
second, single depth-first pass in the same order (tried first along its
leftmost path alone) stops at the first maximum clique it reaches, which is
the lexicographically smallest maximum family, so results are deterministic
regardless of how work is scheduled.
Both searches keep their own stack, so a clique of any size fits.

Symmetry reduction.  A caller may pass element permutations it expects to
be symmetries of the family; ``max_intersecting_family`` checks them before
it uses them.  Let ``unique`` be the sorted distinct sets and ``v0 =
unique[0]``.  The check requires each permutation to be a bijection on the
elements that occur in the family, and one breadth-first pass from ``v0``
to map every set it reaches to a set of the family and to reach every set
(and no two sets may sort to the same tuple).  As the pass reaches every
set, it checks the image of every set, so each permutation maps the family
onto itself; a bijection on the elements keeps two sets disjoint or not,
so each one is an automorphism of the compatibility graph, and the group
they generate is transitive on its vertices.  Then:

- some maximum family contains ``v0``: an automorphism that carries one
  member of a maximum family to ``v0`` carries the whole family to a
  maximum family through ``v0``;
- the lexicographically smallest maximum family starts with ``v0``:
  ``v0`` has the smallest index, so a maximum family through it precedes
  every maximum family that misses it;
- the rest of that family is the lexicographically smallest maximum family
  among the sets that meet ``v0``, kept in their sorted order: every
  family of sets meeting ``v0`` extends by ``v0`` to an intersecting
  family, and adding the same first member keeps the order of two
  families.

So the search runs on the sets that meet ``v0`` alone, and the answer is
one more than their maximum, with ``v0`` prepended to their witness.  On
rook grids, row and column permutations act transitively on the
placements; on a graph, permutations of a class of twins (vertices with
equal open or equal closed neighbourhoods) are automorphisms; on the
edgeless graph E_n all vertices are twins and the check passes, while on a
graph without twins there is nothing to check and the full search runs.

Cycle certificate.  On the edgeless graph E_n, with n >= 2r, the searched
family is every r-subset of [n], and Katona's cycle method (*A simple
proof of the Erdos-Chao Ko-Rado theorem*, JCTB 1972) bounds its
intersecting subfamilies.  A cyclic order of [n] is an arrangement of the
n labels around a circle, and its intervals are its runs of r consecutive
labels.  Let D be the number of distinct intervals of the identity order
(1, 2, ..., n), k the largest intersecting family among them, P the number
of r-sets and O the number of cyclic orders.  The permutations of [n] act
on the labels and the rotations on the positions, so the two actions
commute, and the first is transitive on the orders and on the r-sets.
Hence every order has D distinct intervals and a largest intersecting
family of k of them, and every r-set is an interval of the same number occ
of orders; counting the (order, interval) pairs both ways gives O*D =
P*occ.  An intersecting family F meets the intervals of each order in an
intersecting family of at most k of them, so summing over the orders,
|F| * occ <= O * k, and |F| <= O*k/occ = k*P/D.  ``graph_ekr_report``
computes k with the clique engine, D and P by counting, and checks that
the division is exact; on E_n they come out as k = r and D = n, so the
bound is r*C(n, r)/n = C(n-1, r-1), the star.  The max phase stops once
it reaches the bound, so when the star seed meets it no node is searched;
the witness pass and its certification run as before.
"""

from __future__ import annotations

import time
from itertools import chain
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .counts import require_placement_size, rook_star_count
from .errors import (
    DEFAULT_NODE_BUDGET, DEFAULT_SEARCH_VERTEX_BUDGET, DEFAULT_SET_BUDGET, InputError, Record,
    ResourceLimitError,
)
from .rook import enumerate_placements, pairwise_intersecting

if TYPE_CHECKING:  # the graph functions import graphs when they run
    from .graphs import SimpleGraph

VERDICT_HOLDS = "EKR_HOLDS"
VERDICT_FAILS = "EKR_FAILS"
VERDICT_RANGE_HOLDS = "OUT_OF_THEOREM_RANGE_HOLDS"
VERDICT_RANGE_FAILS = "OUT_OF_THEOREM_RANGE_FAILS"

# Before its first node, a search reads the clock once per this many sets:
# after enumerating them, in the symmetry check and while building the
# compatibility masks.  A family of fewer sets is set up in milliseconds,
# and the clique engine's first node reads the clock with exact bounds.
SETS_PER_CLOCK_READ = 1024


class SearchBudget(Record):
    """Limits for the exact search; exceeding either fails loudly.

    The clock starts when the budget is made, so every search given the
    same budget shares one deadline, and work done before a search (such
    as enumerating its sets) counts against it.  Budgets compare equal
    when their limits are equal; the deadline is not compared.  A copy is
    rebuilt from the limits, so it starts its own clock.
    """

    __slots__ = ("max_nodes", "max_seconds", "deadline")

    def __init__(
        self, max_nodes: int = DEFAULT_NODE_BUDGET, max_seconds: float | None = None
    ) -> None:
        deadline = time.monotonic() + max_seconds if max_seconds is not None else None
        super().__init__(max_nodes, max_seconds, deadline)

    def _key(self) -> tuple:
        return (self.max_nodes, self.max_seconds)

    __hash__ = None  # a running clock, not a value

    def __reduce__(self) -> tuple:
        return (self.__class__, self._key())

    def check_deadline(
        self, work: str, lower_bound: int | None = None, upper_bound: int | None = None
    ) -> None:
        """Raise ResourceLimitError, naming the work under way, once the
        deadline has passed; the bounds are those already exact."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimitError(
                f"{work} exceeded {self.max_seconds} seconds",
                lower_bound=lower_bound,
                upper_bound=upper_bound,
            )


class _CliqueEngine:
    """Branch-and-bound maximum clique on a compatibility graph.

    Vertices are identified with indices 0..V-1 in the caller's
    (lexicographic) order, and every search branches in that order.
    ``offset`` counts members that lie outside this graph but belong to
    every clique the caller builds from it; budget exits add it to the
    bounds they report.
    """

    def __init__(self, adjacency: Sequence[int], budget: SearchBudget, offset: int = 0) -> None:
        self._adj = adjacency
        self._count = len(adjacency)
        self._budget = budget
        self._offset = offset
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
                lower_bound=self._offset + self.best,
                upper_bound=self._offset + self.root_bound,
            )
        # Every node reads the clock: a node colours its candidates, which
        # costs far more than the read, and on tens of thousands of vertices
        # one node can take a second.
        if self._budget.deadline is not None:
            self._budget.check_deadline(
                "clique search",
                lower_bound=self._offset + self.best,
                upper_bound=self._offset + self.root_bound,
            )

    def _color(self, candidates: int, k_min: int = 0) -> list[int]:
        """A proper coloring of the candidates, as the mask of each color
        class in turn; with ``k_min`` = 0 it is plain greedy coloring in
        index order.

        Greedy coloring fills the classes up to ``k_min``.  Each vertex left
        over then tries, in index order, to enter a class k1 <= ``k_min``:
        directly if k1 holds no neighbour of it, or by moving k1's one
        neighbour w up to a class k2 (k1 < k2 <= ``k_min``) that holds no
        neighbour of w.  This is the Re-NUMBER step of Tomita et al.'s MCS
        (*A simple and faster branch-and-bound algorithm for finding a
        maximum clique*, WALCOM 2010).  Either move keeps every class an
        independent set.  The vertices that find no place are colored
        greedily from ``k_min + 1``.
        """
        adj = self._adj
        classes: list[int] = []
        remaining = candidates
        while remaining and len(classes) < k_min:
            classes.append(self._greedy_class(remaining))
            remaining ^= classes[-1]
        high = 0
        while remaining:
            bit = remaining & -remaining
            remaining ^= bit
            neighbours = adj[bit.bit_length() - 1]
            for k1, members in enumerate(classes):
                met = members & neighbours
                if not met:
                    classes[k1] = members | bit
                    break
                if not met & (met - 1):
                    w_neighbours = adj[met.bit_length() - 1]
                    k2 = next(
                        (k for k in range(k1 + 1, len(classes)) if not classes[k] & w_neighbours),
                        None,
                    )
                    if k2 is not None:
                        classes[k1] = (members ^ met) | bit
                        classes[k2] |= met
                        break
            else:
                high |= bit
        while high:
            classes.append(self._greedy_class(high))
            high ^= classes[-1]
        return classes

    def _greedy_class(self, pool: int) -> int:
        """The class that greedy coloring takes from ``pool``: each vertex in
        index order that has no neighbour taken before it."""
        adj = self._adj
        taken = 0
        while pool:
            bit = pool & -pool
            taken |= bit
            # Clearing bits by XOR keeps every operand nonnegative, which is
            # cheaper than AND with a complement (a negative int).
            pool ^= bit
            pool ^= pool & adj[bit.bit_length() - 1]
        return taken

    def _branch_order(self, candidates: int, k_min: int) -> list[tuple[int, int]]:
        """(vertex, color) for the vertices that ``_color(candidates,
        k_min)`` puts above ``k_min``, in nondecreasing color order."""
        classes = self._color(candidates, k_min)
        order: list[tuple[int, int]] = []
        for color in range(k_min + 1, len(classes) + 1):
            members = classes[color - 1]
            while members:
                bit = members & -members
                members ^= bit
                order.append((bit.bit_length() - 1, color))
        return order

    def max_clique_size(self, initial_best: int = 0, upper_bound: int | None = None) -> int:
        """Exact maximum clique size; ``initial_best`` must be attainable.

        ``upper_bound``, when given, is a bound the caller has proved: the
        search stops once it reaches it, at the root without coloring when
        ``initial_best`` already does.  A bound below ``initial_best`` is
        refused, since one of them is wrong.
        """
        if upper_bound is not None and upper_bound < initial_best:
            raise RuntimeError(
                f"internal error: the proved upper bound {upper_bound} is below "
                f"an attained clique of {initial_best}"
            )
        self.best = initial_best
        stop = self._count if upper_bound is None else upper_bound
        full = self.full_mask()
        if full and self.best < stop:
            colored = self._branch_order(full, 0)
            self.root_bound = min(colored[-1][1], stop)
            if self.root_bound > self.best:
                self._tick()
                self._expand(full, colored, stop)
        # The search is complete, so a later budget exit reports exact bounds.
        self.root_bound = self.best
        return self.best

    def _expand(self, candidates: int, colored: list[tuple[int, int]], stop: int) -> None:
        """Branch and bound from the root, whose node is already counted,
        until the whole tree is searched or the best size reaches ``stop``.

        One frame ``[candidates, clique size, coloring, next index]`` per
        clique level.  A frame branches on its vertices from the highest
        color down, and ends once the remaining colors cannot lift the
        clique above the best size found.

        The root keeps the plain greedy coloring.  A child frame of clique
        size s lists only the vertices that ``_color`` puts above k_min =
        best - s, with ``best`` as it is when the child is made.  The bound
        stays exact, for two reasons:

        - every class is still an independent set, so the coloring is
          proper: when the frame reaches a listed vertex, the candidates
          left are it, the listed vertices before it (no higher color) and
          the unlisted ones (color at most k_min, below every listed color),
          and a clique among them has at most one vertex per class;
        - ``best`` only grows, so a vertex left out of the list (color at
          most k_min) would fail the stop test whenever the frame reached
          it.  It stays in ``candidates``, so deeper levels still see it.
        """
        stack = [[candidates, 0, colored, len(colored) - 1]]
        while stack:
            frame = stack[-1]
            candidates, size, colored, index = frame
            if index < 0 or size + colored[index][1] <= self.best:
                stack.pop()
                continue
            v = colored[index][0]
            candidates &= ~(1 << v)
            frame[0], frame[3] = candidates, index - 1
            if size + 1 > self.best:
                self.best = size + 1
                if self.best == stop:
                    return
            sub = candidates & self._adj[v]
            if sub:
                self._tick()
                sub_colored = self._branch_order(sub, self.best - size - 1)
                stack.append([sub, size + 1, sub_colored, len(sub_colored) - 1])

    def _may_hold(self, candidates: int, need: int) -> bool:
        """Count a node; False when the candidates cannot hold a clique of
        ``need`` vertices because they are fewer, or take fewer greedy
        colors (a coloring needs at least as many colors as the largest
        clique it colors)."""
        self._tick()
        return candidates.bit_count() >= need and len(self._color(candidates)) >= need

    def lex_smallest_clique(self, target: int) -> tuple[int, ...]:
        """Lexicographically smallest clique of the given size, as sorted
        caller-order indices.  Assumes such a clique exists.

        One depth-first search extends the chosen prefix with its candidates
        (the later vertices adjacent to the whole prefix) in increasing index
        order, and returns the first clique of the target size it reaches.
        Unpruned, it reaches those cliques in lexicographic order: two that
        first differ at position i share the prefix before i, and the
        subtree of the smaller i-th vertex is finished before the larger one
        is entered.  A node is pruned only when ``_may_hold`` shows that its
        subtree holds no clique of the target size.  Hence the first clique
        reached is the smallest.

        ``stack[k]`` holds the candidates not yet tried after a prefix of k
        vertices, so ``chosen`` is always one shorter than the stack.

        Before that pass, a probe follows the leftmost path alone: it takes
        the lowest-index candidate and keeps its later neighbours among the
        candidates, once per level.  The unpruned search enters that path
        first and goes down it without backtracking, so if the path reaches
        ``target`` vertices, its first ``target`` vertices are the first
        clique of that size the search reaches, and the probe returns them
        without coloring anything.  Otherwise the pass runs as described.
        """
        if target == 0:
            return ()
        chosen: list[int] = []
        full = candidates = self.full_mask()
        while candidates and len(chosen) < target:
            self._tick()
            v = (candidates & -candidates).bit_length() - 1
            chosen.append(v)
            candidates &= self._adj[v]
        if len(chosen) == target:
            return tuple(chosen)
        chosen.clear()
        stack = [full] if self._may_hold(full, target) else []
        while stack:
            candidates = stack[-1]
            if not candidates:
                stack.pop()
                if chosen:
                    chosen.pop()
                continue
            v = (candidates & -candidates).bit_length() - 1
            stack[-1] = candidates = candidates & (candidates - 1)
            chosen.append(v)
            need = target - len(chosen)
            if need == 0:
                return tuple(chosen)
            sub = candidates & self._adj[v]
            if self._may_hold(sub, need):
                stack.append(sub)
            else:
                chosen.pop()
        raise RuntimeError("internal error: failed to rebuild a maximum clique")


def _compatibility(members: Sequence[tuple], budget: SearchBudget) -> tuple[list[int], int]:
    """The compatibility masks of ``members`` (bit j of mask i is set when
    members i and j differ and meet), and the largest star among them, a
    clique to seed the search with."""
    element_masks: dict[object, int] = {}
    for index, member in enumerate(members):
        for element in member:
            element_masks[element] = element_masks.get(element, 0) | (1 << index)
    adjacency = [0] * len(members)
    for index, member in enumerate(members):
        if index % SETS_PER_CLOCK_READ == SETS_PER_CLOCK_READ - 1:
            budget.check_deadline("building the compatibility masks")
        mask = 0
        for element in member:
            mask |= element_masks[element]
        adjacency[index] = mask & ~(1 << index)

    # Every element's star is a clique, and so is a single member (which
    # may be the empty set, with no elements at all).
    seed = max(
        (mask.bit_count() for mask in element_masks.values()), default=min(len(members), 1)
    )
    return adjacency, seed


def _lex_smallest_maximum(
    members: Sequence[tuple],
    budget: SearchBudget,
    offset: int = 0,
    upper_bound: int | None = None,
) -> tuple[tuple, ...]:
    """The lexicographically smallest maximum intersecting subfamily of the
    sorted distinct ``members``; ``offset`` and ``upper_bound`` as in
    ``_CliqueEngine``, the bound counting the offset's members too."""
    adjacency, seed = _compatibility(members, budget)
    engine = _CliqueEngine(adjacency, budget, offset)
    size = engine.max_clique_size(
        initial_best=seed, upper_bound=None if upper_bound is None else upper_bound - offset
    )
    clique = engine.lex_smallest_clique(size)
    if len(clique) != size:
        raise RuntimeError("internal error: witness size does not match the reported maximum")
    return tuple(members[i] for i in clique)


def _transitive_symmetries(
    unique: Sequence[tuple], symmetries: Sequence[Mapping], budget: SearchBudget
) -> bool:
    """True iff the permutations pass the check in the module docstring.

    An element a permutation does not list is fixed by it.  Elements are
    numbered by their first position in the family, and a set is keyed by
    the sum of its elements' bits, an integer with as many bits set as the
    set has elements exactly when none repeats.  A set with a repeated
    element is refused (its search then runs unreduced), so a key stands
    for the sorted elements.  A bijection sends distinct elements to
    distinct bits, so the key of an image is the sum of the image bits.
    """
    elements = list(dict.fromkeys(chain.from_iterable(unique)))
    position = {element: i for i, element in enumerate(elements)}
    bits = [1 << i for i in range(len(elements))]
    rows = [[position[element] for element in member] for member in unique]
    index = {}
    for i, row in enumerate(rows):
        key = sum(map(bits.__getitem__, row))
        if key.bit_count() != len(row):  # a carry: some position repeats
            return False
        index[key] = i
    if len(index) != len(unique):
        return False
    maps = []
    for perm in symmetries:
        image = [position.get(perm.get(element, element)) for element in elements]
        if None in image or len(set(image)) != len(elements):
            return False
        maps.append([1 << p for p in image].__getitem__)
    reached = {0}
    queue = [0]
    for count, i in enumerate(queue):  # the queue grows while it is read
        if count % SETS_PER_CLOCK_READ == SETS_PER_CLOCK_READ - 1:
            budget.check_deadline("symmetry check")
        row = rows[i]
        for bit in maps:
            image = index.get(sum(map(bit, row)))
            if image is None:
                return False
            if image not in reached:
                reached.add(image)
                queue.append(image)
    return len(reached) == len(unique)


def max_intersecting_family(
    sets: Sequence[tuple],
    budget: SearchBudget | None = None,
    symmetries: Sequence[Mapping] | None = None,
    upper_bound: int | None = None,
) -> tuple[int, tuple[tuple, ...]]:
    """Exact maximum size of a pairwise-intersecting subfamily, with witness.

    The witness is the lexicographically smallest maximum family (members
    sorted, families compared member-wise).  ``symmetries`` are element
    permutations (mappings; unlisted elements are fixed) that the caller
    expects to be symmetries of the family.  When they pass the check in
    the module docstring, only the sets that meet the first set are
    searched; otherwise, or without them, the whole family is.
    ``upper_bound`` is a bound on the answer that the caller has proved,
    such as the cycle certificate in the module docstring; the maximum
    search stops once it reaches it.  Certified before returning: the
    witness is pairwise intersecting and has the reported size.
    """
    budget = budget or SearchBudget()
    if len(sets) >= SETS_PER_CLOCK_READ:
        budget.check_deadline("enumerating the sets")
    unique = sorted(set(sets))
    if not unique:
        return 0, ()
    if symmetries and _transitive_symmetries(unique, symmetries, budget):
        first = set(unique[0])
        neighbours = [member for member in unique[1:] if not first.isdisjoint(member)]
        witness = (unique[0],) + _lex_smallest_maximum(neighbours, budget, 1, upper_bound)
    else:
        witness = _lex_smallest_maximum(unique, budget, 0, upper_bound)

    if not pairwise_intersecting(witness):
        raise RuntimeError("internal error: witness is not pairwise intersecting")
    return len(witness), witness


def _transposition_and_cycle(labels: Sequence) -> list[dict]:
    """A transposition and a cycle through all of ``labels``, which together
    generate every permutation of them; none for fewer than two labels."""
    labels = list(labels)
    if len(labels) < 2:
        return []
    transposition = {labels[0]: labels[1], labels[1]: labels[0]}
    return [transposition, dict(zip(labels, labels[1:] + labels[:1]))]


def rook_symmetries(n: int, m: int) -> list[dict]:
    """Generators of the row and column permutations of the n-by-m grid,
    acting on its cells."""
    cells = [(row, col) for row in range(1, n + 1) for col in range(1, m + 1)]
    return [
        {(row, col): (sigma.get(row, row), col) for row, col in cells}
        for sigma in _transposition_and_cycle(range(1, n + 1))
    ] + [
        {(row, col): (row, tau.get(col, col)) for row, col in cells}
        for tau in _transposition_and_cycle(range(1, m + 1))
    ]


def twin_symmetries(g: SimpleGraph) -> list[dict]:
    """Generators of the permutations within each class of twins of g, all
    of them automorphisms of g."""
    from .graphs import twin_classes

    return [perm for twins in twin_classes(g) for perm in _transposition_and_cycle(twins)]


class EkrReport(Record):
    """Verdict on whether stars are as large as every intersecting family.

    Immutable; compared by every field but ``elapsed``.  Unhashable, since
    ``parameters`` is a dict.
    """

    __slots__ = ("parameters", "max_intersecting", "best_star", "verdict", "witness", "elapsed")

    def __init__(
        self,
        parameters: dict,
        max_intersecting: int,
        best_star: int,
        verdict: str,
        witness: tuple[tuple, ...],
        elapsed: float = 0.0,
    ) -> None:
        super().__init__(parameters, max_intersecting, best_star, verdict, witness, elapsed)

    def _key(self) -> tuple:
        return self._fields()[:-1]  # every field but elapsed

    __hash__ = None  # parameters is a dict

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
            "witness": self.witness_to_json(),
            "elapsed_ms": int(self.elapsed * 1000),
        }

    def witness_to_json(self) -> list[list]:
        """The witness as JSON lists: a placement's cells become [row, col]."""
        return [
            [list(cell) if isinstance(cell, tuple) else cell for cell in member]
            for member in self.witness
        ]


def _verdict(holds: bool, in_range: bool) -> str:
    if in_range:
        return VERDICT_HOLDS if holds else VERDICT_FAILS
    return VERDICT_RANGE_HOLDS if holds else VERDICT_RANGE_FAILS


def rook_ekr_report(
    n: int,
    m: int,
    r: int,
    budget: SearchBudget | None = None,
    max_sets: int = DEFAULT_SET_BUDGET,
) -> EkrReport:
    """Exact verdict for the n-by-m rook grid at size r.

    The comparator is the closed-form star size, the same at every cell by
    vertex transitivity.  In-theorem-range means r <= min(n, m)/2.  The
    search is given the row and column permutations, so it only searches
    the placements that meet the first one.
    """
    require_placement_size(n, m, r)
    started = time.monotonic()
    placements = enumerate_placements(n, m, r, max_sets)
    size, witness = max_intersecting_family(placements, budget, rook_symmetries(n, m))
    star = rook_star_count(n, m, r)
    return EkrReport(
        parameters={"kind": "rook", "n": n, "m": m, "r": r},
        max_intersecting=size,
        best_star=star,
        verdict=_verdict(size <= star, 2 * r <= min(n, m)),
        witness=witness,
        elapsed=time.monotonic() - started,
    )


def _cycle_bound(n: int, r: int, sets: Sequence[tuple]) -> int:
    """The cycle certificate's bound k*P/D for the r-sets ``sets`` of [n],
    n >= 2r, with its facts computed as the module docstring proves it."""
    intervals = sorted(
        {tuple(sorted((start + i) % n + 1 for i in range(r))) for start in range(n)}
    )
    # The intervals are few, so their search gets a budget of its own: a
    # budget exit must never report their bounds as the family's.
    budget = SearchBudget()
    adjacency, seed = _compatibility(intervals, budget)
    k = _CliqueEngine(adjacency, budget).max_clique_size(seed)
    bound, remainder = divmod(k * len(sets), len(intervals))
    if remainder:
        raise RuntimeError(
            f"internal error: {k} * {len(sets)} sets is not a multiple of "
            f"{len(intervals)} intervals"
        )
    return bound


def graph_ekr_report(
    g: SimpleGraph,
    r: int,
    budget: SearchBudget | None = None,
    max_sets: int = DEFAULT_SET_BUDGET,
    vertex_budget: int = DEFAULT_SEARCH_VERTEX_BUDGET,
    known_min_maximal: int | None = None,
) -> EkrReport:
    """Exact verdict for an arbitrary graph at size r.

    The comparator is the best star over all vertices (the EKR property
    only asks for one good vertex).  In-theorem-range means r is at most
    half the smallest maximal independent set size.  The search is given
    the permutations of each class of twins, which it uses when they act
    transitively on the independent r-sets.  On an edgeless graph with at
    least 2r vertices it is also given the cycle certificate's bound (module
    docstring), at which its maximum phase stops.
    """
    from .graphs import best_star_size, enumerate_independent, min_maximal_independent_size

    if r < 1:
        raise InputError(f"r must be at least 1, got {r}")
    started = time.monotonic()
    sets = enumerate_independent(g, r, max_sets)
    best_star = best_star_size(g, sets)
    mu = (
        known_min_maximal
        if known_min_maximal is not None
        else min_maximal_independent_size(g, vertex_budget)
    )
    bound = None
    if g.edge_count == 0 and g.vertex_count >= 2 * r:
        bound = _cycle_bound(g.vertex_count, r, sets)
    size, witness = max_intersecting_family(sets, budget, twin_symmetries(g), bound)
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
    max_sets: int = DEFAULT_SET_BUDGET,
    vertex_budget: int = DEFAULT_SEARCH_VERTEX_BUDGET,
    known_min_maximal: int | None = None,
) -> list[EkrReport]:
    """One report per r in the conjectured range 1..mu/2 (empty if mu < 2);
    mu is computed unless ``known_min_maximal`` gives it."""
    from .graphs import min_maximal_independent_size

    mu = (
        known_min_maximal
        if known_min_maximal is not None
        else min_maximal_independent_size(g, vertex_budget)
    )
    return [
        graph_ekr_report(g, r, budget, max_sets, vertex_budget, known_min_maximal=mu)
        for r in range(1, mu // 2 + 1)
    ]


class LexCheckResult(NamedTuple):
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
    max_sets: int = DEFAULT_SET_BUDGET,
    vertex_budget: int = DEFAULT_SEARCH_VERTEX_BUDGET,
) -> LexCheckResult:
    """Check the implication: if G is r-EKR then G[K_k] is r-EKR."""
    from .graphs import complete_graph, lexicographic_product

    if k < 1:
        raise InputError(f"k must be at least 1, got {k}")
    premise = graph_ekr_report(g, r, budget, max_sets, vertex_budget)
    product = lexicographic_product(g, complete_graph(k))
    conclusion = graph_ekr_report(product, r, budget, max_sets, vertex_budget)
    return LexCheckResult(premise=premise, conclusion=conclusion)
