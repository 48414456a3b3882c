"""Exact maximum intersecting families and EKR verdicts.

The maximum intersecting family problem reduces to maximum clique on the
compatibility graph whose vertices are the input sets and whose edges join
intersecting pairs.  The engine is a branch-and-bound search with a
coloring upper bound (greedy at the root, re-numbered as in Tomita et al.'s
MCS below it), branching in the caller's lexicographic vertex order; a
second, single depth-first pass in the same order stops at the first
maximum clique it reaches, which is the lexicographically smallest maximum
family, so results are deterministic regardless of how work is scheduled.
The engine runs only when the sorted prefix (below) does not answer.
Both searches keep their own stack, so a clique of any size fits.

Symmetry reduction.  A caller may pass an orbit ``(label, size)``, having
proved in its docstring that the sets with one label L form a single orbit
of ``size(L)`` sets under a group G of element permutations (the label
None marks a set the proof does not cover).  Let ``unique`` be the sorted
distinct sets and ``v0 = unique[0]``.  The count check requires the
elements of every set to increase strictly, so that no element repeats and
distinct sets differ as sets; every set to carry ``v0``'s label L, which
is not None; and exactly ``size(L)`` sets.  Then the family V lies in the
orbit of ``v0`` and is as large as it, so V is that orbit.  A permutation
of the elements keeps two sets disjoint or not, so G acts on the
compatibility graph by automorphisms, transitively on its vertices.  Then:

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
one more than their maximum, with ``v0`` prepended to their witness.  The
two orbits the verdicts pass:

- rook (``_rook_orbit``): the label says "an r-placement of the n-by-m
  grid": r cells in r distinct rows and r distinct columns, all in range.
  G = S_n x S_m acts on the cells by (i, j) -> (sigma(i), tau(j)) and
  keeps the label.  Given placements {(a_t, b_t)} and {(c_t, d_t)}, t =
  1..r, the a_t are distinct and so are the c_t, so some sigma sends each
  a_t to c_t; likewise some tau sends each b_t to d_t, and (sigma, tau)
  carries the one onto the other.  So the orbit is all C(n, r)*C(m, r)*r!
  r-placements (``counts.rook_placement_count``).
- graph (``_twin_orbit``): with the classes C_1..C_k of
  ``graphs.twin_classes(g)``, which are disjoint, the label is the set's
  vertices in no class and its count k_i in each class.  G = Sym(C_1) x
  ... x Sym(C_k) keeps the label, and carries a set A onto any set B with
  the same label: for each i, a bijection from A & C_i onto B & C_i
  extends to a permutation of C_i.  So the orbit has C(|C_1|, k_1)*...*
  C(|C_k|, k_k) sets.  The proof needs the classes to be disjoint, not to
  be twins; twins, whose exchange is an automorphism of g, are what let
  the independent r-sets fill an orbit.  On the edgeless graph E_n all
  vertices are twins and the check passes; on a graph without twins each
  set has a label of its own, so only a single set passes.

Orbit bound.  When the count check passes, the group G of the caller's
proof is transitive on the family V and keeps two sets disjoint or not.
Then for every subfamily S of V, every intersecting F in V has |F| <=
floor(k_S*|V|/|S|), where k_S is the largest intersecting family in S.
Proof: by transitivity each v in V lies in gS for exactly |S|*|G|/|V|
elements g of G, so the sum over g of |F & gS| is |F|*|S|*|G|/|V|; each
F & gS is intersecting and g^-1 carries it into S, so each term is at most
k_S.  Katona's cycle method (*A simple proof of the Erdos-Chao Ko-Rado
theorem*, JCTB 1972) is the case where S is the intervals of a cyclic
order, and the clique-coclique bound (Godsil-Meagher, *Erdos-Ko-Rado
Theorems: Algebraic Approaches*, 2016) the case of a disjoint S, k_S = 1.
``_orbit_bound`` takes the bound from S and |V|.
``max_intersecting_family`` keeps the caller's structures that are members
of V as S, and the bound, less the first set, caps the search of the sets
that meet it.  ``graph_ekr_report`` passes the runs of r consecutive
labels of the cycle 1..n: on E_n with n >= 2r they are n r-sets with
k_S = r, a bound of r*C(n, r)/n = C(n-1, r-1), the star.
``rook_ekr_report`` passes the
diagonal intervals of the identity cyclic order, the cells (i+t, j+t) for
t < r, rows mod n and columns mod m: with 2r <= min(n, m) they are nm
placements with k_S = r, a bound of r*C(n, r)*C(m, r)*r!/(nm), the star.

Sorted prefix.  The first k of the sorted distinct searched sets are
their lexicographically smallest k-family: the j-th member of a sorted
k-family has index at least j, so it is no smaller than the j-th set.
So when they meet pairwise and k is a proved upper bound, they are the
lexicographically smallest maximum family.  ``max_intersecting_family``
tests this before the engine, with k the orbit bound less the offset or,
without a bound, the number of sets; and before the witness pass, with k
the exact maximum.  The sets through the least element begin with it, so
they come first: when the bound is their star, as in both verdicts'
theorem range, no engine is built on V.

Star answer.  ``rook_ekr_report`` takes the orbit bound before it lists V.
V, all r-placements of the n-by-m grid, is the whole orbit of the
``_rook_orbit`` proof, and its size is ``counts.rook_placement_count`` in
closed form; S, the identity order's diagonal intervals that carry the
orbit's label, lies in V.  So the bound holds without listing V.  When it
equals the closed-form star, the star is a maximum family.  (1, 1) is the
least cell, so the first ``star`` placements in sorted order are exactly
the star at (1, 1); by "Sorted prefix" they are the lexicographically
smallest maximum family, the witness the search would return.  So the
report takes ``rook.star_family(n, m, r, (1, 1))`` as its witness, and
lists and searches V only when the bound exceeds the star.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from functools import reduce
from math import comb, prod
from operator import lt, or_
from typing import TYPE_CHECKING, Callable, Hashable, Sequence

from .counts import require_placement_size, rook_placement_count, rook_star_count
from .errors import (
    DEFAULT_NODE_BUDGET, DEFAULT_SEARCH_VERTEX_BUDGET, DEFAULT_SET_BUDGET, InputError, Record,
    ResourceLimitError,
)
from .rook import (
    _cyclic_windows, diagonal_intervals, element_masks, enumerate_placements, largest_star,
    pairwise_intersecting, require_placement_budget, star_family,
)

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

# (label, size) of the symmetry reduction (module docstring): a set's label,
# None when the caller's proof does not cover it, and a label's orbit size.
Orbit = tuple[Callable[[tuple], Hashable], Callable[[Hashable], int]]


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

    def max_clique_size(self, initial_best: int, stop: int) -> int:
        """Exact maximum clique size; ``initial_best`` must be attainable.

        ``stop`` is a proved bound, at least ``initial_best`` (the caller
        refuses a lower one): the search stops once it reaches it, at the
        root without coloring when ``initial_best`` already does.
        """
        self.best = initial_best
        full = self.full_mask()
        if self.best < stop:
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
        """Count a node; False when the candidates take fewer than ``need``
        greedy colors, so cannot hold a clique of ``need`` vertices (a
        coloring needs at least as many colors as the largest clique it
        colors).  The classes are counted only up to ``need``."""
        self._tick()
        classes = 0
        while candidates and classes < need:
            candidates ^= self._greedy_class(candidates)
            classes += 1
        return classes >= need

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
        reached is the smallest.  The root is not checked: the caller has
        just found a clique of the target size, so it always holds one.

        ``stack[k]`` holds the candidates not yet tried after a prefix of k
        vertices, so ``chosen`` is always one shorter than the stack.
        """
        chosen: list[int] = []
        stack = [self.full_mask()]
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


def _compatibility(members: Sequence[tuple], budget: SearchBudget) -> list[int]:
    """The compatibility masks of ``members`` (bit j of mask i is set when
    members i and j differ and meet), read from their element index
    (``rook.element_masks``)."""
    holders = element_masks(members)
    adjacency = [0] * len(members)
    for index, member in enumerate(members):
        if index % SETS_PER_CLOCK_READ == SETS_PER_CLOCK_READ - 1:
            budget.check_deadline("building the compatibility masks")
        mask = reduce(or_, map(holders.__getitem__, member), 0)
        adjacency[index] = mask & ~(1 << index)
    return adjacency


def _fills_orbit(unique: Sequence[tuple], orbit: Orbit, budget: SearchBudget) -> bool:
    """True iff the sorted distinct family ``unique`` passes the count
    check of the module docstring against ``orbit``."""
    label, size = orbit
    first = label(unique[0])
    if first is None or len(unique) != size(first):
        return False
    for count, member in enumerate(unique):
        if count % SETS_PER_CLOCK_READ == SETS_PER_CLOCK_READ - 1:
            budget.check_deadline("symmetry check")
        if not all(map(lt, member, member[1:])) or label(member) != first:
            return False
    return True


def _orbit_bound(structures: Sequence[tuple], size: int) -> int:
    """The orbit bound (module docstring) on a family of ``size`` sets that
    fills the checked orbit, with S the distinct ``structures``, each of
    them a member of that family; there is at least one."""
    # Its own budget, so no exit reports k_S's bounds as the family's.
    return max_intersecting_family(structures, SearchBudget())[0] * size // len(structures)


def max_intersecting_family(
    sets: Sequence[tuple],
    budget: SearchBudget | None = None,
    orbit: Orbit | None = None,
    structures: Sequence[tuple] | None = None,
) -> tuple[int, tuple[tuple, ...]]:
    """Exact maximum size of a pairwise-intersecting subfamily, with witness.

    The witness is the lexicographically smallest maximum family (members
    sorted, families compared member-wise).  ``orbit`` is the caller's
    proved orbit ``(label, size)``.  When the family passes the count check
    against it (module docstring), only the sets that meet the first set
    are searched; otherwise, or without it, the whole family is.  When it
    passes, the orbit bound is taken with S the ``structures`` that are
    members of the family; the maximum search stops at it.  The sorted
    prefix (module docstring) is tried at the bound and at the maximum.
    Certified before returning: the witness is pairwise intersecting and
    has the reported size.
    """
    budget = budget or SearchBudget()
    if len(sets) >= SETS_PER_CLOCK_READ:
        budget.check_deadline("enumerating the sets")
    # dict.fromkeys keeps the sets in their given order, which every
    # enumerator already sorts, so the sort is a single linear pass.
    unique = sorted(dict.fromkeys(sets))
    if not unique:
        return 0, ()
    # When the family fills the orbit (module docstring), the first set heads
    # the witness and only the sets that meet it are searched; the offset
    # counts it in the bounds of a budget exit.
    head, members, bound = (), unique, None
    if orbit and _fills_orbit(unique, orbit, budget):
        head, first = unique[:1], set(unique[0])
        members = [member for member in unique[1:] if not first.isdisjoint(member)]
        kept = [
            structure for structure in sorted(set(structures or ()))
            if (i := bisect_left(unique, structure)) < len(unique) and unique[i] == structure
        ]
        bound = _orbit_bound(kept, len(unique)) if kept else None
    offset = len(head)
    # The seed is the largest star, or a single member (maybe the empty set,
    # with no elements at all).
    seed = max(largest_star(members), min(len(members), 1))
    limit = len(members) if bound is None else min(bound - offset, len(members))
    if limit < seed:
        raise RuntimeError(
            f"internal error: the proved upper bound {offset + limit} is below "
            f"an attained clique of {offset + seed}"
        )
    # The sorted prefix (module docstring) at the bound, then at the maximum.
    witness = (*head, *members[:limit])
    if not pairwise_intersecting(witness):
        engine = _CliqueEngine(_compatibility(members, budget), budget, offset)
        size = engine.max_clique_size(seed, limit)
        witness = (*head, *members[:size])
        if not pairwise_intersecting(witness):
            witness = (*head, *(members[i] for i in engine.lex_smallest_clique(size)))
            if len(witness) != offset + size:
                raise RuntimeError(
                    "internal error: witness size does not match the reported maximum"
                )
            if not pairwise_intersecting(witness):
                raise RuntimeError("internal error: witness is not pairwise intersecting")
    return len(witness), witness


def _rook_orbit(n: int, m: int, r: int) -> Orbit:
    """The orbit of the r-placements of the n-by-m grid (module docstring):
    the label is True on an r-placement and None on any other set."""
    cells = frozenset((row, col) for row in range(1, n + 1) for col in range(1, m + 1))
    placements = rook_placement_count(n, m, r)

    def label(member: tuple) -> bool | None:
        rows, cols = {row for row, _ in member}, {col for _, col in member}
        placed = len(rows) == len(cols) == len(member) == r and cells.issuperset(member)
        return True if placed else None

    return label, lambda _: placements


def _twin_orbit(g: SimpleGraph) -> Orbit:
    """The orbits of sets of vertices of g under the permutations within
    each class of twins (module docstring): the label is the set's vertices
    in no class, and its count in each class."""
    from .graphs import twin_classes

    classes = twin_classes(g)
    class_of = {v: i for i, twins in enumerate(classes) for v in twins}

    def label(member: tuple) -> tuple:
        alone, counts = [], [0] * len(classes)
        for v in member:
            if v in class_of:
                counts[class_of[v]] += 1
            else:
                alone.append(v)
        return tuple(alone), tuple(counts)

    return label, lambda key: prod(comb(len(twins), k) for twins, k in zip(classes, key[1]))


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

    def to_json_dict(self) -> dict:
        return {
            "parameters": dict(self.parameters),
            "max_intersecting": self.max_intersecting,
            "best_star": self.best_star,
            "verdict": self.verdict,
            "witness": self.witness,
            "elapsed_ms": int(self.elapsed * 1000),
        }


def _report(
    parameters: dict,
    found: tuple[int, tuple[tuple, ...]],
    star: int,
    in_range: bool,
    started: float,
) -> EkrReport:
    """The verdict on the exact maximum and witness ``found`` against
    ``star``, timed from ``started``."""
    size, witness = found
    holds = size <= star
    if in_range:
        verdict = VERDICT_HOLDS if holds else VERDICT_FAILS
    else:
        verdict = VERDICT_RANGE_HOLDS if holds else VERDICT_RANGE_FAILS
    return EkrReport(parameters, size, star, verdict, witness, time.monotonic() - started)


def rook_ekr_report(
    n: int,
    m: int,
    r: int,
    budget: SearchBudget | None = None,
    max_sets: int = DEFAULT_SET_BUDGET,
) -> EkrReport:
    """Exact verdict for the n-by-m rook grid at size r.

    The comparator is the closed-form star size, the same at every cell by
    vertex transitivity.  In-theorem-range means r <= min(n, m)/2.  S of
    the orbit bound (module docstring) is the diagonal intervals of the
    identity cyclic order (from ``rook``, not ``cycles``, which ``verify``
    does not load).  When the bound is the star, the star at (1, 1) is the
    answer ("Star answer"), and neither the clock nor the node budget is
    read.  Otherwise the placements are listed and searched, with the orbit
    of the r-placements under row and column permutations, so only those
    that meet the first one are searched.  ``max_sets`` bounds the
    placements either way.
    """
    require_placement_size(n, m, r)
    started = time.monotonic()
    parameters = {"kind": "rook", "n": n, "m": m, "r": r}
    star, in_range = rook_star_count(n, m, r), 2 * r <= min(n, m)
    # Past the set budget the run is refused, before S is built.
    size = require_placement_budget(n, m, r, max_sets)
    orbit = _rook_orbit(n, m, r)
    label, _ = orbit
    diagonals = diagonal_intervals(range(1, n + 1), range(1, m + 1), r)
    if _orbit_bound(sorted({d for d in diagonals if label(d)}), size) == star:
        witness = star_family(n, m, r, (1, 1)).sets
        if not pairwise_intersecting(witness):
            raise RuntimeError("internal error: the star is not pairwise intersecting")
        return _report(parameters, (len(witness), witness), star, in_range, started)
    placements = enumerate_placements(n, m, r, max_sets)
    found = max_intersecting_family(placements, budget, orbit, diagonals)
    return _report(parameters, found, star, in_range, started)


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
    half the smallest maximal independent set size mu, which is computed
    unless ``known_min_maximal`` gives it; either way a graph past
    ``vertex_budget`` is refused once its sets are listed.  The search is
    given the orbits under the permutations within each class of twins,
    which it uses when the independent r-sets fill one of them, and the
    runs of r consecutive labels of the cycle 1..n for S of the orbit bound
    (module docstring).
    """
    from .graphs import enumerate_independent, min_maximal_independent_size, require_search_size

    if r < 1:
        raise InputError(f"r must be at least 1, got {r}")
    started = time.monotonic()
    sets = enumerate_independent(g, r, max_sets)
    best_star = largest_star(sets)
    if known_min_maximal is None:
        mu = min_maximal_independent_size(g, vertex_budget)
    else:
        require_search_size(g, vertex_budget)
        mu = known_min_maximal
    n = g.vertex_count
    # Past r = n no r-set is independent, so the runs are never read.
    runs = [tuple(sorted(w)) for w in _cyclic_windows(range(1, n + 1), min(r, n))]
    parameters = {
        "kind": "graph",
        "vertices": g.vertex_count,
        "edge_count": g.edge_count,
        "r": r,
        "min_maximal_independent_size": mu,
    }
    found = max_intersecting_family(sets, budget, _twin_orbit(g), runs)
    return _report(parameters, found, best_star, 2 * r <= mu, started)
