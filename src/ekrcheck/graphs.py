"""Simple undirected graphs with exact independence computations.

Vertices are labeled 1..vertex_count.  Adjacency is stored as one bit mask
per vertex (bit v set means the vertex is adjacent to v), so independence
tests cost a single mask intersection per chosen vertex.  All graphs are
immutable after construction.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Callable, Iterable, Sequence

from .errors import (
    DEFAULT_SEARCH_VERTEX_BUDGET, DEFAULT_SET_BUDGET, InputError, Record, ResourceLimitError,
    is_integer, load_json, require_integer, require_list, require_object, save_json,
)

VertexSet = tuple[int, ...]

DEFAULT_PRODUCT_VERTEX_BUDGET = 4096


class SimpleGraph(Record):
    """Immutable undirected graph on vertices 1..vertex_count; compared and
    hashed by its vertex count and edge list, and rebuilt from them."""

    __slots__ = ("_n", "_edges", "_adj")

    def __init__(self, vertex_count: int, edges: Iterable[Sequence[int]] = ()) -> None:
        if vertex_count < 1:
            raise InputError(f"vertex_count must be at least 1, got {vertex_count}")
        adj = [0] * (vertex_count + 1)
        seen: set[tuple[int, int]] = set()
        for index, edge in enumerate(edges):
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise InputError(f"edges[{index}]: expected a vertex pair, got {edge!r}") from None
            if not is_integer(u) or not is_integer(v):
                raise InputError(f"edges[{index}]: vertex labels must be integers, got {edge!r}")
            if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
                raise InputError(f"edges[{index}]: endpoint out of range 1..{vertex_count}: {edge!r}")
            if u == v:
                raise InputError(f"edges[{index}]: self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise InputError(f"edges[{index}]: duplicate edge {list(key)}")
            seen.add(key)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        super().__init__(vertex_count, tuple(sorted(seen)), tuple(adj))

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self._adj[u] & (1 << v))

    def adjacency_mask(self, v: int) -> int:
        """Bit mask of the neighbors of v (bit w set iff vw is an edge)."""
        self._check_vertex(v)
        return self._adj[v]

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(self._adj[v].bit_count() for v in range(1, self._n + 1)))

    def is_independent(self, vertices: Iterable[int]) -> bool:
        """True iff no edge joins two of the given vertices."""
        chosen = 0
        for v in vertices:
            self._check_vertex(v)
            if self._adj[v] & chosen:
                return False
            chosen |= 1 << v
        return True

    def _check_vertex(self, v: int) -> None:
        if not is_integer(v) or not 1 <= v <= self._n:
            raise InputError(f"vertex label out of range 1..{self._n}: {v!r}")

    def _key(self) -> tuple:
        return (self._n, self._edges)

    def __reduce__(self) -> tuple:
        return (SimpleGraph, self._key())

    def __repr__(self) -> str:
        return f"SimpleGraph(vertices={self._n}, edges={len(self._edges)})"


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, combinations(range(1, n + 1), 2))


def empty_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n)


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, ((v, v + 1) for v in range(1, n)))


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise InputError(f"a cycle needs at least 3 vertices, got {n}")
    edges = [(v, v + 1) for v in range(1, n)]
    edges.append((1, n))
    return SimpleGraph(n, edges)


def _linear(a: int, b: int, h_count: int) -> int:
    return (a - 1) * h_count + b


def _product(
    g: SimpleGraph,
    h: SimpleGraph,
    max_vertices: int,
    joins: Callable[[int], Iterable[tuple[int, int]]],
) -> SimpleGraph:
    """A copy of H inside each vertex of G, with vertex (a,x) mapped to
    (a-1)*|V(H)|+x; for each edge ab of G, (a,x)(b,y) is an edge for the
    pairs (x, y) that ``joins(|V(H)|)`` yields."""
    size = g.vertex_count * h.vertex_count
    if size > max_vertices:
        raise ResourceLimitError(
            f"product on {size} vertices exceeds the budget of {max_vertices}"
        )
    hc = h.vertex_count
    edges = []
    for a in range(1, g.vertex_count + 1):
        for x, y in h.edges:
            edges.append((_linear(a, x, hc), _linear(a, y, hc)))
    for a, b in g.edges:
        for x, y in joins(hc):
            edges.append((_linear(a, x, hc), _linear(b, y, hc)))
    return SimpleGraph(size, edges)


def cartesian_product(
    g: SimpleGraph,
    h: SimpleGraph,
    max_vertices: int = DEFAULT_PRODUCT_VERTEX_BUDGET,
) -> SimpleGraph:
    """Cartesian product: (a,x)(b,y) is an edge iff a=b and xy in E(H),
    or x=y and ab in E(G).  Vertex (a,x) maps to (a-1)*|V(H)|+x."""
    return _product(g, h, max_vertices, lambda hc: ((x, x) for x in range(1, hc + 1)))


def lexicographic_product(
    g: SimpleGraph,
    h: SimpleGraph,
    max_vertices: int = DEFAULT_PRODUCT_VERTEX_BUDGET,
) -> SimpleGraph:
    """Lexicographic product G[H]: (a,x)(b,y) is an edge iff ab in E(G),
    or a=b and xy in E(H).  Same vertex numbering as cartesian_product."""
    return _product(g, h, max_vertices, lambda hc: product(range(1, hc + 1), repeat=2))


def enumerate_independent(
    g: SimpleGraph,
    r: int,
    max_sets: int = DEFAULT_SET_BUDGET,
) -> list[VertexSet]:
    """All independent r-subsets of V(G), sorted ascending within each set
    and emitted in lexicographic order with no duplicates."""
    if r < 0:
        raise InputError(f"r must be nonnegative, got {r}")
    if r == 0:
        return [()]
    n = g.vertex_count
    adj = g._adj  # the vertices are 1..n, so unchecked
    out: list[VertexSet] = []
    chosen: list[int] = []

    def extend(start: int, banned: int) -> None:
        depth = len(chosen)
        if depth == r:
            if len(out) >= max_sets:
                raise ResourceLimitError(
                    f"more than {max_sets} independent sets; raise the budget to enumerate"
                )
            out.append(tuple(chosen))
            return
        for v in range(start, n - (r - depth) + 2):
            bit = 1 << v
            if banned & bit:
                continue
            chosen.append(v)
            extend(v + 1, banned | bit | adj[v])
            chosen.pop()

    extend(1, 0)
    return out


def require_search_size(g: SimpleGraph, max_vertices: int) -> None:
    """The one vertex budget of the exhaustive searches on g: refuse a
    graph with more than ``max_vertices`` vertices."""
    if g.vertex_count > max_vertices:
        raise ResourceLimitError(
            f"exhaustive search on {g.vertex_count} vertices exceeds the budget of {max_vertices}"
        )


def maximal_independent_sets(
    g: SimpleGraph,
    max_vertices: int = DEFAULT_SEARCH_VERTEX_BUDGET,
) -> list[VertexSet]:
    """All maximal (inextensible) independent sets, sorted.

    Exhaustive branch search with pivoting.  Every reported set is
    re-checked for maximality before being returned.
    """
    require_search_size(g, max_vertices)
    n = g.vertex_count
    # Non-adjacency masks: independent sets of g are cliques of its complement.
    all_mask = ((1 << (n + 1)) - 1) & ~1
    adj = g._adj  # the vertices are 1..n, so unchecked
    non_adj = [0] * (n + 1)
    for v in range(1, n + 1):
        non_adj[v] = all_mask & ~adj[v] & ~(1 << v)

    found: list[int] = []

    def expand(current: int, candidates: int, excluded: int) -> None:
        if not candidates and not excluded:
            found.append(current)
            return
        pool = candidates | excluded
        pivot, best = 0, -1
        probe = pool
        while probe:
            u = (probe & -probe).bit_length() - 1
            probe &= probe - 1
            score = (candidates & non_adj[u]).bit_count()
            if score > best:
                pivot, best = u, score
        branch = candidates & ~non_adj[pivot]
        while branch:
            v = (branch & -branch).bit_length() - 1
            bit = 1 << v
            branch &= branch - 1
            expand(current | bit, candidates & non_adj[v], excluded & non_adj[v])
            candidates &= ~bit
            excluded |= bit

    expand(0, all_mask, 0)

    sets: list[VertexSet] = []
    for mask in found:
        members = tuple(v for v in range(1, n + 1) if mask & (1 << v))
        # Maximal: every vertex is in the set or next to one of its members.
        uncovered = all_mask & ~mask
        for v in members:
            uncovered &= ~adj[v]
        if uncovered:
            w = (uncovered & -uncovered).bit_length() - 1
            raise RuntimeError(
                f"internal error: reported set {members} is extensible by vertex {w}"
            )
        sets.append(members)
    sets.sort()
    return sets


def independence_number(
    g: SimpleGraph,
    max_vertices: int = DEFAULT_SEARCH_VERTEX_BUDGET,
) -> int:
    """Size of the largest independent set, by exhaustive search."""
    return max(len(s) for s in maximal_independent_sets(g, max_vertices))


def min_maximal_independent_size(
    g: SimpleGraph,
    max_vertices: int = DEFAULT_SEARCH_VERTEX_BUDGET,
) -> int:
    """Size of the smallest maximal independent set, by exhaustive search."""
    return min(len(s) for s in maximal_independent_sets(g, max_vertices))


def is_well_covered(
    g: SimpleGraph,
    max_vertices: int = DEFAULT_SEARCH_VERTEX_BUDGET,
) -> bool:
    """True iff every maximal independent set has the same size."""
    sizes = {len(s) for s in maximal_independent_sets(g, max_vertices)}
    return len(sizes) == 1


def twin_classes(g: SimpleGraph) -> list[VertexSet]:
    """The classes of two or more twins, each sorted.

    Open twins have equal neighbourhoods (so they are not adjacent); closed
    twins have equal neighbourhoods once each counts itself (so they are
    adjacent).  No vertex has twins of both kinds: if u, v are open twins
    and u, w closed twins, then w is adjacent to v, so v lies in the closed
    neighbourhood of w, which is u's, although v is not adjacent to u.
    Exchanging two twins is an automorphism of g.
    """
    open_classes: dict[int, list[int]] = {}
    closed_classes: dict[int, list[int]] = {}
    for v in range(1, g.vertex_count + 1):
        mask = g._adj[v]
        open_classes.setdefault(mask, []).append(v)
        closed_classes.setdefault(mask | (1 << v), []).append(v)
    return [
        tuple(members)
        for classes in (open_classes, closed_classes)
        for members in classes.values()
        if len(members) > 1
    ]


def graph_to_json_dict(g: SimpleGraph) -> dict:
    return {"vertices": g.vertex_count, "edges": g.edges}


def graph_from_json_dict(obj: object) -> SimpleGraph:
    where = "graph document"
    obj = require_object(obj, where)
    return SimpleGraph(require_integer(obj, "vertices", where),
                       require_list(obj, "edges", where, default=[]))


def load_graph(path: str) -> SimpleGraph:
    return load_json(path, graph_from_json_dict)


def save_graph(g: SimpleGraph, path: str) -> None:
    save_json(graph_to_json_dict(g), path)
