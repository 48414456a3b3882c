"""Cyclic row/column orders and their wrapped diagonal intervals.

A cyclic order is an equivalence class of permutation pairs under
independent cyclic shifts of positions in each coordinate.  The canonical
representative places value 1 at position 1 in both permutations, so there
are exactly (n-1)! * (m-1)! orders.  Walking both permutations in lockstep
from a start position, wrapping around, realizes an r-cell "diagonal
interval": rows and columns are consecutive in their cyclic orders, so the
cells form a valid placement whenever r <= min(n, m).

Order invariance.  An order (s1, s2) relabels each position cell (p, q) as
the grid cell phi(p, q) = (s1[p], s2[q]).  The interval of the order at
start (i, j) is phi(P(i, j)), where P(i, j) = {(i+k, j+k) : 0 <= k < r}
(positions taken cyclically) is the interval of the identity order, whose
labels equal its positions.  phi is a bijection of cells that sends each
position row onto one grid row and each position column onto one grid
column.  Hence, for any starts s and t and any set W of row positions:

- phi(P(s)) and phi(P(t)) share exactly the images of the cells P(s) and
  P(t) share, so two intervals meet in one order exactly when they meet
  in every order, and realize the same placement in one order exactly
  when they do in every order;
- the row projection of phi(P(s)) is s1(rows of P(s)), and s1 is a
  bijection, so it equals s1(W) exactly when the rows of P(s) are W.

Every check in this module is built from these relations alone, with
intervals listed by start in the same (i, j) sequence for every order:
the interval compatibility graph, and so the maximum intersecting family
found by _micro_max_clique (size and start mask); and check_interval_windows,
whose windows are s1 images of position windows, so its outcome and failure
message at each start.  For 2r <= min(n, m), which both require, these
depend on (n, m, r) alone, and a sweep over all orders equals one
evaluation on the identity order, reference_order(n, m), which is also the
first order that enumerate_cyclic_orders lists.  Likewise each order's
distinct intervals are the phi images of the identity order's distinct
intervals.

Factored interval tally.  interval_tally counts, for every placement p,
the canonical orders that realize p as an interval, without listing the
orders.  Let S hold one start of each distinct interval of the identity
order.  By the relations above, the distinct intervals of every order
(s1, s2) are the images phi(P(s)) for s in S, and they are pairwise
distinct, so an order realizes p exactly when phi(P(s)) = p for one
s in S, and

    tally[p] = sum over s in S of #{orders : phi(P(s)) = p}.

The canonical orders are exactly the pairs (s1, s2) of a canonical row
order (label 1 first) and a canonical column order, chosen independently.
For s = (i, j), phi(P(i, j)) is the placement of the pairs (w[k], v[k]),
where w = (s1[i], ..., s1[i+r-1]) is s1's r-window at i and v is s2's
r-window at j (positions taken cyclically).  Let A_i[w] count the
canonical row orders whose window at i is w, and B_j[v] the canonical
column orders whose window at j is v.  Then

    tally[p] = sum over (i, j) in S of
               sum over (w, v) with placement(w, v) = p of A_i[w] * B_j[v].

The inner sum is bilinear in (A_i, B_j).  So all rows i whose starts in
S are {i} x J, for the same set J of columns, contribute a single join:
of A = the sum of their A_i with B = the sum over j in J of B_j.  For
2r <= min(n, m) every start is in S, so one join of the sum of all A_i
with the sum of all B_j gives the whole tally.

The tally's work count is (n-1)! * n + (m-1)! * m = n! + m! window steps
plus, for each join, at most n!/(n-r)! * m!/(m-r)! products, in place of
(n-1)! * (m-1)! * n * m intervals built one order at a time.  interval_tally
refuses a count over TALLY_WORK_BUDGET before any walk, counting one join
before it lists the n*m identity intervals that find the others.  The
budget admits every grid of at most 10^6 orders, the bound the tally had
when it listed orders: the largest such count is 25,411,680 (7 x 7 at
r = 6 and r = 7, one join each), while 12 x 12 at r = 1 needs 958,003,344.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, permutations
from math import factorial, perm
from typing import Callable, Iterable, NamedTuple, Sequence

from .counts import (
    cyclic_order_count, interval_occurrence_count, require_grid, require_placement_size,
)
from .errors import DEFAULT_SET_BUDGET, InputError, Record, ResourceLimitError, is_integer
from .rook import Family, Placement, canonical_placement, row_projection

TALLY_WORK_BUDGET = 5 * 10**7


class CyclicOrder(Record):
    """Canonical representative of one equivalence class.

    ``rows`` lists row labels by position (rows[0] is position 1), and
    likewise ``cols``; both must start with label 1.  Immutable; compared
    and hashed by (rows, cols).
    """

    __slots__ = ("rows", "cols")

    def __init__(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> None:
        _check_permutation(rows, "rows")
        _check_permutation(cols, "cols")
        if rows[0] != 1 or cols[0] != 1:
            raise InputError(
                "cyclic order is not canonical: both sequences must start with 1 "
                "(use canonical_order to rotate arbitrary permutation pairs)"
            )
        super().__init__(rows, cols)

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return len(self.cols)

    def to_json_dict(self) -> dict:
        return {"sigma1": list(self.rows), "sigma2": list(self.cols)}


def _check_permutation(values: tuple[int, ...], name: str) -> None:
    if not values or sorted(values) != list(range(1, len(values) + 1)):
        raise InputError(f"{name} must be a permutation of 1..{len(values)}, got {values!r}")


def canonical_order(rows: Sequence[int], cols: Sequence[int]) -> CyclicOrder:
    """Rotate a permutation pair so value 1 leads in each coordinate.

    Rotations act on positions only, so the result represents the same
    equivalence class; the map is idempotent on canonical pairs.
    """
    for values, name in ((rows, "rows"), (cols, "cols")):
        if not isinstance(values, (list, tuple)) or not all(map(is_integer, values)):
            raise InputError(f"{name} must be a sequence of integers, got {values!r}")
        _check_permutation(tuple(values), name)
    row_seq, col_seq = tuple(rows), tuple(cols)
    i = row_seq.index(1)
    j = col_seq.index(1)
    return CyclicOrder(row_seq[i:] + row_seq[:i], col_seq[j:] + col_seq[:j])


def enumerate_cyclic_orders(
    n: int,
    m: int,
    max_orders: int = DEFAULT_SET_BUDGET,
) -> list[CyclicOrder]:
    """All canonical cyclic orders in lexicographic (rows, cols) order."""
    total = cyclic_order_count(n, m)
    if total > max_orders:
        raise ResourceLimitError(f"{total} cyclic orders exceed the budget of {max_orders}")
    out = []
    for row_rest in permutations(range(2, n + 1)):
        rows = (1,) + row_rest
        for col_rest in permutations(range(2, m + 1)):
            out.append(CyclicOrder(rows, (1,) + col_rest))
    return out


def reference_order(n: int, m: int) -> CyclicOrder:
    """The identity order: first in enumeration, with labels equal to positions."""
    return CyclicOrder(tuple(range(1, n + 1)), tuple(range(1, m + 1)))


def diagonal_interval(order: CyclicOrder, i: int, j: int, r: int) -> Placement:
    """The r cells realized by walking both cycles from positions (i, j).

    Position arithmetic is 1-based and wraps n+1 -> 1 (and m+1 -> 1).  The
    result is always a valid placement: the r row positions are distinct
    modulo n when r <= n, and likewise for columns.
    """
    n, m = order.n, order.m
    require_placement_size(n, m, r)
    if not 1 <= i <= n:
        raise InputError(f"start position i out of range 1..{n}: {i}")
    if not 1 <= j <= m:
        raise InputError(f"start position j out of range 1..{m}: {j}")
    cells = tuple(
        (order.rows[(i - 1 + k) % n], order.cols[(j - 1 + k) % m]) for k in range(r)
    )
    return tuple(sorted(cells))


def _distinct_intervals(order: CyclicOrder, r: int) -> dict[Placement, tuple[int, int]]:
    """Each distinct interval of the order, mapped to its first start in
    (i, j) order and listed in that order."""
    first_start: dict[Placement, tuple[int, int]] = {}
    for i in range(1, order.n + 1):
        for j in range(1, order.m + 1):
            first_start.setdefault(diagonal_interval(order, i, j, r), (i, j))
    return first_start


def all_intervals(order: CyclicOrder, r: int) -> list[Placement]:
    """Realized interval sets over all n*m start positions, deduplicated.

    For r <= min(n, m)/2 all starts realize distinct sets, and that is
    asserted; duplicates can only occur for exploratory larger r.
    """
    n, m = order.n, order.m
    out = list(_distinct_intervals(order, r))
    if 2 * r <= min(n, m) and len(out) != n * m:
        raise RuntimeError(
            f"internal error: expected {n * m} distinct intervals at r={r}, got {len(out)}"
        )
    return out


def interval_start(order: CyclicOrder, placement: Placement) -> tuple[int, int] | None:
    """The start (i, j) whose interval realizes the placement, or None.

    Starts are scanned in (i, j) order; for r <= min(n, m)/2 the start is
    unique when it exists.
    """
    r = len(placement)
    target = canonical_placement(placement, order.n, order.m)
    for i in range(1, order.n + 1):
        for j in range(1, order.m + 1):
            if diagonal_interval(order, i, j, r) == target:
                return (i, j)
    return None


def restrict_to_order(family: Family, order: CyclicOrder) -> Family:
    """The subfamily of members realized as intervals of this order."""
    if family.n != order.n or family.m != order.m:
        raise InputError(
            f"family context ({family.n}, {family.m}) does not match the order "
            f"({order.n}, {order.m})"
        )
    realized = set(all_intervals(order, family.r))
    return Family(family.n, family.m, family.r, tuple(s for s in family.sets if s in realized))


def _interval_compatibility_masks(intervals: list[Placement]) -> list[int]:
    masks = [0] * len(intervals)
    cell_sets = [set(p) for p in intervals]
    for a, b in combinations(range(len(intervals)), 2):
        if cell_sets[a] & cell_sets[b]:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
    return masks


def _micro_max_clique(masks: list[int]) -> tuple[int, int]:
    """Exact maximum clique over a small vertex set; returns (size, mask).

    Deliberately self-contained (plain popcount-bounded branch search) so
    this module cross-validates the main search engine rather than reusing
    it.
    """
    best_size = 0
    best_mask = 0

    def expand(candidates: int, chosen: int, size: int) -> None:
        nonlocal best_size, best_mask
        while candidates:
            if size + candidates.bit_count() <= best_size:
                return
            v = (candidates & -candidates).bit_length() - 1
            bit = 1 << v
            candidates &= ~bit
            if size + 1 > best_size:
                best_size = size + 1
                best_mask = chosen | bit
            sub = candidates & masks[v]
            if sub:
                expand(sub, chosen | bit, size + 1)

    expand((1 << len(masks)) - 1, 0, 0)
    return best_size, best_mask


def _require_half_range(order: CyclicOrder, r: int) -> None:
    bound = min(order.n, order.m)
    if not (1 <= r and 2 * r <= bound):
        raise InputError(f"r must satisfy 1 <= r <= min(n,m)/2 = {bound / 2:g}, got {r}")


def max_intersecting_intervals(order: CyclicOrder, r: int) -> int:
    """Exact maximum size of an intersecting family drawn from this
    order's intervals.

    The r intervals through any fixed cell pairwise intersect, so the
    value is at least r; the cycle-method bound says it is at most r.
    """
    return len(max_intersecting_intervals_witness(order, r))


def max_intersecting_intervals_witness(order: CyclicOrder, r: int) -> tuple[Placement, ...]:
    """A maximum intersecting family of intervals (one witness)."""
    _require_half_range(order, r)
    intervals = all_intervals(order, r)
    _, mask = _micro_max_clique(_interval_compatibility_masks(intervals))
    return tuple(sorted(intervals[v] for v in range(len(intervals)) if mask & (1 << v)))


def count_orders_containing(
    n: int,
    m: int,
    placement: Iterable[Iterable[int]],
    max_orders: int = DEFAULT_SET_BUDGET,
) -> int:
    """Number of canonical cyclic orders realizing the placement as an interval."""
    require_grid(n, m)
    canon = canonical_placement(placement, n, m)
    if not 1 <= len(canon) <= min(n, m):
        raise InputError(f"placement size must be in 1..min(n,m)={min(n, m)}, got {len(canon)}")
    return sum(
        1
        for order in enumerate_cyclic_orders(n, m, max_orders)
        if interval_start(order, canon) is not None
    )


def _window_tallies(size: int, r: int) -> list[Counter[tuple[int, ...]]]:
    """For each start position (index 0 is position 1), how many canonical
    cyclic orders of 1..size have each r-window there: the labels at that
    position and the r-1 after it, wrapping around."""
    tallies: list[Counter[tuple[int, ...]]] = [Counter() for _ in range(size)]
    for rest in permutations(range(2, size + 1)):
        ring = (1,) + rest
        ring += ring[: r - 1]
        for start, tally in enumerate(tallies):
            tally[ring[start : start + r]] += 1
    return tallies


def _check_tally_work(n: int, m: int, r: int, joins: int) -> None:
    """Refuse a tally whose work count (module docstring) exceeds the budget.

    12! alone exceeds the budget, so a side past 12 is counted as 12: the
    count stays short, and it is exact wherever it can pass.
    """
    n, m = min(n, 12), min(m, 12)
    work = factorial(n) + factorial(m) + joins * perm(n, r) * perm(m, r)
    if work > TALLY_WORK_BUDGET:
        raise ResourceLimitError(
            f"interval tally needs at least {work} window steps and products, "
            f"over the budget of {TALLY_WORK_BUDGET}"
        )


def interval_tally(n: int, m: int, r: int) -> Counter[Placement]:
    """For every placement, the number of canonical cyclic orders realizing
    it as an interval; placements no order realizes are absent.

    Row orders and column orders are walked separately, and their window
    counts are joined once for each set of columns the identity order's
    distinct intervals start at (see the module docstring, which also
    defines the work count checked here before any walk).
    """
    require_placement_size(n, m, r)
    _check_tally_work(n, m, r, 1)
    cols_by_row: dict[int, list[int]] = {}
    for i, j in _distinct_intervals(reference_order(n, m), r).values():
        cols_by_row.setdefault(i, []).append(j)
    rows_by_cols: dict[tuple[int, ...], list[int]] = {}
    for i, cols in cols_by_row.items():
        rows_by_cols.setdefault(tuple(cols), []).append(i)
    _check_tally_work(n, m, r, len(rows_by_cols))

    row_windows = _window_tallies(n, r)
    col_windows = _window_tallies(m, r)
    tally: Counter[Placement] = Counter()
    for cols, rows in rows_by_cols.items():
        col_sum = sum((col_windows[j - 1] for j in cols), Counter())
        for w, a in sum((row_windows[i - 1] for i in rows), Counter()).items():
            for v, b in col_sum.items():
                tally[tuple(sorted(zip(w, v)))] += a * b
    return tally


class DoubleCount(NamedTuple):
    """Both evaluations of the (member, order) incidence count."""

    lhs: int
    rhs: int


def interval_double_counts(families: Iterable[Family]) -> list[DoubleCount]:
    """Count member/order interval incidences two ways, for each family.

    lhs sums the restriction size over every cyclic order; rhs multiplies
    the family size by the per-placement occurrence count.  The two agree
    for every family; for an intersecting family lhs is additionally at
    most r times the number of orders.

    lhs counts the same (member, order) incidences member by member: a
    member lies in the restriction to exactly tally[member] orders, so
    summing the interval tally over the members equals summing the
    restriction sizes over the orders.  Families with the same (n, m, r)
    share one tally.
    """
    tallies: dict[tuple[int, int, int], Counter[Placement]] = {}
    out = []
    for family in families:
        n, m, r = family.n, family.m, family.r
        if not 1 <= r <= min(n, m):
            raise InputError(f"family r must be in 1..min(n,m)={min(n, m)}, got {r}")
        if (n, m, r) not in tallies:
            tallies[n, m, r] = interval_tally(n, m, r)
        tally = tallies[n, m, r]
        lhs = sum(tally[member] for member in family)
        out.append(DoubleCount(lhs, len(family) * interval_occurrence_count(n, m, r)))
    return out


def interval_double_count(family: Family) -> DoubleCount:
    """interval_double_counts for one family."""
    return interval_double_counts([family])[0]


class WindowReport(NamedTuple):
    """Outcome of the interval window structure check around one base interval."""

    passed: bool
    order: CyclicOrder
    start: tuple[int, int]
    r: int
    failure: str | None = None
    witness: tuple[Placement, ...] | None = None


def check_interval_windows(order: CyclicOrder, start_i: int, start_j: int, r: int) -> WindowReport:
    """Verify the window structure of intervals meeting a base interval.

    With the base interval anchored at row position x = start_i, the 2(r-1)
    windows are the row sets of the r-1 forward shifts (positions x+off ..
    x+off+r-1) and the r-1 backward shifts (positions x+off-r .. x+off-1).
    Checked, over realized intervals only:

    (a) every interval meeting the base, other than the base itself, has a
        window as its row projection;
    (b) for each offset, intervals with the forward-window projection are
        disjoint from intervals with the backward-window projection;
    (c) two distinct intervals sharing a window projection are disjoint.

    r = 1 has no windows and passes vacuously.
    """
    _require_half_range(order, r)
    return _window_check(order, r)(start_i, start_j)


def first_window_failure(order: CyclicOrder, r: int) -> WindowReport | None:
    """The report of the first start, in (i, j) order, that fails
    check_interval_windows, or None when every start passes.

    The work that does not depend on the start is done once for all of
    them (see _window_check).
    """
    _require_half_range(order, r)
    check = _window_check(order, r)
    for i in range(1, order.n + 1):
        for j in range(1, order.m + 1):
            report = check(i, j)
            if not report.passed:
                return report
    return None


def _window_check(order: CyclicOrder, r: int) -> Callable[[int, int], WindowReport]:
    """check_interval_windows on one (order, r), as a function of the start.

    The order's intervals, their cell sets and their row projections are
    built once.  The windows, and so checks (b) and (c), read the start
    only through its row position x: they run once per x, and every later
    start with the same x reuses their outcome.  Check (a) runs for each
    start, and runs first, so each start gets the report it would get
    alone.
    """
    n = order.n
    intervals = all_intervals(order, r)
    cells = {iv: frozenset(iv) for iv in intervals}
    projections = {iv: row_projection(iv) for iv in intervals}
    by_projection: dict[frozenset[int], list[Placement]] = {}
    for iv in intervals:
        by_projection.setdefault(projections[iv], []).append(iv)
    # x -> (its windows, the failure and witness of (b) or (c), if any)
    by_row: dict[int, tuple[set[frozenset[int]], tuple[str, tuple[Placement, ...]] | None]] = {}

    def rows_at(first: int) -> frozenset[int]:
        return frozenset(order.rows[(first - 1 + k) % n] for k in range(r))

    def window_failure(
        forward: list[frozenset[int]], backward: list[frozenset[int]], windows: set
    ) -> tuple[str, tuple[Placement, ...]] | None:
        for off in range(r - 1):
            for fwd in by_projection.get(forward[off], ()):
                for bwd in by_projection.get(backward[off], ()):
                    if not cells[fwd].isdisjoint(bwd):
                        return (
                            f"forward and backward window intervals overlap at offset {off + 1}",
                            (fwd, bwd),
                        )
        for window in windows:
            group = by_projection.get(window, [])
            for a, b in combinations(group, 2):
                if not cells[a].isdisjoint(b):
                    return (
                        "two distinct intervals with the same window projection overlap",
                        (a, b),
                    )
        return None

    def check(start_i: int, start_j: int) -> WindowReport:
        start = (start_i, start_j)
        base = diagonal_interval(order, start_i, start_j, r)
        if r == 1:
            return WindowReport(True, order, start, r)
        x = start_i
        if x not in by_row:
            forward = [rows_at(x + off) for off in range(1, r)]
            backward = [rows_at(x + off - r) for off in range(1, r)]
            windows = set(forward) | set(backward)
            by_row[x] = (windows, window_failure(forward, backward, windows))
        windows, failure = by_row[x]

        base_cells = cells[base]
        for iv in intervals:
            if iv == base:
                continue
            if not base_cells.isdisjoint(iv) and projections[iv] not in windows:
                return WindowReport(
                    False, order, start, r,
                    failure="interval meets the base but its row projection is not a window",
                    witness=(base, iv),
                )
        if failure is not None:
            return WindowReport(False, order, start, r, failure=failure[0], witness=failure[1])
        return WindowReport(True, order, start, r)

    return check
