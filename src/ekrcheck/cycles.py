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

Translation.  In the identity order, t(a, b): (p, q) -> (p+a, q+b), with
p taken mod n and q mod m, is a bijection of cells that sends each row
onto a row and each column onto a column.  It sends P(i, j) onto
P(i+a, j+b), and so the order's intervals onto themselves; it sends a row
projection W onto W+a, and so the windows of row position x (see
check_interval_windows) onto those of x+a.  It keeps every intersection,
as phi does.  So checks (a)-(c) pass or fail alike at every start, for
every r, and with order invariance start (1, 1) of the identity order
stands for every start of every order.  If any start fails, (1, 1)
fails, and it comes first in (i, j) order, so first_window_failure
checks that start alone and reports the failure a sweep of every start
would report first.

Factored interval tally.  interval_tally counts, for every placement p,
the canonical orders that realize p as an interval, without listing the
orders.  The identity order's n*m intervals are pairwise distinct except
at r = n = m.  If P(i, j) = P(i', j'), their row sets are equal, which
forces i = i' when r < n, and their column sets, which forces j = j' when
r < m; the cell in row i (or column j) then forces the other coordinate.
At r = n = m, P(i, j) = P(i+1, j+1), so the intervals are the n
diagonals, and the first start of each in (i, j) order lies in row 1.
So, with S the set of every start, or of row 1's starts at r = n = m,
the distinct intervals of every order (s1, s2) are the images phi(P(s))
for s in S, pairwise distinct, and

    tally[p] = sum over s in S of #{orders : phi(P(s)) = p}.

The canonical orders are exactly the pairs (s1, s2) of a canonical row
order (label 1 first) and a canonical column order, chosen independently.
For s = (i, j), phi(P(i, j)) is the placement of the pairs (w[k], v[k]),
where w = (s1[i], ..., s1[i+r-1]) is s1's r-window at i and v is s2's
r-window at j (positions taken cyclically).  Let A_i[w] count the
canonical row orders whose window at i is w, and B_j[v] the canonical
column orders whose window at j is v.  S is a product of rows and all
columns, so the sum is bilinear: tally[p] is the sum of A[w] * B[v] over
the pairs of windows (w, v) that realize p, where A sums A_i over the rows
of S and B sums B_j over every column.

A pair (w, v) realizes p exactly when zip(w, v) lists the cells of p in
some order.  The cells of p have distinct rows, so each ordering of them
is zip(w, v) for exactly one pair: w its rows and v its columns.  So
tally[p] is the sum, over the r! orderings of the cells of p, of
A[their rows] * B[their columns], and interval_tally returns this lookup,
one placement at a time.  A placement that no order realizes looks up 0.
At r = n = m, A is A_1 alone.  Every canonical row order holds label 1
at position 1, and at r = n every window holds every label, so label 1
leads the window at position 1 and no other: A[w] is w's count over
every start when w starts with label 1, and 0 otherwise.  So the lookup
counts row windows over every start, as it does column windows, and sums
only the (r-1)! orderings that put the row-1 cell of p first.

Work guards.  Each check counts its work before any walk, after its
input checks, and refuses a count over its budget (ResourceLimitError):
n*m*r cell steps to list an order's intervals, (n*m)^2 * r to build the
interval graph's masks for one r, and r*(n*m + (r-1)*m*(2m-1)) for the
window check, each bounded by INTERVAL_WORK_BUDGET.  The tally walks
(n-1)! * n + (m-1)! * m = n! + m! windows, in place of
(n-1)! * (m-1)! * n * m intervals built one order at a time.  Looking up
a placement makes r! terms, or (r-1)! at r = n = m.  occurrence looks up
each of the n!/(n-r)! * m!/(m-r)! / r! placements once, so it makes at
most n!/(n-r)! * m!/(m-r)! terms.  double-count's sampled families hold
many members in common, each drawn from a star, so interval_double_counts
memoizes the lookup for each grid and looks up every distinct member
once: at most as many terms again, however many families it is given.
require_tally_work counts the walk and those n!/(n-r)! * m!/(m-r)! lookup
terms, and bounds the count by TALLY_WORK_BUDGET.  count_orders_containing,
which counts one placement's orders, walks the same n! + m! windows under
the same budget, with no lookup terms.  The budget admits every grid of at
most 10^6 orders, the bound the tally had when it listed orders: the
largest such count is 25,411,680 (7 x 7 at r = 6 and r = 7), while
12 x 12 at r = 1 needs 958,003,344.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, reduce
from itertools import combinations, permutations
from math import factorial, perm
from operator import mul, or_
from typing import Callable, Iterable, NamedTuple, Sequence

from .counts import (
    cyclic_order_count, interval_occurrence_count, require_grid, require_placement_size,
)
from .errors import DEFAULT_SET_BUDGET, InputError, Record, ResourceLimitError, require_integers
from .rook import (
    Family, Placement, _cyclic_windows, canonical_placement, diagonal_intervals, element_masks,
    row_projection,
)

INTERVAL_WORK_BUDGET = 10**6
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
        return {"sigma1": self.rows, "sigma2": self.cols}


def _check_permutation(values: tuple[int, ...], name: str) -> None:
    if not values or sorted(values) != list(range(1, len(values) + 1)):
        raise InputError(f"{name} must be a permutation of 1..{len(values)}, got {values!r}")


def canonical_order(rows: Sequence[int], cols: Sequence[int]) -> CyclicOrder:
    """Rotate a permutation pair so value 1 leads in each coordinate.

    Rotations act on positions only, so the result represents the same
    equivalence class; the map is idempotent on canonical pairs.
    """
    for values, name in ((rows, "rows"), (cols, "cols")):
        _check_permutation(tuple(require_integers(values, name)), name)
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
        try:
            count = str(total)
        except ValueError:  # more digits than the interpreter converts to text
            count = f"{n - 1}! * {m - 1}!"
        raise ResourceLimitError(f"{count} cyclic orders exceed the budget of {max_orders}")
    out = []
    for row_rest in permutations(range(2, n + 1)):
        rows = (1,) + row_rest
        for col_rest in permutations(range(2, m + 1)):
            out.append(CyclicOrder(rows, (1,) + col_rest))
    return out


def reference_order(n: int, m: int) -> CyclicOrder:
    """The identity order: first in enumeration, with labels equal to positions."""
    require_grid(n, m)
    return CyclicOrder(tuple(range(1, n + 1)), tuple(range(1, m + 1)))


def _require_work(task: str, work: int, budget: int, amount: str = "{} cell steps") -> None:
    """Refuse ``task`` when its work count (module docstring) exceeds ``budget``."""
    if work > budget:
        raise ResourceLimitError(f"{task} needs {amount.format(work)}, over the budget of {budget}")


def all_intervals(order: CyclicOrder, r: int) -> list[Placement]:
    """rook.diagonal_intervals of the order, deduplicated in first-start order.

    For r <= min(n, m)/2 all starts realize distinct sets, and that is
    asserted; duplicates can only occur for exploratory larger r.
    """
    n, m = order.n, order.m
    require_placement_size(n, m, r)
    _require_work(f"listing the {n * m} intervals of an order", n * m * r, INTERVAL_WORK_BUDGET)
    out = list(dict.fromkeys(diagonal_intervals(order.rows, order.cols, r)))
    if 2 * r <= min(n, m) and len(out) != n * m:
        raise RuntimeError(
            f"internal error: expected {n * m} distinct intervals at r={r}, got {len(out)}"
        )
    return out


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


def max_intersecting_intervals_witness(order: CyclicOrder, r: int) -> tuple[Placement, ...]:
    """A maximum intersecting family drawn from this order's intervals.

    The r intervals through any fixed cell pairwise intersect, so it has
    at least r members; the cycle-method bound says it has at most r.
    """
    _require_half_range(order, r)
    starts = order.n * order.m
    _require_work(f"comparing {starts} intervals in pairs", starts**2 * r, INTERVAL_WORK_BUDGET)
    intervals = all_intervals(order, r)
    holders = element_masks(intervals)
    masks = [
        reduce(or_, map(holders.__getitem__, iv)) & ~(1 << v) for v, iv in enumerate(intervals)
    ]
    _, mask = _micro_max_clique(masks)
    return tuple(sorted(intervals[v] for v in range(len(intervals)) if mask & (1 << v)))


def count_orders_containing(n: int, m: int, placement: Iterable[Iterable[int]]) -> int:
    """Number of canonical cyclic orders realizing the placement as an
    interval, counted without listing the orders.

    Let p have r cells, and let pi send each row of p to its column.  An
    order (s1, s2) realizes p at start (i, j) exactly when the r-window w
    of s1 at i and the r-window v of s2 at j pair up as the cells of p:
    the cells of p have distinct rows, so that is when w holds the rows of
    p and v[k] = pi(w[k]) for every k.  So the order realizes p exactly
    when the set of pi(w), over the windows w of s1 on the rows of p,
    meets the set of the windows of s2 on the columns of p.  The canonical
    orders are the pairs of a canonical row order and a canonical column
    order, chosen independently, so each row order is walked once for its
    set and each column order once for its own, and each pair of a row set
    and a column set that meet counts the product of their multiplicities:
    n! + m! window steps.  This count is written apart from
    interval_tally's lookup, which it cross-checks, and takes the same work
    budget.
    """
    require_grid(n, m)
    canon = canonical_placement(placement, n, m)
    r = len(canon)
    require_tally_work(n, m, r, 0, "counting the orders of one placement")
    column = dict(canon)

    def window_sets(size: int, labels: set[int], relabel: Callable) -> Counter[frozenset]:
        """How many canonical cyclic orders of 1..size have each set of
        relabelled r-windows on ``labels``."""
        sets: Counter[frozenset] = Counter()
        for rest in permutations(range(2, size + 1)):
            windows = _cyclic_windows((1,) + rest, r)
            sets[frozenset(relabel(w) for w in windows if set(w) == labels)] += 1
        return sets

    row_sets = window_sets(n, set(column), lambda w: tuple(map(column.__getitem__, w)))
    col_sets = window_sets(m, set(column.values()), tuple)
    holding: dict[tuple[int, ...], list[frozenset]] = {}
    for col_set in col_sets:
        for window in col_set:
            holding.setdefault(window, []).append(col_set)
    total = 0
    for row_set, count in row_sets.items():
        met = {col_set for window in row_set for col_set in holding.get(window, ())}
        total += count * sum(col_sets[col_set] for col_set in met)
    return total


def _window_tally(size: int, r: int) -> Counter[tuple[int, ...]]:
    """How many canonical cyclic orders of 1..size have each r-window, the
    labels at a position and the r-1 after it (wrapping around), summed
    over every position."""
    tally: Counter[tuple[int, ...]] = Counter()
    for rest in permutations(range(2, size + 1)):
        tally.update(_cyclic_windows((1,) + rest, r))
    return tally


def require_tally_work(n: int, m: int, r: int, joins: int = 1, task: str = "interval tally") -> None:
    """Refuse a bad r, then a tally whose work count (module docstring)
    exceeds the budget, before any walk.

    12! alone exceeds the budget, so a side past 12 is counted as 12: the
    count stays short, and it is exact wherever it can pass.
    """
    require_placement_size(n, m, r)
    n, m = min(n, 12), min(m, 12)
    work = factorial(n) + factorial(m) + joins * perm(n, r) * perm(m, r)
    _require_work(task, work, TALLY_WORK_BUDGET, "at least {} window steps and products")


def interval_tally(n: int, m: int, r: int) -> Callable[[Placement], int]:
    """A lookup giving, for a placement, the number of canonical cyclic
    orders realizing it as an interval; 0 for one that no order realizes.

    Row orders and column orders are walked separately, and a placement is
    looked up by pairing their window counts over the orderings of its
    cells (module docstring), or only over those that put its row-1 cell
    first at r = n = m.  permutations lists the orderings of the row labels
    and of the column labels in one index order, so the k-th row window and
    the k-th column window come from the same ordering of the cells.
    """
    require_tally_work(n, m, r)
    lead = int(r == n == m)
    rows, cols = _window_tally(n, r), _window_tally(m, r)

    def tally(placement: Placement) -> int:
        labels = zip(*sorted(placement)) if len(placement) == r else ((), ())
        ws, vs = (map(seq[:lead].__add__, permutations(seq[lead:])) for seq in labels)
        return sum(map(mul, map(rows.__getitem__, ws), map(cols.__getitem__, vs)))

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
    member lies in the restriction to exactly tally(member) orders, so
    summing the interval tally over the members equals summing the
    restriction sizes over the orders.  Families with the same (n, m, r)
    share one tally lookup, built from the window counts once and
    memoized, so a placement that several families hold is looked up once
    (module docstring, "Work guards").
    """
    tallies: dict[tuple[int, int, int], Callable[[Placement], int]] = {}
    out = []
    for family in families:
        n, m, r = family.n, family.m, family.r
        require_placement_size(n, m, r)
        if (n, m, r) not in tallies:
            tallies[n, m, r] = cache(interval_tally(n, m, r))
        tally = tallies[n, m, r]
        lhs = sum(map(tally, family))
        out.append(DoubleCount(lhs, len(family) * interval_occurrence_count(n, m, r)))
    return out


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
    start = (start_i, start_j)
    n, m = order.n, order.m
    for name, position, size in (("i", start_i, n), ("j", start_j, m)):
        if not 1 <= position <= size:
            raise InputError(f"start position {name} out of range 1..{size}: {position}")
    _require_work(
        f"checking the windows of one start on the {n} x {m} grid",
        r * (n * m + (r - 1) * m * (2 * m - 1)), INTERVAL_WORK_BUDGET,
    )
    if r == 1:
        return WindowReport(True, order, start, r)
    by_start = diagonal_intervals(order.rows, order.cols, r)
    base = by_start[(start_i - 1) * m + start_j - 1]
    row_windows = _cyclic_windows(order.rows, r)
    forward = [frozenset(row_windows[(start_i - 1 + off) % n]) for off in range(1, r)]
    backward = [frozenset(row_windows[(start_i - 1 + off - r) % n]) for off in range(1, r)]
    windows = set(forward) | set(backward)
    intervals = list(dict.fromkeys(by_start))
    by_projection: dict[frozenset[int], list[Placement]] = {}
    for iv in intervals:
        by_projection.setdefault(row_projection(iv), []).append(iv)

    def failed(failure: str, *witness: Placement) -> WindowReport:
        return WindowReport(False, order, start, r, failure=failure, witness=witness)

    base_cells = set(base)
    for iv in intervals:
        if iv != base and not base_cells.isdisjoint(iv) and row_projection(iv) not in windows:
            return failed(
                "interval meets the base but its row projection is not a window", base, iv
            )
    for off in range(r - 1):
        for fwd in by_projection.get(forward[off], ()):
            for bwd in by_projection.get(backward[off], ()):
                if not set(fwd).isdisjoint(bwd):
                    return failed(
                        f"forward and backward window intervals overlap at offset {off + 1}",
                        fwd, bwd,
                    )
    for window in windows:
        for a, b in combinations(by_projection.get(window, ()), 2):
            if not set(a).isdisjoint(b):
                return failed(
                    "two distinct intervals with the same window projection overlap", a, b
                )
    return WindowReport(True, order, start, r)


def first_window_failure(order: CyclicOrder, r: int) -> WindowReport | None:
    """The report of the first start, in (i, j) order, that fails
    check_interval_windows, or None when every start passes.

    Every start passes or fails alike, and (1, 1) comes first (module
    docstring, "Translation"), so only that start is checked.
    """
    report = check_interval_windows(order, 1, 1, r)
    return None if report.passed else report
