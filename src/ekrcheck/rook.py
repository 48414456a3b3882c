"""Non-attacking rook placements on an n-by-m grid and families of them.

A placement is a tuple of (row, col) cells with pairwise distinct rows and
pairwise distinct columns, kept sorted by row.  These are exactly the
independent sets of the grid graph in which two cells are adjacent when
they share a row or a column.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import chain, combinations, permutations
from operator import or_
from random import Random
from typing import Iterable, Iterator, Sequence

from .counts import require_grid, require_placement_size, rook_placement_count, rook_star_count
from .errors import (
    DEFAULT_SET_BUDGET, InputError, Record, ResourceLimitError, is_integer, load_json,
    require_integer, require_list, require_object, save_json,
)

Cell = tuple[int, int]
Placement = tuple[Cell, ...]


def canonical_placement(cells: Iterable[Iterable[int]], n: int, m: int) -> Placement:
    """Validate and canonicalize a collection of cells (sort by row).

    Raises InputError on out-of-range cells, repeated rows, or repeated
    columns; the message names the offending cell.
    """
    parsed: list[Cell] = []
    try:
        cells = list(cells)
    except TypeError:
        raise InputError(f"expected a collection of (row, col) cells, got {cells!r}") from None
    for cell in cells:
        try:
            row, col = cell
        except (TypeError, ValueError):
            raise InputError(f"expected a (row, col) pair, got {cell!r}") from None
        if not is_integer(row) or not is_integer(col):
            raise InputError(f"cell coordinates must be integers, got {cell!r}")
        if not (1 <= row <= n and 1 <= col <= m):
            raise InputError(f"cell ({row}, {col}) outside the {n}x{m} grid")
        parsed.append((row, col))
    rows = [c[0] for c in parsed]
    if len(set(rows)) != len(rows):
        dup = next(x for x in rows if rows.count(x) > 1)
        raise InputError(f"row {dup} used by more than one cell")
    cols = [c[1] for c in parsed]
    if len(set(cols)) != len(cols):
        dup = next(x for x in cols if cols.count(x) > 1)
        raise InputError(f"column {dup} used by more than one cell")
    return tuple(sorted(parsed))


def row_projection(placement: Placement) -> frozenset[int]:
    """The set of rows used by a placement; its size equals the placement's."""
    return frozenset(row for row, _ in placement)


class Family(Record):
    """A deduplicated collection of r-placements sharing one (n, m, r) context.

    Immutable; compared and hashed by (n, m, r, sets).
    """

    __slots__ = ("n", "m", "r", "sets")

    def __init__(self, n: int, m: int, r: int, sets: tuple[Placement, ...]) -> None:
        super().__init__(n, m, r, sets)

    @classmethod
    def build(cls, n: int, m: int, r: int, members: Iterable[Iterable[Iterable[int]]]) -> "Family":
        """Canonicalize, validate, deduplicate, and sort the members."""
        require_grid(n, m)
        if r < 0:
            raise InputError(f"r must be nonnegative, got {r}")
        canon: set[Placement] = set()
        for index, member in enumerate(members):
            try:
                placement = canonical_placement(member, n, m)
            except InputError as exc:
                raise InputError(f"sets[{index}]: {exc}") from None
            if len(placement) != r:
                raise InputError(f"sets[{index}]: has {len(placement)} cells, expected r={r}")
            canon.add(placement)
        return cls(n, m, r, tuple(sorted(canon)))

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[Placement]:
        return iter(self.sets)


def require_placement_budget(n: int, m: int, r: int, max_sets: int) -> int:
    """The number of r-placements of the n-by-m grid, the one set budget
    of the placements: refuse more than ``max_sets`` of them."""
    total = rook_placement_count(n, m, r)
    if total > max_sets:
        raise ResourceLimitError(f"{total} placements exceed the output budget of {max_sets}")
    return total


def enumerate_placements(
    n: int,
    m: int,
    r: int,
    max_sets: int = DEFAULT_SET_BUDGET,
) -> list[Placement]:
    """All r-rook placements on the n-by-m grid in lexicographic order.

    Generated directly from rows, columns, and bijections rather than by
    filtering a product graph; the graph route stays available as an
    independent cross-check.  Output order is lexicographic on the
    flattened (row, col, row, col, ...) tuple.
    """
    require_grid(n, m)
    if r < 0:
        raise InputError(f"r must be nonnegative, got {r}")
    if r == 0:
        return [()]
    if r > min(n, m):
        return []
    require_placement_budget(n, m, r, max_sets)
    out: list[Placement] = []
    prefix: list[Cell] = []

    def extend(min_row: int, used_cols: int) -> None:
        depth = len(prefix)
        if depth == r:
            out.append(tuple(prefix))
            return
        for row in range(min_row, n - (r - depth) + 2):
            for col in range(1, m + 1):
                if used_cols & (1 << col):
                    continue
                prefix.append((row, col))
                extend(row + 1, used_cols | (1 << col))
                prefix.pop()

    extend(1, 0)
    return out


def star_family(n: int, m: int, r: int, center: Iterable[int]) -> Family:
    """All r-placements through the given cell."""
    require_placement_size(n, m, r)
    (a, b) = canonical_placement([center], n, m)[0]
    other_rows = [x for x in range(1, n + 1) if x != a]
    other_cols = [y for y in range(1, m + 1) if y != b]
    members: list[Placement] = []
    for rows in combinations(other_rows, r - 1):
        for cols in permutations(other_cols, r - 1):
            members.append(tuple(sorted(((a, b),) + tuple(zip(rows, cols)))))
    family = Family(n, m, r, tuple(sorted(members)))
    expected = rook_star_count(n, m, r)
    if len(family) != expected:
        raise RuntimeError(
            f"internal error: star at ({a},{b}) has {len(family)} members, expected {expected}"
        )
    return family


def element_masks(members: Iterable[Iterable]) -> dict[object, int]:
    """Each element of the given sets, mapped to the mask of the members
    that hold it (bit i for member i): the one index of which sets meet.
    Member i meets exactly the members in the union of its elements'
    masks; an empty set is in no mask."""
    holders: dict[object, int] = {}
    for index, member in enumerate(members):
        bit = 1 << index
        for element in member:
            holders[element] = holders.get(element, 0) | bit
    return holders


def pairwise_intersecting(members: Iterable[Iterable]) -> bool:
    """True iff every two of the given sets share an element: the one
    definition of an intersecting family, for placements and vertex sets
    alike.  A family with an element in every member (a star) passes in
    one linear pass.  Otherwise the union of a member's element masks, with
    its own bit added (so that a lone empty member passes), must hold every
    member."""
    members = [tuple(member) for member in members]
    if members and set(members[0]).intersection(*members[1:]):
        return True
    holders, everyone = element_masks(members), (1 << len(members)) - 1
    return all(
        reduce(or_, map(holders.__getitem__, member), 1 << index) == everyone
        for index, member in enumerate(members)
    )


def largest_star(members: Iterable[Iterable]) -> int:
    """The most of the given sets that hold one element: the largest star
    among them, for placements and vertex sets alike; 0 when no set has an
    element.  A set that repeats an element holds it once."""
    return max(Counter(chain.from_iterable(map(set, members))).values(), default=0)


def _cyclic_windows(ring: Sequence, r: int) -> list[tuple]:
    """The r-window of a cyclic sequence at each start, in order: its item
    there and the r-1 after it, wrapping around; r is at most its length."""
    ring = tuple(ring)
    wrapped = ring + ring[: r - 1]
    return [wrapped[start : start + r] for start in range(len(ring))]


def diagonal_intervals(rows: Sequence[int], cols: Sequence[int], r: int) -> list[Placement]:
    """The diagonal interval at every start (i, j) of a cyclic row order and
    a cyclic column order, which list labels by position: the placement
    that pairs their r-windows at i and at j.  Listed in (i, j) order with
    duplicates kept, so start (i, j) is at index (i-1)*m + (j-1)."""
    require_placement_size(len(rows), len(cols), r)
    col_windows = _cyclic_windows(cols, r)
    return [tuple(sorted(zip(w, v))) for w in _cyclic_windows(rows, r) for v in col_windows]


def random_placement(n: int, m: int, r: int, rng: Random) -> Placement:
    """A uniformly random r-placement."""
    require_grid(n, m)
    if not 0 <= r <= min(n, m):
        raise InputError(f"r must be in 0..min(n,m)={min(n, m)}, got {r}")
    rows = sorted(rng.sample(range(1, n + 1), r))
    cols = rng.sample(range(1, m + 1), r)
    return tuple(zip(rows, cols))


def random_intersecting_family(n: int, m: int, r: int, rng: Random) -> Family:
    """A random nonempty intersecting family of r-placements.

    Starts from a random subset of a random star and then greedily adds
    random placements that keep the family pairwise intersecting, so the
    output is not always a plain star.
    """
    require_placement_size(n, m, r)
    center = (rng.randint(1, n), rng.randint(1, m))
    star = star_family(n, m, r, center).sets
    members = list(rng.sample(star, rng.randint(1, len(star))))
    for _ in range(rng.randint(0, 2 * r)):
        candidate = random_placement(n, m, r, rng)
        if pairwise_intersecting([*members, candidate]):
            members.append(candidate)
    return Family.build(n, m, r, members)


def family_to_json_dict(family: Family) -> dict:
    return {
        "n": family.n,
        "m": family.m,
        "r": family.r,
        "sets": family.sets,
    }


def family_from_json_dict(obj: object) -> Family:
    where = "family document"
    obj = require_object(obj, where)
    n, m, r = (require_integer(obj, name, where) for name in ("n", "m", "r"))
    return Family.build(n, m, r, require_list(obj, "sets", where, default=[]))


def load_family(path: str) -> Family:
    return load_json(path, family_from_json_dict)


def save_family(family: Family, path: str) -> None:
    save_json(family_to_json_dict(family), path)
