"""Non-attacking rook placements on an n-by-m grid and families of them.

A placement is a tuple of (row, col) cells with pairwise distinct rows and
pairwise distinct columns, kept sorted by row.  These are exactly the
independent sets of the grid graph in which two cells are adjacent when
they share a row or a column.
"""

from __future__ import annotations

from itertools import combinations, permutations
from random import Random
from typing import Iterable, Iterator

from .counts import require_grid, require_placement_size, rook_placement_count, rook_star_count
from .errors import (
    DEFAULT_SET_BUDGET, InputError, Record, ResourceLimitError, is_integer, load_json, save_json,
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


def placements_intersect(a: Placement, b: Placement) -> bool:
    """True iff the two placements share at least one cell."""
    return not set(a).isdisjoint(b)


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

    def __contains__(self, placement: object) -> bool:
        return placement in self.sets


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
    total = rook_placement_count(n, m, r)
    if total > max_sets:
        raise ResourceLimitError(
            f"{total} placements exceed the output budget of {max_sets}"
        )
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


def pairwise_intersecting(members: Iterable[Iterable]) -> bool:
    """True iff every two of the given sets share an element: the one
    definition of an intersecting family, for placements and vertex sets
    alike.

    Each element gets the mask of the members that hold it; a member meets
    exactly the members in the union of its elements' masks, and the check
    asks that this union, with the member's own bit added, hold every
    member.  The own bit keeps a lone member intersecting even when it is
    empty.
    """
    members = [tuple(member) for member in members]
    holders: dict[object, int] = {}
    for index, member in enumerate(members):
        for element in member:
            holders[element] = holders.get(element, 0) | (1 << index)
    everyone = (1 << len(members)) - 1
    for index, member in enumerate(members):
        meets = 1 << index
        for element in member:
            meets |= holders[element]
        if meets != everyone:
            return False
    return True


def is_intersecting(family: Family) -> bool:
    """True iff every pair of members shares at least one cell."""
    return pairwise_intersecting(family.sets)


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
    cell_sets = [set(p) for p in members]
    for _ in range(rng.randint(0, 2 * r)):
        candidate = random_placement(n, m, r, rng)
        cand_cells = set(candidate)
        if all(cand_cells & s for s in cell_sets):
            members.append(candidate)
            cell_sets.append(cand_cells)
    return Family.build(n, m, r, members)


def family_to_json_dict(family: Family) -> dict:
    return {
        "n": family.n,
        "m": family.m,
        "r": family.r,
        "sets": [[list(cell) for cell in placement] for placement in family.sets],
    }


def family_from_json_dict(obj: object) -> Family:
    if not isinstance(obj, dict):
        raise InputError(f"family document must be a JSON object, got {type(obj).__name__}")
    for field in ("n", "m", "r"):
        if field not in obj:
            raise InputError(f'family document is missing the "{field}" field')
        if not is_integer(obj[field]):
            raise InputError(f'"{field}" must be an integer, got {obj[field]!r}')
    sets = obj.get("sets", [])
    if not isinstance(sets, list):
        raise InputError('"sets" must be a list of placements')
    return Family.build(obj["n"], obj["m"], obj["r"], sets)


def load_family(path: str) -> Family:
    return family_from_json_dict(load_json(path))


def save_family(family: Family, path: str) -> None:
    save_json(family_to_json_dict(family), path)
