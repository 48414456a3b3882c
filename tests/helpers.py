"""Independent oracles and small utilities shared across the test suite.

Everything here is deliberately implemented by the dumbest correct method
(subset filtering, full 2^N scans) so it exercises none of the code paths
it cross-checks.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from itertools import combinations

from ekrcheck import (
    Family,
    InputError,
    canonical_placement,
    enumerate_cyclic_orders,
    reference_order,
    rook_placement_count,
    row_projection,
    twin_classes,
)


def placements_by_cell_filter(n: int, m: int, r: int) -> list[tuple[tuple[int, int], ...]]:
    """All r-rook placements found by filtering every r-subset of cells."""
    cells = [(row, col) for row in range(1, n + 1) for col in range(1, m + 1)]
    out = []
    for subset in combinations(cells, r):
        rows = {c[0] for c in subset}
        cols = {c[1] for c in subset}
        if len(rows) == r and len(cols) == r:
            out.append(tuple(sorted(subset)))
    return out


def independent_sets_by_subset_filter(g, r: int) -> list[tuple[int, ...]]:
    """All independent r-subsets found by filtering every r-subset of vertices."""
    out = []
    for subset in combinations(range(1, g.vertex_count + 1), r):
        if all(not g.has_edge(u, v) for u, v in combinations(subset, 2)):
            out.append(subset)
    return out


def brute_force_max_intersecting(sets) -> int:
    """Exact maximum intersecting subfamily size by scanning all 2^N subfamilies.

    Validity of a subfamily is decided incrementally: a mask is valid iff
    the mask without its lowest member is valid and that member intersects
    everything else in the mask.
    """
    unique = sorted(set(sets))
    count = len(unique)
    compat = [0] * count
    for i in range(count):
        cells = set(unique[i])
        for j in range(i + 1, count):
            if cells & set(unique[j]):
                compat[i] |= 1 << j
                compat[j] |= 1 << i
    best = 0
    valid = bytearray(1 << count)
    valid[0] = 1
    for mask in range(1, 1 << count):
        low = mask & -mask
        rest = mask ^ low
        i = low.bit_length() - 1
        if valid[rest] and (compat[i] & rest) == rest:
            valid[mask] = 1
            size = mask.bit_count()
            if size > best:
                best = size
    return best


def transposition_and_cycle(labels) -> list[dict]:
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
        for sigma in transposition_and_cycle(range(1, n + 1))
    ] + [
        {(row, col): (row, tau.get(col, col)) for row, col in cells}
        for tau in transposition_and_cycle(range(1, m + 1))
    ]


def rook_orbit(n: int, m: int, r: int):
    """The orbit of the r-placements of the n-by-m grid under row and
    column permutations (``search``'s module docstring), as the ``(label,
    size)`` that ``max_intersecting_family`` takes: the label is True on an
    r-placement and None on any other set."""
    cells = frozenset((row, col) for row in range(1, n + 1) for col in range(1, m + 1))
    placements = rook_placement_count(n, m, r)

    def label(member: tuple) -> bool | None:
        rows, cols = {row for row, _ in member}, {col for _, col in member}
        placed = len(rows) == len(cols) == len(member) == r and cells.issuperset(member)
        return True if placed else None

    return label, lambda _: placements


def twin_symmetries(g) -> list[dict]:
    """Generators of the permutations within each class of twins of g."""
    return [perm for twins in twin_classes(g) for perm in transposition_and_cycle(twins)]


def one_orbit_by_walk(unique, symmetries) -> bool:
    """Whether the permutations map the sorted distinct family ``unique``
    onto itself and carry its first set to every other, by a breadth-first
    walk from the first set that keys each set and each image by its sorted
    elements.  Each permutation must be a bijection on the elements that
    occur; an element it does not list is fixed.  A set with a repeated
    element, or two sets with the same elements, are refused outright."""
    if any(len(set(member)) != len(member) for member in unique):
        return False
    index = {tuple(sorted(member)): i for i, member in enumerate(unique)}
    if len(index) != len(unique):
        return False
    elements = set().union(*unique)
    maps = []
    for perm in symmetries:
        full = {element: perm.get(element, element) for element in elements}
        if set(full.values()) != elements:
            return False
        maps.append(full)
    reached = {0}
    queue = [unique[0]]
    for member in queue:
        for full in maps:
            image = index.get(tuple(sorted(full[element] for element in member)))
            if image is None:
                return False
            if image not in reached:
                reached.add(image)
                queue.append(unique[image])
    return len(reached) == len(unique)


def diagonal_interval(order, i: int, j: int, r: int) -> tuple:
    """The interval of the order at start (i, j), by definition: the cells
    (rows[(i-1+k) % n], cols[(j-1+k) % m]) for k < r, sorted."""
    n, m = order.n, order.m
    return tuple(sorted(
        (order.rows[(i - 1 + k) % n], order.cols[(j - 1 + k) % m]) for k in range(r)
    ))


def first_starts(order, r: int) -> dict:
    """Each distinct interval of the order, mapped to its first start in
    (i, j) order and listed in that order."""
    first: dict = {}
    for i in range(1, order.n + 1):
        for j in range(1, order.m + 1):
            first.setdefault(diagonal_interval(order, i, j, r), (i, j))
    return first


def interval_start(order, placement):
    """The start (i, j) whose interval realizes the placement, or None: the
    first such start in (i, j) order, unique for r <= min(n, m)/2."""
    target = canonical_placement(placement, order.n, order.m)
    return first_starts(order, len(target)).get(target)


def restrict_to_order(family, order):
    """The subfamily of members realized as intervals of this order."""
    if (family.n, family.m) != (order.n, order.m):
        raise InputError(
            f"family context ({family.n}, {family.m}) does not match the order "
            f"({order.n}, {order.m})"
        )
    realized = first_starts(order, family.r)
    return Family(family.n, family.m, family.r, tuple(s for s in family.sets if s in realized))


def tally_by_order(n: int, m: int, r: int) -> Counter:
    """For every placement, the number of cyclic orders realizing it as an
    interval, found by relabelling the identity order's distinct intervals
    in every enumerated order, one order at a time."""
    positions = list(first_starts(reference_order(n, m), r))
    tally: Counter = Counter()
    for order in enumerate_cyclic_orders(n, m):
        rows, cols = order.rows, order.cols
        tally.update(
            tuple(sorted((rows[p - 1], cols[q - 1]) for p, q in cells)) for cells in positions
        )
    return tally


def count_orders_by_listing(n: int, m: int, placement) -> int:
    """The canonical cyclic orders that realize the placement as an
    interval, counted by listing every order and scanning its starts."""
    canon = canonical_placement(placement, n, m)
    return sum(
        1 for order in enumerate_cyclic_orders(n, m) if interval_start(order, canon) is not None
    )


def window_check_by_rebuild(order, start_i: int, start_j: int, r: int):
    """(passed, failure, witness) of check_interval_windows at one start,
    rebuilding every interval and projection for that start alone and
    running checks (a), (b) and (c) in turn."""
    n = order.n
    base = diagonal_interval(order, start_i, start_j, r)
    if r == 1:
        return True, None, None

    def rows_at(first):
        return frozenset(order.rows[(first - 1 + k) % n] for k in range(r))

    forward = [rows_at(start_i + off) for off in range(1, r)]
    backward = [rows_at(start_i + off - r) for off in range(1, r)]
    windows = set(forward) | set(backward)
    intervals = list(first_starts(order, r))
    for iv in intervals:
        if iv != base and set(base) & set(iv) and row_projection(iv) not in windows:
            return False, "interval meets the base but its row projection is not a window", (base, iv)
    by_projection: dict = {}
    for iv in intervals:
        by_projection.setdefault(row_projection(iv), []).append(iv)
    for off in range(r - 1):
        for fwd in by_projection.get(forward[off], ()):
            for bwd in by_projection.get(backward[off], ()):
                if set(fwd) & set(bwd):
                    return (False, f"forward and backward window intervals overlap at offset "
                                   f"{off + 1}", (fwd, bwd))
    for window in windows:
        for a, b in combinations(by_projection.get(window, []), 2):
            if set(a) & set(b):
                return (False, "two distinct intervals with the same window projection overlap",
                        (a, b))
    return True, None, None


def run_cli(*argv: str) -> tuple[int, str, str]:
    """Run the CLI in a fresh interpreter; returns (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "ekrcheck", *argv],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def strip_elapsed(obj):
    """Drop every elapsed_ms field, recursively."""
    if isinstance(obj, dict):
        return {k: strip_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [strip_elapsed(v) for v in obj]
    return obj


def canonical_json_without_elapsed(text: str) -> bytes:
    return json.dumps(strip_elapsed(json.loads(text)), indent=2).encode()
