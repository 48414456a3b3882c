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
    all_intervals,
    diagonal_interval,
    enumerate_cyclic_orders,
    reference_order,
    row_projection,
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


def transitive_symmetries_by_sorting(unique, symmetries) -> bool:
    """The symmetry check of the ``search`` module docstring on the sorted
    distinct sets ``unique``, keying each set and each image by its sorted
    elements; a set with a repeated element is refused outright."""
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


def tally_by_order(n: int, m: int, r: int) -> Counter:
    """For every placement, the number of cyclic orders realizing it as an
    interval, found by relabelling the identity order's distinct intervals
    in every enumerated order, one order at a time."""
    positions = all_intervals(reference_order(n, m), r)
    tally: Counter = Counter()
    for order in enumerate_cyclic_orders(n, m):
        rows, cols = order.rows, order.cols
        tally.update(
            tuple(sorted((rows[p - 1], cols[q - 1]) for p, q in cells)) for cells in positions
        )
    return tally


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
    intervals = all_intervals(order, r)
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
