"""Closed-form counts used throughout the toolkit.

Every function returns an exact nonnegative integer.  Python integers are
arbitrary precision, so the arithmetic here cannot overflow or round; the
enumeration modules provide independent cross-checks for each formula.
"""

from __future__ import annotations

import math

from .errors import InputError


def binomial(n: int, k: int) -> int:
    """Number of k-element subsets of an n-element set; 0 when k > n."""
    if n < 0 or k < 0:
        raise InputError(f"binomial requires nonnegative arguments, got ({n}, {k})")
    return math.comb(n, k)


def rook_placement_count(n: int, m: int, r: int) -> int:
    """Number of ways to place r non-attacking rooks on an n-by-m grid.

    Choose r rows, r columns, and a bijection between them:
    C(n,r) * C(m,r) * r!.  Zero when r exceeds min(n, m).
    """
    require_grid(n, m)
    if r < 0:
        raise InputError(f"r must be nonnegative, got {r}")
    return math.comb(n, r) * math.comb(m, r) * math.factorial(r)


def rook_star_count(n: int, m: int, r: int) -> int:
    """Number of r-rook placements through one fixed cell.

    The remaining r-1 rooks avoid the fixed row and column:
    C(n-1,r-1) * C(m-1,r-1) * (r-1)!.  The grid is vertex transitive, so
    the count is the same for every cell.
    """
    require_grid(n, m)
    if r < 1:
        raise InputError(f"r must be at least 1, got {r}")
    return math.comb(n - 1, r - 1) * math.comb(m - 1, r - 1) * math.factorial(r - 1)


def cyclic_order_count(n: int, m: int) -> int:
    """Number of equivalence classes of row/column permutation pairs.

    Pairs are identified under independent cyclic shifts of positions, an
    action with orbits of size n*m on the n!*m! pairs: (n-1)! * (m-1)!.
    """
    require_grid(n, m)
    return math.factorial(n - 1) * math.factorial(m - 1)


def interval_occurrence_count(n: int, m: int, r: int) -> int:
    """Number of cyclic orders in which a fixed r-placement is a diagonal
    interval: r! * (n-r)! * (m-r)!, divided by n when r = n = m.

    Each (order, start) pair realizing the placement p is one permutation
    pair that realizes p from positions (1, 1): its first r rows and
    columns walk p's cells in one of r! sequences, and the other rows and
    columns follow in (n-r)! * (m-r)! ways.  Two starts of one order
    realize the same placement only with the same row set, which fixes the
    row position when r < n, and the same column set, which fixes the
    column position when r < m; with r = n < m (or r = m < n) the pairing
    then fixes the other.  At r = n = m the n starts (i+k, j+k) walk the
    same pairing, so each order is counted n times: n!/n = (n-1)!.
    """
    require_placement_size(n, m, r)
    pairs = math.factorial(r) * math.factorial(n - r) * math.factorial(m - r)
    return pairs // n if r == n == m else pairs


def require_grid(n: int, m: int) -> None:
    """The one check of a grid's sides: both at least 1."""
    if n < 1 or m < 1:
        raise InputError(f"grid dimensions must be at least 1, got ({n}, {m})")


def require_placement_size(n: int, m: int, r: int) -> None:
    """The grid check, then 1 <= r <= min(n, m): the sizes that have a star."""
    require_grid(n, m)
    if not 1 <= r <= min(n, m):
        raise InputError(f"r must be in 1..min(n,m)={min(n, m)}, got {r}")
