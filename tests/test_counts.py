import math
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ekrcheck import (
    binomial,
    cyclic_order_count,
    enumerate_cyclic_orders,
    enumerate_placements,
    interval_occurrence_count,
    rook_placement_count,
    rook_star_count,
    star_family,
)
from ekrcheck.errors import InputError
from helpers import placements_by_cell_filter


class TestBinomial:
    def test_hand_values(self):
        assert binomial(4, 2) == 6
        assert binomial(5, 0) == 1
        assert binomial(5, 3) == 10

    def test_k_larger_than_n_is_zero(self):
        assert binomial(3, 5) == 0

    def test_negative_arguments_rejected(self):
        with pytest.raises(InputError):
            binomial(-1, 0)
        with pytest.raises(InputError):
            binomial(3, -2)

    @given(st.integers(1, 20), st.integers(1, 20))
    def test_pascals_rule(self, n, k):
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


class TestPlacementCount:
    def test_singletons_count_cells(self):
        assert rook_placement_count(3, 5, 1) == 15

    def test_two_by_two_diagonals(self):
        assert rook_placement_count(2, 2, 2) == 2

    def test_four_by_four_pairs(self):
        assert rook_placement_count(4, 4, 2) == 72

    def test_r_beyond_grid_is_zero(self):
        assert rook_placement_count(3, 4, 5) == 0

    def test_matches_cell_subset_oracle(self):
        for n in range(1, 5):
            for m in range(n, 5):
                for r in range(0, min(n, m) + 1):
                    expected = len(placements_by_cell_filter(n, m, r))
                    assert rook_placement_count(n, m, r) == expected

    def test_vertex_set_double_count(self):
        # (placement, cell) incidences counted both ways
        for n in range(1, 6):
            for m in range(n, 6):
                for r in range(1, min(n, m) + 1):
                    assert rook_placement_count(n, m, r) * r == n * m * rook_star_count(n, m, r)

    def test_bad_grid_rejected(self):
        with pytest.raises(InputError):
            rook_placement_count(0, 3, 1)


class TestStarCount:
    def test_four_by_four_pairs(self):
        assert rook_star_count(4, 4, 2) == 9
        assert rook_star_count(4, 4, 2) == len(star_family(4, 4, 2, (1, 1)))

    def test_singleton_star_is_one(self):
        assert rook_star_count(7, 9, 1) == 1

    def test_rectangular_case(self):
        assert rook_star_count(3, 4, 2) == 6
        assert rook_star_count(3, 4, 2) == len(star_family(3, 4, 2, (2, 2)))

    def test_matches_membership_filter(self):
        for n in range(2, 5):
            for m in range(n, 5):
                for r in range(1, min(n, m) + 1):
                    through = [
                        p for p in enumerate_placements(n, m, r) if (1, 1) in p
                    ]
                    assert rook_star_count(n, m, r) == len(through)

    def test_r_zero_rejected(self):
        with pytest.raises(InputError):
            rook_star_count(4, 4, 0)


class TestCyclicOrderCount:
    def test_small_values(self):
        assert cyclic_order_count(2, 2) == 1
        assert cyclic_order_count(3, 3) == 4
        assert cyclic_order_count(4, 4) == 36

    def test_matches_enumeration(self):
        for n in range(1, 5):
            for m in range(1, 5):
                assert cyclic_order_count(n, m) == len(enumerate_cyclic_orders(n, m))

    def test_matches_orbit_count_of_all_pairs(self):
        # canonicalizing every permutation pair hits each class exactly once
        n, m = 3, 3
        from ekrcheck import canonical_order

        classes = {
            canonical_order(p1, p2)
            for p1 in permutations(range(1, n + 1))
            for p2 in permutations(range(1, m + 1))
        }
        assert len(classes) == cyclic_order_count(n, m)

    def test_orbit_size_identity(self):
        for n in range(1, 9):
            for m in range(1, 9):
                assert cyclic_order_count(n, m) * n * m == math.factorial(n) * math.factorial(m)


class TestIntervalOccurrenceCount:
    def test_small_values(self):
        assert interval_occurrence_count(4, 4, 2) == 8
        assert interval_occurrence_count(3, 3, 1) == 4
        assert interval_occurrence_count(2, 2, 1) == 1

    def test_full_placements_of_a_square_grid(self):
        # The n starts (i+k, j+k) of one order walk the same full placement.
        for n in range(1, 8):
            assert interval_occurrence_count(n, n, n) == math.factorial(n - 1)
        assert interval_occurrence_count(4, 5, 4) == math.factorial(4)

    def test_r_out_of_range_rejected(self):
        with pytest.raises(InputError):
            interval_occurrence_count(4, 4, 0)
        with pytest.raises(InputError):
            interval_occurrence_count(4, 4, 5)
