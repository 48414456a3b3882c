import copy
import pickle
from collections import Counter
from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekrcheck import (
    CyclicOrder,
    WindowReport,
    cycles,
    all_intervals,
    canonical_order,
    check_interval_windows,
    count_orders_containing,
    cyclic_order_count,
    diagonal_interval,
    enumerate_cyclic_orders,
    enumerate_placements,
    first_window_failure,
    interval_double_count,
    interval_double_counts,
    interval_occurrence_count,
    interval_start,
    interval_tally,
    max_intersecting_intervals,
    max_intersecting_intervals_witness,
    random_intersecting_family,
    reference_order,
    restrict_to_order,
    star_family,
    Family,
)
from ekrcheck.errors import InputError, ResourceLimitError
from helpers import tally_by_order, window_check_by_rebuild

IDENTITY_33 = CyclicOrder((1, 2, 3), (1, 2, 3))
IDENTITY_44 = CyclicOrder((1, 2, 3, 4), (1, 2, 3, 4))


def perm_pairs(n, m):
    perms_n = list(permutations(range(1, n + 1)))
    perms_m = list(permutations(range(1, m + 1)))
    return st.tuples(st.sampled_from(perms_n), st.sampled_from(perms_m))


class TestCanonicalOrder:
    def test_rotates_one_to_front(self):
        order = canonical_order((3, 1, 2), (2, 3, 1))
        assert order.rows == (1, 2, 3)
        assert order.cols == (1, 2, 3)

    def test_identity_is_fixed(self):
        assert canonical_order((1, 2, 3), (1, 2, 3)) == IDENTITY_33

    @settings(max_examples=60, deadline=None)
    @given(perm_pairs(4, 5))
    def test_idempotent(self, pair):
        first = canonical_order(*pair)
        again = canonical_order(first.rows, first.cols)
        assert first == again

    def test_rejects_non_bijection(self):
        with pytest.raises(InputError):
            canonical_order((1, 1, 2), (1, 2, 3))

    @pytest.mark.parametrize("rows", [5, "123", None, {1: 1}, [1, "2", 3], [1, True], [1.0, 2]])
    def test_rejects_a_non_sequence_or_a_non_integer_entry(self, rows):
        with pytest.raises(InputError, match="rows must be a sequence of integers"):
            canonical_order(rows, (1, 2))

    def test_constructor_requires_canonical_form(self):
        with pytest.raises(InputError, match="canonical"):
            CyclicOrder((2, 1), (1, 2))


class TestEnumerateOrders:
    def test_counts(self):
        assert len(enumerate_cyclic_orders(2, 2)) == 1
        assert len(enumerate_cyclic_orders(3, 3)) == 4
        assert len(enumerate_cyclic_orders(4, 3)) == 12

    def test_counts_match_closed_form_up_to_five(self):
        for n in range(1, 6):
            for m in range(1, 6):
                assert len(enumerate_cyclic_orders(n, m)) == cyclic_order_count(n, m)

    def test_lexicographic_order(self):
        orders = enumerate_cyclic_orders(4, 3)
        keys = [(o.rows, o.cols) for o in orders]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_every_class_is_hit_once(self):
        canonical = {
            canonical_order(p1, p2)
            for p1 in permutations(range(1, 4))
            for p2 in permutations(range(1, 4))
        }
        assert canonical == set(enumerate_cyclic_orders(3, 3))

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            enumerate_cyclic_orders(8, 8, max_orders=100)


class TestIntervals:
    def test_wraparound_substitution(self):
        assert diagonal_interval(IDENTITY_33, 2, 3, 2) == ((2, 3), (3, 1))

    def test_leading_diagonal(self):
        assert diagonal_interval(IDENTITY_33, 1, 1, 2) == ((1, 1), (2, 2))

    def test_r_one_is_a_single_cell(self):
        order = canonical_order((1, 3, 2), (1, 2, 3))
        assert diagonal_interval(order, 2, 3, 1) == ((3, 3),)

    def test_all_starts_distinct_at_half_range(self):
        assert len(all_intervals(IDENTITY_33, 1)) == 9
        assert len(all_intervals(CyclicOrder((1, 2), (1, 2)), 1)) == 4
        assert len(all_intervals(IDENTITY_44, 2)) == 16

    def test_nine_distinct_pairs_for_identity(self):
        intervals = all_intervals(IDENTITY_33, 2)
        assert len(intervals) == len(set(intervals)) == 9

    def test_r_out_of_range(self):
        with pytest.raises(InputError):
            diagonal_interval(IDENTITY_33, 1, 1, 4)
        with pytest.raises(InputError):
            diagonal_interval(IDENTITY_33, 1, 1, 0)


class TestIntervalStart:
    def test_found(self):
        assert interval_start(IDENTITY_33, ((1, 1), (2, 2))) == (1, 1)

    def test_absent(self):
        assert interval_start(IDENTITY_33, ((1, 2), (2, 1))) is None

    @settings(max_examples=40, deadline=None)
    @given(perm_pairs(4, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 2))
    def test_round_trip(self, pair, i, j, r):
        order = canonical_order(*pair)
        placement = diagonal_interval(order, i, j, r)
        assert interval_start(order, placement) == (i, j)

    def test_membership_agrees_with_all_intervals(self):
        order = canonical_order((1, 3, 2, 4), (1, 4, 2, 3))
        realized = set(all_intervals(order, 2))
        for placement in enumerate_placements(4, 4, 2):
            assert (interval_start(order, placement) is not None) == (placement in realized)


class TestRestriction:
    def test_star_restriction(self):
        star = star_family(3, 3, 2, (1, 1))
        restricted = restrict_to_order(star, IDENTITY_33)
        assert restricted.sets == (((1, 1), (2, 2)), ((1, 1), (3, 3)))

    def test_empty_family(self):
        empty = Family(3, 3, 2, ())
        assert len(restrict_to_order(empty, IDENTITY_33)) == 0

    def test_r_one_restriction_is_identity(self):
        family = Family.build(3, 3, 1, [[[1, 2]], [[3, 1]], [[2, 2]]])
        assert restrict_to_order(family, IDENTITY_33) == family

    def test_context_mismatch_rejected(self):
        with pytest.raises(InputError):
            restrict_to_order(star_family(4, 4, 2, (1, 1)), IDENTITY_33)


class TestIntervalBound:
    def test_r_one_is_one(self):
        assert max_intersecting_intervals(IDENTITY_33, 1) == 1

    def test_all_orders_of_four_by_four(self):
        for order in enumerate_cyclic_orders(4, 4):
            assert max_intersecting_intervals(order, 2) == 2

    def test_six_by_six_identity(self):
        identity = CyclicOrder(tuple(range(1, 7)), tuple(range(1, 7)))
        assert max_intersecting_intervals(identity, 3) == 3

    def test_witness_is_valid(self):
        order = canonical_order((1, 4, 2, 3), (1, 3, 4, 2))
        witness = max_intersecting_intervals_witness(order, 2)
        assert len(witness) == 2
        assert all(interval_start(order, placement) is not None for placement in witness)
        assert set(witness[0]) & set(witness[1])

    def test_out_of_half_range_rejected(self):
        with pytest.raises(InputError):
            max_intersecting_intervals(IDENTITY_33, 2)


class TestOccurrences:
    def test_four_by_four_pairs(self):
        assert count_orders_containing(4, 4, ((1, 1), (2, 2))) == 8
        assert count_orders_containing(4, 4, ((2, 3), (4, 1))) == 8

    def test_singletons(self):
        assert count_orders_containing(3, 3, ((2, 2),)) == 4
        assert count_orders_containing(2, 2, ((1, 2),)) == 1

    def test_the_grid_is_checked_first(self):
        with pytest.raises(InputError, match=r"grid dimensions must be at least 1, got \(0, 3\)"):
            count_orders_containing(0, 3, [[1, 1]])

    def test_matches_closed_form_for_all_placements(self):
        for r in (1, 2):
            expected = interval_occurrence_count(4, 4, r)
            for placement in enumerate_placements(4, 4, r):
                assert count_orders_containing(4, 4, placement) == expected


class TestDoubleCount:
    def test_star_at_four_by_four(self):
        star = star_family(4, 4, 2, (1, 1))
        assert interval_double_count(star) == (72, 72)

    def test_empty_family(self):
        assert interval_double_count(Family(4, 4, 2, ())) == (0, 0)

    def test_single_member(self):
        family = Family.build(4, 4, 2, [[[1, 1], [2, 2]]])
        assert interval_double_count(family) == (8, 8)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_identity_for_random_intersecting_families(self, seed):
        family = random_intersecting_family(4, 4, 2, Random(seed))
        lhs, rhs = interval_double_count(family)
        assert lhs == rhs
        assert lhs <= 2 * cyclic_order_count(4, 4)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_identity_for_arbitrary_families(self, data):
        pool = enumerate_placements(3, 4, 2)
        members = data.draw(st.lists(st.sampled_from(pool), min_size=0, max_size=12))
        family = Family.build(3, 4, 2, members)
        lhs, rhs = interval_double_count(family)
        assert lhs == rhs

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_bound_composition_caps_intersecting_families(self, seed):
        # |F| * occurrences = lhs <= r * orders forces |F| <= star size
        from ekrcheck import rook_star_count

        family = random_intersecting_family(4, 4, 2, Random(seed))
        occurrences = interval_occurrence_count(4, 4, 2)
        orders = cyclic_order_count(4, 4)
        assert len(family) * occurrences <= 2 * orders
        assert len(family) <= rook_star_count(4, 4, 2)


class TestWindows:
    def test_identity_start_one(self):
        report = check_interval_windows(IDENTITY_44, 1, 1, 2)
        assert report.passed
        assert report.failure is None

    def test_full_sweep_four_by_four(self):
        for order in enumerate_cyclic_orders(4, 4):
            for i in range(1, 5):
                for j in range(1, 5):
                    assert check_interval_windows(order, i, j, 2).passed

    def test_r_one_is_vacuous(self):
        report = check_interval_windows(IDENTITY_44, 3, 2, 1)
        assert report.passed

    def test_half_range_enforced(self):
        with pytest.raises(InputError):
            check_interval_windows(IDENTITY_44, 1, 1, 3)
        with pytest.raises(InputError):
            first_window_failure(IDENTITY_44, 3)

    @pytest.mark.parametrize("n, m", [(4, 4), (4, 6), (5, 5), (6, 5)])
    def test_shared_work_gives_each_start_its_own_report(self, n, m, monkeypatch):
        # Past the half range some starts fail, so the failure reports are
        # compared too.
        monkeypatch.setattr(cycles, "_require_half_range", lambda order, r: None)
        starts = [(i, j) for i in range(1, n + 1) for j in range(1, m + 1)]
        rng = Random(n * m)
        orders = [reference_order(n, m)] + [
            canonical_order(rng.sample(range(1, n + 1), n), rng.sample(range(1, m + 1), m))
            for _ in range(2)
        ]
        failures = 0
        for order in orders:
            for r in range(1, min(n, m) + 1):
                shared = cycles._window_check(order, r)
                reports = [shared(i, j) for i, j in starts]
                assert [(report.passed, report.failure, report.witness) for report in reports] \
                    == [window_check_by_rebuild(order, i, j, r) for i, j in starts]
                assert reports == [check_interval_windows(order, i, j, r) for i, j in starts]
                failed = [report for report in reports if not report.passed]
                assert first_window_failure(order, r) == (failed[0] if failed else None)
                failures += len(failed)
        assert failures

    def test_every_start_passes_in_the_half_range(self):
        for n, m in [(4, 4), (5, 7), (6, 6)]:
            for r in range(1, min(n, m) // 2 + 1):
                assert first_window_failure(reference_order(n, m), r) is None


class TestRecords:
    def test_order_equality_and_hash(self):
        same = CyclicOrder((1, 2, 3), (1, 2, 3))
        assert same == IDENTITY_33 and hash(same) == hash(IDENTITY_33)
        assert IDENTITY_33 != CyclicOrder((1, 3, 2), (1, 2, 3))
        assert len({IDENTITY_33, same, IDENTITY_44}) == 2

    def test_order_is_immutable(self):
        with pytest.raises(AttributeError):
            IDENTITY_33.rows = (1, 3, 2)

    def test_order_copies_and_pickles(self):
        assert copy.deepcopy(IDENTITY_44) == pickle.loads(pickle.dumps(IDENTITY_44)) == IDENTITY_44

    def test_window_report_defaults(self):
        report = WindowReport(True, IDENTITY_44, (1, 1), 2)
        assert (report.failure, report.witness) == (None, None)
        assert report == check_interval_windows(IDENTITY_44, 1, 1, 2)


class TestOrderInvariance:
    """The labelled per-order path is the independent check of the sweeps
    that evaluate the reference order only, or walk the orders once."""

    @pytest.mark.parametrize("n, m", [(4, 4), (4, 5), (5, 5)])
    def test_every_order_agrees_with_the_reference_order(self, n, m):
        starts = [(i, j) for i in range(1, n + 1) for j in range(1, m + 1)]

        def outcomes(order, r):
            return [
                (report.passed, report.failure)
                for report in (check_interval_windows(order, i, j, r) for i, j in starts)
            ]

        reference = reference_order(n, m)
        assert reference == enumerate_cyclic_orders(n, m)[0]
        for r in range(1, min(n, m) // 2 + 1):
            expected_max = max_intersecting_intervals(reference, r)
            expected_windows = outcomes(reference, r)
            for order in enumerate_cyclic_orders(n, m):
                assert max_intersecting_intervals(order, r) == expected_max
                assert outcomes(order, r) == expected_windows

    @pytest.mark.parametrize("n, m, r", [(4, 4, 1), (4, 4, 2), (4, 5, 2)])
    def test_tally_matches_per_placement_counts(self, n, m, r):
        tally = interval_tally(n, m, r)
        for placement in enumerate_placements(n, m, r):
            assert tally[placement] == count_orders_containing(n, m, placement)

    @pytest.mark.parametrize("n, m, r", [(4, 4, 1), (4, 4, 2), (4, 5, 2)])
    def test_double_count_matches_per_order_restriction(self, n, m, r):
        orders = enumerate_cyclic_orders(n, m)
        families = [star_family(n, m, r, (1, 1)), star_family(n, m, r, (2, 3))]
        families += [random_intersecting_family(n, m, r, Random(seed)) for seed in range(3)]
        for family in families:
            lhs, _ = interval_double_count(family)
            assert lhs == sum(len(restrict_to_order(family, order)) for order in orders)


class TestFactoredTally:
    """interval_tally joins row and column window counts; the oracles walk
    the orders one at a time."""

    @pytest.mark.parametrize(
        "n, m", [(n, m) for n in range(1, 6) for m in range(1, 6)] + [(6, 6)]
    )
    def test_equals_the_order_by_order_tally(self, n, m):
        # Every r up to min(n, m), so also the starts that repeat beyond
        # min(n, m)/2; at 6x6 the oracle takes about a second per r.
        r_values = (2, 3) if (n, m) == (6, 6) else range(1, min(n, m) + 1)
        for r in r_values:
            assert interval_tally(n, m, r) == tally_by_order(n, m, r)

    @pytest.mark.parametrize("n, m, r", [(5, 5, 2), (4, 6, 2), (5, 6, 3), (4, 5, 3), (5, 5, 4)])
    def test_matches_count_orders_containing_on_sampled_placements(self, n, m, r):
        tally = interval_tally(n, m, r)
        placements = Random(n * 100 + m * 10 + r).sample(enumerate_placements(n, m, r), 4)
        for placement in placements:
            assert tally[placement] == count_orders_containing(n, m, placement)

    def test_r_out_of_range_is_an_input_error(self):
        with pytest.raises(InputError, match="r must be in 1..min"):
            interval_tally(4, 4, 0)

    def test_order_budget_is_checked(self):
        # 12! row and 12! column window steps: refused before any walk.
        with pytest.raises(ResourceLimitError, match="at least 958003344 window steps"):
            interval_tally(12, 12, 1)

    def test_every_grid_of_at_most_a_million_orders_passes_the_guard(self, monkeypatch):
        # The tally used to refuse more than 10^6 orders; its work guard
        # admits every grid under that bound.  Empty window counts leave only
        # the guard and the grouping of starts to run.
        from ekrcheck import cycles

        monkeypatch.setattr(cycles, "_window_tallies", lambda size, r: [Counter()] * size)
        grids = [(n, m) for n in range(1, 14) for m in range(1, 14)]
        for n, m in grids:
            if cyclic_order_count(n, m) <= 10**6:
                for r in range(1, min(n, m) + 1):
                    assert interval_tally(n, m, r) == Counter()

    def test_a_side_past_12_is_refused_with_a_short_count(self):
        with pytest.raises(ResourceLimitError, match="at least 479001613 window steps"):
            interval_tally(10**6, 1, 1)

    def test_families_of_one_context_share_one_tally(self, monkeypatch):
        from ekrcheck import cycles

        calls = []
        original = cycles.interval_tally

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cycles, "interval_tally", counted)
        families = [random_intersecting_family(4, 4, 2, Random(seed)) for seed in range(4)]
        families.append(star_family(4, 5, 2, (1, 1)))
        results = interval_double_counts(families)
        assert calls == [(4, 4, 2), (4, 5, 2)]
        assert results == [interval_double_count(family) for family in families]
