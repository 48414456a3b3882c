import copy
import json
import pickle
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekrcheck import (
    Family,
    canonical_placement,
    cartesian_product,
    complete_graph,
    enumerate_independent,
    enumerate_placements,
    is_intersecting,
    load_family,
    pairwise_intersecting,
    placements_intersect,
    random_intersecting_family,
    random_placement,
    rook_placement_count,
    row_projection,
    save_family,
    star_family,
)
from ekrcheck.errors import InputError, ResourceLimitError
from helpers import placements_by_cell_filter


def placements(n=4, m=4, r=2):
    pool = enumerate_placements(n, m, r)
    return st.sampled_from(pool)


class TestCanonicalPlacement:
    def test_sorts_by_row(self):
        assert canonical_placement([(3, 1), (1, 2)], 4, 4) == ((1, 2), (3, 1))

    def test_rejects_repeated_row(self):
        with pytest.raises(InputError, match="row 2"):
            canonical_placement([(2, 1), (2, 3)], 4, 4)

    def test_rejects_repeated_column(self):
        with pytest.raises(InputError, match="column 3"):
            canonical_placement([(1, 3), (2, 3)], 4, 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError, match="outside"):
            canonical_placement([(5, 1)], 4, 4)


class TestEnumeratePlacements:
    def test_two_by_two_hand_enumeration(self):
        assert enumerate_placements(2, 2, 2) == [
            ((1, 1), (2, 2)),
            ((1, 2), (2, 1)),
        ]

    def test_three_by_three_pairs(self):
        assert len(enumerate_placements(3, 3, 2)) == rook_placement_count(3, 3, 2) == 18

    def test_r_zero_gives_one_empty_placement(self):
        assert enumerate_placements(5, 7, 0) == [()]

    def test_r_beyond_grid_is_empty(self):
        assert enumerate_placements(2, 3, 4) == []

    def test_lexicographic_and_duplicate_free(self):
        for n, m, r in [(3, 3, 2), (4, 3, 3), (2, 5, 2)]:
            sets = enumerate_placements(n, m, r)
            assert sets == sorted(set(sets))

    def test_matches_cell_subset_oracle(self):
        for n in range(1, 5):
            for m in range(1, 5):
                for r in range(0, min(n, m) + 1):
                    assert enumerate_placements(n, m, r) == placements_by_cell_filter(n, m, r)

    def test_matches_graph_route(self):
        # same sets through the product-graph path, translated back to cells
        for n in range(2, 6):
            for m in range(n, 6):
                for r in range(1, min(n, m) + 1):
                    g = cartesian_product(complete_graph(n), complete_graph(m))
                    translated = {
                        tuple(sorted(((v - 1) // m + 1, (v - 1) % m + 1) for v in vertex_set))
                        for vertex_set in enumerate_independent(g, r)
                    }
                    assert translated == set(enumerate_placements(n, m, r))

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            enumerate_placements(8, 8, 4, max_sets=100)


class TestStarFamily:
    def test_four_by_four(self):
        family = star_family(4, 4, 2, (1, 1))
        assert len(family) == 9
        assert all((1, 1) in placement for placement in family)

    def test_r_one_is_just_the_center(self):
        assert star_family(5, 6, 1, (2, 3)).sets == (((2, 3),),)

    def test_rectangular(self):
        assert len(star_family(3, 4, 2, (2, 2))) == 6

    def test_every_star_is_intersecting(self):
        for center in [(1, 1), (2, 3), (4, 4)]:
            assert is_intersecting(star_family(4, 4, 2, center))

    def test_star_members_agree_with_filter(self):
        family = star_family(3, 4, 2, (2, 2))
        expected = [p for p in enumerate_placements(3, 4, 2) if (2, 2) in p]
        assert list(family.sets) == expected

    def test_out_of_range_center(self):
        with pytest.raises(InputError):
            star_family(3, 3, 2, (4, 1))


class TestIntersection:
    def test_disjoint_diagonals(self):
        family = Family.build(2, 2, 2, [[[1, 1], [2, 2]], [[1, 2], [2, 1]]])
        assert not is_intersecting(family)

    def test_singleton_family(self):
        assert is_intersecting(Family.build(3, 3, 2, [[[1, 1], [2, 2]]]))

    def test_pairwise_intersecting_edge_cases(self):
        assert pairwise_intersecting([])
        # A lone member has no pair to miss, even when it is empty.
        assert pairwise_intersecting([()])
        assert not pairwise_intersecting([(), ()])
        assert not pairwise_intersecting([((1, 1), (2, 2)), ((1, 2), (2, 1))])
        assert pairwise_intersecting(iter([(1, 2), (2, 3), (3, 1)]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.frozensets(st.integers(1, 6), max_size=3), max_size=8))
    def test_pairwise_intersecting_matches_a_pair_scan(self, members):
        expected = all(a & b for a, b in combinations(members, 2))
        assert pairwise_intersecting(members) == expected

    def test_row_projection(self):
        assert row_projection(((1, 3), (2, 1))) == {1, 2}
        assert row_projection(((4, 2),)) == {4}

    @settings(max_examples=60, deadline=None)
    @given(placements(), placements())
    def test_intersection_forces_row_overlap(self, a, b):
        if placements_intersect(a, b):
            assert row_projection(a) & row_projection(b)

    @settings(max_examples=60, deadline=None)
    @given(placements(4, 5, 3))
    def test_projection_size_equals_placement_size(self, a):
        assert len(row_projection(a)) == len(a)


class TestFamily:
    def test_build_deduplicates_and_sorts(self):
        family = Family.build(3, 3, 2, [[[2, 2], [1, 1]], [[1, 1], [2, 2]]])
        assert family.sets == (((1, 1), (2, 2)),)

    def test_wrong_size_member_rejected(self):
        with pytest.raises(InputError, match=r"sets\[1\]"):
            Family.build(3, 3, 2, [[[1, 1], [2, 2]], [[1, 1]]])

    def test_bad_member_is_index_precise(self):
        with pytest.raises(InputError, match=r"sets\[0\]: row 1"):
            Family.build(3, 3, 2, [[[1, 1], [1, 2]]])

    def test_json_round_trip(self, tmp_path):
        family = star_family(4, 4, 2, (2, 2))
        path = tmp_path / "family.json"
        save_family(family, str(path))
        assert load_family(str(path)) == family

    def test_json_reader_canonicalizes(self, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"n": 3, "m": 3, "r": 2, "sets": [[[2, 2], [1, 1]]]}))
        assert load_family(str(path)).sets == (((1, 1), (2, 2)),)

    def test_json_reader_rejects_bad_sets(self, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"n": 3, "m": 3, "r": 2, "sets": [[[1, 1], [1, 2]]]}))
        with pytest.raises(InputError, match=r"sets\[0\]"):
            load_family(str(path))

    def test_json_reader_rejects_missing_context(self, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"n": 3, "m": 3, "sets": []}))
        with pytest.raises(InputError, match='"r"'):
            load_family(str(path))


class TestFamilyRecord:
    def test_equality_and_hash(self):
        a = Family.build(3, 3, 1, [[(1, 1)], [(2, 2)]])
        b = Family(3, 3, 1, (((1, 1),), ((2, 2),)))
        assert a == b and hash(a) == hash(b)
        assert a != Family(3, 3, 1, (((1, 1),),))
        assert a != Family(3, 4, 1, b.sets)

    def test_immutable(self):
        family = Family(2, 2, 1, ())
        with pytest.raises(AttributeError):
            family.sets = (((1, 1),),)

    def test_copies_and_pickles(self):
        family = Family.build(3, 3, 2, [[(1, 1), (2, 2)]])
        assert copy.deepcopy(family) == pickle.loads(pickle.dumps(family)) == family


class TestRandomFamilies:
    def test_deterministic_for_a_seed(self):
        one = random_intersecting_family(4, 4, 2, Random(7))
        two = random_intersecting_family(4, 4, 2, Random(7))
        assert one == two

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_always_intersecting(self, seed):
        family = random_intersecting_family(4, 4, 2, Random(seed))
        assert len(family) >= 1
        assert is_intersecting(family)

    def test_random_placement_is_valid(self):
        rng = Random(3)
        for _ in range(50):
            placement = random_placement(5, 6, 3, rng)
            assert canonical_placement(placement, 5, 6) == placement

    def test_random_placement_checks_the_grid_first(self):
        with pytest.raises(InputError, match=r"grid dimensions must be at least 1, got \(0, 3\)"):
            random_placement(0, 3, 1, Random(0))
