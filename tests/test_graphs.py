import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekrcheck import (
    SimpleGraph,
    binomial,
    cartesian_product,
    complete_graph,
    cycle_graph,
    empty_graph,
    enumerate_independent,
    independence_number,
    is_well_covered,
    lexicographic_product,
    load_graph,
    maximal_independent_sets,
    min_maximal_independent_size,
    path_graph,
    rook_placement_count,
    save_graph,
)
from ekrcheck.errors import InputError, ResourceLimitError
from helpers import independent_sets_by_subset_filter


def small_graphs(max_vertices=8):
    """Hypothesis strategy for arbitrary small graphs."""

    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_vertices))
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
        return SimpleGraph(n, chosen)

    return build()


class TestConstruction:
    def test_complete_graphs(self):
        assert complete_graph(3).edge_count == 3
        assert complete_graph(1).edge_count == 0
        assert complete_graph(5).edge_count == 10

    def test_empty_graphs(self):
        assert empty_graph(4).edge_count == 0
        assert empty_graph(1).vertex_count == 1
        assert len(enumerate_independent(empty_graph(6), 2)) == 15

    def test_path_and_cycle(self):
        assert path_graph(4).edges == ((1, 2), (2, 3), (3, 4))
        assert cycle_graph(4).edge_count == 4
        with pytest.raises(InputError):
            cycle_graph(2)

    def test_invalid_edges_rejected(self):
        with pytest.raises(InputError, match="edges\\[0\\]"):
            SimpleGraph(3, [(1, 1)])
        with pytest.raises(InputError, match="edges\\[1\\]"):
            SimpleGraph(3, [(1, 2), (2, 1)])
        with pytest.raises(InputError, match="edges\\[0\\]"):
            SimpleGraph(3, [(1, 4)])
        with pytest.raises(InputError):
            SimpleGraph(0)


class TestProducts:
    def test_k2_times_k2_is_the_four_cycle(self):
        g = cartesian_product(complete_graph(2), complete_graph(2))
        assert g.vertex_count == 4
        assert g.edge_count == 4
        assert g.degree_sequence() == (2, 2, 2, 2)

    def test_k1_is_identity_for_cartesian(self):
        h = cycle_graph(5)
        g = cartesian_product(complete_graph(1), h)
        assert g.edge_count == h.edge_count
        assert g.degree_sequence() == h.degree_sequence()

    def test_k3_times_k3(self):
        g = cartesian_product(complete_graph(3), complete_graph(3))
        assert g.vertex_count == 9
        assert g.edge_count == 18
        assert g.degree_sequence() == (4,) * 9

    def test_cartesian_edge_count_formula(self):
        for n in range(1, 7):
            for m in range(1, 7):
                g = cartesian_product(complete_graph(n), complete_graph(m))
                assert g.vertex_count == n * m
                assert g.edge_count == n * binomial(m, 2) + m * binomial(n, 2)

    def test_lexicographic_cases(self):
        two_edges = lexicographic_product(empty_graph(2), complete_graph(2))
        assert (two_edges.vertex_count, two_edges.edge_count) == (4, 2)
        k4 = lexicographic_product(complete_graph(2), complete_graph(2))
        assert k4.edge_count == 6
        h = path_graph(4)
        same = lexicographic_product(h, complete_graph(1))
        assert same.edge_count == h.edge_count
        assert same.degree_sequence() == h.degree_sequence()

    @pytest.mark.parametrize("g, h", [
        (path_graph(3), cycle_graph(4)),
        (cycle_graph(4), path_graph(3)),
        (empty_graph(2), complete_graph(3)),
        (complete_graph(3), empty_graph(2)),
    ])
    def test_products_match_their_definitions(self, g, h):
        """Both products against their edge rules over every pair of (a, x)
        vertices, with (a, x) numbered (a-1)*|V(H)|+x."""
        pairs = [(a, x) for a in range(1, g.vertex_count + 1) for x in range(1, h.vertex_count + 1)]

        def by_rule(rule) -> SimpleGraph:
            return SimpleGraph(len(pairs), [
                (i + 1, j + 1)
                for i in range(len(pairs)) for j in range(i + 1, len(pairs))
                if rule(*pairs[i], *pairs[j])
            ])

        def cartesian(a, x, b, y):
            return (a == b and h.has_edge(x, y)) or (x == y and g.has_edge(a, b))

        def lexicographic(a, x, b, y):
            return g.has_edge(a, b) or (a == b and h.has_edge(x, y))

        assert cartesian_product(g, h) == by_rule(cartesian)
        assert lexicographic_product(g, h) == by_rule(lexicographic)

    def test_vertex_budget(self):
        with pytest.raises(ResourceLimitError):
            cartesian_product(complete_graph(10), complete_graph(10), max_vertices=50)
        with pytest.raises(ResourceLimitError):
            lexicographic_product(complete_graph(10), complete_graph(10), max_vertices=50)


class TestIndependence:
    def test_opposite_vertices_of_c4(self):
        assert cycle_graph(4).is_independent((1, 3))

    def test_edge_endpoints_are_dependent(self):
        assert not path_graph(3).is_independent((1, 2))

    def test_empty_set_is_independent(self):
        assert complete_graph(4).is_independent(())

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            path_graph(3).is_independent((1, 9))


class TestEnumeration:
    def test_empty_graph_pairs(self):
        assert len(enumerate_independent(empty_graph(4), 2)) == 6

    def test_rook_grid_matches_placement_count(self):
        g = cartesian_product(complete_graph(3), complete_graph(3))
        assert len(enumerate_independent(g, 2)) == rook_placement_count(3, 3, 2)

    def test_complete_graph_has_no_pairs(self):
        assert enumerate_independent(complete_graph(5), 2) == []

    def test_r_zero_gives_one_empty_set(self):
        assert enumerate_independent(cycle_graph(4), 0) == [()]

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            enumerate_independent(empty_graph(12), 6, max_sets=10)

    @settings(max_examples=40, deadline=None)
    @given(small_graphs(), st.integers(0, 4))
    def test_lexicographic_and_duplicate_free(self, g, r):
        sets = enumerate_independent(g, r)
        assert sets == sorted(set(sets))
        assert all(list(s) == sorted(set(s)) for s in sets)

    @settings(max_examples=25, deadline=None)
    @given(small_graphs(max_vertices=7), st.integers(0, 7))
    def test_matches_subset_filter_oracle(self, g, r):
        assert enumerate_independent(g, r) == independent_sets_by_subset_filter(g, r)

    def test_total_count_matches_direct_enumeration(self):
        g = cartesian_product(complete_graph(4), complete_graph(4))
        alpha = independence_number(g)
        total = sum(len(enumerate_independent(g, r)) for r in range(alpha + 1))
        by_subsets = sum(
            len(independent_sets_by_subset_filter(g, r)) for r in range(g.vertex_count + 1)
        )
        assert total == by_subsets


class TestAlphaMu:
    def test_complete_graph(self):
        assert independence_number(complete_graph(5)) == 1
        assert min_maximal_independent_size(complete_graph(5)) == 1
        assert is_well_covered(complete_graph(5))

    def test_five_cycle(self):
        assert independence_number(cycle_graph(5)) == 2

    def test_rook_grid(self):
        g = cartesian_product(complete_graph(3), complete_graph(4))
        assert independence_number(g) == 3
        assert is_well_covered(cartesian_product(complete_graph(3), complete_graph(3)))

    def test_path_four(self):
        assert maximal_independent_sets(path_graph(4)) == [(1, 3), (1, 4), (2, 4)]
        assert min_maximal_independent_size(path_graph(4)) == 2

    def test_claw(self):
        claw = SimpleGraph(4, [(1, 2), (1, 3), (1, 4)])
        assert min_maximal_independent_size(claw) == 1
        assert independence_number(claw) == 3
        assert not is_well_covered(claw)

    @settings(max_examples=40, deadline=None)
    @given(small_graphs())
    def test_mu_never_exceeds_alpha(self, g):
        assert min_maximal_independent_size(g) <= independence_number(g)

    @settings(max_examples=30, deadline=None)
    @given(small_graphs(max_vertices=7))
    def test_every_maximal_set_is_maximal_and_independent(self, g):
        for s in maximal_independent_sets(g):
            assert g.is_independent(s)
            outside = set(range(1, g.vertex_count + 1)) - set(s)
            assert all(any(g.has_edge(v, w) for w in s) for v in outside)

    def test_the_loops_read_the_masks_without_the_checked_accessor(self, monkeypatch):
        g = cartesian_product(cycle_graph(4), cycle_graph(3))
        vertices = set(range(1, g.vertex_count + 1))
        independent = [
            s for r in range(g.vertex_count + 1) for s in independent_sets_by_subset_filter(g, r)
        ]
        maximal = [
            s for s in independent
            if all(any(g.has_edge(v, w) for w in s) for v in vertices - set(s))
        ]

        def refuse(self, v):
            raise AssertionError("adjacency_mask called")

        monkeypatch.setattr(SimpleGraph, "adjacency_mask", refuse)
        assert maximal_independent_sets(g) == sorted(maximal)
        assert enumerate_independent(g, 3) == [s for s in independent if len(s) == 3]

    def test_vertex_budget(self):
        big = empty_graph(25)
        with pytest.raises(ResourceLimitError):
            independence_number(big)
        assert independence_number(big, max_vertices=25) == 25


class TestJson:
    def test_round_trip(self, tmp_path):
        g = cartesian_product(complete_graph(3), complete_graph(4))
        path = tmp_path / "g.json"
        save_graph(g, str(path))
        assert load_graph(str(path)) == g

    def test_syntax_error_carries_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": 3,\n  "edges": [[1, 2],]}')
        with pytest.raises(InputError, match=r"bad\.json:2:"):
            load_graph(str(path))

    def test_schema_errors_are_index_precise(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({"vertices": 3, "edges": [[1, 2], [2, 1]]}))
        with pytest.raises(InputError, match=r"edges\[1\]"):
            load_graph(str(path))

    def test_missing_fields(self):
        from ekrcheck.graphs import graph_from_json_dict

        with pytest.raises(InputError, match="vertices"):
            graph_from_json_dict({"edges": []})
        with pytest.raises(InputError):
            graph_from_json_dict([1, 2])
