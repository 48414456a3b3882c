import copy
import json
import pickle
import time
from itertools import combinations, islice
from math import comb
from types import SimpleNamespace
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ekrcheck import (
    SearchBudget,
    cycles,
    rook,
    search,
    cartesian_product,
    complete_graph,
    cycle_graph,
    diagonal_intervals,
    empty_graph,
    enumerate_independent,
    enumerate_placements,
    graph_ekr_report,
    lexicographic_product,
    max_intersecting_family,
    min_maximal_independent_size,
    pairwise_intersecting,
    path_graph,
    rook_ekr_report,
    rook_placement_count,
    rook_star_count,
    star_family,
    twin_classes,
    CyclicOrder,
    Family,
    SimpleGraph,
)
from ekrcheck.errors import DEFAULT_SET_BUDGET, InputError, ResourceLimitError
from ekrcheck.cli import main
from helpers import (
    brute_force_max_intersecting, first_starts, one_orbit_by_walk, rook_orbit, rook_symmetries,
    twin_symmetries,
)


def brute_lex_min_max_family(sets):
    unique = sorted(set(sets))
    for size in range(len(unique), 0, -1):
        best = None
        for combo in combinations(unique, size):
            if all(set(a) & set(b) for a, b in combinations(combo, 2)):
                if best is None or combo < best:
                    best = combo
        if best is not None:
            return best
    return ()


class TestMaxIntersectingFamily:
    def test_rook_four_by_four(self):
        size, witness = max_intersecting_family(enumerate_placements(4, 4, 2))
        assert size == 9
        assert len(witness) == 9

    def test_classic_five_choose_two(self):
        size, _ = max_intersecting_family(enumerate_independent(empty_graph(5), 2))
        assert size == 4

    def test_two_disjoint_sets(self):
        size, witness = max_intersecting_family([((1, 1), (2, 2)), ((3, 3), (4, 4))])
        assert size == 1
        assert witness == (((1, 1), (2, 2)),)

    def test_empty_input(self):
        assert max_intersecting_family([]) == (0, ())

    def test_agrees_with_subfamily_scan(self):
        rng = Random(20240)
        for _ in range(30):
            n, m = rng.randint(2, 5), rng.randint(2, 5)
            r = rng.randint(1, min(n, m))
            pool = enumerate_placements(n, m, r)
            sample = rng.sample(pool, rng.randint(1, min(len(pool), 14)))
            size, witness = max_intersecting_family(sample)
            assert size == brute_force_max_intersecting(sample)
            assert len(witness) == size

    def test_witness_is_lexicographically_smallest(self):
        rng = Random(99)
        for _ in range(20):
            pool = enumerate_placements(3, 4, 2)
            sample = rng.sample(pool, rng.randint(1, 9))
            _, witness = max_intersecting_family(sample)
            assert witness == brute_lex_min_max_family(sample)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.frozensets(st.integers(1, 7), min_size=1, max_size=4).map(
                lambda members: tuple(sorted(members))
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_witness_on_mixed_sizes(self, sets):
        # Mixed member sizes make the compatibility graph non-regular, so the
        # witness search has to backtrack.
        size, witness = max_intersecting_family(sets)
        assert witness == brute_lex_min_max_family(sets)
        assert size == brute_force_max_intersecting(sets)

    def test_never_below_the_best_star(self):
        pool = enumerate_placements(5, 5, 2)
        size, _ = max_intersecting_family(pool)
        assert size >= rook_star_count(5, 5, 2)

    def test_deterministic_across_input_orderings(self):
        pool = enumerate_placements(4, 4, 2)
        expected = max_intersecting_family(pool)
        shuffled = pool[:]
        Random(5).shuffle(shuffled)
        assert max_intersecting_family(shuffled) == expected

    def test_node_budget_reports_bounds(self):
        # At 4x4 r=2 the root's coloring meets the star seed and the star is
        # the sorted prefix, so no node is searched and any budget answers.
        assert max_intersecting_family(
            enumerate_placements(4, 4, 2), SearchBudget(max_nodes=1)
        )[0] == 9
        with pytest.raises(ResourceLimitError) as info:
            max_intersecting_family(
                enumerate_placements(5, 5, 4), SearchBudget(max_nodes=1)
            )
        assert (info.value.lower_bound, info.value.upper_bound) == (96, 133)

    def test_a_witness_that_is_not_the_sorted_prefix(self, engines):
        # The first four sets are not intersecting, (1, 3) and (2, 4) being
        # disjoint, so the witness pass searches: it is the smallest family
        # of the four sets through 2.
        g = SimpleGraph(5, [(1, 4), (1, 5), (3, 4)])
        sets = enumerate_independent(g, 2)
        witness = ((1, 2), (2, 3), (2, 4), (2, 5))
        assert tuple(sets[:4]) != witness == brute_lex_min_max_family(sets)
        assert max_intersecting_family(sets) == (4, witness)
        assert graph_ekr_report(g, 2).witness == witness
        # The max phase closes at its root, and the witness pass needs four
        # nodes, so a budget of three exits in it with exact bounds.
        assert engines == [(7, 0), (7, 0)]
        with pytest.raises(ResourceLimitError) as info:
            max_intersecting_family(sets, SearchBudget(max_nodes=3))
        assert (info.value.lower_bound, info.value.upper_bound) == (4, 4)

    def test_clique_deeper_than_the_recursion_limit(self):
        sets = [(0, i) for i in range(1, 1101)]
        size, witness = max_intersecting_family(sets)
        assert size == 1100
        assert witness == tuple(sets)

    def test_time_budget(self):
        with pytest.raises(ResourceLimitError):
            max_intersecting_family(
                enumerate_placements(6, 6, 3), SearchBudget(max_seconds=0.0)
            )

    def test_time_budget_runs_from_when_the_budget_is_made(self):
        budget = SearchBudget(max_seconds=0.05)
        time.sleep(0.1)
        with pytest.raises(ResourceLimitError, match="0.05 seconds") as info:
            max_intersecting_family(enumerate_placements(5, 5, 4), budget)
        # Stopped at the first node: nothing beyond the seed star is known.
        assert info.value.lower_bound == 96


def expired_budget() -> SearchBudget:
    budget = SearchBudget(max_seconds=0.0)
    time.sleep(0.001)
    return budget


@pytest.fixture
def no_engine(monkeypatch):
    """Fail the test if a clique engine is built."""

    def refuse(*args, **kwargs):
        raise AssertionError("the clique engine was built")

    monkeypatch.setattr(search, "_CliqueEngine", refuse)


class TestClockBeforeTheFirstNode:
    """With 1,024 sets or more, an expired budget stops the search before
    its clique engine is built; smaller families that their sorted prefix
    does not answer reach the engine's first node, which reports bounds
    (TestMaxIntersectingFamily)."""

    def test_after_enumeration(self, engines):
        # 6x6 r4: its 5,400 placements, searched with their orbit and the
        # identity order's diagonal intervals.  The clock is read once the
        # sets are listed, before any engine, k_S's included, is built.
        placements = enumerate_placements(6, 6, 4)
        diagonals = diagonal_intervals(range(1, 7), range(1, 7), 4)
        with pytest.raises(ResourceLimitError) as info:
            max_intersecting_family(placements, expired_budget(), rook_orbit(6, 6, 4), diagonals)
        assert str(info.value) == "enumerating the sets exceeded 0.0 seconds"
        assert (info.value.lower_bound, info.value.upper_bound) == (None, None)
        assert engines == []

    def test_in_the_symmetry_check(self):
        unique = sorted(set(enumerate_placements(6, 6, 3)))
        with pytest.raises(ResourceLimitError) as info:
            search._fills_orbit(unique, rook_orbit(6, 6, 3), expired_budget())
        assert str(info.value) == "symmetry check exceeded 0.0 seconds"
        assert (info.value.lower_bound, info.value.upper_bound) == (None, None)

    def test_while_building_the_masks(self, no_engine):
        members = enumerate_placements(6, 6, 3)
        with pytest.raises(ResourceLimitError, match="^building the compatibility masks exceeded"):
            search._compatibility(members, expired_budget())

    def test_every_node_reads_the_clock(self, monkeypatch):
        # A clock that moves one second per reading: a 5 s budget runs out
        # within a handful of nodes, long before a 256th node.
        readings = iter(range(10**6))
        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: next(readings)))
        budget = SearchBudget(max_seconds=5)
        spent = []
        tick = search._CliqueEngine._tick

        def counted(engine):
            spent.append(engine._nodes)
            tick(engine)

        monkeypatch.setattr(search._CliqueEngine, "_tick", counted)
        with pytest.raises(ResourceLimitError, match="^clique search exceeded 5 seconds"):
            max_intersecting_family(enumerate_independent(empty_graph(9), 4), budget)
        assert len(spent) <= 6

    def test_a_live_budget_changes_nothing(self):
        sets, orbit = enumerate_placements(6, 6, 3), rook_orbit(6, 6, 3)
        assert max_intersecting_family(sets, SearchBudget(max_seconds=60), orbit) \
            == max_intersecting_family(sets, None, orbit)


class TestRookVerdicts:
    def test_four_by_four(self):
        report = rook_ekr_report(4, 4, 2)
        assert report.max_intersecting == 9
        assert report.best_star == 9
        assert report.verdict == "EKR_HOLDS"
        assert pairwise_intersecting(Family(4, 4, 2, report.witness))

    def test_singleton_case(self):
        report = rook_ekr_report(5, 7, 1)
        assert report.max_intersecting == report.best_star == 1
        assert report.verdict == "EKR_HOLDS"

    def test_out_of_range_is_qualified(self):
        report = rook_ekr_report(2, 3, 2)
        assert report.verdict == "OUT_OF_THEOREM_RANGE_HOLDS"
        assert report.holds

    def test_maximum_equals_star_throughout_the_half_range(self):
        for n in range(2, 6):
            for m in range(n, 6):
                for r in range(1, min(n, m) // 2 + 1):
                    report = rook_ekr_report(n, m, r)
                    assert report.max_intersecting == rook_star_count(n, m, r)
                    assert report.verdict == "EKR_HOLDS"

    def test_r_out_of_grid_rejected(self):
        with pytest.raises(InputError):
            rook_ekr_report(3, 3, 4)


class TestGraphVerdicts:
    def test_classic_ekr_on_empty_graph(self):
        report = graph_ekr_report(empty_graph(5), 2)
        assert report.max_intersecting == report.best_star == 4
        assert report.verdict == "EKR_HOLDS"

    def test_four_cycle_singletons(self):
        report = graph_ekr_report(cycle_graph(4), 1)
        assert report.max_intersecting == report.best_star == 1
        assert report.verdict == "EKR_HOLDS"

    def test_rook_grid_r_one(self):
        g = cartesian_product(complete_graph(3), complete_graph(3))
        assert graph_ekr_report(g, 1).verdict == "EKR_HOLDS"

    def test_out_of_range_failure_is_detected(self):
        # all 3-subsets of a 4-set pairwise intersect, beating every star
        report = graph_ekr_report(empty_graph(4), 3)
        assert report.max_intersecting == 4
        assert report.best_star == 3
        assert report.verdict == "OUT_OF_THEOREM_RANGE_FAILS"

    @pytest.mark.parametrize("n, m", [
        (n, m) for n in range(1, 25) for m in range(1, 25) if n * m <= 24
    ])
    def test_rook_and_graph_verdicts_agree_on_the_rook_graph(self, n, m):
        # Vertex v of K_n x K_m is the cell ((v-1)//m + 1, (v-1)%m + 1).  Both
        # reports certify their witness with pairwise_intersecting, the rook
        # one on cells and the graph one on vertices.
        g = cartesian_product(complete_graph(n), complete_graph(m))
        for r in range(1, min(n, m) + 1):
            rook, graph = rook_ekr_report(n, m, r), graph_ekr_report(g, r)
            assert (rook.max_intersecting, rook.best_star, rook.verdict) == (
                graph.max_intersecting, graph.best_star, graph.verdict
            )
            cells = tuple(
                tuple(((v - 1) // m + 1, (v - 1) % m + 1) for v in member)
                for member in graph.witness
            )
            assert cells == rook.witness


class TestLexProductCheck:
    """The ``lex`` command's implication, run in-process."""

    @staticmethod
    def lex(capsys, graph: str, k: int, r: int) -> dict:
        assert main(["lex", "--graph", graph, "--k", str(k), "--r", str(r), "--json"]) == 0
        return json.loads(capsys.readouterr().out)["result"]

    def test_two_disjoint_edges(self, capsys):
        result = self.lex(capsys, "E2", 2, 1)
        assert result["premise"]["max_intersecting"] <= result["premise"]["best_star"]
        assert result["conclusion"]["max_intersecting"] <= result["conclusion"]["best_star"]
        assert result["implication_violated"] is False

    def test_four_disjoint_edges(self, capsys):
        result = self.lex(capsys, "E4", 2, 2)
        assert result["premise"]["max_intersecting"] <= result["premise"]["best_star"]
        assert result["conclusion"]["max_intersecting"] <= result["conclusion"]["best_star"]
        assert result["conclusion"]["best_star"] == 6

    def test_k_one_reproduces_the_graph(self, capsys):
        result = self.lex(capsys, "P4", 1, 1)
        premise, conclusion = result["premise"], result["conclusion"]
        assert premise["max_intersecting"] == conclusion["max_intersecting"]
        assert premise["best_star"] == conclusion["best_star"]

    def test_returns_the_product_it_searched(self, capsys):
        parameters = self.lex(capsys, "P3", 2, 1)["conclusion"]["parameters"]
        product = lexicographic_product(path_graph(3), complete_graph(2))
        assert (parameters["vertices"], parameters["edge_count"]) == (
            product.vertex_count, product.edge_count
        )
        assert parameters["vertices"] == 6

    def test_witness_certificates(self, capsys):
        result = self.lex(capsys, "E3", 2, 1)
        for report in (result["premise"], result["conclusion"]):
            assert len(report["witness"]) == report["max_intersecting"]


@pytest.fixture
def engines(monkeypatch):
    """(vertices, nodes after the max phase) of every clique engine run."""
    runs = []
    original = search._CliqueEngine.max_clique_size

    def spy(self, initial_best, stop):
        size = original(self, initial_best, stop)
        runs.append((self._count, self._nodes))
        return size

    monkeypatch.setattr(search._CliqueEngine, "max_clique_size", spy)
    return runs


def reduced_runs(sets):
    """The vertex counts of the engines that a search of only the sets
    meeting the first builds: none when those sets all meet, since they are
    then the witness, and otherwise one on them."""
    unique = sorted(set(sets))
    reduced = [member for member in unique[1:] if set(member) & set(unique[0])]
    return [] if pairwise_intersecting(reduced) else [len(reduced)]


def runs(n, r):
    """The runs of r consecutive labels of the cycle 1..n."""
    return [tuple(sorted((start + t) % n + 1 for t in range(r))) for start in range(n)]


def complete_multipartite(parts):
    """The complete multipartite graph with parts of the given sizes."""
    part = [i for i, size in enumerate(parts) for _ in range(size)]
    return SimpleGraph(len(part), [
        (u + 1, v + 1) for u, v in combinations(range(len(part)), 2) if part[u] != part[v]
    ])


def small_graphs(max_vertices):
    return st.integers(1, max_vertices).flatmap(lambda k: st.sets(
        st.tuples(st.integers(1, k), st.integers(1, k)).filter(lambda e: e[0] < e[1])
    ).map(lambda edges: SimpleGraph(k, sorted(edges))))


def twin_rich_graphs():
    """Random graphs, and graphs made of twins: E_n, G[K_k] and complete
    multipartite graphs."""
    return st.one_of(
        small_graphs(9),
        st.integers(1, 10).map(empty_graph),
        st.tuples(small_graphs(4), st.integers(1, 3)).map(
            lambda case: lexicographic_product(case[0], complete_graph(case[1]))),
        st.lists(st.integers(1, 4), min_size=1, max_size=4).map(complete_multipartite),
    )


def assert_the_count_check_agrees_with_the_walk(sets, orbit, symmetries):
    """On two sets or more, the count check and the walk of the generators
    decide alike; on a single set, the walk has nothing to walk, and the
    count check's reduction changes no answer."""
    unique = sorted(set(sets))
    if len(unique) >= 2:
        assert search._fills_orbit(unique, orbit, SearchBudget()) == one_orbit_by_walk(
            unique, symmetries
        )
    else:
        assert max_intersecting_family(sets, orbit=orbit) == max_intersecting_family(sets)


class TestSymmetryReduction:
    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("m", range(1, 6))
    def test_rook_grids_agree_with_the_full_search(self, n, m, engines):
        for r in range(1, min(n, m) + 1):
            placements = enumerate_placements(n, m, r)
            engines.clear()
            reduced = max_intersecting_family(placements, orbit=rook_orbit(n, m, r))
            assert [vertices for vertices, _ in engines] == reduced_runs(placements)
            assert reduced == max_intersecting_family(placements)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_edgeless_graphs_agree_with_the_full_search(self, n, engines):
        g = empty_graph(n)
        for r in range(1, n + 1):
            sets = enumerate_independent(g, r)
            engines.clear()
            reduced = max_intersecting_family(sets, orbit=search._twin_orbit(g))
            assert [vertices for vertices, _ in engines] == reduced_runs(sets)
            assert reduced == max_intersecting_family(sets)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 5).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.sets(st.tuples(st.integers(1, k), st.integers(1, k)).filter(
                    lambda e: e[0] < e[1])),
                st.integers(1, k),
                st.integers(1, 3),
                st.booleans(),
                st.integers(1, 3),
            )
        )
    )
    def test_graphs_with_planted_twins_agree_with_the_full_search(self, case):
        k, edges, original, copies, closed, r = case
        edges = set(edges)
        neighbours = {u for edge in edges if original in edge for u in edge} - {original}
        for twin in range(k + 1, k + copies + 1):
            edges |= {(u, twin) for u in neighbours}
            if closed:
                edges |= {(u, twin) for u in [original, *range(k + 1, twin)]}
        g = SimpleGraph(k + copies, sorted(edges))
        assert any(original in twins for twins in twin_classes(g))
        sets = enumerate_independent(g, r)
        full = max_intersecting_family(sets)
        assert max_intersecting_family(sets, orbit=search._twin_orbit(g)) == full
        assert max_intersecting_family(
            sets, orbit=search._twin_orbit(g), structures=runs(g.vertex_count, r)
        ) == full

    @pytest.mark.parametrize("n, m", [
        (n, m) for n in range(1, 25) for m in range(1, 25) if n * m <= 24
    ])
    def test_the_count_check_agrees_with_the_walk_on_rook_grids(self, n, m):
        for r in range(1, min(n, m) + 1):
            placements = enumerate_placements(n, m, r)
            orbit = rook_orbit(n, m, r)
            assert_the_count_check_agrees_with_the_walk(placements, orbit, rook_symmetries(n, m))

    @settings(max_examples=200, deadline=None)
    @given(twin_rich_graphs(), st.integers(1, 4))
    def test_the_count_check_agrees_with_the_walk_on_graphs(self, g, r):
        sets = enumerate_independent(g, r)
        assert_the_count_check_agrees_with_the_walk(sets, search._twin_orbit(g), twin_symmetries(g))

    def test_a_member_whose_elements_do_not_increase_is_searched_unreduced(self, engines):
        # Every set carries the label of E3's 2-sets and there are C(3, 2)
        # of them, but (1, 1) repeats an element and so is no 2-set.
        # Trusted, the check would report 1, as (1, 1) meets no other set.
        sets = [(1, 1), (2, 2), (2, 3)]
        orbit = search._twin_orbit(empty_graph(3))
        assert not search._fills_orbit(sets, orbit, SearchBudget())
        assert max_intersecting_family(sets, orbit=orbit) == (2, ((2, 2), (2, 3)))
        assert engines[0][0] == 3
        # (1, 2) and (2, 1) are one set, so three tuples are two 2-sets.
        assert not search._fills_orbit([(1, 2), (1, 3), (2, 1)], orbit, SearchBudget())

    def test_a_set_without_the_first_sets_label_is_refused(self, engines):
        # Trusted, the check would report 1, as (1, 2) meets no other set.
        sets = [(1, 2), (3,), (3, 4)]
        by_size = (len, lambda label: 3)
        assert max_intersecting_family(sets, orbit=by_size) == (2, ((3,), (3, 4)))
        assert engines[0][0] == 3
        # Sets the proof does not cover are refused, though their count is
        # the orbit's: two attacking pairs, and a cell off the grid.
        pairs = [((1, 1), (1, 2)), ((2, 1), (2, 2))]
        assert not search._fills_orbit(pairs, rook_orbit(2, 2, 2), SearchBudget())
        off_grid = [((1, 1),), ((1, 2),), ((2, 1),), ((2, 3),)]
        assert not search._fills_orbit(off_grid, rook_orbit(2, 2, 1), SearchBudget())
        assert search._fills_orbit(off_grid[:3] + [((2, 2),)], rook_orbit(2, 2, 1),
                                   SearchBudget())
        # Nine 2-placements of the 3 x 3 grid are not its nine 1-placements.
        pairs = enumerate_placements(3, 3, 2)[:9]
        assert not search._fills_orbit(pairs, rook_orbit(3, 3, 1), SearchBudget())
        # Edges 13 and 23, and 4 alone: exchanging the twins 1 and 2 carries
        # (1, 3) onto (2, 3), but no permutation of a class carries it onto
        # (2, 4), which has the same count in the class.
        g = SimpleGraph(4, [(1, 3), (2, 3)])
        assert twin_classes(g) == [(1, 2)]
        assert search._fills_orbit([(1, 3), (2, 3)], search._twin_orbit(g), SearchBudget())
        assert not search._fills_orbit([(1, 3), (2, 4)], search._twin_orbit(g), SearchBudget())

    def test_a_family_short_of_its_orbit_is_refused(self, engines):
        # Three of the ten 2-sets of E5; trusted, the check would report 1.
        sets = [(1, 2), (3, 4), (3, 5)]
        assert max_intersecting_family(sets, orbit=search._twin_orbit(empty_graph(5))) == (
            2, ((3, 4), (3, 5))
        )
        assert engines[0][0] == 3

    def test_first_set_meeting_no_other(self, engines):
        report = rook_ekr_report(3, 3, 1)
        assert (report.max_intersecting, report.witness) == (1, (((1, 1),),))
        report = graph_ekr_report(empty_graph(5), 1)
        assert (report.max_intersecting, report.witness) == (1, ((1,),))
        # Each report searches its structures for the orbit bound; no set
        # meets the first, so the empty prefix answers without an engine.
        assert [vertices for vertices, _ in engines] == [9, 5]
        engines.clear()
        placements, g = enumerate_placements(3, 3, 1), empty_graph(5)
        assert max_intersecting_family(placements, orbit=rook_orbit(3, 3, 1))[0] == 1
        assert max_intersecting_family(enumerate_independent(g, 1),
                                       orbit=search._twin_orbit(g))[0] == 1
        assert engines == []

    def test_seven_by_seven_searches_the_first_placements_neighbourhood(self, engines):
        report = rook_ekr_report(7, 7, 3)
        assert report.max_intersecting == report.best_star == 450
        # The 49 diagonal intervals alone: the bound is the star, which is
        # the sorted prefix, so no engine is built on the 1,275 placements.
        assert engines == [(49, 8)]
        engines.clear()
        max_intersecting_family(enumerate_placements(7, 7, 3), orbit=rook_orbit(7, 7, 3))
        assert engines == [(1275, 7)]

    def test_full_search_node_counts(self, engines):
        assert max_intersecting_family(enumerate_placements(6, 6, 3))[0] == 200
        assert engines == [(2400, 377)]

    def test_nine_by_nine_r3(self, engines):
        report = rook_ekr_report(9, 9, 3)
        assert report.max_intersecting == report.best_star == 1568
        assert report.witness == star_family(9, 9, 3, (1, 1)).sets
        assert engines == [(81, 0)]
        engines.clear()
        max_intersecting_family(enumerate_placements(9, 9, 3), orbit=rook_orbit(9, 9, 3))
        assert engines == [(4557, 9)]


@pytest.fixture
def bounds(monkeypatch):
    """(S, value) of every orbit bound taken."""
    taken = []
    original = search._orbit_bound

    def spy(structures, size, budget=None):
        taken.append((structures, original(structures, size, budget)))
        return taken[-1][1]

    monkeypatch.setattr(search, "_orbit_bound", spy)
    return taken


class TestOrbitBound:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_edgeless_reports_match_the_unbounded_search(self, n, bounds, engines, monkeypatch):
        g = empty_graph(n)
        bounded = []
        for r in range(1, n + 1):
            engines.clear()
            bounded.append(graph_ekr_report(g, r))
            # In range, the one engine is k_S's, on the n runs; past half, the
            # runs meet pairwise and so do the sets, and no engine is built.
            assert [vertices for vertices, _ in engines] == ([n] if 2 * r <= n else [])
        values = [value for _, value in bounds]
        assert values[:n // 2] == [comb(n - 1, r - 1) for r in range(1, n // 2 + 1)]
        assert all(value >= report.max_intersecting for value, report in zip(values, bounded))
        monkeypatch.setattr(search, "_orbit_bound", lambda structures, size: None)
        assert bounded == [graph_ekr_report(g, r) for r in range(1, n + 1)]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_graph_runs_are_the_runs_of_the_cycle(self, n, monkeypatch):
        # The search is stubbed out, so only the structures it is given count.
        given = []

        def stub(sets, budget, orbit, structures):
            given.append(structures)
            return 0, ()

        monkeypatch.setattr(search, "max_intersecting_family", stub)
        for r in range(1, n + 1):
            graph_ekr_report(empty_graph(n), r)
        assert given == [runs(n, r) for r in range(1, n + 1)]

    @pytest.mark.parametrize("n, m", [
        (n, m) for n in range(1, 25) for m in range(1, 25) if n * m <= 24
    ])
    def test_rook_grids_agree_with_the_search_without_structures(self, n, m, bounds, engines):
        order = cycles.reference_order(n, m)
        for r in range(1, min(n, m) + 1):
            bounds.clear()
            engines.clear()
            report = rook_ekr_report(n, m, r)
            # One bound per union the rule tries, the identity order's first;
            # the last is the star.  The one engine of each is k_S's, on its
            # union, unless the union meets pairwise.
            values = [value for _, value in bounds]
            assert values[-1] == report.best_star < min(values[:-1], default=report.best_star + 1)
            assert [vertices for vertices, _ in engines] == [
                len(structures) for structures, _ in bounds
                if not pairwise_intersecting(structures)
            ]
            if 2 * r <= min(n, m):
                assert [vertices for vertices, _ in engines] == [n * m]
            placements = enumerate_placements(n, m, r)
            assert (report.max_intersecting, report.witness) == max_intersecting_family(
                placements, orbit=rook_orbit(n, m, r)
            )
            assert bounds[0][0] == sorted(first_starts(order, r))
            assert all(set(structures) <= set(placements) for structures, _ in bounds)
            assert all(value >= report.max_intersecting for value in values)

    def test_the_max_phase_stops_at_the_root(self):
        # Searched directly, E10 at r=4: the 194 sets that meet the first,
        # with the bound less the first set.  A seed that meets the bound
        # closes the max phase without a node; the unbounded search takes
        # 306 (TestRenumberedColoring).
        unique = sorted(enumerate_independent(empty_graph(10), 4))
        members = [member for member in unique[1:] if set(member) & set(unique[0])]
        engine = search._CliqueEngine(search._compatibility(members, SearchBudget()), SearchBudget())
        assert engine.max_clique_size(83, search._orbit_bound(runs(10, 4), len(unique)) - 1) == 83
        assert engine._nodes == 0

    def test_the_bound_is_rounded_down(self):
        # Three disjoint sets, k_S = 1, in an orbit of 10: 10/3 rounds to 3.
        assert search._orbit_bound([(1, 2), (3, 4), (5, 6)], 10) == 3

    def test_a_bound_below_the_seed_raises(self, monkeypatch):
        monkeypatch.setattr(search, "_orbit_bound", lambda structures, size: comb(7, 2) - 1)
        with pytest.raises(RuntimeError, match="below an attained clique"):
            graph_ekr_report(empty_graph(8), 3)

    def test_no_bound_without_a_checked_symmetry(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the orbit bound was taken")

        monkeypatch.setattr(search, "_orbit_bound", refuse)
        # C8 has no twins, so there is no symmetry to check.
        graph_ekr_report(cycle_graph(8), 3)
        # (3,) lacks the first set's label, so the check fails; trusted, the
        # two disjoint structures would bound the family by 3 // 2 = 1.
        sets = [(1, 2), (3,), (3, 4)]
        assert max_intersecting_family(
            sets, orbit=(len, lambda label: 3), structures=[(1, 2), (3,)]
        ) == (2, ((3,), (3, 4)))

    def test_a_structure_outside_the_family_is_dropped(self, bounds):
        unique = sorted(enumerate_independent(empty_graph(8), 3))
        assert search._orbit_bound(runs(8, 3), len(unique)) == comb(7, 2)
        # Trusted, a ninth structure, or a run counted twice, would lower the
        # bound to 3 * 56 // 9 = 18, below the star of 21.
        orbit = search._twin_orbit(empty_graph(8))
        for structures in (runs(8, 3) + [(9, 10, 11)], runs(8, 3) * 2):
            bounds.clear()
            assert max_intersecting_family(unique, orbit=orbit, structures=structures) \
                == max_intersecting_family(unique)
            assert bounds == [(sorted(runs(8, 3)), comb(7, 2))]
        bounds.clear()
        max_intersecting_family(unique, orbit=orbit, structures=[(9, 10, 11)])
        assert bounds == []

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 10).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.sets(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)).filter(
                    lambda e: e[0] < e[1])),
                st.integers(0, k),
            )
        )
    )
    def test_a_true_bound_keeps_the_maximum(self, case):
        k, edges, slack = case
        adjacency = [0] * k
        for u, v in edges:
            adjacency[u] |= 1 << v
            adjacency[v] |= 1 << u
        exact = search._CliqueEngine(adjacency, SearchBudget())
        size = exact.max_clique_size(min(k, 1), k)
        bounded = search._CliqueEngine(adjacency, SearchBudget())
        assert bounded.max_clique_size(min(k, 1), min(size + slack, k)) == size
        assert bounded._nodes <= exact._nodes


class TestStarAnswer:
    @pytest.mark.parametrize("n, m", [
        (n, m) for n in range(1, 25) for m in range(1, 25) if n * m <= 24
    ])
    def test_reports_equal_the_unreduced_search(self, n, m, bounds, monkeypatch):
        # The search of every placement, with no orbit and no structures;
        # the report never lists them.
        listed = []
        original = rook.enumerate_placements

        def counted(*args):
            listed.append(args)
            return original(*args)

        monkeypatch.setattr(rook, "enumerate_placements", counted)
        for r in range(1, min(n, m) + 1):
            bounds.clear()
            report = rook_ekr_report(n, m, r)
            full = max_intersecting_family(enumerate_placements(n, m, r))
            assert (report.max_intersecting, report.witness) == full
            assert report.best_star == rook_star_count(n, m, r) == bounds[-1][1]
        assert listed == []


# The twelve squares whose identity order's bound exceeds the star, and
# the union of the rule that closes each: its index among the unions of
# search._union_orders(n, n), where the identity order alone is index 0,
# and the orders drawn with the identity order, each (rows, cols) as its
# labels in order.
CLOSING_UNIONS = {
    (3, 2): (1, [("132", "123")]),
    (4, 3): (3, [("1324", "1432")]),
    (5, 3): (4, [("15324", "15432")]),
    (5, 4): (3, [("13524", "14325")]),
    (6, 4): (10, [("163254", "156432")]),
    (6, 5): (10, [("163254", "156432")]),
    (7, 4): (9, [("1765432", "1542376")]),
    (7, 5): (32, [("1725364", "1263754"), ("1526473", "1247563"), ("1743256", "1256437"),
                  ("1345672", "1534276")]),
    (7, 6): (44, [("1423765", "1463257"), ("1745263", "1257346"), ("1745326", "1543726"),
                  ("1276354", "1562347"), ("1526437", "1267534")]),
    (8, 5): (31, [("15486372", "18357426"), ("12387564", "13642785"),
                  ("15827436", "14753682"), ("12834765", "13258467")]),
    (8, 6): (34, [("18264375", "15372846"), ("16738425", "18543672"),
                  ("16284357", "12367458"), ("16427835", "18475263")]),
    (8, 7): (22, [("16287435", "14675382"), ("18273546", "12546378"),
                  ("12376548", "12573684")]),
}


def closing_orders(n, r):
    """The (rows, cols) orders of the union that closes the n x n square at
    r: the identity order, then the drawn ones of CLOSING_UNIONS."""
    identity = (tuple(range(1, n + 1)),) * 2
    _, drawn = CLOSING_UNIONS[n, r]
    return [identity, *((tuple(map(int, rows)), tuple(map(int, cols))) for rows, cols in drawn)]


class TestUnionBound:
    @pytest.mark.parametrize("n, r", sorted(CLOSING_UNIONS))
    def test_the_pinned_orders_are_the_rules_and_bound_the_family_by_the_star(self, n, r):
        index, drawn = CLOSING_UNIONS[n, r]
        orders = closing_orders(n, r)
        assert list(islice(search._union_orders(n, n), index + 1))[-1] == orders
        # t orders: index 0 holds the identity alone, then ten unions per t.
        assert (index - 1) // search.DRAWS_PER_UNION + 2 == len(orders)
        union = {d for rows, cols in orders for d in diagonal_intervals(rows, cols, r)}
        assert search._orbit_bound(sorted(union), rook_placement_count(n, n, r)) \
            == rook_star_count(n, n, r)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_no_grid_within_the_set_budget_lists_placements(self, n, bounds, monkeypatch):
        # The identity order closes every grid with n <= m <= 12 but the
        # twelve squares, which close at their pinned union.
        def refuse(*args):
            raise AssertionError("the placements were listed")

        monkeypatch.setattr(rook, "enumerate_placements", refuse)
        for m in range(n, 13):
            for r in range(1, n + 1):
                if rook_placement_count(n, m, r) > DEFAULT_SET_BUDGET:
                    continue
                bounds.clear()
                report = rook_ekr_report(n, m, r)
                assert report.max_intersecting == report.best_star
                index = CLOSING_UNIONS[n, r][0] if (n == m and (n, r) in CLOSING_UNIONS) else 0
                assert len(bounds) == index + 1

    def test_a_later_union_reads_the_clock_in_its_k_s_search(self, monkeypatch):
        # One second per reading: the budget is made at 0 (deadline 2) and
        # the report starts at 1.  3x3 at r = 2 closes at its second union;
        # the identity order's k_S reads no clock, the check before the
        # second union reads 2, within the budget, and its k_S search's
        # first node reads 3.
        readings = iter(range(10**6))
        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: next(readings)))
        budget = SearchBudget(max_seconds=2)
        with pytest.raises(ResourceLimitError, match="^the union bound exceeded 2 seconds$") as exc:
            rook_ekr_report(3, 3, 2, budget)
        # The star and the identity order's bound, never k_S's own bounds.
        assert (exc.value.lower_bound, exc.value.upper_bound) == (4, 6)
        assert str(exc.value.__context__) == "clique search exceeded 2 seconds"

    def test_a_later_union_exit_keeps_the_family_bounds(self):
        # The node budget reaches k_S of the second union, not the identity's.
        with pytest.raises(ResourceLimitError, match="^clique search exceeded 1 nodes$") as exc:
            rook_ekr_report(3, 3, 2, SearchBudget(max_nodes=1))
        assert (exc.value.lower_bound, exc.value.upper_bound) == (4, 6)

    def test_a_live_budget_changes_nothing(self):
        for n, r in sorted(CLOSING_UNIONS)[:4]:
            assert rook_ekr_report(n, n, r, SearchBudget(max_seconds=60)) \
                == rook_ekr_report(n, n, r)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_squares_up_to_five_equal_the_search_of_every_placement(self, n):
        # 5x5 at r = 3 and 4 lie outside the n*m <= 24 cross-checks.
        for r in range(1, n + 1):
            report = rook_ekr_report(n, n, r)
            placements = enumerate_placements(n, n, r)
            found = max_intersecting_family(placements, orbit=rook_orbit(n, n, r))
            assert (report.max_intersecting, report.witness) == found


def bits(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


class TestCompleteFamilies:
    """A family whose searched members all meet is its own witness: the
    sorted prefix of all of them answers, and no engine is built."""

    @pytest.mark.parametrize("members, size, searched", [
        ([()], 1, []),
        ([(), (1,)], 1, [2]),
        ([(1, 2), (2, 3), (1, 3)], 3, []),
        ([(1, 2), (2, 3), (3, 4)], 2, [3]),
        ([(0, i) for i in range(1, 70)], 69, []),
    ])
    def test_only_a_family_that_does_not_meet_is_searched(self, members, size, searched, engines):
        assert max_intersecting_family(members) == (size, brute_lex_min_max_family(members))
        assert [vertices for vertices, _ in engines] == searched

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(1, 6), max_size=4).map(tuple), max_size=8))
    def test_rows_match_a_pair_scan(self, members):
        # Empty sets and repeated elements included.
        adjacency = search._compatibility(members, SearchBudget())
        for i, member in enumerate(members):
            assert adjacency[i] == sum(
                1 << j for j, other in enumerate(members) if j != i and set(member) & set(other)
            )

    @pytest.mark.parametrize("n, r", [(10, 6), (12, 7)])
    def test_edgeless_graphs_past_half(self, n, r, no_engine):
        # Every r-subset of [n] meets every other once 2r > n; the family
        # beats the star.  Neither the report nor the search of the sets
        # that meet the first builds an engine.
        report = graph_ekr_report(empty_graph(n), r)
        assert (report.max_intersecting, report.best_star) == (comb(n, r), comb(n - 1, r - 1))
        assert report.verdict == "OUT_OF_THEOREM_RANGE_FAILS"
        assert report.witness == tuple(combinations(range(1, n + 1), r))
        g = empty_graph(n)
        assert max_intersecting_family(
            enumerate_independent(g, r), orbit=search._twin_orbit(g)
        ) == (report.max_intersecting, report.witness)


class TestRenumberedColoring:
    # The graphs are searched here without the structures that
    # graph_ekr_report gives them, so the counts still pin the engine.

    @pytest.mark.parametrize("n, vertices, nodes", [(9, 120, 854), (10, 194, 306)])
    def test_edgeless_graphs_at_n_equal_2r_plus_1(self, n, vertices, nodes, engines):
        # The plain greedy bound took 278,557 (E9) and 4,143 (E10) nodes.
        g = empty_graph(n)
        size, _ = max_intersecting_family(enumerate_independent(g, 4),
                                          orbit=search._twin_orbit(g))
        assert size == comb(n - 1, 3)
        assert engines == [(vertices, nodes)]

    def test_edgeless_max_phase_node_counts(self, engines):
        g = empty_graph(10)
        for r in range(1, 6):
            max_intersecting_family(enumerate_independent(g, r), orbit=search._twin_orbit(g))
        # At r=1 no set meets the first, so no engine is built.
        assert engines == [(16, 0), (84, 13), (194, 306), (250, 0)]

    @pytest.mark.parametrize("g, runs", [
        (cartesian_product(cycle_graph(4), cycle_graph(6)), [(24, 0), (228, 30), (1112, 166)]),
        (cartesian_product(path_graph(4), cycle_graph(5)), [(20, 0), (155, 21), (600, 77)]),
    ], ids=["C4xC6", "P4xC5"])
    def test_sweep_max_phase_node_counts(self, g, runs, engines):
        # Deterministic, so an engine change can quote exact before and after.
        # The sets are those of an ht run: r = 1..mu/2.
        for r in range(1, min_maximal_independent_size(g) // 2 + 1):
            max_intersecting_family(enumerate_independent(g, r))
        assert engines == runs

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 12).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.sets(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)).filter(
                    lambda e: e[0] < e[1])),
                st.integers(0, (1 << k) - 1),
                st.integers(0, 6),
            )
        )
    )
    # Here Re-NUMBER puts a leftover vertex straight into a class, after an
    # earlier move took its neighbours out; random cases seldom reach that.
    @example((9, {
        (0, 1), (0, 2), (0, 5), (0, 6), (0, 7), (0, 8), (1, 3), (1, 4), (1, 6), (1, 7), (1, 8),
        (2, 3), (2, 5), (2, 8), (3, 7), (3, 8), (4, 5), (4, 6), (4, 7), (4, 8), (5, 6), (5, 7),
        (5, 8), (6, 8), (7, 8),
    }, (1 << 9) - 1, 3))
    def test_every_candidate_gets_one_class_and_classes_are_independent(self, case):
        k, edges, candidates, k_min = case
        adjacency = [0] * k
        for u, v in edges:
            adjacency[u] |= 1 << v
            adjacency[v] |= 1 << u
        engine = search._CliqueEngine(adjacency, SearchBudget())
        classes = engine._color(candidates, k_min)
        listed = engine._branch_order(candidates, k_min)
        colors = [color for _, color in listed]
        assert colors == sorted(colors)
        assert all(color > k_min for color in colors)
        # Each candidate is listed above k_min or sits in a class <= k_min.
        placed = [v for members in classes[:k_min] for v in bits(members)]
        assert sorted(placed + [v for v, _ in listed]) == bits(candidates)
        for members in classes:
            assert members
            assert all(not adjacency[v] & members for v in bits(members))


class TestRecords:
    def report(self, elapsed: float) -> search.EkrReport:
        return search.EkrReport({"kind": "rook"}, 9, 9, "EKR_HOLDS", ((1,),), elapsed)

    def test_report_equality_ignores_elapsed(self):
        assert self.report(1.0) == self.report(2.0)
        assert self.report(1.0) != search.EkrReport({"kind": "rook"}, 9, 9, "EKR_FAILS", ((1,),))
        assert self.report(0.5).elapsed == 0.5

    def test_report_is_immutable(self):
        with pytest.raises(AttributeError):
            self.report(0.0).verdict = "EKR_FAILS"

    def test_report_copies_and_pickles(self):
        report = self.report(0.25)
        for twin in (copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
            assert (twin, twin.elapsed) == (report, 0.25)

    def test_report_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(self.report(0.0))
        with pytest.raises(TypeError):
            hash(rook_ekr_report(3, 3, 1))

    def test_reprs_name_every_field(self):
        assert repr(self.report(0.5)) == (
            "EkrReport(parameters={'kind': 'rook'}, max_intersecting=9, best_star=9, "
            "verdict='EKR_HOLDS', witness=((1,),), elapsed=0.5)"
        )
        assert repr(CyclicOrder((1, 2), (1, 3, 2))) == "CyclicOrder(rows=(1, 2), cols=(1, 3, 2))"
        assert repr(Family(2, 2, 1, (((1, 1),),))) == "Family(n=2, m=2, r=1, sets=(((1, 1),),))"
        assert repr(path_graph(3)) == "SimpleGraph(vertices=3, edges=2)"

    def test_graph_is_an_immutable_record_of_its_edges(self):
        g = path_graph(3)
        with pytest.raises(AttributeError):
            g._edges = ()
        twins = (copy.deepcopy(g), pickle.loads(pickle.dumps(g)), path_graph(3))
        assert all(twin == g and hash(twin) == hash(g) for twin in twins)
        assert twins[1].adjacency_mask(2) == g.adjacency_mask(2)
        assert g != cycle_graph(3) and g != empty_graph(3)

    def test_budget_compares_its_limits_and_is_unhashable(self):
        assert SearchBudget(5, 1.0) == SearchBudget(max_nodes=5, max_seconds=1.0)
        assert SearchBudget(5) != SearchBudget(6)
        assert SearchBudget().deadline is None
        with pytest.raises(TypeError):
            hash(SearchBudget())
        budget = SearchBudget(5, 60.0)
        with pytest.raises(AttributeError):
            budget.max_nodes = 6
        for twin in (copy.copy(budget), pickle.loads(pickle.dumps(budget))):
            assert twin == budget and twin.deadline >= budget.deadline
