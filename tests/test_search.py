import copy
import pickle
import time
from itertools import combinations
from math import comb
from types import SimpleNamespace
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekrcheck import (
    SearchBudget,
    search,
    cartesian_product,
    complete_graph,
    cycle_graph,
    empty_graph,
    enumerate_independent,
    enumerate_placements,
    graph_ekr_report,
    holroyd_talbot_sweep,
    lex_product_check,
    max_intersecting_family,
    pairwise_intersecting,
    path_graph,
    rook_ekr_report,
    rook_star_count,
    rook_symmetries,
    star_family,
    twin_classes,
    twin_symmetries,
    CyclicOrder,
    Family,
    SimpleGraph,
)
from ekrcheck.errors import InputError, ResourceLimitError
from helpers import brute_force_max_intersecting, transitive_symmetries_by_sorting


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
        with pytest.raises(ResourceLimitError) as info:
            max_intersecting_family(
                enumerate_placements(4, 4, 2), SearchBudget(max_nodes=1)
            )
        assert info.value.lower_bound >= 9
        assert info.value.upper_bound >= info.value.lower_bound

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
            max_intersecting_family(enumerate_placements(4, 4, 2), budget)
        # Stopped at the first node: nothing beyond the seed star is known.
        assert info.value.lower_bound == 9


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
    its clique engine is built; smaller families reach the engine's first
    node, which reports bounds (TestMaxIntersectingFamily)."""

    def test_after_enumeration(self, no_engine):
        with pytest.raises(ResourceLimitError) as info:
            rook_ekr_report(6, 6, 3, expired_budget())
        assert str(info.value) == "enumerating the sets exceeded 0.0 seconds"
        assert (info.value.lower_bound, info.value.upper_bound) == (None, None)

    def test_in_the_symmetry_check(self):
        unique = sorted(set(enumerate_placements(6, 6, 3)))
        with pytest.raises(ResourceLimitError, match="^symmetry check exceeded"):
            search._transitive_symmetries(unique, rook_symmetries(6, 6), expired_budget())

    def test_while_building_the_masks(self, no_engine):
        members = enumerate_placements(6, 6, 3)
        with pytest.raises(ResourceLimitError, match="^building the compatibility masks exceeded"):
            search._lex_smallest_maximum(members, expired_budget())

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
        sets = enumerate_placements(6, 6, 3)
        assert max_intersecting_family(sets, SearchBudget(max_seconds=60), rook_symmetries(6, 6)) \
            == max_intersecting_family(sets, None, rook_symmetries(6, 6))


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
        assert not report.in_theorem_range
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


class TestHolroydTalbotSweep:
    def test_claw_has_empty_range(self):
        claw = SimpleGraph(4, [(1, 2), (1, 3), (1, 4)])
        assert holroyd_talbot_sweep(claw) == []

    def test_rook_four_by_four(self):
        g = cartesian_product(complete_graph(4), complete_graph(4))
        reports = holroyd_talbot_sweep(g)
        assert [report.parameters["r"] for report in reports] == [1, 2]
        assert all(report.verdict == "EKR_HOLDS" for report in reports)

    def test_four_cycle(self):
        reports = holroyd_talbot_sweep(cycle_graph(4))
        assert len(reports) == 1
        assert reports[0].verdict == "EKR_HOLDS"


class TestLexProductCheck:
    def test_two_disjoint_edges(self):
        outcome = lex_product_check(empty_graph(2), 2, 1)
        assert outcome.premise.holds and outcome.conclusion.holds
        assert not outcome.violation

    def test_four_disjoint_edges(self):
        outcome = lex_product_check(empty_graph(4), 2, 2)
        assert outcome.premise.holds
        assert outcome.conclusion.holds
        assert outcome.conclusion.best_star == 6

    def test_k_one_reproduces_the_graph(self):
        outcome = lex_product_check(path_graph(4), 1, 1)
        assert outcome.premise.max_intersecting == outcome.conclusion.max_intersecting
        assert outcome.premise.best_star == outcome.conclusion.best_star

    def test_witness_certificates(self):
        outcome = lex_product_check(empty_graph(3), 2, 1)
        for report in (outcome.premise, outcome.conclusion):
            assert len(report.witness) == report.max_intersecting


@pytest.fixture
def engines(monkeypatch):
    """(vertices, nodes after the max phase) of every clique engine run."""
    runs = []
    original = search._CliqueEngine.max_clique_size

    def spy(self, initial_best=0, upper_bound=None):
        size = original(self, initial_best, upper_bound)
        runs.append((self._count, self._nodes))
        return size

    monkeypatch.setattr(search._CliqueEngine, "max_clique_size", spy)
    return runs


def reduced_vertices(sets, symmetries):
    """Vertices of the engine that searches only the sets meeting the first;
    with no permutations the whole family is searched."""
    unique = sorted(set(sets))
    if not symmetries:
        return len(unique)
    return sum(1 for member in unique[1:] if set(member) & set(unique[0]))


class TestSymmetryReduction:
    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("m", range(1, 6))
    def test_rook_grids_agree_with_the_full_search(self, n, m, engines):
        for r in range(1, min(n, m) + 1):
            placements = enumerate_placements(n, m, r)
            symmetries = rook_symmetries(n, m)
            engines.clear()
            reduced = max_intersecting_family(placements, symmetries=symmetries)
            assert engines[0][0] == reduced_vertices(placements, symmetries)
            assert reduced == max_intersecting_family(placements)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_edgeless_graphs_agree_with_the_full_search(self, n, engines):
        g = empty_graph(n)
        for r in range(1, n + 1):
            sets = enumerate_independent(g, r)
            symmetries = twin_symmetries(g)
            engines.clear()
            reduced = max_intersecting_family(sets, symmetries=symmetries)
            assert engines[0][0] == reduced_vertices(sets, symmetries)
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
        assert max_intersecting_family(sets, symmetries=twin_symmetries(g)) == (
            max_intersecting_family(sets)
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 5), max_size=3), min_size=1, max_size=8),
        st.lists(st.permutations(range(7)), max_size=3),
        st.lists(st.dictionaries(st.integers(0, 6), st.integers(0, 6), max_size=4), max_size=2),
        st.booleans(),
    )
    def test_the_check_agrees_with_sorted_keys(self, members, perms, maps, close):
        symmetries = [dict(enumerate(perm)) for perm in perms]
        family = {tuple(member) for member in members}
        if close:
            # The orbit of the first set under bijections, which the check
            # accepts unless an element repeats.
            family = {tuple(sorted(members[0]))}
            frontier = list(family)
            while frontier:
                member = frontier.pop()
                for perm in symmetries:
                    image = tuple(sorted(perm[element] for element in member))
                    if image not in family:
                        family.add(image)
                        frontier.append(image)
        else:
            symmetries += maps
        unique = sorted(family)
        assert search._transitive_symmetries(unique, symmetries, SearchBudget()) == (
            transitive_symmetries_by_sorting(unique, symmetries)
        )

    def test_a_set_with_a_repeated_element_is_searched_unreduced(self, engines):
        sets = [(1, 1), (2, 2)]
        swap = {1: 2, 2: 1}
        assert not search._transitive_symmetries(sets, [swap], SearchBudget())
        assert max_intersecting_family(sets, symmetries=[swap]) == (1, ((1, 1),))
        assert engines[0][0] == 2

    def test_a_map_that_is_not_a_bijection_is_refused(self, engines):
        # It sends every set into the family and reaches all three from the
        # first, which meets no other set; trusted, it would report 1.
        sets = [(1, 2), (3,), (3, 4)]
        squeeze = {1: 3, 2: 4, 3: 3, 4: 3}
        assert max_intersecting_family(sets, symmetries=[squeeze]) == (2, ((3,), (3, 4)))
        assert engines[0][0] == 3

    def test_a_map_out_of_the_family_is_refused(self, engines):
        # Following only the images inside the family, the two bijections
        # reach all three sets from (1, 2), which meets no other set.
        sets = [(1, 2), (3, 4), (3, 5)]
        swap, shift = {1: 3, 3: 1, 2: 4, 4: 2}, {4: 5, 5: 4}
        assert max_intersecting_family(sets, symmetries=[swap, shift]) == (
            2, ((3, 4), (3, 5))
        )
        assert engines[0][0] == 3

    def test_first_set_meeting_no_other(self, engines):
        report = rook_ekr_report(3, 3, 1)
        assert (report.max_intersecting, report.witness) == (1, (((1, 1),),))
        report = graph_ekr_report(empty_graph(5), 1)
        assert (report.max_intersecting, report.witness) == (1, ((1,),))
        # Between them, the cycle certificate's search of E5's 5 intervals.
        assert [vertices for vertices, _ in engines] == [0, 5, 0]

    def test_seven_by_seven_searches_the_first_placements_neighbourhood(self, engines):
        report = rook_ekr_report(7, 7, 3)
        assert report.max_intersecting == report.best_star == 450
        assert engines == [(1275, 7)]

    def test_full_search_node_counts(self, engines):
        assert max_intersecting_family(enumerate_placements(6, 6, 3))[0] == 200
        assert engines == [(2400, 377)]

    def test_nine_by_nine_r3(self, engines):
        report = rook_ekr_report(9, 9, 3)
        assert report.max_intersecting == report.best_star == 1568
        assert report.witness == star_family(9, 9, 3, (1, 1)).sets
        assert engines == [(4557, 9)]


class TestCycleCertificate:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_edgeless_reports_match_the_unbounded_search(self, n, monkeypatch):
        g = empty_graph(n)
        bounded = [graph_ekr_report(g, r) for r in range(1, n // 2 + 1)]
        for r in range(1, n // 2 + 1):
            assert search._cycle_bound(n, r, enumerate_independent(g, r)) == comb(n - 1, r - 1)
        monkeypatch.setattr(search, "_cycle_bound", lambda n, r, sets: None)
        assert bounded == [graph_ekr_report(g, r) for r in range(1, n // 2 + 1)]

    def test_the_max_phase_stops_at_the_root(self, engines):
        report = graph_ekr_report(empty_graph(10), 4)
        assert report.max_intersecting == report.best_star == 84
        # The 10 intervals of the identity order, then no node on 194 sets.
        assert engines[1:] == [(194, 0)]
        assert engines[0][0] == 10

    def test_a_bound_below_the_seed_raises(self, monkeypatch):
        monkeypatch.setattr(search, "_cycle_bound", lambda n, r, sets: comb(n - 1, r - 1) - 1)
        with pytest.raises(RuntimeError, match="below an attained clique"):
            graph_ekr_report(empty_graph(8), 3)

    @pytest.mark.parametrize("g, r", [
        (empty_graph(4), 3), (cycle_graph(8), 3), (complete_graph(3), 1),
    ], ids=["E4 r3", "C8 r3", "K3 r1"])
    def test_no_bound_without_the_theorem(self, g, r, monkeypatch):
        # Fewer than 2r vertices, or an edge: the search runs unbounded.
        def refuse(*args):
            raise AssertionError("the cycle bound was computed")

        monkeypatch.setattr(search, "_cycle_bound", refuse)
        graph_ekr_report(g, r)

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
        size = exact.max_clique_size(min(k, 1))
        bounded = search._CliqueEngine(adjacency, SearchBudget())
        assert bounded.max_clique_size(min(k, 1), min(size + slack, k)) == size
        assert bounded._nodes <= exact._nodes


def bits(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


class TestRenumberedColoring:
    # The edgeless graphs are searched here without the cycle certificate,
    # which graph_ekr_report gives them, so the counts still pin the engine.

    @pytest.mark.parametrize("n, vertices, nodes", [(9, 120, 854), (10, 194, 306)])
    def test_edgeless_graphs_at_n_equal_2r_plus_1(self, n, vertices, nodes, engines):
        # The plain greedy bound took 278,557 (E9) and 4,143 (E10) nodes.
        g = empty_graph(n)
        size, _ = max_intersecting_family(enumerate_independent(g, 4),
                                          symmetries=twin_symmetries(g))
        assert size == comb(n - 1, 3)
        assert engines == [(vertices, nodes)]

    def test_edgeless_max_phase_node_counts(self, engines):
        g = empty_graph(10)
        for r in range(1, 6):
            max_intersecting_family(enumerate_independent(g, r), symmetries=twin_symmetries(g))
        assert engines == [(0, 0), (16, 0), (84, 13), (194, 306), (250, 0)]

    @pytest.mark.parametrize("g, runs", [
        (cartesian_product(cycle_graph(4), cycle_graph(6)), [(24, 0), (228, 30), (1112, 166)]),
        (cartesian_product(path_graph(4), cycle_graph(5)), [(20, 0), (155, 21), (600, 77)]),
    ], ids=["C4xC6", "P4xC5"])
    def test_sweep_max_phase_node_counts(self, g, runs, engines):
        # Deterministic, so an engine change can quote exact before and after.
        holroyd_talbot_sweep(g)
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

    def test_lex_result_fields(self):
        premise, conclusion = self.report(0.0), search.EkrReport({}, 3, 2, "EKR_FAILS", ())
        result = search.LexCheckResult(premise=premise, conclusion=conclusion)
        assert (result.premise, result.conclusion, result.violation) == (premise, conclusion, True)
