import hashlib
import json
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from oddcolor import (
    SolveBudget,
    UnsupportedDensityError,
    classify_small,
    color_auto,
    color_cycle_graph,
    color_eps,
    color_five,
    color_forest,
    color_six,
    cycle_chi,
    eps_reduction_records,
    five_reduction_records,
    gen_complete,
    gen_cycle,
    gen_cycle_with_leaves,
    gen_kstar,
    gen_path,
    gen_star,
    is_odd_coloring,
    kstar_coloring,
    mad_at_most,
    mad_below,
    mad_exact,
    six_reduction_records,
    subdivide,
)
from oddcolor import Graph, constructive, graph, sparsity

import util


def assert_valid(g, result):
    ok, violations = is_odd_coloring(g, result.colors)
    assert ok, violations[:3]
    assert result.k_used <= result.bound


ENGINES = (("five", constructive._FIVE), ("six", constructive._SIX))


def reduces(g, rules):
    """Whether the engine's reduction reaches the empty graph."""
    try:
        constructive._reduce_all(g, rules)
    except constructive.ReductionExhaustedError:
        return False
    return True


def band_bound(band, mad):
    """The color bound the paper gives to a graph of this mad in this band."""
    if band == "eps":
        return math.floor(8 / (4 - mad)) + 2
    return {"five": 5, "six": 6}.get(band, math.inf)


class TestColorForest:
    def test_path_four_is_tight(self):
        result = color_forest(gen_path(4))
        assert_valid(gen_path(4), result)
        assert result.k_used == 3 == util.brute_force_odd_chromatic(gen_path(4))

    def test_single_vertex(self):
        result = color_forest(Graph(1, []))
        assert result.k_used == 1

    def test_star(self):
        g = gen_star(5)
        result = color_forest(g)
        assert_valid(g, result)

    def test_random_forests(self):
        rng = random.Random(73)
        for _ in range(150):
            g = util.random_forest(rng, rng.randint(1, 200))
            result = color_forest(g)
            assert_valid(g, result)
            assert result.bound == 3 and result.strategy == "forest"

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            color_forest(gen_cycle(3))


class TestColorCycle:
    @pytest.mark.parametrize("n", range(3, 31))
    def test_patterns(self, n):
        result = color_cycle_graph(gen_cycle(n))
        assert_valid(gen_cycle(n), result)
        assert result.k_used == result.bound == cycle_chi(n)

    def test_known_patterns(self):
        assert color_cycle_graph(gen_cycle(6)).colors == (1, 2, 3, 1, 2, 3)
        assert color_cycle_graph(gen_cycle(5)).colors == (1, 2, 3, 4, 5)
        assert color_cycle_graph(gen_cycle(7)).colors == (1, 2, 3, 4, 1, 2, 3)

    def test_too_short(self):
        with pytest.raises(ValueError):
            color_cycle_graph(gen_cycle(2))

    def test_relabelled_cycle_graph(self):
        rng = random.Random(79)
        for _ in range(180):
            n = rng.randint(3, 60)
            perm = list(range(n))
            rng.shuffle(perm)
            g = util.relabel(gen_cycle(n), perm)
            result = color_cycle_graph(g)
            assert_valid(g, result)
            assert result.k_used == cycle_chi(n)

    def test_non_cycle_rejected(self):
        with pytest.raises(ValueError):
            color_cycle_graph(gen_path(4))


class TestClassifySmall:
    def test_edgeless(self):
        result = classify_small(Graph(5, []))
        assert result.k_used == 1 and result.colors == (1,) * 5

    def test_two_colorable(self):
        result = classify_small(gen_complete(2))
        assert result.k_used == 2

    def test_positive_even_degree_blocks_two(self):
        assert classify_small(gen_cycle(4)) is None

    def test_agrees_with_brute_force(self):
        rng = random.Random(83)
        for _ in range(120):
            n = rng.randint(1, 6)
            g = util.random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
            truth = util.brute_force_odd_chromatic(g)
            result = classify_small(g)
            if truth <= 2:
                assert result is not None and result.k_used == truth
                assert_valid(g, result)
            else:
                assert result is None


class TestFinders:
    def test_six_engine_examples(self):
        rec = six_reduction_records(gen_cycle(4))[0]
        assert rec.kind == "adjacent-2" and rec.deleted == (0, 1)

        rec = six_reduction_records(gen_star(3))[0]
        assert rec.kind == "leaf" and rec.deleted == (1,)

        rec = six_reduction_records(gen_kstar(6))[0]
        assert rec.kind == "5v-five-2nbrs"
        assert rec.deleted[0] == 0 and len(rec.deleted) == 6

    def test_five_engine_examples(self):
        rec = five_reduction_records(gen_cycle(7))[0]
        assert rec.kind == "adjacent-2"

        rec = five_reduction_records(gen_kstar(5))[0]
        assert rec.kind == "4v-weak" and rec.deleted[0] == 0

        rec = five_reduction_records(gen_path(2))[0]
        assert rec.kind == "leaf"

    # Graphs where a rule's lowest center starts matching only through a
    # neighbour whose degree fell, after its heap already dropped the center.
    # The hubs (4 and 5, or 5 and 6) have too few 2-neighbors to be centers
    # until the end.
    WOKEN = {
        # 12's deletion drops x = 4, two steps from v = 0, to degree 2:
        # adjacent-4v at 0 and its partner 1
        "x-two-steps-away": (Graph(22, [
            (0, 1), (0, 7), (0, 8), (0, 9), (7, 5), (8, 5), (9, 5),
            (1, 10), (1, 11), (1, 4), (10, 6), (11, 6),
            (4, 5), (4, 12), (12, 2),
            (2, 3), (2, 13), (2, 14), (13, 6), (14, 6),
            (3, 15), (3, 16), (3, 17), (15, 6), (16, 6), (17, 6),
            (18, 5), (18, 6), (19, 5), (19, 6), (20, 5), (20, 6), (21, 5), (21, 6),
        ]), [("adjacent-4v", (2, 3)), ("adjacent-4v", (0, 1))]),
        # 12's deletion drops the partner 1 of v = 0 from degree 5 to 4
        "partner-to-four": (Graph(22, [
            (0, 1), (0, 6), (0, 7), (0, 8), (6, 4), (7, 4), (8, 4),
            (1, 9), (1, 10), (1, 11), (9, 5), (10, 5), (11, 5), (1, 12), (12, 2),
            (2, 3), (2, 13), (2, 14), (13, 5), (14, 5),
            (3, 15), (3, 16), (3, 17), (15, 5), (16, 5), (17, 5),
            (18, 4), (18, 5), (19, 4), (19, 5), (20, 4), (20, 5), (21, 4), (21, 5),
        ]), [("adjacent-4v", (2, 3)), ("adjacent-4v", (0, 1))]),
        # 9's deletion drops the neighbour 1 of v = 0 from degree 4 to 3
        "weak-neighbour": (Graph(13, [
            (0, 6), (6, 4), (0, 7), (7, 4), (0, 8), (8, 5), (0, 1),
            (1, 9), (1, 4), (1, 5),
            (9, 2), (2, 10), (10, 5), (2, 11), (11, 4), (2, 3),
            (3, 4), (3, 5), (12, 4), (12, 5),
        ]), [("4v-weak", (2, 9)), ("4v-weak", (0, 6))]),
    }

    @pytest.mark.parametrize("name", WOKEN)
    def test_centers_woken_by_a_falling_neighbour(self, name):
        g, first_two = self.WOKEN[name]
        records = five_reduction_records(g)
        assert [(r.kind, r.deleted[:2]) for r in records[:2]] == first_two
        assert records == util.reduction_records_by_scan(g, constructive._FIVE)

    def test_record_structural_invariants(self):
        # every vertex is deleted once, by all three engines: a leaf queued
        # at degree 1 and again at degree 0 is recorded once
        rng = random.Random(89)
        graphs = util.certified_graphs(
            rng, 40, lambda g: mad_below(g, 3), (4, 22), (0.8, 1.4),
            extra=[gen_kstar(6), gen_cycle_with_leaves(9, (2, 1, 0)), gen_kstar(5),
                   util.ADJACENT_4V_GRAPH],
        )
        runs = []
        for g in graphs:
            runs += [(g, six_reduction_records(g)), (g, eps_reduction_records(g, 1))]
            if mad_below(g, Fraction(20, 7)):
                runs.append((g, five_reduction_records(g)))
        assert len(runs) >= 2 * len(graphs) + 10  # the five engine's band holds ten or more
        # every star 2-neighbour has exactly one survivor, its anchor in the
        # replay
        for g, records in runs:
            seen: set[int] = set()
            for rec, front in zip(records, util.frontiers(g, records)):
                assert not seen.intersection(rec.deleted)
                seen.update(rec.deleted)
                if rec.kind != "adjacent-4v":
                    assert all(len(front[w]) == 1 for w in rec.deleted[1:])
            assert seen == set(range(g.n))
            assert len(records) <= g.n

    def test_records_are_hashable(self):
        # a record is a tuple of ints and strings, so a sequence is a dict key
        g = util.ADJACENT_4V_GRAPH
        records = tuple(five_reduction_records(g))
        assert hash(records) == hash(tuple(five_reduction_records(g)))

    def test_delete_refuses_a_dead_vertex(self):
        st = constructive._Reducer(gen_path(3), ())
        st.delete((1,))
        assert st.deg == [0, 2, 0] and st.remaining == 2  # a dead vertex keeps its degree
        with pytest.raises(RuntimeError, match="vertex 1 deleted twice"):
            st.delete((1,))
        with pytest.raises(RuntimeError, match="vertex 0 deleted twice"):
            constructive._Reducer(gen_path(3), ()).delete((0, 0))


class TestRuleLifeCycle:
    # every row fills its heap from the live graph when first() first
    # reaches it; a row that matches nowhere returns None, and only the loop
    # raises ReductionExhaustedError

    def test_leaves_come_first_and_once(self):
        # a leaf is the first record while one is alive, before any rule
        assert constructive._Reducer(gen_path(3), constructive._FIVE).first() == (
            constructive.ReductionRecord("leaf", (0,)))
        # leaf 2 of a star is queued at degree 1, and again at 0 once the
        # center goes; the dead entry left behind is skipped
        st = constructive._Reducer(gen_star(2), constructive._FIVE)
        taken = []
        while st.remaining:
            rec = st.first()
            taken.append(rec)
            st.delete(rec.deleted)
        assert [(r.kind, r.deleted) for r in taken] == [("leaf", (1,)), ("leaf", (0,)), ("leaf", (2,))]
        assert st.leaves == [2] and st.first() is None

    def test_rows_fill_on_first_reach(self):
        st = constructive._Reducer(gen_cycle(7), constructive._FIVE)
        assert all(not last for _, _, last in st.slots)
        rec = st.first()
        assert rec.kind == "adjacent-2" and rec.deleted[0] == 0
        assert st.slots[0][2] and all(not last for _, _, last in st.slots[1:])

    def test_eps_star_returns_none_above_its_bound(self):
        # every vertex of K5 has degree 4 and no 2-neighbour: charge 4 > 3
        rules, _ = constructive._eps_engine(Fraction(1))
        st = constructive._Reducer(gen_complete(5), ())
        assert rules[-1].match(st, 0) is None
        with pytest.raises(constructive.ReductionExhaustedError):
            eps_reduction_records(gen_complete(5), 1)

    def test_keyed_row_stops_at_its_least_key(self, monkeypatch):
        # every center of 200 disjoint K5s has charge 4 > 3: one scan per
        # key, then one match at the least key, which fails, and every later
        # center, of no smaller key, is left unmatched
        calls = []
        two = constructive._two_neighbors
        monkeypatch.setattr(
            constructive, "_two_neighbors", lambda st, v: calls.append(v) or two(st, v)
        )
        with pytest.raises(constructive.ReductionExhaustedError):
            eps_reduction_records(util.disjoint_union(*[gen_complete(5)] * 200), 1)
        assert len(calls) == 1001

    def test_tiny_eps_lists_no_degree_of_its_star(self):
        # at eps = 10**-12 the eps star's degrees run to 8 * 10**12: the
        # tables are sized by a row's last degree, and the reduction only
        # ever asks whether a degree is a row's
        class Unlisted:
            def __init__(self, degrees):
                self.degrees = degrees

            def __contains__(self, d):
                return d in self.degrees

            def __len__(self):
                return len(self.degrees)

            def __getitem__(self, i):
                return self.degrees[i]

            def __iter__(self):
                raise AssertionError("a row's degrees were listed")

        g = gen_kstar(5)
        rules, k = constructive._eps_engine(Fraction(1, 10**12))
        rules = tuple(rule._replace(degrees=Unlisted(rule.degrees)) for rule in rules)
        st = constructive._Reducer(g, rules)
        assert len(st.own) == 5 and st.own[4]
        assert constructive._reduce_all(g, rules) == eps_reduction_records(g, Fraction(1, 10**12))
        assert color_eps(g, Fraction(1, 10**12)).bound == k == 8 * 10**12 + 2

    def test_degree_tables_sized_by_the_rows(self):
        # one hub of degree 2 * 10**5: a list of its own for every degree up
        # to the maximum, in own and in each near table, took 58.9 MiB; the
        # degrees above every row's centers share one empty list
        g = gen_star(2 * 10**5)
        tracemalloc.start()
        try:
            st = constructive._Reducer(g, constructive._FIVE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        assert st.own[5] == [] and len(st.own) == g.n


class TestColorSix:
    def test_kstar_six_needs_all_six(self):
        g = gen_kstar(6)
        result = color_six(g)
        assert_valid(g, result)
        assert result.k_used == 6

    def test_trees(self):
        rng = random.Random(97)
        for _ in range(20):
            g = util.random_forest(rng, rng.randint(1, 60))
            result = color_six(g)
            assert_valid(g, result)

    def test_random_certified(self):
        rng = random.Random(101)
        for g in util.certified_graphs(rng, 80, lambda g: mad_below(g, 3),
                                       (4, 26), (0.8, 1.45)):
            assert_valid(g, color_six(g))

    def test_precondition(self):
        with pytest.raises(ValueError, match="mad"):
            color_six(gen_complete(4))


class TestColorFive:
    def test_kstar_five_needs_all_five(self):
        g = gen_kstar(5)
        result = color_five(g)
        assert_valid(g, result)
        assert result.k_used == 5

    def test_seven_cycle(self):
        result = color_five(gen_cycle(7))
        assert_valid(gen_cycle(7), result)
        assert result.k_used <= 5

    def test_random_certified(self):
        rng = random.Random(103)
        for g in util.certified_graphs(rng, 80, lambda g: mad_below(g, Fraction(20, 7)),
                                       (4, 26), (0.7, 1.4)):
            assert_valid(g, color_five(g))

    def test_precondition(self):
        with pytest.raises(ValueError, match="mad"):
            color_five(gen_kstar(7))

    # the 3v-weak-pair guard decides these colorings.  First: center 0
    # keeps 1 and 2, both of degree 3, so it guards neither; guarding 1, whose
    # one colored neighbour gives it one odd color, would give 0 color 4.
    # Second: center 1 keeps only 9, of degree 3, and guards it as its one
    # survivor
    GUARDED = {
        "degree-3 pair": (Graph(6, [(0, 1), (0, 2), (0, 4), (1, 3), (1, 4), (2, 3), (2, 5),
                                    (3, 5)]),
                          ("3v-weak-pair", (0, 4)), (3, 1, 2, 3, 2, 1)),
        "one survivor": (Graph(10, [(0, 1), (0, 2), (0, 9), (1, 8), (1, 9), (3, 4), (3, 8),
                                    (4, 9), (5, 6), (5, 7), (5, 8), (6, 7), (6, 9)]),
                         ("3v-weak-pair", (1, 0, 8)), (2, 4, 1, 2, 4, 2, 3, 1, 3, 1)),
    }

    @pytest.mark.parametrize("name", GUARDED)
    def test_weak_pair_guard_pins_the_coloring(self, name):
        g, record, colors = self.GUARDED[name]
        records = five_reduction_records(g)
        assert record in [(r.kind, r.deleted) for r in records]
        assert color_five(g).colors == colors
        assert util.replay_by_sets(g, records, 5) == list(colors)

    def test_replay_guard_is_util_guards(self):
        # a 3v-weak-pair center protects its colored neighbours whose degree
        # at the deletion, their colored neighbours as _paint counted them
        # plus those deleted with the center, is 4 or more (or its one
        # colored neighbour): the same vertices util.guards finds by
        # tracking the alive vertices forward
        rng = random.Random(107)
        shapes = Counter()
        for g in util.certified_graphs(rng, 200, lambda g: mad_below(g, Fraction(20, 7)),
                                       (6, 30), (1.1, 1.4)):
            records = five_reduction_records(g)
            col, odd, ncol = [0] * g.n, [0] * g.n, [0] * g.n
            for rec, guard in reversed(list(zip(records, util.guards(g, records)))):
                if rec.kind == "3v-weak-pair":
                    surv = [u for u in g.neighbors(rec.deleted[0]) if col[u]]
                    degree = {u: ncol[u] + sum(x in rec.deleted for x in g.neighbors(u))
                              for u in surv}
                    assert [u for u in surv if len(surv) == 1 or degree[u] >= 4] == list(guard)
                    shapes["lone" if len(surv) == 1 else len(guard) < len(surv)] += 1
                constructive._replay(col, odd, ncol, 5, rec, g._adj)
            assert_valid(g, constructive._finish(g, tuple(col), 5, "five"))
        # every shape is met: one survivor, all guarded, some left out
        assert min(shapes["lone"], shapes[False], shapes[True]) >= 10

    def test_triangle_has_coinciding_outer_anchors(self):
        # the adjacent-2 record on a triangle has the same third vertex on
        # both sides, exercising the recompute-before-second-assignment rule
        result = color_five(gen_cycle(3))
        assert_valid(gen_cycle(3), result)

    def test_adjacent_four_vertices_with_shared_two_vertex(self):
        # the shared degree-2 vertex 4 has no survivor and both its anchors
        # are recolored within the same record
        g = util.ADJACENT_4V_GRAPH
        records = five_reduction_records(g)
        first = records[0]
        assert first.kind == "adjacent-4v"
        assert first.deleted[:2] == (0, 1)
        assert util.frontiers(g, records)[0][4] == ()
        assert_valid(g, color_five(g))


class TestColorEps:
    def test_kstar_seven_at_eps_one(self):
        g = gen_kstar(7)
        result = color_eps(g, 1)
        assert_valid(g, result)
        assert result.bound == 10

    def test_six_cycle_at_max_eps(self):
        result = color_eps(gen_cycle(6), Fraction(8, 5))
        assert_valid(gen_cycle(6), result)
        assert result.bound == 7

    def test_kstar_five(self):
        g = gen_kstar(5)
        result = color_eps(g, Fraction(4, 3))
        assert_valid(g, result)
        assert result.bound == 8

    def test_eps_range(self):
        with pytest.raises(ValueError):
            color_eps(gen_cycle(6), 0)
        with pytest.raises(ValueError):
            color_eps(gen_cycle(6), 2)

    def test_density_precondition(self):
        # kstar(7) has mad 3 > 4 - 8/5, and at 8/5 the engine runs out on it
        with pytest.raises(ValueError, match="mad"):
            color_eps(gen_kstar(7), Fraction(8, 5))

    def test_out_of_band_graph_that_reduces(self):
        # K4 has mad 3 > 4 - 8/5, yet it reduces through three-vertex
        # records, and a completed reduction proves its bound
        g = gen_complete(4)
        result = color_eps(g, Fraction(8, 5))
        assert result.bound == 7 and result.strategy == "eps"
        assert util.odd_coloring_by_definition(g, list(result.colors))

    def test_random_certified(self):
        rng = random.Random(107)
        for g in util.certified_graphs(rng, 50, lambda g: mad_at_most(g, 3),
                                       (4, 26), (0.8, 1.5), extra=[gen_kstar(7)]):
            assert_valid(g, color_eps(g, 1))

    def test_selection_steps_verified_independently(self):
        # replay the deletions with a fresh degree tracker and re-check the
        # structural predicate of every record at its deletion time
        rng = random.Random(109)
        eps = Fraction(4, 3)
        x = 1 - eps / 2
        # gen_kstar(5) has mad exactly 4 - 4/3, the tight case
        graphs = util.certified_graphs(
            rng, 25, lambda g: mad_at_most(g, 4 - eps), (4, 24), (0.8, 1.3),
            extra=[gen_kstar(5)],
        )
        for g in graphs:
            alive = [True] * g.n
            deg = list(g.degrees())
            for rec in eps_reduction_records(g, eps):
                v = rec.deleted[0]
                if rec.kind == "leaf":
                    assert deg[v] <= 1
                elif rec.kind == "three-vertex":
                    assert deg[v] == 3
                elif rec.kind == "adjacent-2":
                    u = rec.deleted[1]
                    assert deg[v] == deg[u] == 2 and g.has_edge(v, u)
                else:
                    assert rec.kind == "star"
                    d2 = sum(1 for w in g.neighbors(v) if alive[w] and deg[w] == 2)
                    assert deg[v] >= 4
                    assert deg[v] - x * d2 <= 2 + 2 * x
                    assert deg[v] <= 8 / eps - 2
                for u in rec.deleted:
                    alive[u] = False
                for u in rec.deleted:
                    for w in g.neighbors(u):
                        if alive[w]:
                            deg[w] -= 1


def padded_kstar():
    """kstar(8) with a 60-vertex pendant path: 2m/n = 29/12 is below every
    band's threshold, so deciding the band takes a flow; mad is 28/9, above
    every band, and every engine runs out on the kstar.  A new graph per
    call, since a graph keeps its kernel."""
    return Graph(96, [*gen_kstar(8).edges(), (0, 36), *((v, v + 1) for v in range(36, 95))])


NAMED = {  # engine, and the name of its rule table
    "five": (color_five, "_FIVE"),
    "six": (color_six, "_SIX"),
    "eps": (lambda g: color_eps(g, 1), "_EPS_RULES"),
}


def count_flows(monkeypatch):
    calls = []
    flow = sparsity._denser_subgraph
    monkeypatch.setattr(sparsity, "_denser_subgraph", lambda *a: calls.append(a) or flow(*a))
    return calls


class TestReduceFirst:
    # a named engine reduces first; its density decider runs only to explain
    # a reduction that ran out: outside the band as ValueError, inside it as
    # the fault it is

    @pytest.mark.parametrize("name", NAMED)
    def test_flows_only_when_the_reduction_runs_out(self, monkeypatch, name):
        engine, _ = NAMED[name]
        calls = count_flows(monkeypatch)
        for g in (gen_kstar(5), util.roadmap_corpus(100), gen_cycle(7)):
            assert_valid(g, engine(g))
        assert len(calls) == 0
        with pytest.raises(ValueError, match="mad"):
            engine(padded_kstar())
        assert len(calls) == 1

    @pytest.mark.parametrize("name", NAMED)
    def test_in_band_exhaustion_is_a_fault(self, monkeypatch, name):
        # without its configurations (the eps star, which stays, needs
        # degree 4) the engine runs out on the 7-cycle, of mad 2 and so in
        # every band, and its decider, one flow, says so
        engine, table = NAMED[name]
        monkeypatch.setattr(constructive, table, ())
        calls = count_flows(monkeypatch)
        with pytest.raises(constructive.ReductionExhaustedError):
            engine(gen_cycle(7))
        assert len(calls) == 1


class TestSubdividedStress:
    # partially subdivided random graphs reach configurations that plain
    # sparse random graphs almost never contain (high-degree stars with
    # many 2-neighbors, weak 3-vertices of every shape, adjacent 4-vertices)
    def test_engines_on_partial_subdivisions(self):
        rng = random.Random(131)
        checked_five = checked_six = checked_eps = 0
        for _ in range(400):
            nh = rng.randint(4, 10)
            h = util.random_graph(rng, nh, rng.randint(nh, 2 * nh))
            g = util.partial_subdivide(rng, h, rng.choice([0.5, 0.7, 0.85, 1.0]))
            if mad_below(g, Fraction(20, 7)):
                assert_valid(g, color_five(g))
                checked_five += 1
            if mad_below(g, 3):
                assert_valid(g, color_six(g))
                checked_six += 1
            if mad_at_most(g, Fraction(5, 2)):
                result = color_eps(g, Fraction(3, 2))
                assert_valid(g, result)
                assert result.bound == 7
                checked_eps += 1
        assert min(checked_five, checked_six, checked_eps) >= 40


class TestColorAuto:
    def test_dispatch_table(self):
        assert color_auto(gen_cycle(9)).strategy == "cycle"
        assert color_auto(gen_cycle(9)).k_used == 3
        assert color_auto(Graph(4, [])).strategy == "edgeless"
        assert color_auto(gen_complete(2)).strategy == "two-color"
        assert color_auto(gen_path(7)).strategy == "forest"
        assert color_auto(gen_kstar(5)).strategy == "five"
        assert color_auto(gen_kstar(6)).strategy == "six"
        assert color_auto(gen_kstar(7)).strategy == "eps"

    def test_eps_dispatch_bound(self):
        result = color_auto(gen_kstar(7))
        assert result.bound == 10 and result.k_used <= 10

    def test_dense_needs_budget(self):
        with pytest.raises(UnsupportedDensityError):
            color_auto(gen_complete(5))
        result = color_auto(gen_complete(5), SolveBudget(max_k=10))
        assert result.strategy == "exact" and result.k_used == 5

    def test_results_always_verify(self):
        rng = random.Random(113)
        for _ in range(50):
            n = rng.randint(1, 14)
            g = util.random_graph(rng, n, rng.randint(0, min(2 * n, n * (n - 1) // 2)))
            result = color_auto(g, SolveBudget(max_k=14))
            if g.n:
                assert_valid(g, result)

    def test_deterministic(self):
        rng = random.Random(127)
        for _ in range(10):
            g = util.random_graph(rng, 16, 20)
            first = color_auto(g, SolveBudget(max_k=16))
            second = color_auto(g, SolveBudget(max_k=16))
            assert first == second

    @pytest.mark.parametrize("n, strategy, engine", [
        (5, "five", color_five),  # the five reduction completes: no flow
        (6, "six", color_six),  # five runs out, six completes: no flow
        (7, "eps", lambda g: color_eps(g, 1)),  # both run out: only mad_exact's
    ])
    def test_density_decided_once(self, monkeypatch, n, strategy, engine):
        g = gen_kstar(n)
        calls = count_flows(monkeypatch)
        mad_exact(g)
        alone = len(calls)
        calls.clear()
        result = color_auto(g)
        assert alone > 0 and len(calls) == (alone if strategy == "eps" else 0)
        assert result.strategy == strategy and result == engine(g)

    def test_eps_rung_is_color_eps(self, monkeypatch):
        # both reductions run out on kstar(8), of mad 28/9: the eps engine
        # at 4 - mad = 8/9, with floor(8 / (8/9)) + 2 = 11 colors
        calls, engine = [], constructive.color_eps
        monkeypatch.setattr(constructive, "color_eps", lambda g, eps: calls.append(eps) or engine(g, eps))
        result = color_auto(gen_kstar(8))
        assert calls == [Fraction(8, 9)]
        assert result.strategy == "eps" and result.bound == 11

    def test_kernel_built_once_per_graph(self, monkeypatch):
        # both reductions run out on the kstar, so color_auto runs mad_exact's
        # flows and no others, and every flow reads the one kernel
        g = padded_kstar()
        built, kernel = [], graph._Kernel
        monkeypatch.setattr(graph, "_Kernel", lambda *a: built.append(a) or kernel(*a))
        calls = count_flows(monkeypatch)
        assert mad_exact(g).mad == Fraction(28, 9)
        alone = len(calls)
        assert color_auto(g).strategy == "eps"
        assert alone == 2 and len(calls) == 2 * alone and len(built) == 1

    @pytest.mark.parametrize("g, band", [
        (util.roadmap_corpus(100), "five"),  # mad_exact takes 3 flows
        (subdivide(util.random_graph(random.Random(2), 40, 104)), "six"),  # 3
    ])
    def test_band_takes_one_flow_where_mad_exact_takes_more(self, monkeypatch, g, band):
        # the five reduction completes on both, the six-band graph included,
        # so color_auto runs no flow at all
        calls = count_flows(monkeypatch)
        mad = mad_exact(g).mad
        assert len(calls) == 3
        assert band == ("five" if mad < Fraction(20, 7) else "six" if mad < 3 else None)
        calls.clear()
        records = constructive._reduce_all(g, constructive._FIVE)
        assert color_auto(g) == constructive._replay_all(g, records, 5, "five")
        assert len(calls) == 0

    @pytest.mark.parametrize("g", [gen_kstar(8), gen_complete(5)])
    def test_dense_graph_runs_only_mad_exact(self, monkeypatch, g):
        # with 2m/n >= 3 neither band check needs a flow
        assert 2 * g.m >= 3 * g.n
        calls = count_flows(monkeypatch)
        mad = mad_exact(g).mad
        alone = len(calls)
        calls.clear()
        result = color_auto(g, SolveBudget(max_k=10))
        assert alone > 0 and len(calls) == alone
        assert result.strategy == ("eps" if mad < 4 else "exact")

    def test_strategy_is_the_band_of_the_brute_force_mad(self):
        # the strategy is the first engine whose reduction completes, with a
        # bound no larger than that of the brute-force mad's band; when
        # neither completes, it is that band
        rng = random.Random(151)
        bands = Counter()
        while sum(bands.values()) < 200:
            n = rng.randint(4, 12)
            g = util.random_graph(rng, n, rng.randint(n, 2 * n))
            result = color_auto(g, SolveBudget(max_k=12))
            if result.strategy in ("edgeless", "two-color", "forest", "cycle"):
                continue
            mad = util.brute_force_mad(g)
            band = ("five" if mad < Fraction(20, 7) else "six" if mad < 3
                    else "eps" if mad < 4 else "exact")
            first = next((name for name, rules in ENGINES if reduces(g, rules)), band)
            assert result.strategy == first
            assert result.bound <= band_bound(band, mad)
            bands[band] += 1
        assert min(bands[b] for b in ("five", "six", "eps", "exact")) >= 5, bands

    def test_completed_reduction_colors_outside_its_band(self):
        # the replay of a completed reduction needs no density bound: on
        # random and partly subdivided graphs, every completed five or six
        # reduction replays to a verified coloring with at most 5 or 6
        # colors, inside its band and out of it; and below 20/7 color_auto
        # is color_five
        rng = random.Random(163)
        outside, checked = Counter(), 0
        for i in range(300):
            if i % 2:
                n = rng.randint(5, 13)
                g = util.random_graph(rng, n, rng.randint(n, 2 * n))
            else:
                nh = rng.randint(4, 7)
                h = util.random_graph(rng, nh, rng.randint(nh, min(nh * (nh - 1) // 2, 2 * nh)))
                g = util.partial_subdivide(rng, h, rng.choice([0.3, 0.5, 0.7]))
                if g.n > 14:
                    continue
            mad = util.brute_force_mad(g)
            for (name, rules), k, limit in zip(ENGINES, (5, 6), (Fraction(20, 7), 3)):
                if reduces(g, rules):
                    records = constructive._reduce_all(g, rules)
                    result = constructive._replay_all(g, records, k, name)
                    assert util.odd_coloring_by_definition(g, list(result.colors))
                    assert_valid(g, result)
                    assert result.bound == k
                    outside[name] += mad >= limit
            if mad < Fraction(20, 7):
                result = color_auto(g)
                early = result.strategy in ("edgeless", "two-color", "forest", "cycle")
                assert early or result == color_five(g)
                checked += not early
        assert min(outside["five"], outside["six"]) >= 20 and checked >= 100, (outside, checked)


class TestReductionWork:
    @pytest.mark.parametrize("relabeled", [False, True])
    def test_two_neighbor_scans_per_vertex(self, monkeypatch, relabeled):
        # a count, not a time: the ROADMAP corpus at V = 2500 as drawn (its
        # original vertices come first) and under a seeded relabeling, where
        # a scan of the degree-2 vertices in index order meets many that do
        # not match before one that does (about 18 calls per vertex).  The
        # heaps take 0.22n-0.35n; a rule that scans 2-neighbours of a center
        # it only deletes (leaf, three-vertex) takes about 0.8n-1.3n.  The
        # eps engine never reaches its star row here, so no charge key (one
        # scan per degree-4+ vertex) is taken: its 1 and 2 calls are
        # adjacent-2's.
        g = util.roadmap_corpus(1000)
        if relabeled:
            perm = list(range(g.n))
            random.Random(1).shuffle(perm)
            g = util.relabel(g, perm)
        calls = []
        two = constructive._two_neighbors
        monkeypatch.setattr(
            constructive, "_two_neighbors", lambda st, v: calls.append(v) or two(st, v)
        )
        assert g.n == 2500
        for engine, bound in ((six_reduction_records, g.n // 2),
                              (five_reduction_records, g.n // 2),
                              (lambda g: eps_reduction_records(g, 1), 2)):
            calls.clear()
            engine(g)
            assert len(calls) <= bound, engine


class TestKstarColoring:
    @pytest.mark.parametrize("n", range(2, 41))
    def test_verifies_with_n_colors(self, n):
        result = kstar_coloring(n)
        assert_valid(gen_kstar(n), result)
        assert result.k_used == (n if n >= 3 else 3)

    def test_hub_colors_fixed(self):
        result = kstar_coloring(6)
        assert result.colors[:6] == (1, 2, 3, 4, 5, 6)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_colors_pinned(self, n):
        # as recorded before the subdivision vertices were replayed as records:
        # the hubs, then 3 once, 2 for the rest of hub 0's pairs, 1 for all others
        want = (*range(1, n + 1), 3, *[2] * (n - 2), *[1] * ((n - 1) * (n - 2) // 2))
        assert kstar_coloring(n).colors == want


class TestDeterminism:
    def test_engines_repeat_identically(self):
        g = gen_kstar(6)
        assert color_six(g) == color_six(g)
        assert five_reduction_records(gen_kstar(5)) == five_reduction_records(gen_kstar(5))


# ---------------------------------------------------------------------------
# Golden reduction sequences and colorings of the three engines

GOLDEN = Path(__file__).parent / "data" / "reduction_golden.json"
KINDS = {
    "leaf", "three-vertex", "adjacent-2", "star", "3v-with-2nbr", "4v-three-2nbrs",
    "5v-five-2nbrs", "3v-weak-pair", "4v-weak", "adjacent-4v",
}


def golden_corpus():
    """Seeded subdivided random graphs, 15 in each density band (five, six,
    eps), then gen_kstar(5..7) and the adjacent-4v graph."""
    tops = (("five", Fraction(20, 7)), ("six", Fraction(3)), ("eps", Fraction(4)))
    bands = {name: [] for name, _ in tops}
    seed = 0
    while min(map(len, bands.values())) < 15:
        rng = random.Random(seed)
        nh = rng.randint(6, 40)
        h = util.random_graph(rng, nh, rng.randint(3 * nh // 2, 3 * nh))
        g = util.partial_subdivide(rng, h, rng.choice([0.6, 0.8, 0.9, 1.0]))
        mad = mad_exact(g).mad
        band = next((name for name, top in tops if mad < top), None)
        if band is not None and len(bands[band]) < 15:
            bands[band].append((f"{band}-seed-{seed}", g))
        seed += 1
    corpus = [item for items in bands.values() for item in items]
    corpus += [(f"kstar-{n}", gen_kstar(n)) for n in (5, 6, 7)]
    return corpus + [("adjacent-4v", util.ADJACENT_4V_GRAPH)]


def _sha256(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def golden_runs(name, g):
    """One entry per applicable engine: five, six, eps at 4 - mad and at 1."""
    mad = mad_exact(g).mad
    runs = []
    if mad < Fraction(20, 7):
        runs.append(("five", None, five_reduction_records(g), color_five(g)))
    if mad < 3:
        runs.append(("six", None, six_reduction_records(g), color_six(g)))
    for eps in sorted({4 - mad, Fraction(1)}):
        if 0 < eps <= Fraction(8, 5) and mad <= 4 - eps:
            runs.append(("eps", eps, eps_reduction_records(g, eps), color_eps(g, eps)))
    entries = []
    for engine, eps, records, result in runs:
        # the frontiers and guards are derived from the sequence, so the
        # hashes recorded when records stored them (as frontier and protect)
        # also pin what the replay reads off the coloring
        canonical = [
            {"kind": r.kind, "deleted": list(r.deleted), "protect": list(guard),
             "frontier": {str(v): list(f) for v, f in front.items()}}
            for r, front, guard in zip(records, util.frontiers(g, records),
                                       util.guards(g, records))
        ]
        entries.append({
            "graph": name, "n": g.n, "m": g.m, "engine": engine,
            "eps": None if eps is None else str(eps),
            "kinds": dict(sorted(Counter(r.kind for r in records).items())),
            "records": _sha256(canonical), "coloring": _sha256(list(result.colors)),
        })
    return entries


class TestReductionGolden:
    # recorded before the configurations became a rule table over the
    # degree-bucket peeler; record sequences and colorings must not change
    def test_records_and_colorings_unchanged(self):
        expected = json.loads(GOLDEN.read_text())
        got = [e for name, g in golden_corpus() for e in golden_runs(name, g)]
        assert len(got) == len(expected)
        for entry, want in zip(got, expected):
            assert entry == want

    def test_corpus_covers_every_kind(self):
        expected = json.loads(GOLDEN.read_text())
        seen = set().union(*(e["kinds"] for e in expected))
        assert seen == KINDS
