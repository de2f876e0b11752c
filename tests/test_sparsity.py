import random
from fractions import Fraction

import pytest

from oddcolor import (
    Graph,
    format_mad_report,
    format_orientation_report,
    fractional_orientation,
    gen_complete,
    gen_cycle,
    gen_kstar,
    gen_path,
    mad_at_most,
    mad_below,
    mad_exact,
    subdivide,
    subset_density,
)
from oddcolor import sparsity

import util


class TestMadExact:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_subdivided_complete_family(self, n):
        assert mad_exact(gen_kstar(n)).mad == 4 - Fraction(8, n + 1)

    def test_two_regular(self):
        w = mad_exact(gen_cycle(6))
        assert w.mad == 2 and w.density == 1
        assert set(w.vertices) == set(range(6))

    def test_edgeless(self):
        w = mad_exact(Graph(5, []))
        assert w.mad == 0 and len(w.vertices) == 1

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            mad_exact(Graph(0, []))

    def test_witness_self_consistency(self):
        rng = random.Random(19)
        for _ in range(40):
            n = rng.randint(1, 13)
            g = util.random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
            w = mad_exact(g)
            if g.m:
                assert subset_density(g, w.vertices) == w.density
            assert w.mad == 2 * w.density

    def test_matches_brute_force(self):
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randint(1, 12)
            g = util.random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
            assert mad_exact(g).mad == util.brute_force_mad(g)

    def test_witness_is_union_of_densest_sets(self):
        rng = random.Random(31)
        for _ in range(120):
            # at least one edge: edgeless graphs report the single vertex (0,)
            n = rng.randint(2, 12)
            g = util.random_graph(rng, n, rng.randint(1, n * (n - 1) // 2))
            assert mad_exact(g).vertices == util.brute_force_densest_union(g)


    def test_flow_without_a_denser_set_is_an_error(self, monkeypatch):
        # a flow that hands back a set no denser than d would spin the loop;
        # the fake gives up after 50 calls so that a loop without the check
        # fails instead of hanging
        calls = []

        def same_set(g, d):
            calls.append(d)
            assert len(calls) <= 50, "mad_exact kept asking for a denser set"
            return list(range(g.n))

        monkeypatch.setattr(sparsity, "_denser_subgraph", same_set)
        with pytest.raises(RuntimeError, match="returned a set of density 4/3"):
            mad_exact(gen_kstar(5))
        assert calls == [Fraction(4, 3)]


class TestKernel:
    @pytest.mark.parametrize("d, size, found", [
        (Fraction(10, 7), 6 + 2, None),  # the six hubs; each chain one edge
        (Fraction(1, 2), 21 + 2, list(range(21))),  # below 1: the whole graph
    ])
    def test_flow_runs_on_the_kernel(self, monkeypatch, d, size, found):
        sizes = []
        init = sparsity._Dinic.__init__
        monkeypatch.setattr(
            sparsity._Dinic, "__init__", lambda net, n: sizes.append(n) or init(net, n)
        )
        assert sparsity._denser_subgraph(gen_kstar(6), d) == found
        assert sizes == [size]

    def test_chain_inner_vertices_take_d(self):
        # alpha/2 = 3/2: every chain of gen_kstar(4) is kept, its middle takes 3/2
        g = gen_kstar(4)
        fo = fractional_orientation(g, 3)
        assert fo.indegree[4:] == (Fraction(3, 2),) * 6
        # alpha/2 = 2: a chain of two edges weighs 0 and is dropped, so both
        # of its edges point into the middle and the hubs take nothing
        fo = fractional_orientation(g, 4)
        assert set(fo.weights.values()) == {1}
        assert fo.indegree == (0,) * 4 + (2,) * 6

    def test_peeled_edges_and_core_cycles(self):
        # a 4-cycle (a cycle of the 2-core) with the path 3-4-5 hanging off it
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5)])
        fo = fractional_orientation(g, 2)
        half = Fraction(1, 2)
        assert fo.weights == {(0, 1): half, (0, 3): half, (1, 2): half, (2, 3): half,
                              (3, 4): 1, (4, 5): 1}
        assert fo.indegree == (1, 1, 1, 1, 1, 1)

    def test_chain_back_to_its_start(self):
        # K4 with a 4-cycle 3-4-5-6 through vertex 3: the cycle is a chain of
        # weight 4q - 3p on 3 alone, which is positive below d = 4/3
        g = Graph(7, util.all_pairs(4) + [(3, 4), (4, 5), (5, 6), (3, 6)])
        assert sparsity._denser_subgraph(g, Fraction(5, 4)) == list(range(7))
        assert sparsity._denser_subgraph(g, Fraction(4, 3)) == [0, 1, 2, 3]
        assert sparsity._denser_subgraph(g, Fraction(3, 2)) is None
        # gen_kstar(4) (density 6/5) with a 4-cycle through hub 0: at 5/4 the
        # cycle is kept and its inner vertices take exactly 5/4
        g = Graph(13, list(gen_kstar(4).edges()) + [(0, 10), (10, 11), (11, 12), (0, 12)])
        fo = fractional_orientation(g, Fraction(5, 2))
        assert fo.indegree[10:] == (Fraction(5, 4),) * 3
        assert max(fo.indegree) == Fraction(5, 4)


def reference_flow_corpus():
    """200 seeded graphs: random, subdivided, partly subdivided, and forests
    with a few extra edges, plus the edgeless graph (every arc of capacity 0)."""
    rng = random.Random(13)
    graphs = [Graph(3, [])]
    while len(graphs) < 200:
        n = rng.randint(2, 24)
        g = util.random_graph(rng, n, rng.randint(1, 2 * n))
        kind = len(graphs) % 4
        if kind == 1:
            g = subdivide(g)
        elif kind == 2:
            g = util.partial_subdivide(rng, g, 0.5)
        elif kind == 3:
            edges = {*util.random_forest(rng, 2 * n).edges(), *util.random_graph(rng, 2 * n, 3).edges()}
            g = Graph(2 * n, sorted(edges))
        graphs.append(g)
    return graphs


def auto_shaped_graphs():
    """Nine seeded graphs shaped like the inputs of `color --strategy auto`:
    floor(r*N) random edges on N vertices, r in {1.5, 2.6, 3.2} and N in
    {30, 45, 60}, with every edge then subdivided."""
    rng = random.Random(61)
    return [subdivide(util.random_graph(rng, n, int(r * n))) for r in (1.5, 2.6, 3.2) for n in (30, 45, 60)]


class TestFlowMatchesReference:
    """The package's flow against util.ReferenceDinic, which builds the same
    network arc by arc and runs Dinic from its first BFS: the same arcs, the
    same residual capacities, the same last BFS and the same answer."""

    @staticmethod
    def assert_same(g, d):
        nw = sparsity._goldberg(g, d)
        ref, saturated = util.reference_goldberg(g, d)
        assert (nw.net.head, nw.net.to) == (ref.head, ref.to), (g.n, list(g.edges()), d)
        assert nw.net.cap == ref.cap, (g.n, list(g.edges()), d)
        assert nw.net.level == ref.level, (g.n, list(g.edges()), d)
        assert nw.saturated == saturated
        return ref

    def test_seeded_graphs(self):
        for g in reference_flow_corpus():
            m_over_n = Fraction(g.m, g.n)
            for d in (Fraction(1, 3), Fraction(1), m_over_n, Fraction(10, 7), Fraction(3, 2), Fraction(2)):
                self.assert_same(g, d)
        # the thresholds mad_below(g, 20/7) and mad_below(g, 3) flow at, where
        # the package writes the second phase's flow in closed form: some of
        # it must be there
        second_phase = 0
        for g in auto_shaped_graphs():
            for d in (Fraction(10, 7) - Fraction(1, 28 * g.n), Fraction(3, 2) - Fraction(1, 4 * g.n)):
                ref = self.assert_same(g, d)
                second_phase += len(ref.phase_flows) > 1 and ref.phase_flows[1] > 0
        assert second_phase

    def test_star_at_zero(self):
        # the center's sink arc has capacity m*q - q*deg = 0
        star = Graph(6, [(0, v) for v in range(1, 6)])
        self.assert_same(star, Fraction(0))
        nw = sparsity._goldberg(star, Fraction(0))
        assert nw.net.cap[3] == 0 and nw.net.cap[2] == 0 and not nw.saturated


class TestMadBelow:
    def test_strictness(self):
        rng = random.Random(43)
        for _ in range(30):
            n = rng.randint(2, 10)
            g = util.random_graph(rng, n, rng.randint(1, n * (n - 1) // 2))
            mad = mad_exact(g).mad
            assert not mad_below(g, mad)
            assert mad_below(g, mad + Fraction(1, 100))
            assert mad_at_most(g, mad)
            assert not mad_at_most(g, mad - Fraction(1, n * n))

    @pytest.mark.parametrize("g, alpha", [
        (gen_complete(5), 4),  # 2m/n = 4
        (gen_kstar(6), Fraction(20, 7)),  # 2m/n = 60/21 = 20/7
        (gen_kstar(7), 3),  # 2m/n = 84/28 = 3
        (gen_cycle(5), 1),
        (Graph(3, []), 0),
        (Graph(3, []), -1),
        (gen_complete(5), 3),
        (gen_kstar(7), 2),
    ])
    def test_no_flow_when_the_whole_graph_reaches_alpha(self, monkeypatch, g, alpha):
        assert 2 * g.m >= alpha * g.n
        calls = []
        monkeypatch.setattr(sparsity, "_denser_subgraph", lambda *a: calls.append(a))
        assert not mad_below(g, alpha)
        if 2 * g.m > alpha * g.n:  # mad_at_most's test is strict
            assert not mad_at_most(g, alpha)
        assert calls == []

    @pytest.mark.parametrize("g, alpha", [
        (gen_kstar(6), Fraction(20, 7)),
        (gen_cycle(5), 2),
    ])
    def test_at_most_runs_its_flow_when_2m_equals_alpha_n(self, monkeypatch, g, alpha):
        assert 2 * g.m == alpha * g.n
        calls = []
        flow = sparsity._denser_subgraph
        monkeypatch.setattr(sparsity, "_denser_subgraph", lambda *a: calls.append(a) or flow(*a))
        assert mad_at_most(g, alpha)
        assert [d for _, d in calls] == [Fraction(alpha) / 2]

    def test_negative_alpha_is_false(self):
        for g in (Graph(3, []), gen_cycle(5), gen_kstar(5)):
            assert not mad_below(g, -1) and not mad_at_most(g, -1)
            assert not mad_at_most(g, Fraction(-1, 3))

    def test_empty_graph_still_rejected(self):
        for decide in (mad_below, mad_at_most):
            for alpha in (-1, 0, 3):
                with pytest.raises(ValueError):
                    decide(Graph(0, []), alpha)

    def test_flow_thresholds_are_pinned(self, monkeypatch):
        # mad_below(g, a/b) runs its flow at a/2b - 1/(4bn), and only when
        # 2m < alpha*n; mad_at_most at alpha/2, and only when 2m <= alpha*n
        rng = random.Random(67)
        graphs = [gen_kstar(k) for k in (5, 6, 7)]
        for _ in range(12):
            n = rng.randint(4, 12)
            g = util.random_graph(rng, n, rng.randint(n, 3 * n))
            graphs += [subdivide(g), util.partial_subdivide(rng, g, 0.5)]
        seen = []
        flow = sparsity._denser_subgraph
        monkeypatch.setattr(sparsity, "_denser_subgraph", lambda g, d: seen.append(d) or flow(g, d))
        flows = 0
        for g in graphs:
            mad = mad_exact(g).mad
            for alpha in (Fraction(20, 7), Fraction(3), Fraction(5, 2)):
                seen.clear()
                assert mad_below(g, alpha) == (mad < alpha)
                margin = Fraction(1, 4 * alpha.denominator * g.n)
                assert seen == ([alpha / 2 - margin] if 2 * g.m < alpha * g.n else [])
                flows += len(seen)
                seen.clear()
                assert mad_at_most(g, alpha) == (mad <= alpha)
                assert seen == ([alpha / 2] if 2 * g.m <= alpha * g.n else [])
                flows += len(seen)
        assert flows >= 80  # 44 of mad_below's and 47 of mad_at_most's

    def test_denser_set_above_the_threshold(self):
        g = gen_kstar(6)
        found = sparsity._denser_subgraph(g, Fraction(1))
        assert found is not None and subset_density(g, found) > 1


class TestFractionalOrientation:
    def test_kstar_seven_tight(self):
        fo = fractional_orientation(gen_kstar(7), 3)
        assert fo is not None
        assert all(d == Fraction(3, 2) for d in fo.indegree)

    def test_four_cycle(self):
        fo = fractional_orientation(gen_cycle(4), 2)
        assert fo is not None
        assert all(d <= 1 for d in fo.indegree)

    def test_complete_four_infeasible(self):
        assert fractional_orientation(gen_complete(4), Fraction(5, 2)) is None

    def test_weights_sum_and_indegrees_recompute(self):
        rng = random.Random(47)
        for _ in range(25):
            n = rng.randint(2, 10)
            g = util.random_graph(rng, n, rng.randint(1, n * (n - 1) // 2))
            alpha = mad_exact(g).mad
            fo = fractional_orientation(g, alpha)
            assert fo is not None
            indeg = [Fraction(0)] * n
            for (u, v), w in fo.weights.items():
                assert 0 <= w <= 1
                indeg[v] += w
                indeg[u] += 1 - w
            assert tuple(indeg) == fo.indegree
            assert max(fo.indegree) <= alpha / 2

    def test_duality_on_small_graphs(self):
        rng = random.Random(53)
        for _ in range(20):
            n = rng.randint(2, 9)
            g = util.random_graph(rng, n, rng.randint(1, n * (n - 1) // 2))
            mad = mad_exact(g).mad
            assert fractional_orientation(g, mad) is not None
            assert fractional_orientation(g, mad - Fraction(1, n * n)) is None

    def test_edgeless(self):
        fo = fractional_orientation(Graph(3, []), 0)
        assert fo is not None and fo.weights == {}

    @pytest.mark.parametrize("alpha", [2, Fraction(20, 7), 3])
    def test_one_flow(self, monkeypatch, alpha):
        # the answer and the orientation come from one flow on Goldberg's network
        calls = []
        flow = sparsity._Dinic.max_flow
        monkeypatch.setattr(
            sparsity._Dinic, "max_flow", lambda *a: calls.append(a) or flow(*a)
        )
        fo = fractional_orientation(gen_kstar(6), alpha)
        assert (fo is None) == (alpha < Fraction(20, 7)) and len(calls) == 1


class TestBruteForceMad:
    def test_complete_four_with_pendant(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
        assert util.brute_force_mad(g) == 3

    def test_path_four(self):
        assert util.brute_force_mad(gen_path(4)) == Fraction(3, 2)

    def test_cycle(self):
        assert util.brute_force_mad(gen_cycle(6)) == 2

    def test_guard(self):
        with pytest.raises(ValueError):
            util.brute_force_mad(Graph(0, []))
        with pytest.raises(ValueError):
            util.brute_force_mad(Graph(21, []))


class TestReports:
    def test_mad_report(self):
        w = mad_exact(gen_kstar(6))
        report = format_mad_report(w, include_witness=True)
        lines = report.splitlines()
        assert lines[0] == "mad 20/7"
        assert lines[1].startswith("witness ")

    def test_orientation_report(self):
        fo = fractional_orientation(gen_cycle(4), 2)
        lines = format_orientation_report(fo).splitlines()
        assert len(lines) == 4
        u, v, w = lines[0].split()
        assert (int(u), int(v)) == (0, 1) and "/" in w
