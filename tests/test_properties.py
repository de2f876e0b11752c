"""Property tests against independent oracles (hypothesis, networkx).

Both libraries are test-side only; the package itself imports neither.
Examples are derandomized so the suite gives the same verdict every run.
"""

import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcolor import (
    Graph,
    color_auto,
    color_eps,
    color_five,
    color_forest,
    color_six,
    fractional_orientation,
    is_odd_coloring,
    mad_exact,
)

import util

SETTINGS = settings(deadline=None, derandomize=True, database=None)


@st.composite
def graphs(draw, n_range, ratios, subdivide=False):
    """G(n, m) with m = ratio * n, optionally with some edges subdivided."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(*n_range))
    g = util.random_graph(rng, n, int(draw(st.sampled_from(ratios)) * n))
    if subdivide:
        g = util.partial_subdivide(rng, g, draw(st.sampled_from([0, 0.5, 1])))
    return g


@settings(SETTINGS, max_examples=100)
@given(graphs((4, 30), (0.6, 0.9, 1.2, 1.5, 2, 2.5), subdivide=True))
def test_engines_verify_under_their_preconditions(g):
    mad = mad_exact(g).mad
    engines = [(mad < 4, color_auto), (g.is_forest(), color_forest),
               (mad < Fraction(20, 7), color_five), (mad < 3, color_six)]
    for eps in (Fraction(1, 2), Fraction(1), Fraction(8, 5)):
        engines.append((mad <= 4 - eps, lambda h, eps=eps: color_eps(h, eps)))
    for applies, engine in engines:
        if applies:
            result = engine(g)
            assert is_odd_coloring(g, result.colors)[0]
            assert util.odd_coloring_by_definition(g, list(result.colors))
            assert len(set(result.colors)) == result.k_used <= result.bound


@settings(SETTINGS, max_examples=200)
@given(graphs((1, 10), (0.5, 1, 1.5, 2, 3)), st.sampled_from(["mad", "below", "above", "any"]),
       st.integers(0, 24), st.integers(1, 7))
def test_orientation_exists_exactly_when_mad_at_most_alpha(g, where, num, den):
    mad = util.brute_force_mad(g)
    alpha = {"mad": mad, "below": mad - Fraction(1, g.n * g.n),
             "above": mad + Fraction(1, 3), "any": Fraction(num, den)}[where]
    if alpha < 0:
        with pytest.raises(ValueError):
            fractional_orientation(g, alpha)
        return
    fo = fractional_orientation(g, alpha)
    assert (fo is not None) == (mad <= alpha)
    if fo is None:
        return
    assert sorted(fo.weights) == sorted(g.edges())
    indeg = [Fraction(0)] * g.n
    for (u, v), w in fo.weights.items():
        assert 0 <= w <= 1
        indeg[v] += w
        indeg[u] += 1 - w
    assert tuple(indeg) == fo.indegree
    assert all(d <= alpha / 2 for d in indeg)


def goldberg_min_cut(g: Graph, d: Fraction) -> tuple[int, set[int]]:
    """Min cut of Goldberg's densest-subgraph network at density d, by
    networkx, with the graph vertices on its source side."""
    p, q, m = d.numerator, d.denominator, g.m
    net = nx.DiGraph()
    for v in range(g.n):
        net.add_edge("s", v, capacity=m * q)
        net.add_edge(v, "t", capacity=m * q + 2 * p - q * g.degree(v))
    for u, v in g.edges():
        net.add_edge(u, v, capacity=q)
        net.add_edge(v, u, capacity=q)
    value, (side, _) = nx.minimum_cut(net, "s", "t")
    return value, side - {"s"}


@settings(SETTINGS, max_examples=60)
@given(graphs((10, 60), (0.8, 1.5, 2.5, 4)))
def test_mad_exact_matches_networkx_min_cut(g):
    if g.m == 0:
        return
    w = mad_exact(g)
    inner = sum(1 for u, v in g.edges() if u in w.vertices and v in w.vertices)
    assert w.density == Fraction(inner, len(w.vertices)) == w.mad / 2
    # at the mad no set is denser: the cut keeps every source arc
    value, _ = goldberg_min_cut(g, w.density)
    assert value == g.m * g.n * w.density.denominator
    # just below it, only maximum-density sets beat the threshold (two
    # densities with denominators <= n differ by more than 1/n^2)
    below = w.density - Fraction(1, g.n * g.n)
    value, side = goldberg_min_cut(g, below)
    assert value < g.m * g.n * below.denominator
    inner = sum(1 for u, v in g.edges() if u in side and v in side)
    assert side and Fraction(inner, len(side)) == w.density
