"""Property tests against independent oracles (hypothesis, networkx).

Both libraries are test-side only; the package itself imports neither.
Examples are derandomized so the suite gives the same verdict every run.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.flow import edmonds_karp

from oddcolor import (
    Graph,
    PaletteExhaustedError,
    color_auto,
    color_eps,
    color_five,
    color_forest,
    color_six,
    fractional_orientation,
    gen_kstar,
    girth,
    is_odd_coloring,
    mad_exact,
    subdivide,
)
from oddcolor import constructive, sparsity
from oddcolor.graph import _contract

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


@st.composite
def kernel_graphs(draw, n_max):
    """Graphs with every shape the density kernel peels or contracts, on at
    most n_max vertices: a random core with some edges subdivided into
    chains, parallel chains, chains that return to their start, cycle
    components, isolated vertices, pendant trees and pendant paths."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    k = rng.randint(2, 6)
    edges: list[tuple[int, int]] = []
    used: list[tuple[int, int]] = []
    nxt = k

    def chain(u, v, length):
        # a path of `length` edges from u to v through fresh vertices, if they fit
        nonlocal nxt
        if nxt + length - 1 > n_max:
            return False
        walk = [u, *range(nxt, nxt + length - 1), v]
        nxt += length - 1
        edges.extend(zip(walk, walk[1:]))
        return True

    for u, v in util.all_pairs(k):
        if rng.random() < 0.6:
            chain(u, v, rng.choice((1, 1, 2, 3, 4))) or chain(u, v, 1)
            used.append((u, v))
    for _ in range(rng.randint(0, 2)):
        if used:
            chain(*rng.choice(used), rng.randint(2, 4))  # parallel to a chain or edge
    for _ in range(rng.randint(0, 2)):
        u = rng.randrange(k)
        chain(u, u, rng.randint(3, 5))  # back to its start
    length = rng.randint(3, 5)
    if rng.random() < 0.4 and nxt + length <= n_max:
        nxt += 1
        chain(nxt - 1, nxt - 1, length)  # a cycle component
    for _ in range(rng.randint(0, 5)):
        if nxt < n_max:  # a pendant path when it hangs off the last one, else a tree
            edges.append((nxt - 1 if rng.random() < 0.5 else rng.randrange(nxt), nxt))
            nxt += 1
    return Graph(min(n_max, nxt + rng.randint(0, 2)), edges)


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


@settings(SETTINGS, max_examples=80)
@given(kernel_graphs(14), st.integers(1, 24), st.integers(1, 7))
def test_orientation_through_contracted_chains(g, num, den):
    # alpha/2 = 1, 10/7 (chains of 2 and 3 edges kept, 4 dropped), 3/2 (2
    # kept, 3 at weight 0), 2 (2 at weight 0), the mad and a drawn value
    mad = util.brute_force_mad(g)
    for alpha in (2, Fraction(20, 7), 3, 4, mad, Fraction(num, den)):
        fo = fractional_orientation(g, alpha)
        assert (fo is not None) == (mad <= alpha)
        if fo is None:
            continue
        assert list(fo.weights) == list(g.edges())
        indeg = [Fraction(0)] * g.n
        for (u, v), w in fo.weights.items():
            assert 0 <= w <= 1
            indeg[v] += w
            indeg[u] += 1 - w
        assert tuple(indeg) == fo.indegree
        assert all(d <= Fraction(alpha) / 2 for d in indeg)


def goldberg_network(g: Graph, d: Fraction) -> nx.DiGraph:
    """Goldberg's densest-subgraph network at density d on the whole graph."""
    p, q, m = d.numerator, d.denominator, g.m
    net = nx.DiGraph()
    for v in range(g.n):
        net.add_edge("s", v, capacity=m * q)
        net.add_edge(v, "t", capacity=m * q + 2 * p - q * g.degree(v))
    for u, v in g.edges():
        net.add_edge(u, v, capacity=q)
        net.add_edge(v, u, capacity=q)
    return net


def goldberg_min_cut(g: Graph, d: Fraction) -> tuple[int, set[int]]:
    """Min cut of Goldberg's densest-subgraph network at density d, by
    networkx, with the graph vertices on its source side."""
    value, (side, _) = nx.minimum_cut(goldberg_network(g, d), "s", "t")
    return value, side - {"s"}


def minimal_source_side(g: Graph, d: Fraction) -> tuple[int, set[int]]:
    """Max-flow value of Goldberg's full network at d (networkx), and the
    graph vertices reachable from the source in its residual network: the
    source side of the minimal min cut.  (nx.minimum_cut returns the
    maximal one: everything that cannot reach the sink.)"""
    residual = edmonds_karp(goldberg_network(g, d), "s", "t")
    seen, stack = {"s"}, ["s"]
    while stack:
        u = stack.pop()
        for v, arc in residual[u].items():
            if arc["flow"] < arc["capacity"] and v not in seen:
                seen.add(v)
                stack.append(v)
    return residual.graph["flow_value"], seen - {"s"}


@settings(SETTINGS, max_examples=150)
@given(kernel_graphs(40), st.integers(0, 30), st.integers(1, 9))
def test_kernel_finds_the_minimal_cut_of_the_full_network(g, num, den):
    # 1, 10/7 and a drawn value, and the densities 2, 3/2 and 4/3 at which
    # chains of 2, 3 and 4 edges weigh exactly 0
    for d in (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(4, 3), Fraction(10, 7),
              Fraction(num, den)):
        value, side = minimal_source_side(g, d)
        found = sparsity._denser_subgraph(g, d)
        assert found == (sorted(side) or None)
        assert (found is None) == (value == g.m * g.n * d.denominator)


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


def reduction_outcome(reduce, g, *args):
    try:
        return reduce(g, *args)
    except constructive.ReductionExhaustedError as exc:
        return f"raised: {exc}"


def assert_reductions_match_the_rescan(g):
    # the candidate heaps give the rescan's records, or fail where it fails
    # (graphs outside an engine's band included)
    engines = [(constructive._SIX, None), (constructive._FIVE, None)]
    for eps in (Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(8, 5)):
        engines.append((constructive._eps_engine(eps)[0], eps))
    for rules, eps in engines:
        got = reduction_outcome(constructive._reduce_all, g, rules)
        assert got == reduction_outcome(util.reduction_records_by_scan, g, rules, eps)


@settings(SETTINGS, max_examples=150)
@given(graphs((4, 40), (0.8, 1, 1.5, 2, 2.5, 3), subdivide=True))
def test_reduction_order_on_partial_subdivisions(g):
    assert_reductions_match_the_rescan(g)


@settings(SETTINGS, max_examples=100)
@given(kernel_graphs(40))
def test_reduction_order_on_kernel_graphs(g):
    assert_reductions_match_the_rescan(g)


def replay_by_masks(g, records, k):
    col, odd, ncol = [0] * g.n, [0] * g.n, [0] * g.n
    for rec in reversed(records):
        constructive._replay(col, odd, ncol, k, rec, g._adj)
    return col


def replay_outcome(replay, g, records, k):
    try:
        return replay(g, records, k)
    except (PaletteExhaustedError, ValueError) as exc:
        return f"raised: {type(exc).__name__}"


def assert_replays_match_the_sets(g):
    # the package's bit-mask replay colors every record as the set-based
    # oracle does, on all three engines; returns the record kinds replayed
    engines = [(constructive._FIVE, 5), (constructive._SIX, 6)]
    engines += [constructive._eps_engine(eps) for eps in (Fraction(1, 2), Fraction(1), Fraction(8, 5))]
    kinds = set()
    for rules, k in engines:
        try:
            records = constructive._reduce_all(g, rules)
        except constructive.ReductionExhaustedError:
            continue
        got = replay_outcome(replay_by_masks, g, records, k)
        assert got == replay_outcome(util.replay_by_sets, g, records, k)
        kinds.update(r.kind for r in records)
    return kinds


@settings(SETTINGS, max_examples=100)
@given(graphs((4, 40), (0.8, 1, 1.5, 2, 2.5, 3), subdivide=True))
def test_mask_replay_on_partial_subdivisions(g):
    assert_replays_match_the_sets(g)


@settings(SETTINGS, max_examples=60)
@given(kernel_graphs(40))
def test_mask_replay_on_kernel_graphs(g):
    assert_replays_match_the_sets(g)


def test_mask_replay_covers_adjacent_four_and_star():
    # the five engine meets adjacent-4v, the eps engine star
    kinds = assert_replays_match_the_sets(util.ADJACENT_4V_GRAPH)
    kinds |= assert_replays_match_the_sets(gen_kstar(6))
    assert {"adjacent-4v", "star"} <= kinds


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


@st.composite
def walk_graphs(draw):
    """Graphs for the breadth-first walks: G(n, m) with isolated vertices,
    random forests, and partly or fully subdivided graphs (fully: bipartite,
    often disconnected)."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["sparse", "forest", "subdivided"]))
    n = draw(st.integers(0, 30))
    if kind == "forest":
        return util.random_forest(rng, n, rng.choice((0.5, 0.9, 1)))
    g = util.random_graph(rng, n, rng.randint(0, 2 * n))
    return util.partial_subdivide(rng, g, rng.choice((0.5, 1))) if kind == "subdivided" else g


@settings(SETTINGS, max_examples=200)
@given(walk_graphs())
def test_components_and_bipartition_match_networkx(g):
    h = to_networkx(g)
    comps = sorted(sorted(c) for c in nx.connected_components(h))
    assert g.components() == comps
    side = g.bipartition()
    assert (side is None) == (not nx.is_bipartite(h))
    if side is not None:
        assert set(side) <= {0, 1} and all(side[u] != side[v] for u, v in g.edges())
        assert all(side[c[0]] == 0 for c in comps)


@st.composite
def dispatch_graphs(draw):
    """Graphs for the dispatch tests, n >= 1: random ones with m < n
    ("sparse") or m >= n ("dense"), random forests, random bipartite
    graphs, and bipartite graphs in which every vertex of even positive
    degree gets a pendant leaf, so that every degree is 0 or odd."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["sparse", "dense", "forest", "bipartite", "odd-bipartite"]))
    n = draw(st.integers(1 if kind != "dense" else 3, 14))
    if kind == "sparse":
        return util.random_graph(rng, n, rng.randint(0, n - 1))
    if kind == "dense":
        return util.random_graph(rng, n, rng.randint(n, n * (n - 1) // 2))
    if kind == "forest":
        return util.random_forest(rng, n, rng.choice((0.5, 0.9, 1)))
    a = rng.randint(1, n)  # sides 0..a-1 and a..n-1
    edges = [(u, v) for u in range(a) for v in range(a, n) if rng.random() < 0.4]
    if kind == "odd-bipartite":
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        evens = [v for v in range(n) if degree[v] and degree[v] % 2 == 0]
        edges += [(v, n + i) for i, v in enumerate(evens)]
        n += len(evens)
    return Graph(n, edges)


@settings(SETTINGS, max_examples=300)
@given(dispatch_graphs())
def test_two_color_case_matches_networkx(g):
    h = to_networkx(g)
    two_color = nx.is_bipartite(h) and all(d == 0 or d % 2 == 1 for _, d in h.degree())
    assert (constructive.classify_small(g) is not None) == two_color


@settings(SETTINGS, max_examples=300)
@given(dispatch_graphs())
def test_is_forest_matches_networkx(g):
    assert g.is_forest() == nx.is_forest(to_networkx(g))


# chains of up to 10 edges, pendant trees, parallel chains, cycle components
KERNEL_SHAPES = st.one_of(
    kernel_graphs(40),
    st.builds(subdivide, kernel_graphs(30)),
    graphs((1, 30), (0.5, 1, 1.2, 1.5, 2), subdivide=True),
)


@settings(SETTINGS, max_examples=300)
@given(KERNEL_SHAPES)
def test_kernel_matches_networkx(g):
    peeled, branch, chains, cycles = _contract(g)
    h = to_networkx(g)
    core = nx.k_core(h, 2)
    assert sorted(v for v, _ in peeled) == sorted(set(h) - set(core))
    when = {v: i for i, (v, _) in enumerate(peeled)}
    for v, left in peeled:  # left: v's one neighbour in the core or peeled after v
        assert {w for w in h[v] if when.get(w, g.n) > when[v]} == ({left} - {-1})
    assert list(branch) == sorted(v for v in core if core.degree(v) >= 3)
    walked = Counter()
    for path in chains:
        assert {path[0], path[-1]} <= set(branch)
        assert all(core.degree(x) == 2 for x in path[1:-1])
        walked.update(frozenset(e) for e in zip(path, path[1:]))
    plain = [c for c in nx.connected_components(core) if all(core.degree(v) == 2 for v in c)]
    assert [set(walk) for walk in cycles] == sorted(plain, key=min)
    for walk in cycles:  # closed, from its smallest vertex to the smaller neighbour
        assert walk[0] == walk[-1] == min(walk) and walk[1] == min(core[walk[0]])
        assert len(walk) == len(set(walk)) + 1
        walked.update(frozenset(e) for e in zip(walk, walk[1:]))
    # every core edge on exactly one chain or cycle
    assert walked == Counter(frozenset(e) for e in core.edges())
    assert g.is_forest() == (not core)
    assert g.is_cycle() == (g.n > 0 and nx.is_connected(h) and all(d == 2 for _, d in h.degree()))


@settings(SETTINGS, max_examples=300)
@given(KERNEL_SHAPES)
def test_girth_matches_networkx(g):
    want = nx.girth(to_networkx(g))
    assert girth(g) == (None if want == math.inf else want)
