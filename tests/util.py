"""Shared helpers for the test suite: random graphs and independent oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations

from oddcolor import Graph


def all_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def random_graph(rng: random.Random, n: int, m: int) -> Graph:
    pairs = all_pairs(n)
    return Graph(n, rng.sample(pairs, min(m, len(pairs))))


def random_forest(rng: random.Random, n: int, keep: float = 0.9) -> Graph:
    edges = [(rng.randrange(i), i) for i in range(1, n) if rng.random() < keep]
    return Graph(n, edges)


def relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def brute_force_girth(g: Graph) -> int | None:
    """Shortest cycle length by enumerating all vertex sequences (n <= 8)."""
    assert g.n <= 8
    for length in range(3, g.n + 1):
        for subset in combinations(range(g.n), length):
            first = subset[0]
            for perm in permutations(subset[1:]):
                cyc = (first,) + perm
                if all(g.has_edge(cyc[i], cyc[(i + 1) % length]) for i in range(length)):
                    return length
    return None


def brute_force_densest_union(g: Graph) -> tuple[int, ...]:
    """Union of all maximum-density vertex sets, by enumerating every subset."""
    assert 1 <= g.n <= 12
    best, union = Fraction(-1), 0
    for mask in range(1, 1 << g.n):
        inner = sum(1 for u, v in g.edges() if mask >> u & 1 and mask >> v & 1)
        density = Fraction(inner, mask.bit_count())
        if density > best:
            best, union = density, mask
        elif density == best:
            union |= mask
    return tuple(v for v in range(g.n) if union >> v & 1)


def degeneracy_order_by_scan(g: Graph) -> list[int]:
    """Smallest-last order by an O(n) minimum-degree scan per removed vertex
    (ties by lowest index)."""
    deg = list(g.degrees())
    alive = [True] * g.n
    removed = []
    for _ in range(g.n):
        best = -1
        for v in range(g.n):
            if alive[v] and (best == -1 or deg[v] < deg[best]):
                best = v
        alive[best] = False
        removed.append(best)
        for w in g.neighbors(best):
            if alive[w]:
                deg[w] -= 1
    removed.reverse()
    return removed


def odd_coloring_by_definition(g: Graph, cols: list[int]) -> bool:
    """From-scratch quantifier version of the odd-coloring condition."""
    for u, v in g.edges():
        if cols[u] == cols[v]:
            return False
    for v in range(g.n):
        nbs = g.neighbors(v)
        if not nbs:
            continue
        counts: dict[int, int] = {}
        for w in nbs:
            counts[cols[w]] = counts.get(cols[w], 0) + 1
        if not any(c % 2 == 1 for c in counts.values()):
            return False
    return True


def partial_subdivide(rng: random.Random, g: Graph, prob: float) -> Graph:
    """Subdivide each edge independently with the given probability.

    Produces degree-2 vertices hanging off higher-degree ones, the shape
    that drives the reduction engines' rarer configurations.
    """
    edges: list[tuple[int, int]] = []
    nxt = g.n
    for u, v in g.edges():
        if rng.random() < prob:
            edges.append((u, nxt))
            edges.append((v, nxt))
            nxt += 1
        else:
            edges.append((u, v))
    return Graph(nxt, edges)


def certified_graphs(rng, count, accept, n_range, m_per_n, extra=()):
    """Random graphs passing the `accept` predicate, prefixed by `extra`."""
    out = list(extra)
    while len(out) < count:
        n = rng.randint(*n_range)
        lo, hi = m_per_n
        m = rng.randint(int(lo * n), int(hi * n))
        g = random_graph(rng, n, m)
        if accept(g):
            out.append(g)
    return out
