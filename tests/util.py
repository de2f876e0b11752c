"""Shared helpers for the test suite: random graphs and independent oracles."""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from itertools import combinations, permutations

from oddcolor import (
    Graph,
    PaletteExhaustedError,
    ReductionExhaustedError,
    ReductionRecord,
    Violation,
    subdivide,
)
from oddcolor.constructive import _Reducer
from oddcolor.graph import _contract


# DIMACS errors name the line and the file's own 1-based vertices
DIMACS_ERRORS = [
    ("p edge 3 1\ne 1 4\n", "line 2: vertex 4 is not in 1..3"),
    ("p edge 3 1\ne 0 1\n", "line 2: vertex 0 is not in 1..3"),
    ("p edge 3 1\ne 2 2\n", "line 2: self-loop at vertex 2"),
    ("p edge 3 2\ne 1 2\ne 2 1\n", "line 3: duplicate edge (1, 2)"),
    ("p edge 3 2\ne 3 1\ne 1 3\n", "line 3: duplicate edge (1, 3)"),
    ("p edge -1 0\n", "line 1: expected 'p edge n m'"),
    ("p edge 3 -1\n", "line 1: expected 'p edge n m'"),
]


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


def disjoint_union(*graphs: Graph) -> Graph:
    """The graphs side by side, each shifted past the vertices of those before it."""
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges()]
        offset += g.n
    return Graph(offset, edges)


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


class ReferenceDinic:
    """Dinic's max flow, built one arc at a time and run phase by phase from
    the first BFS on, with the DFS restarted at the source after each
    augmenting path: an oracle for sparsity._Dinic, which starts from the
    first phase's flow in closed form.  Arc eid's residual twin is eid ^ 1."""

    def __init__(self, size: int):
        self.size = size
        self.head: list[list[int]] = [[] for _ in range(size)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.level: list[int] = []
        self.phase_flows: list[int] = []  # the flow each phase carried, first phase first

    def add_edge(self, u: int, v: int, c: int) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def _levels(self, s: int) -> list[int]:
        level = [-1] * self.size
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for eid in self.head[u]:
                v = self.to[eid]
                if self.cap[eid] > 0 and level[v] == -1:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level

    def _augment(self, s: int, t: int, level: list[int], it: list[int]) -> int:
        path: list[int] = []
        u = s
        while True:
            if u == t:
                pushed = min(self.cap[eid] for eid in path)
                for eid in path:
                    self.cap[eid] -= pushed
                    self.cap[eid ^ 1] += pushed
                return pushed
            moved = False
            while it[u] < len(self.head[u]):
                eid = self.head[u][it[u]]
                v = self.to[eid]
                if self.cap[eid] > 0 and level[v] == level[u] + 1:
                    path.append(eid)
                    u = v
                    moved = True
                    break
                it[u] += 1
            if not moved:
                level[u] = -1
                if not path:
                    return 0
                eid = path.pop()
                u = self.to[eid ^ 1]
                it[u] += 1

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while True:
            level = self._levels(s)
            if level[t] == -1:
                self.level = level
                return total
            it = [0] * self.size
            self.phase_flows.append(0)
            while pushed := self._augment(s, t, level, it):
                total += pushed
                self.phase_flows[-1] += pushed


def reference_goldberg(g: Graph, d: Fraction) -> tuple[ReferenceDinic, bool]:
    """Goldberg's network at d = p/q on the kernel of g (as sparsity._goldberg
    documents it: four arcs per kernel vertex, source arc first, then four
    per kept chain between two vertices) after ReferenceDinic's max flow,
    and whether that flow saturates the source arcs."""
    p, q = d.numerator, d.denominator
    if d >= 1:
        _, vertices, chains, _ = _contract(g)
    else:
        vertices, chains = list(range(g.n)), [[u, v] for u, v in g.edges()]
    node = {v: i + 1 for i, v in enumerate(vertices)}
    t = len(vertices) + 1
    load = [0] * t
    kept = []
    for path in chains:
        weight = q * (len(path) - 1) - p * (len(path) - 2)
        if weight > 0:
            a, b = node[path[0]], node[path[-1]]
            load[a] += weight
            load[b] += weight
            if a != b:
                kept.append((a, b, weight))
    net = ReferenceDinic(t + 1)
    for v in range(1, t):
        net.add_edge(0, v, g.m * q)
        net.add_edge(v, t, g.m * q + 2 * p - load[v])
    for a, b, weight in kept:
        net.add_edge(a, b, weight)
        net.add_edge(b, a, weight)
    return net, net.max_flow(0, t) == g.m * q * len(vertices)


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


def brute_force_mad(g: Graph) -> Fraction:
    """Maximize 2|E(G[S])|/|S| over all non-empty vertex subsets (n <= 20)."""
    if not 1 <= g.n <= 20:
        raise ValueError("brute-force mad is guarded to 1 <= n <= 20")
    masks = [0] * g.n
    for u, v in g.edges():
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    best_e, best_s = 0, 1
    for sub in range(1, 1 << g.n):
        e = 0
        rest = sub
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            e += (masks[v] & sub & (low - 1)).bit_count()
        size = sub.bit_count()
        if e * best_s > best_e * size:
            best_e, best_s = e, size
    return Fraction(2 * best_e, best_s)


def brute_force_odd_chromatic(g: Graph) -> int:
    """Least k for which enumerating proper k-colorings finds an odd one.
    Guarded to n <= 8 and k <= 6."""
    if not 0 <= g.n <= 8:
        raise ValueError("brute force is guarded to n <= 8")
    if g.n == 0:
        return 0
    if g.m == 0:
        return 1
    nbrs = [g.neighbors(v) for v in range(g.n)]

    def exists(k: int) -> bool:
        cols = [0] * g.n

        def rec(v: int) -> bool:
            if v == g.n:
                return odd_coloring_by_definition(g, cols)
            for c in range(1, k + 1):
                if any(cols[w] == c for w in nbrs[v] if w < v):
                    continue  # properness pruning only; odd check at leaves
                cols[v] = c
                if rec(v + 1):
                    return True
            cols[v] = 0
            return False

        return rec(0)

    for k in range(1, min(g.n, 6) + 1):
        if exists(k):
            return k
    raise ValueError("brute force is guarded to chromatic values <= 6")


def chromatic_number(g: Graph) -> int:
    """Proper chromatic number by plain backtracking in index order (n <= 12)."""
    if g.n > 12:
        raise ValueError("chromatic_number is guarded to n <= 12")
    nbrs = [g.neighbors(v) for v in range(g.n)]
    cols = [0] * g.n

    def rec(v: int, k: int) -> bool:
        if v == g.n:
            return True
        for c in range(1, k + 1):
            if all(cols[w] != c for w in nbrs[v]):
                cols[v] = c
                if rec(v + 1, k):
                    return True
        cols[v] = 0
        return False

    return next(k for k in range(g.n + 1) if rec(0, k))


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


def violations_by_counting(g: Graph, cols: list[int]) -> list[Violation]:
    """Every violation of a total coloring, found by counting each
    neighbourhood's color classes with no parity shortcut: the improper
    edges (u, v), u < v, in sorted order, then the non-isolated vertices
    whose classes all have even size, in order."""
    violations = [Violation("improper-edge", (u, v)) for u, v in g.edges() if cols[u] == cols[v]]
    for v in range(g.n):
        nbs = g.neighbors(v)
        if not nbs:
            continue
        counts: dict[int, int] = {}
        for w in nbs:
            counts[cols[w]] = counts.get(cols[w], 0) + 1
        if not any(c % 2 == 1 for c in counts.values()):
            violations.append(Violation("no-odd-color", v))
    return violations


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


def roadmap_corpus(n: int, seed: int = 1) -> Graph:
    """floor(3n/2) distinct random edges on n vertices, drawn by rejection
    sampling from random.Random(seed), then subdivided: V = n + floor(3n/2)."""
    rng = random.Random(seed)
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < 3 * n // 2:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            chosen.add((min(u, v), max(u, v)))
    return subdivide(Graph(n, sorted(chosen)))


# two adjacent 4-vertices sharing a degree-2 neighbor (vertex 4), closed by
# a mirrored pair so no cheaper configuration of the 5-color engine exists
ADJACENT_4V_GRAPH = Graph(10, [(0, 1), (0, 4), (1, 4), (0, 5), (0, 6), (1, 7), (1, 8),
                               (2, 3), (2, 9), (3, 9), (2, 5), (2, 6), (3, 7), (3, 8)])


def frontiers(g: Graph, records: list) -> list[dict[int, tuple[int, ...]]]:
    """Per record, each deleted vertex mapped to its neighbours that survive
    the deletion, in adjacency order, found by tracking the alive vertices
    forward through the sequence."""
    alive = [True] * g.n
    out = []
    for rec in records:
        for v in rec.deleted:
            alive[v] = False
        out.append({v: tuple(w for w in g.neighbors(v) if alive[w]) for v in rec.deleted})
    return out


def guards(g: Graph, records: list) -> list[tuple[int, ...]]:
    """Per record, the surviving neighbours of a 3v-weak-pair center whose
    unique odd color the center protects (() for every other kind): those
    of degree 4 or more just before the deletion, in adjacency order, or
    the one survivor when there is only one.  Found by tracking the alive
    vertices forward through the sequence; records stored this tuple as
    protect until the replay derived it from the coloring."""
    alive = [True] * g.n
    out = []
    for rec in records:
        v = rec.deleted[0]
        surv = [u for u in g.neighbors(v) if alive[u] and u not in rec.deleted]
        if rec.kind == "3v-weak-pair":
            degree = {u: sum(map(alive.__getitem__, g.neighbors(u))) for u in surv}
            out.append(tuple(u for u in surv if len(surv) == 1 or degree[u] >= 4))
        else:
            out.append(())
        for u in rec.deleted:
            alive[u] = False
    return out


def replay_by_sets(g: Graph, records: list, k: int) -> list[int]:
    """Colors from replaying an engine's records in reverse, with avoid sets
    and odd-color sets held as Python sets: an oracle for
    constructive._replay, which holds both as bit masks and reads each
    record's survivors and 3v-weak-pair guard off the coloring, where this
    reads them from frontiers() and guards().  Each vertex takes the
    smallest color in 1..k outside its avoid set; a vertex's unique odd
    color is the one color of odd multiplicity among its colored neighbors,
    when there is exactly one."""
    col = [0] * g.n
    odd: list[set[int]] = [set() for _ in range(g.n)]

    def unique(x: int) -> set[int]:
        return odd[x] if len(odd[x]) == 1 else set()

    def assign(v: int, avoid: set[int]) -> None:
        c = next((c for c in range(1, k + 1) if c not in avoid), None)
        if c is None:
            raise PaletteExhaustedError(f"all {k} colors forbidden by {sorted(avoid)}")
        if any(col[w] == c for w in g.neighbors(v)):
            raise ValueError(f"color {c} on {v} clashes with a neighbor")
        col[v] = c
        for w in g.neighbors(v):
            odd[w] ^= {c}

    for rec, front, guard in reversed(list(zip(records, frontiers(g, records),
                                               guards(g, records)))):
        if rec.kind == "adjacent-4v":
            v, w, *twos = rec.deleted
            assign(v, {col[x] for u in twos if g.has_edge(u, v) for x in front[u]})
            assign(w, {col[v]} | {col[x] for u in twos if g.has_edge(u, w) for x in front[u]})
            for u in twos:
                anchors = [*front[u], *(q for q in (v, w) if g.has_edge(u, q))]
                assign(u, {col[p] for p in anchors}.union(*map(unique, anchors)))
            continue
        protect_surv, dodge_center, dodge_lone = {
            "leaf": (True, False, False),
            "three-vertex": (True, False, False),
            "3v-with-2nbr": (True, False, False),
            "5v-five-2nbrs": (True, False, False),
            "adjacent-2": (True, False, True),
            "4v-three-2nbrs": (True, False, True),
            "star": (True, True, False),
            "3v-weak-pair": (False, False, True),
            "4v-weak": (False, True, False),
        }[rec.kind]
        v, ws = rec.deleted[0], rec.deleted[1:]
        surv = front[v]
        avoid = {col[x] for near in front.values() for x in near}
        assign(v, avoid.union(*map(unique, surv if protect_surv else guard)))
        for w in ws:
            (x,) = front[w]
            avoid = {col[v], col[x]} | unique(x)
            if dodge_center:
                avoid |= unique(v)
            if dodge_lone and len(surv) == 1:
                avoid.add(col[surv[0]])
            assign(w, avoid)
    return col


def reduction_records_by_scan(g: Graph, rules, eps=None) -> list:
    """An engine's deletion sequence by rescanning the whole graph per record.

    rules is an engine's rule table.  The lowest alive vertex of degree
    below 2, if any, is the next record, a leaf.  Otherwise, for each rule
    in order, every alive vertex of the rule's degrees is tried in index
    order and the first match is the next record.  A keyed rule (the eps
    star) is tried only at the vertex of least charge
    deg(v) - (1 - eps/2) * (number of 2-neighbors), lowest index on ties,
    computed here from scratch; its match returns None above the charge
    bound, and then no rule matches.  The _Reducer here has no rules, so it
    fills no heap: it only keeps the alive mask and degrees.
    """
    st = _Reducer(g, ())
    records = []

    def scan(rule):
        centers = [v for v in range(g.n) if st.alive[v] and st.deg[v] in rule.degrees]
        if rule.key is None:
            return next(filter(None, (rule.match(st, v) for v in centers)), None)
        if not centers:
            return None
        x = 1 - Fraction(eps) / 2

        def charge(v):
            return st.deg[v] - x * sum(1 for w in st.nbrs(v) if st.deg[w] == 2)

        return rule.match(st, min(centers, key=charge))

    while st.remaining:
        leaf = next((v for v in range(g.n) if st.alive[v] and st.deg[v] < 2), None)
        if leaf is not None:
            rec = ReductionRecord("leaf", (leaf,))
        else:
            rec = next(filter(None, map(scan, rules)), None)
        if rec is None:
            raise ReductionExhaustedError("no reducible configuration in a non-empty graph")
        records.append(rec)
        st.delete(rec.deleted)
    return records
