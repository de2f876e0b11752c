"""Exact maximum average degree, densest-subgraph witnesses, orientations.

Everything here is exact: densities and orientation weights are rational
(`fractions.Fraction`), and the max-flow core only ever sees integer
capacities obtained by clearing denominators.  Floating point is not used
in this module.

The densest-subgraph machinery is the classical flow reduction (Goldberg
1984): for a density guess d = p/q, build a network with source arcs of
capacity m*q into every vertex, sink arcs of capacity m*q + 2p - q*deg(v),
and arcs of capacity q both ways across every edge.  A minimum cut then
equals q*(m*n) - 2*max_S (q*|E(S)| - p*|S|), so the cut is strictly below
the all-source-arcs value exactly when some vertex set S has density above
d, and the source side of the canonical (minimal) min cut is such an S.
That one flow answers every threshold question here; when it saturates
the source arcs, its edge flows are a fractional orientation with every
indegree at most d (Hakimi 1965).  The exact mad is a Dinkelbach (1967)
iteration of it that jumps from each found set's density to the next.
Dinic's first two phases on this network are known in closed form.  The
first sends min(source, sink capacity) along each s->v->t: every vertex
sits at level 1 and the sink at 2.  After it, a vertex with source
capacity left has a full sink arc, so when the sink is on level 3 the
second phase's paths are exactly s->a->b->t, a with source and b with sink
capacity left, taken greedily in the order of Dinic's depth-first search:
a in source-arc order, then a's chain arcs in theirs.  Both flows are
written in place as the arcs are built; when the sink is not on level 3,
that greedy pass finds no path and Dinic runs the second phase itself.

From d = 1 on, the flow runs on a kernel of the graph instead, with the
same answer.  It does not depend on d: graph.py builds it once per graph
(graph._contract) for every flow, girth and the forest and cycle tests.
Take the minimal maximiser S of q*|E(S)| - p*|S|.  A vertex with at most
one neighbour in S adds at most q - p <= 0, so every vertex of S has two
neighbours in S and S lies in the 2-core (Batagelj & Zaversnik 2003).  In
the core, a chain of L edges whose L - 1 inner vertices have core degree 2
is either wholly in S with both ends or not in S at all, and then adds
q*L - p*(L - 1).  So the kernel keeps only the branch vertices (core
degree 3 or more) and makes each chain one edge of that weight between its
ends: parallel chains add up, a chain back to its start is a vertex weight,
and a chain of weight <= 0 is dropped, as is a core component that is a
plain cycle (its L edges never beat p*L).  Goldberg's network takes edge
and vertex weights as they are, the vertex weights lowering the sink
capacities; its minimal cut, lifted with the inner vertices of each kept
chain whose ends are both in it, is S.  On the graphs of the paper's
classes, mostly degree-2 paths and pendant trees, the kernel is a fraction
of the graph.  Below d = 1 the kernel is the graph itself, every edge a
chain of one edge, so the network is Goldberg's original.  An orientation
is rebuilt along each chain in one pass: the inner vertices of a kept
chain take d each and its ends split the rest as the flow on its edge
says, those of a dropped chain of L edges take L/(L - 1) <= d each, a
peeled tree edge points into the vertex peeled off, and a plain cycle
takes 1/2 each way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .graph import Graph, _contract


@dataclass(frozen=True)
class DensestWitness:
    """A maximum-density vertex set: density = |E(G[S])| / |S|, mad = 2*density."""

    vertices: tuple[int, ...]
    density: Fraction
    mad: Fraction


@dataclass(frozen=True)
class FractionalOrientation:
    """Per-edge split of weight 1 between the two directions.

    weights maps each edge (u, v) with u < v to the weight oriented toward
    v; the weight toward u is 1 minus that.  indegree[v] is the total
    weight oriented into v.
    """

    weights: dict[tuple[int, int], Fraction]
    indegree: tuple[Fraction, ...]


class _Dinic:
    """Max flow on integer capacities (Dinic's algorithm, iterative DFS).
    The caller fills head[u] (arc ids out of u, in the order the DFS tries
    them), to and cap (residual capacity); arc eid's reverse twin is eid ^ 1."""

    def __init__(self, size: int):
        self.size = size
        self.head: list[list[int]] = [[] for _ in range(size)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.level: list[int] = []  # the last BFS of max_flow; -1: unreached

    def flow_on(self, eid: int) -> int:
        return self.cap[eid ^ 1]

    def _levels(self, s: int) -> list[int]:
        head, to, cap = self.head, self.to, self.cap
        level = [-1] * self.size
        level[s] = 0
        queue = [s]
        for u in queue:  # grows as it is read: breadth-first order
            below = level[u] + 1
            for eid in head[u]:
                v = to[eid]
                if cap[eid] > 0 and level[v] == -1:
                    level[v] = below
                    queue.append(v)
        return level

    def _augment(self, s: int, t: int, level: list[int], it: list[int]) -> int:
        head, to, cap = self.head, self.to, self.cap
        path: list[int] = []
        u = s
        while u != t:
            arcs, i, below = head[u], it[u], level[u] + 1
            n = len(arcs)
            while i < n:
                eid = arcs[i]
                if cap[eid] > 0 and level[to[eid]] == below:
                    break
                i += 1
            it[u] = i
            if i < n:
                path.append(eid)
                u = to[eid]
                continue
            level[u] = -1
            if not path:
                return 0
            u = to[path.pop() ^ 1]
            it[u] += 1
        pushed = min([cap[eid] for eid in path])
        for eid in path:
            cap[eid] -= pushed
            cap[eid ^ 1] += pushed
        return pushed

    def max_flow(self, s: int, t: int, total: int) -> int:
        """Value of a maximum s-t flow, given the value `total` of the flow
        already in the network.  The last BFS, the one that no longer
        reaches t, stays in self.level: its reached vertices are the source
        side of the minimal min cut."""
        while True:
            level = self._levels(s)
            if level[t] == -1:
                self.level = level
                return total
            it = [0] * self.size
            while pushed := self._augment(s, t, level, it):
                total += pushed


@dataclass
class _Network:
    """Goldberg's network at density d on the kernel of a graph, after a max
    flow, with what the flow needs to be read back on the graph.

    Network node i + 1 is kernel vertex vertices[i]; 0 is the source and
    len(vertices) + 1 the sink.  kept lists the chains (vertex paths between
    kernel vertices) of positive weight with that weight, dropped the other
    chains, and peeled is the kernel's (graph._Kernel).
    """

    d: Fraction
    net: _Dinic
    saturated: bool
    vertices: Sequence[int]
    kept: list[tuple[Sequence[int], int]]
    dropped: list[Sequence[int]]
    peeled: Sequence[tuple[int, int]]


def _goldberg(g: Graph, d: Fraction) -> _Network:
    """Goldberg's network at density d = p/q on the kernel of g, after a max
    flow.  The one flow network of this module; it rejects the empty graph
    and a negative threshold.

    From d = 1 on, the kernel is the 2-core's branch vertices, and a chain
    of L edges becomes one edge of weight q*L - p*(L - 1) between its ends
    (see the module docstring); below 1 it is g itself, every edge a chain
    of weight q.  Kernel vertex v gets a source arc of capacity m*q and a
    sink arc of m*q + 2p minus the weights of the kept chains ending at v (a
    chain that returns to v counts twice: a vertex weight).  Each kept chain
    between two vertices gets an arc of its weight both ways, so parallel
    chains add up.  Arc ids are fixed by construction: four per kernel
    vertex, then four per such chain in kept order.  The network starts
    with the flow of Dinic's first two phases (see the module docstring),
    the same arc for arc, and _Dinic runs the phases after them.
    """
    if g.n == 0:
        raise ValueError("mad of the empty graph is undefined")
    p, q = d.numerator, d.denominator
    if p < 0:
        raise ValueError("density threshold must be non-negative")
    if d >= 1:
        peeled, vertices, chains, _ = _contract(g)
    else:
        peeled, vertices, chains = (), range(g.n), g.edges()
    node = [0] * g.n
    for i, v in enumerate(vertices):
        node[v] = i + 1
    kept, dropped = [], []
    load = [0] * (len(vertices) + 1)
    for path in chains:
        weight = q * (len(path) - 1) - p * (len(path) - 2)
        if weight > 0:
            kept.append((path, weight))
            load[node[path[0]]] += weight
            load[node[path[-1]]] += weight
        else:
            dropped.append(path)
    cap, t = g.m * q, len(vertices) + 1
    net = _Dinic(t + 1)
    head, to, arcs = net.head, net.to, net.cap
    pushed = 0
    for v in range(1, t):  # arcs s->v, v->s, v->t, t->v with the first phase's flow
        e, sink = 4 * v - 4, cap + 2 * p - load[v]
        f = min(cap, sink)
        head[0].append(e)
        head[v] += (e + 1, e + 2)
        head[t].append(e + 3)
        to += (v, 0, t, v)
        arcs += (cap - f, f, sink - f, f)
        pushed += f
    for path, weight in kept:
        a, b = node[path[0]], node[path[-1]]
        if a != b:  # arcs a->b, b->a, b->a, a->b
            e = len(to)
            head[a] += (e, e + 3)
            head[b] += (e + 1, e + 2)
            to += (b, a, a, b)
            arcs += (weight, 0, weight, 0)
    for a in range(1, t):  # the second phase's paths s->a->b->t, in its DFS order
        left = arcs[4 * a - 4]
        for e in head[a][2:] if left else ():  # the chain arcs out of a
            if left and arcs[e] and (f := arcs[4 * to[e] - 2]):  # b = to[e] has sink capacity left
                f = min(left, arcs[e], f)
                for eid in (4 * a - 4, e, 4 * to[e] - 2):
                    arcs[eid] -= f
                    arcs[eid ^ 1] += f
                left -= f
                pushed += f
    saturated = net.max_flow(0, t, pushed) == cap * len(vertices)
    return _Network(d, net, saturated, vertices, kept, dropped, peeled)


def _source_vertices(nw: _Network) -> list[int]:
    """The source side of the minimal min cut of an unsaturated network,
    lifted to the graph: the kernel vertices on it and the inner vertices of
    every kept chain with both ends on it.  A set denser than the threshold."""
    level = nw.net.level
    chosen = [v for i, v in enumerate(nw.vertices) if level[i + 1] != -1]
    if not chosen:
        raise RuntimeError("min cut below saturation must expose a vertex set")
    inside = set(chosen)
    for path, _ in nw.kept:
        if path[0] in inside and path[-1] in inside:
            chosen.extend(path[1:-1])
    return sorted(chosen)


def _orientation(g: Graph, nw: _Network) -> FractionalOrientation:
    """Read a fractional orientation off a saturated network at d = p/q.

    The net flow f from the first end a of a kept chain of weight w to its
    last end b lies in [-w, w] (f = 0 on a chain back to a), so the chain
    gives the non-negative shares (w - f)/2q to a and (w + f)/2q to b.  With
    every source arc full, the net outflow of a kernel vertex is at least
    its load (the weights of the kept chain ends at it) minus 2p, so its
    shares come to at most 2p/2q = d (Hakimi 1965).  The inner vertices of
    kept chains take exactly d, those of a dropped chain of L edges
    L/(L - 1) <= d while its ends take nothing, a peeled edge points fully
    into the vertex peeled off, and a cycle of the core takes 1/2 each way.
    """
    p, q = nw.d.numerator, nw.d.denominator
    toward: dict[tuple[int, int], Fraction] = {}  # (u, v), u < v: weight into v
    share = [0] * g.n  # indegrees in units of 1/2q, except inside dropped chains
    inner_of_dropped: dict[int, Fraction] = {}

    def along(path: Sequence[int], take: int, absorb: int, unit: int) -> None:
        # path[0] takes `take` of the `unit` of its edge, each inner vertex `absorb`
        for u, v in zip(path, path[1:]):
            toward[(u, v) if u < v else (v, u)] = Fraction(unit - take if u < v else take, unit)
            take = absorb - (unit - take)

    for v, left in nw.peeled:
        if left >= 0:
            along([left, v], 0, 0, 1)
            share[v] += 2 * q
    arc = 4 * len(nw.vertices)
    for path, weight in nw.kept:
        flow = 0
        if path[0] != path[-1]:
            flow = nw.net.flow_on(arc) - nw.net.flow_on(arc + 2)
            arc += 4
        along(path, weight - flow, 2 * p, 2 * q)
        share[path[0]] += weight - flow
        share[path[-1]] += weight + flow
        for v in path[1:-1]:
            share[v] = 2 * p
    for path in nw.dropped:
        along(path, 0, len(path) - 1, len(path) - 2)
        for v in path[1:-1]:
            inner_of_dropped[v] = Fraction(len(path) - 1, len(path) - 2)
    half = Fraction(1, 2)
    weights: dict[tuple[int, int], Fraction] = {}
    for u, v in g.edges():
        if (u, v) not in toward:  # on a cycle of the core
            share[u] += q
            share[v] += q
        weights[(u, v)] = toward.get((u, v), half)
    indeg = tuple(inner_of_dropped.get(v) or Fraction(share[v], 2 * q) for v in range(g.n))
    return FractionalOrientation(weights, indeg)


def _denser_subgraph(g: Graph, d: Fraction) -> list[int] | None:
    """Vertex set with density strictly above d, or None if none exists."""
    nw = _goldberg(g, d)
    return None if nw.saturated else _source_vertices(nw)


def subset_density(g: Graph, vertices: Iterable[int]) -> Fraction:
    """Exact |E(G[S])| / |S| for a non-empty vertex set S."""
    vs = set(vertices)
    if not vs:
        raise ValueError("density of the empty set is undefined")
    inner = sum(1 for u, v in g.edges() if u in vs and v in vs)
    return Fraction(inner, len(vs))


def mad_exact(g: Graph) -> DensestWitness:
    """Maximum average degree with a maximum-density witness set.

    Dinkelbach iteration: start at d = m/n and, while some vertex set is
    denser than d, take it as the witness and raise d to its density.  Each
    d is the density of a subgraph, so its denominator is at most n, and
    each round raises it strictly; there are finitely many such values, so
    the loop ends, and it ends only on the flow's "no denser set" answer,
    which certifies maximality.  The last set found then has maximum
    density and maximizes |E(S)| - d*|S| at the d before it, so it is the
    largest maximum-density set: the union of all of them.
    """
    if g.n == 0:
        raise ValueError("mad of the empty graph is undefined")
    if g.m == 0:
        return DensestWitness((0,), Fraction(0), Fraction(0))
    witness = list(range(g.n))
    density = Fraction(g.m, g.n)
    while (found := _denser_subgraph(g, density)) is not None:
        found_density = subset_density(g, found)
        if found_density <= density:  # a faulty flow would loop forever
            raise RuntimeError(
                f"flow at density {density} returned a set of density {found_density}"
            )
        witness, density = found, found_density
    return DensestWitness(tuple(witness), density, 2 * density)


def mad_below(g: Graph, alpha: Fraction | int) -> bool:
    """Decide mad(G) < alpha (strict) with at most one flow computation.

    A subgraph's mad has denominator at most n, so none lies strictly
    between alpha - 1/(2*b*n) (b = alpha's denominator) and alpha.
    """
    alpha = Fraction(alpha)
    return mad_at_most(g, alpha - Fraction(1, 2 * alpha.denominator * max(g.n, 1)))


def mad_at_most(g: Graph, alpha: Fraction | int) -> bool:
    """Decide mad(G) <= alpha with at most one flow and no certificates.

    When 2m > alpha*n the whole graph is a witness and no flow runs.
    """
    alpha = Fraction(alpha)
    if g.n and 2 * g.m > alpha * g.n:
        return False
    # the empty graph goes on to the flow, which rejects it
    return _denser_subgraph(g, alpha / 2) is None


def fractional_orientation(g: Graph, alpha: Fraction | int) -> FractionalOrientation | None:
    """Orient each edge fractionally so every indegree is at most alpha/2.

    Feasible exactly when mad(G) <= alpha, which is when the flow on
    Goldberg's network at alpha/2 saturates; the weights are read off that
    flow.  Returns None when infeasible.
    """
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    if g.m == 0:
        return FractionalOrientation({}, (Fraction(0),) * g.n)
    nw = _goldberg(g, alpha / 2)
    return _orientation(g, nw) if nw.saturated else None


# ---------------------------------------------------------------------------
# Text reports


def format_mad_report(w: DensestWitness, include_witness: bool = False) -> str:
    lines = [f"mad {w.mad.numerator}/{w.mad.denominator}"]
    if include_witness:
        lines.append("witness " + " ".join(str(v) for v in w.vertices))
    return "\n".join(lines) + "\n"


def format_orientation_report(fo: FractionalOrientation) -> str:
    """One line per edge: "u v p/q" where p/q is the weight oriented into v."""
    lines = []
    for (u, v), w in sorted(fo.weights.items()):
        lines.append(f"{u} {v} {w.numerator}/{w.denominator}")
    return "\n".join(lines) + ("\n" if lines else "")
