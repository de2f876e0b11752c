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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .graph import Graph


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


@dataclass(frozen=True)
class MadDecision:
    """Outcome of comparing mad(G) against a threshold alpha.

    If holds (mad <= alpha), orientation certifies it with all indegrees at
    most alpha/2.  Otherwise counterexample is a vertex set whose density
    exceeds alpha/2.
    """

    holds: bool
    orientation: FractionalOrientation | None = None
    counterexample: tuple[int, ...] | None = None
    counterexample_density: Fraction | None = None


class _Dinic:
    """Max flow on integer capacities (Dinic's algorithm, iterative DFS)."""

    def __init__(self, size: int):
        self.size = size
        self.head: list[list[int]] = [[] for _ in range(size)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.level: list[int] = []  # the last BFS of max_flow; -1: unreached

    def add_edge(self, u: int, v: int, c: int) -> None:
        """Add arc u->v with capacity c (id len(to)) and its residual twin."""
        eid = len(self.to)
        self.head[u].append(eid)
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(eid + 1)
        self.to.append(u)
        self.cap.append(0)

    def flow_on(self, eid: int) -> int:
        return self.cap[eid ^ 1]

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
        """Value of a maximum s-t flow.  The last BFS, the one that no longer
        reaches t, stays in self.level: its reached vertices are the source
        side of the minimal min cut."""
        total = 0
        while True:
            level = self._levels(s)
            if level[t] == -1:
                self.level = level
                return total
            it = [0] * self.size
            while True:
                pushed = self._augment(s, t, level, it)
                if pushed == 0:
                    break
                total += pushed


def _goldberg(g: Graph, d: Fraction) -> tuple[_Dinic, bool]:
    """Goldberg's network at density d after a max flow, and whether the flow
    saturates every source arc (then no vertex set is denser than d).

    The one flow network of this module; it rejects the empty graph and a
    negative threshold.  Arc ids are fixed by construction: four per vertex
    (source arc, sink arc), then four per edge, so edge i's arc u->v has id
    4n + 4i and its arc v->u id 4n + 4i + 2.
    """
    if g.n == 0:
        raise ValueError("mad of the empty graph is undefined")
    p, q = d.numerator, d.denominator
    if p < 0:
        raise ValueError("density threshold must be non-negative")
    n, m = g.n, g.m
    s, t = 0, n + 1
    net = _Dinic(n + 2)
    for v in range(n):
        net.add_edge(s, v + 1, m * q)
        net.add_edge(v + 1, t, m * q + 2 * p - q * g.degree(v))
    for u, v in g.edges():
        net.add_edge(u + 1, v + 1, q)
        net.add_edge(v + 1, u + 1, q)
    return net, net.max_flow(s, t) == m * n * q


def _source_vertices(net: _Dinic, n: int) -> list[int]:
    """Vertices on the source side of the minimal min cut of an unsaturated
    Goldberg network: a set denser than its threshold."""
    chosen = [v for v in range(n) if net.level[v + 1] != -1]
    if not chosen:
        raise RuntimeError("min cut below saturation must expose a vertex set")
    return chosen


def _orientation(g: Graph, net: _Dinic, d: Fraction) -> FractionalOrientation:
    """Read a fractional orientation off a saturated Goldberg network at d.

    With d = p/q, the net flow f on edge u->v lies in [-q, q]; orient
    (q + f) / 2q of the edge into v.  Every source arc is full, so the net
    edge inflow of v is at most its sink capacity minus m*q, which is
    2p - q*deg(v); hence every indegree is at most p/q = d (Hakimi 1965).
    """
    q = d.denominator
    indeg = [0] * g.n  # in units of 1/2q
    weights: dict[tuple[int, int], Fraction] = {}
    for i, (u, v) in enumerate(g.edges()):
        arc = 4 * g.n + 4 * i
        into_v = q + net.flow_on(arc) - net.flow_on(arc + 2)
        weights[(u, v)] = Fraction(into_v, 2 * q)
        indeg[v] += into_v
        indeg[u] += 2 * q - into_v
    return FractionalOrientation(weights, tuple(Fraction(x, 2 * q) for x in indeg))


def _denser_subgraph(g: Graph, d: Fraction) -> list[int] | None:
    """Vertex set with density strictly above d, or None if none exists."""
    net, saturated = _goldberg(g, d)
    return None if saturated else _source_vertices(net, g.n)


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
        witness = found
        density = subset_density(g, found)
    return DensestWitness(tuple(witness), density, 2 * density)


def mad_below(g: Graph, alpha: Fraction | int) -> bool:
    """Decide mad(G) < alpha (strict) with a single flow computation.

    Subgraph densities have denominator at most n, so shifting the
    threshold alpha/2 down by 1/(4*b*n) (b = denominator of alpha)
    separates "some subgraph has density >= alpha/2" from the rest.
    """
    alpha = Fraction(alpha)
    if alpha <= 0 and g.n:  # a single vertex already has density 0 >= alpha/2
        return False
    # the empty graph goes on to the flow, which rejects it
    margin = Fraction(1, 4 * alpha.denominator * max(g.n, 1))
    return _denser_subgraph(g, alpha / 2 - margin) is None


def mad_at_most(g: Graph, alpha: Fraction | int) -> bool:
    """Decide mad(G) <= alpha with a single flow and no certificates."""
    return _denser_subgraph(g, Fraction(alpha) / 2) is None


def mad_decide(g: Graph, alpha: Fraction | int) -> MadDecision:
    """Decide mad(G) <= alpha with one flow; certify either answer.

    True comes with a fractional orientation of maximum indegree alpha/2;
    false comes with a vertex set of density above alpha/2.
    """
    d = Fraction(alpha) / 2
    net, saturated = _goldberg(g, d)
    if saturated:
        return MadDecision(True, _orientation(g, net, d))
    found = _source_vertices(net, g.n)
    return MadDecision(
        False,
        counterexample=tuple(found),
        counterexample_density=subset_density(g, found),
    )


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
    net, saturated = _goldberg(g, alpha / 2)
    return _orientation(g, net, alpha / 2) if saturated else None


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
