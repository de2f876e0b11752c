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
That one flow answers every threshold question here; the exact mad is a
Dinkelbach (1967) iteration of it that jumps from each found set's density
to the next.
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

    def weight_into(self, u: int, v: int) -> Fraction:
        """Weight of edge {u, v} oriented into v."""
        if u < v:
            return self.weights[(u, v)]
        return 1 - self.weights[(v, u)]


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

    def add_edge(self, u: int, v: int, c: int) -> int:
        """Add arc u->v with capacity c; returns the arc id."""
        eid = len(self.to)
        self.head[u].append(eid)
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(eid + 1)
        self.to.append(u)
        self.cap.append(0)
        return eid

    def flow_on(self, eid: int) -> int:
        return self.cap[eid ^ 1]

    def _levels(self, s: int, t: int) -> list[int] | None:
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
        return level if level[t] != -1 else None

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
            level = self._levels(s, t)
            if level is None:
                return total
            it = [0] * self.size
            while True:
                pushed = self._augment(s, t, level, it)
                if pushed == 0:
                    break
                total += pushed

    def source_side(self, s: int) -> set[int]:
        """Vertices reachable from s in the residual network (minimal min cut)."""
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for eid in self.head[u]:
                v = self.to[eid]
                if self.cap[eid] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen


def _denser_subgraph(g: Graph, d: Fraction) -> list[int] | None:
    """Vertex set with density strictly above d, or None if none exists.

    The one flow primitive behind every density decision in this module; it
    rejects the empty graph and a negative threshold.
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
    flow = net.max_flow(s, t)
    if flow == m * n * q:
        return None
    side = net.source_side(s)
    chosen = sorted(v for v in range(n) if v + 1 in side)
    if not chosen:
        raise RuntimeError("min cut below saturation must expose a vertex set")
    return chosen


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
    """Decide mad(G) <= alpha; certify either answer.

    True comes with a fractional orientation of maximum indegree alpha/2;
    false comes with a vertex set of density above alpha/2.
    """
    alpha = Fraction(alpha)
    found = _denser_subgraph(g, alpha / 2)
    if found is None:
        orient = fractional_orientation(g, alpha)
        if orient is None:
            raise RuntimeError("orientation must exist when no denser subgraph does")
        return MadDecision(True, orient)
    return MadDecision(
        False,
        counterexample=tuple(found),
        counterexample_density=subset_density(g, found),
    )


def fractional_orientation(g: Graph, alpha: Fraction | int) -> FractionalOrientation | None:
    """Orient each edge fractionally so every indegree is at most alpha/2.

    Feasible exactly when mad(G) <= alpha.  Solved as a flow problem with
    one node per edge: the source supplies each edge node 2q units (alpha
    = p/q), edge nodes forward to their endpoints, and each vertex passes
    at most p units to the sink; the orientation weight toward an endpoint
    is the flow it received divided by 2q.  Returns None when infeasible.
    """
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    edge_list = list(g.edges())
    n, m = g.n, len(edge_list)
    if m == 0:
        return FractionalOrientation({}, (Fraction(0),) * n)
    p, q = alpha.numerator, alpha.denominator
    scale = 2 * q
    s = 0
    t = 1 + m + n
    net = _Dinic(m + n + 2)
    supply_arcs = []
    half_arcs = []
    for i, (u, v) in enumerate(edge_list):
        supply_arcs.append(net.add_edge(s, 1 + i, scale))
        a_u = net.add_edge(1 + i, 1 + m + u, scale)
        a_v = net.add_edge(1 + i, 1 + m + v, scale)
        half_arcs.append((a_u, a_v))
    sink_arcs = [net.add_edge(1 + m + v, t, p) for v in range(n)]
    flow = net.max_flow(s, t)
    if flow != scale * m:
        return None
    weights: dict[tuple[int, int], Fraction] = {}
    for i, (u, v) in enumerate(edge_list):
        into_v = Fraction(net.flow_on(half_arcs[i][1]), scale)
        weights[(u, v)] = into_v
    indeg = tuple(Fraction(net.flow_on(sink_arcs[v]), scale) for v in range(n))
    return FractionalOrientation(weights, indeg)


def brute_force_mad(g: Graph) -> Fraction:
    """Oracle: maximize 2|E(G[S])|/|S| over all non-empty vertex subsets."""
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
