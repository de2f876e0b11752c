"""Immutable simple-graph core: text formats, structural queries, generators.

Vertices are integers 0..n-1.  Two text formats are supported: a plain
edge list ("n m" header, then one "u v" line per edge, '#' comments) and
DIMACS ("p edge n m" header, then "e u v" lines, 1-based).
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

MAX_VERTICES = 10**6  # largest n a parsed header or a CLI generator may ask for


class GraphParseError(ValueError):
    """Malformed graph text input."""


class Graph:
    """Simple undirected graph with sorted adjacency lists.

    Construction rejects self-loops, duplicate edges, and out-of-range
    endpoints.  Instances are immutable by convention (tuples throughout)
    and safe to share across threads.
    """

    __slots__ = ("n", "m", "_adj", "_core")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.m = len(seen)
        self._adj = tuple(tuple(sorted(nb)) for nb in adj)
        self._core: _Kernel | None = None  # the kernel, once _contract has built it

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nb) for nb in self._adj)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def _reach(self, s: int, seen: list[bool]) -> list[int]:
        """Mark seen, and list in breadth-first order, the unseen vertices reachable from s."""
        adj, order = self._adj, [s]
        seen[s] = True
        for u in order:  # a list grown while it is walked: a FIFO queue
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    order.append(w)
        return order

    def components(self) -> list[list[int]]:
        """Connected components, each sorted, ordered by smallest vertex."""
        seen = [False] * self.n
        return [sorted(self._reach(s, seen)) for s in range(self.n) if not seen[s]]

    def bipartition(self) -> list[int] | None:
        """Two-color the vertices (0/1 per side, 0 at each component's smallest
        vertex), or None if an odd cycle exists."""
        adj, seen, side = self._adj, [False] * self.n, [-1] * self.n
        for s in range(self.n):
            if seen[s]:
                continue
            side[s] = 0
            for u in self._reach(s, seen):  # each vertex comes after the one that reached it
                other = 1 - side[u]
                for w in adj[u]:
                    if side[w] == -1:
                        side[w] = other
                    elif side[w] != other:
                        return None
        return side

    def is_forest(self) -> bool:
        """True when the 2-core is empty; a forest has fewer than n edges, unless n = 0."""
        return self.m < max(self.n, 1) and len(_contract(self).peeled) == self.n

    def is_cycle(self) -> bool:
        """True when the graph is a single cycle: every degree 2, one core cycle."""
        return all(len(nb) == 2 for nb in self._adj) and len(_contract(self).cycles) == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class _Kernel(NamedTuple):
    """The 2-core of a graph cut into chains and cycles (Batagelj & Zaversnik
    2003).  peeled: the vertices outside the core in peel order, last in
    first out, each with the neighbour it still had when it went (-1 for
    none).  branch: the vertices of core degree 3 or more.  chains: every
    path of the core whose inner vertices have core degree 2 and whose ends
    are branch vertices, once each; one may return to its start.  cycles:
    the core components with no branch vertex, each a closed walk from its
    smallest vertex, stepping first to the smaller neighbour.  A chain or
    cycle of L edges has L + 1 entries.  sparsity reads arc ids and
    orientations off the peel and chain orders, so both are fixed."""

    peeled: tuple[tuple[int, int], ...]
    branch: tuple[int, ...]
    chains: tuple[tuple[int, ...], ...]
    cycles: tuple[tuple[int, ...], ...]


def _contract(g: Graph) -> _Kernel:
    """The kernel of g, built in linear time on the first call and then kept."""
    if g._core is not None:
        return g._core
    adj = g._adj
    deg = [len(nb) for nb in adj]
    alive = [True] * g.n
    peeled = []
    stack = [v for v in range(g.n) if deg[v] < 2]
    while stack:
        v = stack.pop()
        alive[v] = False
        left = -1
        for w in adj[v]:
            if alive[w]:
                left = w
                deg[w] -= 1
                if deg[w] == 1:
                    stack.append(w)
        peeled.append((v, left))
    walked = [False] * g.n  # inner vertices of the chains and cycles found so far

    def walk(a: int, x: int) -> tuple[int, ...]:  # a, x, ... to a branch vertex or back to a
        path, prev = [a], a
        while deg[x] == 2 and x != a:
            walked[x] = True
            path.append(x)
            for y in adj[x]:  # the core neighbour x was not entered from
                if y != prev and alive[y]:
                    break
            prev, x = x, y
        path.append(x)
        return tuple(path)

    branch = [v for v in range(g.n) if alive[v] and deg[v] > 2]
    chains = [
        walk(a, x)
        for a in branch
        for x in adj[a]
        # skip x outside the core, or on a chain already found from its other end
        if alive[x] and not walked[x] and (deg[x] == 2 or x > a)
    ]
    cycles = [
        walk(s, next(w for w in adj[s] if alive[w]))
        for s in range(g.n)
        if alive[s] and deg[s] == 2 and not walked[s]
    ]
    g._core = _Kernel(tuple(peeled), tuple(branch), tuple(chains), tuple(cycles))
    return g._core


# ---------------------------------------------------------------------------
# Parsing and serialization


def parse_edgelist(text: str) -> Graph:
    """Parse the edge-list format: "n m" header then m lines "u v" (0-based)."""
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected two integers, got {line!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: expected two integers, got {line!r}") from None
        if header is None:
            if a < 0 or b < 0:
                raise GraphParseError(f"line {lineno}: bad header {line!r}")
            header = (a, b)
        else:
            edges.append((a, b))
    return _graph_from(header, edges, "missing 'n m' header line")


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS: "p edge n m" header then "e u v" lines (1-based, as in its errors)."""
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if header is not None:
                raise GraphParseError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphParseError(f"line {lineno}: expected 'p edge n m'")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise GraphParseError(f"line {lineno}: expected 'p edge n m'") from None
            if min(header) < 0:
                raise GraphParseError(f"line {lineno}: expected 'p edge n m'")
        elif parts[0] == "e":
            if header is None:
                raise GraphParseError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise GraphParseError(f"line {lineno}: expected 'e u v'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphParseError(f"line {lineno}: expected 'e u v'") from None
            if out := [x for x in (u, v) if not 1 <= x <= header[0]]:
                raise GraphParseError(f"line {lineno}: vertex {out[0]} is not in 1..{header[0]}")
            if u == v:
                raise GraphParseError(f"line {lineno}: self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise GraphParseError(f"line {lineno}: duplicate edge {e}")
            seen.add(e)
            edges.append((u - 1, v - 1))
        else:
            raise GraphParseError(f"line {lineno}: unknown line type {parts[0]!r}")
    return _graph_from(header, edges, "missing 'p edge n m' line")


def _graph_from(
    header: tuple[int, int] | None, edges: list[tuple[int, int]], missing: str
) -> Graph:
    """Shared tail of the parsers; n is capped before Graph allocates for it."""
    if header is None:
        raise GraphParseError(missing)
    n, m = header
    if n > MAX_VERTICES:
        raise GraphParseError(f"header declares {n} vertices; the limit is {MAX_VERTICES}")
    if len(edges) != m:
        raise GraphParseError(f"header promises {m} edges, found {len(edges)}")
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise GraphParseError(str(exc)) from None


def parse_graph(text: str, fmt: str = "edgelist") -> Graph:
    if fmt == "edgelist":
        return parse_edgelist(text)
    if fmt == "dimacs":
        return parse_dimacs(text)
    raise ValueError(f"unknown graph format {fmt!r}")


def to_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def to_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def serialize_graph(g: Graph, fmt: str = "edgelist") -> str:
    if fmt == "edgelist":
        return to_edgelist(g)
    if fmt == "dimacs":
        return to_dimacs(g)
    raise ValueError(f"unknown graph format {fmt!r}")


# ---------------------------------------------------------------------------
# Structural queries


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle, or None for forests.

    Every cycle lies in the 2-core, and one whose vertices all have core
    degree 2 is a whole cycle of the kernel.  So a shortest cycle is the
    kernel's shortest cycle or passes through a branch vertex, and only
    those start a breadth-first search.  Each search undoes what it set,
    and the first non-tree edge it sees at depth d closes a cycle of length
    at most 2d+1, so it stops once it cannot beat the best found so far.
    """
    kernel = _contract(g)
    best = min((len(c) - 1 for c in kernel.cycles), default=g.n + 1)  # n + 1: none yet
    dist = [-1] * g.n
    parent = [-1] * g.n
    for s in kernel.branch:
        dist[s] = 0
        queue = [s]
        for u in queue:  # a list grown while it is walked: a FIFO queue
            if 2 * dist[u] >= best:
                break
            for w in g.neighbors(u):
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    best = min(best, dist[u] + dist[w] + 1)
        for v in queue:
            dist[v] = parent[v] = -1
    return best if best <= g.n else None


# ---------------------------------------------------------------------------
# Generators


def gen_complete(n: int) -> Graph:
    """Complete graph on n vertices."""
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def gen_path(n: int) -> Graph:
    """Path on n vertices."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def gen_cycle(n: int) -> Graph:
    """Cycle on n vertices, edges (i, i+1 mod n)."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def gen_star(n_leaves: int) -> Graph:
    """Star with center 0 and n_leaves pendant vertices."""
    if n_leaves < 0:
        raise ValueError("leaf count must be non-negative")
    return Graph(n_leaves + 1, [(0, i) for i in range(1, n_leaves + 1)])


def gen_kstar(n: int) -> Graph:
    """Complete graph on n hubs with every edge subdivided once.

    Hubs occupy indices 0..n-1 (degree n-1 each); the subdivision vertex of
    hub pair (i, j), i < j, sits at index n + rank(i, j) in lexicographic
    pair order (degree 2).  Total: n(n+1)/2 vertices, n(n-1) edges.
    """
    if n < 1:
        raise ValueError("gen_kstar needs n >= 1")
    return subdivide(gen_complete(n))


def subdivide(h: Graph) -> Graph:
    """Replace every edge of h by a path of length two through a new vertex.

    Original vertices keep their indices; the fresh vertex for the k-th
    edge of h (in sorted edge order) is h.n + k.
    """
    edges = []
    s = h.n
    for u, v in h.edges():
        edges.append((u, s))
        edges.append((v, s))
        s += 1
    return Graph(h.n + h.m, edges)


def gen_cycle_with_leaves(n: int, leaf_counts: Iterable[int]) -> Graph:
    """Cycle on n vertices (3 | n) with pendant leaves on every third vertex.

    leaf_counts has one entry per attachment point; the j-th entry adds that
    many leaves at cycle vertex 3j+2 (the 1-based positions 3, 6, ..., n).
    Leaves are appended after the cycle vertices.
    """
    if n < 3 or n % 3 != 0:
        raise ValueError("cycle length must be a positive multiple of 3")
    counts = list(leaf_counts)
    if len(counts) != n // 3:
        raise ValueError(f"expected {n // 3} leaf counts, got {len(counts)}")
    if any(c < 0 for c in counts):
        raise ValueError("leaf counts must be non-negative")
    edges = [(i, (i + 1) % n) for i in range(n)]
    nxt = n
    for j, c in enumerate(counts):
        host = 3 * j + 2
        for _ in range(c):
            edges.append((host, nxt))
            nxt += 1
    return Graph(nxt, edges)
