"""Exact odd chromatic number by backtracking, plus brute-force oracles.

The decision search colors vertices in smallest-last (degeneracy) order and
enforces two pruning rules: properness at assignment time, and the odd
condition for any vertex the moment its last neighbor receives a color
(the odd condition of v depends only on the colors of N(v), so it is fixed
from that point on).  The first vertex is pinned to color 1; no further
symmetry breaking is applied.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .graph import Graph, _Peeler


class BudgetExceededError(Exception):
    """The solver hit its time/node/max-k budget before reaching certainty."""


@dataclass(frozen=True)
class SolveBudget:
    """Optional limits for exact searches; None means unlimited."""

    max_k: int | None = None
    time_limit: float | None = None
    node_limit: int | None = None

    def __post_init__(self) -> None:
        for name in ("max_k", "time_limit", "node_limit"):
            value = getattr(self, name)
            if value is not None and not value > 0:  # also rejects NaN
                raise ValueError(f"{name} must be positive when present")


@dataclass(frozen=True)
class ColorableOutcome:
    """Result of an odd k-colorability decision."""

    status: str  # "yes" | "no" | "budget-exceeded"
    coloring: tuple[int, ...] | None = None
    nodes: int = 0


class _BudgetClock:
    """Shared node/time accounting across the decisions of one solve."""

    def __init__(self, budget: SolveBudget | None):
        budget = budget or SolveBudget()
        self.node_limit = budget.node_limit
        self.deadline = (
            time.monotonic() + budget.time_limit if budget.time_limit else None
        )
        self.nodes = 0

    def spend(self) -> bool:
        """Account one search node; returns False once the budget is gone."""
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            return False
        if self.deadline is not None and self.nodes % 1024 == 0:
            if time.monotonic() > self.deadline:
                return False
        return True


def degeneracy_order(g: Graph) -> list[int]:
    """Smallest-last vertex order: repeatedly remove a minimum-degree vertex
    (ties by lowest index) and place it at the end."""
    st = _Peeler(g)
    removed = []
    while st.remaining:
        v = min(next(b for b in st.bucket if b))
        removed.append(v)
        st.delete((v,))
    removed.reverse()
    return removed


class _StopSearch(Exception):
    pass


class _OddSearch:
    def __init__(self, g: Graph, k: int, clock: _BudgetClock):
        self.g = g
        self.k = k
        self.clock = clock
        self.order = degeneracy_order(g)
        self.color = [0] * g.n
        # counts[v][c]: colored neighbors of v with color c; odd_size[v]:
        # number of colors with odd multiplicity on v's colored neighborhood.
        self.counts = [[0] * (k + 1) for _ in range(g.n)]
        self.odd_size = [0] * g.n
        self.uncolored_nbrs = list(g.degrees())
        self.found: tuple[int, ...] | None = None
        self.budget_hit = False

    def run(self) -> ColorableOutcome:
        try:
            self._extend(0)
        except _StopSearch:
            pass
        if self.found is not None:
            return ColorableOutcome("yes", self.found, self.clock.nodes)
        if self.budget_hit:
            return ColorableOutcome("budget-exceeded", nodes=self.clock.nodes)
        return ColorableOutcome("no", nodes=self.clock.nodes)

    def _extend(self, idx: int) -> None:
        if idx == self.g.n:
            self.found = tuple(self.color)
            raise _StopSearch  # unwind; found is set
        v = self.order[idx]
        counts_v = self.counts[v]
        candidates = range(1, 2) if idx == 0 else range(1, self.k + 1)
        for c in candidates:
            if counts_v[c] != 0:
                continue
            if not self.clock.spend():
                self.budget_hit = True
                raise _StopSearch
            if self._assign(v, c):
                self._extend(idx + 1)
            self._unassign(v, c)

    def _assign(self, v: int, c: int) -> bool:
        """Color v with c; False if some now-saturated vertex has no odd color."""
        self.color[v] = c
        ok = True
        for w in self.g.neighbors(v):
            counts = self.counts[w]
            counts[c] += 1
            self.odd_size[w] += 1 if counts[c] % 2 == 1 else -1
            self.uncolored_nbrs[w] -= 1
            if self.uncolored_nbrs[w] == 0 and self.odd_size[w] == 0:
                ok = False  # keep updating so _unassign reverses everything
        return ok

    def _unassign(self, v: int, c: int) -> None:
        self.color[v] = 0
        for w in self.g.neighbors(v):
            counts = self.counts[w]
            counts[c] -= 1
            self.odd_size[w] += 1 if counts[c] % 2 == 1 else -1
            self.uncolored_nbrs[w] += 1


def odd_colorable(g: Graph, k: int, budget: SolveBudget | None = None) -> ColorableOutcome:
    """Decide whether g admits an odd coloring with k colors."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if g.n == 0:
        return ColorableOutcome("yes", ())
    clock = _BudgetClock(budget)
    return _OddSearch(g, k, clock).run()


def _clique_lower_bound(g: Graph) -> int:
    """Clique number for small graphs (n <= 20), greedy clique otherwise."""
    if g.n == 0:
        return 0
    if g.n <= 20:
        best = 1
        order = sorted(range(g.n), key=lambda v: -g.degree(v))
        adj = [set(g.neighbors(v)) for v in range(g.n)]

        def grow(clique: list[int], cands: list[int]) -> None:
            nonlocal best
            best = max(best, len(clique))
            for i, v in enumerate(cands):
                if len(clique) + len(cands) - i <= best:
                    return
                grow(clique + [v], [w for w in cands[i + 1 :] if w in adj[v]])

        grow([], order)
        return best
    best = 1
    for v in range(g.n):
        clique = [v]
        for w in g.neighbors(v):
            if all(g.has_edge(w, u) for u in clique):
                clique.append(w)
        best = max(best, len(clique))
    return best


def odd_chromatic_number(
    g: Graph, budget: SolveBudget | None = None
) -> tuple[int, tuple[int, ...]]:
    """Smallest k admitting an odd coloring, with a witness coloring.

    Searches k upward from a clique-number lower bound; k = n always
    succeeds (all-distinct colors are an odd coloring).  Raises
    BudgetExceededError if the budget runs out before certainty.
    """
    if g.n == 0:
        return 0, ()
    budget = budget or SolveBudget()
    clock = _BudgetClock(budget)
    k = max(1, _clique_lower_bound(g))
    while True:
        if budget.max_k is not None and k > budget.max_k:
            raise BudgetExceededError(f"no odd coloring with at most {budget.max_k} colors found")
        outcome = _OddSearch(g, k, clock).run()
        if outcome.status == "yes":
            assert outcome.coloring is not None
            return k, outcome.coloring
        if outcome.status == "budget-exceeded":
            raise BudgetExceededError(f"budget exhausted while testing k={k}")
        k += 1


def brute_force_odd_chromatic(g: Graph) -> int:
    """Oracle: minimal k whose exhaustive assignment enumeration contains an
    odd coloring.  Guarded to n <= 8 and k <= 6."""
    if not 0 <= g.n <= 8:
        raise ValueError("brute force is guarded to n <= 8")
    if g.n == 0:
        return 0
    if g.m == 0:
        return 1
    nbrs = [g.neighbors(v) for v in range(g.n)]

    def valid(cols: list[int]) -> bool:
        for v in range(g.n):
            if not nbrs[v]:
                continue
            counts: dict[int, int] = {}
            for w in nbrs[v]:
                counts[cols[w]] = counts.get(cols[w], 0) + 1
            if not any(c % 2 == 1 for c in counts.values()):
                return False
        return True

    def exists(k: int) -> bool:
        cols = [0] * g.n

        def rec(v: int) -> bool:
            if v == g.n:
                return valid(cols)
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


def chromatic_number(g: Graph, budget: SolveBudget | None = None) -> int:
    """Exact proper chromatic number by backtracking (guarded to n <= 12)."""
    if g.n > 12:
        raise ValueError("chromatic_number is guarded to n <= 12")
    if g.n == 0:
        return 0
    if g.m == 0:
        return 1
    budget = budget or SolveBudget()
    clock = _BudgetClock(budget)
    order = degeneracy_order(g)
    nbrs = [g.neighbors(v) for v in range(g.n)]
    color = [0] * g.n

    def exists(k: int) -> bool:
        def rec(idx: int) -> bool:
            if idx == g.n:
                return True
            v = order[idx]
            top = 1 if idx == 0 else k
            for c in range(1, top + 1):
                if not clock.spend():
                    raise BudgetExceededError("budget exhausted")
                if any(color[w] == c for w in nbrs[v]):
                    continue
                color[v] = c
                if rec(idx + 1):
                    return True
                color[v] = 0
            return False

        result = rec(0)
        for v in range(g.n):
            color[v] = 0
        return result

    k = max(1, _clique_lower_bound(g))
    while k <= g.n:
        if exists(k):
            return k
        k += 1
    raise RuntimeError("n colors always suffice")  # pragma: no cover
