"""Exact odd chromatic number by backtracking.

The decision search colors vertices in smallest-last (degeneracy) order.
A vertex may not take a color on its neighborhood, nor, as in the paper's
replays, the unique odd color of a neighbor whose only uncolored neighbor it
is; so every neighborhood is odd once it is fully colored.  The search
counts the reasons that ban each color at each vertex and checks forward: a
color fails when it leaves an uncolored vertex no free color, or one that an
uncolored neighbor also has as its only one.  A vertex takes at most one
color above the largest used before it (value-symmetry breaking).  Each
component is searched on its own.  odd_chromatic_number starts k at a lower
bound (greedy clique, 2-color test, cycle components).  All of this cuts
only dead branches: the answer and witness are those of a plain search over
the smallest-last order, checked with is_odd_coloring.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

from .coloring import _two_coloring, is_odd_coloring
from .graph import Graph


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


def cycle_chi(n: int) -> int:
    """Odd chromatic number of the n-cycle: 3 if 3 | n, 5 if n = 5, else 4."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    if n % 3 == 0:
        return 3
    if n == 5:
        return 5
    return 4


def degeneracy_order(g: Graph) -> list[int]:
    """Smallest-last vertex order: repeatedly remove a minimum-degree vertex
    (ties by lowest index) and place it at the end.

    Lazy (degree, index) heap: degrees only fall and a removed vertex gets
    degree -1, so an entry is current exactly when its degree matches.
    """
    deg = list(g.degrees())
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    removed = []
    while heap:
        d, v = heapq.heappop(heap)
        if d == deg[v]:
            removed.append(v)
            deg[v] = -1
            for w in g.neighbors(v):
                if deg[w] > 0:  # alive: an alive neighbor of v has degree >= 1
                    deg[w] -= 1
                    heapq.heappush(heap, (deg[w], w))
    removed.reverse()
    return removed


def _odd_search(
    g: Graph, k: int, order: list[int], state: tuple[list, ...], colors: list[int],
    clock: _BudgetClock,
) -> str:
    """Depth-first search for an odd k-coloring of one component, given in
    smallest-last order, as one loop so that no recursion limit applies.

    colors is the partial coloring (0: uncolored); colors[order[i]] is the
    color last tried at depth i, and moving back to a depth first undoes it.
    top[i] is the largest color at depths below i; depth i tries only
    1..top[i] + 1, as a coloring that skips past it becomes smaller under the
    swap of the two colors.  Per vertex w, state holds ban[w][c], the reasons
    w may not take c (colored neighbors of color c, and neighbors x with
    last[x] = w, uncolored[x] 1 and odd[x] = {c}); free[w], the bitmask of
    colors with no ban; odd[w], the bitmask of odd classes among its colored
    neighbors; uncolored[w]; and last[w], its neighbor latest in the order.
    """
    ban, free, odd, uncolored, last = state
    for v in order:
        for w in g.neighbors(v):
            last[w] = v
    n = len(order)
    top = [0] * (n + 1)
    idx = 0
    while idx >= 0:
        if idx == n:
            return "yes"
        v = order[idx]
        nbrs = g.neighbors(v)
        c = colors[v]
        if c:
            bit = 1 << c
            for w in nbrs:
                m = odd[w]
                if uncolored[w] == 1 and m and not m & (m - 1):
                    u, cu = last[w], m.bit_length() - 1
                    ban[u][cu] -= 1
                    if not ban[u][cu]:
                        free[u] |= m
                ban[w][c] -= 1
                if not ban[w][c]:
                    free[w] |= bit
                odd[w] = m ^ bit
                uncolored[w] += 1
        for c in range(c + 1, min(top[idx] + 1, k) + 1):
            if ban[v][c]:
                continue
            if not clock.spend():
                return "budget-exceeded"
            colors[v] = c
            bit = 1 << c
            ok = True
            for w in nbrs:
                bw = ban[w]
                if not bw[c]:
                    f = free[w] = free[w] ^ bit
                    if not f & (f - 1) and not colors[w] and _stuck(g, w, f, free, colors):
                        ok = False  # finish the updates: the undo above reverses them all
                bw[c] += 1
                m = odd[w] = odd[w] ^ bit
                uncolored[w] -= 1
                if uncolored[w] == 1 and m and not m & (m - 1):
                    u, cu = last[w], m.bit_length() - 1
                    if not ban[u][cu]:
                        f = free[u] = free[u] ^ m
                        if not f & (f - 1) and _stuck(g, u, f, free, colors):
                            ok = False
                    ban[u][cu] += 1
            if ok:
                top[idx + 1] = max(top[idx], c)
                idx += 1
            break  # on failure, the undo above runs and the next color follows
        else:
            colors[v] = 0
            idx -= 1
    return "no"


def _stuck(g: Graph, u: int, f: int, free: list[int], colors: list[int]) -> bool:
    """Uncolored u has no free color (f = 0), or one that an uncolored neighbor has alone."""
    return not f or any(free[x] == f and not colors[x] for x in g.neighbors(u))


def _component_orders(g: Graph) -> list[list[int]]:
    """The smallest-last order split by component, components ordered by
    smallest vertex.

    Ties in the order break by index, so the restriction of the order to a
    component is that component's own smallest-last order.
    """
    comps = g.components()
    label = [0] * g.n
    for i, comp in enumerate(comps):
        for v in comp:
            label[v] = i
    orders: list[list[int]] = [[] for _ in comps]
    for v in degeneracy_order(g):
        orders[label[v]].append(v)
    return orders


def _decide(g: Graph, k: int, orders: list[list[int]], clock: _BudgetClock) -> ColorableOutcome:
    """Odd k-colorability, one component at a time in the given order,
    stopping at the first that is not colorable.

    Each component gets the first odd coloring in its own order, so the
    whole coloring is the first one in the interleaved order too.  It is
    checked with is_odd_coloring before it is returned.
    """
    # Sized for at most min(n, 2Δ + 2) colors (Δ: maximum degree), with the
    # same search as for k: depth i tries at most i + 1 colors, so none above
    # n; and at most 2·deg(w) reasons ban a color at w, so with 2Δ + 2 colors
    # every uncolored vertex keeps two free, the forward check never fails and
    # each vertex takes its lowest free color, at most 2Δ + 1.
    deg = g.degrees()
    size = max(1, min(k, g.n, 2 * max(deg, default=0) + 2))
    state = ([[0] * (size + 1) for _ in range(g.n)], [(1 << (size + 1)) - 2] * g.n,
             [0] * g.n, list(deg), [0] * g.n)
    colors = [0] * g.n
    for order in orders:
        status = _odd_search(g, size, order, state, colors, clock)
        if status != "yes":
            return ColorableOutcome(status, nodes=clock.nodes)
    if not is_odd_coloring(g, colors)[0]:
        raise RuntimeError(f"the exact search produced an invalid odd {k}-coloring")
    return ColorableOutcome("yes", tuple(colors), clock.nodes)


def odd_colorable(g: Graph, k: int, budget: SolveBudget | None = None) -> ColorableOutcome:
    """Decide whether g admits an odd coloring with k colors."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return _decide(g, k, _component_orders(g), _BudgetClock(budget))


def _lower_bound(g: Graph, orders: list[list[int]]) -> int:
    """The largest greedy clique, at least 3 if g fails the exact 2-color test
    (_two_coloring), at least cycle_chi of cycle components."""
    deg = g.degrees()
    best = 1 if _two_coloring(g) is not None else 3
    for order in orders:
        if all(deg[v] == 2 for v in order):
            best = max(best, cycle_chi(len(order)))
    nbrs = [set(g.neighbors(v)) for v in range(g.n)]
    for v in range(g.n):
        clique, common = 1, nbrs[v]  # common: the neighbors of every member
        for w in g.neighbors(v):
            if w in common:
                clique, common = clique + 1, common & nbrs[w]
        best = max(best, clique)
    return best


def odd_chromatic_number(
    g: Graph, budget: SolveBudget | None = None
) -> tuple[int, tuple[int, ...]]:
    """Smallest k admitting an odd coloring, with a witness coloring.

    Searches k upward from _lower_bound; k = n always succeeds (n distinct
    colors are odd).  Raises BudgetExceededError if the budget runs out first.
    """
    if g.n == 0:
        return 0, ()
    budget = budget or SolveBudget()
    clock = _BudgetClock(budget)
    orders = _component_orders(g)
    k = _lower_bound(g, orders)
    while True:
        if budget.max_k is not None and k > budget.max_k:
            raise BudgetExceededError(f"no odd coloring with at most {budget.max_k} colors found")
        outcome = _decide(g, k, orders, clock)
        if outcome.status == "yes":
            assert outcome.coloring is not None
            return k, outcome.coloring
        if outcome.status == "budget-exceeded":
            raise BudgetExceededError(f"budget exhausted while testing k={k}")
        k += 1
