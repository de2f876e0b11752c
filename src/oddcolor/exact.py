"""Exact odd chromatic number by backtracking.

The decision search colors vertices in smallest-last (degeneracy) order and
enforces two pruning rules: properness at assignment time, and the odd
condition for any vertex the moment its last neighbor receives a color
(the odd condition of v depends only on the colors of N(v), so it is fixed
from that point on).  Colors are interchangeable, so a vertex takes at most
one color above the largest used before it in the order (value-symmetry
breaking).  Components are searched one at a time, so a refutation in one
never backtracks through the colorings of another; the answer and witness
are those of a single search over the whole smallest-last order.  Every
witness is checked with is_odd_coloring before it is returned.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

from .coloring import is_odd_coloring
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
    g: Graph, k: int, order: list[int], state: tuple[list, list, list], colors: list[int],
    clock: _BudgetClock,
) -> str:
    """Depth-first search for an odd k-coloring of one component, given in
    smallest-last order, as one loop so that no recursion limit applies.
    On "yes" the component's colors are written into colors.

    tried[i] is the color last tried at depth i (0: none yet); moving back
    to a depth first undoes it.  top[i] is the largest color at depths below
    i.  Colors are interchangeable, so depth i tries only 1..top[i] + 1: a
    coloring that skips past top[i] + 1 becomes smaller under the swap of
    the two colors, and the first coloring found is the same as without
    the rule.  state holds, for each vertex w, counts[w][c], its colored
    neighbors of color c, odd_size[w], the colors of odd multiplicity among
    them, and uncolored[w], its uncolored neighbors; a color fails when it
    leaves some neighborhood complete with no odd class.
    """
    counts, odd_size, uncolored = state
    n = len(order)
    tried = [0] * n
    top = [0] * (n + 1)
    idx = 0
    while idx >= 0:
        if idx == n:
            for v, c in zip(order, tried):
                colors[v] = c
            return "yes"
        v = order[idx]
        nbrs = g.neighbors(v)
        c = tried[idx]
        if c:
            for w in nbrs:
                cw = counts[w]
                cw[c] -= 1
                odd_size[w] += 1 if cw[c] % 2 else -1
                uncolored[w] += 1
        counts_v = counts[v]
        for c in range(c + 1, min(top[idx] + 1, k) + 1):
            if counts_v[c]:
                continue
            if not clock.spend():
                return "budget-exceeded"
            tried[idx] = c
            ok = True
            for w in nbrs:
                cw = counts[w]
                cw[c] += 1
                odd_size[w] += 1 if cw[c] % 2 else -1
                uncolored[w] -= 1
                if uncolored[w] == 0 and odd_size[w] == 0:
                    ok = False  # finish the updates: the undo above reverses them all
            if ok:
                top[idx + 1] = max(top[idx], c)
                idx += 1
            break  # on failure, the undo above runs and the next color follows
        else:
            tried[idx] = 0
            idx -= 1
    return "no"


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
    state = ([[0] * (k + 1) for _ in range(g.n)], [0] * g.n, list(g.degrees()))
    colors = [0] * g.n
    for order in orders:
        status = _odd_search(g, k, order, state, colors, clock)
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


def _clique_lower_bound(g: Graph) -> int:
    """Size of the largest clique grown greedily from any one vertex."""
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

    Searches k upward from a greedy clique lower bound; k = n always
    succeeds (all-distinct colors are an odd coloring).  Raises
    BudgetExceededError if the budget runs out before certainty.
    """
    if g.n == 0:
        return 0, ()
    budget = budget or SolveBudget()
    clock = _BudgetClock(budget)
    orders = _component_orders(g)
    k = _clique_lower_bound(g)
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
