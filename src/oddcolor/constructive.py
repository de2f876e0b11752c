"""Constructive odd-coloring engines with guaranteed color bounds.

Every engine follows the same reduce/replay scheme: repeatedly locate a
small reducible configuration in the current graph, record which vertices
were deleted and which of their neighbors survive, and delete them; once
the graph is empty, replay the records in reverse, coloring each deleted
vertex with the smallest color not in a small avoid set.  Avoid sets
combine neighbor colors (properness), colors of second neighbors through
deleted degree-2 vertices (so those see two distinct colors), and the
current unique odd color of already-colored neighbors (so their odd color
survives the new assignment).  Unique odd colors are always recomputed
against the coloring as it stands, including vertices recolored earlier in
the replay; with two or more odd classes nothing needs protecting, because
a new neighbor color flips a single parity class.

Three engines are provided:

* ``color_eps(g, eps)``: mad(g) <= 4 - eps gives floor(8/eps) + 2 colors;
* ``color_six(g)``: mad(g) < 3 gives 6 colors;
* ``color_five(g)``: mad(g) < 20/7 gives 5 colors;

plus direct colorers for forests (3 colors), cycles (3/4/5 by length), the
two-color classifier, the canonical coloring of subdivided complete
graphs, and a dispatcher that picks the strongest applicable strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .coloring import PartialColoring, choose_color, is_odd_coloring
from .exact import SolveBudget, odd_chromatic_number
from .graph import Graph, gen_cycle, gen_kstar
from .sparsity import mad_at_most, mad_below, mad_exact


class UnsupportedDensityError(ValueError):
    """No constructive bound applies (mad >= 4) and no search budget was given."""


class ReductionExhaustedError(RuntimeError):
    """No reducible configuration found; contradicts the density hypothesis."""


@dataclass(frozen=True)
class ReductionRecord:
    """One deleted configuration, replayed in reverse during extension.

    deleted lists the removed vertices in coloring order (the center
    first); frontier maps each deleted vertex to its neighbors that
    survive in the reduced graph.  protect lists surviving vertices whose
    current unique odd color the center must additionally avoid (only the
    weak-3-vertex configuration needs it).
    """

    kind: str
    deleted: tuple[int, ...]
    frontier: dict[int, tuple[int, ...]]
    protect: tuple[int, ...] = ()


@dataclass(frozen=True)
class ColoringResult:
    """A verified odd coloring together with the bound that produced it."""

    colors: tuple[int, ...]
    k_used: int
    bound: int
    strategy: str

    def to_json_dict(self) -> dict[str, object]:
        return {
            "k": self.k_used,
            "colors": list(self.colors),
            "strategy": self.strategy,
            "bound": self.bound,
        }


# ---------------------------------------------------------------------------
# Deletion state


class _Peeler:
    """Alive-mask view of a graph while configurations are deleted."""

    def __init__(self, g: Graph):
        self.g = g
        self.alive = [True] * g.n
        self.deg = list(g.degrees())
        self.remaining = g.n

    def nbrs(self, v: int) -> list[int]:
        return [w for w in self.g.neighbors(v) if self.alive[w]]

    def delete(self, vs: tuple[int, ...]) -> None:
        for v in vs:
            if not self.alive[v]:
                raise RuntimeError(f"vertex {v} deleted twice")
            self.alive[v] = False
            self.remaining -= 1
        for v in vs:
            for w in self.g.neighbors(v):
                if self.alive[w]:
                    self.deg[w] -= 1


_Finder = Callable[[_Peeler], ReductionRecord | None]


def _two_neighbors(st: _Peeler, v: int) -> list[int]:
    return [w for w in st.nbrs(v) if st.deg[w] == 2]


# ---------------------------------------------------------------------------
# Configuration finders.  Each scans in a fixed priority order, breaking
# ties by lowest vertex index, so reductions are fully deterministic.


def _find_leaf(st: _Peeler) -> ReductionRecord | None:
    for v in range(st.g.n):
        if st.alive[v] and st.deg[v] <= 1:
            return ReductionRecord("leaf", (v,), {v: tuple(st.nbrs(v))})
    return None


def _find_adjacent_two(st: _Peeler) -> ReductionRecord | None:
    for v in range(st.g.n):
        if not st.alive[v] or st.deg[v] != 2:
            continue
        for u in st.nbrs(v):
            if st.deg[u] == 2:
                other_v = next(w for w in st.nbrs(v) if w != u)
                other_u = next(w for w in st.nbrs(u) if w != v)
                return ReductionRecord(
                    "adjacent-2", (v, u), {v: (other_v,), u: (other_u,)}
                )
    return None


def _star_record(kind: str, st: _Peeler, v: int, twos: list[int]) -> ReductionRecord:
    frontier: dict[int, tuple[int, ...]] = {
        v: tuple(w for w in st.nbrs(v) if w not in twos)
    }
    for w in twos:
        frontier[w] = tuple(x for x in st.nbrs(w) if x != v)
    return ReductionRecord(kind, (v, *twos), frontier)


def _find_eps(st: _Peeler, x: Fraction, deg_cap: int) -> ReductionRecord | None:
    rec = _find_leaf(st)
    if rec is not None:
        return rec
    for v in range(st.g.n):
        if st.alive[v] and st.deg[v] == 3:
            return ReductionRecord("three-vertex", (v,), {v: tuple(st.nbrs(v))})
    rec = _find_adjacent_two(st)
    if rec is not None:
        return rec
    # A degree-4+ vertex minimizing deg(v) - x * (number of 2-neighbors);
    # the discharging argument guarantees the minimum is at most 2 + 2x.
    best = -1
    best_val: Fraction | None = None
    for v in range(st.g.n):
        if not st.alive[v] or st.deg[v] < 4:
            continue
        val = st.deg[v] - x * len(_two_neighbors(st, v))
        if best_val is None or val < best_val:
            best, best_val = v, val
    if best_val is None:
        return None
    if best_val > 2 + 2 * x:
        raise ReductionExhaustedError(
            f"selected vertex {best} has charge {best_val} > {2 + 2 * x}"
        )
    if st.deg[best] > deg_cap:
        raise ReductionExhaustedError(
            f"selected vertex {best} has degree {st.deg[best]} > {deg_cap}"
        )
    return _star_record("star", st, best, _two_neighbors(st, best))


def _find_six(st: _Peeler) -> ReductionRecord | None:
    rec = _find_leaf(st) or _find_adjacent_two(st)
    if rec is not None:
        return rec
    for v in range(st.g.n):
        if st.alive[v] and st.deg[v] == 3:
            twos = _two_neighbors(st, v)
            if twos:
                w1 = twos[0]
                others = tuple(w for w in st.nbrs(v) if w != w1)
                x1 = next(x for x in st.nbrs(w1) if x != v)
                return ReductionRecord(
                    "3v-with-2nbr", (v, w1), {v: others, w1: (x1,)}
                )
    for v in range(st.g.n):
        if st.alive[v] and st.deg[v] == 4:
            twos = _two_neighbors(st, v)
            if len(twos) >= 3:
                return _star_record("4v-three-2nbrs", st, v, twos[:3])
    for v in range(st.g.n):
        if st.alive[v] and st.deg[v] == 5:
            twos = _two_neighbors(st, v)
            if len(twos) == 5:
                return _star_record("5v-five-2nbrs", st, v, twos)
    return None


def _find_five(st: _Peeler) -> ReductionRecord | None:
    rec = _find_leaf(st) or _find_adjacent_two(st)
    if rec is not None:
        return rec
    for v in range(st.g.n):
        if st.alive[v] and st.deg[v] == 3:
            weak = [w for w in st.nbrs(v) if st.deg[w] <= 3]
            if len(weak) >= 2:
                rec = _star_record("3v-weak-pair", st, v, _two_neighbors(st, v))
                surv = rec.frontier[v]
                protect = {u for u in surv if st.deg[u] >= 4}
                if len(surv) == 1:
                    protect.add(surv[0])
                return ReductionRecord(
                    rec.kind, rec.deleted, rec.frontier, tuple(sorted(protect))
                )
    for v in range(st.g.n):
        if st.alive[v] and st.deg[v] == 4:
            twos = _two_neighbors(st, v)
            if len(twos) == 4:
                return _star_record("4v-weak", st, v, twos)
    for v in range(st.g.n):
        if st.alive[v] and st.deg[v] == 4:
            twos = _two_neighbors(st, v)
            if twos and all(st.deg[w] <= 3 for w in st.nbrs(v)):
                return _star_record("4v-weak", st, v, twos)
    for v in range(st.g.n):
        if st.alive[v] and st.deg[v] == 4:
            twos_v = _two_neighbors(st, v)
            if len(twos_v) != 3:
                continue
            w = next(u for u in st.nbrs(v) if st.deg[u] != 2)
            if st.deg[w] != 4:
                continue
            twos_w = _two_neighbors(st, w)
            if len(twos_w) != 3:
                continue
            deleted = (v, w, *sorted(set(twos_v) | set(twos_w)))
            frontier: dict[int, tuple[int, ...]] = {v: (), w: ()}
            for u in deleted[2:]:
                frontier[u] = tuple(x for x in st.nbrs(u) if x != v and x != w)
            return ReductionRecord("adjacent-4v", deleted, frontier)
    return None


def find_reducible_six(g: Graph) -> ReductionRecord:
    """First reducible configuration of the 6-color engine (mad < 3)."""
    if g.n == 0:
        raise ValueError("graph is empty")
    rec = _find_six(_Peeler(g))
    if rec is None:
        raise ReductionExhaustedError("no 6-color configuration; is mad(G) < 3?")
    return rec


def find_reducible_five(g: Graph) -> ReductionRecord:
    """First reducible configuration of the 5-color engine (mad < 20/7)."""
    if g.n == 0:
        raise ValueError("graph is empty")
    rec = _find_five(_Peeler(g))
    if rec is None:
        raise ReductionExhaustedError("no 5-color configuration; is mad(G) < 20/7?")
    return rec


def _reduce_all(g: Graph, find: _Finder) -> list[ReductionRecord]:
    st = _Peeler(g)
    records = []
    while st.remaining:
        rec = find(st)
        if rec is None:
            raise ReductionExhaustedError(
                "no reducible configuration in a non-empty graph"
            )
        records.append(rec)
        st.delete(rec.deleted)
    return records


def _eps_engine(eps: Fraction) -> tuple[_Finder, int]:
    """Finder and color bound floor(8/eps) + 2 of the eps engine."""
    x = 1 - eps / 2
    k = math.floor(Fraction(8) / eps) + 2
    return (lambda st: _find_eps(st, x, k - 4)), k


def eps_reduction_records(g: Graph, eps: Fraction) -> list[ReductionRecord]:
    """Full deletion sequence of the eps engine (precondition not re-checked)."""
    return _reduce_all(g, _eps_engine(Fraction(eps))[0])


def six_reduction_records(g: Graph) -> list[ReductionRecord]:
    """Full deletion sequence of the 6-color engine (precondition not re-checked)."""
    return _reduce_all(g, _find_six)


def five_reduction_records(g: Graph) -> list[ReductionRecord]:
    """Full deletion sequence of the 5-color engine (precondition not re-checked)."""
    return _reduce_all(g, _find_five)


# ---------------------------------------------------------------------------
# Replay


def _add_unique_odd(avoid: set[int], pc: PartialColoring, v: int) -> None:
    c = pc.unique_odd_color(v)
    if c is not None:
        avoid.add(c)


def _extend_record(pc: PartialColoring, rec: ReductionRecord, g: Graph) -> None:
    k = pc.k
    col = pc.color
    kind = rec.kind
    if kind in ("leaf", "three-vertex"):
        v = rec.deleted[0]
        avoid: set[int] = set()
        for w in rec.frontier[v]:
            avoid.add(col[w])
            _add_unique_odd(avoid, pc, w)
        pc.assign(v, choose_color(avoid, k))
    elif kind == "adjacent-2":
        v1, v2 = rec.deleted
        (v0,) = rec.frontier[v1]
        (v3,) = rec.frontier[v2]
        avoid = {col[v0], col[v3]}
        _add_unique_odd(avoid, pc, v0)
        pc.assign(v1, choose_color(avoid, k))
        avoid = {col[v1], col[v0], col[v3]}
        _add_unique_odd(avoid, pc, v3)
        pc.assign(v2, choose_color(avoid, k))
    elif kind == "star":
        v, ws = rec.deleted[0], rec.deleted[1:]
        avoid = set()
        for u in rec.frontier[v]:
            avoid.add(col[u])
            _add_unique_odd(avoid, pc, u)
        for w in ws:
            for y in rec.frontier[w]:
                avoid.add(col[y])
        pc.assign(v, choose_color(avoid, k))
        for w in ws:
            (y,) = rec.frontier[w]
            avoid = {col[v], col[y]}
            _add_unique_odd(avoid, pc, v)
            _add_unique_odd(avoid, pc, y)
            pc.assign(w, choose_color(avoid, k))
    elif kind == "3v-with-2nbr":
        v, w1 = rec.deleted
        (x1,) = rec.frontier[w1]
        avoid = {col[x1]}
        for u in rec.frontier[v]:
            avoid.add(col[u])
            _add_unique_odd(avoid, pc, u)
        pc.assign(v, choose_color(avoid, k))
        avoid = {col[v], col[x1]}
        _add_unique_odd(avoid, pc, x1)
        pc.assign(w1, choose_color(avoid, k))
    elif kind == "4v-three-2nbrs":
        v, ws = rec.deleted[0], rec.deleted[1:]
        (w4,) = rec.frontier[v]
        avoid = {col[w4]}
        _add_unique_odd(avoid, pc, w4)
        for w in ws:
            avoid.add(col[rec.frontier[w][0]])
        pc.assign(v, choose_color(avoid, k))
        # every 2-neighbor also avoids the color on the kept fourth
        # neighbor, so that color keeps multiplicity one on N(v)
        for w in ws:
            (x,) = rec.frontier[w]
            avoid = {col[v], col[x], col[w4]}
            _add_unique_odd(avoid, pc, x)
            pc.assign(w, choose_color(avoid, k))
    elif kind == "5v-five-2nbrs":
        v, ws = rec.deleted[0], rec.deleted[1:]
        avoid = {col[rec.frontier[w][0]] for w in ws}
        pc.assign(v, choose_color(avoid, k))
        for w in ws:
            (x,) = rec.frontier[w]
            avoid = {col[v], col[x]}
            _add_unique_odd(avoid, pc, x)
            pc.assign(w, choose_color(avoid, k))
    elif kind == "3v-weak-pair":
        v, ws = rec.deleted[0], rec.deleted[1:]
        surv = rec.frontier[v]
        avoid = {col[u] for u in surv}
        for p in rec.protect:
            _add_unique_odd(avoid, pc, p)
        for w in ws:
            avoid.add(col[rec.frontier[w][0]])
        pc.assign(v, choose_color(avoid, k))
        for w in ws:
            (x,) = rec.frontier[w]
            avoid = {col[v], col[x]}
            _add_unique_odd(avoid, pc, x)
            if len(surv) == 1:
                avoid.add(col[surv[0]])
            pc.assign(w, choose_color(avoid, k))
    elif kind == "4v-weak":
        v, ws = rec.deleted[0], rec.deleted[1:]
        avoid = {col[u] for u in rec.frontier[v]}
        for w in ws:
            avoid.add(col[rec.frontier[w][0]])
        pc.assign(v, choose_color(avoid, k))
        # the center has even degree, so its odd class is maintained by
        # making each 2-neighbor dodge the center's current unique odd color
        for w in ws:
            (x,) = rec.frontier[w]
            avoid = {col[v], col[x]}
            _add_unique_odd(avoid, pc, v)
            _add_unique_odd(avoid, pc, x)
            pc.assign(w, choose_color(avoid, k))
    elif kind == "adjacent-4v":
        v, w = rec.deleted[0], rec.deleted[1]
        twos = rec.deleted[2:]
        avoid = {
            col[x] for u in twos if g.has_edge(u, v) for x in rec.frontier[u]
        }
        pc.assign(v, choose_color(avoid, k))
        avoid = {col[v]} | {
            col[x] for u in twos if g.has_edge(u, w) for x in rec.frontier[u]
        }
        pc.assign(w, choose_color(avoid, k))
        for u in twos:
            anchors = list(rec.frontier[u]) + [q for q in (v, w) if g.has_edge(u, q)]
            avoid = set()
            for p in anchors:
                avoid.add(col[p])
                _add_unique_odd(avoid, pc, p)
            pc.assign(u, choose_color(avoid, k))
    else:  # pragma: no cover
        raise RuntimeError(f"unknown record kind {kind!r}")


def _reduce_and_replay(g: Graph, find: _Finder, k: int, strategy: str) -> ColoringResult:
    """Reduce with find, replay in reverse with k colors and verify.

    The caller has decided the density band in which k colors suffice."""
    pc = PartialColoring(g, k)
    for rec in reversed(_reduce_all(g, find)):
        _extend_record(pc, rec, g)
    if not pc.is_complete():
        raise RuntimeError("replay left vertices uncolored")
    return _finish(g, tuple(pc.color), k, strategy)


def _finish(g: Graph, colors: tuple[int, ...], bound: int, strategy: str) -> ColoringResult:
    ok, violations = is_odd_coloring(g, colors) if g.n else (True, [])
    if not ok:
        raise RuntimeError(f"internal: invalid coloring produced ({violations[:3]})")
    k_used = max(colors, default=0)
    if k_used > bound:
        raise RuntimeError(f"internal: used {k_used} colors, bound is {bound}")
    return ColoringResult(colors, k_used, bound, strategy)


# ---------------------------------------------------------------------------
# Colorers


def color_forest(g: Graph) -> ColoringResult:
    """Odd coloring of a forest with at most 3 colors.

    Peels vertices of degree at most one onto a stack, then colors in
    reverse: each vertex has at most one colored neighbor w and avoids
    w's color and w's current unique odd color.
    """
    deg = list(g.degrees())
    queue = [v for v in range(g.n) if deg[v] <= 1]
    order: list[int] = []
    removed = [False] * g.n
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        removed[v] = True
        order.append(v)
        for w in g.neighbors(v):
            if not removed[w]:
                deg[w] -= 1
                if deg[w] == 1:
                    queue.append(w)
    if len(order) != g.n:
        raise ValueError("graph contains a cycle")
    pc = PartialColoring(g, 3)
    for v in reversed(order):
        avoid: set[int] = set()
        for w in g.neighbors(v):
            if pc.is_colored(w):
                avoid.add(pc.color[w])
                _add_unique_odd(avoid, pc, w)
        pc.assign(v, choose_color(avoid, 3))
    return _finish(g, tuple(pc.color), 3, "forest")


def cycle_chi(n: int) -> int:
    """Odd chromatic number of the n-cycle: 3 if 3 | n, 5 if n = 5, else 4."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    if n % 3 == 0:
        return 3
    if n == 5:
        return 5
    return 4


def _cycle_pattern(n: int) -> list[int]:
    if n % 3 == 0:
        return [1, 2, 3] * (n // 3)
    if n == 5:
        return [1, 2, 3, 4, 5]
    if n % 3 == 1:
        return [1, 2, 3, 4] + [1, 2, 3] * ((n - 4) // 3)
    return [1, 2, 3, 4, 1, 2, 3, 4] + [1, 2, 3] * ((n - 8) // 3)


def color_cycle(n: int) -> ColoringResult:
    """Optimal odd coloring of the standard n-cycle (vertices in cycle order)."""
    pattern = _cycle_pattern(n)
    return _finish(gen_cycle(n), tuple(pattern), cycle_chi(n), "cycle")


def color_cycle_graph(g: Graph) -> ColoringResult:
    """Optimal odd coloring of a graph that is a single cycle."""
    if g.n < 3 or any(d != 2 for d in g.degrees()) or len(g.components()) != 1:
        raise ValueError("graph is not a single cycle")
    walk = [0, min(g.neighbors(0))]
    while len(walk) < g.n:
        prev, cur = walk[-2], walk[-1]
        walk.append(next(w for w in g.neighbors(cur) if w != prev))
    pattern = _cycle_pattern(g.n)
    colors = [0] * g.n
    for pos, v in enumerate(walk):
        colors[v] = pattern[pos]
    return _finish(g, tuple(colors), cycle_chi(g.n), "cycle")


def classify_small(g: Graph) -> ColoringResult | None:
    """Detect the one- and two-color cases.

    One color iff there are no edges; two iff the graph is bipartite and
    every degree is zero or odd (each vertex then sees its full, odd-sized
    neighborhood in the opposite color).  Returns None otherwise.
    """
    if g.n == 0:
        return ColoringResult((), 0, 0, "edgeless")
    if g.m == 0:
        return ColoringResult((1,) * g.n, 1, 1, "edgeless")
    side = g.bipartition()
    if side is not None and all(d == 0 or d % 2 == 1 for d in g.degrees()):
        colors = tuple(s + 1 for s in side)
        return _finish(g, colors, 2, "two-color")
    return None


def color_eps(g: Graph, eps: Fraction | int) -> ColoringResult:
    """Odd coloring with floor(8/eps) + 2 colors for graphs of mad <= 4 - eps.

    Requires 0 < eps <= 8/5.  The precondition mad(g) <= 4 - eps is
    verified exactly before reducing.
    """
    eps = Fraction(eps)
    if not 0 < eps <= Fraction(8, 5):
        raise ValueError("eps must satisfy 0 < eps <= 8/5")
    if g.n == 0:
        raise ValueError("graph is empty")
    if not mad_at_most(g, 4 - eps):
        raise ValueError(f"mad(G) exceeds 4 - eps = {4 - eps}")
    return _reduce_and_replay(g, *_eps_engine(eps), "eps")


def color_six(g: Graph) -> ColoringResult:
    """Odd coloring with at most 6 colors for graphs of mad < 3."""
    if g.n == 0:
        raise ValueError("graph is empty")
    if not mad_below(g, 3):
        raise ValueError("color_six requires mad(G) < 3")
    return _reduce_and_replay(g, _find_six, 6, "six")


def color_five(g: Graph) -> ColoringResult:
    """Odd coloring with at most 5 colors for graphs of mad < 20/7."""
    if g.n == 0:
        raise ValueError("graph is empty")
    if not mad_below(g, Fraction(20, 7)):
        raise ValueError("color_five requires mad(G) < 20/7")
    return _reduce_and_replay(g, _find_five, 5, "five")


def color_auto(g: Graph, budget: SolveBudget | None = None) -> ColoringResult:
    """Color with the strongest applicable strategy (fewest guaranteed colors).

    Dispatch: edgeless -> 1 color; bipartite with all degrees 0/odd -> 2;
    forest -> 3; a single cycle -> its exact value; then by exact maximum
    average degree: below 20/7 -> 5, below 3 -> 6, below 4 -> the eps
    engine at eps = 4 - mad.  Denser graphs fall back to the exact solver
    when a budget is supplied and raise UnsupportedDensityError otherwise.
    """
    result = classify_small(g)
    if result is not None:
        return result
    if g.is_forest():
        return color_forest(g)
    if g.n >= 3 and all(d == 2 for d in g.degrees()) and len(g.components()) == 1:
        return color_cycle_graph(g)
    mad = mad_exact(g).mad
    if mad < Fraction(20, 7):
        return _reduce_and_replay(g, _find_five, 5, "five")
    if mad < 3:
        return _reduce_and_replay(g, _find_six, 6, "six")
    if mad < 4:
        return _reduce_and_replay(g, *_eps_engine(4 - mad), "eps")
    if budget is None:
        raise UnsupportedDensityError(
            "mad(G) >= 4: no constructive bound applies; supply a search budget"
        )
    k, colors = odd_chromatic_number(g, budget)
    return ColoringResult(tuple(colors), k, k, "exact")


def kstar_coloring(n: int) -> ColoringResult:
    """Canonical odd coloring of the subdivided complete graph on n hubs.

    Hubs get colors 1..n; each subdivision vertex then takes the smallest
    color avoiding its two hub colors and, for each of those hubs, the
    hub's current unique odd color, processed in index order.  Uses exactly
    n colors for n >= 3 (3 for n = 2, where the middle vertex of the path
    needs a third color).
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    g = gen_kstar(n)
    k = n if n >= 3 else 3
    pc = PartialColoring(g, k)
    for h in range(n):
        pc.assign(h, h + 1)
    for s in range(n, g.n):
        i, j = g.neighbors(s)
        avoid = {pc.color[i], pc.color[j]}
        _add_unique_odd(avoid, pc, i)
        _add_unique_odd(avoid, pc, j)
        pc.assign(s, choose_color(avoid, k))
    return _finish(g, tuple(pc.color), k, "kstar")
