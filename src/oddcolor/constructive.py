"""Constructive odd-coloring engines with guaranteed color bounds.

Every engine follows the same reduce/replay scheme: repeatedly locate a
small reducible configuration in the current graph, record which vertices
it deletes, and delete them; once the graph is empty, replay the records in
reverse, coloring each deleted vertex with the smallest color not in a
small avoid set.  When the replay reaches a record, every later record is
colored and no earlier one is, so the neighbours that survived its deletion
are exactly the colored neighbours of its vertices: the replay reads them
off the coloring, and a record stores none.  Avoid sets combine neighbor
colors (properness), colors of second neighbors through deleted degree-2
vertices (so those see two distinct colors), and the current unique odd
color of already-colored neighbors (so their odd color survives the new
assignment).  Unique odd colors are always recomputed against the coloring
as it stands, including vertices recolored earlier in the replay; with two
or more odd classes nothing needs protecting, because a new neighbor color
flips a single parity class.  The replay keeps its coloring in two plain
lists: col (0: uncolored) and odd, per vertex the colors of odd
multiplicity on its colored neighbours.  Those parities and the avoid sets
are bit masks: bit c stands for color c, and the color taken is the lowest
clear bit.

The reduction loop (``_reduce_all``) first deletes every leaf, a vertex of
degree 0 or 1, lowest index first, as each appears; only when none is left
does it consult the engine's rules.  An engine is an ordered table of
rules, one per reducible configuration of the paper's discharging
argument.  A rule names the current degrees its center may have and a
match function that returns the configuration's record at a vertex, or
None.  The first rule that matches wins, at its lowest-indexed vertex, so
reductions are fully deterministic; the eps engine ends in one rule keyed
by charge, which picks the degree-4+ vertex of least charge.  One object
(``_Reducer``) holds the loop's state: the alive vertices, their current
degrees, the leaf heap and, per rule, a lazily checked heap of candidate
centers, to which a deletion pushes only the vertices within the rule's
reach (its wake) whose degree, or a neighbour's, fell.

Most rows are plain stars built by ``_star`` from counts: a center with at
least t 2-neighbors, or at least w neighbors of degree at most 3, deleted
with some of its 2-neighbors; the row's wake follows from those counts.
Two rows keep a match function and a wake of their own: adjacent-4v (two
centers) and the eps star (its charge key and bound checks).  The 5-color
engine keeps its two 4v-weak rows separate: every center the first (four
2-neighbors) accepts, the second (a 2-neighbor and only weak neighbors)
accepts too, so one merged row would pick the lowest center of either
shape and change the reduction sequence.

Every record kind except adjacent-4v is a star: a center, colored first,
and some of its degree-2 neighbors.  One replay colors all of them, driven
by three flags per kind (``_STAR_REPLAY``); adjacent-4v has its own.

Three engines are provided:

* ``color_eps(g, eps)``: mad(g) <= 4 - eps gives floor(8/eps) + 2 colors;
* ``color_six(g)``: mad(g) < 3 gives 6 colors;
* ``color_five(g)``: mad(g) < 20/7 gives 5 colors;

plus direct colorers for forests (3 colors), cycles (3/4/5 by length), the
two-color classifier, the canonical coloring of subdivided complete
graphs, and a dispatcher that tries the 5-, then the 6-color reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Callable, Container, NamedTuple

from .coloring import _first_free, is_odd_coloring
from .exact import SolveBudget, cycle_chi, odd_chromatic_number
from .graph import Graph, _contract, gen_kstar
from .sparsity import mad_at_most, mad_below, mad_exact


class UnsupportedDensityError(ValueError):
    """No constructive bound applies (mad >= 4) and no search budget was given."""


class ReductionExhaustedError(RuntimeError):
    """No reducible configuration found: expected outside the engine's density
    band, a fault within it."""


class ReductionRecord(NamedTuple):
    """One deleted configuration, replayed in reverse during extension.

    deleted lists the removed vertices in coloring order (the center
    first).  Their neighbours that survive the deletion are not stored: in
    the replay they are the colored ones.  protect lists surviving vertices
    whose current unique odd color the center must additionally avoid (only
    the weak-3-vertex configuration needs it).
    """

    kind: str
    deleted: tuple[int, ...]
    protect: tuple[int, ...] = ()


@dataclass(frozen=True)
class ColoringResult:
    """A verified odd coloring together with the bound that produced it."""

    colors: tuple[int, ...]
    k_used: int
    bound: int
    strategy: str


_Match = Callable[["_Reducer", int], ReductionRecord | None]


class _Rule(NamedTuple):
    """One row of an engine's rule table.

    degrees: the current degrees a center may have.  match: the
    configuration's record at a center, or None.  wake: the degrees a
    neighbour of a center may fall to and thereby make it match (``_star``
    derives it from its counts); far: the same holds for the neighbours of
    a neighbour of the center's degree.
    key: the integer a center is chosen by, least first; rules without one
    take their lowest-indexed center.
    """

    degrees: Container[int]
    match: _Match
    wake: tuple[int, ...] = ()
    far: bool = False
    key: Callable[[_Reducer, int], int] | None = None


_Slot = tuple[_Rule, list[tuple[int, int]], list[int | None]]  # rule, heap, last


class _Reducer:
    """One reduction's state: the alive vertices, their current degrees, how
    many remain, a min-heap of leaves (vertices of degree below 2) and, per
    rule, a lazily checked min-heap of candidate centers.  delete queues every
    vertex it brings below degree 2 and a pop skips dead entries, so a leaf
    queued at degree 1 and again at 0 is recorded once.

    Every alive vertex that matches a rule has an entry (key, v) in the
    rule's heap with its current key (0 for a rule without one).
    Degrees only fall, so after a deletion a vertex can start matching, or
    change its key, only if its own degree fell or, within the rule's
    reach, a neighbour's did: wake pushes exactly those.  A rule's last[v]
    is the key of v's newest entry, None once that entry is popped, so v is
    queued once per key and its older entries are skipped.  The entry at
    the top is checked again (alive, of the rule's degree, matching) and
    dropped when it fails, so the first that passes is the first rule's
    lowest center, or its center of least key.  A keyed rule's heap (the eps
    star's) is filled when first() first reaches it, and wake skips it until
    then; from that moment the invariant holds, so its choice is the same.
    """

    def __init__(self, g: Graph, rules: tuple[_Rule, ...]):
        self.adj = g._adj
        self.alive = [True] * g.n
        self.deg = deg = list(g.degrees())
        self.remaining = g.n
        self.leaves = [v for v, d in enumerate(deg) if d < 2]  # in index order: a heap
        # one (rule, heap, last) slot per rule, in priority order; a keyed
        # rule's last stays empty until its heap is filled
        self.slots = [(rule, [], [] if rule.key else [None] * g.n) for rule in rules]
        top = max(deg, default=0) + 1
        # own[d]: the slots whose centers may have degree d; near[du][dv]:
        # those a neighbour of degree dv is pushed to when u falls to du
        self.own = [[s for s in self.slots if d in s[0].degrees] for d in range(top)]
        self.near = {
            du: [[s for s in self.own[dv] if du in s[0].wake] for dv in range(top)]
            for du in {du for rule in rules for du in rule.wake}
        }
        for v, d in enumerate(deg):  # in index order, so each list is a heap
            for _, heap, last in self.own[d]:
                if last:
                    last[v] = 0
                    heap.append((0, v))

    def nbrs(self, v: int) -> list[int]:
        alive = self.alive
        return [w for w in self.adj[v] if alive[w]]

    def delete(self, vs: tuple[int, ...]) -> list[int]:
        """Delete vs; return the alive vertices whose degree fell, once each."""
        adj, alive, deg, leaves = self.adj, self.alive, self.deg, self.leaves
        for v in vs:
            if not alive[v]:
                raise RuntimeError(f"vertex {v} deleted twice")
            alive[v] = False
        self.remaining -= len(vs)
        fell: dict[int, None] = {}
        for v in vs:
            for w in adj[v]:
                if alive[w]:
                    deg[w] -= 1
                    fell[w] = None
                    if deg[w] < 2:
                        heappush(leaves, w)
        return list(fell)

    def push(self, v: int, slots: list[_Slot]) -> None:
        """Give v a current entry in the heaps of these rules."""
        for rule, heap, last in slots:
            if not last:  # an unfilled keyed heap
                continue
            k = rule.key(self, v) if rule.key else 0
            if last[v] != k:
                last[v] = k
                heappush(heap, (k, v))

    def wake(self, fell: list[int]) -> None:
        """Push what may match after a deletion lowered the degrees of fell."""
        adj, alive, deg = self.adj, self.alive, self.deg
        for u in fell:
            self.push(u, self.own[deg[u]])
            near = self.near.get(deg[u])
            if near is None:
                continue
            for v in adj[u]:
                if alive[v] and (slots := near[deg[v]]):
                    self.push(v, slots)
                    for slot in slots:
                        if slot[0].far:
                            for w in adj[v]:
                                if alive[w] and deg[w] in slot[0].degrees:
                                    self.push(w, [slot])

    def first(self) -> ReductionRecord | None:
        """Record of the first rule that matches, at its lowest center."""
        alive, deg = self.alive, self.deg
        for rule, heap, last in self.slots:
            if not last:  # a keyed rule reached for the first time: fill in place
                last += [None] * len(alive)
                for v, d in enumerate(deg):
                    if alive[v] and d in rule.degrees:
                        last[v] = k = rule.key(self, v)
                        heap.append((k, v))
                heapify(heap)
            while heap:
                k, v = heappop(heap)
                if last[v] != k:
                    continue
                last[v] = None
                if not alive[v] or deg[v] not in rule.degrees:
                    continue
                rec = rule.match(self, v)
                if rec is not None:
                    return rec
        return None


def _two_neighbors(st: _Reducer, v: int) -> list[int]:
    alive, deg = st.alive, st.deg
    return [w for w in st.adj[v] if deg[w] == 2 and alive[w]]


# ---------------------------------------------------------------------------
# Configurations: each matches at a center v of the degree its rule names


def _star(kind: str, degrees: Container[int], twos: int = 0,
          take: int | None = None, weak: int = 0, protect: bool = False) -> _Rule:
    """Rule whose centers have at least weak neighbors of degree at most 3
    and at least twos 2-neighbors; it deletes the center with its first
    take 2-neighbors (all of them when take is None), and with protect
    protects its survivors of degree 4+, or its one survivor.  Its wake
    follows from its counts.  A row that neither counts nor takes
    2-neighbors never scans for them: three-vertex matches often."""

    def match(st: _Reducer, v: int) -> ReductionRecord | None:
        if weak and sum(1 for w in st.nbrs(v) if st.deg[w] <= 3) < weak:
            return None
        ws = _two_neighbors(st, v) if twos or take != 0 else []
        if len(ws) < twos:
            return None
        deleted = (v, *ws[:take])
        if not protect:
            return ReductionRecord(kind, deleted)
        surv = [u for u in st.nbrs(v) if u not in deleted]
        guard = tuple(u for u in surv if len(surv) == 1 or st.deg[u] >= 4)
        return ReductionRecord(kind, deleted, guard)

    return _Rule(degrees, match, wake=(2, 3) if weak else (2,) if twos else ())


def _adjacent_four(st: _Reducer, v: int) -> ReductionRecord | None:
    twos_v = _two_neighbors(st, v)
    if len(twos_v) != 3:
        return None
    w = next(u for u in st.nbrs(v) if st.deg[u] != 2)
    if st.deg[w] != 4:
        return None
    twos_w = _two_neighbors(st, w)
    if len(twos_w) != 3:
        return None
    return ReductionRecord("adjacent-4v", (v, w, *sorted(set(twos_v) | set(twos_w))))


# Rule tables, in priority order; _reduce_all deletes every leaf before it
# consults them.  _star rows derive their wakes; adjacent-4v's is written by
# hand: it also wakes on its partner falling to 4, and far carries a wake one
# step on, so a new 2-neighbour of the partner wakes the center too.  A drop
# to 1 needs no wake: the loop deletes that leaf before any rule runs, and
# the deletion wakes the center itself.
_ADJACENT_TWO = _star("adjacent-2", (2,), twos=1, take=1)
_SIX = (
    _ADJACENT_TWO,
    _star("3v-with-2nbr", (3,), twos=1, take=1),
    _star("4v-three-2nbrs", (4,), twos=3, take=3),
    _star("5v-five-2nbrs", (5,), twos=5),
)
_FIVE = (
    _ADJACENT_TWO,
    _star("3v-weak-pair", (3,), weak=2, protect=True),
    _star("4v-weak", (4,), twos=4),
    _star("4v-weak", (4,), twos=1, weak=4),
    _Rule((4,), _adjacent_four, wake=(2, 4), far=True),
)
_EPS_RULES = (
    _star("three-vertex", (3,), take=0),
    _ADJACENT_TWO,
)


def _reduce_all(g: Graph, rules: tuple[_Rule, ...]) -> list[ReductionRecord]:
    """An engine's deletion sequence; it deletes the leaves itself."""
    st = _Reducer(g, rules)
    alive, leaves = st.alive, st.leaves
    records = []
    while True:
        while leaves:
            v = heappop(leaves)
            if alive[v]:  # else queued again at a lower degree
                records.append(ReductionRecord("leaf", (v,)))
                st.wake(st.delete((v,)))
        if not st.remaining:
            return records
        rec = st.first()
        if rec is None:
            raise ReductionExhaustedError(
                "no reducible configuration in a non-empty graph"
            )
        records.append(rec)
        st.wake(st.delete(rec.deleted))


def _eps_engine(eps: Fraction) -> tuple[tuple[_Rule, ...], int]:
    """Rule table and color bound floor(8/eps) + 2 of the eps engine.

    Its last rule is the star at the degree-4+ vertex minimizing the charge
    deg(v) - x * (number of 2-neighbors), x = 1 - eps/2, lowest index on
    ties; the discharging argument guarantees the minimum is at most
    2 + 2x.  Charges are compared scaled by q > 0 (x = p/q) as integers.
    """
    x = 1 - eps / 2
    k = math.floor(Fraction(8) / eps) + 2
    p, q = x.numerator, x.denominator

    def charge(st: _Reducer, v: int) -> int:
        return q * st.deg[v] - p * len(_two_neighbors(st, v))

    def star(st: _Reducer, v: int) -> ReductionRecord:
        twos = _two_neighbors(st, v)
        if q * st.deg[v] - p * len(twos) > 2 * q + 2 * p:
            value = st.deg[v] - x * len(twos)
            raise ReductionExhaustedError(
                f"selected vertex {v} has charge {value} > {2 + 2 * x}"
            )
        return ReductionRecord("star", (v, *twos))

    # with at most deg 2-neighbours, a charge within the bound gives
    # deg * eps/2 <= 4 - eps, so deg <= 8/eps - 2 and, as an integer,
    # deg <= k - 4: no center of higher degree can pass the check
    star_rule = _Rule(range(4, k - 3), star, wake=(2,), key=charge)
    return _EPS_RULES + (star_rule,), k


def eps_reduction_records(g: Graph, eps: Fraction) -> list[ReductionRecord]:
    """Full deletion sequence of the eps engine (precondition not re-checked)."""
    return _reduce_all(g, _eps_engine(Fraction(eps))[0])


def six_reduction_records(g: Graph) -> list[ReductionRecord]:
    """Full deletion sequence of the 6-color engine (precondition not re-checked)."""
    return _reduce_all(g, _SIX)


def five_reduction_records(g: Graph) -> list[ReductionRecord]:
    """Full deletion sequence of the 5-color engine (precondition not re-checked)."""
    return _reduce_all(g, _FIVE)


# ---------------------------------------------------------------------------
# Replay


# kind -> (protect_surv, dodge_center, dodge_lone) for the star replay.
# protect_surv: the center avoids the unique odd colors of its surviving
#   neighbors; otherwise those of rec.protect.
# dodge_center: each 2-neighbor avoids the center's unique odd color, so
#   the center keeps an odd class (a 4v-weak center has even degree).
# dodge_lone: when the center has one surviving neighbor, each 2-neighbor
#   avoids its color, so that color keeps multiplicity one on N(center).
_STAR_REPLAY = {
    "leaf": (True, False, False),
    "three-vertex": (True, False, False),
    "3v-with-2nbr": (True, False, False),
    "5v-five-2nbrs": (True, False, False),
    "adjacent-2": (True, False, True),
    "4v-three-2nbrs": (True, False, True),
    "star": (True, True, False),
    "3v-weak-pair": (False, False, True),
    "4v-weak": (False, True, False),
}


def _paint(col: list[int], odd: list[int], adj: list[list[int]], v: int, c: int) -> None:
    """Color v with c and flip c's parity on each neighbour of v."""
    col[v] = c
    bit = 1 << c
    for w in adj[v]:
        odd[w] ^= bit


def _replay(col: list[int], odd: list[int], k: int, rec: ReductionRecord,
            adj: list[list[int]]) -> None:
    # avoid sets are bit masks, bit c for color c; a vertex's unique odd color
    # is its parity mask o when o & (o - 1) == 0 (one bit, or none: o = 0).
    # rec's survivors are the colored neighbours of its vertices, and an
    # uncolored one adds only bit 0, which _first_free ignores.
    if rec.kind == "adjacent-4v":
        v, w, *twos = rec.deleted
        avoid = 0
        for center in (v, w):  # each avoids its 2-neighbours' far ends; w avoids v
            for u in twos:
                if center in adj[u]:
                    for x in adj[u]:
                        avoid |= 1 << col[x]
            _paint(col, odd, adj, center, _first_free(avoid, k))
            avoid = 1 << col[center]
        for u in twos:
            avoid = 0
            for p in adj[u]:
                if col[p]:  # its two anchors: a survivor, v or w
                    avoid |= 1 << col[p]
                    if (o := odd[p]) & (o - 1) == 0:
                        avoid |= o
            _paint(col, odd, adj, u, _first_free(avoid, k))
        return
    protect_surv, dodge_center, dodge_lone = _STAR_REPLAY[rec.kind]
    v, ws = rec.deleted[0], rec.deleted[1:]
    colored = col.__getitem__
    surv = [*filter(colored, adj[v])]  # read before any vertex of rec is colored
    avoid = 0
    for x in surv:
        avoid |= 1 << col[x]
    anchors = []
    for w in ws:
        (x,) = filter(colored, adj[w])  # a 2-neighbour's one survivor
        anchors.append(x)
        avoid |= 1 << col[x]
    for u in surv if protect_surv else rec.protect:
        if (o := odd[u]) & (o - 1) == 0:
            avoid |= o
    _paint(col, odd, adj, v, _first_free(avoid, k))
    shared = 1 << col[v]  # what every 2-neighbor avoids, bar its own anchor
    if dodge_lone and len(surv) == 1:
        shared |= 1 << col[surv[0]]
    for w, x in zip(ws, anchors):
        avoid = shared | 1 << col[x]
        if (o := odd[x]) & (o - 1) == 0:
            avoid |= o
        if dodge_center and (o := odd[v]) & (o - 1) == 0:
            avoid |= o
        _paint(col, odd, adj, w, _first_free(avoid, k))


def _reduce_and_replay(
    g: Graph, rules: tuple[_Rule, ...], k: int, strategy: str
) -> ColoringResult:
    """Reduce with rules, replay in reverse with k colors and verify.

    Each configuration is reducible by a local argument, so a completed
    reduction replays with k colors whatever the density."""
    return _replay_all(g, _reduce_all(g, rules), k, strategy)


def _replay_all(g: Graph, records: list[ReductionRecord], k: int, strategy: str) -> ColoringResult:
    col, odd = [0] * g.n, [0] * g.n
    for rec in reversed(records):
        _replay(col, odd, k, rec, g._adj)
    if not all(col):
        raise RuntimeError("replay left vertices uncolored")
    return _finish(g, tuple(col), k, strategy)


def _finish(g: Graph, colors: tuple[int, ...], bound: int, strategy: str) -> ColoringResult:
    ok, violations = is_odd_coloring(g, colors)
    if not ok:
        raise RuntimeError(f"invalid coloring produced ({violations[:3]})")
    k_used = max(colors, default=0)
    if k_used > bound:
        raise RuntimeError(f"used {k_used} colors, bound is {bound}")
    return ColoringResult(colors, k_used, bound, strategy)


# ---------------------------------------------------------------------------
# Colorers


def color_forest(g: Graph) -> ColoringResult:
    """Odd coloring of a forest with at most 3 colors.

    Replays the kernel's peel in reverse, each vertex as a leaf whose one
    colored neighbor is the one it still had when it was peeled.
    """
    if not g.is_forest():
        raise ValueError("graph contains a cycle")
    col, odd = [0] * g.n, [0] * g.n
    for v, _ in reversed(_contract(g).peeled):
        _replay(col, odd, 3, ReductionRecord("leaf", (v,)), g._adj)
    return _finish(g, tuple(col), 3, "forest")


def _cycle_pattern(n: int) -> list[int]:
    if n % 3 == 0:
        return [1, 2, 3] * (n // 3)
    if n == 5:
        return [1, 2, 3, 4, 5]
    if n % 3 == 1:
        return [1, 2, 3, 4] + [1, 2, 3] * ((n - 4) // 3)
    return [1, 2, 3, 4, 1, 2, 3, 4] + [1, 2, 3] * ((n - 8) // 3)


def color_cycle_graph(g: Graph) -> ColoringResult:
    """Optimal odd coloring of a graph that is a single cycle."""
    if not g.is_cycle():
        raise ValueError("graph is not a single cycle")
    (walk,) = _contract(g).cycles  # from vertex 0 to its smaller neighbour first
    colors = [0] * g.n
    for v, c in zip(walk, _cycle_pattern(g.n)):  # the walk ends back at 0
        colors[v] = c
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
    if all(d % 2 or d == 0 for d in g.degrees()) and (side := g.bipartition()) is not None:
        return _finish(g, tuple(s + 1 for s in side), 2, "two-color")
    return None


def color_eps(g: Graph, eps: Fraction | int) -> ColoringResult:
    """Odd coloring with floor(8/eps) + 2 colors for graphs of mad <= 4 - eps.

    Requires 0 < eps <= 8/5.  The precondition mad(g) <= 4 - eps is
    verified exactly before reducing.
    """
    eps = Fraction(eps)
    if not 0 < eps <= Fraction(8, 5):
        raise ValueError("eps must satisfy 0 < eps <= 8/5")
    if not mad_at_most(g, 4 - eps):
        raise ValueError(f"mad(G) exceeds 4 - eps = {4 - eps}")
    return _reduce_and_replay(g, *_eps_engine(eps), "eps")


def color_six(g: Graph) -> ColoringResult:
    """Odd coloring with at most 6 colors for graphs of mad < 3."""
    if not mad_below(g, 3):
        raise ValueError("color_six requires mad(G) < 3")
    return _reduce_and_replay(g, _SIX, 6, "six")


def color_five(g: Graph) -> ColoringResult:
    """Odd coloring with at most 5 colors for graphs of mad < 20/7."""
    if not mad_below(g, Fraction(20, 7)):
        raise ValueError("color_five requires mad(G) < 20/7")
    return _reduce_and_replay(g, _FIVE, 5, "five")


def color_auto(g: Graph, budget: SolveBudget | None = None) -> ColoringResult:
    """Color with the strongest applicable strategy (fewest guaranteed colors).

    Dispatch: edgeless -> 1 color; bipartite with all degrees 0/odd -> 2;
    forest -> 3; a single cycle -> its exact value; then the 5-color
    reduction, and the 6-color one if it runs out of configurations: one
    that completes proves its bound, so no flow runs.  It completes whenever
    mad < 20/7 (resp. 3), and often above.  Only when both run out: the
    exact mad, and below 4 the eps engine at eps = 4 - mad.  Denser graphs
    fall back to the exact solver when a budget is supplied and raise
    UnsupportedDensityError otherwise.
    """
    result = classify_small(g)
    if result is not None:
        return result
    if g.is_forest():
        return color_forest(g)
    if g.is_cycle():
        return color_cycle_graph(g)
    for rules, k, strategy in ((_FIVE, 5, "five"), (_SIX, 6, "six")):
        try:
            records = _reduce_all(g, rules)
        except ReductionExhaustedError:  # a configuration is missing: try the next
            continue
        return _replay_all(g, records, k, strategy)
    mad = mad_exact(g).mad
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

    Hubs get colors 1..n; then each subdivision vertex, in index order, is
    replayed as a three-vertex record, whose colored neighbors are its two
    hubs.  Uses exactly n colors for n >= 3 (3 for n = 2, where the middle
    vertex of the path needs a third color).
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    g = gen_kstar(n)
    k = n if n >= 3 else 3
    col, odd = [0] * g.n, [0] * g.n
    for h in range(n):
        _paint(col, odd, g._adj, h, h + 1)
    for s in range(n, g.n):
        _replay(col, odd, k, ReductionRecord("three-vertex", (s,)), g._adj)
    return _finish(g, tuple(col), k, "kstar")
