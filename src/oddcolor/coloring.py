"""Odd-coloring state and verification.

An odd coloring is a proper vertex coloring in which every non-isolated
vertex sees some color an odd number of times on its neighborhood.
PartialColoring tracks, for each vertex, the set of colors with odd
multiplicity among its currently colored neighbors, so it is available in
O(1) while colorings are built incrementally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .graph import Graph


class PaletteExhaustedError(RuntimeError):
    """All k colors were forbidden; a color-count bound was violated upstream."""


@dataclass(frozen=True)
class Violation:
    """One reason a total coloring fails to be an odd coloring.

    kind is "improper-edge" (where = the offending edge, u < v) or
    "no-odd-color" (where = a non-isolated vertex whose neighborhood color
    classes are all even).
    """

    kind: str
    where: tuple[int, int] | int


def choose_color(avoid: Iterable[int], k: int) -> int:
    """Smallest color in 1..k not contained in avoid (a set is used as is)."""
    forbidden = avoid if isinstance(avoid, set) else set(avoid)
    for c in range(1, k + 1):
        if c not in forbidden:
            return c
    raise PaletteExhaustedError(f"all {k} colors forbidden by {sorted(forbidden)}")


class PartialColoring:
    """Mutable partial proper coloring with per-vertex neighbor-color parity.

    Colors are positive integers 1..k; 0 means uncolored.  Properness is
    enforced at every assign, whose ValueErrors all come before any change.
    The odd-color set of a vertex always reflects the colors on its
    currently colored neighbors, including vertices that were re-colored
    after deletion/replay, which is exactly the "current coloring" a
    colorer must consult before each assignment.
    """

    def __init__(self, graph: Graph, k: int):
        if k < 1:
            raise ValueError("need at least one color")
        self.graph = graph
        self.k = k
        self.color = [0] * graph.n
        self._odd: list[set[int]] = [set() for _ in range(graph.n)]

    def is_colored(self, v: int) -> bool:
        return self.color[v] != 0

    def assign(self, v: int, c: int) -> None:
        if not 1 <= c <= self.k:
            raise ValueError(f"color {c} out of range 1..{self.k}")
        color, nbs = self.color, self.graph.neighbors(v)
        if color[v] != 0:
            raise ValueError(f"vertex {v} already colored")
        for w in nbs:
            if color[w] == c:
                raise ValueError(f"color {c} on {v} clashes with neighbor {w}")
        color[v] = c
        for w in nbs:
            odd = self._odd[w]
            if c in odd:
                odd.discard(c)
            else:
                odd.add(c)

    def odd_color_set(self, v: int) -> set[int]:
        """Colors with odd multiplicity among v's currently colored neighbors."""
        return set(self._odd[v])

    def unique_odd_color(self, v: int) -> int | None:
        """The single odd-multiplicity color on v's neighborhood, if exactly one.

        With zero or two-plus odd colors there is nothing to protect: any
        color placed on a new neighbor flips one parity class and leaves at
        least one odd class intact, so avoid sets include this value only
        when it is defined.
        """
        odd = self._odd[v]
        if len(odd) == 1:
            return next(iter(odd))
        return None

    def is_complete(self) -> bool:
        return all(c != 0 for c in self.color)


def is_odd_coloring(g: Graph, colors: Iterable[int]) -> tuple[bool, list[Violation]]:
    """Check a total assignment; returns (ok, all violations found).

    Violations list improper edges first (sorted), then vertices lacking an
    odd color (sorted).  Raises ValueError if any vertex is uncolored.

    The class sizes on N(v) sum to deg(v), so odd degree always leaves an odd
    class; degree 2 lacks one exactly when both neighbours share a color, and
    even degree 4+ exactly when the sorted neighbour colors pair up.
    """
    cols = list(colors)
    if len(cols) != g.n:
        raise ValueError(f"expected {g.n} colors, got {len(cols)}")
    for v, c in enumerate(cols):
        if not isinstance(c, int) or c < 1:
            raise ValueError(f"vertex {v} is uncolored or has invalid color {c!r}")
    violations = [Violation("improper-edge", (u, v)) for u, v in g.edges() if cols[u] == cols[v]]
    for v in range(g.n):
        nbs = g.neighbors(v)
        if len(nbs) == 2:
            lack = cols[nbs[0]] == cols[nbs[1]]
        else:
            lack = nbs and len(nbs) % 2 == 0 and (s := sorted(cols[w] for w in nbs))[::2] == s[1::2]
        if lack:
            violations.append(Violation("no-odd-color", v))
    return (not violations, violations)


# ---------------------------------------------------------------------------
# Coloring files: {"k": int, "colors": [c_1, ..., c_n]} with every c_i in 1..k
# (k = 0 only for the empty graph, as `color` writes it).


def coloring_to_json(colors: Iterable[int], k: int, **extra: object) -> str:
    payload: dict[str, object] = {"k": k, "colors": list(colors)}
    payload.update(extra)
    return json.dumps(payload)


def coloring_from_json(text: str) -> tuple[int, list[int]]:
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # deep nesting recurses
        raise ValueError(f"invalid coloring JSON: {exc}") from None
    if not isinstance(payload, dict) or "k" not in payload or "colors" not in payload:
        raise ValueError('coloring JSON must be an object with "k" and "colors"')
    k = payload["k"]
    cols = payload["colors"]
    if not _is_int(k) or not isinstance(cols, list):
        raise ValueError('coloring JSON must map "k" to an int and "colors" to a list')
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if not all(_is_int(c) for c in cols):
        raise ValueError("colors must be integers")
    for v, c in enumerate(cols):
        if not 1 <= c <= k:
            raise ValueError(f"vertex {v} has color {c} outside 1..{k}")
    return k, cols


def _is_int(x: object) -> bool:
    """True for JSON integers; JSON true/false load as bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)
