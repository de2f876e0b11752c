"""Odd-coloring verification, the smallest free color, and coloring files.

An odd coloring is a proper vertex coloring in which every non-isolated
vertex sees some color an odd number of times on its neighborhood.  A
coloring is a plain list of colors 1..k, with 0 for a vertex not yet
colored while one is built.  Sets of colors are int bit masks (bit c for
color c), and _first_free picks the lowest clear bit, so a mask holds bits
only for colors in use, never one per color of the palette.
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


def _first_free(avoid: int, k: int) -> int:
    """Smallest color in 1..k whose bit is clear in the mask avoid (bit c
    stands for color c; bit 0 is ignored)."""
    avoid |= 1
    c = (avoid ^ (avoid + 1)).bit_length() - 1  # the lowest clear bit
    if c > k:
        forbidden = [c for c in range(1, avoid.bit_length()) if avoid >> c & 1]
        raise PaletteExhaustedError(f"all {k} colors forbidden by {forbidden}")
    return c


def _two_coloring(g: Graph) -> list[int] | None:
    """The sides (0/1 per vertex) of an odd 2-coloring, or None: one exists iff
    g is bipartite and every degree is 0 or odd (each vertex then sees its
    whole, odd-sized neighborhood in the other color)."""
    return None if any(d % 2 == 0 and d for d in g.degrees()) else g.bipartition()


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
