"""Spans around calls into oddcolor's modules, recorded from outside the package.

A traced op runs with module attributes swapped for wrappers at the names
their callers look up at call time (``constructive.mad_exact`` is the name
``color_auto`` calls, for instance), so nothing under ``src/`` changes and
the untraced path carries no cost.  Each span records its name, start,
end, parent span and op id; spans stay in memory and are written out when
the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Iterator, NamedTuple

Note = Callable[[tuple, Any], Any]


class Span(NamedTuple):
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float
    note: Any = None  # a count or histogram taken from the call's arguments or result


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._ids = itertools.count()
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, note: Note | None = None) -> Callable:
        """fn, recording one span per call (also when the call raises)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(sid, parent, name, start, None)
                raise
            self._close(sid, parent, name, start, note(args, result) if note else None)
            return result

        return traced

    def _close(self, sid: int, parent: int | None, name: str, start: float, note: Any) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append(Span(sid, parent, self.op, name, start, end, note))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(s._asdict()) + "\n")


def targets(lib: SimpleNamespace) -> list[tuple[object, str, str, Note | None]]:
    """(owner, attribute, span name, note) for every call site that is traced.

    `_reduce_all` and `_denser_subgraph` are private: the engines call them
    directly, so the public `*_reduction_records` wrappers never run on the
    measured paths.  A missing attribute is skipped, so a refactor that
    renames one leaves its layer at zero instead of breaking the run.
    """
    c, g = lib.constructive, lib.graph
    return [
        (lib.cli, "main", "cli.main", None),
        (g, "parse_edgelist", "graph.parse", lambda a, r: len(a[0])),
        (c, "classify_small", "graph.dispatch", None),
        (g.Graph, "is_forest", "graph.dispatch", None),
        (g.Graph, "components", "graph.dispatch", None),
        (c, "mad_exact", "sparsity.mad_exact", None),
        (c, "mad_below", "sparsity.decide", None),
        (c, "mad_at_most", "sparsity.decide", None),
        (lib.sparsity, "_denser_subgraph", "sparsity.flow", None),
        (c, "color_five", "constructive.engine", None),
        (c, "color_six", "constructive.engine", None),
        (c, "color_eps", "constructive.engine", None),
        (c, "_reduce_all", "constructive.reduce", lambda a, r: dict(Counter(x.kind for x in r))),
        (c, "is_odd_coloring", "coloring.verify", lambda a, r: a[0].n),
        (lib.exact, "odd_chromatic_number", "exact.solve", None),
        (lib.exact, "degeneracy_order", "exact.degeneracy_order", None),
    ]


@contextmanager
def patched(tracer: Tracer, lib: SimpleNamespace) -> Iterator[None]:
    """Swap every traced attribute for its wrapper; restore on exit."""
    saved = []
    try:
        for owner, attr, name, note in targets(lib):
            fn = vars(owner).get(attr)
            if fn is None:
                continue
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(name, fn, note))
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the durations of its direct children."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.end - s.start
    return own


@dataclass
class Use:
    """One layer's share of one op."""

    seconds: float = 0.0  # spans not nested in a span of the same name
    self_seconds: float = 0.0
    calls: int = 0
    notes: list = field(default_factory=list)


def layer_uses(spans: list[Span]) -> dict[str, dict[int, dict[str, Use]]]:
    """root span name -> op id -> layer name -> Use.

    Grouping by root keeps work done outside the timed op (the exact
    workload's probes) apart from the op itself.  A span nested in another
    of the same name adds only its self time, so recursion and a dispatch
    call inside another dispatch call are not counted twice.
    """
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    out: dict[str, dict[int, dict[str, Use]]] = defaultdict(lambda: defaultdict(lambda: defaultdict(Use)))
    for s in spans:
        root, nested = s, False
        while root.parent is not None:
            root = by_id[root.parent]
            nested = nested or root.name == s.name
        use = out[root.name][s.op][s.name]
        use.self_seconds += own[s.id]
        if not nested:
            use.seconds += s.end - s.start
            use.calls += 1
            if s.note is not None:
                use.notes.append(s.note)
    return out
