"""Seeded inputs for each workload, the op run on each input, and its check.

Every graph is generated here, from the seed alone, and handed to the
program as a `Graph` or as an edge-list file.  Sizes come from fixed
ladders, so a seed changes which edges a graph has but not its size; the
mix of op costs, and with it the medians, then varies little between seeds.
One op is one graph handled end to end.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

Edges = list[tuple[int, int]]


@dataclass(frozen=True)
class Case:
    bucket: str  # size class the traced run groups by
    n: int
    edges: Edges
    text: str  # edge-list text: "n m" header, then "u v" lines
    graph: Any = None  # oddcolor.Graph (exact)
    path: str = ""  # edge-list file (auto, engine)
    argv: tuple[str, ...] = ()  # strategy options (auto, engine)
    bound: int = 0  # guaranteed color bound, 0 if the output reports it (engine)
    chi: int = 0  # known odd chromatic number, 0 if unknown (exact)


# ---------------------------------------------------------------------------
# Generators


def sample_edges(n: int, m: int, rng: random.Random) -> Edges:
    """m distinct random edges on n vertices by rejection sampling."""
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            chosen.add((min(u, v), max(u, v)))
    return sorted(chosen)


def out_edges(n: int, c: int, rng: random.Random) -> Edges:
    """Vertex i joins min(i, c) distinct earlier vertices.

    Every edge is charged to its later end, and the earliest vertex of any
    subset has no edge back into it, so each subgraph on s vertices has at
    most c(s - 1) edges: density strictly below c.
    """
    return sorted((j, i) for i in range(1, n) for j in rng.sample(range(i), min(i, c)))


def subdivided(n: int, edges: Edges) -> tuple[int, Edges]:
    """Each edge becomes a path through a new vertex, n + its rank in `edges`.

    A subgraph of density d becomes one of average degree 4d/(1+d), so the
    mad of the result stays below 4c/(1+c) when every density is below c.
    """
    out: Edges = []
    for k, (u, v) in enumerate(edges):
        out += [(u, n + k), (v, n + k)]
    return n + len(edges), out


def relabeled(n: int, edges: Edges, rng: random.Random) -> Edges:
    """The same graph under a random permutation of its vertex labels."""
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def complete_edges(n: int) -> Edges:
    return list(itertools.combinations(range(n), 2))


def cycle_edges(n: int) -> Edges:
    return sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n))


def cycle_chi(n: int) -> int:
    """Odd chromatic number of the n-cycle: 3 if 3 | n, 5 if n = 5, else 4."""
    return 3 if n % 3 == 0 else 5 if n == 5 else 4


def edgelist(n: int, edges: Edges) -> str:
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


def fingerprint(cases: list[Case]) -> str:
    """Hash of the distinct edge-list texts, in corpus order."""
    h = hashlib.sha256()
    for text in dict.fromkeys(c.text for c in cases):
        h.update(text.encode())
    return h.hexdigest()[:16]


def _rng(seed: int, *where: object) -> random.Random:
    return random.Random("/".join(map(str, (seed, *where))))


def interleave(*groups: list[Case]) -> list[Case]:
    """Round-robin over the groups, so any prefix holds a similar mix."""
    out = []
    for batch in itertools.zip_longest(*groups):
        out += [c for c in batch if c is not None]
    return out


# ---------------------------------------------------------------------------
# auto and engine: `oddcolor color` in process, on edge-list files


def cli_case(path: Path, bucket: str, n: int, edges: Edges, argv: tuple[str, ...], bound: int = 0) -> Case:
    """A case whose edge-list text is written to `path` for the CLI to read."""
    text = edgelist(n, edges)
    path.write_text(text, encoding="utf-8")
    return Case(bucket, n, edges, text, path=str(path), argv=argv, bound=bound)


def op_cli(lib: SimpleNamespace, case: Case) -> int:
    return lib.cli.main(["color", *case.argv, "-i", case.path, "-o", case.path + ".json"])


def check_cli(case: Case, code: int) -> tuple[str | None, int]:
    if code != 0:
        return f"exit-{code}", 0
    try:
        with open(case.path + ".json", encoding="utf-8") as fh:
            doc = json.load(fh)
        os.remove(case.path + ".json")  # a later op must write its own
        k, colors, bound = int(doc["k"]), [int(x) for x in doc["colors"]], int(doc["bound"])
    except (OSError, ValueError, KeyError, TypeError):
        return "bad-output", 0
    if case.bound and bound != case.bound:
        return "bad-output", k
    fault = coloring_fault(case, colors, bound)
    if fault is None and k != max(colors):
        fault = "bad-output"
    return fault, k


# auto: --strategy auto on random subdivided graphs, mad in each engine's band.
# (edge ratio r, N): floor(rN) random edges on N vertices, then subdivided,
# so V = N + floor(rN).  r = 1.5 and 2 land in the five band, 2.6 in six,
# 3.2 in eps.  The bound depends on the exact mad, so the check takes the
# one the output reports and holds the coloring to it.
AUTO_LADDER = [(1.5, 100), (2.6, 80), (3.2, 60), (2.0, 120), (1.5, 180), (2.6, 140), (3.2, 120)]
AUTO_ROUNDS = 30


def make_auto(lib: SimpleNamespace, seed: int, workdir: Path) -> list[Case]:
    cases = []
    for rnd in range(AUTO_ROUNDS):
        for r, big_n in AUTO_LADDER:
            n, edges = subdivided(big_n, sample_edges(big_n, int(r * big_n), _rng(seed, "auto", rnd, r, big_n)))
            cases.append(cli_case(workdir / f"g{len(cases)}.txt", f"r={r} V={n}", n, edges, ("--strategy", "auto")))
    return cases


# engine: --strategy S with S matching the band, so mad_exact never runs.
# (strategy, c, N): N vertices each joining c earlier ones, then subdivided.
# mad < 4c/(1+c): c = 2 gives mad < 8/3 < 20/7 (five), c = 3 gives mad < 3
# (six), c = 4 gives mad < 16/5 = 4 - 4/5 (eps at 4/5, bound 12).
ENGINE_LADDER = [("five", 2, 500), ("six", 3, 300), ("eps", 4, 200), ("five", 2, 800), ("six", 3, 450)]
ENGINE_ROUNDS = 20
ENGINE_EPS = Fraction(4, 5)
ENGINE_BOUND = {"five": 5, "six": 6, "eps": math.floor(8 / ENGINE_EPS) + 2}


def make_engine(lib: SimpleNamespace, seed: int, workdir: Path) -> list[Case]:
    cases = []
    for rnd in range(ENGINE_ROUNDS):
        for strategy, c, big_n in ENGINE_LADDER:
            n, edges = subdivided(big_n, out_edges(big_n, c, _rng(seed, "engine", rnd, strategy, big_n)))
            argv = ("--strategy", strategy)
            if strategy == "eps":
                argv += ("--epsilon", f"{ENGINE_EPS.numerator}/{ENGINE_EPS.denominator}")
            cases.append(cli_case(workdir / f"g{len(cases)}.txt", f"{strategy} V={n}", n, edges, argv, ENGINE_BOUND[strategy]))
    return cases


# ---------------------------------------------------------------------------
# exact: odd_chromatic_number on small dense graphs, kstars and cycles

KSTAR_HUBS = [3, 4, 5]  # gen_kstar(n) has odd chromatic number n
# Copies of kstar(5) under seeded relabelings: chi is still 5, and the search
# order, which breaks ties by label, changes.  Their costs spread far less
# than those of random graphs (IQR 6-10 ms against 0.5-7 ms), so the median
# op, which falls among them, does not hinge on a few random instances.
KSTAR_COPIES = 16
# m = 0.45 * C(22, 2).  At n = 26 one instance in a few hundred takes 1-2 s,
# enough to move a whole run's totals; at n = 22 none of 200 took over 0.1 s.
DENSE_N, DENSE_M, DENSE_PER_ROUND = 22, 104, 6
CYCLES = [300, 601, 899]  # below the interpreter's recursion limit
# Above it the search raises RecursionError.  These run once, outside the
# measured ops, and are reported on their own line: the measured ops must
# all succeed, so that `failed` does not vary with how many ops fit a run.
LONG_CYCLES = [1201, 1500, 2000]
EXACT_ROUNDS = 80


def make_exact(lib: SimpleNamespace, seed: int, workdir: Path) -> list[Case]:
    def case(bucket: str, n: int, edges: Edges, chi: int) -> Case:
        return Case(bucket, n, edges, edgelist(n, edges), graph=lib.graph.Graph(n, edges), chi=chi)

    kstars = [case(f"kstar({h})", *subdivided(h, complete_edges(h)), chi=h) for h in KSTAR_HUBS]
    cycles = [cycle_case(lib, n) for n in CYCLES]
    k5_n, k5_edges = subdivided(5, complete_edges(5))
    cases = []
    for rnd in range(EXACT_ROUNDS):
        dense = [
            case(f"G({DENSE_N},{DENSE_M})", DENSE_N, sample_edges(DENSE_N, DENSE_M, _rng(seed, "exact", rnd, i)), 0)
            for i in range(DENSE_PER_ROUND)
        ]
        copies = [
            case("kstar(5) relabeled", k5_n, relabeled(k5_n, k5_edges, _rng(seed, "kstar", rnd, i)), 5)
            for i in range(KSTAR_COPIES)
        ]
        cases += interleave(copies, dense, kstars + cycles)
    return cases


def cycle_case(lib: SimpleNamespace, n: int) -> Case:
    edges = cycle_edges(n)
    return Case(f"cycle {n}", n, edges, edgelist(n, edges), graph=lib.graph.Graph(n, edges), chi=cycle_chi(n))


def make_long_cycles(lib: SimpleNamespace) -> list[Case]:
    return [cycle_case(lib, n) for n in LONG_CYCLES]


def op_exact(lib: SimpleNamespace, case: Case) -> Any:
    return lib.exact.odd_chromatic_number(case.graph)


def check_exact(case: Case, result: Any) -> tuple[str | None, int]:
    k, colors = result
    fault = coloring_fault(case, list(colors), k)
    if fault is None and case.chi and k != case.chi:
        fault = "wrong-chi"
    return fault, k


# ---------------------------------------------------------------------------


def coloring_fault(case: Case, colors: list[int], k: int) -> str | None:
    """Why `colors` is not an odd coloring of the case with colors 1..k, or None."""
    if len(colors) != case.n or any(not 1 <= c <= k for c in colors):
        return "over-bound" if len(colors) == case.n and max(colors) > k else "bad-output"
    seen: list[list[int]] = [[] for _ in range(case.n)]
    for u, v in case.edges:
        if colors[u] == colors[v]:
            return "invalid-coloring"
        seen[u].append(colors[v])
        seen[v].append(colors[u])
    for around in seen:
        if around and not any(count % 2 for count in Counter(around).values()):
            return "invalid-coloring"
    return None


@dataclass(frozen=True)
class Workload:
    make: Callable[[SimpleNamespace, int, Path], list[Case]]
    run: Callable[[SimpleNamespace, Case], Any]  # the timed op
    check: Callable[[Case, Any], tuple[str | None, int]]  # (failure reason, colors used)
    unmeasured: Callable[[SimpleNamespace], list[Case]] | None = None  # run once, outside the tally


WORKLOADS = {
    "auto": Workload(make_auto, op_cli, check_cli),
    "engine": Workload(make_engine, op_cli, check_cli),
    "exact": Workload(make_exact, op_exact, check_exact, make_long_cycles),
}
