"""oddcolor benchmark: one closed-loop workload, checked, timed and reported.

    python3 perfbench/run.py --workload auto --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the package is imported from
./src.  The workload's graphs are generated from --seed, then ops run back
to back for --seconds.  Every output is checked.  Human-readable lines come
first; the last line is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics.  --trace 1
runs each op untraced and then traced, reports the per-layer metrics and
the tracing overhead, prints a per-size breakdown and writes the spans to
perfbench/out/.  --workload all runs auto, engine and exact in turn.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any

from stats import Tally, tail
from tracing import Tracer, Use, layer_uses, patched
from workloads import WORKLOADS, Case, Workload, fingerprint

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
MODULES = ("cli", "constructive", "exact", "graph", "sparsity")
KINDS = (
    "leaf", "three-vertex", "adjacent-2", "star", "3v-with-2nbr", "4v-three-2nbrs",
    "5v-five-2nbrs", "3v-weak-pair", "4v-weak", "adjacent-4v",
)

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "vertices_per_s": "vertices/s",
    "ok_frac": "fraction",
    "colors_mean": "colors",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "graph.parse.ms": "ms",
    "graph.parse.mb_per_s": "MB/s",
    "graph.dispatch.ms": "ms",
    "sparsity.mad_exact.ms": "ms",
    "sparsity.mad_exact.calls": "count",
    "sparsity.mad_exact.share": "fraction",
    "sparsity.decide.ms": "ms",
    "sparsity.decide.calls": "count",
    "sparsity.decide.share": "fraction",
    "sparsity.flow.calls": "count",
    "sparsity.flow.ms_per_call": "ms",
    "constructive.engine.ms": "ms",
    "constructive.reduce.ms": "ms",
    "constructive.reduce.records": "count",
    "constructive.reduce.records_per_s": "1/s",
    "constructive.reduce.share": "fraction",
    **{f"constructive.kind.{k}": "count" for k in KINDS},
    "coloring.verify.ms": "ms",
    "coloring.verify.vertices_per_s": "vertices/s",
    "exact.degeneracy_order.ms": "ms",
    "exact.search.ms": "ms",
    "exact.find_nodes": "count",
    "exact.refute_nodes": "count",
    "exact.nodes_per_s": "nodes/s",
    "cli.main.ms": "ms",
    "trace.overhead_pct": "%",
}


@dataclass
class Sample:
    case: Case
    seconds: float
    reason: str | None  # None when the op succeeded and its output checked out
    colors: int
    result: Any = None


def import_package(src: Path) -> SimpleNamespace:
    """Import oddcolor afresh from src, dropping any earlier import of it."""
    for name in [m for m in sys.modules if m == "oddcolor" or m.startswith("oddcolor.")]:
        del sys.modules[name]
    pkg = importlib.import_module("oddcolor")
    if Path(pkg.__file__).resolve().parent != (src / "oddcolor").resolve():
        raise ImportError(f"oddcolor was imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"oddcolor.{m}") for m in MODULES})


def run_op(wl: Workload, lib: SimpleNamespace, case: Case, call=None) -> Sample:
    call = call or wl.run
    start = time.perf_counter()
    try:
        result = call(lib, case)
    except Exception as exc:  # a raising op is a failed op, reported by exception type
        return Sample(case, time.perf_counter() - start, f"raised:{type(exc).__name__}", 0)
    seconds = time.perf_counter() - start
    reason, colors = wl.check(case, result)
    return Sample(case, seconds, reason, colors, result)


def probe_exact(lib: SimpleNamespace, tracer: Tracer, s: Sample) -> str | None:
    """Search nodes to find a coloring at k = chi and to refute k = chi - 1."""
    k = s.result[0]
    note = lambda a, r: r.nodes  # noqa: E731
    with patched(tracer, lib):
        found = tracer.wrap("exact.probe.find", lib.exact.odd_colorable, note)(s.case.graph, k)
        refuted = tracer.wrap("exact.probe.refute", lib.exact.odd_colorable, note)(s.case.graph, k - 1) if k > 1 else None
    if found.status != "yes" or (refuted is not None and refuted.status != "no"):
        return "wrong-chi"
    return None


def measure(wl: Workload, lib: SimpleNamespace, cases: list[Case], seconds: float, tracer: Tracer | None, probe=None):
    """Closed loop over the corpus (cycling if it runs out) until time is up.

    Returns (untraced samples, traced samples).  With a tracer each op runs
    untraced and then traced, and `probe`, if given, follows each traced op
    that succeeded, outside its timing.
    """
    plain: list[Sample] = []
    traced: list[Sample] = []
    deadline = time.perf_counter() + seconds
    for op_id, case in enumerate(itertools.cycle(cases)):
        # Outputs are dropped once checked, so memory does not grow with the op count.
        plain.append(run_op(wl, lib, case))
        plain[-1].result = None
        if tracer is not None:
            tracer.op = op_id
            with patched(tracer, lib):
                s = run_op(wl, lib, case, tracer.wrap("op", wl.run))
            if s.reason is None and probe is not None:
                s.reason = probe(lib, tracer, s)
            s.result = None
            traced.append(s)
        if time.perf_counter() >= deadline:
            return plain, traced


def end_to_end(plain: list[Sample], setup: list[float]) -> tuple[dict[str, float], list[str]]:
    ok = [s for s in plain if s.reason is None]
    if not ok:
        raise SystemExit("error: no op succeeded; nothing to report")
    lat = [s.seconds * 1000 for s in ok]
    tail_ms, pct, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": tail_ms,
        "vertices_per_s": sum(s.case.n for s in ok) / sum(s.seconds for s in plain),
        "ok_frac": len(ok) / len(plain),
        "colors_mean": statistics.fmean(s.colors for s in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"setup_s: median of {len(setup)} set-ups (import + corpus)",
        f"op_p50_ms, op_tail_ms: over {len(ok)} successful ops; tail is p{pct:.1f}, {beyond} samples beyond",
        f"failed_frac: {1 - metrics['ok_frac']:.4f} ({len(plain) - len(ok)} of {len(plain)} ops)",
    ]
    return metrics, notes


def per_layer(tracer: Tracer, plain: list[Sample], traced: list[Sample]) -> tuple[dict[str, float], dict[str, dict[int, dict[str, Use]]]]:
    uses = layer_uses(tracer.spans)
    ops = uses["op"]
    n = len(ops)
    op_s = sum(u["op"].seconds for u in ops.values())

    def total(layer: str, attr: str = "seconds", tree: dict = ops) -> float:
        return sum(getattr(u[layer], attr) for u in tree.values() if layer in u)

    def notes(layer: str, tree: dict = ops) -> list:
        return [x for u in tree.values() if layer in u for x in u[layer].notes]

    def per_s(count: float, seconds: float) -> float:
        return count / seconds if seconds else 0.0

    kinds = Counter()
    for hist in notes("constructive.reduce"):
        kinds.update(hist)
    find, refute = uses["exact.probe.find"], uses["exact.probe.refute"]
    probe_nodes = sum(notes("exact.probe.find", find)) + sum(notes("exact.probe.refute", refute))
    probe_s = total("exact.probe.find", "self_seconds", find) + total("exact.probe.refute", "self_seconds", refute)
    paired = sum(p.seconds for p, t in zip(plain, traced))
    m = {
        "graph.parse.ms": 1000 * total("graph.parse") / n,
        "graph.parse.mb_per_s": per_s(sum(notes("graph.parse")), total("graph.parse")) / 1e6,
        "graph.dispatch.ms": 1000 * total("graph.dispatch") / n,
        "sparsity.flow.calls": total("sparsity.flow", "calls") / n,
        "sparsity.flow.ms_per_call": 1000 * per_s(total("sparsity.flow"), total("sparsity.flow", "calls")),
        "constructive.engine.ms": 1000 * total("constructive.engine") / n,
        "constructive.reduce.records": sum(kinds.values()) / n,
        "constructive.reduce.records_per_s": per_s(sum(kinds.values()), total("constructive.reduce")),
        **{f"constructive.kind.{k}": kinds[k] / n for k in KINDS},
        "coloring.verify.vertices_per_s": per_s(sum(notes("coloring.verify")), total("coloring.verify")),
        "exact.degeneracy_order.ms": 1000 * total("exact.degeneracy_order") / n,
        "exact.search.ms": 1000 * total("exact.solve", "self_seconds") / n,
        "exact.find_nodes": sum(notes("exact.probe.find", find)) / max(len(find), 1),
        "exact.refute_nodes": sum(notes("exact.probe.refute", refute)) / max(len(refute), 1),
        "exact.nodes_per_s": per_s(probe_nodes, probe_s),
        "cli.main.ms": 1000 * total("cli.main") / n,
        "trace.overhead_pct": 100 * (op_s / paired - 1),
    }
    for layer in ("sparsity.mad_exact", "sparsity.decide", "constructive.reduce", "coloring.verify"):
        m[f"{layer}.ms"] = 1000 * total(layer) / n
        m[f"{layer}.calls"] = total(layer, "calls") / n
        m[f"{layer}.share"] = total(layer) / op_s
    return {k: m[k] for k in PER_LAYER}, uses


BUCKET_COLUMNS = [
    ("op", "op"), ("mad_exact", "sparsity.mad_exact"), ("decide", "sparsity.decide"),
    ("reduce", "constructive.reduce"), ("verify", "coloring.verify"),
    ("degen", "exact.degeneracy_order"), ("search", "exact.solve"),
]


def bucket_table(uses: dict, traced: list[Sample]) -> list[str]:
    """Mean ms per op of each layer, by size class, with flows and records."""
    ops = uses["op"]
    groups: dict[tuple[int, str], list[dict[str, Use]]] = {}
    for op_id, s in zip(sorted(ops), traced):
        groups.setdefault((s.case.n, s.case.bucket), []).append(ops[op_id])
    head = f"{'bucket':<18}{'ops':>5}" + "".join(f"{c:>11}" for c, _ in BUCKET_COLUMNS)
    lines = [
        "per-size breakdown (mean ms per traced op; search is self time)",
        head + f"{'flows':>8}{'ms/flow':>9}{'records':>9}{'us/rec':>8}",
    ]
    for (_, bucket), group in sorted(groups.items()):
        def mean(layer: str, attr: str = "seconds") -> float:
            return sum(getattr(u[layer], attr) for u in group if layer in u) / len(group)

        row = f"{bucket:<18}{len(group):>5}"
        for column, layer in BUCKET_COLUMNS:
            row += f"{1000 * mean(layer, 'self_seconds' if column == 'search' else 'seconds'):>11.2f}"
        flows, flow_s, reduce_s = mean("sparsity.flow", "calls"), mean("sparsity.flow"), mean("constructive.reduce")
        records = sum(sum(h.values()) for u in group if "constructive.reduce" in u for h in u["constructive.reduce"].notes) / len(group)
        row += f"{flows:>8.1f}{1000 * flow_s / flows if flows else 0:>9.2f}"
        row += f"{records:>9.0f}{1e6 * reduce_s / records if records else 0:>8.1f}"
        lines.append(row)
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*sorted(WORKLOADS), "all"], required=True,
                    help="'all' runs every workload in turn, each in a process of its own")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        for name in sorted(WORKLOADS):
            opts = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = subprocess.run([sys.executable, __file__, *opts]).returncode
            if code != 0:
                return code
        return 0

    src = Path.cwd() / "src"
    if not (src / "oddcolor" / "__init__.py").is_file():
        print(f"error: no oddcolor package under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    wl = WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as work:
        setup = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            lib = import_package(src)
            cases = wl.make(lib, args.seed, Path(work))
            setup.append(time.perf_counter() - start)
        print(f"workload {args.workload}  seed {args.seed}  corpus {len(cases)} graphs  fingerprint {fingerprint(cases)}")
        # The corpus is the benchmark's data: keep the collector from rescanning
        # it during ops, as it would not in a process holding a single graph.
        gc.collect()
        gc.freeze()
        run_op(wl, lib, cases[0])  # warm-up, not counted
        for case in wl.unmeasured(lib) if wl.unmeasured else []:
            print(f"outside the measured ops: {case.bucket}: {run_op(wl, lib, case).reason or 'ok'}")
        tracer = Tracer() if args.trace else None
        plain, traced = measure(wl, lib, cases, args.seconds, tracer, probe_exact if args.workload == "exact" else None)

    tally = Tally()
    for s in plain + traced:
        tally.add(s.reason)
    for reason, count in sorted(tally.reasons.items()):
        print(f"failed: {count} x {reason}")

    if tracer is None:
        metrics, notes = end_to_end(plain, setup)
        units = END_TO_END
    else:
        metrics, uses = per_layer(tracer, plain, traced)
        units = PER_LAYER
        notes = bucket_table(uses, traced)
        out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(out)
        notes.append(f"{len(tracer.spans)} spans from {len(traced)} traced ops written to {out.relative_to(HERE.parent)}")
    for line in notes:
        print(line)
    for name, value in metrics.items():
        print(f"{name:<36} {value:>14.4f} {units[name]}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
