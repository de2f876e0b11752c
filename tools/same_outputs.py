"""Check that two checkouts print the same CLI outputs on the benchmark corpora.

    python3 tools/same_outputs.py --parent ../parent --change . --seeds 1 2 3

The graphs are the perfbench `auto` and `engine` corpora of each seed,
built with the parent's perfbench/workloads.py into a temporary directory,
plus `gen kstar 3..7`.  On each graph it runs `color --strategy
auto|five|six`, `color --strategy eps --epsilon 4/5`, `mad --witness` and
`orient --alpha 3`, and on `gen kstar 3..6` also `exact` (kstar 7 takes
about two minutes).  It compares the reduction records of
`five_reduction_records`, `six_reduction_records` and
`eps_reduction_records(g, 4/5)`: a digest of each record's kind and deleted
vertices, or the name of the exception raised.  It compares a digest of
`g.components()` and of `g.bipartition()` too; the subdivided corpus graphs
are bipartite and often disconnected, and no CLI run reaches `bipartition`
on them.  Each side runs in a child process of its own, with its own src/
first on the path, and drives `oddcolor.cli.main`, the record functions and
the graph queries in process; the child reports the exit code and digests
of stdout and stderr per CLI run, the record digest per engine and the
digest per query.  One line is printed for each run whose result differs,
then a summary line; the exit code is 1 if any differ.  Stdlib only.  It
writes nothing under perfbench/ or src/ (no bytecode either).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

KSTARS = range(3, 8)
EXACT_KSTARS = range(3, 7)
COMMANDS = {
    "auto": ["color", "--strategy", "auto"],
    "five": ["color", "--strategy", "five"],
    "six": ["color", "--strategy", "six"],
    "eps": ["color", "--strategy", "eps", "--epsilon", "4/5"],
    "mad": ["mad", "--witness"],
    "orient": ["orient", "--alpha", "3"],
}
RECORDS = {
    "five records": lambda oc, g: oc.five_reduction_records(g),
    "six records": lambda oc, g: oc.six_reduction_records(g),
    "eps records": lambda oc, g: oc.eps_reduction_records(g, Fraction(4, 5)),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build_corpus(checkout: Path, seeds: list[int], workdir: Path) -> list[tuple[str, str]]:
    """(name, edge-list path) of every graph of the auto and engine corpora."""
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path.insert(0, str(checkout / "perfbench"))
    workloads = importlib.import_module("workloads")
    graphs = []
    for seed in seeds:
        for corpus in ("auto", "engine"):
            where = workdir / f"{corpus}-{seed}"
            where.mkdir()
            cases = workloads.WORKLOADS[corpus].make(None, seed, where)
            graphs += [(f"{corpus} seed {seed} #{i}", c.path) for i, c in enumerate(cases)]
    return graphs


def run_cli(main, argv: list[str]) -> tuple[list, str]:
    """[exit code, stdout digest, stderr digest] of one in-process CLI call,
    and its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:  # a raise is an output too
            code = f"raised {type(exc).__name__}"
    return [code, digest(out.getvalue()), digest(err.getvalue())], out.getvalue()


def run_records(oc, records, g) -> str:
    """Digest of the (kind, deleted) pairs of one engine's records, or the
    name of the exception it raised."""
    try:
        recs = records(oc, g)
    except Exception as exc:
        return f"raised {type(exc).__name__}"
    return digest(json.dumps([[r.kind, list(r.deleted)] for r in recs]))


def child(job: dict) -> dict:
    """Every run of one side, keyed by graph and command."""
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    cli = importlib.import_module("oddcolor.cli")
    oc = importlib.import_module("oddcolor")
    if Path(cli.__file__).resolve().parent != src / "oddcolor":
        raise ImportError(f"oddcolor was imported from {cli.__file__}, not from {src}")
    graphs = list(job["graphs"])
    results = {}
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        for n in KSTARS:
            name = f"kstar {n}"
            results[f"{name}: gen"], text = run_cli(cli.main, ["gen", "kstar", str(n)])
            path = Path(tmp) / f"kstar{n}.txt"
            path.write_text(text, encoding="utf-8")
            graphs.append((name, str(path)))
            if n in EXACT_KSTARS:
                results[f"{name}: exact"], _ = run_cli(cli.main, ["exact", "-i", str(path)])
        for name, path in graphs:
            for label, argv in COMMANDS.items():
                results[f"{name}: {label}"], _ = run_cli(cli.main, [*argv, "-i", path])
            g = oc.parse_graph(Path(path).read_text(encoding="utf-8"))
            for label, records in RECORDS.items():
                results[f"{name}: {label}"] = run_records(oc, records, g)
            for query in ("components", "bipartition"):
                results[f"{name}: {query}"] = digest(json.dumps(getattr(g, query)()))
    return results


def run_side(checkout: Path, graphs: list[tuple[str, str]]) -> subprocess.Popen:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen([sys.executable, __file__, "--child"], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True, env=env)
    proc.stdin.write(json.dumps({"src": str(checkout / "src"), "graphs": graphs}))
    proc.stdin.close()
    return proc


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, help="checkout of the change")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        json.dump(child(json.load(sys.stdin)), sys.stdout)
        return 0
    if args.parent is None or args.change is None:
        ap.error("--parent and --change are required")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        graphs = build_corpus(sides["parent"], args.seeds, Path(tmp))
        procs = {side: run_side(checkout, graphs) for side, checkout in sides.items()}
        results = {}
        for side, proc in procs.items():
            results[side] = json.loads(proc.stdout.read())
            if proc.wait() != 0:
                print(f"{side}: child exited {proc.returncode}", file=sys.stderr)
                return 2
    parent, change = results["parent"], results["change"]
    differ = 0
    for key in sorted(parent.keys() | change.keys()):
        a, b = parent.get(key), change.get(key)
        if a != b:
            differ += 1
            print(f"{key}: parent {a} change {b}")
    print(f"{len(parent)} runs per side on {len(graphs) + len(KSTARS)} graphs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
