"""Run perfbench on two checkouts in alternating pairs and write BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload auto --seed 1 --pairs 10 --seconds 55 --out BENCH_13.json
    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload auto --seed 1 --pairs 1 --seconds 55 --trace --out BENCH_13.json

Each side runs `python3 perfbench/run.py` from the root of its own checkout,
so each imports its own src/.  Each side keeps its bytecode in a directory
of its own (PYTHONPYCACHEPREFIX), made for the call and kept across its
pairs, with PYTHONDONTWRITEBYTECODE unset: a __pycache__ left in either
checkout is neither read nor written, so it cannot speed up one side's
imports and with them its setup_s.  The parent goes first in odd-numbered pairs
and the change in even-numbered ones.  The output file gathers the runs of
every invocation; each call adds its runs and recomputes, per (workload,
seed), the quartiles of each end-to-end metric on each side and the number
of pairs in which the change was better (the direction comes from the
parent's BENCHMARK.json).  With --trace, one back-to-back pair runs with
--trace 1, parent first, and its per-layer report replaces the file's
"traced" entry.  Each side's entry holds a digest of its src/, its line
count and its count of lines neither blank nor comment-only.  Stdlib
only.  It edits nothing under perfbench/; run.py itself keeps its work
directory and --trace spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def src_digest(checkout: Path) -> str:
    """sha256 over the relative paths and bytes of the .py files under src/."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        h.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def src_lines(checkout: Path) -> int:
    """Total line count of the .py files under src/, so a shrink is on record."""
    return sum(len(path.read_bytes().splitlines()) for path in (checkout / "src").rglob("*.py"))


def src_code_lines(checkout: Path) -> int:
    """Lines of the .py files under src/ that are neither blank nor comment-only."""
    return sum(1 for path in (checkout / "src").rglob("*.py")
               for line in path.read_bytes().splitlines()
               if line.strip() and not line.lstrip().startswith(b"#"))


def run_side(checkout: Path, pycache: Path, workload: str, seed: int, seconds: float,
             trace: bool) -> tuple[dict, list[str]]:
    """One perfbench run with its bytecode under pycache; its final JSON
    line and the report lines before it."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, env=env)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: perfbench exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return [round(values[0], 4)] * 3
    return [round(x, 4) for x in statistics.quantiles(values, n=4, method="inclusive")]


def summarize(runs: list[dict], better: dict[str, str]) -> list[dict]:
    """Per (workload, seed): q1/median/q3 per side and pairs won by the change."""
    groups: dict[tuple[str, int], dict[int, dict[str, dict]]] = {}
    for r in runs:
        groups.setdefault((r["workload"], r["seed"]), {}).setdefault(r["pair"], {})[r["side"]] = r["metrics"]
    out = []
    for (workload, seed), pairs in groups.items():
        full = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        metrics = {}
        for name, direction in better.items():
            parent = [p["parent"][name] for p in full]
            change = [p["change"][name] for p in full]
            sign = 1 if direction == "higher" else -1
            wins = sum(sign * (c - a) > 0 for a, c in zip(parent, change))
            mid = statistics.median(parent)
            metrics[name] = {
                "parent_q1_median_q3": quartiles(parent),
                "change_q1_median_q3": quartiles(change),
                "pairs_change_better": wins,
                "median_change_over_parent_minus_1":
                    round(statistics.median(change) / mid - 1, 4) if mid else None,
            }
        out.append({"workload": workload, "seed": seed, "pairs": len(full), "metrics": metrics})
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true", help="one back-to-back pair with --trace 1")
    ap.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to create or extend")
    ap.add_argument("--what", default="", help="one line on the change, kept from the first call")
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["parent"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    doc = json.loads(args.out.read_text()) if args.out.exists() else {
        "what": args.what,
        "machine": f"{platform.machine()} {platform.system()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "perfbench": {
            "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0, from a checkout of each side",
            "order": "alternating pairs: the parent runs first in odd-numbered pairs, the change in even-numbered ones",
            "bytecode": "each side runs with PYTHONPYCACHEPREFIX set to a directory of its own, kept across "
                        "the pairs of one call, and PYTHONDONTWRITEBYTECODE unset; no __pycache__ in a "
                        "checkout is read",
            "summary": [],
            "runs": [],
        },
    }
    for side, checkout in sides.items():
        doc[side] = {"src_sha256": src_digest(checkout), "src_lines": src_lines(checkout),
                     "src_code_lines": src_code_lines(checkout)}

    def save() -> None:
        doc["perfbench"]["summary"] = summarize(doc["perfbench"]["runs"], better)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        pycache = Path(tmp)
        if args.trace:
            traced = {"command": f"python3 perfbench/run.py --workload {args.workload} --seed {args.seed} "
                                 f"--seconds {args.seconds:g} --trace 1, one back-to-back pair, parent first"}
            for side in ("parent", "change"):
                result, lines = run_side(sides[side], pycache / side, args.workload, args.seed, args.seconds, True)
                start = next((i for i, line in enumerate(lines) if line.startswith("bucket")), 0)
                traced[side] = {
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                    "per_size_breakdown": lines[start:],
                }
                print(f"traced {side}: attempted {result['attempted']}", flush=True)
            doc["traced"] = traced
            save()
        else:
            runs = doc["perfbench"]["runs"]
            first = 1 + max((r["pair"] for r in runs if (r["workload"], r["seed"]) == (args.workload, args.seed)), default=0)
            for pair in range(first, first + args.pairs):
                for side in (("parent", "change") if pair % 2 else ("change", "parent")):
                    result, _ = run_side(sides[side], pycache / side, args.workload, args.seed, args.seconds, False)
                    metrics = {k: round(v["value"], 5) for k, v in result["metrics"].items()}
                    runs.append({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                                 "pair": pair, "side": side, "correct": result["correct"],
                                 "attempted": result["attempted"], "failed": result["failed"],
                                 "metrics": metrics})
                    print(f"{args.workload} seed {args.seed} pair {pair} {side}: "
                          f"op_p50_ms {metrics.get('op_p50_ms')}", flush=True)
                save()  # after every pair, so that a cut run keeps the pairs it finished
    return 0


if __name__ == "__main__":
    sys.exit(main())
