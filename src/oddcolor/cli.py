"""Command-line front end.

Subcommands: mad, color, verify, exact, gen, girth, orient.  Graphs stream
through stdin/stdout (or -i/-o paths) so commands compose with pipes, e.g.

    oddcolor gen kstar 7 | oddcolor mad
    oddcolor gen cycle 9 | oddcolor color --strategy auto | ...

Exit codes: 0 success; 1 semantic failure (invalid coloring, infeasible
orientation, unsupported density) or an internal error, reported on one
line; 2 parse or usage error, including a graph above MAX_VERTICES and an
unreadable input or unwritable output path.  Rational options are exact
"p/q" strings or integers; decimals are rejected.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import constructive, exact, sparsity
from .coloring import coloring_from_json, coloring_to_json, is_odd_coloring
from .graph import (
    MAX_VERTICES,
    Graph,
    gen_cycle,
    gen_cycle_with_leaves,
    gen_kstar,
    girth,
    parse_graph,
    serialize_graph,
    subdivide,
)

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_USAGE = 2


class _UsageError(Exception):
    pass


def parse_rational(text: str) -> Fraction:
    """Exact rational from "p/q" or an integer literal; no decimals."""
    parts = text.split("/")
    try:
        if len(parts) == 1:
            return Fraction(int(parts[0]))
        if len(parts) == 2:
            return Fraction(int(parts[0]), int(parts[1]))
    except (ValueError, ZeroDivisionError):
        pass
    raise _UsageError(f"expected an exact rational 'p/q' or integer, got {text!r}")


def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from None


def _read_graph(args: argparse.Namespace) -> Graph:
    return parse_graph(_read_text(args.input), args.format)


def _budget(args: argparse.Namespace) -> exact.SolveBudget | None:
    timeout = getattr(args, "timeout", None)
    max_k = getattr(args, "max_k", None)
    if timeout is None and max_k is None:
        return None
    return exact.SolveBudget(max_k=max_k, time_limit=timeout)


def _cmd_mad(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    witness = sparsity.mad_exact(g)
    _write_text(args.output, sparsity.format_mad_report(witness, args.witness))
    return EXIT_OK


def _cmd_girth(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    value = girth(g)
    _write_text(args.output, ("inf" if value is None else str(value)) + "\n")
    return EXIT_OK


# --strategy values that need only the graph; looked up per call, so a wrapper is seen
_COLORERS = {"forest": "color_forest", "cycle": "color_cycle_graph",
             "five": "color_five", "six": "color_six"}


def _cmd_color(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    strategy = args.strategy
    budget = _budget(args)
    try:
        if strategy == "auto":
            result = constructive.color_auto(g, budget)
        elif strategy in _COLORERS:
            result = getattr(constructive, _COLORERS[strategy])(g)
        else:  # eps
            if args.epsilon is None:
                raise _UsageError("--strategy eps requires --epsilon p/q")
            eps = parse_rational(args.epsilon)
            if not 0 < eps <= Fraction(8, 5):
                raise _UsageError("--epsilon must satisfy 0 < eps <= 8/5")
            result = constructive.color_eps(g, eps)
    except (exact.BudgetExceededError, ValueError) as exc:
        # budget gone, or no forest/cycle, or a named engine ran out outside its band
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    _write_text(args.output, coloring_to_json(
        result.colors, result.k_used, strategy=result.strategy, bound=result.bound) + "\n")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    _, colors = coloring_from_json(_read_text(args.coloring))
    ok, violations = is_odd_coloring(g, colors)
    if ok:
        _write_text(args.output, "VALID\n")
        return EXIT_OK
    lines = []
    for violation in violations:
        if violation.kind == "improper-edge":
            u, v = violation.where
            lines.append(f"improper-edge {u} {v}")
        else:
            lines.append(f"no-odd-color {violation.where}")
    _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_SEMANTIC


def _cmd_exact(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    try:
        chi, colors = exact.odd_chromatic_number(g, _budget(args))
    except exact.BudgetExceededError:
        payload, code = {"chi_o": None, "colors": None, "status": "budget-exceeded"}, EXIT_SEMANTIC
    else:
        payload, code = {"chi_o": chi, "colors": list(colors), "status": "exact"}, EXIT_OK
    _write_text(args.output, json.dumps(payload) + "\n")
    return code


def _cmd_orient(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    alpha = parse_rational(args.alpha)
    if alpha < 0:
        raise _UsageError("--alpha must be non-negative")
    orientation = sparsity.fractional_orientation(g, alpha)
    if orientation is None:
        _write_text(args.output, "INFEASIBLE\n")
        return EXIT_SEMANTIC
    _write_text(args.output, sparsity.format_orientation_report(orientation))
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind in ("kstar", "cycle"):
        if len(args.params) != 1:
            raise _UsageError(f"usage: gen {kind} N")
        n = _positive_int(args.params[0])
        _check_size(n * (n + 1) // 2 if kind == "kstar" else n)
        g = (gen_kstar if kind == "kstar" else gen_cycle)(n)
    elif kind == "cycle-leaves":
        if len(args.params) != 2:
            raise _UsageError("usage: gen cycle-leaves N c1,c2,...")
        n = _positive_int(args.params[0])
        try:
            counts = [int(c) for c in args.params[1].split(",")]
        except ValueError:
            raise _UsageError(f"bad leaf counts {args.params[1]!r}") from None
        _check_size(n + sum(c for c in counts if c > 0))
        try:
            g = gen_cycle_with_leaves(n, counts)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    elif kind == "subdivide":
        if args.params:
            raise _UsageError("gen subdivide takes no parameters; it reads a graph")
        g = subdivide(_read_graph(args))
    else:
        raise _UsageError(f"unknown generator {kind!r}")
    _write_text(args.output, serialize_graph(g, args.format))
    return EXIT_OK


def _check_size(n: int) -> None:
    if n > MAX_VERTICES:
        raise _UsageError(f"the graph would have {n} vertices; the limit is {MAX_VERTICES}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise _UsageError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise _UsageError(f"expected a positive integer, got {value}")
    return value


@functools.cache  # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddcolor",
        description="Odd colorings of sparse graphs: exact maximum average "
        "degree, bounded-color constructive algorithms, exact solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("-i", "--input", default=None, help="graph file (default stdin)")
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
        p.add_argument(
            "--format", choices=("edgelist", "dimacs"), default="edgelist",
            help="graph text format (default edgelist)",
        )

    p = sub.add_parser("mad", help="exact maximum average degree")
    add_common(p)
    p.add_argument("--witness", action="store_true", help="also print the densest vertex set")
    p.set_defaults(func=_cmd_mad)

    p = sub.add_parser("color", help="construct a bounded odd coloring")
    add_common(p)
    p.add_argument(
        "--strategy", choices=("auto", *_COLORERS, "eps"),
        default="auto",
    )
    p.add_argument("--epsilon", default=None, help="exact rational p/q for --strategy eps")
    p.add_argument("--timeout", type=float, default=None, help="budget for the exact fallback (seconds)")
    p.add_argument("--max-k", type=int, default=None, help="color cap for the exact fallback")
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("verify", help="check a coloring file against a graph")
    add_common(p)
    p.add_argument("--coloring", required=True, help="coloring JSON file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("exact", help="exact odd chromatic number")
    add_common(p)
    p.add_argument("--timeout", type=float, default=None, help="time budget in seconds")
    p.add_argument("--max-k", type=int, default=None, help="largest k to try")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("gen", help="generate a graph (kstar N | cycle N | cycle-leaves N c1,c2,... | subdivide)")
    add_common(p)
    p.add_argument("kind", choices=("kstar", "cycle", "cycle-leaves", "subdivide"))
    p.add_argument("params", nargs="*")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("girth", help="shortest cycle length ('inf' for forests)")
    add_common(p)
    p.set_defaults(func=_cmd_girth)

    p = sub.add_parser("orient", help="fractional orientation with indegree at most alpha/2")
    add_common(p)
    p.add_argument("--alpha", required=True, help="exact rational p/q")
    p.set_defaults(func=_cmd_orient)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse's own exit: 2 on a usage error, 0 after --help
        return exc.code
    except (_UsageError, ValueError) as exc:
        # also GraphParseError, a bad coloring file, out-of-range parameters
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        # ReductionExhaustedError, PaletteExhaustedError, a failed self-check:
        # a bug under a verified precondition, reported without a traceback
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
