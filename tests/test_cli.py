import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oddcolor
from oddcolor import Graph, cli, constructive, serialize_graph, subdivide

import util

CMD = [sys.executable, "-m", "oddcolor"]
# the CLI runs the same package the tests imported, installed or not
SRC = str(Path(oddcolor.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run(args, stdin=None):
    return subprocess.run(CMD + args, input=stdin, capture_output=True, text=True, env=ENV)


def chain(*stages):
    """Pipe text through a sequence of CLI invocations; all must exit 0."""
    text = None
    for stage in stages:
        proc = run(stage, stdin=text)
        assert proc.returncode == 0, (stage, proc.stderr)
        text = proc.stdout
    return text


class TestMad:
    def test_kstar_seven(self):
        out = chain(["gen", "kstar", "7"], ["mad"])
        assert out == "mad 3/1\n"

    def test_witness(self):
        out = chain(["gen", "cycle", "6"], ["mad", "--witness"])
        lines = out.splitlines()
        assert lines[0] == "mad 2/1"
        assert lines[1] == "witness 0 1 2 3 4 5"


class TestMadWitnessGolden:
    """`mad --witness` output recorded with the earlier bisection search, so
    the expectation does not come from the code it checks.  Both searches
    return the union of all maximum-density sets."""

    GOLDEN = json.loads((Path(__file__).parent / "data" / "mad_witness.json").read_text())

    @staticmethod
    def seeded_subdivided(seed, n):
        # floor(3n/2) distinct random edges on n vertices, then subdivided
        rng = random.Random(seed)
        edges = set()
        while len(edges) < 3 * n // 2:
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        return serialize_graph(subdivide(Graph(n, sorted(edges))))

    @pytest.mark.parametrize("name, gen_args", [
        ("kstar-6", ["gen", "kstar", "6"]),
        ("cycle-leaves-9", ["gen", "cycle-leaves", "9", "1,1,1"]),
        ("subdivided-random", None),
    ])
    def test_byte_identical(self, name, gen_args):
        if gen_args:
            graph = chain(gen_args)
        else:
            graph = self.seeded_subdivided(7, 120)
            assert graph.startswith("300 360\n")  # the graph the golden was recorded on
        proc = run(["mad", "--witness"], stdin=graph)
        assert proc.returncode == 0 and proc.stdout == self.GOLDEN[name]


class TestExact:
    def test_five_cycle(self):
        out = chain(["gen", "cycle", "5"], ["exact"])
        payload = json.loads(out)
        assert payload["chi_o"] == 5 and payload["status"] == "exact"
        assert len(payload["colors"]) == 5

    def test_budget_exceeded(self):
        gen = run(["gen", "cycle", "5"])
        proc = run(["exact", "--max-k", "3"], stdin=gen.stdout)
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["status"] == "budget-exceeded" and payload["chi_o"] is None

    def test_long_cycle(self):
        # one search level per vertex: deeper than the default recursion limit
        payload = json.loads(chain(["gen", "cycle", "1200"], ["exact"]))
        assert payload["chi_o"] == 3 and payload["status"] == "exact"

    @pytest.mark.parametrize("command", ["exact", "color"])
    def test_nan_timeout_is_usage_error(self, command):
        graph = chain(["gen", "cycle", "5"])
        proc = run([command, "--timeout", "nan"], stdin=graph)
        assert proc.returncode == 2 and "time_limit" in proc.stderr


class TestColorVerify:
    def test_verify_valid(self, tmp_path):
        graph = chain(["gen", "cycle", "6"])
        graph_file = tmp_path / "c6.txt"
        graph_file.write_text(graph)
        coloring = chain(["color", "-i", str(graph_file)])
        coloring_file = tmp_path / "c6.json"
        coloring_file.write_text(coloring)
        proc = run(["verify", "-i", str(graph_file), "--coloring", str(coloring_file)])
        assert proc.returncode == 0 and proc.stdout == "VALID\n"

    def test_verify_invalid_lists_violations(self, tmp_path):
        graph_file = tmp_path / "c4.txt"
        graph_file.write_text(chain(["gen", "cycle", "4"]))
        coloring_file = tmp_path / "bad.json"
        coloring_file.write_text('{"k": 2, "colors": [1, 2, 1, 2]}')
        proc = run(["verify", "-i", str(graph_file), "--coloring", str(coloring_file)])
        assert proc.returncode == 1
        assert proc.stdout.splitlines() == [
            "no-odd-color 0", "no-odd-color 1", "no-odd-color 2", "no-odd-color 3",
        ]

    @pytest.mark.parametrize("graph, colors, report", [
        # triangle 0-1-2, pendants 3 and 4 at 0, isolated 5: the clash on
        # edge 1-2, and center 0 seeing two classes of size two
        ("6 5\n0 1\n0 2\n0 3\n0 4\n1 2\n", [1, 2, 2, 3, 3, 1],
         "improper-edge 1 2\nno-odd-color 0\n"),
        # kstar(4) with every hub colored 1: each subdivision vertex sees one
        # even class, and the one colored 1 clashes with both its hubs
        (None, [1, 1, 1, 1, 2, 2, 2, 2, 2, 1],
         "improper-edge 2 9\nimproper-edge 3 9\nno-odd-color 4\nno-odd-color 5\n"
         "no-odd-color 6\nno-odd-color 7\nno-odd-color 8\nno-odd-color 9\n"),
    ])
    def test_verify_report_pinned(self, tmp_path, graph, colors, report):
        graph_file = tmp_path / "g.txt"
        graph_file.write_text(graph or chain(["gen", "kstar", "4"]))
        coloring_file = tmp_path / "bad.json"
        coloring_file.write_text(json.dumps({"k": max(colors), "colors": colors}))
        proc = run(["verify", "-i", str(graph_file), "--coloring", str(coloring_file)])
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, report, "")

    @pytest.mark.parametrize("gen_args", [
        ["gen", "kstar", "4"],
        ["gen", "kstar", "6"],
        ["gen", "kstar", "7"],
        ["gen", "cycle", "5"],
        ["gen", "cycle", "6"],
        ["gen", "cycle", "7"],
        ["gen", "cycle-leaves", "9", "1,1,1"],
        ["gen", "cycle-leaves", "6", "0,2"],
    ])
    def test_round_trip_matrix(self, tmp_path, gen_args):
        graph_file = tmp_path / "g.txt"
        graph_file.write_text(chain(gen_args))
        coloring = chain(["color", "-i", str(graph_file), "--strategy", "auto"])
        coloring_file = tmp_path / "c.json"
        coloring_file.write_text(coloring)
        proc = run(["verify", "-i", str(graph_file), "--coloring", str(coloring_file)])
        assert proc.returncode == 0, proc.stdout
        assert proc.stdout == "VALID\n"

    @pytest.mark.parametrize("gen_args, strategy, bound", [
        (None, "five", 5),  # a six-band graph on which the five reduction completes
        (["gen", "kstar", "6"], "six", 6),  # five runs out, six completes
        (["gen", "kstar", "7"], "eps", 10),  # both run out: eps at 4 - mad = 1
    ])
    def test_auto_takes_the_first_reduction_that_completes(self, tmp_path, gen_args,
                                                           strategy, bound):
        if gen_args is None:
            g = subdivide(util.random_graph(random.Random(2), 40, 104))
            assert oddcolor.mad_exact(g).mad == Fraction(178, 61)  # in [20/7, 3)
        graph_file = tmp_path / "g.txt"
        graph_file.write_text(chain(gen_args) if gen_args else serialize_graph(g))
        coloring = chain(["color", "--strategy", "auto", "-i", str(graph_file)])
        payload = json.loads(coloring)
        assert (payload["strategy"], payload["bound"]) == (strategy, bound)
        assert payload["k"] <= bound
        coloring_file = tmp_path / "c.json"
        coloring_file.write_text(coloring)
        proc = run(["verify", "-i", str(graph_file), "--coloring", str(coloring_file)])
        assert proc.returncode == 0 and proc.stdout == "VALID\n"

    @pytest.mark.parametrize("coloring", [
        '{"k": true, "colors": [1, 2, 1]}',
        '{"k": 2, "colors": [1, true, 1]}',
        '{"k": 2, "colors": [1, 7, 1]}',
        # deep enough to exhaust json's recursion
        pytest.param("[" * 100_000 + "]" * 100_000, id="deep-array"),
        pytest.param('{"k": 3, "colors": ' + "[" * 100_000 + "]" * 100_000 + "}",
                     id="deep-colors"),
    ])
    def test_verify_rejects_malformed_file(self, tmp_path, coloring):
        graph_file = tmp_path / "p3.txt"
        graph_file.write_text("3 2\n0 1\n1 2\n")
        coloring_file = tmp_path / "bad.json"
        coloring_file.write_text(coloring)
        proc = run(["verify", "-i", str(graph_file), "--coloring", str(coloring_file)])
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: ")

    def test_empty_graph_round_trip(self, tmp_path):
        graph_file = tmp_path / "empty.txt"
        graph_file.write_text("0 0\n")
        coloring_file = tmp_path / "c.json"
        coloring_file.write_text(chain(["color", "-i", str(graph_file)]))
        proc = run(["verify", "-i", str(graph_file), "--coloring", str(coloring_file)])
        assert proc.returncode == 0 and proc.stdout == "VALID\n"

    def test_strategy_epsilon(self):
        graph = chain(["gen", "kstar", "7"])
        proc = run(["color", "--strategy", "eps", "--epsilon", "1"], stdin=graph)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["bound"] == 10 and payload["strategy"] == "eps"

    def test_strategy_eps_requires_epsilon(self):
        graph = chain(["gen", "kstar", "7"])
        proc = run(["color", "--strategy", "eps"], stdin=graph)
        assert proc.returncode == 2

    def test_strategy_precondition_exit(self):
        graph = chain(["gen", "kstar", "7"])
        proc = run(["color", "--strategy", "five"], stdin=graph)
        assert proc.returncode == 1
        # in range, but kstar(7) has mad 3 > 4 - 8/5
        proc = run(["color", "--strategy", "eps", "--epsilon", "8/5"], stdin=graph)
        assert proc.returncode == 1 and proc.stderr.startswith("error: mad(G) exceeds")

    @pytest.mark.parametrize("g, argv, bound", [
        # six band (mad 178/61 >= 20/7), and the five reduction completes
        (subdivide(util.random_graph(random.Random(2), 40, 104)), ["--strategy", "five"], 5),
        # K4: mad 3 > 4 - 8/5, and it reduces through three-vertex records
        (oddcolor.gen_complete(4), ["--strategy", "eps", "--epsilon", "8/5"], 7),
    ], ids=["five", "eps"])
    def test_named_engine_colors_an_out_of_band_graph_it_reduces(self, tmp_path, g, argv, bound):
        # a completed reduction proves its bound, so the engine prints a
        # coloring instead of an error
        graph_file = tmp_path / "g.txt"
        graph_file.write_text(serialize_graph(g))
        proc = run(["color", *argv, "-i", str(graph_file)])
        assert proc.returncode == 0 and proc.stderr == ""
        payload = json.loads(proc.stdout)
        assert payload["bound"] == bound and payload["k"] <= bound
        coloring_file = tmp_path / "c.json"
        coloring_file.write_text(proc.stdout)
        proc = run(["verify", "-i", str(graph_file), "--coloring", str(coloring_file)])
        assert proc.returncode == 0 and proc.stdout == "VALID\n"

    @pytest.mark.parametrize("epsilon", ["0", "-1", "9/5"])
    def test_epsilon_out_of_range_is_usage_error(self, epsilon):
        graph = chain(["gen", "kstar", "7"])
        proc = run(["color", "--strategy", "eps", "--epsilon", epsilon], stdin=graph)
        assert proc.returncode == 2 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1

    def test_dense_graph_without_budget(self):
        dimacs = "p edge 5 10\n" + "\n".join(
            f"e {i} {j}" for i in range(1, 6) for j in range(i + 1, 6)
        )
        proc = run(["color", "--format", "dimacs"], stdin=dimacs)
        assert proc.returncode == 1
        proc = run(["color", "--format", "dimacs", "--max-k", "5"], stdin=dimacs)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["strategy"] == "exact"

    def test_large_palette(self):
        # eps = 1/10^6 allows 8000002 colors; parities and avoid sets hold
        # bits only for the colors in use, so neither this coloring nor a
        # palette of 10^9 builds anything of the palette's size
        out = chain(["gen", "kstar", "5"], ["color", "--strategy", "eps", "--epsilon", "1/1000000"])
        assert out == ('{"k": 5, "colors": [5, 4, 1, 3, 2, 1, 2, 1, 1, 2, 1, 1, 2, 3, 1], '
                       '"strategy": "eps", "bound": 8000002}\n')
        g = oddcolor.gen_kstar(5)
        col, odd, ncol = [0] * g.n, [0] * g.n, [0] * g.n
        for rec in reversed(constructive._reduce_all(g, constructive._FIVE)):
            constructive._replay(col, odd, ncol, 10**9, rec, g._adj)
        assert tuple(col) == oddcolor.color_five(g).colors
        for v in range(g.n):
            cols = [col[w] for w in g.neighbors(v)]
            assert odd[v] == sum(1 << c for c in set(cols) if cols.count(c) % 2)


class TestGen:
    def test_kstar_edge_count(self):
        out = chain(["gen", "kstar", "5"])
        assert out.splitlines()[0] == "15 20"

    def test_subdivide_pipe(self):
        out = chain(["gen", "cycle", "5"], ["gen", "subdivide"], ["girth"])
        assert out == "10\n"

    def test_dimacs_output_and_input(self):
        out = chain(["gen", "cycle", "6", "--format", "dimacs"])
        assert out.splitlines()[0] == "p edge 6 6"
        proc = run(["girth", "--format", "dimacs"], stdin=out)
        assert proc.stdout == "6\n"

    def test_bad_params(self):
        assert run(["gen", "kstar"]).returncode == 2
        assert run(["gen", "cycle-leaves", "9", "1,1"]).returncode == 2
        assert run(["gen", "kstar", "x"]).returncode == 2

    @pytest.mark.parametrize("args", [
        ["gen", "kstar", "2000"],  # 2001000 vertices
        ["gen", "cycle", "2000000"],
        ["gen", "cycle-leaves", "3", "2000000000"],
        ["mad"],
        ["mad", "--format", "dimacs"],
    ])
    def test_vertex_cap(self, args):
        # refused from the requested size alone, before anything is allocated
        header = "p edge 2000000000 0\n" if "dimacs" in args else "2000000000 0\n"
        proc = run(args, stdin=header)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "limit is 1000000" in proc.stderr


class TestGirth:
    def test_forest_is_inf(self):
        proc = run(["girth"], stdin="4 3\n0 1\n1 2\n2 3\n")
        assert proc.stdout == "inf\n"

    def test_kstar(self):
        assert chain(["gen", "kstar", "4"], ["girth"]) == "6\n"


class TestOrient:
    def test_feasible_report(self):
        out = chain(["gen", "kstar", "7"], ["orient", "--alpha", "3"])
        lines = out.splitlines()
        assert len(lines) == 42
        assert all(len(line.split()) == 3 and "/" in line.split()[2] for line in lines)

    def test_infeasible(self):
        graph = chain(["gen", "kstar", "7"])
        proc = run(["orient", "--alpha", "5/2"], stdin=graph)
        assert proc.returncode == 1 and proc.stdout == "INFEASIBLE\n"

    def test_decimal_rejected(self):
        graph = chain(["gen", "cycle", "4"])
        proc = run(["orient", "--alpha", "2.5"], stdin=graph)
        assert proc.returncode == 2

    def test_rational_flag(self):
        graph = chain(["gen", "kstar", "6"])
        proc = run(["orient", "--alpha", "20/7"], stdin=graph)
        assert proc.returncode == 0

    def test_edgeless(self):
        proc = run(["orient", "--alpha", "1"], stdin="0 0\n")
        assert proc.returncode == 0 and proc.stdout == ""


def orient_golden_corpus():
    """(name, edge-list text) of the graphs tests/data/orient_golden.json holds."""
    out = [(f"kstar-{n}", serialize_graph(oddcolor.gen_kstar(n))) for n in range(4, 8)]
    # r*40 distinct random edges on 40 vertices, subdivided: mad in the band
    for band, r, seed in (("five", 1.5, 1), ("six", 2.6, 2), ("eps", 3.2, 3)):
        rng = random.Random(seed)
        edges = set()
        while len(edges) < int(r * 40):
            edges.add(tuple(sorted(rng.sample(range(40), 2))))
        out.append((f"{band}-band", serialize_graph(subdivide(Graph(40, sorted(edges))))))
    # a core cycle 0..5 with pendant trees; branch vertices 12, 13 joined by
    # chains of 1, 3 and 5 edges, a chain from 12 back to itself and a tree at
    # 13; K4 on 26..29 with a pendant and a parallel 2-edge chain; six paths,
    # so that m/n < 1 and the first mad flow runs on the whole graph
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(0, 6), (6, 7), (6, 8), (2, 9), (9, 10), (10, 11)]
    edges += [(12, 13), (12, 14), (14, 15), (15, 13), (12, 16), (16, 17), (17, 18), (18, 19), (19, 13)]
    edges += [(12, 20), (20, 21), (21, 22), (22, 12), (13, 23), (23, 24), (23, 25)]
    edges += [(26, 27), (26, 28), (26, 29), (27, 28), (27, 29), (28, 29), (29, 30), (26, 31), (31, 27)]
    edges += [(v, v + 1) for a in range(32, 50, 3) for v in (a, a + 1)]
    out.append(("pendant-trees", serialize_graph(Graph(50, edges))))
    return out


class TestOrientGolden:
    """`orient --alpha A` and `mad --witness` stdout, recorded from the CLI
    before the flow's first phase was written in closed form.  An orientation
    is read off the exact max flow found, not just its value, so this pins
    every flow arc for arc."""

    GOLDEN = json.loads((Path(__file__).parent / "data" / "orient_golden.json").read_text())
    ALPHAS = ("2", "5/2", "20/7", "3", "7/2")

    @staticmethod
    def stdout(capsys, monkeypatch, graph, argv):
        monkeypatch.setattr(sys, "stdin", io.StringIO(graph))
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert err == ""
        return code, out

    def test_corpus(self):
        assert [(name, text.split("\n", 1)[0]) for name, text in orient_golden_corpus()] == [
            ("kstar-4", "10 12"), ("kstar-5", "15 20"), ("kstar-6", "21 30"),
            ("kstar-7", "28 42"), ("five-band", "100 120"), ("six-band", "144 208"),
            ("eps-band", "168 256"), ("pendant-trees", "50 49"),
        ]
        assert list(self.GOLDEN) == [name for name, _ in orient_golden_corpus()]

    @pytest.mark.parametrize("name, graph", orient_golden_corpus())
    def test_byte_identical(self, capsys, monkeypatch, name, graph):
        want = self.GOLDEN[name]
        assert self.stdout(capsys, monkeypatch, graph, ["mad", "--witness"]) == (0, want["mad --witness"])
        for alpha in self.ALPHAS:
            code, out = self.stdout(capsys, monkeypatch, graph, ["orient", "--alpha", alpha])
            assert out == want[f"orient --alpha {alpha}"]
            assert code == (1 if out == "INFEASIBLE\n" else 0)


class TestForestGolden:
    """`color --strategy forest` stdout, recorded when forests came to be
    colored in reverse kernel peel order, so that the next order change shows."""

    @pytest.mark.parametrize("graph, colors", [
        (oddcolor.gen_path(7), [1, 2, 3, 1, 2, 3, 1]),
        (oddcolor.gen_star(5), [2, 1, 3, 1, 1, 1]),
        # util.random_forest(random.Random(3), 12)
        (Graph(12, [(0, 1), (0, 3), (1, 2), (1, 5), (2, 9), (2, 10), (3, 4), (5, 6), (6, 7),
                    (6, 8), (8, 11)]), [3, 1, 2, 2, 1, 2, 3, 1, 1, 3, 1, 2]),
    ])
    def test_byte_identical(self, capsys, monkeypatch, graph, colors):
        monkeypatch.setattr(sys, "stdin", io.StringIO(serialize_graph(graph)))
        assert cli.main(["color", "--strategy", "forest"]) == 0
        want = json.dumps({"k": 3, "colors": colors, "strategy": "forest", "bound": 3}) + "\n"
        assert capsys.readouterr() == (want, "")


class TestParserReuse:
    """One argparse parser serves every main() call of a process."""

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_no_state_carries_over(self, monkeypatch, capsys):
        graph = serialize_graph(oddcolor.gen_kstar(5))

        def call(argv):
            monkeypatch.setattr(sys, "stdin", io.StringIO(graph))
            return (cli.main(argv), *capsys.readouterr())

        first = call(["color"])
        assert first[0] == 0 and first[2] == ""
        code, out, err = call(["color", "--strategy", "none"])
        assert (code, out) == (2, "") and "invalid choice: 'none'" in err
        assert call(["color", "--strategy", "eps", "--epsilon", "0"]) == (
            2, "", "error: --epsilon must satisfy 0 < eps <= 8/5\n")
        assert call(["color"]) == first  # strategy auto again, no epsilon
        assert call(["mad", "--witness"]) == (0, run(["mad", "--witness"], stdin=graph).stdout, "")

    def test_argparse_exits_become_return_codes(self, capsys):
        # an in-process caller gets argparse's exit code, not SystemExit
        assert cli.main(["color", "--strategy", "none"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "invalid choice: 'none'" in err
        assert cli.main(["color", "--help"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: oddcolor color") and err == ""


class TestErrorsAndDeterminism:
    def test_parse_error_exit_two(self):
        proc = run(["mad"], stdin="2 1\n0 0\n")
        assert proc.returncode == 2 and "self-loop" in proc.stderr

    @pytest.mark.parametrize("text, message", util.DIMACS_ERRORS)
    def test_dimacs_errors_exit_two(self, tmp_path, capsys, text, message):
        path = tmp_path / "g.dimacs"
        path.write_text(text)
        assert cli.main(["mad", "--format", "dimacs", "-i", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]).returncode == 2

    def test_byte_deterministic(self):
        graph = chain(["gen", "kstar", "6"])
        runs = [run(["color", "--strategy", "six"], stdin=graph) for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout
        reports = [run(["mad", "--witness"], stdin=graph) for _ in range(2)]
        assert reports[0].stdout == reports[1].stdout

    @pytest.mark.parametrize("exc", [
        oddcolor.ReductionExhaustedError("no reducible configuration"),
        oddcolor.PaletteExhaustedError("all 5 colors forbidden"),
        RuntimeError("invalid coloring produced"),
    ])
    def test_internal_error_is_one_line(self, tmp_path, monkeypatch, capsys, exc):
        def fail(*args):
            raise exc

        monkeypatch.setattr(constructive, "_reduce_all", fail)
        graph_file = tmp_path / "k5.txt"
        graph_file.write_text(serialize_graph(oddcolor.gen_kstar(5)))
        assert cli.main(["color", "-i", str(graph_file)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: internal: {type(exc).__name__}: ")

    def test_replay_fault_is_internal_error(self, monkeypatch, capsys):
        # a replay that paints a color it was told to avoid, here a colored
        # neighbour's, is caught by the final check, not taken for a failed
        # precondition
        first_free = constructive._first_free

        def lowest_avoided(avoid, k):
            avoid &= ~1
            return (avoid & -avoid).bit_length() - 1 if avoid else first_free(avoid, k)

        monkeypatch.setattr(constructive, "_first_free", lowest_avoided)
        monkeypatch.setattr(sys, "stdin", io.StringIO(serialize_graph(oddcolor.gen_kstar(5))))
        assert cli.main(["color"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: internal: RuntimeError: invalid coloring produced ")

    def test_palette_fault_after_a_completed_reduction_is_internal_error(
            self, monkeypatch, capsys):
        # only a reduction that runs out of configurations moves auto on to
        # the next engine; a replay that runs out of colors is a fault, and
        # the five engine's (5 colors) is the one reported
        def no_color(avoid, k):
            raise oddcolor.PaletteExhaustedError(f"all {k} colors forbidden")

        monkeypatch.setattr(constructive, "_first_free", no_color)
        monkeypatch.setattr(sys, "stdin", io.StringIO(serialize_graph(oddcolor.gen_kstar(5))))
        assert cli.main(["color", "--strategy", "auto"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "error: internal: PaletteExhaustedError: all 5 colors forbidden\n")

    def test_in_band_exhaustion_is_internal_error(self, monkeypatch, capsys):
        # a named engine that runs out on a graph of its band (the 7-cycle,
        # mad 2) has a fault: it is not reported as a failed precondition
        monkeypatch.setattr(constructive, "_FIVE", ())
        monkeypatch.setattr(sys, "stdin", io.StringIO(serialize_graph(oddcolor.gen_cycle(7))))
        assert cli.main(["color", "--strategy", "five"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == ("error: internal: ReductionExhaustedError: "
                                     "no reducible configuration in a non-empty graph\n")

    def test_invalid_exact_witness_is_one_line(self, monkeypatch, capsys):
        # a search that assembles an improper coloring is caught before output
        def all_ones(g, k, order, state, colors, clock):
            for v in order:
                colors[v] = 1
            return "yes"

        monkeypatch.setattr(oddcolor.exact, "_odd_search", all_ones)
        monkeypatch.setattr(sys, "stdin", io.StringIO(serialize_graph(oddcolor.gen_kstar(5))))
        assert cli.main(["exact"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: internal: RuntimeError: ")

    def test_faulty_flow_is_one_line(self, monkeypatch, capsys):
        # a flow that never finds a denser set makes mad_exact fail, not hang
        calls = []

        def same_set(g, d):
            calls.append(d)
            assert len(calls) <= 50, "mad_exact kept asking for a denser set"
            return list(range(g.n))

        monkeypatch.setattr(oddcolor.sparsity, "_denser_subgraph", same_set)
        monkeypatch.setattr(sys, "stdin", io.StringIO(serialize_graph(oddcolor.gen_kstar(5))))
        assert cli.main(["mad"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: internal: RuntimeError: ")

    def test_output_file(self, tmp_path):
        target = tmp_path / "out.txt"
        graph = chain(["gen", "cycle", "6"])
        proc = run(["mad", "-o", str(target)], stdin=graph)
        assert proc.returncode == 0
        assert target.read_text() == "mad 2/1\n"

    @pytest.mark.parametrize("stages", [
        [["gen", "cycle", "5"]],
        [["gen", "cycle", "6"], ["color"]],
    ])
    def test_unwritable_output_is_usage_error(self, tmp_path, stages):
        target = tmp_path / "missing" / "out.txt"
        proc = run(stages[-1] + ["-o", str(target)], stdin=chain(*stages[:-1]))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith(f"error: cannot write {target}: ")
        assert proc.stderr.count("\n") == 1 and not target.exists()
