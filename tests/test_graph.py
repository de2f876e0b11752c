import random

import pytest

from oddcolor import (
    Graph,
    GraphParseError,
    gen_complete,
    gen_cycle,
    gen_cycle_with_leaves,
    gen_kstar,
    gen_path,
    gen_star,
    girth,
    parse_dimacs,
    parse_edgelist,
    parse_graph,
    serialize_graph,
    subdivide,
    to_dimacs,
    to_edgelist,
)

import util


class TestGraphConstruction:
    def test_basic(self):
        g = Graph(4, [(0, 1), (2, 1), (2, 3)])
        assert g.n == 4 and g.m == 3
        assert g.neighbors(1) == (0, 2)
        assert g.degrees() == (1, 2, 2, 1)
        assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(0, 0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 3)])

    def test_isolated_vertices(self):
        g = Graph(5, [(0, 1)])
        assert g.degree(4) == 0
        assert g.components() == [[0, 1], [2], [3], [4]]

    def test_bipartition(self):
        assert gen_cycle(4).bipartition() == [0, 1, 0, 1]
        assert gen_cycle(5).bipartition() is None

    def test_is_forest(self):
        assert gen_path(6).is_forest()
        assert not gen_cycle(6).is_forest()
        assert Graph(0, []).is_forest() and Graph(1, []).is_forest()  # m = n = 0 is a forest

    def test_is_cycle(self):
        assert gen_cycle(3).is_cycle() and gen_cycle(7).is_cycle()
        two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        for g in (gen_path(6), two_triangles, Graph(0, []), Graph(1, [])):
            assert not g.is_cycle()


class TestParsing:
    def test_edgelist_path(self):
        g = parse_edgelist("3 2\n0 1\n1 2")
        assert g == gen_path(3)

    def test_edgelist_self_loop(self):
        with pytest.raises(GraphParseError, match="self-loop"):
            parse_edgelist("2 1\n0 0")

    def test_edgelist_duplicate(self):
        with pytest.raises(GraphParseError, match="duplicate"):
            parse_edgelist("3 2\n0 1\n1 0")

    def test_edgelist_index_out_of_range(self):
        with pytest.raises(GraphParseError, match="out of range"):
            parse_edgelist("3 1\n0 3")

    def test_edgelist_count_mismatch(self):
        with pytest.raises(GraphParseError, match="promises"):
            parse_edgelist("3 2\n0 1")

    def test_edgelist_comments_and_blanks(self):
        g = parse_edgelist("# a path\n\n3 2\n0 1\n\n1 2\n")
        assert g == gen_path(3)

    def test_edgelist_bad_tokens(self):
        with pytest.raises(GraphParseError):
            parse_edgelist("3 2\n0 x\n1 2")

    def test_dimacs_triangle(self):
        g = parse_dimacs("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        assert g == gen_complete(3)

    def test_dimacs_comments(self):
        g = parse_dimacs("c hello\np edge 2 1\ne 1 2\n")
        assert g == gen_path(2)

    def test_dimacs_errors(self):
        with pytest.raises(GraphParseError):
            parse_dimacs("e 1 2\n")
        with pytest.raises(GraphParseError):
            parse_dimacs("p edge 2 1\ne 0 1\n")
        with pytest.raises(GraphParseError):
            parse_dimacs("p col 2 1\ne 1 2\n")

    @pytest.mark.parametrize("parse, text, message", [
        (parse_edgelist, "3 1\n0 1 2\n", "line 2: expected two integers, got '0 1 2'"),
        (parse_edgelist, "# c\n-1 0\n", "line 2: bad header '-1 0'"),
        (parse_dimacs, "p edge 2 1\np edge 2 1\n", "line 2: duplicate problem line"),
        (parse_dimacs, "p edge 2 x\n", "line 1: expected 'p edge n m'"),
        (parse_dimacs, "p edge 2 1\ne 1 2 3\n", "line 2: expected 'e u v'"),
        (parse_dimacs, "p edge 2 1\ne 1 y\n", "line 2: expected 'e u v'"),
        (parse_dimacs, "p edge 2 1\nx 1 2\n", "line 2: unknown line type 'x'"),
    ] + [(parse_dimacs, text, message) for text, message in util.DIMACS_ERRORS])
    def test_line_errors(self, parse, text, message):
        with pytest.raises(GraphParseError) as info:
            parse(text)
        assert str(info.value) == message

    def test_round_trip_both_formats(self):
        rng = random.Random(42)
        for _ in range(25):
            n = rng.randint(1, 12)
            m = rng.randint(0, n * (n - 1) // 2)
            g = util.random_graph(rng, n, m)
            assert parse_graph(to_edgelist(g), "edgelist") == g
            assert parse_graph(to_dimacs(g), "dimacs") == g
            assert parse_graph(serialize_graph(g, "dimacs"), "dimacs") == g


class TestGirth:
    def test_examples(self):
        assert girth(gen_cycle(7)) == 7
        assert girth(gen_complete(4)) == 3
        assert girth(gen_path(5)) is None
        assert girth(Graph(3, [])) is None

    def test_against_brute_force(self):
        rng = random.Random(7)
        for _ in range(80):
            n = rng.randint(1, 8)
            m = rng.randint(0, n * (n - 1) // 2)
            g = util.random_graph(rng, n, m)
            assert girth(g) == util.brute_force_girth(g), to_edgelist(g)

    def test_long_cycle_needs_no_search(self):
        # no branch vertex: the kernel's one cycle is the answer
        assert girth(gen_cycle(10**4)) == 10**4


class TestGenerators:
    def test_kstar_counts(self):
        g = gen_kstar(4)
        assert (g.n, g.m) == (10, 12)
        assert sorted(g.degrees(), reverse=True) == [3, 3, 3, 3] + [2] * 6

        g = gen_kstar(2)  # a path on 3 vertices, middle vertex last
        assert (g.n, g.m) == (3, 2) and sorted(g.degrees()) == [1, 1, 2]

        g = gen_kstar(7)
        assert (g.n, g.m) == (28, 42)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_kstar_degree_profile(self, n):
        g = gen_kstar(n)
        degs = g.degrees()
        assert all(degs[v] == n - 1 for v in range(n))
        assert all(degs[v] == 2 for v in range(n, g.n))
        assert g.n == n * (n + 1) // 2 and g.m == n * (n - 1)

    def test_subdivide_triangle_is_six_cycle(self):
        g = subdivide(gen_complete(3))
        assert g.n == 6 and g.m == 6
        assert all(d == 2 for d in g.degrees()) and len(g.components()) == 1
        assert girth(g) == 6

    @pytest.mark.parametrize("n", range(2, 8))
    def test_subdivide_complete_matches_kstar(self, n):
        assert subdivide(gen_complete(n)) == gen_kstar(n)

    def test_subdivide_cycle(self):
        g = subdivide(gen_cycle(5))
        assert g.n == 10 and all(d == 2 for d in g.degrees())
        assert girth(g) == 10

    def test_subdivide_bipartite_triangle_free(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(1, 9)
            h = util.random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
            g = subdivide(h)
            assert g.bipartition() is not None
            assert girth(g) is None or girth(g) >= 4
            assert (g.n, g.m) == (h.n + h.m, 2 * h.m)

    def test_cycle_with_leaves_counts(self):
        g = gen_cycle_with_leaves(9, (1, 1, 1))
        assert (g.n, g.m) == (12, 12)
        assert g.degree(2) == 3 and g.degree(9) == 1

        assert gen_cycle_with_leaves(6, (0, 0)) == gen_cycle(6)

        g = gen_cycle_with_leaves(9, (2, 0, 0))
        assert g.n == 11
        assert util.brute_force_mad(g) == 2

    def test_cycle_with_leaves_errors(self):
        with pytest.raises(ValueError, match="multiple of 3"):
            gen_cycle_with_leaves(7, (1, 1))
        with pytest.raises(ValueError, match="leaf counts"):
            gen_cycle_with_leaves(9, (1, 1))

    def test_star(self):
        g = gen_star(5)
        assert g.degree(0) == 5 and all(g.degree(v) == 1 for v in range(1, 6))
