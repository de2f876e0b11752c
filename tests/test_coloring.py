import json
import random

import pytest

from oddcolor import (
    PaletteExhaustedError,
    coloring_from_json,
    coloring_to_json,
    gen_complete,
    gen_cycle,
    gen_star,
    is_odd_coloring,
)
from oddcolor.coloring import _first_free, _two_coloring
from oddcolor.constructive import _paint

import util


def blank(g):
    """An empty coloring of g as the replay holds it: colors, parity masks
    and colored-neighbour counts."""
    return [0] * g.n, [0] * g.n, [0] * g.n


def odd_colors(mask):
    """The colors whose bits are set in a parity mask."""
    return {c for c in range(1, mask.bit_length()) if mask >> c & 1}


class TestPartialColoring:
    """A partial coloring as the replay holds it, painted through _paint."""

    def test_assign_updates_neighbor_parity(self):
        g = gen_cycle(4)
        col, odd, ncol = blank(g)
        for v, c in ((0, 1), (1, 2), (2, 1)):
            _paint(col, odd, ncol, g._adj, v, c)
        assert col == [1, 2, 1, 0]
        assert odd_colors(odd[1]) == set()
        assert odd_colors(odd[3]) == set()
        assert odd_colors(odd[0]) == {2}
        assert odd_colors(odd[2]) == {2}

    def test_odd_color_set_examples(self):
        star = gen_star(3)
        for colors, want in (((1, 1, 2), {2}), ((1, 2, 3), {1, 2, 3}), ((1, 1), set())):
            col, odd, ncol = blank(star)
            for leaf, c in zip((1, 2, 3), colors):
                _paint(col, odd, ncol, star._adj, leaf, c)
            assert odd_colors(odd[0]) == want
            # the mask test the replay uses for "one odd color, or none"
            assert (odd[0] & (odd[0] - 1) == 0) == (len(want) <= 1)

    def test_parity_matches_recount_under_stress(self):
        rng = random.Random(23)
        g = util.random_graph(rng, 14, 30)
        col, odd, ncol = blank(g)
        ops = 0
        while ops < 10_000:
            moves = [(v, c) for v in range(g.n) if col[v] == 0
                     for c in range(1, 7) if all(col[w] != c for w in g.neighbors(v))]
            if not moves:  # every vertex colored or stuck: start a fresh coloring
                col, odd, ncol = blank(g)
                continue
            _paint(col, odd, ncol, g._adj, *rng.choice(moves))
            ops += 1
            if ops % 250 == 0:
                for u in range(g.n):
                    recount: dict[int, int] = {}
                    for w in g.neighbors(u):
                        if col[w]:
                            recount[col[w]] = recount.get(col[w], 0) + 1
                    assert odd_colors(odd[u]) == {c for c, k in recount.items() if k % 2 == 1}
                    assert ncol[u] == sum(recount.values())

    def test_odd_degree_vertices_always_have_odd_color(self):
        # multiplicities over an odd-size neighborhood sum to an odd number
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(2, 9)
            g = util.random_graph(rng, n, rng.randint(1, n * (n - 1) // 2))
            col, odd, ncol = blank(g)
            for v in range(n):
                used = {col[w] for w in g.neighbors(v)}
                _paint(col, odd, ncol, g._adj, v, min(c for c in range(1, n + 1) if c not in used))
            for v in range(n):
                if g.degree(v) % 2 == 1:
                    assert odd[v]


class TestVerifier:
    def test_cycle_six_pattern(self):
        ok, violations = is_odd_coloring(gen_cycle(6), [1, 2, 3, 1, 2, 3])
        assert ok and not violations

    def test_cycle_four_two_coloring(self):
        ok, violations = is_odd_coloring(gen_cycle(4), [1, 2, 1, 2])
        assert not ok
        assert [v.kind for v in violations] == ["no-odd-color"] * 4
        assert [v.where for v in violations] == [0, 1, 2, 3]

    def test_improper_edge(self):
        ok, violations = is_odd_coloring(gen_complete(2), [1, 1])
        assert not ok
        assert violations[0].kind == "improper-edge"
        assert violations[0].where == (0, 1)

    def test_uncolored_vertex_rejected(self):
        with pytest.raises(ValueError):
            is_odd_coloring(gen_cycle(3), [1, 2])
        with pytest.raises(ValueError):
            is_odd_coloring(gen_cycle(3), [1, 2, 0])

    def test_violations_match_class_counting(self):
        # the parity shortcuts list what counting every class lists, kinds and
        # order included, on graphs with isolated vertices and every degree
        # parity and on colorings with clashes and all-even neighbourhoods
        rng = random.Random(43)
        seen = set()
        for _ in range(300):
            n = rng.randint(1, 12)
            g = util.random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
            for _ in range(20):
                cols = [rng.randint(1, rng.choice((2, 3, 5))) for _ in range(n)]
                violations = is_odd_coloring(g, cols)[1]
                assert violations == util.violations_by_counting(g, cols)
                lacking = {x.where for x in violations if x.kind == "no-odd-color"}
                seen.update(x.kind for x in violations)
                for v in range(n):
                    d = g.degree(v)
                    seen.add(("odd" if d % 2 else min(d, 4), v in lacking))
        assert seen == {"improper-edge", "no-odd-color", (0, False), ("odd", False),
                        (2, False), (2, True), (4, False), (4, True)}

    def test_agrees_with_definition_on_random_colorings(self):
        rng = random.Random(41)
        for _ in range(15):
            n = rng.randint(1, 8)
            g = util.random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
            for _ in range(1000):
                cols = [rng.randint(1, 4) for _ in range(n)]
                assert is_odd_coloring(g, cols)[0] == util.odd_coloring_by_definition(g, cols)


class TestChooseColor:
    # _first_free reads an avoid set as a bit mask, bit c for color c
    def test_examples(self):
        assert _first_free(0b110, 5) == 3
        assert _first_free(0, 1) == 1
        assert _first_free(0b10100, 4) == 1
        assert _first_free(0b1, 1) == 1  # bit 0 is no color

    def test_exhausted(self):
        with pytest.raises(PaletteExhaustedError, match=r"all 3 colors forbidden by \[1, 2, 3\]"):
            _first_free(0b1110, 3)


class TestTwoColoring:
    def test_agrees_with_brute_force(self):
        # the one odd 2-coloring test, shared by classify_small and the exact
        # solver's lower bound: sides exactly when two colors suffice
        rng = random.Random(97)
        two = 0
        for _ in range(150):
            n = rng.randint(2, 6)  # the brute force stops at 6 colors
            g = util.random_graph(rng, n, rng.randint(1, n * (n - 1) // 2))
            side = _two_coloring(g)
            assert (side is not None) == (util.brute_force_odd_chromatic(g) <= 2)
            if side is not None:
                assert is_odd_coloring(g, [s + 1 for s in side])[0]
                two += 1
        assert two >= 20


class TestColoringJson:
    def test_round_trip(self):
        text = coloring_to_json([1, 2, 3], 3)
        k, cols = coloring_from_json(text)
        assert k == 3 and cols == [1, 2, 3]
        payload = json.loads(coloring_to_json([1], 1, strategy="forest", bound=3))
        assert payload["strategy"] == "forest" and payload["bound"] == 3

    def test_malformed(self):
        with pytest.raises(ValueError):
            coloring_from_json("not json")
        with pytest.raises(ValueError):
            coloring_from_json('{"k": 2}')
        with pytest.raises(ValueError):
            coloring_from_json('{"k": 2, "colors": [1, "a"]}')
        with pytest.raises(ValueError):
            coloring_from_json('{"k": true, "colors": [1, 1]}')
        with pytest.raises(ValueError):
            coloring_from_json('{"k": 2, "colors": [1, true]}')
        with pytest.raises(ValueError):
            coloring_from_json('{"k": 2, "colors": [1, 7, 1]}')
        with pytest.raises(ValueError):
            coloring_from_json('{"k": -1, "colors": []}')
        with pytest.raises(ValueError):
            coloring_from_json('{"k": 0, "colors": [1]}')

    def test_empty_graph_file(self):
        # `color` on the empty graph writes k = 0 and no colors
        assert coloring_from_json('{"k": 0, "colors": []}') == (0, [])
