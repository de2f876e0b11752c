import io
import json
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

from oddcolor import (
    BudgetExceededError,
    ColorableOutcome,
    Graph,
    SolveBudget,
    degeneracy_order,
    gen_complete,
    gen_cycle,
    gen_cycle_with_leaves,
    gen_kstar,
    gen_path,
    gen_star,
    is_odd_coloring,
    odd_chromatic_number,
    odd_colorable,
    serialize_graph,
    subdivide,
)
from oddcolor import cli, exact

import util


def shuffled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return util.relabel(g, perm)


class TestOddColorable:
    def test_five_cycle_needs_five(self):
        assert odd_colorable(gen_cycle(5), 4).status == "no"
        out = odd_colorable(gen_cycle(5), 5)
        assert out.status == "yes"
        assert is_odd_coloring(gen_cycle(5), out.coloring)[0]

    def test_six_cycle_three_colors(self):
        assert odd_colorable(gen_cycle(6), 3).status == "yes"

    def test_empty_graph(self):
        assert odd_colorable(Graph(0, []), 1) == ColorableOutcome("yes", (), 0)
        assert odd_chromatic_number(Graph(0, [])) == (0, ())

    def test_kstar_four(self):
        assert odd_colorable(gen_kstar(4), 3).status == "no"
        assert odd_colorable(gen_kstar(4), 4).status == "yes"

    def test_monotone_in_k(self):
        rng = random.Random(61)
        for _ in range(25):
            n = rng.randint(2, 7)
            g = util.random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
            for k in range(1, n):
                if odd_colorable(g, k).status == "yes":
                    assert odd_colorable(g, k + 1).status == "yes"
                    break

    def test_state_sized_by_n_not_k(self):
        # no search uses a color above n, so k above n changes nothing and
        # costs no memory: n * (k + 1) ban counters took about 41 MB here
        g = gen_cycle(5)
        tracemalloc.start()
        try:
            out = odd_colorable(g, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert out == odd_colorable(g, g.n)
        rng = random.Random(67)
        for _ in range(20):
            n = rng.randint(1, 8)
            g = util.random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
            assert odd_colorable(g, n + 3) == odd_colorable(g, n)

    def test_state_sized_by_max_degree(self):
        # at most 2·deg(w) reasons ban a color at w, so with k >= 2Δ + 2 no
        # color runs out, the search never backs up (one node per vertex) and
        # no vertex takes a color above 2Δ + 1; sizing the state for n colors
        # instead of 2Δ + 2 took about 8 MB here
        g = util.roadmap_corpus(400)
        top = 2 * max(g.degrees()) + 1
        tracemalloc.start()
        try:
            out = odd_colorable(g, g.n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert out.status == "yes" and out.nodes == g.n and max(out.coloring) <= top
        assert out == odd_colorable(g, top + 1)

    def test_budget_exceeded(self):
        out = odd_colorable(gen_kstar(5), 4, SolveBudget(node_limit=3))
        assert out.status == "budget-exceeded"
        assert out.coloring is None

    def test_kstar_five_refutation_nodes(self):
        # pinning only the first vertex takes 10198 nodes, value-symmetry
        # breaking 1702, and banning unique odd colors with forward checking 128
        out = odd_colorable(gen_kstar(5), 4)
        assert out.status == "no" and out.nodes == 128

    def test_kstar_six_refutation_nodes(self):
        # 4324710 nodes without the odd-color bans and forward checking
        out = odd_colorable(gen_kstar(6), 5)
        assert out.status == "no" and out.nodes == 19501

    def test_refutation_stops_at_two_neighbors_left_one_same_color(self):
        # without the check that two adjacent uncolored vertices do not share
        # their only free color, refuting 5 colors here takes 131 nodes
        g = util.random_graph(random.Random(14), 22, 104)
        out = odd_colorable(g, 5)
        assert out.status == "no" and out.nodes == 38

    def test_union_refutes_within_its_hardest_component(self):
        # with one interleaved order the cycles multiplied the kstar's
        # refutation: over 20M nodes without an answer
        alone = odd_colorable(gen_kstar(5), 4).nodes
        g = util.disjoint_union(gen_kstar(5), gen_cycle(7), gen_cycle(10))
        out = odd_colorable(g, 4, SolveBudget(node_limit=alone))
        assert out.status == "no" and out.nodes == alone


class TestOddChromaticNumber:
    def test_cycle_table(self):
        for n, want in [(3, 3), (5, 5), (6, 3), (7, 4), (9, 3), (10, 4)]:
            k, witness = odd_chromatic_number(gen_cycle(n))
            assert k == want
            assert is_odd_coloring(gen_cycle(n), witness)[0]

    def test_cycle_with_leaves_on_thirds(self):
        # leaves sit exactly on the color-3 positions of the repeating
        # pattern, so the cycle value 3 survives the attachments
        g = gen_cycle_with_leaves(9, (1, 1, 1))
        hand = [1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 1, 1]
        assert is_odd_coloring(g, hand)[0]
        assert odd_colorable(g, 2).status == "no"
        k, witness = odd_chromatic_number(g)
        assert k == 3
        assert is_odd_coloring(g, witness)[0]

    def test_kstar_small(self):
        for n in (3, 4):
            k, witness = odd_chromatic_number(gen_kstar(n))
            assert k == n
            assert is_odd_coloring(gen_kstar(n), witness)[0]

    @staticmethod
    def random_union(rng):
        """2-3 random parts of at most 6 vertices, 8 in total, relabeled."""
        while True:
            sizes = [rng.randint(1, 6) for _ in range(rng.randint(2, 3))]
            if sum(sizes) <= 8:  # the brute-force oracle's limit
                break
        g = util.disjoint_union(*(util.random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
                                  for n in sizes))
        return shuffled(g, rng.randrange(2**32))

    def test_matches_brute_force(self):
        rng = random.Random(67)
        graphs = []
        for _ in range(80):
            n = rng.randint(1, 6)
            graphs.append(util.random_graph(rng, n, rng.randint(0, n * (n - 1) // 2)))
        rng = random.Random(73)
        graphs += [self.random_union(rng) for _ in range(300)]
        for g in graphs:
            chi = util.brute_force_odd_chromatic(g)
            k, witness = odd_chromatic_number(g)
            assert k == chi
            assert util.odd_coloring_by_definition(g, list(witness))
            if chi > 1:
                assert odd_colorable(g, chi - 1).status == "no"
            out = odd_colorable(g, chi)
            assert out.status == "yes"
            assert util.odd_coloring_by_definition(g, list(out.coloring))

    @pytest.mark.parametrize("g, chi", [
        (gen_cycle(899), 4),  # cycle_chi: never refuted at 3
        (gen_cycle_with_leaves(9, (1, 1, 1)), 3),  # odd cycle, clique 2: never refuted at 2
    ])
    def test_lower_bound_spends_no_refutation_nodes(self, g, chi):
        found = odd_colorable(g, chi).nodes
        assert odd_chromatic_number(g, SolveBudget(node_limit=found))[0] == chi

    def test_lower_bound_is_a_lower_bound(self):
        rng = random.Random(79)
        for i in range(300):
            if i % 2:  # a random part beside a cycle
                n = rng.randint(1, 5)
                g = util.disjoint_union(util.random_graph(rng, n, rng.randint(0, n * (n - 1) // 2)),
                                        gen_cycle(rng.randint(3, 8 - n)))
                g = shuffled(g, rng.randrange(2**32))
            else:  # sparse enough for the oracle's k <= 6
                n = rng.randint(1, 8)
                g = util.random_graph(rng, n, rng.randint(0, min(2 * n, n * (n - 1) // 2)))
            assert exact._lower_bound(g, exact._component_orders(g)) <= util.brute_force_odd_chromatic(g)

    def test_max_k_budget(self):
        with pytest.raises(BudgetExceededError):
            odd_chromatic_number(gen_cycle(5), SolveBudget(max_k=3))

    def test_long_cycle(self):
        # the search goes one level per vertex, 2000 levels deep
        assert odd_chromatic_number(gen_cycle(2000))[0] == 4

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SolveBudget(max_k=0)
        with pytest.raises(ValueError):
            SolveBudget(time_limit=-1.0)
        with pytest.raises(ValueError):
            SolveBudget(time_limit=float("nan"))


class TestBruteForce:
    def test_examples(self):
        assert util.brute_force_odd_chromatic(gen_path(4)) == 3
        assert util.brute_force_odd_chromatic(gen_complete(2)) == 2
        assert util.brute_force_odd_chromatic(Graph(3, [])) == 1

    def test_guard(self):
        with pytest.raises(ValueError):
            util.brute_force_odd_chromatic(gen_path(9))
        with pytest.raises(ValueError, match="<= 6"):
            util.brute_force_odd_chromatic(gen_complete(7))


class TestChromaticNumber:
    def test_examples(self):
        assert util.chromatic_number(gen_cycle(5)) == 3
        assert util.chromatic_number(gen_complete(4)) == 4
        assert util.chromatic_number(util.petersen()) == 3

    def test_guard(self):
        with pytest.raises(ValueError):
            util.chromatic_number(gen_path(13))

    def test_subdivision_lower_bound(self):
        rng = random.Random(71)
        for _ in range(30):
            n = rng.randint(1, 6)
            h = util.random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
            k, _ = odd_chromatic_number(subdivide(h))
            assert k >= util.chromatic_number(h)


class TestDegeneracyOrder:
    def test_is_permutation_and_deterministic(self):
        g = gen_kstar(4)
        order = degeneracy_order(g)
        assert sorted(order) == list(range(g.n))
        assert order == degeneracy_order(g)

    def test_smallest_last(self):
        # pendant vertex is peeled first, so it lands at the end of the order
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
        assert degeneracy_order(g)[-1] == 4

    @pytest.mark.parametrize("name, g", [
        *((f"cycle-{n}", gen_cycle(n)) for n in (300, 601, 899)),
        *((f"kstar-{n}", gen_kstar(n)) for n in range(3, 8)),
        *((f"gnm-{seed}", util.random_graph(random.Random(seed), 22, 104)) for seed in range(6)),
        # every vertex ties at the minimum degree
        *((f"triangles-{t}", Graph(3 * t, [(3 * i + a, 3 * i + b) for i in range(t)
                                           for a, b in ((0, 1), (1, 2), (0, 2))]))
          for t in (1, 40, 400)),
    ])
    def test_matches_quadratic_scan(self, name, g):
        assert degeneracy_order(g) == util.degeneracy_order_by_scan(g)


# ---------------------------------------------------------------------------
# Golden answers of the exact solver

GOLDEN = Path(__file__).parent / "data" / "exact_golden.json"


def exact_golden_corpus():
    """kstars, cycles, a cycle with leaves, relabeled kstar(5) copies, seeded
    random graphs and small disjoint unions, some of them relabeled."""
    union = util.disjoint_union
    corpus = [(f"kstar-{n}", gen_kstar(n)) for n in (3, 4, 5)]
    corpus += [(f"cycle-{n}", gen_cycle(n)) for n in (*range(3, 11), 300)]
    corpus.append(("cycle-leaves-9-1,1,1", gen_cycle_with_leaves(9, (1, 1, 1))))
    corpus += [(f"kstar-5-relabeled-{s}", shuffled(gen_kstar(5), s)) for s in range(8)]
    for seed in range(20):
        rng = random.Random(seed)
        n = rng.randint(10, 16)
        corpus.append((f"random-{seed}", util.random_graph(rng, n, rng.randint(n, 3 * n))))
    unions = [
        ("C5+C7", union(gen_cycle(5), gen_cycle(7))),
        ("kstar-4+C6", union(gen_kstar(4), gen_cycle(6))),
        ("kstar-3+P4+K1", union(gen_kstar(3), gen_path(4), Graph(1, []))),
        ("C3+C4+C5", union(gen_cycle(3), gen_cycle(4), gen_cycle(5))),
        ("kstar-3+kstar-3", union(gen_kstar(3), gen_kstar(3))),
        ("P3+C9", union(gen_path(3), gen_cycle(9))),
        ("C5+kstar-3", union(gen_cycle(5), gen_kstar(3))),
        ("K4+C5", union(gen_complete(4), gen_cycle(5))),
        ("star-4+C7", union(gen_star(4), gen_cycle(7))),
        ("kstar-4+C5", union(gen_kstar(4), gen_cycle(5))),
        ("C7+C7", union(gen_cycle(7), gen_cycle(7))),
    ]
    corpus += unions
    corpus += [(f"{name}-relabeled", shuffled(g, i)) for i, (name, g) in enumerate(unions[:4])]
    return corpus


class TestExactGolden:
    # recorded before the search broke value symmetry and solved one
    # component at a time; chi_o, the witness and the CLI output must not change
    def test_corpus_matches_recording(self):
        expected = json.loads(GOLDEN.read_text())
        assert [(name, g.n, g.m) for name, g in exact_golden_corpus()] == [
            (e["graph"], e["n"], e["m"]) for e in expected]

    def test_chi_and_witness_unchanged(self):
        for (name, g), want in zip(exact_golden_corpus(), json.loads(GOLDEN.read_text())):
            k, witness = odd_chromatic_number(g)
            assert (k, list(witness)) == (want["chi_o"], want["colors"]), name

    def test_cli_stdout_unchanged(self, monkeypatch, capsys):
        for (name, g), want in zip(exact_golden_corpus(), json.loads(GOLDEN.read_text())):
            monkeypatch.setattr(sys, "stdin", io.StringIO(serialize_graph(g)))
            assert cli.main(["exact"]) == 0
            assert capsys.readouterr().out == want["stdout"], name
