import random

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
    subdivide,
)

import util


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

    def test_budget_exceeded(self):
        out = odd_colorable(gen_kstar(5), 4, SolveBudget(node_limit=3))
        assert out.status == "budget-exceeded"
        assert out.coloring is None


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

    def test_matches_brute_force(self):
        rng = random.Random(67)
        for _ in range(80):
            n = rng.randint(1, 6)
            g = util.random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
            k, witness = odd_chromatic_number(g)
            assert k == util.brute_force_odd_chromatic(g)
            if n:
                assert is_odd_coloring(g, witness)[0]

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
