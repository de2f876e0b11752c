"""Self-checks for the benchmark's own helpers: python3 -m pytest -q perfbench"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from run import END_TO_END, PER_LAYER
from stats import Tally, tail
from tracing import Span, Tracer, layer_uses, patched, self_times
from workloads import Case, coloring_fault, cycle_chi, fingerprint, make_engine, make_exact, out_edges, relabeled, subdivided

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_tail_leaves_ten_samples_beyond():
    assert tail([float(x) for x in range(1, 101)]) == (90.0, 90.0, 10)
    value, pct, beyond = tail([float(x) for x in range(11, 0, -1)])
    assert (value, beyond) == (1.0, 10) and pct == pytest.approx(100 / 11)


def test_tail_without_enough_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    with pytest.raises(ValueError):
        tail([])


def test_tally_counts_every_failure_and_separates_wrong_outputs():
    t = Tally()
    for reason in [None, "raised:RecursionError", "wrong-chi", None, "exit-1", "invalid-coloring"]:
        t.add(reason)
    assert (t.attempted, t.failed, t.wrong) == (6, 4, 2)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, None, 0, "op", 0.0, 10.0),
        Span(1, 0, 0, "a", 1.0, 4.0),
        Span(2, 1, 0, "b", 2.0, 3.0),
        Span(3, 0, 0, "b", 5.0, 6.0),
    ]
    assert self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_nested_spans_of_one_name_count_once():
    spans = [
        Span(0, None, 7, "op", 0.0, 10.0),
        Span(1, 0, 7, "d", 1.0, 5.0),
        Span(2, 1, 7, "d", 2.0, 4.0),
        Span(3, None, 7, "probe", 11.0, 12.0, 5),
    ]
    uses = layer_uses(spans)
    d = uses["op"][7]["d"]
    assert (d.seconds, d.calls, d.self_seconds) == (4.0, 1, 4.0)
    assert uses["probe"][7]["probe"].notes == [5]
    assert "probe" not in uses["op"][7]


def test_tracer_records_parent_op_note_and_raising_calls():
    tr = Tracer()
    tr.op = 3
    inner = tr.wrap("inner", lambda x: x * 2, note=lambda a, r: r + 1)
    outer = tr.wrap("outer", lambda x: inner(x))
    boom = tr.wrap("boom", lambda: 1 / 0)
    assert outer(5) == 10
    with pytest.raises(ZeroDivisionError):
        boom()
    by_name = {s.name: s for s in tr.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["inner"].note == 11 and by_name["outer"].parent is None
    assert by_name["boom"].parent is None and by_name["boom"].note is None
    assert {s.op for s in tr.spans} == {3}


def test_patched_restores_attributes_and_skips_missing_ones():
    class Graph:
        def is_forest(self):
            return True

    def main(argv):
        return 0

    mods = {name: SimpleNamespace() for name in ("constructive", "sparsity", "exact")}
    lib = SimpleNamespace(cli=SimpleNamespace(main=main), graph=SimpleNamespace(Graph=Graph), **mods)
    lib.graph.parse_edgelist = len
    tr = Tracer()
    with patched(tr, lib):
        assert lib.cli.main is not main
        assert Graph().is_forest() and lib.graph.parse_edgelist("abc") == 3
    assert lib.cli.main is main and vars(Graph)["is_forest"].__name__ == "is_forest"
    assert [s.name for s in tr.spans] == ["graph.dispatch", "graph.parse"]
    assert tr.spans[1].note == 3


def test_coloring_fault_checks_properness_oddness_and_bound():
    edges = [(0, 1), (1, 2), (2, 3)]  # path a-b-c-d
    case = Case("p4", 4, edges, "")
    assert coloring_fault(case, [1, 2, 3, 1], 3) is None
    assert coloring_fault(case, [1, 1, 2, 3], 3) == "invalid-coloring"
    assert coloring_fault(case, [1, 2, 1, 2], 2) == "invalid-coloring"  # b sees 1, 1
    assert coloring_fault(case, [1, 2, 3, 4], 3) == "over-bound"
    assert coloring_fault(case, [1, 2, 3], 3) == "bad-output"


def test_out_edges_keep_every_subgraph_below_c_edges_per_vertex():
    for c in (2, 3, 4):
        n = 9
        edges = out_edges(n, c, random.Random(c))
        for size in range(1, n + 1):
            for sub in itertools.combinations(range(n), size):
                inside = set(sub)
                assert sum(u in inside and v in inside for u, v in edges) <= c * (size - 1)


def test_subdivided_numbers_new_vertices_by_edge_rank():
    assert subdivided(3, [(0, 1), (1, 2)]) == (5, [(0, 3), (1, 3), (1, 4), (2, 4)])


def test_relabeled_is_an_isomorphic_copy():
    edges = [(0, 1), (1, 2), (2, 3), (1, 3)]
    out = relabeled(4, edges, random.Random(5))
    perms = [p for p in itertools.permutations(range(4)) if sorted(tuple(sorted((p[u], p[v]))) for u, v in edges) == out]
    assert len(out) == len(edges) and perms


def test_cycle_chi_values():
    assert [cycle_chi(n) for n in (3, 4, 5, 6, 7, 8, 9, 10)] == [3, 4, 5, 3, 4, 4, 3, 4]


def test_corpus_is_a_function_of_the_seed(tmp_path):
    lib = SimpleNamespace(graph=SimpleNamespace(Graph=lambda n, edges: None))
    a = fingerprint(make_exact(lib, 1, tmp_path))
    assert a == fingerprint(make_exact(lib, 1, tmp_path))
    assert a != fingerprint(make_exact(lib, 2, tmp_path))
    assert fingerprint(make_engine(lib, 1, tmp_path)) != fingerprint(make_engine(lib, 2, tmp_path))


def test_benchmark_json_lists_exactly_the_reported_metrics():
    doc = json.loads(BENCHMARK.read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
