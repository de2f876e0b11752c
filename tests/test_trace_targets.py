"""The benchmark's tracer finds every call site it names.

perfbench/tracing.py wraps module attributes by name and skips a missing
one on purpose, so a renamed function would silently read zero in its
layer.  This test reads perfbench/ only; it runs no benchmark.
"""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_attribute_exists(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    modules = ("cli", "constructive", "exact", "graph", "sparsity")
    lib = SimpleNamespace(**{m: importlib.import_module(f"oddcolor.{m}") for m in modules})
    targets = tracing.targets(lib)
    assert targets
    missing = [(owner, attr) for owner, attr, _, _ in targets if not callable(vars(owner).get(attr))]
    assert not missing
