"""The benchmark's traced mode wraps functions by name; each name must exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_traced_names_are_callables_of_their_modules(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)   # its dataclasses look it up
    spec.loader.exec_module(spans)
    for module, names in spans.TRACED.items():
        home = importlib.import_module(f"{spans.PACKAGE}.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"{module}.{name}"
