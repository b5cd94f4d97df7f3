"""The benchmark's traced span names resolve to petmine functions.

``pipeline_bench/spans.py`` wraps each function it names by looking the
name up at run time, so a renamed or removed function only shows there.
This reads the name list without writing anything under the benchmark.
"""

import importlib
import importlib.util
import pathlib
import sys

SPANS_PY = pathlib.Path(__file__).resolve().parents[1] / "pipeline_bench" / "spans.py"


def _load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_is_a_petmine_function(monkeypatch):
    spans = _load_spans(monkeypatch)
    assert spans.SPANS
    for name in spans.SPANS:
        module_name, attr = name.split(".")
        module = importlib.import_module(f"petmine.{module_name}")
        assert callable(getattr(module, attr, None)), name
    # the per-call work counters are kept for traced names only
    assert set(spans.WORK) <= set(spans.SPANS)
