"""Every function that the benchmark's tracer wraps (``TRACE_POINTS`` in
``bench/spans.py``) resolves under the name it is looked up by, without a
benchmark run: moving a function out of a module that a trace point names
fails here."""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("path, attr", [(path, attr) for path, attr, _, _ in spans.TRACE_POINTS],
                         ids=[f"{path}.{attr}" for path, attr, _, _ in spans.TRACE_POINTS])
def test_trace_point_resolves(path, attr):
    """``Tracer.install`` reads ``owner.__dict__[attr]``: the name must be
    bound in that module or class itself, not only reachable through it."""
    assert callable(spans._resolve(path).__dict__[attr])

