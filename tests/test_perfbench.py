"""The benchmark's tracer wraps package functions by name; building it
fails if any of them has been renamed or deleted."""

import importlib.util
from pathlib import Path

from kgalign import embedding

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_tracer_wraps_and_restores_existing_functions():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    original = embedding._kg_batch
    tracer = spans.Tracer()
    try:
        assert embedding._kg_batch is not original
    finally:
        tracer.close()
    assert embedding._kg_batch is original
