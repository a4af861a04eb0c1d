"""The benchmark's tracer wraps package functions by name; building it
fails if any of them has been renamed or deleted."""

import importlib.util
import json
from pathlib import Path

import pytest

from kgalign import embedding, grounding, kg
from kgalign.synth import BenchmarkParams, generate_benchmark

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
BENCH_RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_wraps_and_restores_existing_functions():
    spans = load_spans()
    original = embedding._kg_batch
    tracer = spans.Tracer()
    try:
        assert embedding._kg_batch is not original
    finally:
        tracer.close()
    assert embedding._kg_batch is original


def test_tracer_counts_grounded_tokens(tmp_path):
    # the tracer reads the token count off the grounded corpus itself
    params = BenchmarkParams(n_entities=40, n_triples=160, n_relations=3,
                             n_walks=200, walk_length=5, n_common_concepts=20)
    paths = generate_benchmark(params, seed=0, out_dir=tmp_path)
    graph = kg.load_kg(paths.src_triples, "src")
    index = grounding.build_index(paths.src_forms, graph)
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        grounding.ground_corpus(paths.src_corpus, index, graph)
    finally:
        tracer.close()
    table = grounding.TokenTable()
    n_tokens = sum(len(grounding.ground_tokens(line.split(), index, table))
                   for line in paths.src_corpus.read_text(
                       encoding="utf-8").splitlines())
    assert n_tokens > 0
    [span] = [s for s in tracer.spans
              if s[spans.NAME] == "grounding.ground_corpus"]
    assert span[spans.ATTRS] == {"tokens": n_tokens}
    assert spans.pass_metrics(tracer.spans, 0.0, set())[
        "grounding.tokens"] == n_tokens


@pytest.mark.parametrize("record", BENCH_RECORDS, ids=lambda p: p.name)
def test_bench_record_claims_a_declared_metric(record):
    """Each committed benchmark record claims a workload and an
    end-to-end metric that BENCHMARK.json declares, in its direction."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    claim = json.loads(record.read_text(encoding="utf-8"))["claim"]
    assert claim["workload"] in {w["name"] for w in declared["workloads"]}
    metrics = {m["name"]: m["better"] for m in declared["end_to_end"]}
    assert metrics.get(claim["metric"]) == claim["better"]
