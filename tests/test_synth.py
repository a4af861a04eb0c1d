import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgalign import synth
from kgalign.alignment import load_seed_pairs
from kgalign.config import ConfigError, OptimizerConfig, PipelineConfig
from kgalign.grounding import build_index, ground_corpus
from kgalign.kg import load_kg
from kgalign.pipeline import run_pipeline
from kgalign.synth import BenchmarkParams, generate_benchmark

from conftest import time_limit


def small_params(**overrides):
    defaults = dict(n_entities=40, n_triples=120, n_relations=3,
                    edge_drop=0.1, n_walks=60, walk_length=5,
                    n_common_concepts=20, seed_lexicon_size=5)
    defaults.update(overrides)
    return BenchmarkParams(**defaults)


class TestParams:
    def test_too_few_entities_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkParams(n_entities=10)

    def test_too_few_triples_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkParams(n_entities=100, n_triples=50)


    @pytest.mark.parametrize("draws, side, params", [
        (1, "source", dict(n_triples=362)),
        (2, "target", dict(n_triples=190, edge_drop=1.0)),
    ])
    def test_draw_loops_are_bounded(self, tmp_path, monkeypatch, draws, side,
                                    params):
        """Each rejection-sampling loop gives up after its draw budget:
        on 20 entities and 1 relation, 380 triples are possible."""
        monkeypatch.setattr(synth, "DRAWS_PER_TRIPLE", draws)
        with time_limit(10), pytest.raises(
                ConfigError, match=f"did not find the {side} triples"):
            generate_benchmark(BenchmarkParams(
                n_entities=20, n_relations=1, n_walks=5, **params),
                seed=0, out_dir=tmp_path)


class TestGeneration:
    def test_valid_kgs_and_gold_bijection(self, tmp_path):
        paths = generate_benchmark(small_params(), seed=0, out_dir=tmp_path)
        src = load_kg(paths.src_triples, "src")
        tgt = load_kg(paths.tgt_triples, "tgt")
        assert src.n_entities == 40
        assert tgt.n_entities == 40
        gold = load_seed_pairs(paths.gold_entities)
        assert len(gold) == 40
        assert len({s for s, _ in gold}) == 40
        assert len({t for _, t in gold}) == 40

    def test_zero_noise_isomorphic(self, tmp_path):
        paths = generate_benchmark(small_params(edge_drop=0.0), seed=1,
                                   out_dir=tmp_path)
        src = load_kg(paths.src_triples, "src")
        tgt = load_kg(paths.tgt_triples, "tgt")
        gold = dict(load_seed_pairs(paths.gold_entities))
        mapped = {(gold[src.entities[h]], src.relations[r],
                   gold[src.entities[t]]) for h, r, t in src.triples}
        actual = {(tgt.entities[h], tgt.relations[r], tgt.entities[t])
                  for h, r, t in tgt.triples}
        assert mapped == actual

    def test_edge_drop_replaces_exact_count(self, tmp_path):
        params = small_params(n_triples=200, edge_drop=0.1)
        paths = generate_benchmark(params, seed=2, out_dir=tmp_path)
        src = load_kg(paths.src_triples, "src")
        tgt = load_kg(paths.tgt_triples, "tgt")
        gold = dict(load_seed_pairs(paths.gold_entities))
        assert len(tgt.triples) == 200
        mapped = {(gold[src.entities[h]], src.relations[r],
                   gold[src.entities[t]]) for h, r, t in src.triples}
        actual = {(tgt.entities[h], tgt.relations[r], tgt.entities[t])
                  for h, r, t in tgt.triples}
        assert len(actual - mapped) == 20

    def test_gold_names_only_entities_in_triples(self, tmp_path):
        # with the default parameters, seed 3's edge drop leaves a target
        # entity in no triple
        paths = generate_benchmark(BenchmarkParams(), seed=3,
                                   out_dir=tmp_path / "bench")
        src = load_kg(paths.src_triples, "src")
        tgt = load_kg(paths.tgt_triples, "tgt")
        gold = load_seed_pairs(paths.gold_entities)
        assert len(gold) == tgt.n_entities < 500
        assert all(s in src.ent_index and t in tgt.ent_index
                   for s, t in gold)
        cfg = PipelineConfig(optimizer=OptimizerConfig.desk_scale(epochs=1))
        result = run_pipeline(cfg, paths, tmp_path / "run", seed=3)
        assert result.report.n_test == len(gold) - round(0.3 * len(gold))

    def test_deterministic_bytes(self, tmp_path):
        p1 = generate_benchmark(small_params(), seed=3,
                                out_dir=tmp_path / "a")
        p2 = generate_benchmark(small_params(), seed=3,
                                out_dir=tmp_path / "b")
        for name in ("src_triples", "tgt_triples", "src_corpus",
                     "tgt_corpus", "gold_entities", "gold_lexemes",
                     "src_forms", "tgt_forms"):
            assert getattr(p1, name).read_bytes() == \
                getattr(p2, name).read_bytes()

    def test_corpus_grounds_with_full_coverage(self, tmp_path):
        paths = generate_benchmark(small_params(n_walks=200), seed=4,
                                   out_dir=tmp_path)
        kg = load_kg(paths.src_triples, "src")
        index = build_index(paths.src_forms, kg)
        _, stats = ground_corpus(paths.src_corpus, index, kg)
        assert stats.coverage > 0.95
        assert stats.avg_match >= 1.0

    def test_signatures_shared_across_languages(self, tmp_path):
        paths = generate_benchmark(small_params(), seed=5, out_dir=tmp_path)
        gold_lex = load_seed_pairs(paths.gold_lexemes)
        assert all(s.startswith("sw") and t.startswith("tw")
                   for s, t in gold_lex)
        # the seed lexicon covers the frequent head of the shared concepts
        assert {s for s, _ in gold_lex} == {f"sw{c}" for c in range(40, 45)}
        src_words = {w for line in
                     paths.src_corpus.read_text().splitlines()
                     for w in line.split() if w.startswith("sw")}
        tgt_words = {w for line in
                     paths.tgt_corpus.read_text().splitlines()
                     for w in line.split() if w.startswith("tw")}
        # every seed-lexicon word occurs on both sides of the pair
        assert {s for s, _ in gold_lex} <= src_words
        assert {t for _, t in gold_lex} <= tgt_words


@settings(max_examples=80, deadline=None)
@given(n_entities=st.integers(20, 24), n_triples=st.integers(20, 800),
       n_relations=st.integers(0, 2),
       edge_drop=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
       n_common_concepts=st.integers(0, 4), signature_size=st.integers(0, 6))
def test_small_params_generate_or_name_a_field(tmp_path_factory, **fields):
    """Each small benchmark is either generated in time or rejected with
    a ConfigError that names a parameter."""
    out = tmp_path_factory.mktemp("synth")
    with time_limit(10):
        try:
            params = BenchmarkParams(n_walks=5, walk_length=3,
                                     seed_lexicon_size=2, **fields)
            paths = generate_benchmark(params, seed=0, out_dir=out)
        except ConfigError as exc:
            assert any(name in str(exc) for name in
                       ("n_entities", "n_triples", "n_relations",
                        "n_common_concepts", "signature_size")), exc
            return
    src = load_kg(paths.src_triples, "src")
    tgt = load_kg(paths.tgt_triples, "tgt")
    assert len(src.triples) == len(tgt.triples) == params.n_triples
