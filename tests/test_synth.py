import hashlib
from dataclasses import replace

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


# sha256 of every file generate_benchmark writes at seed 0: a changed draw
# anywhere in the generator changes some of them.
PINNED_DIGESTS = {
    "default": {
        "gold_entities.tsv":
            "bb44c88069e77e9e44521be66b888948e5ff0a7b88643bf0dbffc1f511bf6398",
        "gold_lexemes.tsv":
            "897146954924d5f0fee6b9a9cdf8f7be60831128532aa93066b7ee5e80824ad2",
        "params.json":
            "d91e7f0ccbd1ddd94f5003eea26277e58079bbb85721e8c388aa05c6b6458784",
        "src.corpus":
            "d8e3d1a60655fda262ea49b7d689e854a13305ff13a7fb24a8d43e5a61053459",
        "src.forms":
            "8d4ebbda3a24114b7912da227720337475ee878d39e25e23b7b226d65323757a",
        "src.triples":
            "dcc1deeae734521c25ec440d568d82ccdd2b3e021b9fcbdd24f4b1c2ea4fb78b",
        "tgt.corpus":
            "511b91993c13e9c6c4e024a238c0cc50c278aa018d80477fff293cb92fe9d3db",
        "tgt.forms":
            "a4bb2d832b4dfaa5b6fa6ca1c5cfd63d41b1d588356b2c4d1b8acdac653019c3",
        "tgt.triples":
            "f131fc307c4438cee5785b14f1c22d7421ff05ded6969d34bd51b2770a2545d4",
    },
    "grid": {
        "gold_entities.tsv":
            "50b9a3b1a0d929b100d19eb354adf47a433b17c1b6fd6e0a38b7460d66d89b42",
        "gold_lexemes.tsv":
            "32b06363412f44d72e3125d17f08291d03cb8d110334f67ae48f7c9931e21a76",
        "params.json":
            "c4c1598e9dd431ec972193f1719e776e54690688e71a31d7df9de76668f3115b",
        "src.corpus":
            "e6d0b6dd38dcf732ce609bfd65403121af50ceb353f2ba725cf1347614147d6e",
        "src.forms":
            "40663893595d8c14baa7ecddb40febc037de4f066eab5ddc3ad72a06b156d7a2",
        "src.triples":
            "2ec10355b02a67c9587032003ca174b0331cb88f78594dc472580a34df6cf0fb",
        "tgt.corpus":
            "0b5929c1cfcf43ad32f8620fe6d7d034c14c7185e56a1b2efed4ca0cafaded23",
        "tgt.forms":
            "d3fc3c8fcc5ba39213fcd9851e17ebc0a5fe3c6650cf4aa3eadaf68b686d98d2",
        "tgt.triples":
            "637850c7e4f506481a782dccd60d9678242a1123881dd0d4aed7da15ef258d23",
    },
    "grid-signature-1": {
        "gold_entities.tsv":
            "50b9a3b1a0d929b100d19eb354adf47a433b17c1b6fd6e0a38b7460d66d89b42",
        "gold_lexemes.tsv":
            "32b06363412f44d72e3125d17f08291d03cb8d110334f67ae48f7c9931e21a76",
        "params.json":
            "9634b7884e8350c5727ffea2ba36eb14daf26d306417dd9df023be725385600f",
        "src.corpus":
            "1671cb00edf8845a4bfe47d403b7dd461f20cd06a2cc3a6d58d39558a3f5d587",
        "src.forms":
            "40663893595d8c14baa7ecddb40febc037de4f066eab5ddc3ad72a06b156d7a2",
        "src.triples":
            "2ec10355b02a67c9587032003ca174b0331cb88f78594dc472580a34df6cf0fb",
        "tgt.corpus":
            "2bc869afffa604f1daf3fb01904d95f77ff602d74d6676fd935ff13513924a7e",
        "tgt.forms":
            "d3fc3c8fcc5ba39213fcd9851e17ebc0a5fe3c6650cf4aa3eadaf68b686d98d2",
        "tgt.triples":
            "637850c7e4f506481a782dccd60d9678242a1123881dd0d4aed7da15ef258d23",
    },
    "grid-signature-5": {
        "gold_entities.tsv":
            "50b9a3b1a0d929b100d19eb354adf47a433b17c1b6fd6e0a38b7460d66d89b42",
        "gold_lexemes.tsv":
            "32b06363412f44d72e3125d17f08291d03cb8d110334f67ae48f7c9931e21a76",
        "params.json":
            "c5c18193d9f4a3db4b91d391d163584d2770fb735acdfd13ce5ffd55c24032c9",
        "src.corpus":
            "23cf541639b790001989f904c8a6ab57fd5a0a8aec4d6edcb4dc8f65f6733054",
        "src.forms":
            "40663893595d8c14baa7ecddb40febc037de4f066eab5ddc3ad72a06b156d7a2",
        "src.triples":
            "2ec10355b02a67c9587032003ca174b0331cb88f78594dc472580a34df6cf0fb",
        "tgt.corpus":
            "fc5afafea5d3a89ff04f3faca8eb2f616d3761a648566eb814c459f20e725053",
        "tgt.forms":
            "d3fc3c8fcc5ba39213fcd9851e17ebc0a5fe3c6650cf4aa3eadaf68b686d98d2",
        "tgt.triples":
            "637850c7e4f506481a782dccd60d9678242a1123881dd0d4aed7da15ef258d23",
    },
    "grid-uniform": {
        "gold_entities.tsv":
            "50b9a3b1a0d929b100d19eb354adf47a433b17c1b6fd6e0a38b7460d66d89b42",
        "gold_lexemes.tsv":
            "32b06363412f44d72e3125d17f08291d03cb8d110334f67ae48f7c9931e21a76",
        "params.json":
            "ef60543c9b03f6bce786f210692d9252de2f42ebdc7fb0de283b84cfa8f81874",
        "src.corpus":
            "e9674ba37004d5f4ac75d451f19e90767abddaae94ea0a0d220c3f0335b53611",
        "src.forms":
            "40663893595d8c14baa7ecddb40febc037de4f066eab5ddc3ad72a06b156d7a2",
        "src.triples":
            "2ec10355b02a67c9587032003ca174b0331cb88f78594dc472580a34df6cf0fb",
        "tgt.corpus":
            "f173c6059267a77fbabaca71373b913cc8472a66aa2667d4de0458e8286ce6dd",
        "tgt.forms":
            "d3fc3c8fcc5ba39213fcd9851e17ebc0a5fe3c6650cf4aa3eadaf68b686d98d2",
        "tgt.triples":
            "637850c7e4f506481a782dccd60d9678242a1123881dd0d4aed7da15ef258d23",
    },
    "isolated": {
        "gold_entities.tsv":
            "f7a37c1789ec8ee2864ec4bc3368a6c95c6be8576dac37547c20b720e377b62c",
        "gold_lexemes.tsv":
            "a9674511e6470565f333b111e95296d322edc7fb36fe35e5a0915cf1984f455d",
        "params.json":
            "0dc41c399e9296b9b7463339f26fa8a7a16cc2a8601bbda05bb4aeb0ae8e59d6",
        "src.corpus":
            "7b41b405910281739e1be38e0565418eba09ca5c8fa9cdcdd0b787ebe9a17ff8",
        "src.forms":
            "f0aceea2966fa006b27509cb8edae841477060cf07ee6a59b2c2c066bf532252",
        "src.triples":
            "53bf4c475d2687dec86a3c174c6f6378462a74c79e1bc2d07d730a659d6d5c71",
        "tgt.corpus":
            "4d764c0c57b35999aa242a08e593513686965af5112ab6dc703f02eb36c2da58",
        "tgt.forms":
            "a4a13616d21572417f061c1916a51ceadda1f89e8b80d84462e36a83b752423c",
        "tgt.triples":
            "a847921307ad55936fa37ba9fc17159a917356e235447fa2e4e38dd0ed33bf87",
    },
}
# the 150-entity benchmark of the ablation grid
GRID_PARAMS = BenchmarkParams(n_entities=150, n_triples=600, n_walks=750,
                              n_common_concepts=60, seed_lexicon_size=10)
PINNED_PARAMS = {
    "default": BenchmarkParams(),
    "grid": GRID_PARAMS,
    # one word a signature, so a walk step shuffles nothing; and five
    "grid-signature-1": replace(GRID_PARAMS, signature_size=1),
    "grid-signature-5": replace(GRID_PARAMS, signature_size=5),
    # uniform draws of the common concepts
    "grid-uniform": replace(GRID_PARAMS, concept_skew=0),
    # the edge drop leaves target entities in no triple, so the target
    # walks restart from them (see test_isolated_entities_are_walked)
    "isolated": BenchmarkParams(n_entities=20, n_triples=30, n_relations=2,
                                edge_drop=0.7, n_walks=200, walk_length=5,
                                n_common_concepts=10, seed_lexicon_size=3),
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_pinned_bytes(tmp_path, name):
    generate_benchmark(PINNED_PARAMS[name], seed=0, out_dir=tmp_path)
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in tmp_path.iterdir()}
    assert digests == PINNED_DIGESTS[name]


def test_isolated_entities_are_walked(tmp_path):
    """The "isolated" pin reaches the walks' restart branch: some target
    entity is in no triple, and the target corpus names it."""
    params = PINNED_PARAMS["isolated"]
    paths = generate_benchmark(params, seed=0, out_dir=tmp_path)
    tgt = load_kg(paths.tgt_triples, "tgt")
    isolated = [i for i in range(params.n_entities)
                if f"b{i}" not in tgt.ent_index]
    assert isolated
    corpus = set(paths.tgt_corpus.read_text().split())
    assert all(f"te{i}" in corpus for i in isolated)


@pytest.mark.parametrize("n", range(1, 7))
def test_list_shuffle_draws_as_permutation(n):
    """The walks shuffle a copy of each signature's word list. Their
    pinned bytes equal those of walks that take rng.permutation of its
    length, because the two calls make the same draws and give the same
    order."""
    words = [f"w{i}" for i in range(n)]
    for seed in range(50):
        shuffled = np.random.default_rng(seed)
        permuted = np.random.default_rng(seed)
        got = list(words)
        shuffled.shuffle(got)
        order = permuted.permutation(n)
        broken = (f"numpy {np.__version__}: Generator.shuffle of a list of "
                  f"{n} no longer draws as Generator.permutation({n}) "
                  f"(seed {seed})")
        assert got == [words[int(i)] for i in order], broken
        assert (shuffled.bit_generator.state
                == permuted.bit_generator.state), broken


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
