from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgalign.config import open_text
from kgalign.embedding import (AMSGrad, KGBatch, ObservedTriples, TextBatch,
                               TrainingDivergence, _gcn_backward,
                               _gcn_forward_cached, _kg_batch, _pair_array,
                               init_space, kg_loss,
                               read_embeddings, text_loss, train,
                               write_embeddings)
from kgalign.kg import (KnowledgeGraph, build_graph_structure,
                        from_string_triples, relation_stats)

from conftest import (main_exit_code, make_corpus, random_corpus, random_kg,
                      small_config, time_limit)
from oracles import (add_at_kg_grads, add_at_text_grads,
                     allocating_amsgrad_step, brute_pairs,
                     finite_difference_grad, relative_error,
                     set_loop_negatives, stacked_pairs)
from test_alignment import peak_bytes


def make_space(kg, corpus, cfg, seed=0):
    rng = np.random.default_rng(seed)
    return init_space(kg, corpus, cfg, rng)


def random_instance(seed, gcn=True, activation="tanh", dim=4):
    rng = np.random.default_rng(seed)
    kg = random_kg(rng, n_entities=int(rng.integers(4, 10)),
                   n_triples=int(rng.integers(8, 16)))
    corpus = random_corpus(rng, kg)
    cfg = small_config(dim=dim, gcn_layers=int(gcn), activation=activation)
    space = init_space(kg, corpus, cfg, rng)
    graph = build_graph_structure(kg)
    stats = relation_stats(kg)
    return rng, kg, corpus, cfg, space, graph, stats


def kg_batch(kg, pos, count, rng):
    return _kg_batch(np.array(pos, dtype=np.int64), relation_stats(kg),
                     ObservedTriples.of(kg), count, rng)


def random_kg_batch(rng, kg, stats, bsz=3, m=2):
    pos_idx = rng.integers(len(kg.triples), size=bsz)
    pos = np.array([kg.triples[i] for i in pos_idx])
    return _kg_batch(pos, stats, ObservedTriples.of(kg), m, rng)


def random_text_batch(rng, space, bsz=4, m=3):
    n = space.n_tokens
    return TextBatch(centers=rng.integers(n, size=bsz),
                     contexts=rng.integers(n, size=bsz),
                     negatives=rng.integers(n, size=(bsz, m)))


class TestGCNForward:
    def test_single_node_identity(self):
        kg = from_string_triples([("a", "r", "a")], "xx")
        corpus = make_corpus([["w"]])
        cfg = small_config(dim=3, activation="identity")
        space = make_space(kg, corpus, cfg)
        space.gcn_weights[0] = np.eye(3)
        graph = build_graph_structure(kg)
        np.testing.assert_allclose(_gcn_forward_cached(space, graph)[0], space.ent0)

    def test_two_nodes_average(self):
        kg = from_string_triples([("a", "r", "b")], "xx")
        corpus = make_corpus([["w"]])
        cfg = small_config(dim=3, activation="identity")
        space = make_space(kg, corpus, cfg)
        space.gcn_weights[0] = np.eye(3)
        graph = build_graph_structure(kg)
        out = _gcn_forward_cached(space, graph)[0]
        avg = (space.ent0[0] + space.ent0[1]) / 2
        np.testing.assert_allclose(out[0], avg)
        np.testing.assert_allclose(out[1], avg)

    def test_zero_input_relu_zero_output(self):
        kg = from_string_triples([("a", "r", "b")], "xx")
        corpus = make_corpus([["w"]])
        space = make_space(kg, corpus, small_config(dim=3, activation="relu"))
        space.ent0[:] = 0.0
        graph = build_graph_structure(kg)
        np.testing.assert_allclose(_gcn_forward_cached(space, graph)[0], 0.0)


def triple_score(h_vec, r_vec, t_vec):
    """The translational score ||h + r - t|| that kg_loss gives a positive.

    The batch pairs the positive with one negative of score 0, so the loss
    is log(1 + exp(f)) and f is recovered from it.
    """
    kg = from_string_triples([("h", "r", "t"), ("x", "r", "y")], "xx")
    space = make_space(kg, make_corpus([["w"]]),
                       small_config(dim=len(h_vec), gcn_layers=0))
    space.ent0[:] = [h_vec, t_vec, np.zeros_like(r_vec), r_vec]
    space.rel[:] = [r_vec]
    batch = KGBatch(positives=np.array([[0, 0, 1]]),
                    neg_heads=np.array([[2]]), neg_tails=np.array([[3]]))
    loss, _ = kg_loss(batch, space, None, bias=2.0)
    return float(np.log(np.expm1(loss)))


class TestTripleScore:
    def test_exact_translation(self):
        assert triple_score(np.array([1.0, 0]), np.array([0, 1.0]),
                            np.array([1.0, 1.0])) == pytest.approx(0.0,
                                                                   abs=1e-9)

    def test_three_four_five(self):
        assert triple_score(np.zeros(2), np.zeros(2),
                            np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_self_loop_zero_relation(self):
        h = np.array([0.3, -0.7])
        assert triple_score(h, np.zeros(2), h) == pytest.approx(0.0, abs=1e-9)


class TestKGLoss:
    def equal_logit_space(self):
        kg = from_string_triples(
            [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a")], "xx")
        corpus = make_corpus([["w"]])
        cfg = small_config(dim=4, gcn_layers=0)
        space = make_space(kg, corpus, cfg)
        space.ent0[:] = 1.0
        space.rel[:] = 0.0
        return kg, space

    def test_equal_logits_ln6(self):
        kg, space = self.equal_logit_space()
        batch = KGBatch(positives=np.array([[0, 0, 1]]),
                        neg_heads=np.array([[1, 2, 0, 1, 2]]),
                        neg_tails=np.array([[2, 1, 2, 0, 0]]))
        loss, _ = kg_loss(batch, space, None, bias=2.0)
        assert loss == pytest.approx(np.log(6), abs=1e-9)

    def test_bias_cancels_for_equal_scores(self):
        kg, space = self.equal_logit_space()
        batch = KGBatch(positives=np.array([[0, 0, 1]]),
                        neg_heads=np.array([[1, 2]]),
                        neg_tails=np.array([[2, 0]]))
        loss_a, _ = kg_loss(batch, space, None, bias=1.0)
        loss_b, _ = kg_loss(batch, space, None, bias=7.0)
        assert loss_a == pytest.approx(loss_b)

    def test_dominant_positive_drives_loss_to_zero(self):
        kg = from_string_triples([("a", "r", "b")], "xx")
        corpus = make_corpus([["w"]])
        space = make_space(kg, corpus, small_config(dim=2, gcn_layers=0))
        space.ent0[:] = [[0.0, 0.0], [0.0, 0.0]]
        space.rel[:] = 0.0
        far = np.array([[100.0, 0.0]])
        space.ent0 = np.vstack([space.ent0, far])
        batch = KGBatch(positives=np.array([[0, 0, 1]]),
                        neg_heads=np.array([[2]]),
                        neg_tails=np.array([[1]]))
        loss, _ = kg_loss(batch, space, None, bias=2.0)
        assert loss < 1e-8

    def test_loss_positive_and_finite(self):
        _, kg, _, cfg, space, graph, stats = random_instance(5)
        rng = np.random.default_rng(5)
        batch = random_kg_batch(rng, kg, stats)
        loss, _ = kg_loss(batch, space, graph, cfg.bias_b)
        assert np.isfinite(loss) and loss > 0

    @pytest.mark.parametrize("gcn", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradients_match_finite_differences(self, gcn, seed):
        rng, kg, _, cfg, space, graph, stats = random_instance(
            seed, gcn=gcn)
        batch = random_kg_batch(rng, kg, stats)
        _, grads = kg_loss(batch, space, graph, cfg.bias_b)
        for name, param in space.parameters().items():
            if name == "lex":
                continue
            fd = finite_difference_grad(
                lambda: kg_loss(batch, space, graph, cfg.bias_b)[0], param)
            assert relative_error(grads[name], fd) < 1e-4, name


class TestTextLoss:
    def test_equal_distances_ln6(self):
        _, kg, corpus, cfg, space, graph, _ = random_instance(
            3, gcn=False)
        space.ent0[:] = 0.5
        space.lex[:] = 0.5
        batch = TextBatch(centers=np.array([0]), contexts=np.array([1]),
                          negatives=np.array([[0, 1, 2, 0, 1]]))
        loss, _ = text_loss(batch, space, None)
        assert loss == pytest.approx(np.log(6), abs=1e-9)

    def test_not_scale_invariant(self):
        rng, _, _, _, space, graph, _ = random_instance(9, gcn=False)
        batch = random_text_batch(rng, space)
        loss1, _ = text_loss(batch, space, None)
        space.ent0 *= 2.0
        space.lex *= 2.0
        loss2, _ = text_loss(batch, space, None)
        assert loss1 != pytest.approx(loss2)

    @pytest.mark.parametrize("gcn", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradients_match_finite_differences(self, gcn, seed):
        rng, kg, _, cfg, space, graph, _ = random_instance(seed + 10, gcn=gcn)
        batch = random_text_batch(rng, space)
        _, grads = text_loss(batch, space, graph)
        for name, param in space.parameters().items():
            if name == "rel":
                continue
            fd = finite_difference_grad(
                lambda: text_loss(batch, space, graph)[0], param)
            assert relative_error(grads[name], fd) < 1e-4, name

    def test_shared_entity_storage_affects_both_losses(self):
        rng, kg, _, cfg, space, graph, stats = random_instance(21, gcn=False)
        kg_batch = random_kg_batch(rng, kg, stats)
        # entity 0 as a text token (unified index 0 is an entity)
        tx_batch = TextBatch(centers=np.array([0]),
                             contexts=np.array([space.n_entities]),
                             negatives=np.array([[1, 2]]))
        kg_batch = KGBatch(positives=np.array([[0, 0, 1]]),
                           neg_heads=kg_batch.neg_heads[:1],
                           neg_tails=kg_batch.neg_tails[:1])
        kg_before = kg_loss(kg_batch, space, None, cfg.bias_b)[0]
        tx_before = text_loss(tx_batch, space, None)[0]
        space.ent0[0] += 0.37
        assert kg_loss(kg_batch, space, None, cfg.bias_b)[0] != \
            pytest.approx(kg_before)
        assert text_loss(tx_batch, space, None)[0] != pytest.approx(tx_before)


class TestNegativeTriples:
    def test_symmetric_stats_prob_half(self):
        kg = from_string_triples(
            [("a", "r", "b"), ("a", "r", "c"), ("d", "r", "b")], "xx")
        assert relation_stats(kg)[0] == pytest.approx(0.5)

    def test_negatives_never_observed(self):
        rng = np.random.default_rng(0)
        kg = random_kg(rng, n_entities=6, n_triples=12)
        observed = set(kg.triples)
        batch = kg_batch(kg, kg.triples[:5], 10, rng)
        for (_, r, _), heads, tails in zip(batch.positives, batch.neg_heads,
                                           batch.neg_tails):
            for h, t in zip(heads, tails):
                assert (int(h), int(r), int(t)) not in observed

    def test_head_corruption_frequency(self):
        # tph = 2, hpt = 1 -> head corrupted with probability 2/3
        kg = from_string_triples([("a", "r", "b"), ("a", "r", "c")], "xx")
        n = 100_000
        batch = kg_batch(kg, [(0, 0, 1)], n, np.random.default_rng(42))
        heads = batch.neg_heads[0] != 0
        assert np.all(batch.neg_tails[0][heads] == 1)
        assert np.all(batch.neg_tails[0][~heads] != 1)
        assert abs(heads.mean() - 2 / 3) < 0.01

    def test_single_entity_rejected(self):
        kg = from_string_triples([("a", "r", "a")], "xx")
        with time_limit(10), pytest.raises(ValueError, match="2 entities"):
            kg_batch(kg, [(0, 0, 0)], 1, np.random.default_rng(0))

    def test_saturated_tail_side_corrupts_heads(self):
        # every tail corruption of (e0, r, e1) is observed, so each
        # negative must corrupt the head, whatever side its coin chose
        kg = from_string_triples([("e0", "r", f"e{i}") for i in range(4)],
                                 "xx")
        assert relation_stats(kg)[0] == pytest.approx(0.8)
        with time_limit(10):
            batch = kg_batch(kg, [(0, 0, 1)], 50, np.random.default_rng(0))
        assert np.all(batch.neg_tails == 1)
        assert np.all(batch.neg_heads != 0)

    @settings(max_examples=60, deadline=None)
    @given(n_entities=st.integers(2, 6), n_relations=st.integers(1, 2),
           data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
    def test_bounded_on_dense_kgs(self, n_entities, n_relations, data, seed):
        every = [(h, r, t) for h in range(n_entities)
                 for r in range(n_relations) for t in range(n_entities)]
        # dense: every triple but a few holes, so sides often saturate
        holes = data.draw(st.sets(st.sampled_from(every),
                                  max_size=len(every) - 1), label="holes")
        triples = [x for x in every if x not in holes]
        kg = KnowledgeGraph(
            lang="xx", entities=tuple(f"e{i}" for i in range(n_entities)),
            relations=tuple(f"r{i}" for i in range(n_relations)),
            triples=tuple(triples))
        pos = data.draw(st.lists(st.sampled_from(triples), min_size=1,
                                 max_size=4), label="positives")
        m = 3
        with time_limit(2):
            batch = kg_batch(kg, pos, m, np.random.default_rng(seed))
        assert batch.neg_heads.shape == batch.neg_tails.shape == (len(pos), m)
        observed = set(kg.triples)
        for (h, r, t), heads, tails in zip(pos, batch.neg_heads,
                                           batch.neg_tails):
            for nh, nt in zip(heads, tails):
                assert 0 <= nh < n_entities and 0 <= nt < n_entities
                assert nh == h or nt == t
                if (nh, r, nt) in observed:
                    # kept only when some corruption side is saturated
                    assert (all((x, r, t) in observed
                                for x in range(n_entities))
                            or all((h, r, x) in observed
                                   for x in range(n_entities)))


class TestContextPairs:
    @staticmethod
    def pairs(docs, radius):
        """_pair_array of integer documents, sorted, beside the brute-force
        oracle's pairs, sorted."""
        got = _pair_array([np.array(d, dtype=np.int64) for d in docs], radius)
        return (sorted(map(tuple, got.tolist())),
                sorted(brute_pairs(docs, radius)))

    def test_radius_one(self):
        got, want = self.pairs([[0, 1, 2]], 1)
        assert got == want == sorted([(0, 1), (1, 0), (1, 2), (2, 1)])

    def test_single_token_no_pairs(self):
        got, want = self.pairs([[0]], 3)
        assert got == want == []

    def test_large_radius_all_ordered_pairs(self):
        got, want = self.pairs([[0, 1, 2, 3]], 5)
        assert got == want
        assert len(got) == len(set(got)) == 12

    def test_document_boundaries_respected(self):
        got, want = self.pairs([[0], [1]], 2)
        assert got == want == []

    @pytest.mark.parametrize("radius", [1, 2, 5])
    def test_matches_brute_force(self, radius):
        rng = np.random.default_rng(radius)
        docs = [list(rng.integers(7, size=int(rng.integers(0, 12))))
                for _ in range(6)]
        got, want = self.pairs(docs, radius)
        assert got == want


class TestAMSGrad:
    def test_converges_on_quadratic(self):
        x = np.array([5.0, -3.0])
        opt = AMSGrad({"x": x}, lr=0.1, beta1=0.9, beta2=0.999)
        for _ in range(2000):
            opt.step({"x": 2 * x})
        assert np.linalg.norm(x) < 1e-3

    def test_vhat_monotone(self):
        x = np.array([1.0])
        opt = AMSGrad({"x": x}, lr=0.01, beta1=0.9, beta2=0.999)
        prev = 0.0
        for g in [5.0, 0.1, 0.1, 0.1]:
            opt.step({"x": np.array([g])})
            assert opt.v_hat["x"][0] >= prev
            prev = opt.v_hat["x"][0]


class TestTrain:
    def test_zero_epochs_returns_initialized_space(self):
        rng = np.random.default_rng(0)
        kg = random_kg(rng, n_entities=5, n_triples=8)
        corpus = random_corpus(rng, kg)
        cfg = small_config(epochs=0)
        space, _ = train(kg, corpus, cfg, seed=1)
        reference = init_space(kg, corpus, cfg, np.random.default_rng(1))
        np.testing.assert_array_equal(space.ent0, reference.ent0)
        np.testing.assert_array_equal(space.lex, reference.lex)

    def test_alternating_schedule(self):
        rng = np.random.default_rng(1)
        kg = random_kg(rng, n_entities=6, n_triples=10)
        corpus = random_corpus(rng, kg, n_docs=3, doc_len=12)
        _, history = train(kg, corpus, small_config(epochs=3), seed=0)
        assert history.kg_steps == history.text_steps > 0

    def test_gcn_disabled_output_equals_base(self):
        rng = np.random.default_rng(2)
        kg = random_kg(rng, n_entities=6, n_triples=10)
        corpus = random_corpus(rng, kg)
        cfg = small_config(epochs=2, gcn_layers=0)
        space, _ = train(kg, corpus, cfg, seed=3)
        np.testing.assert_array_equal(space.ent_out, space.ent0)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(3)
        kg = random_kg(rng, n_entities=6, n_triples=10)
        corpus = random_corpus(rng, kg)
        cfg = small_config(epochs=3)
        a, _ = train(kg, corpus, cfg, seed=7)
        b, _ = train(kg, corpus, cfg, seed=7)
        for name in a.parameters():
            np.testing.assert_array_equal(a.parameters()[name],
                                          b.parameters()[name])

    def test_text_only_and_kg_only_modes(self):
        rng = np.random.default_rng(4)
        kg = random_kg(rng, n_entities=6, n_triples=10)
        corpus = random_corpus(rng, kg)
        cfg = small_config(epochs=2, use_kg_loss=False)
        _, hist = train(kg, corpus, cfg, seed=0)
        # the same number of steps per epoch as with both losses on
        n_batches = int(np.ceil(len(kg.triples) / cfg.batch_size))
        assert hist.kg_steps == 0
        assert hist.text_steps == cfg.epochs * n_batches
        _, hist = train(kg, corpus, small_config(epochs=2, use_text_loss=False),
                        seed=0)
        assert hist.text_steps == 0 and hist.kg_steps > 0

    def test_all_parameters_finite_after_training(self):
        rng = np.random.default_rng(5)
        kg = random_kg(rng, n_entities=8, n_triples=14)
        corpus = random_corpus(rng, kg)
        space, _ = train(kg, corpus, small_config(epochs=5), seed=0)
        assert space.all_finite()

    def test_zero_output_row_is_numerical_failure(self):
        # a one-dimensional ReLU GCN zeroes the rows of negative
        # pre-activation, and a zero row cannot be normalized
        rng = np.random.default_rng(0)
        kg = random_kg(rng, n_entities=8, n_triples=14)
        corpus = random_corpus(rng, kg)
        cfg = small_config(dim=1, activation="relu", epochs=1)
        with pytest.raises(TrainingDivergence,
                           match="trained xx space has 3 all-zero or "
                           "non-finite row.s., first '@ent:e1'"):
            train(kg, corpus, cfg, seed=0)

    def test_non_finite_output_row_is_numerical_failure(self):
        # one KG step whose learning rate overflows the touched entity
        # rows; the loss is computed before the step, so it stays finite
        rng = np.random.default_rng(0)
        kg = random_kg(rng, n_entities=8, n_triples=14)
        corpus = random_corpus(rng, kg)
        cfg = small_config(gcn_layers=0, use_text_loss=False, epochs=1,
                           batch_size=len(kg.triples), lr=1e308)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingDivergence,
                              match="trained xx space has 8 all-zero or "
                              "non-finite row.s., first '@ent:e0'"):
            train(kg, corpus, cfg, seed=0)

    def test_train_cli_single_entity_kg_exits_1(self, tmp_path,
                                                monkeypatch):
        (tmp_path / "kg.tsv").write_text("a\tr\ta\n", encoding="utf-8")
        (tmp_path / "corpus").write_text("@ent:a is a w\n", encoding="utf-8")
        code = main_exit_code(monkeypatch, [
            "train", "--kg", tmp_path / "kg.tsv",
            "--grounded", tmp_path / "corpus", "--out", tmp_path / "emb"])
        assert code == 1


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        kg = random_kg(rng, n_entities=5, n_triples=8)
        corpus = random_corpus(rng, kg)
        space, _ = train(kg, corpus, small_config(epochs=1), seed=0)
        write_embeddings(space, tmp_path / "emb")
        tokens, mat = read_embeddings(tmp_path / "emb.vec")
        assert len(tokens) == space.n_tokens
        assert tokens[:space.n_entities] == \
            [f"@ent:{e}" for e in space.entities]
        np.testing.assert_array_equal(mat[:space.n_entities], space.ent_out)
        np.testing.assert_array_equal(mat[space.n_entities:], space.lex)
        rel_tokens, rel_mat = read_embeddings(tmp_path / "emb.rel.vec")
        assert tuple(rel_tokens) == space.relations
        np.testing.assert_array_equal(rel_mat, space.rel)

    @staticmethod
    def vec_file(tmp_path):
        """A 2000 x 32 `.vec` file of random rows, and its matrix."""
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((2000, 32))
        path = tmp_path / "x.vec"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("2000 32\n")
            for i, row in enumerate(mat):
                fh.write(f"@ent:e{i} " + " ".join(map(repr, row.tolist()))
                         + "\n")
        return path, mat

    def test_read_memory_below_file_size(self, tmp_path):
        # rows parse into one preallocated matrix, not a list of float
        # lists, and the UTF-8 check makes no text copy of the file: the
        # read peaked at 2.9x the file's size, then at 2.0x
        path, mat = self.vec_file(tmp_path)
        assert peak_bytes(read_embeddings, path) < 1.75 * path.stat().st_size
        np.testing.assert_array_equal(read_embeddings(path)[1], mat)

    def test_open_text_memory_near_file_size(self, tmp_path):
        # the file's bytes, and only pieces of its text: decoding the
        # whole file to check it peaked at 2.0x the file's size
        path, _ = self.vec_file(tmp_path)

        def open_and_close(path):
            with open_text(path):
                pass
        assert peak_bytes(open_and_close, path) < 1.25 * path.stat().st_size

    @pytest.mark.parametrize("header, message", [
        (f"{10**15} 2", f"line 4: 2 rows, the header says {10**15}"),
        (f"2 {10**20}", f"line 2: 2 values, the header says {10**20}"),
    ])
    def test_header_beyond_file_not_allocated(self, tmp_path, header,
                                              message):
        path = tmp_path / "x.vec"
        path.write_text(f"{header}\na 1 2\nb 3 4\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"x.vec: {message}$"):
            read_embeddings(path)

    def test_lexemes_frequency_ordered(self):
        corpus = make_corpus([["b", "a", "a", "a", "c", "c"]])
        kg = from_string_triples([("x", "r", "y")], "xx")
        space = init_space(kg, corpus, small_config(),
                           np.random.default_rng(0))
        assert space.lexemes == ("a", "c", "b")


def dense_kg(rng, n_entities=5, n_relations=2, density=0.6):
    """A KG holding about `density` of all possible triples, so that
    corruptions often collide with observed triples."""
    every = [(h, r, t) for h in range(n_entities)
             for r in range(n_relations) for t in range(n_entities)]
    keep = [x for x in every if rng.random() < density]
    return KnowledgeGraph(
        lang="xx", entities=tuple(f"e{i}" for i in range(n_entities)),
        relations=tuple(f"r{i}" for i in range(n_relations)),
        triples=tuple(keep))


class TestKernelsBitExact:
    """The training step's kernels against their earlier implementations
    in `oracles`: every array must be equal bit for bit, not just close."""

    @staticmethod
    def repeated_kg_batch(rng, n_ent, n_rel, bsz=16, m=5):
        # few entities and many draws, so every index repeats
        pos = np.stack([rng.integers(n_ent, size=bsz),
                        rng.integers(n_rel, size=bsz),
                        rng.integers(n_ent, size=bsz)], axis=1)
        return KGBatch(positives=pos,
                       neg_heads=rng.integers(n_ent, size=(bsz, m)),
                       neg_tails=rng.integers(n_ent, size=(bsz, m)))

    @staticmethod
    def assert_backprop_equal(space, graph, cache, grads, d_ent):
        """grads equal d_ent (the oracle's gradient on the GCN output)
        carried back through the GCN, or d_ent itself without a GCN."""
        d_ent0, d_weights = _gcn_backward(space, graph, cache, d_ent)
        np.testing.assert_array_equal(grads["ent0"], d_ent0)
        for i, dw in enumerate(d_weights):
            np.testing.assert_array_equal(grads[f"gcn_{i}"], dw)

    @pytest.mark.parametrize("gcn", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kg_loss_gradients(self, gcn, seed):
        rng, kg, _, cfg, space, graph, _ = random_instance(seed, gcn=gcn)
        batch = self.repeated_kg_batch(rng, kg.n_entities, kg.n_relations)
        loss, grads = kg_loss(batch, space, graph, cfg.bias_b)
        ent, cache = _gcn_forward_cached(space, graph)
        want_loss, d_ent, d_rel = add_at_kg_grads(batch, ent, space.rel,
                                                  cfg.bias_b)
        assert loss == want_loss
        np.testing.assert_array_equal(grads["rel"], d_rel)
        self.assert_backprop_equal(space, graph, cache, grads, d_ent)

    @pytest.mark.parametrize("gcn", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_text_loss_gradients(self, gcn, seed):
        rng, _, _, _, space, graph, _ = random_instance(seed + 10, gcn=gcn)
        batch = random_text_batch(rng, space, bsz=24, m=6)
        loss, grads = text_loss(batch, space, graph)
        ent, cache = _gcn_forward_cached(space, graph)
        want_loss, d_ent, d_lex = add_at_text_grads(batch, ent, space.lex)
        assert loss == want_loss
        np.testing.assert_array_equal(grads["lex"], d_lex)
        self.assert_backprop_equal(space, graph, cache, grads, d_ent)

    def test_text_loss_without_lexemes(self):
        kg = from_string_triples([("a", "r", "b"), ("b", "r", "c")], "xx")
        corpus = make_corpus([[("ent", "a"), ("ent", "b"), ("ent", "c")]])
        space = make_space(kg, corpus, small_config(gcn_layers=0))
        assert space.n_lexemes == 0
        batch = TextBatch(centers=np.array([0, 1, 1]),
                          contexts=np.array([1, 0, 2]),
                          negatives=np.array([[2, 2], [0, 1], [1, 1]]))
        _, grads = text_loss(batch, space, None)
        _, d_ent, d_lex = add_at_text_grads(batch, space.ent0, space.lex)
        np.testing.assert_array_equal(grads["ent0"], d_ent)
        assert grads["lex"].shape == d_lex.shape == (0, space.dim)

    @pytest.mark.parametrize("seed", range(6))
    def test_kg_batch_and_rng_stream(self, seed):
        rng = np.random.default_rng(seed)
        kg = dense_kg(rng)
        p_head = relation_stats(kg)
        triples = np.array(kg.triples, dtype=np.int64)
        pos = triples[rng.integers(len(triples), size=12)]
        fast_rng = np.random.default_rng(seed + 100)
        slow_rng = np.random.default_rng(seed + 100)
        batch = _kg_batch(pos, p_head, ObservedTriples.of(kg), 8, fast_rng)
        heads, tails, collisions = set_loop_negatives(
            pos, lambda r: p_head[r], set(kg.triples),
            kg.n_entities, 8, slow_rng)
        assert collisions > 0
        np.testing.assert_array_equal(batch.neg_heads, heads)
        np.testing.assert_array_equal(batch.neg_tails, tails)
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state

    def test_amsgrad_steps(self):
        rng = np.random.default_rng(0)
        shapes = {"ent0": (7, 4), "rel": (2, 4), "lex": (5, 4),
                  "gcn_0": (4, 4)}
        params = {k: rng.standard_normal(s) for k, s in shapes.items()}
        want = {k: p.copy() for k, p in params.items()}
        m, v, v_hat = ({k: np.zeros(s) for k, s in shapes.items()}
                       for _ in range(3))
        opt = AMSGrad(params, lr=0.003, beta1=0.9, beta2=0.999)
        for step in range(12):
            # alternate KG and text steps, which touch different tables
            names = (("rel", "ent0", "gcn_0") if step % 2 == 0
                     else ("lex", "ent0", "gcn_0"))
            grads = {k: rng.standard_normal(shapes[k]) * 10.0 ** (step % 3)
                     for k in names}
            opt.step(grads)
            allocating_amsgrad_step(want, m, v, v_hat, grads, 0.003, 0.9,
                                    0.999)
            for k in shapes:
                np.testing.assert_array_equal(params[k], want[k])
                np.testing.assert_array_equal(opt.m[k], m[k])
                np.testing.assert_array_equal(opt.v[k], v[k])
                np.testing.assert_array_equal(opt.v_hat[k], v_hat[k])

    @pytest.mark.parametrize("radius", [1, 2, 5])
    def test_pair_array_order(self, radius):
        rng = np.random.default_rng(radius)
        docs = [rng.integers(9, size=int(rng.integers(0, 14)))
                for _ in range(10)]
        got = _pair_array(docs, radius)
        want = stacked_pairs(docs, radius)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("docs", [[], [np.array([3])],
                                      [np.array([], dtype=np.int64)]])
    def test_pair_array_empty(self, docs):
        assert _pair_array(docs, 3).shape == (0, 2)

    def test_pair_array_radius_past_longest_document(self):
        """A radius of 10**7 gives the pairs of the longest document's
        length minus one, the same bytes, without a (documents x radius)
        array or a loop over 10**7 offsets."""
        rng = np.random.default_rng(8)
        docs = [rng.integers(9, size=n) for n in (8, 3, 0, 5)]
        with time_limit(5):
            got = _pair_array(docs, 10**7)
        want = _pair_array(docs, 7)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


class TestObservedTriples:
    @settings(max_examples=80, deadline=None)
    @given(n_entities=st.integers(1, 6), n_relations=st.integers(1, 3),
           data=st.data())
    def test_contains_exactly_the_triple_set(self, n_entities, n_relations,
                                             data):
        every = [(h, r, t) for h in range(n_entities)
                 for r in range(n_relations) for t in range(n_entities)]
        triples = data.draw(st.lists(st.sampled_from(every), unique=True),
                            label="triples")
        kg = KnowledgeGraph(
            lang="xx", entities=tuple(f"e{i}" for i in range(n_entities)),
            relations=tuple(f"r{i}" for i in range(n_relations)),
            triples=tuple(triples))
        queries = np.array(data.draw(st.lists(st.sampled_from(every),
                                              min_size=1), label="queries"))
        observed = ObservedTriples.of(kg)
        got = observed.contains(queries[:, 0], queries[:, 1], queries[:, 2])
        assert got.tolist() == [tuple(q) in set(triples)
                                for q in queries.tolist()]

    def test_contains_broadcasts_relations(self):
        kg = from_string_triples([("a", "r", "b"), ("b", "s", "a")], "xx")
        observed = ObservedTriples.of(kg)
        heads = np.array([[0, 1], [1, 0]])
        tails = np.array([[1, 0], [0, 1]])
        got = observed.contains(heads, np.array([[0], [1]]), tails)
        assert got.tolist() == [[True, False], [True, False]]

    def test_largest_key_fits_int64(self):
        n_ent, n_rel = 2 ** 31, 2
        last = (n_ent - 1, n_rel - 1, n_ent - 1)
        kg = SimpleNamespace(n_entities=n_ent, n_relations=n_rel,
                             triples=(last,))
        observed = ObservedTriples.of(kg)
        assert observed.keys.tolist() == [2 ** 63 - 1]
        assert observed.contains(*(np.array([x]) for x in last)).tolist() \
            == [True]

    def test_key_overflow_rejected(self):
        kg = SimpleNamespace(n_entities=2 ** 31, n_relations=3, triples=())
        with pytest.raises(ValueError, match="overflow"):
            ObservedTriples.of(kg)
