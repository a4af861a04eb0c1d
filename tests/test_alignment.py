import json
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest

from kgalign import alignment
from kgalign.alignment import (AlignmentSpace, AlignmentState, _score_blocks,
                               infer_batch, load_state, procrustes_solve,
                               propose_pairs, save_state, self_learn,
                               solve_once, unit_rows)
from kgalign.config import ConfigError, NeighborQuery, OptimizerConfig
from kgalign.embedding import TrainingDivergence, init_space, write_embeddings

from conftest import make_corpus, random_kg
from oracles import (brute_csls, brute_mutual_nn, brute_rank, evaluation_csls,
                     proposal_csls, random_orthogonal, stacked)


def space_from(entity_vecs, lexeme_vecs=None, prefix="e", lex_prefix="w"):
    items = [f"@ent:{prefix}{i}" for i in range(len(entity_vecs))]
    vecs = list(entity_vecs)
    if lexeme_vecs is not None:
        items += [f"{lex_prefix}{i}" for i in range(len(lexeme_vecs))]
        vecs += list(lexeme_vecs)
    mat = unit_rows(np.array(vecs, dtype=float))
    return AlignmentSpace(items=tuple(items), vectors=mat)


class TestAlignmentSpace:
    def test_zero_row_in_file_is_input_error(self, tmp_path):
        (tmp_path / "x.vec").write_text("2 2\n@ent:a 1.0 0.0\nw 0.0 0.0\n",
                                        encoding="utf-8")
        with pytest.raises(ValueError, match="zero-norm") as info:
            AlignmentSpace.from_file(tmp_path / "x.vec")
        assert not isinstance(info.value, TrainingDivergence)

    def test_from_file_unit_rows(self, tmp_path):
        rng = np.random.default_rng(17)
        kg = random_kg(rng, n_entities=4, n_triples=4)
        space = init_space(kg, make_corpus([["w", "v"]]),
                           OptimizerConfig(dim=3, min_freq=1), rng)
        space.ent_out = space.ent0.copy()
        write_embeddings(space, tmp_path / "emb")
        aligned = AlignmentSpace.from_file(tmp_path / "emb.vec")
        np.testing.assert_allclose(
            np.linalg.norm(aligned.vectors, axis=1), 1.0)
        assert aligned.n_entities == 4
        assert aligned.entity_mask.tolist() == [True] * 4 + [False] * 2


class TestProcrustes:
    def test_identity_alignment(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10, 5))
        m = procrustes_solve(x, x)
        np.testing.assert_allclose(m, np.eye(5), atol=1e-10)

    def test_recovers_random_rotation(self):
        rng = np.random.default_rng(1)
        for k in (4, 16, 64):
            q = random_orthogonal(rng, k)
            x = unit_rows(rng.standard_normal((3 * k, k)))
            y = x @ q.T
            m = procrustes_solve(x, y)
            assert np.linalg.norm(m - q) < 1e-8

    def test_2d_quarter_rotation(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([[0.0, 1.0], [-1.0, 0.0]])
        m = procrustes_solve(x, y)
        np.testing.assert_allclose(m, [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(x @ m.T, y, atol=1e-12)

    def test_orthogonality(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            k = int(rng.integers(2, 9))
            n = int(rng.integers(1, 21))
            x = rng.standard_normal((n, k))
            y = rng.standard_normal((n, k))
            if n < k:  # fewer pairs than dimensions
                with pytest.warns(RuntimeWarning, match="rank-deficient"):
                    m = procrustes_solve(x, y)
            else:
                m = procrustes_solve(x, y)
            assert np.linalg.norm(m.T @ m - np.eye(k)) < 1e-6

    def test_beats_random_orthogonal_matrices(self):
        rng = np.random.default_rng(3)
        k, n = 6, 15
        x = unit_rows(rng.standard_normal((n, k)))
        y = unit_rows(rng.standard_normal((n, k)))
        m = procrustes_solve(x, y)
        best = np.sum((x @ m.T - y) ** 2)
        for _ in range(1000):
            q = random_orthogonal(rng, k)
            assert best <= np.sum((x @ q.T - y) ** 2) + 1e-12

    def test_rank_deficient_warns(self):
        x = np.array([[1.0, 0.0, 0.0]])
        y = np.array([[0.0, 1.0, 0.0]])
        with pytest.warns(RuntimeWarning, match="rank-deficient"):
            m = procrustes_solve(x, y)
        assert np.linalg.norm(m.T @ m - np.eye(3)) < 1e-6


def csls(k):
    return NeighborQuery(metric="csls", csls_k=k)


def score_matrix(queries, cands, q, cand_ref=None):
    return stacked(_score_blocks(queries, cands, q, cand_ref))


class TestCSLS:
    def test_degenerate_cloud_zero(self):
        cloud = np.tile([0.3, 0.4], (3, 1))
        got = score_matrix(cloud, cloud, csls(2))
        np.testing.assert_allclose(got, 0.0, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_brute_force(self, k):
        rng = np.random.default_rng(4)
        src = rng.standard_normal((3, 5))
        tgt = rng.standard_normal((3, 5))
        expected = brute_csls(src, tgt, k)
        got = score_matrix(src, tgt, csls(k))
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        src = rng.standard_normal((4, 3))
        tgt = rng.standard_normal((4, 3))
        a = score_matrix(src, tgt, csls(2))
        b = score_matrix(src * 7.5, tgt * 0.2, csls(2))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            score_matrix(np.zeros((1, 2)), np.eye(2), csls(2))

    @pytest.mark.parametrize("k", [1, 5, 40])
    def test_equals_earlier_kernels(self, k):
        rng = np.random.default_rng(23)
        queries = rng.standard_normal((30, 6))
        cands = rng.standard_normal((25, 6))
        ref = rng.standard_normal((35, 6))
        assert np.array_equal(score_matrix(queries, cands, csls(k)),
                              proposal_csls(queries, cands, k))
        assert np.array_equal(
            score_matrix(queries, cands, csls(k), cand_ref=ref),
            evaluation_csls(queries, cands, ref, k))


# About 43 rows of 260 candidates per block: 7 blocks over 300 queries.
SMALL_BLOCK = 43 * 260


def paired_spaces(rng, n_src=300, n_tgt=260, n_lex=60, dim=8, noise=0.3):
    """Spaces whose first n_tgt items (entities, then lexemes) are noisy
    copies of the source's, so mutual nearest neighbours are many."""
    src = rng.standard_normal((n_src, dim))
    tgt = src[:n_tgt] + noise * rng.standard_normal((n_tgt, dim))
    return (space_from(src[:n_src - n_lex], src[n_src - n_lex:]),
            space_from(tgt[:n_tgt - n_lex], tgt[n_tgt - n_lex:]))


def planted_state(rng, n, dim=16):
    """A state of two random n-entity spaces under a random rotation."""
    state = AlignmentState(source=space_from(rng.standard_normal((n, dim))),
                           target=space_from(rng.standard_normal((n, dim))),
                           ent_pairs=[])
    state.transform = random_orthogonal(rng, dim)
    return state


def peak_bytes(fn, *args, **kwargs):
    """The peak of memory traced while `fn(*args, **kwargs)` runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlocks:
    """Scores taken in many row blocks equal the one-block scores."""

    @pytest.mark.parametrize("q", [csls(1), csls(5), csls(40),
                                   NeighborQuery(metric="l2")],
                             ids=["csls1", "csls5", "csls40", "l2"])
    @pytest.mark.parametrize("with_ref", [False, True])
    def test_score_matrix_matches_one_block(self, monkeypatch, q, with_ref):
        rng = np.random.default_rng(25)
        queries = rng.standard_normal((300, 6))
        cands = rng.standard_normal((260, 6))
        ref = rng.standard_normal((320, 6)) if with_ref else None
        one = score_matrix(queries, cands, q, cand_ref=ref)
        monkeypatch.setattr(alignment, "BLOCK_CELLS", SMALL_BLOCK)
        assert len(list(alignment._row_blocks(300, 260))) == 7
        many = score_matrix(queries, cands, q, cand_ref=ref)
        np.testing.assert_allclose(many, one, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(many.argmax(axis=1),
                                      one.argmax(axis=1))
        np.testing.assert_array_equal(many.argmax(axis=0),
                                      one.argmax(axis=0))

    @pytest.mark.parametrize("q", [csls(5), csls(10),
                                   NeighborQuery(metric="l2")],
                             ids=["csls5", "csls10", "l2"])
    def test_propose_pairs_match_one_block(self, monkeypatch, q):
        rng = np.random.default_rng(26)
        src, tgt = paired_spaces(rng)
        state = AlignmentState(source=src, target=tgt,
                               ent_pairs=[("e0", "e0"), ("e3", "e3")],
                               lex_pairs=[("w1", "w1")])
        state.transform = np.eye(8)
        one = propose_pairs(state, q)
        monkeypatch.setattr(alignment, "BLOCK_CELLS", SMALL_BLOCK)
        assert propose_pairs(state, q) == one
        assert len(one) > 100

    @pytest.mark.parametrize("block_cells", [6, 24, 42])
    @pytest.mark.parametrize("q", [csls(2), NeighborQuery(metric="l2")],
                             ids=["csls2", "l2"])
    def test_column_tie_goes_to_lower_row(self, monkeypatch, block_cells, q):
        """Source e6 duplicates e0, in a later block or, at 42 cells, in
        the same one; the target e0's nearest source is e0, as the dense
        column argmax picks it."""
        rng = np.random.default_rng(27)
        ent = rng.standard_normal((6, 4))
        state = AlignmentState(source=space_from(np.vstack([ent, ent[:1]])),
                               target=space_from(ent), ent_pairs=[])
        state.transform = np.eye(4)
        monkeypatch.setattr(alignment, "BLOCK_CELLS", block_cells)
        props = {(s, t) for s, t, _ in propose_pairs(state, q)}
        assert ("e0", "e0") in props
        assert all(s != "e6" for s, _ in props)

    def test_proposal_memory_below_dense_matrix(self):
        """Proposing on 3000 x 3000 holds fewer than two score blocks at
        once, far below the 72 MB dense score matrix: no block is copied
        whole, as a column argmax or an axis-0 partition would copy it."""
        state = planted_state(np.random.default_rng(28), 3000)
        assert peak_bytes(propose_pairs, state, csls(10)) \
            < 2 * alignment.BLOCK_CELLS * 8


class TestProposePairs:
    def make_state(self, src, tgt, ent_pairs=(), lex_pairs=(), m=None):
        state = AlignmentState(source=src, target=tgt,
                               ent_pairs=list(ent_pairs),
                               lex_pairs=list(lex_pairs))
        state.transform = np.eye(src.vectors.shape[1]) if m is None else m
        return state

    def test_self_alignment_under_identity(self):
        rng = np.random.default_rng(6)
        ent = rng.standard_normal((5, 4))
        lex = rng.standard_normal((3, 4))
        src = space_from(ent, lex)
        tgt = space_from(ent, lex)
        state = self.make_state(src, tgt)
        props = propose_pairs(state, NeighborQuery(metric="csls", csls_k=2))
        assert len(props) == 8
        for s, t, _ in props:
            assert s == t

    def test_aligned_entities_never_reproposed(self):
        rng = np.random.default_rng(7)
        ent = rng.standard_normal((5, 4))
        src = space_from(ent)
        tgt = space_from(ent)
        state = self.make_state(src, tgt, ent_pairs=[("e0", "e0"),
                                                     ("e1", "e1")])
        props = propose_pairs(state, NeighborQuery(metric="l2"))
        proposed_src = {s for s, _, _ in props}
        assert proposed_src.isdisjoint({"e0", "e1"})

    def test_mutual_nn_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            src = space_from(rng.standard_normal((6, 4)))
            tgt = space_from(rng.standard_normal((6, 4)))
            q = NeighborQuery(metric="csls", csls_k=3)
            state = self.make_state(src, tgt,
                                    m=random_orthogonal(rng, 4))
            props = propose_pairs(state, q)
            mapped = src.vectors @ state.transform.T
            expected = brute_mutual_nn(brute_csls(mapped, tgt.vectors,
                                                  q.csls_k))
            got = {(f"e{src.items.index('@ent:' + s)}",
                    f"e{tgt.items.index('@ent:' + t)}")
                   for s, t, _ in props}
            assert {(f"e{i}", f"e{j}") for i, j in expected} == got

    def test_type_mismatch_filtered(self):
        # source entity vector coincides with a target lexeme vector
        src = space_from([[1.0, 0.0]])
        tgt = space_from([[0.0, 1.0]], [[1.0, 0.0]])
        state = self.make_state(src, tgt)
        props = propose_pairs(state, NeighborQuery(metric="l2"))
        assert props == []

    def test_lexeme_top_f_cutoff(self):
        rng = np.random.default_rng(9)
        lex = rng.standard_normal((4, 3))
        src = space_from(rng.standard_normal((2, 3)), lex)
        tgt = space_from(rng.standard_normal((2, 3)), lex)
        state = self.make_state(src, tgt)
        state.lexeme_top_f = 2
        props = propose_pairs(state, NeighborQuery(metric="l2"))
        lex_props = {s for s, _, is_ent in props if not is_ent}
        assert lex_props <= {"w0", "w1"}


class TestSelfLearn:
    def isomorphic_fixture(self, rng, n=60, k=8, noise=0.0):
        ent = unit_rows(rng.standard_normal((n, k)))
        q = random_orthogonal(rng, k)
        tgt_vecs = ent @ q.T + noise * rng.standard_normal((n, k))
        return space_from(ent), space_from(tgt_vecs), q

    def test_stop_fraction_one_single_solve(self):
        rng = np.random.default_rng(10)
        src, tgt, _ = self.isomorphic_fixture(rng)
        state = AlignmentState(source=src, target=tgt,
                               ent_pairs=[("e0", "e0"), ("e1", "e1")])
        # 2 seed pairs in 8 dimensions
        with pytest.warns(RuntimeWarning, match="rank-deficient"):
            self_learn(state, NeighborQuery(metric="csls"), stop_fraction=1.0)
        assert state.iteration == 1

    def test_recovers_isomorphic_spaces(self):
        rng = np.random.default_rng(11)
        src, tgt, _ = self.isomorphic_fixture(rng, n=100, noise=0.01)
        seed = [(f"e{i}", f"e{i}") for i in range(10)]  # 10% seed
        state = AlignmentState(source=src, target=tgt, ent_pairs=list(seed))
        self_learn(state, NeighborQuery(metric="csls", csls_k=5))
        correct = sum(1 for s, t in state.ent_pairs if s == t)
        assert correct / src.n_entities >= 0.9

    def test_terminates_within_cap(self):
        rng = np.random.default_rng(12)
        src = space_from(rng.standard_normal((20, 4)))
        tgt = space_from(rng.standard_normal((20, 4)))
        state = AlignmentState(source=src, target=tgt,
                               ent_pairs=[("e0", "e3")])
        # 1 seed pair in 4 dimensions
        with pytest.warns(RuntimeWarning, match="rank-deficient"):
            self_learn(state, NeighborQuery(metric="l2"),
                       stop_fraction=1e-9, max_iterations=50)
        assert state.iteration <= 50

    def test_one_to_one_invariant_and_monotone_growth(self):
        rng = np.random.default_rng(13)
        src, tgt, _ = self.isomorphic_fixture(rng, n=40, noise=0.05)
        state = AlignmentState(source=src, target=tgt,
                               ent_pairs=[(f"e{i}", f"e{i}")
                                          for i in range(4)])
        sizes = []
        q = NeighborQuery(metric="csls", csls_k=3)
        for i in range(5):
            before = len(state.ent_pairs)
            # the first solve has 4 seed pairs in 8 dimensions
            with (pytest.warns(RuntimeWarning, match="rank-deficient")
                  if i == 0 else nullcontext()):
                self_learn(state, q, stop_fraction=1.0,
                           max_iterations=state.iteration + 1)
            sizes.append(len(state.ent_pairs))
            assert len(state.ent_pairs) >= before
            srcs = [s for s, _ in state.ent_pairs]
            tgts = [t for _, t in state.ent_pairs]
            assert len(set(srcs)) == len(srcs)
            assert len(set(tgts)) == len(tgts)
        assert sizes == sorted(sizes)

    def test_empty_seed_rejected(self):
        rng = np.random.default_rng(14)
        src = space_from(rng.standard_normal((4, 3)))
        tgt = space_from(rng.standard_normal((4, 3)))
        state = AlignmentState(source=src, target=tgt, ent_pairs=[])
        with pytest.raises(ValueError, match="seed"):
            self_learn(state, NeighborQuery())
        with pytest.raises(ValueError, match="seed"):
            solve_once(state)

    @pytest.mark.parametrize("settings, match", [
        ({"max_iterations": 0}, "max_iterations"),
        ({"max_iterations": -1}, "max_iterations"),
        ({"stop_fraction": 0.0}, "stop_fraction"),
        ({"stop_fraction": 1.5}, "stop_fraction"),
    ])
    def test_invalid_settings_rejected(self, settings, match):
        rng = np.random.default_rng(16)
        src, tgt, _ = self.isomorphic_fixture(rng, n=10)
        state = AlignmentState(source=src, target=tgt,
                               ent_pairs=[("e0", "e0")])
        with pytest.raises(ConfigError, match=match):
            self_learn(state, NeighborQuery(), **settings)
        assert state.transform is None and state.iteration == 0

    def test_embeddings_unchanged_by_alignment(self):
        rng = np.random.default_rng(15)
        src, tgt, _ = self.isomorphic_fixture(rng, n=30)
        src_before = src.vectors.copy()
        tgt_before = tgt.vectors.copy()
        state = AlignmentState(source=src, target=tgt,
                               ent_pairs=[(f"e{i}", f"e{i}")
                                          for i in range(5)])
        # 5 seed pairs in 8 dimensions
        with pytest.warns(RuntimeWarning, match="rank-deficient"):
            self_learn(state, NeighborQuery(metric="csls", csls_k=3))
        np.testing.assert_array_equal(src.vectors, src_before)
        np.testing.assert_array_equal(tgt.vectors, tgt_before)


def ranked(state, q, query_id, ids):
    """Candidates best-first under infer_batch, ties to the lower index."""
    row = stacked(infer_batch([query_id], state, q,
                              state.target.entity_rows(ids)))[0]
    ranks = [brute_rank(row, i) for i in range(len(ids))]
    return [ids[i] for i in np.argsort(ranks)]


class TestInfer:
    def test_identity_spaces_top1_self(self):
        rng = np.random.default_rng(16)
        ent = rng.standard_normal((8, 4))
        src, tgt = space_from(ent), space_from(ent)
        state = AlignmentState(source=src, target=tgt,
                               ent_pairs=[("e0", "e0")])
        state.transform = np.eye(4)
        ids = [f"e{i}" for i in range(8)]
        for metric in ("csls", "l2"):
            q = NeighborQuery(metric=metric, csls_k=3)
            for e in ids:
                assert ranked(state, q, e, ids)[0] == e

    def test_single_candidate(self):
        rng = np.random.default_rng(17)
        src = space_from(rng.standard_normal((3, 4)))
        tgt = space_from(rng.standard_normal((3, 4)))
        state = AlignmentState(source=src, target=tgt,
                               ent_pairs=[("e0", "e0")])
        state.transform = np.eye(4)
        for metric in ("csls", "l2"):
            q = NeighborQuery(metric=metric)
            assert ranked(state, q, "e1", ["e2"]) == ["e2"]
            assert np.isfinite(
                stacked(infer_batch(["e1"], state, q,
                                    tgt.entity_rows(["e2"])))).all()

    def test_unknown_entity_rejected(self):
        rng = np.random.default_rng(18)
        src = space_from(rng.standard_normal((3, 4)))
        tgt = space_from(rng.standard_normal((3, 4)))
        state = AlignmentState(source=src, target=tgt,
                               ent_pairs=[("e0", "e0")])
        state.transform = np.eye(4)
        with pytest.raises(KeyError, match="unknown entity id 'nope'"):
            infer_batch(["nope"], state, NeighborQuery(),
                        state.target.entity_rows(["e0"]))
        with pytest.raises(KeyError, match="unknown entity id 'nope'"):
            infer_batch(["e0"], state, NeighborQuery(),
                        state.target.entity_rows(["nope"]))

    def test_l2_ranking_matches_brute_force(self):
        rng = np.random.default_rng(19)
        src = space_from(rng.standard_normal((6, 4)))
        tgt = space_from(rng.standard_normal((6, 4)))
        state = AlignmentState(source=src, target=tgt,
                               ent_pairs=[("e0", "e0")])
        state.transform = random_orthogonal(rng, 4)
        ids = [f"e{i}" for i in range(6)]
        q = NeighborQuery(metric="l2")
        scores = stacked(infer_batch(ids, state, q,
                                     state.target.entity_rows(ids)))
        for row, e in zip(scores, ids):
            mapped = state.transform @ src.vectors[src.items.index(f"@ent:{e}")]
            dists = [np.linalg.norm(mapped - tgt.vectors[j])
                     for j in range(6)]
            np.testing.assert_allclose(row, -np.array(dists), atol=1e-12)
            expected = [ids[i] for i in
                        sorted(range(6), key=lambda i: (dists[i], i))]
            assert ranked(state, q, e, ids) == expected

    def test_csls_subsets_match_brute_force(self):
        # queries and candidates are strict subsets, so the candidate
        # penalty over all mapped source entities differs from one over
        # the queries
        rng = np.random.default_rng(24)
        src = space_from(rng.standard_normal((12, 4)))
        tgt = space_from(rng.standard_normal((10, 4)))
        state = AlignmentState(source=src, target=tgt,
                               ent_pairs=[("e0", "e0")])
        state.transform = random_orthogonal(rng, 4)
        query_ids = ["e1", "e4", "e5", "e9"]
        cand_ids = ["e0", "e2", "e3", "e7", "e8"]
        mapped = src.vectors @ state.transform.T
        queries = [mapped[int(e[1:])] for e in query_ids]
        cands = [tgt.vectors[int(e[1:])] for e in cand_ids]
        for k in (1, 3, 20):
            expected = brute_csls(queries, cands, k, cand_ref=list(mapped))
            got = stacked(infer_batch(
                query_ids, state, csls(k), tgt.entity_rows(cand_ids)))
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
            # the reference set matters on this fixture
            assert not np.allclose(got, brute_csls(queries, cands, k))

    def test_csls_argmax_scale_invariant(self):
        rng = np.random.default_rng(20)
        src = space_from(rng.standard_normal((6, 4)))
        tgt_vecs = rng.standard_normal((6, 4))
        state = AlignmentState(source=src, target=space_from(tgt_vecs),
                               ent_pairs=[("e0", "e0")])
        state.transform = random_orthogonal(rng, 4)
        scaled = AlignmentState(source=src,
                                target=space_from(tgt_vecs * 13.0),
                                ent_pairs=[("e0", "e0")])
        scaled.transform = state.transform
        ids = [f"e{i}" for i in range(6)]
        q = NeighborQuery(metric="csls", csls_k=2)
        for e in ids:
            assert ranked(state, q, e, ids) == ranked(scaled, q, e, ids)


class TestStateIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        src = space_from(rng.standard_normal((4, 3)),
                         rng.standard_normal((2, 3)))
        tgt = space_from(rng.standard_normal((4, 3)),
                         rng.standard_normal((2, 3)))
        state = AlignmentState(source=src, target=tgt,
                               ent_pairs=[("e0", "e1")],
                               lex_pairs=[("w0", "w1")],
                               lexeme_top_f=123)
        state.transform = random_orthogonal(rng, 3)
        state.iteration = 4
        state.proposal_counts = [3, 1]
        path = tmp_path / "state.json"
        save_state(state, path)
        loaded = load_state(path)
        assert loaded.ent_pairs == state.ent_pairs
        assert loaded.lex_pairs == state.lex_pairs
        assert loaded.iteration == 4
        assert loaded.lexeme_top_f == 123
        np.testing.assert_array_equal(loaded.transform, state.transform)
        np.testing.assert_array_equal(loaded.source.vectors, src.vectors)
        assert loaded.target.items == tgt.items

    @pytest.mark.parametrize("n_src, n_tgt, n_lex", [(9, 7, 0), (9, 7, 4),
                                                     (1, 1, 0), (1, 1, 1)])
    def test_bytes_are_one_dumps_of_the_payload(self, tmp_path, monkeypatch,
                                                 n_src, n_tgt, n_lex):
        """Written a few rows at a time, the file is the text of one
        json.dumps of the whole state."""
        rng = np.random.default_rng(23)
        src = space_from(rng.standard_normal((n_src, 3)),
                         rng.standard_normal((n_lex, 3)) if n_lex else None)
        tgt = space_from(rng.standard_normal((n_tgt, 3)),
                         rng.standard_normal((n_lex, 3)) if n_lex else None)
        state = AlignmentState(
            source=src, target=tgt, ent_pairs=[("e0", "e0")],
            lex_pairs=[(f"w{i}", f"w{i}") for i in range(n_lex)],
            transform=random_orthogonal(rng, 3), iteration=2,
            proposal_counts=[1, 0], lexeme_top_f=7)
        payload = {
            side: {"items": list(space.items),
                   "vectors": space.vectors.tolist()}
            for side, space in (("source", src), ("target", tgt))}
        payload.update(
            ent_pairs=[["e0", "e0"]],
            lex_pairs=[[s, t] for s, t in state.lex_pairs],
            transform=state.transform.tolist(), iteration=2,
            proposal_counts=[1, 0], lexeme_top_f=7)
        # text pieces of 64 * 6 // 64 = 6 cells: two rows of three
        monkeypatch.setattr(alignment, "BLOCK_CELLS", 64 * 6)
        path = tmp_path / "state.json"
        save_state(state, path)
        assert path.read_text(encoding="utf-8") == json.dumps(
            payload, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def planted_file(tmp_path):
        """A state of two 3000-entity 32-d spaces and the path of its file,
        about 4 MB."""
        state = planted_state(np.random.default_rng(29), 3000, dim=32)
        state.ent_pairs = [(f"e{i}", f"e{i}") for i in range(1000)]
        return state, tmp_path / "state.json"

    def test_save_memory_below_file_size(self, tmp_path):
        """save_state traces less memory than the file it writes holds."""
        state, path = self.planted_file(tmp_path)
        assert peak_bytes(save_state, state, path) < path.stat().st_size

    def test_load_memory_below_five_file_sizes(self, tmp_path):
        """load_state traces less than five times the size of its file."""
        state, path = self.planted_file(tmp_path)
        save_state(state, path)
        assert peak_bytes(load_state, path) < 5 * path.stat().st_size

    def test_load_frees_each_sides_floats_as_it_is_parsed(self, tmp_path):
        """load_state makes each side's array as the side is parsed, so
        the source's Python floats are gone before the target's are made:
        on two 5000-entity 32-d sides (6.7 MB) it traces 2.37 file sizes,
        against 2.76 when both sides' floats were held at once."""
        state = planted_state(np.random.default_rng(29), 5000, dim=32)
        state.ent_pairs = [(f"e{i}", f"e{i}") for i in range(1000)]
        path = tmp_path / "state.json"
        save_state(state, path)
        assert peak_bytes(load_state, path) < 2.55 * path.stat().st_size

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(22)
        src = space_from(rng.standard_normal((3, 3)))
        tgt = space_from(rng.standard_normal((3, 3)))
        state = AlignmentState(source=src, target=tgt,
                               ent_pairs=[("e0", "e0")])
        state.transform = np.eye(3)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_state(state, p1)
        save_state(state, p2)
        assert p1.read_bytes() == p2.read_bytes()
