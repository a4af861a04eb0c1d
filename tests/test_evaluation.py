import numpy as np
import pytest

from kgalign import alignment
from kgalign.alignment import (AlignmentState, _score_blocks, infer_batch,
                               propose_pairs, self_learn, unit_rows)
from kgalign.config import NeighborQuery
from kgalign.evaluation import evaluate

from oracles import brute_rank, random_orthogonal, stacked
from test_alignment import (SMALL_BLOCK, paired_spaces, peak_bytes,
                            planted_state, space_from)


def make_state(rng, n=20, k=6, noise=0.1):
    ent = unit_rows(rng.standard_normal((n, k)))
    q = random_orthogonal(rng, k)
    tgt = ent @ q.T + noise * rng.standard_normal((n, k))
    state = AlignmentState(source=space_from(ent), target=space_from(tgt),
                           ent_pairs=[("e0", "e0")])
    state.transform = q
    return state


class TestHandFixture:
    def test_rank_list_1_2_4(self):
        # unit-circle points: l2 distance is monotone in angular distance
        def on_circle(*degs):
            rad = np.deg2rad(degs)
            return np.stack([np.cos(rad), np.sin(rad)], axis=1)

        k = 2
        cands = on_circle(0, 30, 60, 90)
        queries = on_circle(
            0,    # gold c0 at 0deg: rank 1
            10,   # gold c1 at 30deg: c0 is 10deg away, c1 20deg -> rank 2
            20,   # gold c3 at 90deg: c1, c0, c2 all closer -> rank 4
        )
        state = AlignmentState(
            source=space_from(queries, prefix="q"),
            target=space_from(cands, prefix="c"),
            ent_pairs=[("q0", "c0")])
        state.transform = np.eye(k)
        q = NeighborQuery(metric="l2")
        test_pairs = [("q0", "c0"), ("q1", "c1"), ("q2", "c3")]
        report = evaluate(test_pairs, state, q, p=10, candidate_mode="all")
        assert report.ranks == (1, 2, 4)
        assert report.h_at_1 == pytest.approx(1 / 3, abs=1e-4)
        assert report.h_at_p == pytest.approx(1.0)
        assert report.mrr == pytest.approx((1 + 0.5 + 0.25) / 3, abs=1e-4)

    def test_all_rank_one(self):
        rng = np.random.default_rng(1)
        state = make_state(rng, n=10, noise=0.0)
        pairs = [(f"e{i}", f"e{i}") for i in range(10)]
        report = evaluate(pairs, state, NeighborQuery(metric="csls", csls_k=3))
        assert report.h_at_1 == 1.0
        assert report.h_at_p == 1.0
        assert report.mrr == 1.0

    def test_gold_missing_from_candidates(self):
        rng = np.random.default_rng(3)
        state = make_state(rng, n=5)
        state.target = space_from(state.target.vectors[:4])
        with pytest.raises(KeyError, match="'@ent:e4'"):
            evaluate([("e0", "e4")], state, NeighborQuery(),
                     candidate_mode="all")


class TestAgainstOracle:
    @pytest.mark.parametrize("metric", ["csls", "l2"])
    def test_full_sort_oracle_200_entities(self, metric):
        rng = np.random.default_rng(4)
        state = make_state(rng, n=200, k=8, noise=0.3)
        q = NeighborQuery(metric=metric, csls_k=5)
        pairs = [(f"e{i}", f"e{i}") for i in range(0, 200, 3)]
        report = evaluate(pairs, state, q, p=10, candidate_mode="all")
        ids = [f"e{i}" for i in range(200)]
        scores = stacked(infer_batch([s for s, _ in pairs], state, q,
                                     state.target.entity_rows(ids)))
        for row, (_, gold), rank in zip(scores, pairs, report.ranks):
            assert rank == brute_rank(row, ids.index(gold))
        oracle_ranks = [brute_rank(row, ids.index(gold))
                        for row, (_, gold) in zip(scores, pairs)]
        assert report.h_at_1 == pytest.approx(
            np.mean([r == 1 for r in oracle_ranks]))
        assert report.mrr == pytest.approx(
            np.mean([1 / r for r in oracle_ranks]))


@pytest.mark.parametrize("q", [NeighborQuery(metric="csls", csls_k=5),
                               NeighborQuery(metric="l2")],
                         ids=["csls5", "l2"])
def test_ranks_match_one_block(monkeypatch, q):
    """Scores taken in 9 row blocks rank every query as one block does."""
    rng = np.random.default_rng(9)
    state = make_state(rng, n=300, noise=0.6)
    pairs = [(f"e{i}", f"e{i}") for i in range(300)]
    one = evaluate(pairs, state, q, candidate_mode="all")
    monkeypatch.setattr(alignment, "BLOCK_CELLS", SMALL_BLOCK)
    assert len(list(alignment._row_blocks(300, 300))) == 9
    many = evaluate(pairs, state, q, candidate_mode="all")
    assert many.ranks == one.ranks
    assert 0 < one.h_at_1 < 1


def test_evaluation_memory_below_blocks():
    """Ranking 3000 queries against 3000 candidates holds fewer than two
    score blocks at once, far below the 72 MB dense score matrix: every
    block is built in the memory of the one before."""
    n = 3000
    state = planted_state(np.random.default_rng(10), n)
    pairs = [(f"e{i}", f"e{i}") for i in range(n)]
    assert peak_bytes(evaluate, pairs, state, NeighborQuery(csls_k=10),
                      candidate_mode="all") < 2 * alignment.BLOCK_CELLS * 8


@pytest.mark.parametrize("q", [NeighborQuery(csls_k=5),
                               NeighborQuery(metric="l2")], ids=["csls", "l2"])
def test_scoring_leaves_caller_arrays_unchanged(monkeypatch, q):
    """The scorer normalizes copies: no step writes the arrays passed to
    it, the state's vectors or its transform."""
    monkeypatch.setattr(alignment, "BLOCK_CELLS", SMALL_BLOCK)
    rng = np.random.default_rng(11)
    args = [rng.standard_normal((300, 8)), rng.standard_normal((260, 8)),
            rng.standard_normal((320, 8))]
    src, tgt = paired_spaces(rng)
    state = AlignmentState(source=src, target=tgt,
                           ent_pairs=[(f"e{i}", f"e{i}") for i in range(20)])
    state.transform = random_orthogonal(rng, 8)
    held = [*args, src.vectors, tgt.vectors, state.transform]
    before = [a.tobytes() for a in held]
    for cand_ref in (None, args[2]):
        stacked(_score_blocks(args[0], args[1], q, cand_ref))
    test = [(f"e{i}", f"e{i}") for i in range(20, 80)]
    stacked(infer_batch([s for s, _ in test], state, q,
                        np.flatnonzero(tgt.entity_mask)))
    evaluate(test, state, q, candidate_mode="all")
    assert propose_pairs(state, q)[0]
    self_learn(state, q)
    assert state.iteration > 0
    assert [a.tobytes() for a in held] == before


class TestProperties:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        state = make_state(rng, n=30, noise=0.4)
        pairs = [(f"e{i}", f"e{i}") for i in range(30)]
        q = NeighborQuery(metric="csls", csls_k=3)
        a = evaluate(pairs, state, q, p=5)
        shuffled = [pairs[i] for i in rng.permutation(30)]
        b = evaluate(shuffled, state, q, p=5)
        assert a.h_at_1 == b.h_at_1
        assert a.h_at_p == b.h_at_p
        assert a.mrr == pytest.approx(b.mrr)

    def test_smaller_candidate_set_never_hurts(self):
        rng = np.random.default_rng(6)
        state = make_state(rng, n=40, noise=0.5)
        pairs = [(f"e{i}", f"e{i}") for i in range(0, 40, 2)]
        q = NeighborQuery(metric="l2")
        test_only = evaluate(pairs, state, q, p=5, candidate_mode="test")
        all_cands = evaluate(pairs, state, q, p=5, candidate_mode="all")
        assert test_only.h_at_1 >= all_cands.h_at_1
        assert test_only.h_at_p >= all_cands.h_at_p
        assert test_only.mrr >= all_cands.mrr - 1e-12

    def test_metric_inequalities(self):
        rng = np.random.default_rng(7)
        state = make_state(rng, n=25, noise=0.6)
        pairs = [(f"e{i}", f"e{i}") for i in range(25)]
        rep = evaluate(pairs, state, NeighborQuery(metric="csls", csls_k=3),
                       p=5)
        assert rep.h_at_1 <= rep.h_at_p
        assert rep.h_at_1 <= rep.mrr <= rep.h_at_p + (1 - rep.h_at_p)
        assert 0 <= rep.h_at_1 <= 1 and 0 <= rep.mrr <= 1

    def test_report_lines_format(self, tmp_path):
        rng = np.random.default_rng(8)
        state = make_state(rng, n=10, noise=0.0)
        rep = evaluate([("e0", "e0")], state, NeighborQuery(), p=5)
        path = tmp_path / "report.tsv"
        rep.write(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "h1\t1.0000"
        assert lines[1] == "h_5\t1.0000"
        assert lines[2] == "mrr\t1.0000"
        assert lines[3] == "n\t1"
