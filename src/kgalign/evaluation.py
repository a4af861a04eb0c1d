"""Ranking metrics (Hits@1, Hits@p, MRR) for entity alignment predictions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alignment import AlignmentState, infer_batch
from .config import NeighborQuery, PipelineConfig


@dataclass(frozen=True)
class EvalReport:
    """The rank of each test query's gold target; metrics derive from it."""

    ranks: tuple[int, ...]
    p: int

    @property
    def h_at_1(self) -> float:
        return float(np.mean(np.asarray(self.ranks) == 1))

    @property
    def h_at_p(self) -> float:
        return float(np.mean(np.asarray(self.ranks) <= self.p))

    @property
    def mrr(self) -> float:
        return float(np.mean(1.0 / np.asarray(self.ranks)))

    @property
    def n_test(self) -> int:
        return len(self.ranks)

    def lines(self) -> list[str]:
        return [
            f"h1\t{self.h_at_1:.4f}",
            f"h_{self.p}\t{self.h_at_p:.4f}",
            f"mrr\t{self.mrr:.4f}",
            f"n\t{self.n_test}",
        ]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.lines():
                fh.write(line + "\n")


def evaluate(test_pairs: list[tuple[str, str]], state: AlignmentState,
             q: NeighborQuery, p: int = PipelineConfig.eval_p,
             candidate_mode: str = PipelineConfig.candidate_mode
             ) -> EvalReport:
    """Rank the gold target of each test query among the candidate set.
    The pairs are those `check_pairs` passed, the settings those
    `PipelineConfig` checks.

    candidate_mode "test" ranks against the test pairs' gold targets only;
    "all" ranks against every target entity.  Candidates are ascending
    target rows, so ties break by target vocabulary index, matching
    inference.  A gold id the target lacks raises `KeyError`.
    """
    gold_rows = state.target.entity_rows([gold for _, gold in test_pairs])
    if candidate_mode == "all":
        candidates = np.flatnonzero(state.target.entity_mask)
    else:
        candidates = np.unique(gold_rows)

    gold_cols = np.searchsorted(candidates, gold_rows)
    cols = np.arange(len(candidates))
    ranks_arr = np.empty(len(test_pairs), dtype=np.int64)
    # rank = 1 + candidates scored strictly higher + ties before the gold
    # column, one block of query rows at a time
    for rows, scores in infer_batch([s for s, _ in test_pairs], state, q,
                                    candidates):
        gi = gold_cols[rows]
        gold = scores[np.arange(len(gi)), gi][:, None]
        better = np.count_nonzero(scores > gold, axis=1)
        tied_before = np.count_nonzero(
            (scores == gold) & (cols < gi[:, None]), axis=1)
        ranks_arr[rows] = 1 + better + tied_before
    return EvalReport(ranks=tuple(int(r) for r in ranks_arr), p=p)
