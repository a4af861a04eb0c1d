"""Ranking metrics (Hits@1, Hits@p, MRR) for entity alignment predictions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alignment import AlignmentState, infer_batch
from .config import NeighborQuery
from .grounding import ENTITY_PREFIX


@dataclass(frozen=True)
class EvalReport:
    h_at_1: float
    h_at_p: float
    p: int
    mrr: float
    n_test: int
    ranks: tuple[int, ...]

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
             q: NeighborQuery, p: int = 10,
             candidate_mode: str = "test") -> EvalReport:
    """Rank the gold target of each test query among the candidate set.

    candidate_mode "test" ranks against the test pairs' gold targets only;
    "all" ranks against every target entity.  Ties break by target
    vocabulary index, matching inference.
    """
    if not test_pairs:
        raise ValueError("empty test set")
    if candidate_mode == "all":
        candidates = [it[len(ENTITY_PREFIX):] for it, m in zip(
            state.target.items, state.target.entity_mask) if m]
    elif candidate_mode == "test":
        # in target vocabulary order, for deterministic tie-breaking
        candidates = sorted({gold for _, gold in test_pairs},
                            key=lambda e: state.target.index[ENTITY_PREFIX + e])
    else:
        raise ValueError(f"unknown candidate mode {candidate_mode!r}")

    cand_pos = {c: i for i, c in enumerate(candidates)}
    missing = [g for _, g in test_pairs if g not in cand_pos]
    if missing:
        raise ValueError(f"gold targets missing from candidates: {missing[:5]}")

    queries = [s for s, _ in test_pairs]
    scores = infer_batch(queries, state, q, candidates)

    ranks = []
    for row, (_, gold) in zip(scores, test_pairs):
        gi = cand_pos[gold]
        gold_score = row[gi]
        better = int(np.sum(row > gold_score))
        tied_before = int(np.sum(row[:gi] == gold_score))
        ranks.append(better + tied_before + 1)
    ranks_arr = np.array(ranks)
    return EvalReport(
        h_at_1=float(np.mean(ranks_arr == 1)),
        h_at_p=float(np.mean(ranks_arr <= p)),
        p=p,
        mrr=float(np.mean(1.0 / ranks_arr)),
        n_test=len(test_pairs),
        ranks=tuple(int(r) for r in ranks),
    )
