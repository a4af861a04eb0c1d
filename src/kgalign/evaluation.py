"""Ranking metrics (Hits@1, Hits@p, MRR) for entity alignment predictions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alignment import AlignmentState, infer_batch
from .config import NeighborQuery
from .grounding import ENTITY_PREFIX


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

    gold_cols = np.array([cand_pos[g] for _, g in test_pairs])
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
