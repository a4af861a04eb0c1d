"""Correctness checks on a workload's outputs, made apart from the program.

Nothing here calls `infer_batch`, `evaluate` or `csls_matrix`: Hits@1 and
MRR are recomputed with plain numpy from the saved `alignment_state.json`
and the held-out split, and the split itself is re-derived from its
definition (a `default_rng(seed)` permutation of the gold pairs, the first
`round(seed_fraction * n)` of them as seeds).  Every check returns a list
of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from kgalign import alignment

ENTITY = "@ent:"
ORTHOGONALITY_TOL = 1e-9


def read_pairs(path) -> list[tuple[str, str]]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(line.rstrip("\n").split("\t")) for line in fh
                if line.strip()]


def read_report(path) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("\t") for line in fh
                    if line.strip())


def kg_entities(triples_path) -> set[str]:
    ents = set()
    with open(triples_path, encoding="utf-8") as fh:
        for line in fh:
            h, _, t = line.rstrip("\n").split("\t")
            ents.update((h, t))
    return ents


def split_gold(gold, seed_fraction: float, seed: int):
    """The documented seed/test split, written out independently."""
    order = np.random.default_rng(seed).permutation(len(gold))
    n_seed = max(1, round(seed_fraction * len(gold)))
    return ([gold[i] for i in order[:n_seed]],
            [gold[i] for i in order[n_seed:]])


def _unit(mat: np.ndarray) -> np.ndarray:
    return mat / np.sqrt((mat * mat).sum(axis=1))[:, None]


def _mean_top(rows: np.ndarray, k: int) -> np.ndarray:
    k = min(k, rows.shape[1])
    return np.sort(rows, axis=1)[:, -k:].mean(axis=1)


def gold_ranks(state: dict, test_pairs, metric: str, csls_k: int,
               candidates: list[str]) -> np.ndarray:
    """Rank of each gold target among `candidates`, ties by list order.

    CSLS: 2 cos(Mx, y) minus the mean top-k cosine of the query against
    the candidates and of the candidate against every mapped source
    entity.  L2: minus the Euclidean distance.
    """
    src_items, tgt_items = state["source"]["items"], state["target"]["items"]
    src_vec = np.array(state["source"]["vectors"])
    tgt_vec = np.array(state["target"]["vectors"])
    m = np.array(state["transform"])
    src_row = {it: i for i, it in enumerate(src_items)}
    tgt_row = {it: i for i, it in enumerate(tgt_items)}
    queries = src_vec[[src_row[ENTITY + s] for s, _ in test_pairs]] @ m.T
    cand = tgt_vec[[tgt_row[ENTITY + c] for c in candidates]]
    if metric == "l2":
        scores = -np.array([np.sqrt(((cand - q) ** 2).sum(axis=1))
                            for q in queries])
    else:
        all_src = np.array([src_vec[i] for i, it in enumerate(src_items)
                            if it.startswith(ENTITY)]) @ m.T
        cos = _unit(queries) @ _unit(cand).T
        r_query = _mean_top(cos, csls_k)
        r_cand = _mean_top(_unit(cand) @ _unit(all_src).T, csls_k)
        scores = 2.0 * cos - r_query[:, None] - r_cand[None, :]
    position = {c: i for i, c in enumerate(candidates)}
    ranks = []
    for row, (_, gold) in zip(scores, test_pairs):
        g = position[gold]
        ranks.append(1 + int((row > row[g]).sum())
                     + int((row[:g] == row[g]).sum()))
    return np.array(ranks)


def check_state(state: dict, seed_pairs) -> list[str]:
    """Orthogonal transform, one-to-one pairs, seeds kept first and in order."""
    fails = []
    m = np.array(state["transform"])
    err = float(np.abs(m.T @ m - np.eye(len(m))).max())
    if not err < ORTHOGONALITY_TOL:
        fails.append(f"transform not orthogonal: max |M^T M - I| = {err:.3g}")
    pairs = [tuple(p) for p in state["ent_pairs"]]
    if len({s for s, _ in pairs}) != len(pairs) or \
            len({t for _, t in pairs}) != len(pairs):
        fails.append("entity pairs are not one-to-one")
    if pairs[:len(seed_pairs)] != [tuple(p) for p in seed_pairs]:
        fails.append("seed pairs were not all kept")
    n_proposed = len(pairs) - len(seed_pairs)
    if n_proposed != sum(state["proposal_counts"]):
        fails.append(f"{n_proposed} proposed pairs but proposal counts sum "
                     f"to {sum(state['proposal_counts'])}")
    return fails


def proposal_precision(state: dict, n_seed: int, gold: set) -> float:
    proposed = [tuple(p) for p in state["ent_pairs"][n_seed:]]
    return (sum(p in gold for p in proposed) / len(proposed)
            if proposed else 0.0)


def check_metrics(report: dict[str, str], ranks: np.ndarray, floor: float,
                  label: str) -> list[str]:
    fails = []
    h1, mrr = float(np.mean(ranks == 1)), float(np.mean(1.0 / ranks))
    for key, mine in (("h1", h1), ("mrr", mrr), ("n", len(ranks))):
        want = f"{mine:.4f}" if key != "n" else str(mine)
        if report.get(key) != want:
            fails.append(f"{label}: report {key}={report.get(key)} but the "
                         f"recomputed value is {want}")
    if not h1 >= floor:
        fails.append(f"{label}: h1 {h1:.4f} below the floor {floor}")
    return fails


def check_round_trip(state_path: Path, scratch: Path) -> list[str]:
    """load_state then save_state reproduces the file byte for byte."""
    copy = scratch / "round_trip.json"
    loaded = alignment.load_state(state_path)
    alignment.save_state(loaded, copy)
    same = copy.read_bytes() == Path(state_path).read_bytes()
    copy.unlink()
    return [] if same else [f"{state_path}: load/save does not round-trip"]


def states_equal(a, b) -> bool:
    """Exact equality of two in-memory AlignmentStates."""
    def space_equal(x, y):
        return (x.items == y.items and np.array_equal(x.vectors, y.vectors)
                and np.array_equal(x.entity_mask, y.entity_mask))
    return (space_equal(a.source, b.source)
            and space_equal(a.target, b.target)
            and [tuple(p) for p in a.ent_pairs] == [tuple(p) for p in b.ent_pairs]
            and [tuple(p) for p in a.lex_pairs] == [tuple(p) for p in b.lex_pairs]
            and np.array_equal(a.transform, b.transform)
            and a.iteration == b.iteration
            and a.proposal_counts == b.proposal_counts
            and a.lexeme_top_f == b.lexeme_top_f)


def check_vec_file(vec_path, entities: set[str],
                   grounded_path, min_freq: int) -> list[str]:
    """Rows are finite, one per KG entity and one per kept lexeme."""
    with open(grounded_path, encoding="utf-8") as fh:
        words = Counter(tok for line in fh for tok in line.split()
                        if not tok.startswith(ENTITY))
    lexemes = {w for w, c in words.items() if c >= min_freq}
    if any(c < min_freq for c in words.values()):
        lexemes.add("<unk>")
    fails = []
    with open(vec_path, encoding="utf-8") as fh:
        count, dim = (int(x) for x in fh.readline().split())
        ents, lex, n_rows = set(), set(), 0
        for line in fh:
            parts = line.rstrip("\n").split(" ")
            n_rows += 1
            row = [float(x) for x in parts[1:]]
            if len(row) != dim or not all(math.isfinite(x) for x in row):
                fails.append(f"{vec_path}: bad row for {parts[0]}")
                break
            if parts[0].startswith(ENTITY):
                ents.add(parts[0][len(ENTITY):])
            else:
                lex.add(parts[0])
    if n_rows != count or count != len(entities) + len(lexemes):
        fails.append(f"{vec_path}: {n_rows} rows, header {count}, expected "
                     f"{len(entities)} entities + {len(lexemes)} lexemes")
    if ents != entities:
        fails.append(f"{vec_path}: entity rows differ from the KG")
    if lex != lexemes:
        fails.append(f"{vec_path}: lexeme rows differ from the corpus")
    return fails


def check_pipeline_run(bench: Path, run_dir: Path, seed: int,
                       seed_fraction: float, metric: str, csls_k: int,
                       min_freq: int, floor: float) -> tuple[list[str], dict]:
    """Checks one `run_pipeline` output directory against its benchmark."""
    gold = read_pairs(bench / "gold_entities.tsv")
    seeds, test = split_gold(gold, seed_fraction, seed)
    with open(run_dir / "alignment_state.json", encoding="utf-8") as fh:
        state = json.load(fh)
    fails = check_state(state, seeds)
    # "test" candidates: the held-out gold targets in target vocabulary order
    tgt_pos = {it: i for i, it in enumerate(state["target"]["items"])}
    candidates = sorted({t for _, t in test},
                        key=lambda e: tgt_pos[ENTITY + e])
    ranks = gold_ranks(state, test, metric, csls_k, candidates)
    fails += check_metrics(read_report(run_dir / "report.tsv"), ranks, floor,
                           str(run_dir.name))
    fails += check_round_trip(run_dir / "alignment_state.json", run_dir)
    for side in ("src", "tgt"):
        fails += check_vec_file(run_dir / f"{side}_emb.vec",
                                kg_entities(bench / f"{side}.triples"),
                                run_dir / f"{side}.grounded", min_freq)
    facts = {"h1": float(np.mean(ranks == 1)),
             "mrr": float(np.mean(1.0 / ranks)),
             "proposal_precision": proposal_precision(state, len(seeds),
                                                      set(gold))}
    return fails, facts
