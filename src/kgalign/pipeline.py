"""End-to-end orchestration: ground -> train -> align -> evaluate.

Every stage persists its artifacts under the run directory so stages can
be inspected and re-run; identical config and seed reproduce identical
files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import alignment, embedding, grounding, kg
from .config import ConfigError, NeighborQuery, PipelineConfig
from .evaluation import EvalReport, evaluate
from .synth import BenchmarkPaths

TGT_SEED_OFFSET = 1_000_003  # decorrelates the two training streams


@dataclass
class PipelineResult:
    report: EvalReport
    state_path: Path
    report_path: Path
    src_emb_prefix: Path
    tgt_emb_prefix: Path


def split_gold(gold_pairs: list[tuple[str, str]], seed_fraction: float,
               seed: int) -> tuple[list, list]:
    """Deterministic seed/test split of the gold entity alignment."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(gold_pairs))
    n_seed = max(1, int(round(seed_fraction * len(gold_pairs))))
    if n_seed >= len(gold_pairs):
        raise ConfigError("seed fraction leaves no test pairs")
    seed_pairs = [gold_pairs[i] for i in order[:n_seed]]
    test_pairs = [gold_pairs[i] for i in order[n_seed:]]
    return seed_pairs, test_pairs


def _ground_side(triples_path, forms_path, corpus_path, lang, cfg,
                 out_prefix: Path):
    graph = kg.load_kg(triples_path, lang)
    index = grounding.build_index(forms_path, graph)
    corpus, stats = grounding.ground_corpus(corpus_path, index, graph,
                                            min_freq=cfg.optimizer.min_freq)
    grounding.write_grounded(corpus, out_prefix.with_suffix(".grounded"))
    return graph, corpus, stats


def run_pipeline(cfg: PipelineConfig, paths: BenchmarkPaths, out_dir,
                 seed: int, log=None) -> PipelineResult:
    log = log or (lambda _msg: None)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    log("stage ground: matching surface forms")
    src_kg, src_corpus, src_stats = _ground_side(
        paths.src_triples, paths.src_forms, paths.src_corpus, "src",
        cfg, out / "src")
    tgt_kg, tgt_corpus, tgt_stats = _ground_side(
        paths.tgt_triples, paths.tgt_forms, paths.tgt_corpus, "tgt",
        cfg, out / "tgt")
    log(f"  src coverage={src_stats.coverage:.3f} "
        f"avg_match={src_stats.avg_match:.1f}; "
        f"tgt coverage={tgt_stats.coverage:.3f} "
        f"avg_match={tgt_stats.avg_match:.1f}")

    log("stage train: joint KG+text embedding learning")
    src_space = embedding.train(src_kg, src_corpus, cfg.optimizer, seed)
    tgt_space = embedding.train(tgt_kg, tgt_corpus, cfg.optimizer,
                                seed + TGT_SEED_OFFSET)
    src_prefix, tgt_prefix = out / "src_emb", out / "tgt_emb"
    embedding.write_embeddings(src_space, src_prefix)
    embedding.write_embeddings(tgt_space, tgt_prefix)

    log("stage align: self-learning transform induction")
    gold = alignment.load_seed_pairs(paths.gold_entities)
    seed_pairs, test_pairs = split_gold(gold, cfg.seed_fraction, seed)
    state = alignment.AlignmentState(
        source=alignment.AlignmentSpace.from_space(src_space),
        target=alignment.AlignmentSpace.from_space(tgt_space),
        ent_pairs=list(seed_pairs),
        lexeme_top_f=cfg.lexeme_top_f,
    )
    if cfg.use_seed_lexicon:
        lex_gold = alignment.load_seed_pairs(paths.gold_lexemes)
        present = [
            (s, t) for s, t in lex_gold
            if s in state.source.index and t in state.target.index
        ]
        state.lex_pairs.extend(present)
    query = cfg.neighbor_query()
    if cfg.no_self_learning:
        alignment.solve_once(state)
    else:
        alignment.self_learn(state, query,
                             stop_fraction=cfg.stop_fraction,
                             max_iterations=cfg.max_iterations)
    state_path = out / "alignment_state.json"
    alignment.save_state(state, state_path)
    log(f"  {state.iteration} iteration(s), "
        f"{len(state.ent_pairs)} entity pairs, "
        f"{len(state.lex_pairs)} lexeme pairs")

    log("stage eval: ranking held-out gold pairs")
    report = evaluate(test_pairs, state, query, p=cfg.eval_p,
                      candidate_mode=cfg.candidate_mode)
    report_path = out / "report.tsv"
    report.write(report_path)
    log(f"  h1={report.h_at_1:.4f} h_{report.p}={report.h_at_p:.4f} "
        f"mrr={report.mrr:.4f} n={report.n_test}")
    return PipelineResult(report=report, state_path=state_path,
                          report_path=report_path,
                          src_emb_prefix=src_prefix,
                          tgt_emb_prefix=tgt_prefix)


# name -> (PipelineConfig overrides, OptimizerConfig overrides)
ABLATIONS: dict[str, tuple[dict, dict]] = {
    "full": ({}, {}),
    "no_self_learning": ({"no_self_learning": True}, {}),
    "no_gcn": ({}, {"gcn_enabled": False}),
    "no_text": ({}, {"use_text_loss": False}),
    "no_kg": ({}, {"use_kg_loss": False}),
    "l2_metric": ({"metric": "l2"}, {}),
    "with_seed_lexicon": ({"use_seed_lexicon": True}, {}),
}


def ablation_config(base: PipelineConfig, name: str) -> PipelineConfig:
    """`base` with the overrides of ablation `name` applied."""
    if name not in ABLATIONS:
        raise ConfigError(f"unknown ablation {name!r}")
    pipeline_overrides, optimizer_overrides = ABLATIONS[name]
    return replace(base, **pipeline_overrides,
                   optimizer=replace(base.optimizer, **optimizer_overrides))


def run_ablation_grid(base: PipelineConfig, paths: BenchmarkPaths, out_dir,
                      seed: int, names=None, log=None) -> dict[str, EvalReport]:
    names = names or list(ABLATIONS)
    out = Path(out_dir)
    reports = {}
    for name in names:
        cfg = ablation_config(base, name)
        if log:
            log(f"== ablation: {name} ==")
        result = run_pipeline(cfg, paths, out / name, seed, log=log)
        reports[name] = result.report
    return reports


def format_ablation_table(reports: dict[str, EvalReport]) -> str:
    lines = [f"{'setting':<20} {'H@1':>8} {'H@p':>8} {'MRR':>8}"]
    for name, rep in reports.items():
        lines.append(f"{name:<20} {rep.h_at_1:>8.4f} {rep.h_at_p:>8.4f} "
                     f"{rep.mrr:>8.4f}")
    return "\n".join(lines)
