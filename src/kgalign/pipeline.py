"""End-to-end orchestration in four stages: ground -> train -> align ->
evaluate.  `kgalign run` and `kgalign ablate` share one function for
the first two; `kgalign align` and `kgalign eval` run the last two alone.
A run directory holds the artifacts of every stage; identical config and
seed reproduce identical files on one numpy and BLAS build at one BLAS
thread count.  At one and at two OpenBLAS threads the files are also the
same for `align` -> `eval` on 5000 items a side, and for a run on the
500-entity default benchmark; training on larger benchmarks gives other
bytes at another thread count (higher counts are untested).
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import alignment, embedding, grounding, kg
from .alignment import AlignmentSpace, AlignmentState
from .config import ConfigError, PipelineConfig
from .evaluation import EvalReport, evaluate
from .grounding import ENTITY_PREFIX
from .synth import BenchmarkPaths

TGT_SEED_OFFSET = 1_000_003  # decorrelates the two training streams


@dataclass
class PipelineResult:
    report: EvalReport


def _quiet(_msg: str) -> None:
    pass


def split_gold(gold_pairs: list[tuple[str, str]], seed_fraction: float,
               seed: int) -> tuple[list, list]:
    """Deterministic seed/test split of the gold entity alignment; a
    split with no seed or no test pair is left to `check_pairs`."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(gold_pairs))
    n_seed = max(1, int(round(seed_fraction * len(gold_pairs))))
    seed_pairs = [gold_pairs[i] for i in order[:n_seed]]
    test_pairs = [gold_pairs[i] for i in order[n_seed:]]
    return seed_pairs, test_pairs


def ground_stage(paths: BenchmarkPaths, graphs, log=_quiet):
    """(KG, grounded corpus) of the source and of the target language,
    whose KGs are `graphs`."""
    log("stage ground: matching surface forms")
    grounded, notes = [], []
    for lang, graph, forms, corpus_path in (
            ("src", graphs[0], paths.src_forms, paths.src_corpus),
            ("tgt", graphs[1], paths.tgt_forms, paths.tgt_corpus)):
        index = grounding.build_index(forms, graph)
        corpus, stats = grounding.ground_corpus(corpus_path, index, graph)
        grounded.append((graph, corpus))
        notes.append(f"{lang} coverage={stats.coverage:.3f} "
                     f"avg_match={stats.avg_match:.1f}")
    log("  " + "; ".join(notes))
    return tuple(grounded)


def train_workers(n_jobs: int) -> int:
    """Processes that train `n_jobs` jobs: one a job, up to the cores
    this process may run on."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return min(n_jobs, cores)


# the (KG, corpus) of each side while `train_spaces` runs: a module
# variable, so that forked workers inherit it instead of unpickling it
_grounded = None


def _train_job(job):
    optimizer, side, seed = job
    graph, corpus = _grounded[side]
    space, _ = embedding.train(graph, corpus, optimizer, seed)
    return space


def train_spaces(optimizers, grounded, seed: int):
    """{optimizer config: (source space, target space)} of each of the
    distinct `optimizers`, which may be iterated twice.  Each (config,
    side) job trains in its own `fork` worker, up to `train_workers`
    at once, or in this process with one worker or without `fork`; the
    sides of a language pair are independent, so both give the same
    bytes.  The workers inherit `grounded` and send back only the
    trained spaces, and all have exited when this returns or raises.
    scipy, which the GCN's operator needs, is imported here once, before
    the fork, so that no worker imports it again."""
    global _grounded
    import scipy.sparse  # noqa: F401
    jobs = [(optimizer, side, seed + side * TGT_SEED_OFFSET)
            for optimizer in optimizers for side in (0, 1)]
    workers = train_workers(len(jobs))
    _grounded = grounded
    try:
        if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
            # kgalign starts no thread, and OpenBLAS stops its own at
            # fork; imap raises the error of the first failing job in job
            # order, as map does; leaving the block terminates and joins
            # the workers
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                spaces = list(pool.imap(_train_job, jobs))
        else:
            spaces = list(map(_train_job, jobs))
    finally:
        _grounded = None
    return dict(zip(optimizers, zip(spaces[0::2], spaces[1::2])))


def align_stage(cfg: PipelineConfig, source: AlignmentSpace,
                target: AlignmentSpace, seed_pairs, lexicon_pairs,
                state_path, log=_quiet) -> AlignmentState:
    """Induce the transform from the checked seed pairs, and save the
    state.  With `cfg.use_seed_lexicon`, the lexicon pairs whose two items
    are in the spaces join the seeds."""
    log("stage align: self-learning transform induction")
    state = AlignmentState(source=source, target=target,
                           ent_pairs=list(seed_pairs),
                           lexeme_top_f=cfg.lexeme_top_f)
    if cfg.use_seed_lexicon:
        state.lex_pairs.extend((s, t) for s, t in lexicon_pairs
                               if s in source.index and t in target.index)
    if cfg.no_self_learning:
        alignment.solve_once(state)
    else:
        alignment.self_learn(state, cfg.neighbor_query(),
                             stop_fraction=cfg.stop_fraction,
                             max_iterations=cfg.max_iterations)
    alignment.save_state(state, state_path)
    log(f"  {state.iteration} iteration(s), "
        f"{len(state.ent_pairs)} entity pairs, "
        f"{len(state.lex_pairs)} lexeme pairs")
    return state


def evaluate_stage(cfg: PipelineConfig, test_pairs, state: AlignmentState,
                   report_path=None, log=_quiet) -> EvalReport:
    """Score the checked test pairs."""
    log("stage eval: ranking held-out gold pairs")
    report = evaluate(test_pairs, state, cfg.neighbor_query(), p=cfg.eval_p,
                      candidate_mode=cfg.candidate_mode)
    if report_path is not None:
        report.write(report_path)
    log(f"  h1={report.h_at_1:.4f} h_{report.p}={report.h_at_p:.4f} "
        f"mrr={report.mrr:.4f} n={report.n_test}")
    return report


def read_gold(paths: BenchmarkPaths, configs, graphs, seed: int):
    """(seed pairs, test pairs) of the gold entity pairs, split at the seed
    fraction that all `configs` share (no ablation changes it), and the
    gold lexeme pairs if one of `configs` uses the seed lexicon (else
    none).  The pairs must name entities of `graphs`, the source and
    target KGs, each at most once a side."""
    (fraction,) = {c.seed_fraction for c in configs}
    entities = alignment.load_seed_pairs(paths.gold_entities)
    known = tuple({ENTITY_PREFIX + e for e in graph.entities}
                  for graph in graphs)
    split = split_gold(entities, fraction, seed)
    for kind, pairs in zip(("seed", "test"), split):
        alignment.check_pairs(kind, pairs, known, paths.gold_entities)
    if not any(c.use_seed_lexicon for c in configs):
        return split, []
    return split, alignment.load_lexicon(paths.gold_lexemes)


def _ground_and_train(configs, paths: BenchmarkPaths, seed: int, log):
    """What `run` and `ablate` do before alignment: the `read_gold` gold,
    read first so that a bad line stops them before they write anything,
    the grounded corpora, and {optimizer config: (source space, target
    space)} of each distinct optimizer config of `configs`."""
    graphs = (kg.load_kg(paths.src_triples, "src"),
              kg.load_kg(paths.tgt_triples, "tgt"))
    gold = read_gold(paths, configs, graphs, seed)
    grounded = ground_stage(paths, graphs, log)
    log("stage train: joint KG+text embedding learning")
    spaces = train_spaces(dict.fromkeys(c.optimizer for c in configs),
                          grounded, seed)
    return gold, grounded, spaces


def _align_and_evaluate(cfg, gold, grounded, spaces, out: Path,
                        log) -> EvalReport:
    """Write the grounded corpora and the spaces to `out`, then align the
    `.vec` files written, as `kgalign align` does, on the seed pairs of
    the `read_gold` split, and evaluate on its test pairs."""
    out.mkdir(parents=True, exist_ok=True)
    for side, (_, corpus), space in zip(("src", "tgt"), grounded, spaces):
        grounding.write_grounded(corpus, out / f"{side}.grounded")
        embedding.write_embeddings(space, out / f"{side}_emb")
    (seed_pairs, test_pairs), gold_lexemes = gold
    state = align_stage(cfg, AlignmentSpace.from_file(out / "src_emb.vec"),
                        AlignmentSpace.from_file(out / "tgt_emb.vec"),
                        seed_pairs, gold_lexemes,
                        out / "alignment_state.json", log)
    return evaluate_stage(cfg, test_pairs, state, out / "report.tsv", log)


def run_pipeline(cfg: PipelineConfig, paths: BenchmarkPaths, out_dir,
                 seed: int, log=_quiet) -> PipelineResult:
    gold, grounded, spaces = _ground_and_train([cfg], paths, seed, log)
    return PipelineResult(_align_and_evaluate(
        cfg, gold, grounded, spaces[cfg.optimizer], Path(out_dir), log))


# name -> (flag that switches it on in `kgalign run`, or None,
#          PipelineConfig overrides, OptimizerConfig overrides)
ABLATIONS: dict[str, tuple[str | None, dict, dict]] = {
    "full": (None, {}, {}),
    "no_self_learning": ("--no-self-learning", {"no_self_learning": True}, {}),
    "no_gcn": ("--no-gcn", {}, {"gcn_layers": 0}),
    "no_text": ("--no-text", {}, {"use_text_loss": False}),
    "no_kg": ("--no-kg", {}, {"use_kg_loss": False}),
    "l2_metric": (None, {"metric": "l2"}, {}),
    "with_seed_lexicon": ("--seed-lexicon", {"use_seed_lexicon": True}, {}),
}


def ablation_config(base: PipelineConfig, name: str) -> PipelineConfig:
    """`base` with the overrides of ablation `name` applied."""
    if name not in ABLATIONS:
        raise ConfigError(f"unknown ablation {name!r}")
    _, pipeline_overrides, optimizer_overrides = ABLATIONS[name]
    return replace(base, **pipeline_overrides,
                   optimizer=replace(base.optimizer, **optimizer_overrides))


def run_ablation_grid(base: PipelineConfig, paths: BenchmarkPaths, out_dir,
                      seed: int, names=None,
                      log=_quiet) -> dict[str, EvalReport]:
    """Each ablation's run in its own directory under `out_dir`, of the
    `names` if given, at least one (`kgalign ablate --settings` checks
    that).  The corpora are grounded once, and each distinct optimizer
    config is trained once, all of them before any setting is aligned."""
    configs = {name: ablation_config(base, name)
               for name in (ABLATIONS if names is None else names)}
    gold, grounded, spaces = _ground_and_train(list(configs.values()),
                                               paths, seed, log)
    reports = {}
    for name, cfg in configs.items():
        log(f"== ablation: {name} ==")
        reports[name] = _align_and_evaluate(
            cfg, gold, grounded, spaces[cfg.optimizer], Path(out_dir) / name,
            log)
    return reports


def format_ablation_table(reports: dict[str, EvalReport]) -> str:
    lines = [f"{'setting':<20} {'H@1':>8} {'H@p':>8} {'MRR':>8}"]
    for name, rep in reports.items():
        lines.append(f"{name:<20} {rep.h_at_1:>8.4f} {rep.h_at_p:>8.4f} "
                     f"{rep.mrr:>8.4f}")
    return "\n".join(lines)
