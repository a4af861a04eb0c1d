"""kgalign command line interface.

Exit codes: 0 success, 1 input/configuration error, 2 numerical failure.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import alignment, embedding, grounding, kg, pipeline, synth
from .config import (ConfigError, NeighborQuery, OptimizerConfig,
                     PipelineConfig, load_optimizer_config)
from .embedding import TrainingDivergence
from .evaluation import evaluate


@click.group()
def cli():
    """Cross-lingual KG entity alignment via joint KG+text embeddings."""


_SYNTH_DEFAULTS = synth.BenchmarkParams()

# flag of each pipeline.ABLATIONS entry that `run` and `train` can switch on
ABLATION_FLAGS = {
    "no_self_learning": "--no-self-learning",
    "no_gcn": "--no-gcn",
    "no_text": "--no-text",
    "no_kg": "--no-kg",
    "with_seed_lexicon": "--seed-lexicon",
}
# `train` builds one embedding space: it takes the optimizer-only ablations
_TRAIN_ABLATIONS = [n for n in ABLATION_FLAGS if not pipeline.ABLATIONS[n][0]]


def _with_options(opts):
    def wrap(fn):
        for opt in reversed(opts):
            fn = opt(fn)
        return fn
    return wrap


def _with_ablation_flags(names):
    return _with_options([click.option(ABLATION_FLAGS[n], n, is_flag=True)
                          for n in names])


def _chosen(flags: dict) -> list[str]:
    """Ablation names whose flag is set, in the order of the table."""
    return [name for name in pipeline.ABLATIONS if flags.get(name)]


@cli.command("synth")
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--entities", default=_SYNTH_DEFAULTS.n_entities,
              show_default=True)
@click.option("--triples", default=_SYNTH_DEFAULTS.n_triples,
              show_default=True)
@click.option("--relations", default=_SYNTH_DEFAULTS.n_relations,
              show_default=True)
@click.option("--edge-drop", default=_SYNTH_DEFAULTS.edge_drop,
              show_default=True)
@click.option("--walks", default=_SYNTH_DEFAULTS.n_walks, show_default=True)
@click.option("--walk-length", default=_SYNTH_DEFAULTS.walk_length,
              show_default=True)
@click.option("--common-concepts", default=_SYNTH_DEFAULTS.n_common_concepts,
              show_default=True)
@click.option("--signature-size", default=_SYNTH_DEFAULTS.signature_size,
              show_default=True)
@click.option("--concept-skew", default=_SYNTH_DEFAULTS.concept_skew,
              show_default=True)
@click.option("--seed-lexicon-size", default=_SYNTH_DEFAULTS.seed_lexicon_size,
              show_default=True)
@click.option("--seed", default=0, show_default=True)
def synth_cmd(out_dir, entities, triples, relations, edge_drop, walks,
              walk_length, common_concepts, signature_size, concept_skew,
              seed_lexicon_size, seed):
    """Generate a synthetic two-language benchmark."""
    params = synth.BenchmarkParams(
        n_entities=entities, n_triples=triples, n_relations=relations,
        edge_drop=edge_drop, n_walks=walks, walk_length=walk_length,
        n_common_concepts=common_concepts, signature_size=signature_size,
        concept_skew=concept_skew, seed_lexicon_size=seed_lexicon_size)
    paths = synth.generate_benchmark(params, seed, out_dir)
    click.echo(f"benchmark written to {Path(out_dir)}")
    click.echo(f"  source triples: {paths.src_triples}")
    click.echo(f"  gold entities:  {paths.gold_entities}")


@cli.command("ground")
@click.option("--kg", "kg_path", required=True, type=click.Path(exists=True))
@click.option("--forms", required=True, type=click.Path(exists=True))
@click.option("--corpus", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
@click.option("--lang", default="xx", show_default=True)
@click.option("--no-case-fold", is_flag=True)
@click.option("--min-freq", default=5, show_default=True)
def ground_cmd(kg_path, forms, corpus, out, lang, no_case_fold, min_freq):
    """Ground a corpus against KG surface forms."""
    graph = kg.load_kg(kg_path, lang)
    index = grounding.build_index(forms, graph, case_fold=not no_case_fold)
    grounded, stats = grounding.ground_corpus(corpus, index, graph,
                                              min_freq=min_freq)
    grounding.write_grounded(grounded, out)
    click.echo(f"coverage\t{stats.coverage:.4f}")
    click.echo(f"avg_match\t{stats.avg_match:.4f}")


@cli.command("train")
@click.option("--kg", "kg_path", required=True, type=click.Path(exists=True))
@click.option("--grounded", required=True, type=click.Path(exists=True))
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_prefix", required=True, type=click.Path())
@click.option("--lang", default="xx", show_default=True)
@click.option("--desk-scale/--full-scale", default=True, show_default=True)
@_with_ablation_flags(_TRAIN_ABLATIONS)
def train_cmd(kg_path, grounded, config_path, seed, out_prefix, lang,
              desk_scale, **flags):
    """Train the joint KG + text embedding of one language."""
    base = OptimizerConfig.desk_scale() if desk_scale else OptimizerConfig()
    cfg = load_optimizer_config(config_path, base) if config_path else base
    for name in _chosen(flags):
        cfg = replace(cfg, **pipeline.ABLATIONS[name][1])
    graph = kg.load_kg(kg_path, lang)
    corpus = grounding.load_pregrounded(grounded, graph,
                                        min_freq=cfg.min_freq)
    space = embedding.train(graph, corpus, cfg, seed)
    embedding.write_embeddings(space, out_prefix)
    click.echo(f"embeddings written to {out_prefix}.vec")


@cli.command("align")
@click.option("--src-emb", required=True, type=click.Path())
@click.option("--tgt-emb", required=True, type=click.Path())
@click.option("--seed-entities", required=True, type=click.Path(exists=True))
@click.option("--seed-lexicon", type=click.Path(exists=True))
@click.option("--metric", default="csls", type=click.Choice(["csls", "l2"]),
              show_default=True)
@click.option("--csls-k", default=10, show_default=True)
@click.option("--stop-frac", default=0.01, show_default=True)
@click.option("--max-iterations", default=50, show_default=True)
@click.option("--top-f", default=10000, show_default=True)
@click.option("--no-self-learning", is_flag=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def align_cmd(src_emb, tgt_emb, seed_entities, seed_lexicon, metric, csls_k,
              stop_frac, max_iterations, top_f, no_self_learning, out_path):
    """Induce the cross-space transform by self-learning."""
    state = alignment.AlignmentState(
        source=alignment.AlignmentSpace.from_file(f"{src_emb}.vec"),
        target=alignment.AlignmentSpace.from_file(f"{tgt_emb}.vec"),
        ent_pairs=alignment.load_seed_pairs(seed_entities),
        lexeme_top_f=top_f,
    )
    if seed_lexicon:
        state.lex_pairs.extend(alignment.load_seed_pairs(seed_lexicon))
    query = NeighborQuery(metric=metric, csls_k=csls_k)
    if no_self_learning:
        alignment.solve_once(state)
    else:
        alignment.self_learn(state, query, stop_fraction=stop_frac,
                             max_iterations=max_iterations)
    alignment.save_state(state, out_path)
    click.echo(f"iterations\t{state.iteration}")
    click.echo(f"entity_pairs\t{len(state.ent_pairs)}")
    click.echo(f"lexeme_pairs\t{len(state.lex_pairs)}")


@cli.command("eval")
@click.option("--state", "state_path", required=True,
              type=click.Path(exists=True))
@click.option("--test", "test_path", required=True,
              type=click.Path(exists=True))
@click.option("--p", default=10, show_default=True)
@click.option("--metric", default="csls", type=click.Choice(["csls", "l2"]),
              show_default=True)
@click.option("--csls-k", default=10, show_default=True)
@click.option("--candidates", default="test",
              type=click.Choice(["test", "all"]), show_default=True)
@click.option("--out", "out_path", type=click.Path())
def eval_cmd(state_path, test_path, p, metric, csls_k, candidates, out_path):
    """Evaluate alignment predictions against gold pairs."""
    state = alignment.load_state(state_path)
    test_pairs = alignment.load_seed_pairs(test_path)
    query = NeighborQuery(metric=metric, csls_k=csls_k)
    report = evaluate(test_pairs, state, query, p=p,
                      candidate_mode=candidates)
    for line in report.lines():
        click.echo(line)
    if out_path:
        report.write(out_path)


def _pipeline_config(config_path, metric, csls_k, stop_frac, seed_frac, p,
                     candidates) -> PipelineConfig:
    opt = OptimizerConfig.desk_scale()
    if config_path:
        opt = load_optimizer_config(config_path, opt)
    return PipelineConfig(
        optimizer=opt, metric=metric, csls_k=csls_k, stop_fraction=stop_frac,
        seed_fraction=seed_frac, eval_p=p, candidate_mode=candidates)


_run_options = [
    click.option("--bench", required=True, type=click.Path(exists=True),
                 help="benchmark directory produced by `kgalign synth`"),
    click.option("--out", "out_dir", required=True, type=click.Path()),
    click.option("--config", "config_path", type=click.Path(exists=True)),
    click.option("--seed", default=0, show_default=True),
    click.option("--metric", default="csls",
                 type=click.Choice(["csls", "l2"]), show_default=True),
    click.option("--csls-k", default=10, show_default=True),
    click.option("--stop-frac", default=0.01, show_default=True),
    click.option("--seed-frac", default=0.3, show_default=True),
    click.option("--p", default=10, show_default=True),
    click.option("--candidates", default="test",
                 type=click.Choice(["test", "all"]), show_default=True),
]


@cli.command("run")
@_with_options(_run_options)
@_with_ablation_flags(ABLATION_FLAGS)
def run_cmd(bench, out_dir, config_path, seed, metric, csls_k, stop_frac,
            seed_frac, p, candidates, **flags):
    """Run the full pipeline on a benchmark directory."""
    cfg = _pipeline_config(config_path, metric, csls_k, stop_frac, seed_frac,
                           p, candidates)
    for name in _chosen(flags):
        cfg = pipeline.ablation_config(cfg, name)
    paths = synth.BenchmarkPaths.in_dir(bench)
    pipeline.run_pipeline(cfg, paths, out_dir, seed, log=click.echo)


@cli.command("ablate")
@_with_options(_run_options)
@click.option("--settings", default=",".join(pipeline.ABLATIONS),
              show_default=True, help="comma-separated ablation names")
def ablate_cmd(bench, out_dir, config_path, seed, metric, csls_k, stop_frac,
               seed_frac, p, candidates, settings):
    """Run the ablation grid and print a comparison table."""
    cfg = _pipeline_config(config_path, metric, csls_k, stop_frac, seed_frac,
                           p, candidates)
    paths = synth.BenchmarkPaths.in_dir(bench)
    names = [s.strip() for s in settings.split(",") if s.strip()]
    reports = pipeline.run_ablation_grid(cfg, paths, out_dir, seed,
                                         names=names, log=click.echo)
    click.echo(pipeline.format_ablation_table(reports))


def main():
    try:
        cli.main(standalone_mode=False)
    except click.exceptions.Abort:
        sys.exit(1)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    # first: LinAlgError is a ValueError, and would otherwise exit 1
    except (TrainingDivergence, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(2)
    except (ConfigError, ValueError, OSError, KeyError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
