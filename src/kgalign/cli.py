"""kgalign command line interface.

Exit codes: 0 success, 1 input/configuration error, 2 numerical failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click
import numpy as np

from . import alignment, embedding, grounding, kg, pipeline, synth
from .config import (CANDIDATE_MODES, METRICS, ConfigError, OptimizerConfig,
                     PipelineConfig, load_optimizer_config)
from .embedding import TrainingDivergence


@click.group()
def cli():
    """Cross-lingual KG entity alignment via joint KG+text embeddings."""


_SYNTH_DEFAULTS = synth.BenchmarkParams()

# numpy seeds its generators with non-negative integers only
_seed_option = click.option("--seed", default=0, show_default=True,
                            type=click.IntRange(min=0))

# synth.BenchmarkParams fields in option order; the option of `n_walks` is
# `--walks`, of `walk_length` `--walk-length`
_SYNTH_FIELDS = ("n_entities", "n_triples", "n_relations", "edge_drop",
                 "n_walks", "walk_length", "n_common_concepts",
                 "signature_size", "concept_skew", "seed_lexicon_size")

# flag of each pipeline.ABLATIONS entry that `run`, `train` and `align` can
# switch on
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


_SETTINGS = PipelineConfig()

# option and type (None: that of the default) of each align and evaluate
# setting of PipelineConfig; the option's parameter is named after its field
_SETTING_OPTIONS = {
    "metric": ("--metric", click.Choice(METRICS)),
    "csls_k": ("--csls-k", None),
    "stop_fraction": ("--stop-frac", None),
    "max_iterations": ("--max-iterations", None),
    "lexeme_top_f": ("--top-f", None),
    "seed_fraction": ("--seed-frac", None),
    "eval_p": ("--p", None),
    "candidate_mode": ("--candidates", click.Choice(CANDIDATE_MODES)),
}


def _setting_options(*fields):
    return [click.option(_SETTING_OPTIONS[f][0], f, type=_SETTING_OPTIONS[f][1],
                         default=getattr(_SETTINGS, f), show_default=True)
            for f in fields]


def _pipeline_config(config_path=None, **options) -> PipelineConfig:
    """The validated PipelineConfig of a command's setting options and
    ablation flags, over the desk-scale optimizer config and `--config`."""
    opt = OptimizerConfig.desk_scale()
    if config_path:
        opt = load_optimizer_config(config_path, opt)
    cfg = PipelineConfig(optimizer=opt, **{
        k: v for k, v in options.items() if k not in pipeline.ABLATIONS})
    for name in pipeline.ABLATIONS:  # set flags, in the order of the table
        if options.get(name):
            cfg = pipeline.ablation_config(cfg, name)
    return cfg


@cli.command("synth")
@click.option("--out", "out_dir", required=True, type=click.Path())
@_with_options([click.option(
    "--" + name.removeprefix("n_").replace("_", "-"), name,
    default=getattr(_SYNTH_DEFAULTS, name), show_default=True)
    for name in _SYNTH_FIELDS])
@_seed_option
def synth_cmd(out_dir, seed, **params):
    """Generate a synthetic two-language benchmark."""
    params = synth.BenchmarkParams(**params)
    paths = synth.generate_benchmark(params, seed, out_dir)
    click.echo(f"benchmark written to {Path(out_dir)}")
    click.echo(f"  source triples: {paths.src_triples}")
    click.echo(f"  gold entities:  {paths.gold_entities}")


@cli.command("ground")
@click.option("--kg", "kg_path", required=True, type=click.Path(exists=True))
@click.option("--forms", required=True, type=click.Path(exists=True))
@click.option("--corpus", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
@click.option("--no-case-fold", is_flag=True)
def ground_cmd(kg_path, forms, corpus, out, no_case_fold):
    """Ground a corpus against KG surface forms."""
    graph = kg.load_kg(kg_path, "xx")  # grounding reads no language tag
    index = grounding.build_index(forms, graph, case_fold=not no_case_fold)
    grounded, stats = grounding.ground_corpus(corpus, index, graph)
    grounding.write_grounded(grounded, out)
    click.echo(f"coverage\t{stats.coverage:.4f}")
    click.echo(f"avg_match\t{stats.avg_match:.4f}")


@cli.command("train")
@click.option("--kg", "kg_path", required=True, type=click.Path(exists=True))
@click.option("--grounded", required=True, type=click.Path(exists=True))
@click.option("--config", "config_path", type=click.Path(exists=True))
@_seed_option
@click.option("--out", "out_prefix", required=True, type=click.Path())
@_with_ablation_flags(_TRAIN_ABLATIONS)
def train_cmd(kg_path, grounded, config_path, seed, out_prefix, **flags):
    """Train the joint KG + text embedding of one language."""
    cfg = _pipeline_config(config_path, **flags).optimizer
    graph = kg.load_kg(kg_path, "xx")  # one language: no side to name
    corpus = grounding.load_pregrounded(grounded, graph)
    space, _ = embedding.train(graph, corpus, cfg, seed)
    embedding.write_embeddings(space, out_prefix)
    click.echo(f"embeddings written to {out_prefix}.vec")


@cli.command("align")
@click.option("--src-emb", required=True, type=click.Path())
@click.option("--tgt-emb", required=True, type=click.Path())
@click.option("--seed-entities", required=True, type=click.Path(exists=True))
@click.option("--seed-lexicon", type=click.Path(exists=True))
@_with_options(_setting_options("metric", "csls_k", "stop_fraction",
                                "max_iterations", "lexeme_top_f"))
@_with_ablation_flags(["no_self_learning"])
@click.option("--out", "out_path", required=True, type=click.Path())
def align_cmd(src_emb, tgt_emb, seed_entities, seed_lexicon, out_path,
              **options):
    """Induce the cross-space transform by self-learning."""
    cfg = _pipeline_config(use_seed_lexicon=seed_lexicon is not None,
                           **options)
    state = pipeline.align_stage(
        cfg, alignment.AlignmentSpace.from_file(f"{src_emb}.vec"),
        alignment.AlignmentSpace.from_file(f"{tgt_emb}.vec"),
        alignment.load_seed_pairs(seed_entities), seed_entities,
        alignment.load_seed_pairs(seed_lexicon) if seed_lexicon else [],
        out_path)
    click.echo(f"iterations\t{state.iteration}")
    click.echo(f"entity_pairs\t{len(state.ent_pairs)}")
    click.echo(f"lexeme_pairs\t{len(state.lex_pairs)}")


@cli.command("eval")
@click.option("--state", "state_path", required=True,
              type=click.Path(exists=True))
@click.option("--test", "test_path", required=True,
              type=click.Path(exists=True))
@_with_options(_setting_options("eval_p", "metric", "csls_k",
                                "candidate_mode"))
@click.option("--out", "out_path", type=click.Path())
def eval_cmd(state_path, test_path, out_path, **options):
    """Evaluate alignment predictions against gold pairs."""
    cfg = _pipeline_config(**options)
    state = alignment.load_state(state_path)
    report = pipeline.evaluate_stage(
        cfg, alignment.load_seed_pairs(test_path), test_path, state, out_path)
    for line in report.lines():
        click.echo(line)


_run_options = [
    click.option("--bench", required=True, type=click.Path(exists=True),
                 help="benchmark directory produced by `kgalign synth`"),
    click.option("--out", "out_dir", required=True, type=click.Path()),
    click.option("--config", "config_path", type=click.Path(exists=True)),
    _seed_option,
    *_setting_options("metric", "csls_k", "stop_fraction", "seed_fraction",
                      "eval_p", "candidate_mode"),
]


@cli.command("run")
@_with_options(_run_options)
@_with_ablation_flags(ABLATION_FLAGS)
def run_cmd(bench, out_dir, config_path, seed, **options):
    """Run the full pipeline on a benchmark directory."""
    cfg = _pipeline_config(config_path, **options)
    paths = synth.BenchmarkPaths.in_dir(bench)
    pipeline.run_pipeline(cfg, paths, out_dir, seed, log=click.echo)


def _setting_names(ctx, param, value) -> list[str]:
    names = [s.strip() for s in value.split(",") if s.strip()]
    if not names:
        raise click.BadParameter("names no ablation setting")
    return names


@cli.command("ablate")
@_with_options(_run_options)
@click.option("--settings", default=",".join(pipeline.ABLATIONS),
              show_default=True, callback=_setting_names,
              help="comma-separated ablation names")
def ablate_cmd(bench, out_dir, config_path, seed, settings, **options):
    """Run the ablation grid and print a comparison table."""
    cfg = _pipeline_config(config_path, **options)
    paths = synth.BenchmarkPaths.in_dir(bench)
    reports = pipeline.run_ablation_grid(cfg, paths, out_dir, seed,
                                         names=settings, log=click.echo)
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
    except MemoryError as exc:
        # numpy's MemoryError says what it could not allocate; a bare one
        # has no message
        detail = f": {exc}" if str(exc) else ""
        click.echo(f"error: out of memory{detail}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
