import hashlib
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

import kgalign
from kgalign import alignment, embedding, pipeline
from kgalign.cli import cli
from kgalign.config import ConfigError, OptimizerConfig, PipelineConfig
from kgalign.embedding import TrainingDivergence
from kgalign.pipeline import (ABLATIONS, ablation_config,
                              format_ablation_table, run_ablation_grid,
                              run_pipeline, split_gold)
from kgalign.synth import BenchmarkParams, generate_benchmark

from conftest import main_exit_code, time_limit


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    params = BenchmarkParams(n_entities=40, n_triples=160, n_relations=3,
                             edge_drop=0.05, n_walks=200, walk_length=5,
                             n_common_concepts=20)
    out = tmp_path_factory.mktemp("bench")
    return generate_benchmark(params, seed=0, out_dir=out)


# `kgalign run` arguments that select each ablation
RUN_ARGS = {"full": [], "l2_metric": ["--metric", "l2"],
            **{name: [flag] for name, (flag, _, _) in ABLATIONS.items()
               if flag}}

# a valid value other than the default of each PipelineConfig field that
# declares a CLI option
SETTING_VALUES = {"metric": "l2", "csls_k": 3, "stop_fraction": 0.5,
                  "max_iterations": 7, "lexeme_top_f": 5,
                  "seed_fraction": 0.4, "eval_p": 3, "candidate_mode": "all"}

# (command, field, option) of each setting option of the staged commands
SETTING_OPTIONS = [
    (command, f.name, f.metadata["option"])
    for f in fields(PipelineConfig) if f.metadata
    for command in ("run", "align", "eval")
    if any(f.metadata["option"] in p.opts
           for p in cli.commands[command].params)]


def built_config(command, tmp_path, monkeypatch, *options):
    """The PipelineConfig that `kgalign <command>`, one of `run`, `align`
    and `eval`, builds with `options` and passes to its stage function,
    which is replaced and does not run."""
    built = []

    def stage(cfg, *args, **kwargs):
        built.append(cfg)
        return SimpleNamespace(iteration=0, ent_pairs=[], lex_pairs=[],
                               lines=list)

    monkeypatch.setattr(pipeline, "run_pipeline", stage)
    monkeypatch.setattr(pipeline, "align_stage", stage)
    monkeypatch.setattr(pipeline, "evaluate_stage", stage)
    # one space of the entities of `pairs.tsv`, whose pair it checks
    space = alignment.AlignmentSpace(("@ent:a", "@ent:b"), np.eye(2))
    monkeypatch.setattr(alignment.AlignmentSpace, "from_file",
                        lambda p: space)
    monkeypatch.setattr(alignment, "load_state",
                        lambda p: SimpleNamespace(source=space, target=space))
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("a\tb\n", encoding="utf-8")
    args = {"run": ["--bench", tmp_path, "--out", tmp_path / "out"],
            "align": ["--src-emb", tmp_path / "src", "--tgt-emb",
                      tmp_path / "tgt", "--seed-entities", pairs,
                      "--out", tmp_path / "state.json"],
            "eval": ["--state", pairs, "--test", pairs]}[command]
    res = CliRunner().invoke(cli, [command, *map(str, args + list(options))])
    assert res.exit_code == 0, res.output
    return built.pop()


# the files of one run directory
ARTIFACTS = ("src.grounded", "tgt.grounded", "src_emb.vec", "src_emb.rel.vec",
             "tgt_emb.vec", "tgt_emb.rel.vec", "alignment_state.json",
             "report.tsv")


def planted_inputs(out, seed=0, n_ent=3000, n_lex=2000, dim=32):
    """`.vec` files of a source space and of a noisy rotated copy of it,
    with 30% of the entity pairs as seed pairs and the rest as test
    pairs: inputs the size of the benchmark's align-planted workload."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    src = rng.normal(size=(n_ent + n_lex, dim))
    tgt = src @ (q * np.sign(np.diag(r))).T + 1.2 * rng.normal(size=src.shape)
    for side, ent, lex, mat in (("src", "a", "sw", src),
                                ("tgt", "b", "tw", tgt)):
        names = ([f"@ent:{ent}{i}" for i in range(n_ent)]
                 + [f"{lex}{j}" for j in range(n_lex)])
        with open(out / f"{side}.vec", "w", encoding="utf-8") as fh:
            fh.write(f"{len(names)} {dim}\n")
            fh.writelines(name + " " + " ".join(map(repr, row)) + "\n"
                          for name, row in zip(names, mat.tolist()))
    order = rng.permutation(n_ent)
    n_seed = round(0.3 * n_ent)
    for name, idx in (("seed.tsv", order[:n_seed]),
                      ("test.tsv", order[n_seed:])):
        (out / name).write_text("".join(f"a{i}\tb{i}\n" for i in idx),
                                encoding="utf-8")


def quick_config(**overrides):
    opt = OptimizerConfig.desk_scale(dim=8, batch_size=32, epochs=40,
                                     min_freq=1)
    return PipelineConfig(optimizer=opt, **overrides)


class TestSplitGold:
    def test_sizes_and_disjointness(self):
        gold = [(f"a{i}", f"b{i}") for i in range(100)]
        seed_pairs, test_pairs = split_gold(gold, 0.3, seed=0)
        assert len(seed_pairs) == 30
        assert len(test_pairs) == 70
        assert not set(seed_pairs) & set(test_pairs)
        assert sorted(seed_pairs + test_pairs) == sorted(gold)

    def test_deterministic(self):
        gold = [(f"a{i}", f"b{i}") for i in range(50)]
        assert split_gold(gold, 0.2, seed=7) == split_gold(gold, 0.2, seed=7)
        a, _ = split_gold(gold, 0.2, seed=7)
        b, _ = split_gold(gold, 0.2, seed=8)
        assert a != b


class TestRunPipeline:
    def test_smoke_artifacts_and_report(self, bench, tmp_path):
        run_dir = tmp_path / "run"
        result = run_pipeline(quick_config(), bench, run_dir, seed=0)
        assert (run_dir / "report.tsv").exists()
        assert (run_dir / "alignment_state.json").exists()
        assert (run_dir / "src_emb.vec").exists()
        assert (run_dir / "tgt_emb.vec").exists()
        rep = result.report
        assert 0.0 <= rep.h_at_1 <= rep.h_at_p <= 1.0
        assert 0.0 <= rep.mrr <= 1.0
        assert rep.n_test == 40 - 12  # 30% of 40 gold pairs held as seed

    def test_deterministic_across_runs(self, bench, tmp_path):
        run_pipeline(quick_config(), bench, tmp_path / "a", seed=1)
        run_pipeline(quick_config(), bench, tmp_path / "b", seed=1)
        for name in ("report.tsv", "alignment_state.json", "src_emb.vec"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name

    def test_seed_changes_result(self, bench, tmp_path):
        run_pipeline(quick_config(), bench, tmp_path / "a", seed=1)
        run_pipeline(quick_config(), bench, tmp_path / "b", seed=2)
        assert ((tmp_path / "a" / "src_emb.vec").read_bytes()
                != (tmp_path / "b" / "src_emb.vec").read_bytes())

    def test_no_self_learning_stays_at_seed_pairs(self, bench, tmp_path):
        cfg = quick_config(no_self_learning=True)
        run_pipeline(cfg, bench, tmp_path / "run", seed=0)
        state = json.loads(
            (tmp_path / "run" / "alignment_state.json").read_text())
        # a single Procrustes solve, no proposals added
        assert state["iteration"] == 1
        assert len(state["ent_pairs"]) == 12
        assert state["lex_pairs"] == []

    def test_seed_lexicon_pairs_included(self, bench, tmp_path):
        cfg = quick_config(use_seed_lexicon=True)
        run_pipeline(cfg, bench, tmp_path / "run", seed=0)
        state = json.loads(
            (tmp_path / "run" / "alignment_state.json").read_text())
        assert any(s.startswith("sw") for s, _ in state["lex_pairs"])


class TestAblations:
    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown ablation"):
            ablation_config(quick_config(), "bogus")

    def test_flag_wiring(self):
        base = quick_config()
        assert ablation_config(base, "no_gcn").optimizer.gcn_layers == 0
        assert ablation_config(base, "no_text").optimizer.use_text_loss is False
        assert ablation_config(base, "no_kg").optimizer.use_kg_loss is False
        assert ablation_config(base, "no_self_learning").no_self_learning
        assert ablation_config(base, "l2_metric").metric == "l2"
        assert ablation_config(base, "with_seed_lexicon").use_seed_lexicon
        assert ablation_config(base, "full") == base

    @pytest.mark.parametrize("name", list(ABLATIONS))
    def test_run_flag_matches_table(self, name, tmp_path, monkeypatch):
        base = built_config("run", tmp_path, monkeypatch)
        assert ablation_config(base, "full") == base
        assert (built_config("run", tmp_path, monkeypatch, *RUN_ARGS[name])
                == ablation_config(base, name))

    def test_every_setting_option_is_tested(self):
        declared = {f.name for f in fields(PipelineConfig) if f.metadata}
        assert set(SETTING_VALUES) == declared
        assert {name for _, name, _ in SETTING_OPTIONS} == declared

    @pytest.mark.parametrize("command, name, option", SETTING_OPTIONS,
                             ids=[f"{c}{o}" for c, _, o in SETTING_OPTIONS])
    def test_setting_option_sets_its_field(self, command, name, option,
                                           tmp_path, monkeypatch):
        base = built_config(command, tmp_path, monkeypatch)
        value = SETTING_VALUES[name]
        assert getattr(base, name) != value
        assert (built_config(command, tmp_path, monkeypatch, option, value)
                == replace(base, **{name: value}))

    def test_disabling_both_losses_rejected(self):
        with pytest.raises(ConfigError, match="both"):
            replace(OptimizerConfig(), use_kg_loss=False, use_text_loss=False)

    @pytest.mark.parametrize("overrides, match", [
        ({"max_iterations": 0}, "max_iterations"),
        ({"max_iterations": -1}, "max_iterations"),
        ({"stop_fraction": 0.0}, "stop_fraction"),
        ({"stop_fraction": 5.0}, "stop_fraction"),
        ({"lexeme_top_f": -1}, "lexeme_top_f"),
        ({"eval_p": 0}, "eval_p"),
        ({"csls_k": 0}, "csls_k"),
        ({"metric": "cosine"}, "metric"),
        ({"candidate_mode": "every"}, "candidate mode"),
        ({"seed_fraction": 0.0}, "seed_fraction"),
        ({"seed_fraction": 1.0}, "seed_fraction"),
    ])
    def test_invalid_align_settings_rejected(self, overrides, match):
        with pytest.raises(ConfigError, match=match):
            quick_config(**overrides)

    def test_grid_and_table(self, bench, tmp_path):
        reports = run_ablation_grid(quick_config(), bench, tmp_path,
                                    seed=0, names=["full", "no_self_learning"])
        assert set(reports) == {"full", "no_self_learning"}
        table = format_ablation_table(reports)
        lines = table.splitlines()
        assert lines[0].split() == ["setting", "H@1", "H@p", "MRR"]
        assert len(lines) == 3
        assert lines[1].startswith("full")

    def test_grid_trains_each_optimizer_config_once(self, bench, tmp_path,
                                                    monkeypatch):
        trained = []
        train = embedding.train

        def counting_train(kg, corpus, cfg, seed):
            trained.append(cfg)
            return train(kg, corpus, cfg, seed)

        monkeypatch.setattr(embedding, "train", counting_train)
        # the list sees only the training done in this process
        monkeypatch.setattr(pipeline, "train_workers", lambda n_jobs: 1)
        names = ["full", "no_gcn", "no_self_learning", "l2_metric"]
        run_ablation_grid(quick_config(), bench, tmp_path / "grid", seed=0,
                          names=names)
        # full, no_self_learning and l2_metric share one pair of spaces
        assert len(trained) == 4
        assert [c.gcn_layers for c in trained] == [1, 1, 0, 0]
        for name in names:
            run_pipeline(ablation_config(quick_config(), name), bench,
                         tmp_path / "alone" / name, seed=0)
            for artifact in ARTIFACTS:
                assert ((tmp_path / "grid" / name / artifact).read_bytes()
                        == (tmp_path / "alone" / name / artifact).read_bytes())


class TestTrainingPool:
    def test_one_worker_a_job_up_to_the_usable_cores(self):
        cores = len(os.sched_getaffinity(0))
        assert pipeline.train_workers(1) == 1
        assert pipeline.train_workers(2) == min(2, cores)
        assert pipeline.train_workers(100) == cores

    def test_pooled_and_in_process_training_write_the_same_bytes(
            self, bench, tmp_path, monkeypatch):
        """Worker processes and this process train the same spaces, so
        `run` and the grid write the same files either way."""
        pids = tmp_path / "pids"
        train = embedding.train

        def recording_train(kg, corpus, cfg, seed):
            with open(pids, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return train(kg, corpus, cfg, seed)

        monkeypatch.setattr(embedding, "train", recording_train)
        names = ["full", "no_gcn", "no_self_learning", "no_text"]
        trainers = {}
        for mode, workers in (("pooled", 2), ("in_process", 1)):
            monkeypatch.setattr(pipeline, "train_workers",
                                lambda n_jobs: min(n_jobs, workers))
            with time_limit(120):
                run_pipeline(quick_config(), bench, tmp_path / mode / "run",
                             seed=3)
                run_ablation_grid(quick_config(), bench,
                                  tmp_path / mode / "grid", seed=3,
                                  names=names)
            trainers[mode] = set(pids.read_text().split())
            pids.unlink()
        assert trainers["in_process"] == {str(os.getpid())}
        assert trainers["pooled"] and str(os.getpid()) not in trainers["pooled"]
        for directory in ["run", *(f"grid/{name}" for name in names)]:
            for artifact in ARTIFACTS:
                path = f"{directory}/{artifact}"
                assert (tmp_path / "pooled" / path).read_bytes() == \
                    (tmp_path / "in_process" / path).read_bytes(), path

    def test_no_worker_outlives_a_run(self, bench, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "train_workers",
                            lambda n_jobs: min(n_jobs, 2))
        with time_limit(60):
            run_pipeline(quick_config(), bench, tmp_path / "ok", seed=0)
        assert multiprocessing.active_children() == []
        # the ReLU GCN zeroes a source entity row of this config, so the
        # source job raises while the target job may still be training
        diverging = PipelineConfig(optimizer=OptimizerConfig.desk_scale(
            dim=8, epochs=30, batch_size=32, min_freq=1))
        with time_limit(60), pytest.raises(TrainingDivergence,
                                           match="trained src space"):
            run_pipeline(diverging, bench, tmp_path / "diverges", seed=0)
        assert multiprocessing.active_children() == []
        assert pipeline._grounded is None


# sha256 of the `--help` text of the group and of each command, 80 columns
HELP_SHA256 = {
    "kgalign": "058d6d9290114be5a0985307630c7ab734c050ebdbe95265808913e71edaf41d",
    "synth": "e1ead9f3dcfbb7b5fba3bee654919f86f13d256437b71b43b7fee28e3548c97f",
    "ground": "07f2cb6a79e16afb5d2fd56aa446a5f8be3068ecef21d93787765f234a8a83a1",
    "train": "c9597ad118d0219627ed6f44ce548b85b66a760657f25f3fd334bfd5965ab97c",
    "align": "1ee6ee9a39ee7fd5223e0e8544b9ff87cafaeb1fcc8e611be00e25d950687eeb",
    "eval": "3a9a3711bac6582cdf07b68b5b877e526d0258de3229cb8c6811524d55092e84",
    "run": "15ba22750981cf8489c6d09fba0356746682a10d466a949d71f94d0f95bd9afa",
    "ablate": "fe9ff190f0b3b17b031555146759bb630790a81343b41c771fde0fdd2d5ab5b1",
}


class TestCli:
    @pytest.mark.parametrize("command", HELP_SHA256)
    def test_help_text_is_pinned(self, command):
        assert set(HELP_SHA256) == {"kgalign", *cli.commands}
        args = [] if command == "kgalign" else [command]
        res = CliRunner(env={"COLUMNS": "80"}).invoke(
            cli, [*args, "--help"], prog_name="kgalign")
        assert res.exit_code == 0, res.output
        digest = hashlib.sha256(res.output.encode()).hexdigest()
        assert digest == HELP_SHA256[command], res.output

    def test_synth_ground_run_round_trip(self, tmp_path):
        runner = CliRunner()
        bench_dir = tmp_path / "bench"
        res = runner.invoke(cli, [
            "synth", "--out", str(bench_dir), "--entities", "40",
            "--triples", "160", "--relations", "3", "--walks", "150",
            "--walk-length", "5", "--seed", "0"])
        assert res.exit_code == 0, res.output
        assert (bench_dir / "src.triples").exists()

        res = runner.invoke(cli, [
            "ground", "--kg", str(bench_dir / "src.triples"),
            "--forms", str(bench_dir / "src.forms"),
            "--corpus", str(bench_dir / "src.corpus"),
            "--out", str(tmp_path / "src.grounded")])
        assert res.exit_code == 0, res.output
        assert "coverage" in res.output

        cfg_file = tmp_path / "quick.cfg"
        cfg_file.write_text("dim = 8\nepochs = 30\nbatch_size = 32\n"
                            "min_freq = 1\n")
        res = runner.invoke(cli, [
            "run", "--bench", str(bench_dir), "--out", str(tmp_path / "run"),
            "--config", str(cfg_file), "--seed", "0"])
        assert res.exit_code == 0, res.output
        report = (tmp_path / "run" / "report.tsv").read_text().splitlines()
        assert report[0].startswith("h1\t")
        assert report[3].startswith("n\t")

    def test_no_gcn_flag_is_zero_gcn_layers(self, bench, tmp_path):
        """`train --no-gcn` and a config file with `gcn_layers = 0` write
        the same files: zero layers is the one way to say no GCN."""
        runner = CliRunner()
        grounded = str(tmp_path / "src.grounded")
        res = runner.invoke(cli, [
            "ground", "--kg", str(bench.src_triples),
            "--forms", str(bench.src_forms), "--corpus", str(bench.src_corpus),
            "--out", grounded])
        assert res.exit_code == 0, res.output
        for name, extra, flags in (("flag", "", ["--no-gcn"]),
                                   ("layers", "gcn_layers = 0\n", [])):
            cfg_file = tmp_path / f"{name}.cfg"
            cfg_file.write_text("dim = 8\nepochs = 5\nmin_freq = 1\n" + extra)
            res = runner.invoke(cli, [
                "train", "--kg", str(bench.src_triples), "--grounded",
                grounded, "--config", str(cfg_file),
                "--out", str(tmp_path / name), *flags])
            assert res.exit_code == 0, res.output
        for suffix in (".vec", ".rel.vec"):
            assert (tmp_path / f"flag{suffix}").read_bytes() == \
                (tmp_path / f"layers{suffix}").read_bytes()

    def test_staged_ground_and_train_reproduce_run(self, bench, tmp_path):
        """`ground` then `train` write the source `.grounded` and `.vec`
        files of a `run` at the same seed, on a corpus with words below
        `min_freq` and a literal `<unk>`."""
        bench_dir = tmp_path / "bench"
        shutil.copytree(bench.gold_entities.parent, bench_dir)
        with open(bench_dir / "src.corpus", "a", encoding="utf-8") as fh:
            fh.write("once <unk> twice sw0\nsw1 twice\n")
        cfg_file = tmp_path / "quick.cfg"
        cfg_file.write_text("dim = 16\nepochs = 20\nbatch_size = 32\n"
                            "min_freq = 2\n")
        runner = CliRunner()
        # the run's first solve has 12 seed pairs in 16 dimensions
        with pytest.warns(RuntimeWarning, match="rank-deficient"):
            res = runner.invoke(cli, [str(a) for a in [
                "run", "--bench", bench_dir, "--out", tmp_path / "run",
                "--config", cfg_file, "--seed", "4"]])
        assert res.exit_code == 0, res.output
        for args in (
                ["ground", "--kg", bench_dir / "src.triples",
                 "--forms", bench_dir / "src.forms",
                 "--corpus", bench_dir / "src.corpus",
                 "--out", tmp_path / "src.grounded"],
                ["train", "--kg", bench_dir / "src.triples",
                 "--grounded", tmp_path / "src.grounded",
                 "--config", cfg_file, "--seed", "4",
                 "--out", tmp_path / "src_emb"]):
            res = runner.invoke(cli, [str(a) for a in args])
            assert res.exit_code == 0, res.output
        for name in ("src.grounded", "src_emb.vec", "src_emb.rel.vec"):
            assert (tmp_path / name).read_bytes() == \
                (tmp_path / "run" / name).read_bytes(), name
        tokens, _ = embedding.read_embeddings(tmp_path / "src_emb.vec")
        assert "<unk>" in tokens and "twice" in tokens
        assert "once" not in tokens

    def test_config_file_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("learning_rate = 0.1\n")
        runner = CliRunner()
        res = runner.invoke(cli, [
            "run", "--bench", str(tmp_path), "--out", str(tmp_path / "o"),
            "--config", str(bad)])
        assert res.exit_code != 0

    def test_eval_command_on_saved_state(self, bench, tmp_path):
        run_pipeline(quick_config(), bench, tmp_path / "run", seed=0)
        runner = CliRunner()
        res = runner.invoke(cli, [
            "eval", "--state", str(tmp_path / "run" / "alignment_state.json"),
            "--test", str(bench.gold_entities), "--candidates", "all"])
        assert res.exit_code == 0, res.output
        assert res.output.startswith("h1\t")

    def test_staged_align_and_eval_reproduce_run(self, bench, tmp_path):
        """`align` and `eval` on a `run` directory's own `.vec` files and
        gold split give that run's state and report, byte for byte."""
        run_dir = tmp_path / "run"
        cfg_file = tmp_path / "quick.cfg"
        cfg_file.write_text("dim = 8\nepochs = 40\nbatch_size = 32\n"
                            "min_freq = 1\n")
        runner = CliRunner()
        res = runner.invoke(cli, [
            "run", "--bench", str(bench.gold_entities.parent),
            "--out", str(run_dir), "--config", str(cfg_file), "--seed", "2"])
        assert res.exit_code == 0, res.output
        seeds, tests = split_gold(
            alignment.load_seed_pairs(bench.gold_entities),
            PipelineConfig().seed_fraction, seed=2)
        for name, pairs in (("seeds.tsv", seeds), ("test.tsv", tests)):
            (tmp_path / name).write_text(
                "".join(f"{s}\t{t}\n" for s, t in pairs), encoding="utf-8")
        res = runner.invoke(cli, [
            "align", "--src-emb", str(run_dir / "src_emb"),
            "--tgt-emb", str(run_dir / "tgt_emb"),
            "--seed-entities", str(tmp_path / "seeds.tsv"),
            "--out", str(tmp_path / "alignment_state.json")])
        assert res.exit_code == 0, res.output
        res = runner.invoke(cli, [
            "eval", "--state", str(tmp_path / "alignment_state.json"),
            "--test", str(tmp_path / "test.tsv"),
            "--out", str(tmp_path / "report.tsv")])
        assert res.exit_code == 0, res.output
        for name in ("alignment_state.json", "report.tsv"):
            assert (tmp_path / name).read_bytes() == \
                (run_dir / name).read_bytes(), name

    def stage_lines(self, bench, tmp_path, *args):
        """The lines of `kgalign <args>`'s output that name a stage or an
        ablation setting."""
        cfg_file = tmp_path / "quick.cfg"
        cfg_file.write_text("dim = 8\nepochs = 40\nbatch_size = 32\n"
                            "min_freq = 1\n")
        res = CliRunner().invoke(cli, [str(a) for a in [
            *args, "--bench", bench.gold_entities.parent,
            "--out", tmp_path / "out", "--config", cfg_file]])
        assert res.exit_code == 0, res.output
        return [line.split(":")[0] for line in res.output.splitlines()
                if line.startswith(("stage ", "== ablation"))]

    def test_run_logs_each_stage_once_in_order(self, bench, tmp_path):
        assert self.stage_lines(bench, tmp_path, "run") == [
            "stage ground", "stage train", "stage align", "stage eval"]

    def test_ablate_logs_training_once_before_the_settings(self, bench,
                                                           tmp_path):
        """Every setting's spaces are trained before the first setting is
        aligned, and the log says so where it happens."""
        lines = self.stage_lines(bench, tmp_path, "ablate", "--settings",
                                 "full,no_gcn,no_self_learning")
        settings = ["== ablation", "stage align", "stage eval"]
        assert lines == ["stage ground", "stage train", *settings * 3]

    def test_align_and_eval_bytes_do_not_depend_on_blas_threads(
            self, tmp_path):
        """`align` then `eval` write the same files and print the same
        lines with one OpenBLAS thread and with two."""
        planted_inputs(tmp_path)
        src_dir = Path(kgalign.__file__).resolve().parents[1]
        digests = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            out.mkdir()
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(
                       [str(src_dir), os.environ.get("PYTHONPATH", "")])}
            printed = b""
            for args in (
                    ["align", "--src-emb", tmp_path / "src",
                     "--tgt-emb", tmp_path / "tgt",
                     "--seed-entities", tmp_path / "seed.tsv",
                     "--out", out / "alignment_state.json"],
                    ["eval", "--state", out / "alignment_state.json",
                     "--test", tmp_path / "test.tsv", "--candidates", "all",
                     "--out", out / "report.tsv"]):
                res = subprocess.run(
                    [sys.executable, "-m", "kgalign.cli", *map(str, args)],
                    env=env, capture_output=True, timeout=120)
                assert res.returncode == 0, res.stderr.decode()
                printed += res.stdout
            digests[threads] = {
                name: hashlib.sha256(data).hexdigest() for name, data in (
                    ("stdout", printed),
                    *((p.name, p.read_bytes()) for p in sorted(out.iterdir())))}
        assert set(digests["1"]) == {"stdout", "alignment_state.json",
                                     "report.tsv"}
        assert digests["1"] == digests["2"]

    def test_each_pair_list_is_checked_once(self, bench, tmp_path,
                                            monkeypatch):
        """`run` and `ablate` check the seed and the test pairs of their
        one seed fraction once each, however many settings share it;
        `align` checks its seed file once, and `eval` the entity pairs of
        its state and its test file."""
        kinds = []
        check = alignment.check_pairs

        def counting_check(kind, pairs, known, path):
            kinds.append(kind)
            check(kind, pairs, known, path)

        monkeypatch.setattr(alignment, "check_pairs", counting_check)
        cfg_file = tmp_path / "quick.cfg"
        cfg_file.write_text("dim = 8\nepochs = 40\nbatch_size = 32\n"
                            "min_freq = 1\n")
        bench_args = ["--bench", bench.gold_entities.parent,
                      "--config", cfg_file]
        run_dir = tmp_path / "run"
        commands = [
            (["run", *bench_args, "--out", run_dir], ["seed", "test"]),
            (["ablate", *bench_args, "--out", tmp_path / "grid", "--settings",
              "full,no_gcn,no_self_learning,l2_metric"], ["seed", "test"]),
            (["align", "--src-emb", run_dir / "src_emb",
              "--tgt-emb", run_dir / "tgt_emb",
              "--seed-entities", bench.gold_entities,
              "--out", tmp_path / "state.json"], ["seed"]),
            (["eval", "--state", tmp_path / "state.json",
              "--test", bench.gold_entities], ["entity", "test"]),
        ]
        for args, expected in commands:
            kinds.clear()
            res = CliRunner().invoke(cli, [str(a) for a in args])
            assert res.exit_code == 0, res.output
            assert kinds == expected, args[0]

    def test_align_keeps_lexicon_pairs_in_the_spaces(self, bench, tmp_path):
        run_pipeline(quick_config(), bench, tmp_path / "run", seed=0)
        lines = bench.gold_lexemes.read_text(encoding="utf-8").splitlines()
        lines += ["zz_absent\tsw0", "sw0\tzz_absent"]
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text("\n".join(lines) + "\n", encoding="utf-8")
        res = CliRunner().invoke(cli, [
            "align", "--src-emb", str(tmp_path / "run" / "src_emb"),
            "--tgt-emb", str(tmp_path / "run" / "tgt_emb"),
            "--seed-entities", str(bench.gold_entities),
            "--seed-lexicon", str(lexicon), "--no-self-learning",
            "--out", str(tmp_path / "state.json")])
        assert res.exit_code == 0, res.output
        state = json.loads((tmp_path / "state.json").read_text())
        src_items = set(state["source"]["items"])
        tgt_items = set(state["target"]["items"])
        pairs = [line.split("\t") for line in lines]
        kept = [[s, t] for s, t in pairs if s in src_items and t in tgt_items]
        assert state["lex_pairs"] == kept
        assert len(kept) < len(pairs)

    @pytest.mark.parametrize("triples, corpus", [
        ("new york\tr\tb\n", "new york\n"),
        ("a\tr\tb\n", "a @ent:a b\n"),
    ], ids=["whitespace-id", "raw-entity-marker"])
    def test_unsafe_ids_exit_1(self, tmp_path, monkeypatch, capsys,
                               triples, corpus):
        (tmp_path / "kg.tsv").write_text(triples, encoding="utf-8")
        (tmp_path / "forms.tsv").write_text("b\tb\n", encoding="utf-8")
        (tmp_path / "corpus.txt").write_text(corpus, encoding="utf-8")
        code = main_exit_code(monkeypatch, [
            "ground", "--kg", tmp_path / "kg.tsv",
            "--forms", tmp_path / "forms.tsv",
            "--corpus", tmp_path / "corpus.txt",
            "--out", tmp_path / "out.grounded"])
        assert code == 1
        assert "line 1" in capsys.readouterr().err
