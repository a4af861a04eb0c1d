"""The benchmark's three workloads: inputs, one pass, and its checks.

Each workload builds its inputs from the seed alone (`setup`), runs one
pass of the program on them (`run`), and checks a pass's output directory
(`check`).  Passes on the same inputs must give byte-identical outputs,
so `outputs` names the files compared between passes.

- run-default: one `run_pipeline` (`kgalign run`) on the default synthetic
  benchmark.  Training dominates, so it shows every change to the
  training loop; it trains each space once, so reuse of trained spaces
  across settings cannot help it.
- ablate-grid: `run_ablation_grid` (`kgalign ablate`) over six settings
  on a small benchmark.  Four settings train identical spaces, so it
  shows "train once, align many"; it is the only workload that takes
  the L2 scorer and the single-solve alignment path.
- align-planted: the staged `kgalign align` -> `kgalign eval` path, no
  training, on planted `.vec` files: a noisy copy of the source under a
  known rotation, with only part of the items matched.  The dense score
  matrices of self-learning and evaluation dominate its time and memory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kgalign import alignment, evaluation, pipeline, synth
from kgalign.config import NeighborQuery, OptimizerConfig, PipelineConfig

import checks

# Epoch counts are cut from the desk-scale 300 so that one pass fits the
# benchmark's time budget; the rest of the desk-scale config is unchanged.
DEFAULT_EPOCHS = 80
GRID_EPOCHS = 55
GRID_PARAMS = synth.BenchmarkParams(n_entities=150, n_triples=600,
                                    n_walks=750, n_common_concepts=60,
                                    seed_lexicon_size=10)
GRID_SETTINGS = ("full", "no_self_learning", "no_gcn", "no_text",
                 "l2_metric", "with_seed_lexicon")

# Floors on Hits@1, far above chance (1/350 and 1/105 candidates on the
# synthetic benchmarks, 1/3000 on the planted one).
DEFAULT_H1_FLOOR = 0.2
GRID_H1_FLOOR = 0.2
PLANTED_H1_FLOOR = 0.3

PLANTED_ENTITIES = 3000
PLANTED_LEXEMES = 2000
PLANTED_DIM = 32
PLANTED_NOISE = 1.2          # per-coordinate noise sd; signal sd is 1
PLANTED_MATCHED = 0.8        # share of items on each side with a counterpart
PLANTED_SEED_FRACTION = 0.3
PLANTED_ROTATION_TOL = 0.05  # RMS entry error of the transform vs the rotation
PLANTED_PRECISION_FLOOR = 0.5


@dataclass
class Inputs:
    dir: Path
    seed: int
    gold: set
    facts: dict = field(default_factory=dict)


@dataclass
class PassOutput:
    reports: list
    objects: dict = field(default_factory=dict)


def drop_absent_gold(paths: synth.BenchmarkPaths) -> int:
    """Drop gold pairs naming an entity that no triple mentions.

    The generator's edge drop can leave a target entity without triples,
    so it is absent from the loaded KG and ranking it raises KeyError.
    Returns the number of pairs dropped.
    """
    src = checks.kg_entities(paths.src_triples)
    tgt = checks.kg_entities(paths.tgt_triples)
    gold = checks.read_pairs(paths.gold_entities)
    kept = [(s, t) for s, t in gold if s in src and t in tgt]
    if len(kept) != len(gold):
        with open(paths.gold_entities, "w", encoding="utf-8") as fh:
            fh.writelines(f"{s}\t{t}\n" for s, t in kept)
    return len(gold) - len(kept)


class _Synthetic:
    """Shared set-up and checks of the two workloads on `kgalign synth` data."""

    params: synth.BenchmarkParams
    epochs: int
    floor: float

    def config(self) -> PipelineConfig:
        return PipelineConfig(
            optimizer=OptimizerConfig.desk_scale(epochs=self.epochs))

    def setup(self, seed: int, work: Path) -> Inputs:
        paths = synth.generate_benchmark(self.params, seed, work)
        dropped = drop_absent_gold(paths)
        gold = set(checks.read_pairs(paths.gold_entities))
        return Inputs(dir=work, seed=seed, gold=gold,
                      facts={"gold_pairs_dropped": dropped})

    def _check_dir(self, inputs: Inputs, run_dir: Path, metric: str):
        cfg = self.config()
        return checks.check_pipeline_run(
            inputs.dir, run_dir, inputs.seed, cfg.seed_fraction, metric,
            cfg.csls_k, cfg.optimizer.min_freq, self.floor)


class RunDefault(_Synthetic):
    name = "run-default"
    ops_per_pass = 1
    params = synth.BenchmarkParams()
    epochs = DEFAULT_EPOCHS
    floor = DEFAULT_H1_FLOOR

    def run(self, inputs: Inputs, out: Path) -> PassOutput:
        result = pipeline.run_pipeline(self.config(),
                                       synth.BenchmarkPaths.in_dir(inputs.dir),
                                       out, inputs.seed)
        return PassOutput(reports=[result.report])

    def outputs(self, out: Path) -> list[Path]:
        return [out / "report.tsv", out / "alignment_state.json"]

    def check(self, inputs: Inputs, out: Path, output: PassOutput):
        return self._check_dir(inputs, out, "csls")


class AblateGrid(_Synthetic):
    name = "ablate-grid"
    ops_per_pass = len(GRID_SETTINGS)
    params = GRID_PARAMS
    epochs = GRID_EPOCHS
    floor = GRID_H1_FLOOR

    def run(self, inputs: Inputs, out: Path) -> PassOutput:
        reports = pipeline.run_ablation_grid(
            self.config(), synth.BenchmarkPaths.in_dir(inputs.dir), out,
            inputs.seed, names=list(GRID_SETTINGS))
        return PassOutput(reports=[reports[n] for n in GRID_SETTINGS])

    def outputs(self, out: Path) -> list[Path]:
        return [out / n / f for n in GRID_SETTINGS
                for f in ("report.tsv", "alignment_state.json")]

    def check(self, inputs: Inputs, out: Path, output: PassOutput):
        fails, facts = [], {}
        for name in GRID_SETTINGS:
            metric = pipeline.ablation_config(self.config(), name).metric
            f, facts[name] = self._check_dir(inputs, out / name, metric)
            fails += f
        return fails, facts


def random_rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def _write_vec(path: Path, names: list[str], mat: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(names)} {mat.shape[1]}\n")
        for name, row in zip(names, mat):
            fh.write(name + " " + " ".join(repr(float(x)) for x in row) + "\n")


class AlignPlanted:
    name = "align-planted"
    ops_per_pass = 1

    def query(self) -> NeighborQuery:
        return NeighborQuery(metric="csls", csls_k=10)

    def setup(self, seed: int, work: Path) -> Inputs:
        work.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        n_ent, n_lex, dim = PLANTED_ENTITIES, PLANTED_LEXEMES, PLANTED_DIM
        rotation = random_rotation(rng, dim)
        src = rng.normal(size=(n_ent + n_lex, dim))
        tgt = rng.normal(size=(n_ent + n_lex, dim))
        # target row of source row i; only the first matched rows of each
        # kind get a counterpart, the other target rows stay independent
        ent_perm = rng.permutation(n_ent)
        lex_perm = n_ent + rng.permutation(n_lex)
        n_ent_m = int(PLANTED_MATCHED * n_ent)
        n_lex_m = int(PLANTED_MATCHED * n_lex)
        src_rows = np.r_[np.arange(n_ent_m), n_ent + np.arange(n_lex_m)]
        tgt_rows = np.r_[ent_perm[:n_ent_m], lex_perm[:n_lex_m]]
        tgt[tgt_rows] = (src[src_rows] @ rotation.T
                         + PLANTED_NOISE * rng.normal(size=(len(src_rows), dim)))
        _write_vec(work / "src.vec",
                   [f"@ent:a{i}" for i in range(n_ent)]
                   + [f"sw{j}" for j in range(n_lex)], src)
        _write_vec(work / "tgt.vec",
                   [f"@ent:b{i}" for i in range(n_ent)]
                   + [f"tw{j}" for j in range(n_lex)], tgt)
        gold = [(f"a{i}", f"b{ent_perm[i]}") for i in range(n_ent_m)]
        order = rng.permutation(len(gold))
        n_seed = round(PLANTED_SEED_FRACTION * len(gold))
        for name, idx in (("seed.tsv", order[:n_seed]),
                          ("test.tsv", order[n_seed:])):
            with open(work / name, "w", encoding="utf-8") as fh:
                fh.writelines(f"{gold[i][0]}\t{gold[i][1]}\n" for i in idx)
        np.save(work / "rotation.npy", rotation)
        return Inputs(dir=work, seed=seed, gold=set(gold))

    def run(self, inputs: Inputs, out: Path) -> PassOutput:
        out.mkdir(parents=True, exist_ok=True)
        d = inputs.dir
        q = self.query()
        state = alignment.AlignmentState(
            source=alignment.AlignmentSpace.from_file(d / "src.vec"),
            target=alignment.AlignmentSpace.from_file(d / "tgt.vec"),
            ent_pairs=alignment.load_seed_pairs(d / "seed.tsv"))
        alignment.self_learn(state, q)
        alignment.save_state(state, out / "alignment_state.json")
        loaded = alignment.load_state(out / "alignment_state.json")
        report = evaluation.evaluate(alignment.load_seed_pairs(d / "test.tsv"),
                                     loaded, q, candidate_mode="all")
        report.write(out / "report.tsv")
        return PassOutput(reports=[report],
                          objects={"state": state, "loaded": loaded})

    def outputs(self, out: Path) -> list[Path]:
        return [out / "report.tsv", out / "alignment_state.json"]

    def check(self, inputs: Inputs, out: Path, output: PassOutput):
        d = inputs.dir
        seeds = checks.read_pairs(d / "seed.tsv")
        test = checks.read_pairs(d / "test.tsv")
        with open(out / "alignment_state.json", encoding="utf-8") as fh:
            state = json.load(fh)
        fails = checks.check_state(state, seeds)
        candidates = [it[len(checks.ENTITY):] for it in state["target"]["items"]
                      if it.startswith(checks.ENTITY)]
        q = self.query()
        ranks = checks.gold_ranks(state, test, q.metric, q.csls_k, candidates)
        fails += checks.check_metrics(checks.read_report(out / "report.tsv"),
                                      ranks, PLANTED_H1_FLOOR, self.name)
        fails += checks.check_round_trip(out / "alignment_state.json", out)
        if not checks.states_equal(output.objects["state"],
                                   output.objects["loaded"]):
            fails.append("load_state(save_state(s)) differs from s")
        rotation = np.load(d / "rotation.npy")
        rms = float(np.sqrt(np.mean((np.array(state["transform"])
                                     - rotation) ** 2)))
        if not rms < PLANTED_ROTATION_TOL:
            fails.append(f"transform is {rms:.4f} RMS from the planted "
                         f"rotation (tolerance {PLANTED_ROTATION_TOL})")
        precision = checks.proposal_precision(state, len(seeds), inputs.gold)
        if not precision >= PLANTED_PRECISION_FLOOR:
            fails.append(f"proposal precision {precision:.3f} below "
                         f"{PLANTED_PRECISION_FLOOR}")
        n_items = PLANTED_ENTITIES + PLANTED_LEXEMES
        for side in (output.objects["loaded"].source,
                     output.objects["loaded"].target):
            if side.vectors.shape != (n_items, PLANTED_DIM) or \
                    side.n_entities != PLANTED_ENTITIES or \
                    not np.isfinite(side.vectors).all():
                fails.append("embedding rows do not match the planted files")
        return fails, {"h1": float(np.mean(ranks == 1)),
                       "mrr": float(np.mean(1.0 / ranks)),
                       "proposal_precision": precision,
                       "rotation_rms_error": rms}


WORKLOADS = {w.name: w for w in (RunDefault(), AblateGrid(), AlignPlanted())}
