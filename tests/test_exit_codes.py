"""The exit-code contract of the `kgalign` entry point, one row per case:
0 success, 1 input or configuration error, 2 numerical failure."""

import numpy as np
import pytest

from kgalign.synth import BenchmarkParams, generate_benchmark

from conftest import main_exit_code
from oracles import random_orthogonal


def write_vec(path, tokens, mat):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(tokens)} {mat.shape[1]}\n")
        for tok, row in zip(tokens, mat):
            fh.write(tok + " " + " ".join(repr(float(x)) for x in row) + "\n")


def align_inputs(tmp_path, zero_row=False):
    """`kgalign align` arguments for two planted 3-d spaces of 8 entities
    and 4 lexemes, the target a rotation of the source, with 3 seed
    pairs; `zero_row` zeroes one source entity row."""
    rng = np.random.default_rng(0)
    tokens = [f"@ent:e{i}" for i in range(8)] + [f"w{i}" for i in range(4)]
    src = rng.standard_normal((len(tokens), 3))
    tgt = src @ random_orthogonal(rng, 3).T
    if zero_row:
        src[5] = 0.0
    write_vec(tmp_path / "src.vec", tokens, src)
    write_vec(tmp_path / "tgt.vec", tokens, tgt)
    (tmp_path / "seeds.tsv").write_text(
        "".join(f"e{i}\te{i}\n" for i in range(3)), encoding="utf-8")
    return ["align", "--src-emb", tmp_path / "src", "--tgt-emb",
            tmp_path / "tgt", "--seed-entities", tmp_path / "seeds.tsv",
            "--out", tmp_path / "state.json"]


def run_inputs(tmp_path, config):
    """`kgalign run` arguments on a 40-entity benchmark with `config`."""
    params = BenchmarkParams(n_entities=40, n_triples=160, n_relations=3,
                             edge_drop=0.05, n_walks=200, walk_length=5,
                             n_common_concepts=20)
    generate_benchmark(params, seed=0, out_dir=tmp_path / "bench")
    (tmp_path / "cfg").write_text(config, encoding="utf-8")
    return ["run", "--bench", tmp_path / "bench", "--out", tmp_path / "run",
            "--config", tmp_path / "cfg"]


def align_with_failing_svd(tmp_path, monkeypatch):
    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    return align_inputs(tmp_path)


# name: (arguments from (tmp_path, monkeypatch), exit code, standard error)
CASES = {
    "align-valid": (lambda p, mp: align_inputs(p), 0, ""),
    "align-zero-input-row": (
        lambda p, mp: align_inputs(p, zero_row=True), 1, "error: zero-norm"),
    "align-max-iterations-0": (
        lambda p, mp: align_inputs(p) + ["--max-iterations", 0], 1,
        "max_iterations"),
    "align-max-iterations-negative": (
        lambda p, mp: align_inputs(p) + ["--max-iterations", -1], 1,
        "max_iterations"),
    "align-stop-frac-above-1": (
        lambda p, mp: align_inputs(p) + ["--stop-frac", 5], 1,
        "stop_fraction"),
    "align-stop-frac-0": (
        lambda p, mp: align_inputs(p) + ["--stop-frac", 0], 1,
        "stop_fraction"),
    # a LinAlgError is a ValueError, but it is a numerical failure
    "align-svd-fails": (align_with_failing_svd, 2, "numerical failure: SVD"),
    # a one-dimensional ReLU GCN zeroes the rows of negative pre-activation
    "run-zero-trained-row": (
        lambda p, mp: run_inputs(p, "dim = 1\nepochs = 1\nmin_freq = 1\n"),
        2, "numerical failure: trained src space has"),
    "run-stop-frac-above-1": (
        lambda p, mp: run_inputs(p, "dim = 4\nepochs = 1\nmin_freq = 1\n")
        + ["--stop-frac", 5], 1, "stop_fraction"),
}


@pytest.mark.parametrize("build, code, message", CASES.values(),
                         ids=CASES.keys())
def test_exit_code(tmp_path, monkeypatch, capsys, build, code, message):
    args = build(tmp_path, monkeypatch)
    assert main_exit_code(monkeypatch, args) == code
    assert message in capsys.readouterr().err
    if args[0] == "align":
        # a failed alignment leaves no state file behind
        assert (tmp_path / "state.json").exists() == (code == 0)
