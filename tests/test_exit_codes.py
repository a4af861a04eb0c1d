"""The exit-code contract of the `kgalign` entry point, one row per case:
0 success, 1 input or configuration error, 2 numerical failure."""

import json

import numpy as np
import pytest

from kgalign import alignment, embedding, grounding, kg, pipeline
from kgalign.synth import BenchmarkParams, BenchmarkPaths, generate_benchmark

from conftest import main_exit_code
from oracles import random_orthogonal


def write_vec(path, tokens, mat):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(tokens)} {mat.shape[1]}\n")
        for tok, row in zip(tokens, mat):
            fh.write(tok + " " + " ".join(repr(float(x)) for x in row) + "\n")


SEEDS = "e0\te0\ne1\te1\ne2\te2\n"
ONE_EPOCH = "dim = 4\nepochs = 1\nmin_freq = 1\n"


def align_inputs(tmp_path, zero_row=False, edit_src=None, seeds=SEEDS):
    """`kgalign align` arguments for two planted 3-d spaces of 8 entities
    and 4 lexemes, the target a rotation of the source, with 3 seed
    pairs; `zero_row` zeroes one source entity row, `edit_src` maps the
    lines of `src.vec` (header first) to the lines written, and `seeds`
    is the text of the seed file."""
    rng = np.random.default_rng(0)
    tokens = [f"@ent:e{i}" for i in range(8)] + [f"w{i}" for i in range(4)]
    src = rng.standard_normal((len(tokens), 3))
    tgt = src @ random_orthogonal(rng, 3).T
    if zero_row:
        src[5] = 0.0
    write_vec(tmp_path / "src.vec", tokens, src)
    write_vec(tmp_path / "tgt.vec", tokens, tgt)
    if edit_src is not None:
        path = tmp_path / "src.vec"
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(edit_src(lines)) + "\n", encoding="utf-8")
    (tmp_path / "seeds.tsv").write_text(seeds, encoding="utf-8")
    return ["align", "--src-emb", tmp_path / "src", "--tgt-emb",
            tmp_path / "tgt", "--seed-entities", tmp_path / "seeds.tsv",
            "--out", tmp_path / "state.json"]


def edit_line(lineno, edit):
    """An `edit_src` that replaces line `lineno` (1-based) by `edit(line)`."""
    def apply(lines):
        lines[lineno - 1] = edit(lines[lineno - 1])
        return lines
    return apply


def with_lexicon(tmp_path, text):
    """`align_inputs` with a seed lexicon file holding `text`."""
    (tmp_path / "lexicon.tsv").write_text(text, encoding="utf-8")
    return align_inputs(tmp_path) + ["--seed-lexicon", tmp_path / "lexicon.tsv"]


def eval_inputs(tmp_path, edit_state, test="e3\te3\ne4\te4\n"):
    """`kgalign eval` arguments on a saved state of the `align_inputs`
    spaces with one seed pair and the identity transform, after
    `edit_state` maps the file's text to the text kept, a test file
    holding `test`, and a report file."""
    align_inputs(tmp_path)
    state = alignment.AlignmentState(
        source=alignment.AlignmentSpace.from_file(tmp_path / "src.vec"),
        target=alignment.AlignmentSpace.from_file(tmp_path / "tgt.vec"),
        ent_pairs=[("e0", "e0")], transform=np.eye(3))
    alignment.save_state(state, tmp_path / "saved.json")
    path = tmp_path / "saved.json"
    path.write_text(edit_state(path.read_text(encoding="utf-8")),
                    encoding="utf-8")
    (tmp_path / "test.tsv").write_text(test, encoding="utf-8")
    return ["eval", "--state", path, "--test", tmp_path / "test.tsv",
            "--out", tmp_path / "report.tsv"]


def edit_json(edit):
    """An `edit_state` that applies `edit` to the parsed state."""
    def apply(text):
        data = json.loads(text)
        edit(data)
        return json.dumps(data)
    return apply


def run_inputs(tmp_path, config):
    """`kgalign run` arguments on a 40-entity benchmark with `config`."""
    params = BenchmarkParams(n_entities=40, n_triples=160, n_relations=3,
                             edge_drop=0.05, n_walks=200, walk_length=5,
                             n_common_concepts=20)
    generate_benchmark(params, seed=0, out_dir=tmp_path / "bench")
    (tmp_path / "cfg").write_text(config, encoding="utf-8")
    return ["run", "--bench", tmp_path / "bench", "--out", tmp_path / "run",
            "--config", tmp_path / "cfg"]


def ablate_inputs(tmp_path, *options):
    """`kgalign ablate` arguments on the `run_inputs` benchmark, with a
    one-epoch config and `options`."""
    run = run_inputs(tmp_path, ONE_EPOCH)
    return ["ablate", *run[1:], *options]


def train_inputs(tmp_path, config):
    """`kgalign train` arguments on the grounded source side of the
    `run_inputs` benchmark, with `config`."""
    run_inputs(tmp_path, config)
    paths = BenchmarkPaths.in_dir(tmp_path / "bench")
    graph = kg.load_kg(paths.src_triples, "xx")
    corpus, _ = grounding.ground_corpus(
        paths.src_corpus, grounding.build_index(paths.src_forms, graph),
        graph)
    grounding.write_grounded(corpus, tmp_path / "src.grounded")
    return ["train", "--kg", paths.src_triples, "--grounded",
            tmp_path / "src.grounded", "--config", tmp_path / "cfg",
            "--out", tmp_path / "emb"]


def pregrounded_inputs(tmp_path, text):
    """`kgalign train` arguments on the KG `a r b`, `b r c` and a
    pre-grounded corpus holding `text`."""
    (tmp_path / "kg.tsv").write_text("a\tr\tb\nb\tr\tc\n", encoding="utf-8")
    (tmp_path / "g.grounded").write_text(text, encoding="utf-8")
    return ["train", "--kg", tmp_path / "kg.tsv", "--grounded",
            tmp_path / "g.grounded", "--out", tmp_path / "emb"]


def ground_inputs(tmp_path, forms):
    """`kgalign ground` arguments on the KG `a r b`, a one-line corpus
    and a surface-form file holding `forms`."""
    (tmp_path / "kg.tsv").write_text("a\tr\tb\n", encoding="utf-8")
    (tmp_path / "forms.tsv").write_text(forms, encoding="utf-8")
    (tmp_path / "corpus.txt").write_text("sx se1 met bee\n", encoding="utf-8")
    return ["ground", "--kg", tmp_path / "kg.tsv", "--forms",
            tmp_path / "forms.tsv", "--corpus", tmp_path / "corpus.txt",
            "--out", tmp_path / "out.grounded"]


def config_case(setting, rule):
    """A `kgalign run` case with the config file holding `setting`, which
    breaks `rule`: exit 1, and the message names the file."""
    key = setting.split(" = ")[0]
    return (lambda p, mp: run_inputs(p, setting + "\n"), 1,
            f"cfg: {key} must be {rule}")


def with_bad_byte(args, path, lineno):
    """`args`, after the byte 0xff is put at the end of line `lineno`
    (1-based) of `path`, which makes the file not UTF-8."""
    lines = path.read_bytes().split(b"\n")
    lines[lineno - 1] += b"\xff"
    path.write_bytes(b"\n".join(lines))
    return args


def with_gold_edit(args, path, lineno, edit):
    """`args`, after line `lineno` (1-based) of the gold file `path`
    becomes `edit(line)`."""
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[lineno - 1] = edit(lines[lineno - 1])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return args


def with_bad_gold(args, path):
    """`args`, after line 2 of the gold file `path` loses its target."""
    return with_gold_edit(args, path, 2, lambda line: line.split("\t")[0])


def out_of_memory(monkeypatch, owner, attr, message=""):
    """Make `owner.attr` raise MemoryError(message) when called, as an
    allocation that does not fit would; nothing is allocated."""
    def fail(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(owner, attr, fail)


def with_wide_target(tmp_path, monkeypatch):
    """`align_inputs`, run from `tmp_path` on its relative `.vec` paths,
    after the target space gains two columns and so becomes 5-d."""
    args = align_inputs(tmp_path)
    tokens, mat = embedding.read_embeddings(tmp_path / "tgt.vec")
    write_vec(tmp_path / "tgt.vec", tokens,
              np.hstack([mat, np.ones((len(mat), 2))]))
    monkeypatch.chdir(tmp_path)
    args[2], args[4] = "src", "tgt"
    return args


def widen_target(data):
    """Give a saved state a 5-d target, into which a 5x3 transform maps
    its 3-d source."""
    data["target"]["vectors"] = [row + [0.5, 0.5]
                                 for row in data["target"]["vectors"]]
    data["transform"] = np.eye(5, 3).tolist()


def align_with_failing_svd(tmp_path, monkeypatch):
    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    return align_inputs(tmp_path)


# name: (arguments from (tmp_path, monkeypatch), exit code, standard error)
CASES = {
    "align-valid": (lambda p, mp: align_inputs(p), 0, ""),
    "align-zero-input-row": (
        lambda p, mp: align_inputs(p, zero_row=True), 1,
        "src.vec: line 7: zero-norm vector for '@ent:e5'"),
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
    # a worker's divergence reaches the entry point (one worker a side
    # where two cores are usable)
    "run-training-diverges": (
        lambda p, mp: run_inputs(p, "dim = 8\nepochs = 30\nbatch_size = 32\n"
                                 "min_freq = 1\n"),
        2, "numerical failure: trained src space has 1 all-zero"),
    "train-zero-trained-row": (
        lambda p, mp: train_inputs(p, "dim = 1\nepochs = 1\nmin_freq = 1\n"),
        2, "numerical failure: trained xx space has"),
    # read as a lexeme, the marker would come back as a fourth entity
    "train-grounded-unknown-entity": (
        lambda p, mp: pregrounded_inputs(p, "@ent:zz w @ent:a x\n"), 1,
        "g.grounded: line 1: malformed entity marker '@ent:zz': it names "
        "an entity the KG does not have"),
    "train-grounded-empty-marker": (
        lambda p, mp: pregrounded_inputs(p, "@ent:a w\nx @ent: y\n"), 1,
        "g.grounded: line 2: malformed entity marker '@ent:': it has no "
        "entity id"),
    "eval-valid": (lambda p, mp: eval_inputs(p, lambda text: text), 0, ""),
    "eval-state-transform-null": (
        lambda p, mp: eval_inputs(
            p, edit_json(lambda d: d.update(transform=None))),
        1, "saved.json: transform must be a 3x3 matrix, not null"),
    "eval-state-transform-missing": (
        lambda p, mp: eval_inputs(p, edit_json(lambda d: d.pop("transform"))),
        1, "saved.json: transform must be a 3x3 matrix, not null"),
    "eval-state-transform-2x2": (
        lambda p, mp: eval_inputs(
            p, edit_json(lambda d: d.update(transform=[[1, 0], [0, 1]]))),
        1, "saved.json: transform must be a 3x3 matrix, not [[1, 0]"),
    # a nan transform scores every test pair rank 1
    "eval-state-transform-nan": (
        lambda p, mp: eval_inputs(p, edit_json(
            lambda d: d["transform"][0].__setitem__(0, float("nan")))),
        1, "saved.json: malformed state file: transform has a non-finite "
        "value"),
    # the transform maps one space into another of the same width
    "eval-state-width-mismatch": (
        lambda p, mp: eval_inputs(p, edit_json(widen_target)), 1,
        "saved.json: malformed state file: source vectors have 3 values, "
        "target vectors 5"),
    "eval-state-truncated": (
        lambda p, mp: eval_inputs(p, lambda text: text[:len(text) // 2]),
        1, "saved.json: not a JSON state file"),
    "eval-state-not-json": (
        lambda p, mp: eval_inputs(p, lambda text: "h1\t0.5\n"),
        1, "saved.json: not a JSON state file"),
    # each side of the state is checked like a .vec file
    "eval-state-duplicate-item": (
        lambda p, mp: eval_inputs(p, edit_json(
            lambda d: d["target"]["items"].__setitem__(4, "@ent:e3"))),
        1, "saved.json: malformed state file: target item '@ent:e3' is "
        "listed twice"),
    "eval-state-short-vectors": (
        lambda p, mp: eval_inputs(p, edit_json(
            lambda d: d["target"].update(vectors=d["target"]["vectors"][:6]))),
        1, "saved.json: malformed state file: target has 12 items but 6 "
        "vector rows"),
    "eval-state-non-finite": (
        lambda p, mp: eval_inputs(p, edit_json(
            lambda d: d["source"]["vectors"][2].__setitem__(1, float("nan")))),
        1, "saved.json: malformed state file: source vector of '@ent:e2' has "
        "a non-finite value"),
    # JSON true and false are not numbers, though numpy reads 1.0 and 0.0
    "eval-state-boolean-vector": (
        lambda p, mp: eval_inputs(p, edit_json(
            lambda d: d["source"]["vectors"].__setitem__(2, [True, False,
                                                             0.5]))),
        1, "saved.json: malformed state file: source vectors must be rows "
        "of numbers of one width"),
    "eval-state-boolean-transform": (
        lambda p, mp: eval_inputs(p, edit_json(
            lambda d: d.update(transform=[[True, False, False],
                                          [False, True, False],
                                          [False, False, True]]))),
        1, "saved.json: malformed state file: transform must be numbers, "
        "not true or false"),
    # a zero row has no direction: CSLS cannot score it, and L2 would
    "eval-state-zero-row": (
        lambda p, mp: eval_inputs(p, edit_json(
            lambda d: d["source"]["vectors"].__setitem__(3, [0, 0, 0]))),
        1, "saved.json: malformed state file: source vector of '@ent:e3' has "
        "zero norm"),
    "eval-state-zero-row-l2": (
        lambda p, mp: eval_inputs(p, edit_json(
            lambda d: d["target"]["vectors"].__setitem__(9, [0.0, 0, -0.0])))
        + ["--metric", "l2"],
        1, "saved.json: malformed state file: target vector of 'w1' has zero "
        "norm"),
    # test pairs follow the rule of seed pairs
    "eval-test-unknown-source": (
        lambda p, mp: eval_inputs(p, lambda text: text, test="zz\te3\n"), 1,
        "test.tsv: test pair zz\te3: source entity 'zz' is unknown"),
    "eval-test-unknown-target": (
        lambda p, mp: eval_inputs(p, lambda text: text, test="e3\tzz\n"), 1,
        "test.tsv: test pair e3\tzz: target entity 'zz' is unknown"),
    "eval-test-lexeme-target": (
        lambda p, mp: eval_inputs(p, lambda text: text, test="e3\tw1\n"), 1,
        "test.tsv: test pair e3\tw1: target entity 'w1' is unknown"),
    # an empty field is not an id; every tab-separated input says which
    # fields its lines have
    "eval-test-empty-field": (
        lambda p, mp: eval_inputs(p, lambda text: text, test="e3\te3\na1\t\n"),
        1, "test.tsv: line 2: expected `source<TAB>target`"),
    "eval-test-empty": (
        lambda p, mp: eval_inputs(p, lambda text: text, test="\n"), 1,
        "test.tsv: no test pairs"),
    "eval-test-target-twice": (
        lambda p, mp: eval_inputs(p, lambda text: text,
                                  test="e3\te3\ne4\te3\n"), 1,
        "test.tsv: test pair e4\te3: target entity 'e3' is used twice"),
    "align-vec-duplicate-token": (
        lambda p, mp: align_inputs(p, edit_src=edit_line(
            4, lambda line: "@ent:e0 " + line.split(" ", 1)[1])),
        1, "src.vec: line 4: duplicate token '@ent:e0', first on line 2"),
    "align-vec-non-numeric": (
        lambda p, mp: align_inputs(p, edit_src=edit_line(
            3, lambda line: line.rsplit(" ", 1)[0] + " x")),
        1, "src.vec: line 3: could not convert string to float: 'x'"),
    # float() reads `1_0` as 10 and `١` as 1; no word2vec writer emits
    # either, so neither is read as a number
    "align-vec-underscore-value": (
        lambda p, mp: align_inputs(p, edit_src=edit_line(
            3, lambda line: line.rsplit(" ", 1)[0] + " 1_0")),
        1, "src.vec: line 3: value '1_0' is not an ASCII number without "
        "underscores"),
    "align-vec-non-ascii-digit": (
        lambda p, mp: align_inputs(p, edit_src=edit_line(
            4, lambda line: line.rsplit(" ", 1)[0] + " \u0661")),
        1, "src.vec: line 4: value '\u0661' is not an ASCII number without "
        "underscores"),
    # an underscore in a token is no value
    "align-vec-underscore-token": (
        lambda p, mp: align_inputs(p, edit_src=edit_line(
            13, lambda line: "w_3 " + line.split(" ", 1)[1])), 0, ""),
    "align-vec-non-finite": (
        lambda p, mp: align_inputs(p, edit_src=edit_line(
            5, lambda line: line.rsplit(" ", 1)[0] + " inf")),
        1, "src.vec: line 5: non-finite value for '@ent:e3'"),
    "align-vec-short-row": (
        lambda p, mp: align_inputs(p, edit_src=edit_line(
            6, lambda line: line.rsplit(" ", 1)[0])),
        1, "src.vec: line 6: 2 values, the header says 3"),
    "align-vec-row-count": (
        lambda p, mp: align_inputs(p, edit_src=edit_line(
            1, lambda line: "13 3")),
        1, "src.vec: line 14: 12 rows, the header says 13"),
    # the matrix is sized by what the file can hold, not by the header
    "align-vec-row-count-huge": (
        lambda p, mp: align_inputs(p, edit_src=edit_line(
            1, lambda line: f"{10**15} 3")),
        1, f"src.vec: line 14: 12 rows, the header says {10**15}"),
    "align-vec-width-huge": (
        lambda p, mp: align_inputs(p, edit_src=edit_line(
            1, lambda line: f"12 {10**20}")),
        1, f"src.vec: line 2: 3 values, the header says {10**20}"),
    "align-vec-width-mismatch": (
        with_wide_target, 1,
        "error: src.vec and tgt.vec differ in width: 3 and 5 values a row"),
    "align-seed-unknown-entity": (
        lambda p, mp: align_inputs(p, seeds=SEEDS + "zz\te5\n"), 1,
        "seeds.tsv: seed pair zz\te5: source entity 'zz' is unknown"),
    "align-seed-source-twice": (
        lambda p, mp: align_inputs(p, seeds=SEEDS + "e0\te5\n"), 1,
        "seeds.tsv: seed pair e0\te5: source entity 'e0' is used twice"),
    "align-seed-target-twice": (
        lambda p, mp: align_inputs(p, seeds=SEEDS + "e5\te1\n"), 1,
        "seeds.tsv: seed pair e5\te1: target entity 'e1' is used twice"),
    "align-seed-empty": (
        lambda p, mp: align_inputs(p, seeds=""), 1,
        "seeds.tsv: no seed pairs"),
    "align-lexicon-empty-field": (
        lambda p, mp: with_lexicon(p, "w0\tw0\nsw500\t\n"), 1,
        "lexicon.tsv: line 2: expected `source<TAB>target`"),
    # a raw corpus holds no entity marker, so a lexicon item that is one
    # is never a word
    "align-lexicon-entity-marker": (
        lambda p, mp: with_lexicon(p, "w0\tw0\n@ent:e7\t@ent:e7\n"), 1,
        "lexicon.tsv: line 2: lexicon item '@ent:e7' is an entity marker, "
        "not a word"),
    "ground-valid": (
        lambda p, mp: ground_inputs(p, "a\tsx\nb\tbee\n"), 0, ""),
    "ground-forms-empty-id": (
        lambda p, mp: ground_inputs(p, "a\tsx\n\tsx se1\n"), 1,
        "forms.tsv: line 2: expected `entity-id<TAB>surface form`"),
    # lexicon pairs may be many-to-many and name absent items
    "align-seed-lexicon-many-to-many": (
        lambda p, mp: with_lexicon(p, "w0\tw0\nw0\tw1\nzz\tw2\n"), 0, ""),
    # an out-of-range training setting is an input error, not a crash in
    # training or an untrained space
    "run-config-batch-size-0": config_case("batch_size = 0", ">= 1"),
    "run-config-batch-size-negative": config_case("batch_size = -5", ">= 1"),
    "run-config-dim-0": config_case("dim = 0", ">= 1"),
    "run-config-neg-samples-0": config_case("neg_samples = 0", ">= 1"),
    "run-config-epochs-negative": config_case("epochs = -3", ">= 0"),
    "run-config-gcn-layers-negative": config_case("gcn_layers = -1", ">= 0"),
    "run-config-lr-nan": config_case("lr = nan", "finite and > 0"),
    "run-config-bias-inf": config_case("bias_b = inf", "finite and > 0"),
    # below 1, min_freq would keep every token, as 1 does
    "run-config-min-freq-negative": (
        lambda p, mp: run_inputs(p, "dim = 8\nepochs = 1\nmin_freq = -4\n"),
        1, "cfg: min_freq must be >= 1"),
    # a second value of a key does not silently replace the first
    "run-config-key-twice": (
        lambda p, mp: run_inputs(p, "dim = 8\nepochs = 1\ndim = 16\n"), 1,
        "cfg: line 3: key 'dim' given twice"),
    # a byte that is not UTF-8 names the file and line
    "align-vec-not-utf8": (
        lambda p, mp: with_bad_byte(align_inputs(p), p / "src.vec", 3), 1,
        "src.vec: line 3: byte b'\\xff' is not UTF-8"),
    "align-seed-not-utf8": (
        lambda p, mp: with_bad_byte(align_inputs(p), p / "seeds.tsv", 2), 1,
        "seeds.tsv: line 2: byte b'\\xff' is not UTF-8"),
    "train-kg-not-utf8": (
        lambda p, mp: with_bad_byte(pregrounded_inputs(p, "@ent:a w\n"),
                                    p / "kg.tsv", 2), 1,
        "kg.tsv: line 2: byte b'\\xff' is not UTF-8"),
    # `synth` checks that its triples can be drawn before drawing them
    "synth-more-triples-than-possible": (
        lambda p, mp: ["synth", "--out", p / "bench", "--entities", 20,
                       "--triples", 400, "--relations", 1], 1,
        "n_triples 400 and their edge_drop replacements need 420 distinct "
        "triples, but n_entities 20 and n_relations 1 allow 380"),
    "synth-relations-0": (
        lambda p, mp: ["synth", "--out", p / "bench", "--relations", 0], 1,
        "error: n_relations must be >= 1"),
    # nan compares false with every bound, and would be read as skew 0
    "synth-concept-skew-nan": (
        lambda p, mp: ["synth", "--out", p / "bench", "--concept-skew", "nan"],
        1, "error: concept_skew must be finite and >= 0"),
    "synth-concept-skew-inf": (
        lambda p, mp: ["synth", "--out", p / "bench", "--concept-skew", "inf"],
        1, "error: concept_skew must be finite and >= 0"),
    # at skew 2000 the weight of every common concept but the first
    # underflows to 0, and a signature draws 2 distinct ones
    "synth-concept-skew-underflow": (
        lambda p, mp: ["synth", "--out", p / "bench", "--concept-skew",
                       2000], 1,
        "error: concept_skew 2000.0 gives 1 common concepts a non-zero "
        "float64 weight, but signature_size 3 draws 2 distinct ones"),
    # skew 1000 leaves 2 concepts a non-zero weight, enough for 2 draws
    "synth-concept-skew-1000": (
        lambda p, mp: ["synth", "--out", p / "bench", "--entities", 20,
                       "--triples", 40, "--walks", 10, "--concept-skew",
                       1000], 0, ""),
    # a walk count or length below 1 would write blank documents
    "synth-walks-negative": (
        lambda p, mp: ["synth", "--out", p / "bench", "--walks", -5], 1,
        "error: n_walks must be >= 1"),
    "synth-walk-length-negative": (
        lambda p, mp: ["synth", "--out", p / "bench", "--walk-length", -3],
        1, "error: walk_length must be >= 1"),
    "run-stop-frac-above-1": (
        lambda p, mp: run_inputs(p, ONE_EPOCH) + ["--stop-frac", 5], 1,
        "stop_fraction"),
    # numpy takes non-negative seeds only; the option says so when parsed
    "synth-seed-negative": (
        lambda p, mp: ["synth", "--out", p / "bench", "--seed", -1], 1,
        "Invalid value for '--seed': -1 is not in the range x>=0"),
    "train-seed-negative": (
        lambda p, mp: train_inputs(p, "dim = 4\n") + ["--seed", -1], 1,
        "Invalid value for '--seed': -1 is not in the range x>=0"),
    "run-seed-negative": (
        lambda p, mp: run_inputs(p, "dim = 4\n") + ["--seed", -2], 1,
        "Invalid value for '--seed': -2 is not in the range x>=0"),
    "ablate-seed-negative": (
        lambda p, mp: ablate_inputs(p, "--seed", -1), 1,
        "Invalid value for '--seed': -1 is not in the range x>=0"),
    # an empty list of settings is not the whole grid
    "ablate-settings-empty": (
        lambda p, mp: ablate_inputs(p, "--settings", ""), 1,
        "Invalid value for '--settings': names no ablation setting"),
    "ablate-settings-commas": (
        lambda p, mp: ablate_inputs(p, "--settings", " , ,"), 1,
        "Invalid value for '--settings': names no ablation setting"),
    # the gold files are read before the first stage, once
    "run-gold-malformed": (
        lambda p, mp: with_bad_gold(run_inputs(p, ONE_EPOCH),
                                    p / "bench" / "gold_entities.tsv"), 1,
        "gold_entities.tsv: line 2: expected `source<TAB>target`"),
    "run-gold-lexicon-malformed": (
        lambda p, mp: with_bad_gold(
            run_inputs(p, ONE_EPOCH) + ["--seed-lexicon"],
            p / "bench" / "gold_lexemes.tsv"), 1,
        "gold_lexemes.tsv: line 2: expected `source<TAB>target`"),
    "run-gold-lexicon-entity-marker": (
        lambda p, mp: with_gold_edit(
            run_inputs(p, ONE_EPOCH) + ["--seed-lexicon"],
            p / "bench" / "gold_lexemes.tsv", 3,
            lambda line: "sw2\t@ent:b8"), 1,
        "gold_lexemes.tsv: line 3: lexicon item '@ent:b8' is an entity "
        "marker, not a word"),
    "ablate-gold-malformed": (
        lambda p, mp: with_bad_gold(ablate_inputs(p),
                                    p / "bench" / "gold_entities.tsv"), 1,
        "gold_entities.tsv: line 2: expected `source<TAB>target`"),
    "ablate-gold-lexicon-malformed": (
        lambda p, mp: with_bad_gold(
            ablate_inputs(p, "--settings", "full,with_seed_lexicon"),
            p / "bench" / "gold_lexemes.tsv"), 1,
        "gold_lexemes.tsv: line 2: expected `source<TAB>target`"),
    # the gold entities are checked against the KGs before the first
    # stage: at seed 0 lines 1 (a0, b32) and 21 (a20, b33) are test pairs,
    # a20 the first, and line 12 (a11, b37) is a seed pair
    "run-gold-unknown-test-source": (
        lambda p, mp: with_gold_edit(
            run_inputs(p, ONE_EPOCH), p / "bench" / "gold_entities.tsv", 1,
            lambda line: "zz\tb32"), 1,
        "gold_entities.tsv: test pair zz\tb32: source entity 'zz' is "
        "unknown"),
    "run-gold-unknown-seed-target": (
        lambda p, mp: with_gold_edit(
            run_inputs(p, ONE_EPOCH), p / "bench" / "gold_entities.tsv", 12,
            lambda line: "a11\tzz"), 1,
        "gold_entities.tsv: seed pair a11\tzz: target entity 'zz' is "
        "unknown"),
    "run-gold-used-twice": (
        lambda p, mp: with_gold_edit(
            run_inputs(p, ONE_EPOCH), p / "bench" / "gold_entities.tsv", 21,
            lambda line: "a20\tb32"), 1,
        "gold_entities.tsv: test pair a0\tb32: target entity 'b32' is "
        "used twice"),
    "ablate-gold-unknown-test-target": (
        lambda p, mp: with_gold_edit(
            ablate_inputs(p), p / "bench" / "gold_entities.tsv", 1,
            lambda line: "a0\tzz"), 1,
        "gold_entities.tsv: test pair a0\tzz: target entity 'zz' is "
        "unknown"),
    # an allocation that fails is an input or setting too large, not a crash
    "align-out-of-memory": (
        lambda p, mp: out_of_memory(
            mp, alignment, "self_learn",
            "Unable to allocate 20.0 GiB for an array with shape "
            "(50000, 53687)") or align_inputs(p), 1,
        "error: out of memory: Unable to allocate 20.0 GiB"),
    "eval-out-of-memory-bare": (
        lambda p, mp: out_of_memory(mp, pipeline, "evaluate")
        or eval_inputs(p, lambda text: text), 1, "error: out of memory\n"),
}


@pytest.mark.parametrize("build, code, message", CASES.values(),
                         ids=CASES.keys())
def test_exit_code(tmp_path, monkeypatch, capsys, build, code, message):
    args = build(tmp_path, monkeypatch)
    assert main_exit_code(monkeypatch, args) == code
    out, err = capsys.readouterr()
    assert message in err
    if args[0] in ("run", "ablate") and code == 1:
        # a rejected input stops the command before its first stage, so
        # it writes nothing
        assert "stage" not in out
        assert not [f for f in (tmp_path / "run").rglob("*")
                    if f.suffix in (".vec", ".grounded")]
    if args[0] == "align":
        # a failed alignment leaves no state file behind
        assert (tmp_path / "state.json").exists() == (code == 0)
    if args[0] == "eval":
        assert (tmp_path / "report.tsv").exists() == (code == 0)
    if args[0] == "train":
        assert (tmp_path / "emb.vec").exists() == (code == 0)
    if args[0] == "ground":
        assert (tmp_path / "out.grounded").exists() == (code == 0)
    if args[0] == "synth":
        assert (tmp_path / "bench").exists() == (code == 0)
        if message.startswith("error:"):
            # a rejected setting is one line
            assert err.count("\n") == 1
