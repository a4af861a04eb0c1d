"""Each command imports only what it runs: scipy, which only the GCN of
training uses, stays out of `synth`, `ground`, `align` and `eval`, and the
training pool imports it once, before it forks its workers.  Each check
runs in a fresh interpreter, since other tests load scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# argv[1]: a scratch directory; prints the scipy modules loaded
STAGED_COMMANDS = """
import json, sys
from pathlib import Path

import kgalign.cli
import numpy as np
from click.testing import CliRunner

work = Path(sys.argv[1])
runner = CliRunner()


def run(*args):
    result = runner.invoke(kgalign.cli.cli, [str(a) for a in args],
                           catch_exceptions=False)
    assert result.exit_code == 0, result.output


def write_vec(path, tokens, mat):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(tokens)} {mat.shape[1]}\\n")
        for tok, row in zip(tokens, mat):
            fh.write(tok + " " + " ".join(repr(float(x)) for x in row) + "\\n")


run("synth", "--out", work / "bench", "--entities", 40, "--triples", 160,
    "--relations", 3, "--walks", 200, "--walk-length", 5,
    "--common-concepts", 20)
run("ground", "--kg", work / "bench" / "src.triples",
    "--forms", work / "bench" / "src.forms",
    "--corpus", work / "bench" / "src.corpus",
    "--out", work / "src.grounded")
rng = np.random.default_rng(0)
tokens = [f"@ent:e{i}" for i in range(8)] + [f"w{i}" for i in range(4)]
src = rng.standard_normal((len(tokens), 3))
write_vec(work / "src.vec", tokens, src)
write_vec(work / "tgt.vec", tokens, src[:, ::-1])
(work / "seeds.tsv").write_text("e0\\te0\\ne1\\te1\\ne2\\te2\\n")
(work / "test.tsv").write_text("e3\\te3\\ne4\\te4\\n")
run("align", "--src-emb", work / "src", "--tgt-emb", work / "tgt",
    "--seed-entities", work / "seeds.tsv", "--out", work / "state.json")
run("eval", "--state", work / "state.json", "--test", work / "test.tsv")
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""

# prints whether scipy.sparse was loaded in this process before and after
# `train_spaces`, and, for each of its jobs, the worker's pid and whether
# scipy.sparse was loaded there when the job started
TRAINING_POOL = """
import json, os, sys

from kgalign import embedding, pipeline
from kgalign.config import OptimizerConfig


def job_start(graph, corpus, optimizer, seed):
    return [os.getpid(), "scipy.sparse" in sys.modules], None


embedding.train = job_start
pipeline.train_workers = lambda n_jobs: 2
before = "scipy.sparse" in sys.modules
spaces = pipeline.train_spaces([OptimizerConfig.desk_scale()],
                               [(None, None), (None, None)], seed=0)
print(json.dumps({"pid": os.getpid(), "before": before,
                  "after": "scipy.sparse" in sys.modules,
                  "jobs": list(*spaces.values())}))
"""


def run_fresh(script, *args):
    """The JSON that `script` prints last, run by a fresh interpreter that
    imports kgalign from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_staged_commands_load_no_scipy(tmp_path):
    assert run_fresh(STAGED_COMMANDS, tmp_path) == []
    assert (tmp_path / "src.grounded").is_file()
    assert (tmp_path / "state.json").is_file()


def test_training_workers_inherit_scipy_from_before_the_fork():
    seen = run_fresh(TRAINING_POOL)
    assert not seen["before"] and seen["after"]
    assert len(seen["jobs"]) == 2
    for pid, loaded in seen["jobs"]:
        assert pid != seen["pid"]  # the job ran in a forked worker
        assert loaded
