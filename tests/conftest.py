import signal
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from kgalign.cli import main
from kgalign.config import OptimizerConfig
from kgalign.grounding import GroundedCorpus, entity_token, lexeme
from kgalign.kg import from_string_triples


@pytest.fixture
def tiny_kg():
    triples = [("a", "r", "b"), ("a", "r", "c"), ("d", "r", "b"),
               ("c", "s", "d"), ("b", "s", "e")]
    return from_string_triples(triples, "xx")


def make_corpus(docs):
    """docs: list of lists; strings are lexemes, ('ent', id) are entities."""
    parsed = []
    for doc in docs:
        tokens = []
        for tok in doc:
            if isinstance(tok, tuple) and tok[0] == "ent":
                tokens.append(entity_token(tok[1], (tok[1],)))
            else:
                tokens.append(lexeme(tok))
        parsed.append(tokens)
    return GroundedCorpus(parsed)


@pytest.fixture
def tiny_corpus(tiny_kg):
    return make_corpus([
        [("ent", "a"), "likes", ("ent", "b"), "a", "lot"],
        [("ent", "c"), "and", ("ent", "d"), "are", "close"],
        ["nothing", "grounded", "here"],
    ])


def small_config(**overrides):
    defaults = dict(dim=4, gcn_layers=1, neg_samples=2, context_radius=2,
                    batch_size=4, epochs=2, min_freq=1)
    defaults.update(overrides)
    return OptimizerConfig(**defaults)


def random_kg(rng, n_entities=8, n_triples=15, n_relations=2, lang="xx"):
    triples = set()
    while len(triples) < n_triples:
        h = int(rng.integers(n_entities))
        t = int(rng.integers(n_entities))
        if h == t:
            continue
        r = int(rng.integers(n_relations))
        triples.add((f"e{h}", f"r{r}", f"e{t}"))
    # make sure every entity appears so the vocabulary is full-sized
    strings = sorted(triples)
    for i in range(n_entities):
        strings.append((f"e{i}", "r0", f"e{(i + 1) % n_entities}"))
    return from_string_triples(strings, lang)


def random_corpus(rng, kg, n_docs=4, doc_len=10, n_words=6):
    docs = []
    for _ in range(n_docs):
        doc = []
        for _ in range(doc_len):
            if rng.random() < 0.4:
                doc.append(("ent", kg.entities[int(rng.integers(kg.n_entities))]))
            else:
                doc.append(f"w{int(rng.integers(n_words))}")
        docs.append(doc)
    return make_corpus(docs)


@contextmanager
def time_limit(seconds):
    """Fail the test if the block runs longer than `seconds` (SIGALRM
    based, main thread only).  pytest's failure is a BaseException, so the
    program's own error handlers do not swallow it."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def main_exit_code(monkeypatch, args):
    """Exit code of the `kgalign` entry point run with `args`."""
    monkeypatch.setattr(sys, "argv", ["kgalign", *map(str, args)])
    with time_limit(30):
        try:
            main()
        except SystemExit as exc:
            return exc.code
    return 0
