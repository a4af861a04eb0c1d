"""Hypothesis fuzz of the `.vec` and pair-file loaders: every text either
loads into a consistent result or raises a ValueError that names the
file, and no text makes a loader run long."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kgalign.alignment import load_seed_pairs
from kgalign.embedding import read_embeddings

from conftest import time_limit

# fragments that reach the loaders' checks more often than random text
FIELDS = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "-0.5", "1e3", "nan", "inf", "x",
                     "", "@ent:a", "w", "²", "١", "\t", "\r"]),
    st.text(max_size=4))
LINES = st.lists(st.lists(FIELDS, max_size=4).map(" ".join), max_size=5)
COUNTS = st.one_of(st.integers(0, 4).map(str), FIELDS)
TEXTS = st.one_of(
    st.text(), LINES.map("\n".join),
    st.builds(lambda n, d, lines: f"{n} {d}\n" + "\n".join(lines),
              COUNTS, COUNTS, LINES))


def write(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz_input.txt"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


@settings(max_examples=300, deadline=None)
@given(text=TEXTS)
def test_read_embeddings_loads_or_names_the_file(tmp_path_factory, text):
    path = write(tmp_path_factory, text)
    with time_limit(10):
        try:
            tokens, mat = read_embeddings(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: line "), exc
            return
    dim = int(text.split()[1])
    assert mat.shape == (len(tokens), dim)
    assert len(set(tokens)) == len(tokens)
    assert np.isfinite(mat).all()


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(), LINES.map("\n".join),
                      LINES.map(lambda lines: "\n".join(
                          line.replace(" ", "\t") for line in lines))))
def test_load_seed_pairs_loads_or_names_the_file(tmp_path_factory, text):
    path = write(tmp_path_factory, text)
    with time_limit(10):
        try:
            pairs = load_seed_pairs(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: line "), exc
            return
    assert all(len(pair) == 2 and "\t" not in pair[0] + pair[1]
               and "\n" not in pair[0] + pair[1] for pair in pairs)
