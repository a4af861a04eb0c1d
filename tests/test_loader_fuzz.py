"""Hypothesis fuzz of the file loaders: every text either loads into a
consistent result or raises a ValueError that names the file, no text
makes a loader run long, and every loader names the file and line of a
byte that is not UTF-8."""

import copy
import io
import json
from unittest.mock import patch

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgalign import config
from kgalign.alignment import (AlignmentSpace, AlignmentState,
                               load_seed_pairs, load_state, save_state)
from kgalign.config import open_text, parse_config_file
from kgalign.embedding import read_embeddings
from kgalign.grounding import (SurfaceFormIndex, build_index, ground_corpus,
                               load_pregrounded)
from kgalign.kg import from_string_triples, load_kg

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
# texts for the tab-separated loaders: the fragments also joined by tabs
TSV_TEXTS = st.one_of(st.text(), LINES.map("\n".join),
                      LINES.map(lambda lines: "\n".join(
                          line.replace(" ", "\t") for line in lines)))


def write(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz_input.txt"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


@settings(max_examples=300, deadline=None)
@given(text=TEXTS)
@example(text="1 2\n@ent:a 1_0 0.5\n")
@example(text="1 1\n@e_nt:a \u0661\n")
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
    # every value read is one a word2vec writer emits: ASCII, with no `_`
    for line in list(io.StringIO(text, newline=None))[1:]:
        values = line.rstrip("\n").split(" ")[1:]
        assert all(v.isascii() and "_" not in v for v in values), line


@settings(max_examples=300, deadline=None)
@given(text=TSV_TEXTS)
def test_load_seed_pairs_loads_or_names_the_file(tmp_path_factory, text):
    path = write(tmp_path_factory, text)
    with time_limit(10):
        try:
            pairs = load_seed_pairs(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: line "), exc
            return
    assert all(len(pair) == 2 and pair[0] and pair[1]
               and "\t" not in pair[0] + pair[1]
               and "\n" not in pair[0] + pair[1] for pair in pairs)


@settings(max_examples=300, deadline=None)
@given(text=TSV_TEXTS)
def test_load_kg_loads_or_names_the_file(tmp_path_factory, text):
    path = write(tmp_path_factory, text)
    with time_limit(10):
        try:
            kg = load_kg(path, "xx")
        except ValueError as exc:
            assert (str(exc).startswith(f"{path}: line ")
                    or str(exc) == f"{path}: empty triples file"), exc
            return
    assert kg.triples
    assert all(name and not any(ch.isspace() for ch in name)
               for name in kg.entities + kg.relations)


# entities named like the fragments, so that forms are often inserted
FORMS_KG = from_string_triples([("0", "r", "x"), ("w", "r", "@ent:a")], "xx")


def trie_entries(node):
    """(depth, entity id) of every terminal node below `node`."""
    for key, child in node.items():
        if key is SurfaceFormIndex._ENTRY:
            yield 0, child
        else:
            yield from ((depth + 1, ent) for depth, ent in trie_entries(child))


@settings(max_examples=300, deadline=None)
@given(text=TSV_TEXTS)
def test_build_index_loads_or_names_the_file(tmp_path_factory, text):
    path = write(tmp_path_factory, text)
    with time_limit(10):
        try:
            index = build_index(path, FORMS_KG)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: line "), exc
            return
    # every form inserted is non-empty and names an entity of the KG
    assert all(depth > 0 and ent in FORMS_KG.ent_index
               for depth, ent in trie_entries(index.root))


def apply_edit(data, kind, key, i, j, value):
    """Edit `kind` of `key` of a parsed state file at the positions `i` and
    `j`, taken modulo the length.

    On a side (`source` or `target`): a renamed item becomes `value`; a
    non-finite cell is `value` if that is "inf" or "-inf", else nan; a
    zeroed row keeps its width; a boolean cell is true for odd `j`.

    On another field: "drop" deletes entry `i` of a list, or the field;
    "duplicate" inserts a copy of entry `j` at `i`; "rename" sets item `j`
    of pair `i` to `value`, or a counter to `j` - 10; "retype" sets entry
    `i` (for odd `j`) or the whole field to `value`."""
    if key not in ("source", "target"):
        apply_field_edit(data, kind, key, i, j, value)
        return
    items, rows = data[key]["items"], data[key]["vectors"]
    if kind == "drop-item" and items:
        del items[i % len(items)]
    elif kind == "duplicate-item" and items:
        items[i % len(items)] = items[j % len(items)]
    elif kind == "rename-item" and items:
        items[i % len(items)] = value
    elif kind == "add-row":
        rows.insert(i % (len(rows) + 1), list(rows[j % len(rows)])
                    if rows else [0.5])
    elif kind == "drop-row" and rows:
        del rows[i % len(rows)]
    elif kind == "shorten-row" and rows and rows[i % len(rows)]:
        row = rows[i % len(rows)]
        del row[j % len(row)]
    elif kind == "non-finite" and rows and rows[i % len(rows)]:
        row = rows[i % len(rows)]
        row[j % len(row)] = float(value if value in ("inf", "-inf") else "nan")
    elif kind == "zero-row" and rows:
        rows[i % len(rows)] = [0.0] * len(rows[i % len(rows)])
    elif kind == "boolean" and rows and rows[i % len(rows)]:
        row = rows[i % len(rows)]
        row[j % len(row)] = bool(j % 2)


def apply_field_edit(data, kind, key, i, j, value):
    """The `apply_edit` of a field that is not a side.  `value` is
    copied: a list drawn by `sampled_from` is one object across edits
    and examples, and an edit of the copy leaves the strategy's as drawn."""
    if key not in data:
        return
    value = copy.deepcopy(value)
    entries = data[key] if type(data[key]) is list else None
    if kind == "drop":
        if entries is None:
            del data[key]
        elif entries:
            del entries[i % len(entries)]
    elif kind == "duplicate" and entries:
        entries.insert(i % (len(entries) + 1),
                       copy.deepcopy(entries[j % len(entries)]))
    elif kind == "rename":
        if entries is None:
            data[key] = j - 10
        elif entries and key == "proposal_counts":
            entries[i % len(entries)] = j - 10
        elif entries and type(entries[i % len(entries)]) is list:
            pair = entries[i % len(entries)]
            if pair:
                pair[j % len(pair)] = value
    elif kind == "retype":
        if entries and j % 2:
            entries[i % len(entries)] = value
        else:
            data[key] = value


SIDE_EDITS = st.tuples(
    st.sampled_from(["drop-item", "duplicate-item", "rename-item", "add-row",
                     "drop-row", "shorten-row", "non-finite", "zero-row",
                     "boolean"]),
    st.sampled_from(["source", "target"]), st.integers(0, 20),
    st.integers(0, 20),
    st.one_of(st.sampled_from(["inf", "-inf", "@ent:e0", "w0", "", None]),
              st.text(max_size=3)))
FIELD_EDITS = st.tuples(
    st.sampled_from(["drop", "duplicate", "rename", "retype"]),
    st.sampled_from(["ent_pairs", "lex_pairs", "iteration", "lexeme_top_f",
                     "proposal_counts"]),
    st.integers(0, 20), st.integers(0, 20),
    st.one_of(st.sampled_from(["e0", "e1", "e5", "zz", "w0", "w1", "@ent:e0",
                               "", None, True, 0, 3, -1, 2.5, [], ["e0"],
                               ["e2", "e3"], ["w0", "w0", "w0"], {}]),
              st.text(max_size=3)))
EDITS = st.lists(st.one_of(SIDE_EDITS, FIELD_EDITS), min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(edits=EDITS)
def test_load_state_checks_each_side(tmp_path_factory, edits):
    path = tmp_path_factory.getbasetemp() / "fuzz_state.json"
    rng = np.random.default_rng(0)
    items = tuple(f"@ent:e{i}" for i in range(5)) + ("w0", "w1")
    save_state(AlignmentState(
        source=AlignmentSpace(items, rng.standard_normal((7, 3))),
        target=AlignmentSpace(items, rng.standard_normal((7, 3))),
        ent_pairs=[("e0", "e0"), ("e1", "e2")],
        lex_pairs=[("w0", "w1"), ("w1", "w1")], transform=np.eye(3),
        iteration=2, proposal_counts=[1, 0], lexeme_top_f=7), path)
    data = json.loads(path.read_text(encoding="utf-8"))
    for edit in edits:
        apply_edit(data, *edit)
    path.write_text(json.dumps(data), encoding="utf-8")
    with time_limit(10):
        try:
            state = load_state(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), exc
            return
    # JSON true and false are not numbers
    assert not any(type(x) is bool for side in ("source", "target")
                   for row in data[side]["vectors"] for x in row)
    for space in (state.source, state.target):
        assert len(space.items) == len(space.vectors)
        assert len(set(space.items)) == len(space.items)
        assert np.isfinite(space.vectors).all()
        assert space.vectors.any(axis=1).all()
    # the entity pairs are 1-to-1 over the sides' entities
    assert state.ent_pairs
    for ids, space in zip(zip(*state.ent_pairs), (state.source, state.target)):
        assert len(set(ids)) == len(ids)
        assert all(f"@ent:{e}" in space.index for e in ids)
    # the lexeme pairs name lexemes, and the counters are counts
    for pair in state.lex_pairs:
        for item, space in zip(pair, (state.source, state.target)):
            assert item in space.index and not item.startswith("@ent:")
    assert all(type(n) is int and n >= 0 for n in (
        state.iteration, state.lexeme_top_f, *state.proposal_counts))


# line ends and marks that two readers could split or strip differently
NEWLINE_TEXTS = st.lists(st.one_of(
    st.sampled_from(["a", "b c", "\t", "\n", "\r\n", "\r", "\ufeff",
                     "\u2028", "\x85", "\x0c", "é"]),
    st.text(max_size=3))).map("".join)


@settings(max_examples=300, deadline=None)
@given(text=NEWLINE_TEXTS, piece=st.integers(1, 7))
def test_open_text_reads_as_open(tmp_path_factory, text, piece):
    """Read through UTF-8 checks of 1 to 7 bytes, so multi-byte
    characters straddle the pieces."""
    path = write(tmp_path_factory, text)
    with open(path, encoding="utf-8") as fh:
        lines = list(fh)
    with open(path, encoding="utf-8") as fh:
        whole = fh.read()
    with patch.object(config, "UTF8_PIECE", piece):
        with open_text(path) as fh:
            assert list(fh) == lines
        with open_text(path) as fh:
            assert fh.read() == whole


KG = from_string_triples([("a", "r", "b")], "xx")
LOADERS = (read_embeddings, load_seed_pairs, load_state, parse_config_file,
           lambda path: load_kg(path, "xx"),
           lambda path: build_index(path, KG),
           lambda path: ground_corpus(path, SurfaceFormIndex(), KG),
           lambda path: load_pregrounded(path, KG))


@settings(max_examples=300, deadline=None)
@given(data=st.binary(), piece=st.integers(1, 7))
def test_loaders_name_the_line_of_a_non_utf8_byte(tmp_path_factory, data,
                                                  piece):
    """Also with UTF-8 checks of 1 to 7 bytes, so a truncated or invalid
    sequence can straddle the pieces."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        where = f"line {lineno}: byte "
    else:
        where = ""  # a text: covered above for the .vec and pair loaders
    path = tmp_path_factory.getbasetemp() / "fuzz_input.bin"
    path.write_bytes(data)
    for load in LOADERS:
        with time_limit(10), patch.object(config, "UTF8_PIECE", piece):
            try:
                load(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: {where}"), exc
                continue
        assert not where, "a file that is not UTF-8 loaded"
