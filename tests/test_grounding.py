import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgalign.embedding import RARE_TOKEN, encode_corpus, init_space, vocabulary
from kgalign.grounding import (ENTITY_PREFIX, GroundedCorpus, SurfaceFormIndex,
                               TokenTable, build_index, entity_token,
                               ground_corpus, ground_tokens, grounding_stats,
                               lexeme, load_pregrounded, write_grounded)
from kgalign.kg import from_string_triples

from conftest import make_corpus, small_config
from oracles import naive_grounding_stats, reconstruct


def make_index(forms, case_fold=True):
    index = SurfaceFormIndex(case_fold=case_fold)
    for ent, form in forms:
        index.insert(form.split(), ent)
    return index


class TestIndex:
    def test_case_folded_insert(self):
        index = make_index([("e1", "New York")])
        assert index.longest_match(["new", "york"], 0) == ("e1", 2)

    def test_collision_first_wins(self):
        index = make_index([("e1", "paris"), ("e2", "paris")])
        assert index.longest_match(["paris"], 0) == ("e1", 1)

    def test_unknown_entity_skipped(self, tmp_path, tiny_kg):
        path = tmp_path / "forms.tsv"
        path.write_text("a\talpha\nzz\tzulu\n", encoding="utf-8")
        index = build_index(path, tiny_kg)
        assert index.longest_match(["alpha"], 0) == ("a", 1)
        assert index.longest_match(["zulu"], 0) is None

    def test_empty_surface_form_rejected(self, tmp_path, tiny_kg):
        path = tmp_path / "forms.tsv"
        path.write_text("a\t \n", encoding="utf-8")
        with pytest.raises(ValueError, match="empty surface form"):
            build_index(path, tiny_kg)

    def test_no_case_fold(self):
        index = make_index([("e1", "Paris")], case_fold=False)
        assert index.longest_match(["paris"], 0) is None
        assert index.longest_match(["Paris"], 0) == ("e1", 1)


class TestGroundTokens:
    def test_longest_match_wins(self):
        index = make_index([("e1", "new york"), ("e2", "new york city")])
        doc = ground_tokens(["new", "york", "city", "is", "big"], index,
                            TokenTable())
        assert [t.text for t in doc] == ["@ent:e2", "is", "big"]

    def test_greedy_scan_resumes_after_match(self):
        index = make_index([("e1", "a b"), ("e2", "a")])
        doc = ground_tokens(["a", "b", "a"], index, TokenTable())
        assert [t.text for t in doc] == ["@ent:e1", "@ent:e2"]

    def test_no_match_all_lexemes(self):
        index = make_index([("e1", "x")])
        doc = ground_tokens(["y", "z"], index, TokenTable())
        assert all(not t.is_entity for t in doc)

    def test_prefix_without_terminal_not_matched(self):
        index = make_index([("e1", "a b c")])
        doc = ground_tokens(["a", "b", "x"], index, TokenTable())
        assert all(not t.is_entity for t in doc)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from("abcd"), max_size=30))
    def test_round_trip_reconstruction(self, tokens):
        index = make_index([("e1", "a b"), ("e2", "c"), ("e3", "b c d")])
        doc = ground_tokens(list(tokens), index, TokenTable())
        rebuilt = []
        for tok in doc:
            rebuilt.extend(tok.surface if tok.is_entity else [tok.text])
        assert rebuilt == list(tokens)


class TestGroundCorpus:
    def test_files_and_stats(self, tmp_path, tiny_kg):
        forms = tmp_path / "forms.tsv"
        forms.write_text("a\talpha\nb\tbig b\n", encoding="utf-8")
        corpus_file = tmp_path / "corpus.txt"
        corpus_file.write_text("alpha meets big b\nalpha again\n",
                               encoding="utf-8")
        index = build_index(forms, tiny_kg)
        corpus, stats = ground_corpus(corpus_file, index, tiny_kg)
        assert [t.text for t in corpus.documents[0]] == \
            ["@ent:a", "meets", "@ent:b"]
        assert stats.coverage == pytest.approx(2 / 5)
        assert stats.avg_match == pytest.approx(1.5)  # a twice, b once

    def test_raw_entity_marker_rejected(self, tmp_path, tiny_kg):
        forms = tmp_path / "forms.tsv"
        forms.write_text("a\talpha\n", encoding="utf-8")
        corpus_file = tmp_path / "corpus.txt"
        # a marker inside a token is plain text; one starting it is not
        corpus_file.write_text("alpha x@ent:a\nsee @ent:a here\n",
                               encoding="utf-8")
        index = build_index(forms, tiny_kg)
        with pytest.raises(ValueError, match="corpus.txt: line 2: .*@ent:a"):
            ground_corpus(corpus_file, index, tiny_kg)

    def test_rare_lexemes_fold_to_unk(self):
        # training decides the vocabulary: grounding keeps every word
        docs = [[lexeme(w) for w in "x x x y".split()]]
        corpus = GroundedCorpus(docs)
        assert vocabulary(corpus, 2) == ("x", RARE_TOKEN)
        assert vocabulary(corpus, 1) == ("x", "y")
        # <unk> counts every folded occurrence and a literal <unk>, and
        # ties keep the order of first appearance
        assert vocabulary(make_corpus([["x", "x", "y", "z", RARE_TOKEN]]),
                          2) == (RARE_TOKEN, "x")
        assert vocabulary(make_corpus([[RARE_TOKEN, "a", "b", RARE_TOKEN,
                                        "b", "c", "c", "c"]]),
                          2) == (RARE_TOKEN, "c", "b")
        # the document itself keeps the original text
        assert reconstruct(corpus, 0) == ["x", "x", "x", "y"]

    def test_lexicon_counts_match_corpus(self, tiny_kg, tiny_corpus):
        # every lexeme occurrence gets a row: its own word's, or <unk>'s
        texts = [t.text for doc in tiny_corpus.documents for t in doc
                 if not t.is_entity]
        for min_freq in (1, 2):
            space = init_space(tiny_kg, tiny_corpus,
                               small_config(min_freq=min_freq),
                               np.random.default_rng(0))
            rows = np.concatenate(encode_corpus(tiny_corpus, space))
            assert [space.lexemes[r - space.n_entities] for r in rows
                    if r >= space.n_entities] == \
                [w if w in space.lexemes else RARE_TOKEN for w in texts]
            assert (RARE_TOKEN in space.lexemes) == (min_freq == 2)

    def test_stats_match_naive_oracle(self, tmp_path):
        import numpy as np
        rng = np.random.default_rng(11)
        kg = from_string_triples(
            [(f"e{i}", "r", f"e{(i + 1) % 20}") for i in range(20)], "xx")
        forms = [(f"e{i}", f"tok{i}" if i % 3 else f"tok{i} extra")
                 for i in range(20)]
        vocab = [f"tok{i}" for i in range(25)] + ["extra", "w1", "w2"]
        docs = [" ".join(rng.choice(vocab, size=50)) for _ in range(30)]
        forms_file = tmp_path / "f.tsv"
        forms_file.write_text(
            "".join(f"{e}\t{s}\n" for e, s in forms), encoding="utf-8")
        corpus_file = tmp_path / "c.txt"
        corpus_file.write_text("\n".join(docs) + "\n", encoding="utf-8")
        index = build_index(forms_file, kg)
        corpus, stats = ground_corpus(corpus_file, index, kg)
        mentions = naive_grounding_stats(docs, forms)
        covered = [e for e in kg.entities if mentions.get(e)]
        assert stats.coverage == pytest.approx(len(covered) / 20)
        if covered:
            assert stats.avg_match == pytest.approx(
                sum(mentions[e] for e in covered) / len(covered))


def held_bytes(fn, *args):
    """`fn(*args)` and the bytes traced while it runs that it still holds,
    the memory of its result, when it returns."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def write_lines(lines):
    """A temporary file holding `lines`; the caller removes it."""
    fd, path = tempfile.mkstemp(suffix=".txt")
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    return path


def assert_shared(corpus):
    """Equal tokens anywhere in the corpus are one object."""
    tokens = [t for doc in corpus.documents for t in doc]
    assert len({id(t) for t in tokens}) == len(set(tokens))


# few words in mixed case, so forms nest, overlap and fold into each other
WORDS = st.sampled_from(["a", "b", "c", "A", "B", "x"])
FORMS = st.lists(st.tuples(st.sampled_from(["e0", "e1", "e2", "e3"]),
                           st.lists(WORDS, min_size=1, max_size=3)),
                 max_size=8)
LINES = st.lists(st.lists(WORDS, max_size=12), min_size=1, max_size=8)


class TestSharedTokens:
    """A grounded corpus holds one token object per distinct token."""

    @settings(max_examples=80, deadline=None)
    @given(forms=FORMS, lines=LINES, case_fold=st.booleans())
    def test_ground_corpus_equals_per_line_grounding(self, forms, lines,
                                                     case_fold):
        kg = from_string_triples([("e0", "r", "e1"), ("e2", "r", "e3")],
                                 "xx")
        index = SurfaceFormIndex(case_fold=case_fold)
        for ent, form in forms:
            index.insert(form, ent)
        path = write_lines(" ".join(line) for line in lines)
        try:
            corpus, _ = ground_corpus(path, index, kg)
        finally:
            os.remove(path)
        # Token equality compares entity, text and surface
        table = TokenTable()
        assert corpus.documents == [ground_tokens(line, index, table)
                                    for line in lines]
        assert_shared(corpus)

    @settings(max_examples=50, deadline=None)
    @given(lines=st.lists(st.lists(st.sampled_from(
        ["w", "W", "v", "@ent:a", "@ent:b", "@ent:e"]), max_size=12),
        min_size=1, max_size=8))
    def test_pregrounded_tokens_shared(self, lines):
        kg = from_string_triples([("a", "r", "b"), ("b", "r", "e")], "xx")
        path = write_lines(" ".join(line) for line in lines)
        try:
            corpus = load_pregrounded(path, kg)
        finally:
            os.remove(path)
        assert corpus.documents == [
            [entity_token(raw[len(ENTITY_PREFIX):], (raw,))
             if raw.startswith(ENTITY_PREFIX) else lexeme(raw)
             for raw in line] for line in lines]
        assert_shared(corpus)

    @pytest.mark.parametrize("pregrounded", [False, True],
                             ids=["ground_corpus", "load_pregrounded"])
    def test_memory_per_token(self, tmp_path, pregrounded):
        # 20,000 tokens over 40 distinct ones: a token object per
        # occurrence took about 210 B a token, shared tokens take about 10 B
        rng = np.random.default_rng(0)
        kg = from_string_triples(
            [(f"e{i}", "r", f"e{(i + 1) % 20}") for i in range(20)], "xx")
        words = [f"w{i}" for i in range(20)] + \
            [f"{ENTITY_PREFIX}e{i}" if pregrounded else f"name{i}"
             for i in range(20)]
        path = tmp_path / "corpus.txt"
        path.write_text("".join(" ".join(rng.choice(words, size=100)) + "\n"
                                for _ in range(200)), encoding="utf-8")
        if pregrounded:
            corpus, held = held_bytes(load_pregrounded, path, kg)
        else:
            forms = tmp_path / "forms.tsv"
            forms.write_text("".join(f"e{i}\tname{i}\n" for i in range(20)),
                             encoding="utf-8")
            index = build_index(forms, kg)
            (corpus, _), held = held_bytes(ground_corpus, path, index, kg)
        n_tokens = sum(len(doc) for doc in corpus.documents)
        assert n_tokens == 20_000
        assert held < 32 * n_tokens


class TestPregrounded:
    def test_markers_resolved(self, tmp_path, tiny_kg):
        path = tmp_path / "g.txt"
        path.write_text("@ent:a is big\n", encoding="utf-8")
        corpus = load_pregrounded(path, tiny_kg)
        assert corpus.documents[0][0].is_entity
        assert corpus.documents[0][0].entity == "a"

    def test_unknown_marker_rejected(self, tmp_path, tiny_kg):
        # read as a lexeme, the marker would come back from the .vec file
        # as an entity
        path = tmp_path / "g.txt"
        path.write_text("@ent:a x\ny @ent:unknown x\n", encoding="utf-8")
        with pytest.raises(ValueError, match="g.txt: line 2: malformed "
                           "entity marker '@ent:unknown'"):
            load_pregrounded(path, tiny_kg)

    def test_empty_line_keeps_empty_document(self, tmp_path, tiny_kg):
        path = tmp_path / "g.txt"
        path.write_text("@ent:a\n\n@ent:b\n", encoding="utf-8")
        corpus = load_pregrounded(path, tiny_kg)
        assert len(corpus.documents) == 3
        assert corpus.documents[1] == []

    def test_bare_marker_rejected(self, tmp_path, tiny_kg):
        path = tmp_path / "g.txt"
        path.write_text("@ent: x\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed"):
            load_pregrounded(path, tiny_kg)

    def test_write_read_round_trip(self, tmp_path, tiny_kg, tiny_corpus):
        path = tmp_path / "out.txt"
        write_grounded(tiny_corpus, path)
        reloaded = load_pregrounded(path, tiny_kg)
        assert [[t.text for t in d] for d in reloaded.documents] == \
            [[t.text for t in d] for d in tiny_corpus.documents]


def test_determinism(tmp_path, tiny_kg):
    forms = tmp_path / "forms.tsv"
    forms.write_text("a\talpha\nb\tbeta two\n", encoding="utf-8")
    corpus_file = tmp_path / "corpus.txt"
    corpus_file.write_text("alpha beta two beta\nbeta two alpha\n",
                           encoding="utf-8")
    index = build_index(forms, tiny_kg)
    out1, out2 = tmp_path / "o1.txt", tmp_path / "o2.txt"
    for out in (out1, out2):
        corpus, _ = ground_corpus(corpus_file, index, tiny_kg)
        write_grounded(corpus, out)
    assert out1.read_bytes() == out2.read_bytes()
