import re

import numpy as np
import pytest

from kgalign.kg import (KnowledgeGraph, build_graph_structure,
                        from_string_triples, load_kg, relation_stats)

from oracles import brute_norm_adjacency


def write_triples(tmp_path, lines):
    path = tmp_path / "kg.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadKG:
    def test_basic_parse(self, tmp_path):
        kg = load_kg(write_triples(tmp_path, ["a\tr\tb", "a\tr\tc"]), "xx")
        assert kg.entities == ("a", "b", "c")
        assert kg.relations == ("r",)
        assert kg.triples == ((0, 0, 1), (0, 0, 2))

    def test_duplicates_collapsed(self, tmp_path):
        kg = load_kg(write_triples(tmp_path, ["a\tr\tb", "a\tr\tb"]), "xx")
        assert kg.triples == ((0, 0, 1),)

    def test_malformed_line_reports_number(self, tmp_path):
        path = write_triples(tmp_path, ["a\tr\tb", "a\tr"])
        with pytest.raises(ValueError, match="line 2"):
            load_kg(path, "xx")

    @pytest.mark.parametrize("line", [
        "new york\tr\tb", "a\tis a\tb", "a\tr\tnew\u00a0york",
    ], ids=["space-in-head", "space-in-relation", "nbsp-in-tail"])
    def test_whitespace_in_id_rejected(self, tmp_path, line):
        path = write_triples(tmp_path, ["a\tr\tb", line])
        with pytest.raises(ValueError, match="line 2.*whitespace"):
            load_kg(path, "xx")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty"):
            load_kg(path, "xx")

    def test_first_appearance_order(self, tmp_path):
        kg = load_kg(write_triples(tmp_path, ["z\tr\ta", "a\ts\tz"]), "xx")
        assert kg.entities == ("z", "a")
        assert kg.relations == ("r", "s")


class TestKnowledgeGraph:
    @pytest.mark.parametrize("triple", [(2, 0, 1), (0, 1, 1), (0, 0, 2),
                                        (-1, 0, 1)],
                             ids=["head", "relation", "tail", "negative"])
    def test_triple_index_out_of_range(self, triple):
        with pytest.raises(ValueError, match=re.escape(
                f"triple index out of range: {triple}")):
            KnowledgeGraph("xx", ("a", "b"), ("r",), ((0, 0, 1), triple))


class TestGraphStructure:
    def test_two_entity_norm_adjacency(self):
        kg = from_string_triples([("a", "r", "b")], "xx")
        gs = build_graph_structure(kg)
        expected = np.array([[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(gs.toarray(), expected)
        np.testing.assert_allclose(brute_norm_adjacency(kg), expected)

    def test_isolated_entity_self_loop(self):
        kg = from_string_triples([("a", "r", "a")], "xx")
        gs = build_graph_structure(kg)
        np.testing.assert_allclose(gs.toarray(), [[1.0]])

    def test_multi_relation_entry_still_one(self):
        kg = from_string_triples(
            [("a", "r", "b"), ("a", "s", "b"), ("b", "r", "a")], "xx")
        gs = build_graph_structure(kg)
        # three triples between a and b still make one edge of weight 1
        np.testing.assert_allclose(gs.toarray(),
                                   [[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(gs.toarray(),
                                   brute_norm_adjacency(kg))

    def test_symmetry(self, tiny_kg):
        gs = build_graph_structure(tiny_kg)
        dense = gs.toarray()
        np.testing.assert_allclose(dense, dense.T)

    def test_entries_match_degree_formula(self, tiny_kg):
        gs = build_graph_structure(tiny_kg)
        np.testing.assert_allclose(gs.toarray(),
                                   brute_norm_adjacency(tiny_kg))

    def test_order_independence_up_to_permutation(self):
        rng = np.random.default_rng(3)
        triples = [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "d"),
                   ("d", "r", "a"), ("a", "s", "c")]
        base = build_graph_structure(
            from_string_triples(triples, "xx")).toarray()
        shuffled = [triples[i] for i in rng.permutation(len(triples))]
        kg2 = from_string_triples(shuffled, "xx")
        other = build_graph_structure(kg2).toarray()
        base_kg = from_string_triples(triples, "xx")
        perm = [kg2.ent_index[e] for e in base_kg.entities]
        np.testing.assert_allclose(base, other[np.ix_(perm, perm)])

    def test_regular_graph_preserves_constant_vector(self):
        # 4-cycle: all degrees equal, so the normalized operator has
        # row sums exactly 1
        triples = [("a", "r", "b"), ("b", "r", "c"),
                   ("c", "r", "d"), ("d", "r", "a")]
        gs = build_graph_structure(from_string_triples(triples, "xx"))
        ones = np.ones(4)
        np.testing.assert_allclose(gs @ ones, ones)


class TestRelationStats:
    """`relation_stats` is each relation's head-corruption probability
    tph / (tph + hpt)."""

    def test_hand_example(self):
        # tph = 1.5, hpt = 1.5
        kg = from_string_triples(
            [("a", "r", "b"), ("a", "r", "c"), ("d", "r", "b")], "xx")
        assert relation_stats(kg)[0] == pytest.approx(0.5)

    def test_single_triple(self):
        # tph = 1, hpt = 1
        p_head = relation_stats(from_string_triples([("a", "r", "b")], "xx"))
        assert p_head[0] == 0.5

    def test_asymmetric(self):
        # tph = 2, hpt = 1
        kg = from_string_triples([("a", "r", "b"), ("a", "r", "c")], "xx")
        assert relation_stats(kg)[0] == pytest.approx(2 / 3)

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(7)
        triples = set()
        while len(triples) < 80:
            triples.add((f"e{rng.integers(12)}", f"r{rng.integers(3)}",
                         f"e{rng.integers(12)}"))
        kg = from_string_triples(sorted(triples), "xx")
        p_head = relation_stats(kg)
        for r_idx, r_name in enumerate(kg.relations):
            rel_triples = [(h, t) for h, r, t in kg.triples if r == r_idx]
            heads = {h for h, _ in rel_triples}
            tails = {t for _, t in rel_triples}
            tph = np.mean([len({t for h2, t in rel_triples if h2 == h})
                           for h in heads])
            hpt = np.mean([len({h for h, t2 in rel_triples if t2 == t})
                           for t in tails])
            assert p_head[r_idx] == pytest.approx(tph / (tph + hpt))
