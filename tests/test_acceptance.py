"""Acceptance gate: one test per release criterion.

Each test prints a `criterion N (...): PASS|FAIL` line so the suite output
doubles as the release checklist.  Criterion 6 runs the full pipeline grid
over three seeds and dominates the runtime of this module.
"""

import copy
import time

import numpy as np
import pytest
from click.testing import CliRunner

from kgalign import alignment, embedding
from kgalign.alignment import (AlignmentState, infer_batch, procrustes_solve,
                               propose_pairs, self_learn, unit_rows)
from kgalign.cli import cli
from kgalign.config import NeighborQuery, OptimizerConfig, PipelineConfig
from kgalign.evaluation import evaluate
from kgalign.grounding import (TokenTable, build_index, ground_corpus,
                               ground_tokens)
from kgalign.kg import build_graph_structure, load_kg, relation_stats
from kgalign.pipeline import run_ablation_grid
from kgalign.synth import BenchmarkParams, generate_benchmark

from conftest import random_corpus, random_kg, small_config
from oracles import (brute_csls, brute_mutual_nn, brute_rank,
                     finite_difference_grad, naive_grounding_stats,
                     random_orthogonal, reconstruct, relative_error, stacked)


def report_line(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {num} ({desc}): {status}{suffix}", flush=True)
    assert ok, f"criterion {num} ({desc}) failed{suffix}"


# ---------------------------------------------------------------------------
# 1. Gradients of both losses match central finite differences.

def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    worst = 0.0
    n_instances = 0
    for seed in range(10):
        for gcn in (True, False):
            rng = np.random.default_rng(seed + (1000 if gcn else 0))
            kg = random_kg(rng, n_entities=int(rng.integers(4, 10)),
                           n_triples=12)
            corpus = random_corpus(rng, kg)
            cfg = small_config(dim=4, gcn_layers=int(gcn), activation="tanh")
            space = embedding.init_space(kg, corpus, cfg, rng)
            graph = build_graph_structure(kg)
            stats = relation_stats(kg)

            pos = np.array([kg.triples[i]
                            for i in rng.integers(len(kg.triples), size=3)])
            kg_batch = embedding.KGBatch(
                positives=pos,
                neg_heads=rng.integers(kg.n_entities, size=(3, 2)),
                neg_tails=rng.integers(kg.n_entities, size=(3, 2)))
            text_batch = embedding.TextBatch(
                centers=rng.integers(space.n_tokens, size=4),
                contexts=rng.integers(space.n_tokens, size=4),
                negatives=rng.integers(space.n_tokens, size=(4, 3)))

            for loss_fn, grads in (
                (lambda: embedding.kg_loss(kg_batch, space, graph, 2.0)[0],
                 embedding.kg_loss(kg_batch, space, graph, 2.0)[1]),
                (lambda: embedding.text_loss(text_batch, space, graph)[0],
                 embedding.text_loss(text_batch, space, graph)[1]),
            ):
                params = space.parameters()
                for name, analytic in grads.items():
                    numeric = finite_difference_grad(loss_fn, params[name])
                    if np.linalg.norm(numeric) + np.linalg.norm(analytic) == 0:
                        continue
                    worst = max(worst, relative_error(analytic, numeric))
            n_instances += 1
    elapsed = time.perf_counter() - start
    report_line(1, "gradient suite",
                n_instances >= 20 and worst < 1e-4 and elapsed < 10.0,
                f"{n_instances} instances, worst rel err {worst:.2e}, "
                f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Procrustes recovers a planted orthogonal map.

def test_criterion_2_procrustes_recovery():
    start = time.perf_counter()
    ok = True
    details = []
    for k in (4, 16, 64):
        rng = np.random.default_rng(k)
        x = unit_rows(rng.standard_normal((4 * k, k)))
        q = random_orthogonal(rng, k)
        m_exact = procrustes_solve(x, x @ q.T)
        err = np.linalg.norm(m_exact - q)
        ok &= err < 1e-8

        y_noisy = unit_rows(x @ q.T + 0.01 * rng.standard_normal(x.shape))
        m_noisy = procrustes_solve(x, y_noisy)
        mapped = x @ m_noisy.T
        cosines = np.sum(unit_rows(mapped) * y_noisy, axis=1)
        ok &= float(cosines.mean()) > 0.99
        details.append(f"k={k}: err={err:.1e} cos={cosines.mean():.4f}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report_line(2, "Procrustes recovery", ok,
                "; ".join(details) + f", {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. CSLS scores and rankings equal the brute-force oracle.

def test_criterion_3_csls_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(33)
    n, k = 100, 8
    src = unit_rows(rng.standard_normal((n, k)))
    tgt = unit_rows(rng.standard_normal((n, k)))
    state = AlignmentState(
        source=_space_from(src), target=_space_from(tgt),
        ent_pairs=[("e0", "e0")])
    state.transform = np.eye(k)

    max_dev = 0.0
    ranks_equal = True
    for csls_k in (3, 5, 10):
        oracle = brute_csls(list(src), list(tgt), csls_k)
        q = NeighborQuery(metric="csls", csls_k=csls_k)
        ids = [f"e{i}" for i in range(n)]
        scores = stacked(infer_batch(ids, state, q,
                                     state.target.entity_rows(ids)))
        max_dev = max(max_dev, float(np.abs(scores - oracle).max()))
        proposal = stacked(alignment._score_blocks(src, tgt, q))
        max_dev = max(max_dev, float(np.abs(proposal - oracle).max()))
        for i in range(n):
            gold = int(np.argmax(oracle[i]))
            if brute_rank(scores[i], gold) != brute_rank(oracle[i], gold):
                ranks_equal = False
    elapsed = time.perf_counter() - start
    report_line(3, "CSLS oracle",
                max_dev <= 1e-12 and ranks_equal and elapsed < 30.0,
                f"max dev {max_dev:.1e}, {elapsed:.1f}s")


def _space_from(entity_vecs, lexeme_vecs=None):
    items = [f"@ent:e{i}" for i in range(len(entity_vecs))]
    vecs = list(entity_vecs)
    if lexeme_vecs is not None:
        items += [f"w{i}" for i in range(len(lexeme_vecs))]
        vecs += list(lexeme_vecs)
    mat = unit_rows(np.array(vecs, dtype=float))
    return alignment.AlignmentSpace(items=tuple(items), vectors=mat)


# ---------------------------------------------------------------------------
# 4. Every self-learning proposal is a sound mutual-1-NN pair.

def _oracle_candidates(space, aligned, top_f):
    keep, n_lex = [], 0
    for i, item in enumerate(space.items):
        if space.entity_mask[i]:
            if item[len("@ent:"):] not in aligned:
                keep.append(i)
        elif n_lex < top_f:
            keep.append(i)
            n_lex += 1
    return keep


def test_criterion_4_mutual_nn_soundness():
    q = NeighborQuery(metric="csls", csls_k=5)
    stop_fraction, cap = 0.01, 50
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n_ent, n_lex, k = 30, 8, 6
        src_e = unit_rows(rng.standard_normal((n_ent, k)))
        src_w = unit_rows(rng.standard_normal((n_lex, k)))
        rot = random_orthogonal(rng, k)
        noise = 0.05
        tgt_e = src_e @ rot.T + noise * rng.standard_normal((n_ent, k))
        tgt_w = src_w @ rot.T + noise * rng.standard_normal((n_lex, k))
        seeds = [(f"e{i}", f"e{i}") for i in range(8)]
        state = AlignmentState(source=_space_from(src_e, src_w),
                               target=_space_from(tgt_e, tgt_w),
                               ent_pairs=list(seeds), lexeme_top_f=100)

        # replay the loop, validating each round's proposals independently
        shadow = copy.deepcopy(state)
        threshold = stop_fraction * shadow.source.n_entities
        while shadow.iteration < cap:
            x, y = shadow.pair_matrices()
            shadow.transform = procrustes_solve(x, y)
            ent_props, lex_props = propose_pairs(shadow, q)

            src_idx = _oracle_candidates(shadow.source,
                                         {s for s, _ in shadow.ent_pairs},
                                         shadow.lexeme_top_f)
            tgt_idx = _oracle_candidates(shadow.target,
                                         {t for _, t in shadow.ent_pairs},
                                         shadow.lexeme_top_f)
            mapped = [shadow.source.vectors[i] @ shadow.transform.T
                      for i in src_idx]
            scores = brute_csls(mapped, [shadow.target.vectors[j]
                                         for j in tgt_idx], q.csls_k)
            expected_ent, expected_lex = set(), set()
            for i, j in brute_mutual_nn(scores):
                si, ti = src_idx[i], tgt_idx[j]
                s_ent = bool(shadow.source.entity_mask[si])
                if s_ent != bool(shadow.target.entity_mask[ti]):
                    continue
                s_item = shadow.source.items[si]
                t_item = shadow.target.items[ti]
                if s_ent:
                    expected_ent.add((s_item[len("@ent:"):],
                                      t_item[len("@ent:"):]))
                elif (s_item, t_item) not in set(shadow.lex_pairs):
                    expected_lex.add((s_item, t_item))
            assert set(ent_props) == expected_ent
            assert set(lex_props) == expected_lex

            # 1-to-1 / novelty checks
            assert len({s for s, _ in ent_props}) == len(ent_props)
            assert len({t for _, t in ent_props}) == len(ent_props)
            aligned_s = {s for s, _ in shadow.ent_pairs}
            aligned_t = {t for _, t in shadow.ent_pairs}
            assert not {s for s, _ in ent_props} & aligned_s
            assert not {t for _, t in ent_props} & aligned_t

            shadow.ent_pairs.extend(ent_props)
            shadow.lex_pairs.extend(lex_props)
            shadow.proposal_counts.append(len(ent_props))
            shadow.iteration += 1
            if len(ent_props) < threshold:
                break

        result = self_learn(state, q, stop_fraction=stop_fraction,
                            max_iterations=cap)
        assert result.iteration <= cap
        assert sorted(result.ent_pairs) == sorted(shadow.ent_pairs)
        assert sorted(result.lex_pairs) == sorted(shadow.lex_pairs)
        # the stop rule: every non-final round met the threshold
        assert all(c >= threshold for c in result.proposal_counts[:-1])
        if result.iteration < cap:
            assert result.proposal_counts[-1] < threshold
    report_line(4, "mutual-NN soundness", True, "10 fixtures replayed")


# ---------------------------------------------------------------------------
# 5. Ranking metrics match hand computation and a full-sort oracle.

def test_criterion_5_metric_oracle():
    def on_circle(*degs):
        rad = np.deg2rad(degs)
        return np.stack([np.cos(rad), np.sin(rad)], axis=1)

    cands = on_circle(0, 30, 60, 90)
    queries = on_circle(0, 10, 20)   # gold ranks 1, 2, 4 under l2
    state = AlignmentState(source=_space_from(queries),
                           target=_space_from(cands),
                           ent_pairs=[("e0", "e0")])
    state.transform = np.eye(2)
    report = evaluate([("e0", "e0"), ("e1", "e1"), ("e2", "e3")], state,
                      NeighborQuery(metric="l2"), p=10, candidate_mode="all")
    hand_ok = (report.ranks == (1, 2, 4)
               and abs(report.h_at_1 - 0.3333) < 1e-4
               and abs(report.h_at_p - 1.0) < 1e-4
               and abs(report.mrr - 0.5833) < 1e-4)

    rng = np.random.default_rng(55)
    n, k = 200, 8
    src = unit_rows(rng.standard_normal((n, k)))
    rot = random_orthogonal(rng, k)
    tgt = src @ rot.T + 0.3 * rng.standard_normal((n, k))
    state = AlignmentState(source=_space_from(src), target=_space_from(tgt),
                           ent_pairs=[("e0", "e0")])
    state.transform = rot
    q = NeighborQuery(metric="csls", csls_k=5)
    pairs = [(f"e{i}", f"e{i}") for i in range(n)]
    rep = evaluate(pairs, state, q, p=10, candidate_mode="all")
    ids = [f"e{i}" for i in range(n)]
    scores = stacked(infer_batch(ids, state, q,
                                 state.target.entity_rows(ids)))
    oracle_ranks = [brute_rank(scores[i], i) for i in range(n)]
    oracle_ok = (list(rep.ranks) == oracle_ranks
                 and rep.h_at_1 == pytest.approx(
                     np.mean([r == 1 for r in oracle_ranks]))
                 and rep.mrr == pytest.approx(
                     np.mean([1 / r for r in oracle_ranks])))
    report_line(5, "metric oracle", hand_ok and oracle_ok,
                f"hand fixture ranks {report.ranks}")


# ---------------------------------------------------------------------------
# 6. End-to-end ablation ordering on the default benchmark, 3 seeds.

@pytest.fixture(scope="module")
def ablation_grid(tmp_path_factory):
    base = PipelineConfig()
    names = ("full", "no_self_learning", "no_text", "with_seed_lexicon")
    out = tmp_path_factory.mktemp("e2e")
    h1 = {name: [] for name in names}
    start = time.perf_counter()
    for seed in (0, 1, 2):
        paths = generate_benchmark(BenchmarkParams(), seed=seed,
                                   out_dir=out / f"bench{seed}")
        reports = run_ablation_grid(base, paths, out / f"s{seed}", seed,
                                    names=names)
        for name in names:
            h1[name].append(reports[name].h_at_1)
    elapsed = time.perf_counter() - start
    return {name: float(np.mean(vals)) for name, vals in h1.items()}, elapsed


def test_criterion_6_end_to_end_ablations(ablation_grid):
    avg, elapsed = ablation_grid
    full = avg["full"]
    checks = {
        "full H@1 >= 0.60": full >= 0.60,
        "self-learning drop >= 0.05": full - avg["no_self_learning"] >= 0.05,
        "text drop > 0": full - avg["no_text"] > 0,
        "seed lexicon no decrease": avg["with_seed_lexicon"] >= full,
        "runtime < 15 min": elapsed < 900.0,
    }
    detail = (f"full={full:.3f} noSL={avg['no_self_learning']:.3f} "
              f"noText={avg['no_text']:.3f} "
              f"seedLex={avg['with_seed_lexicon']:.3f} {elapsed:.0f}s")
    failed = [name for name, ok in checks.items() if not ok]
    report_line(6, "end-to-end ablation ordering", not failed,
                detail + (f"; failed: {failed}" if failed else ""))


# ---------------------------------------------------------------------------
# 7. Grounding: exact round trip, longest-match dominance, oracle stats.

def _naive_scan(tokens, forms):
    """Greedy longest-match rescan, independent of the trie implementation."""
    table = {}
    for ent, form in forms:
        key = tuple(form.lower().split())
        table.setdefault(key, ent)
    max_len = max(len(k) for k in table)
    out, i = [], 0
    while i < len(tokens):
        for length in range(min(max_len, len(tokens) - i), 0, -1):
            key = tuple(t.lower() for t in tokens[i:i + length])
            if key in table:
                out.append((table[key], tuple(tokens[i:i + length])))
                i += length
                break
        else:
            i += 1
    return out

def test_criterion_7_grounding_properties(tmp_path):
    rng = np.random.default_rng(77)
    entities = [f"e{i}" for i in range(30)]
    triples = [(entities[i], "r0", entities[(i + 1) % 30]) for i in range(30)]
    kg_file = tmp_path / "kg.tsv"
    kg_file.write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples),
                       encoding="utf-8")
    graph = load_kg(kg_file, "xx")

    # nested surface forms make longest-match wins observable
    forms = [("e0", "new"), ("e1", "new york"), ("e2", "new york city"),
             ("e3", "york")]
    forms += [(f"e{i}", f"name{i}") for i in range(4, 30)]
    forms_file = tmp_path / "forms.tsv"
    forms_file.write_text("".join(f"{e}\t{s}\n" for e, s in forms),
                          encoding="utf-8")

    vocab = (["new", "york", "city", "the", "of", "in"]
             + [f"name{i}" for i in range(4, 30)]
             + [f"w{i}" for i in range(40)])
    total = 0
    docs = []
    while total < 10_000:
        length = int(rng.integers(20, 60))
        doc = " ".join(rng.choice(vocab, size=length))
        docs.append(doc)
        total += length
    corpus_file = tmp_path / "corpus.txt"
    corpus_file.write_text("\n".join(docs) + "\n", encoding="utf-8")

    index = build_index(forms_file, graph)
    corpus, stats = ground_corpus(corpus_file, index, graph)

    round_trip = all(reconstruct(corpus, i) == docs[i].split()
                     for i in range(len(docs)))

    # dominance: nested forms always resolve to the longest match
    adv = "new york city new york new gap york".split()
    adv_entities = [t.entity for t in ground_tokens(adv, index, TokenTable())
                    if t.is_entity]
    dominance = adv_entities == ["e2", "e1", "e0", "e3"]
    # the 10k corpus agrees with the naive longest-match rescan everywhere
    for doc_idx, doc in enumerate(docs):
        got = [(t.entity, t.surface) for t in corpus.documents[doc_idx]
               if t.is_entity]
        want = [(e, s) for e, s in _naive_scan(doc.split(), forms)]
        dominance &= got == want

    mentions = naive_grounding_stats(docs, forms)
    covered = [e for e in graph.entities if mentions.get(e)]
    stats_ok = (stats.coverage == pytest.approx(len(covered) / 30)
                and stats.avg_match == pytest.approx(
                    sum(mentions[e] for e in covered) / len(covered)))
    report_line(7, "grounding properties",
                round_trip and dominance and stats_ok,
                f"coverage={stats.coverage:.3f} avg={stats.avg_match:.2f}")


# ---------------------------------------------------------------------------
# 8. Fixed-seed runs are byte-identical end to end.

def test_criterion_8_determinism(tmp_path):
    params = BenchmarkParams(n_entities=60, n_triples=240, n_relations=3,
                             edge_drop=0.05, n_walks=250, walk_length=5,
                             n_common_concepts=25)
    bench = tmp_path / "bench"
    generate_benchmark(params, seed=0, out_dir=bench)
    cfg_file = tmp_path / "cfg"
    cfg_file.write_text("dim = 16\nepochs = 60\nbatch_size = 32\n"
                        "min_freq = 1\n", encoding="utf-8")

    runner = CliRunner()
    outputs = []
    for run_dir in (tmp_path / "r1", tmp_path / "r2"):
        res = runner.invoke(cli, [
            "run", "--bench", str(bench), "--out", str(run_dir),
            "--config", str(cfg_file), "--seed", "3"])
        assert res.exit_code == 0, res.output
        outputs.append({
            name: (run_dir / name).read_bytes()
            for name in ("src_emb.vec", "src_emb.rel.vec", "tgt_emb.vec",
                         "tgt_emb.rel.vec", "alignment_state.json",
                         "report.tsv")})
    identical = outputs[0] == outputs[1]
    report_line(8, "determinism", identical,
                "6 artifacts byte-compared across 2 runs")
