"""Synthetic two-language benchmark generator.

Builds a preferential-attachment source KG, a relabeled noisy target copy,
and random-walk corpora for both sides.  Each entity carries a fixed set of
"concept" lexemes shared with its counterpart (rendered in per-language
word forms), so lexical co-occurrence carries alignment signal the same
way comparable corpora do for real language pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .config import ConfigError

# random draws allowed per triple wanted, so that a graph too dense to fill
# by rejection sampling fails instead of running on
DRAWS_PER_TRIPLE = 100


@dataclass(frozen=True)
class BenchmarkParams:
    """`kgalign synth` has an option for each field, in field order."""

    n_entities: int = 500
    n_triples: int = 2000
    n_relations: int = 8
    edge_drop: float = 0.05
    n_walks: int = 2500
    walk_length: int = 8
    n_common_concepts: int = 200
    signature_size: int = 3
    concept_skew: float = 0.5
    seed_lexicon_size: int = 35

    def __post_init__(self):
        if self.n_entities < 20:
            raise ConfigError("n_entities must be >= 20")
        if self.n_triples < self.n_entities:
            raise ConfigError("n_triples must be >= n_entities")
        for name in ("n_relations", "n_common_concepts", "signature_size",
                     "seed_lexicon_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not (0 <= self.edge_drop <= 1):
            raise ConfigError("edge_drop must lie in [0, 1]")
        if not 0 <= self.concept_skew < math.inf:
            raise ConfigError("concept_skew must be finite and >= 0")
        # the target side draws a fresh triple for each dropped one
        needed = self.n_triples + round(self.edge_drop * self.n_triples)
        possible = self.n_entities * (self.n_entities - 1) * self.n_relations
        if needed > possible:
            raise ConfigError(
                f"n_triples {self.n_triples} and their edge_drop "
                f"replacements need {needed} distinct triples, but "
                f"n_entities {self.n_entities} and n_relations "
                f"{self.n_relations} allow {possible}")
        if self.signature_size - 1 > self.n_common_concepts:
            raise ConfigError(
                f"signature_size {self.signature_size} takes "
                f"{self.signature_size - 1} distinct common concepts, more "
                f"than n_common_concepts {self.n_common_concepts}")


@dataclass(frozen=True)
class BenchmarkPaths:
    src_triples: Path
    tgt_triples: Path
    src_forms: Path
    tgt_forms: Path
    src_corpus: Path
    tgt_corpus: Path
    gold_entities: Path
    gold_lexemes: Path

    @classmethod
    def in_dir(cls, out_dir) -> "BenchmarkPaths":
        d = Path(out_dir)
        return cls(
            src_triples=d / "src.triples", tgt_triples=d / "tgt.triples",
            src_forms=d / "src.forms", tgt_forms=d / "tgt.forms",
            src_corpus=d / "src.corpus", tgt_corpus=d / "tgt.corpus",
            gold_entities=d / "gold_entities.tsv",
            gold_lexemes=d / "gold_lexemes.tsv",
        )


def _too_dense(side: str, draws: int) -> ConfigError:
    return ConfigError(
        f"{draws} random draws did not find the {side} triples; lower "
        f"n_triples or edge_drop, or raise n_entities or n_relations")


def _source_triples(params: BenchmarkParams,
                    rng: np.random.Generator) -> list[tuple[int, int, int]]:
    """Preferential-attachment triples over entity indices."""
    n, total = params.n_entities, params.n_triples
    degree = np.ones(n)
    triples: set[tuple[int, int, int]] = set()
    ordered: list[tuple[int, int, int]] = []

    def add(h, r, t):
        if h == t or (h, r, t) in triples:
            return False
        triples.add((h, r, t))
        ordered.append((h, r, t))
        degree[h] += 1
        degree[t] += 1
        return True

    # spanning attachment pass so every entity is connected
    for i in range(1, n):
        probs = degree[:i] / degree[:i].sum()
        j = int(rng.choice(i, p=probs))
        r = int(rng.integers(params.n_relations))
        add(i, r, j)
    for _ in range(DRAWS_PER_TRIPLE * total):
        if len(ordered) == total:
            break
        h = int(rng.integers(n))
        probs = degree / degree.sum()
        t = int(rng.choice(n, p=probs))
        r = int(rng.integers(params.n_relations))
        add(h, r, t)
    if len(ordered) < total:
        raise _too_dense("source", DRAWS_PER_TRIPLE * total)
    return ordered


def _corrupt_triples(src: list[tuple[int, int, int]],
                     params: BenchmarkParams, perm: np.ndarray,
                     rng: np.random.Generator) -> list[tuple[int, int, int]]:
    """Relabel through the gold permutation, drop some edges, add noise."""
    mapped = [(int(perm[h]), r, int(perm[t])) for h, r, t in src]
    n_drop = int(round(params.edge_drop * len(mapped)))
    keep_mask = np.ones(len(mapped), dtype=bool)
    if n_drop:
        drop_idx = rng.choice(len(mapped), size=n_drop, replace=False)
        keep_mask[drop_idx] = False
    kept = [t for t, k in zip(mapped, keep_mask) if k]
    # forbid re-creating dropped originals so exactly n_drop are replaced
    forbidden = set(mapped) | set(kept)
    for _ in range(DRAWS_PER_TRIPLE * len(mapped)):
        if len(kept) == len(mapped):
            break
        h = int(rng.integers(params.n_entities))
        t = int(rng.integers(params.n_entities))
        r = int(rng.integers(params.n_relations))
        if h != t and (h, r, t) not in forbidden:
            forbidden.add((h, r, t))
            kept.append((h, r, t))
    if len(kept) < len(mapped):
        raise _too_dense("target", DRAWS_PER_TRIPLE * len(mapped))
    return kept


def _surface_form(prefix: str, i: int) -> str:
    # every fifth entity gets a two-token form to exercise trie matching
    if i % 5 == 0:
        return f"{prefix}x {prefix}e{i}"
    return f"{prefix}e{i}"


def _walk_corpus(triples: list[tuple[int, int, int]], n_entities: int,
                 signatures: list[list[int]], word: str, form_prefix: str,
                 params: BenchmarkParams, rng: np.random.Generator) -> list[str]:
    neighbors: list[list[int]] = [[] for _ in range(n_entities)]
    for h, _, t in triples:
        neighbors[h].append(t)
        neighbors[t].append(h)
    docs = []
    for _ in range(params.n_walks):
        node = int(rng.integers(n_entities))
        tokens: list[str] = []
        for _ in range(params.walk_length):
            tokens.extend(_surface_form(form_prefix, node).split())
            sig = signatures[node]
            for c in rng.permutation(len(sig)):
                tokens.append(f"{word}{sig[int(c)]}")
            nbrs = neighbors[node]
            if nbrs:
                node = nbrs[int(rng.integers(len(nbrs)))]
            else:
                node = int(rng.integers(n_entities))
        docs.append(" ".join(tokens))
    return docs


def generate_benchmark(params: BenchmarkParams, seed: int,
                       out_dir) -> BenchmarkPaths:
    """Generate all benchmark files; byte-identical for a fixed seed."""
    rng = np.random.default_rng(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = BenchmarkPaths.in_dir(out)

    src_triples = _source_triples(params, rng)
    perm = rng.permutation(params.n_entities)
    tgt_triples = _corrupt_triples(src_triples, params, perm, rng)

    # per-entity concept signatures, shared across the language pair;
    # concept_skew > 0 draws common concepts Zipf-like so the vocabulary
    # has a well-trained frequent head and a sparse tail
    n_concepts = params.n_entities + params.n_common_concepts
    if params.concept_skew > 0:
        ranks = np.arange(1, params.n_common_concepts + 1, dtype=float)
        common_probs = ranks ** -params.concept_skew
        common_probs /= common_probs.sum()
    else:
        common_probs = None
    signatures = []
    for i in range(params.n_entities):
        common = rng.choice(params.n_common_concepts,
                            size=params.signature_size - 1, replace=False,
                            p=common_probs)
        signatures.append([i] + [params.n_entities + int(c) for c in common])
    tgt_signatures = [None] * params.n_entities
    for i in range(params.n_entities):
        tgt_signatures[int(perm[i])] = signatures[i]

    def src_id(i):
        return f"a{i}"

    def tgt_id(i):
        return f"b{i}"

    with open(paths.src_triples, "w", encoding="utf-8") as fh:
        for h, r, t in src_triples:
            fh.write(f"{src_id(h)}\tr{r}\t{src_id(t)}\n")
    with open(paths.tgt_triples, "w", encoding="utf-8") as fh:
        for h, r, t in tgt_triples:
            fh.write(f"{tgt_id(h)}\tr{r}\t{tgt_id(t)}\n")

    with open(paths.src_forms, "w", encoding="utf-8") as fh:
        for i in range(params.n_entities):
            fh.write(f"{src_id(i)}\t{_surface_form('s', i)}\n")
    with open(paths.tgt_forms, "w", encoding="utf-8") as fh:
        for i in range(params.n_entities):
            fh.write(f"{tgt_id(i)}\t{_surface_form('t', i)}\n")

    src_docs = _walk_corpus(src_triples, params.n_entities, signatures,
                            "sw", "s", params, rng)
    tgt_docs = _walk_corpus(tgt_triples, params.n_entities, tgt_signatures,
                            "tw", "t", params, rng)
    paths.src_corpus.write_text("\n".join(src_docs) + "\n", encoding="utf-8")
    paths.tgt_corpus.write_text("\n".join(tgt_docs) + "\n", encoding="utf-8")

    # the edge drop can leave an entity in no triple; a KG loaded from the
    # file does not know it, so its gold pair is left out
    src_seen = {e for h, _, t in src_triples for e in (h, t)}
    tgt_seen = {e for h, _, t in tgt_triples for e in (h, t)}
    with open(paths.gold_entities, "w", encoding="utf-8") as fh:
        for i in range(params.n_entities):
            if i in src_seen and int(perm[i]) in tgt_seen:
                fh.write(f"{src_id(i)}\t{tgt_id(int(perm[i]))}\n")
    # the published seed lexicon covers only the frequent head of the
    # shared vocabulary, the way real seed dictionaries cover frequent
    # words; rarer concepts stay in the corpora as unlabeled signal
    n_seed_lex = min(params.seed_lexicon_size, params.n_common_concepts)
    with open(paths.gold_lexemes, "w", encoding="utf-8") as fh:
        for c in range(params.n_entities, params.n_entities + n_seed_lex):
            fh.write(f"sw{c}\ttw{c}\n")

    with open(out / "params.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, **asdict(params)}, fh, sort_keys=True,
                  indent=2)
    return paths
