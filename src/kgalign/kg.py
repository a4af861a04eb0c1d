"""Language-specific knowledge graph data model.

A KG is a pair of ordered vocabularies (entities, relations) plus a set of
index triples.  The GCN consumes a symmetric, relation-blind view of the
graph with self-loops and symmetric degree normalization; negative sampling
consumes each relation's probability of corrupting the head.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .config import read_fields

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class KnowledgeGraph:
    lang: str
    entities: tuple[str, ...]
    relations: tuple[str, ...]
    triples: tuple[tuple[int, int, int], ...]
    ent_index: dict[str, int] = field(init=False, compare=False)

    def __post_init__(self):
        n_ent, n_rel = len(self.entities), len(self.relations)
        for h, r, t in self.triples:
            if not (0 <= h < n_ent and 0 <= t < n_ent and 0 <= r < n_rel):
                raise ValueError(f"triple index out of range: {(h, r, t)}")
        object.__setattr__(self, "ent_index",
                           {e: i for i, e in enumerate(self.entities)})

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)


def from_string_triples(string_triples, lang: str) -> KnowledgeGraph:
    """Build a KnowledgeGraph from (head, relation, tail) id strings.

    Vocabulary indices follow first appearance; duplicate triples collapse.
    """
    ents: dict[str, int] = {}
    rels: dict[str, int] = {}
    seen: set[tuple[int, int, int]] = set()
    triples: list[tuple[int, int, int]] = []
    for h, r, t in string_triples:
        hi = ents.setdefault(h, len(ents))
        ri = rels.setdefault(r, len(rels))
        ti = ents.setdefault(t, len(ents))
        key = (hi, ri, ti)
        if key in seen:
            continue
        seen.add(key)
        triples.append(key)
    return KnowledgeGraph(
        lang=lang,
        entities=tuple(ents),
        relations=tuple(rels),
        triples=tuple(triples),
    )


def load_kg(path, lang: str) -> KnowledgeGraph:
    """Load a KG from a UTF-8 TSV file, one `head<TAB>rel<TAB>tail` per line."""
    raw: list[tuple[str, str, str]] = []
    for lineno, parts in read_fields(path, "head<TAB>relation<TAB>tail"):
        for part in parts:
            # ids are written as space-separated .vec tokens
            if any(ch.isspace() for ch in part):
                raise ValueError(f"{path}: line {lineno}: id {part!r} "
                                 f"contains whitespace")
        raw.append((parts[0], parts[1], parts[2]))
    if not raw:
        raise ValueError(f"{path}: empty triples file")
    return from_string_triples(raw, lang)


def build_graph_structure(kg: KnowledgeGraph) -> sp.csr_matrix:
    """The GCN's operator: the normalized self-looped adjacency
    D^{-1/2} (A + I) D^{-1/2}, with A the symmetric 0/1 adjacency over
    entities (relation types discarded) and D the degree matrix of A + I,
    so every entry is finite even for isolated entities.  Only training
    builds it, so only training loads scipy."""
    import scipy.sparse as sp

    n = kg.n_entities
    rows, cols = [], []
    for h, _, t in kg.triples:
        if h == t:
            continue
        rows.extend((h, t))
        cols.extend((t, h))
    data = np.ones(len(rows), dtype=np.float64)
    adj = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    adj.sum_duplicates()
    adj.data[:] = 1.0  # multiple relations between a pair still yield 1
    looped = (adj + sp.identity(n, format="csr", dtype=np.float64)).tocsr()
    degrees = np.asarray(looped.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(degrees)
    d_half = sp.diags(inv_sqrt)
    return (d_half @ looped @ d_half).tocsr()


def relation_stats(kg: KnowledgeGraph) -> np.ndarray:
    """The probability tph / (tph + hpt) of corrupting the head of a triple
    of each relation, from its mean tails per head (tph) and heads per
    tail (hpt); 0.5 for a relation with no triple."""
    tails_per_head: list[dict[int, set[int]]] = [
        {} for _ in range(kg.n_relations)]
    heads_per_tail: list[dict[int, set[int]]] = [
        {} for _ in range(kg.n_relations)]
    for h, r, t in kg.triples:
        tails_per_head[r].setdefault(h, set()).add(t)
        heads_per_tail[r].setdefault(t, set()).add(h)
    tph = np.ones(kg.n_relations)
    hpt = np.ones(kg.n_relations)
    for r in range(kg.n_relations):
        if tails_per_head[r]:
            tph[r] = np.mean([len(ts) for ts in tails_per_head[r].values()])
            hpt[r] = np.mean([len(hs) for hs in heads_per_tail[r].values()])
    return tph / (tph + hpt)
