"""Joint KG + text embedding learning for one language.

Entities are encoded by an n-layer GCN over the normalized adjacency and
scored with a translational loss; text tokens are trained with a sampled
softmax skip-gram over negative L2 distance.  Entity mentions in the
corpus resolve to the GCN output rows, so both losses share one storage
location per entity.  All gradients are computed analytically in numpy and
applied with AMSGrad.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .config import OptimizerConfig, open_text
from .grounding import ENTITY_PREFIX, GroundedCorpus
from .kg import KnowledgeGraph, relation_stats

if TYPE_CHECKING:
    import scipy.sparse as sp

EPS = 1e-12
RARE_TOKEN = "<unk>"


class TrainingDivergence(RuntimeError):
    """Raised when training yields unusable numbers: a non-finite loss or
    parameter, or an all-zero row that cannot be normalized."""


def xavier_uniform(rng: np.random.Generator, n_rows: int,
                   n_cols: int) -> np.ndarray:
    """Xavier-uniform rows with fan-in and fan-out both the width `n_cols`."""
    limit = np.sqrt(6.0 / (n_cols + n_cols))
    return rng.uniform(-limit, limit, size=(n_rows, n_cols))


_ACT = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0).astype(float)),
    "identity": (lambda z: z, lambda z: np.ones_like(z)),
    "tanh": (lambda z: np.tanh(z), lambda z: 1.0 - np.tanh(z) ** 2),
}


@dataclass
class EmbeddingSpace:
    """Trainable tables for one language's entities, relations and lexemes.

    `lexemes` is ordered by descending corpus frequency so downstream
    consumers can apply a top-F frequency cutoff by row index.
    """

    lang: str
    dim: int
    entities: tuple[str, ...]
    relations: tuple[str, ...]
    lexemes: tuple[str, ...]
    ent0: np.ndarray
    rel: np.ndarray
    lex: np.ndarray
    gcn_weights: list[np.ndarray]           # empty without a GCN
    activation: str = "relu"
    ent_out: np.ndarray | None = None

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_lexemes(self) -> int:
        return len(self.lexemes)

    @property
    def n_tokens(self) -> int:
        return self.n_entities + self.n_lexemes

    def parameters(self) -> dict[str, np.ndarray]:
        params = {"ent0": self.ent0, "rel": self.rel, "lex": self.lex}
        for i, w in enumerate(self.gcn_weights):
            params[f"gcn_{i}"] = w
        return params

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(p)) for p in self.parameters().values())


def vocabulary(corpus: GroundedCorpus, min_freq: int) -> tuple[str, ...]:
    """The lexemes of `corpus` seen at least `min_freq` times, plus
    `<unk>` if any are not, by descending count, ties by first appearance.
    `<unk>` counts every occurrence of a word below the cutoff, and of a
    literal `<unk>` in the corpus."""
    counts = Counter(tok.text for doc in corpus.documents for tok in doc
                     if not tok.is_entity)
    kept = {w: c for w, c in counts.items() if c >= min_freq}
    rare = sum(counts.values()) - sum(kept.values())
    if rare:
        kept[RARE_TOKEN] = kept.get(RARE_TOKEN, 0) + rare
    return tuple(sorted(kept, key=lambda w: -kept[w]))  # a stable sort


def init_space(kg: KnowledgeGraph, corpus: GroundedCorpus,
               cfg: OptimizerConfig, rng: np.random.Generator) -> EmbeddingSpace:
    """Xavier-initialized embedding space for one language, over the
    vocabulary of `corpus` at `cfg.min_freq`."""
    k = cfg.dim
    lexemes = vocabulary(corpus, cfg.min_freq)
    ent0 = xavier_uniform(rng, kg.n_entities, k)
    rel = xavier_uniform(rng, kg.n_relations, k)
    lex = xavier_uniform(rng, len(lexemes), k)
    gcn = [xavier_uniform(rng, k, k) for _ in range(cfg.gcn_layers)]
    return EmbeddingSpace(
        lang=kg.lang, dim=k, entities=kg.entities, relations=kg.relations,
        lexemes=lexemes, ent0=ent0, rel=rel, lex=lex,
        gcn_weights=gcn, activation=cfg.activation)


# ---------------------------------------------------------------------------
# GCN forward/backward

def _gcn_forward_cached(space: EmbeddingSpace, adjacency: sp.csr_matrix):
    """n-layer propagation E^(l) = phi(N E^(l-1) M^(l-1)); returns E^(n)
    and the cache for backward."""
    act, _ = _ACT[space.activation]
    e = space.ent0
    cache = []
    for w in space.gcn_weights:
        agg = adjacency @ e
        z = agg @ w
        cache.append((agg, z))
        e = act(z)
    return e, cache


def _gcn_backward(space: EmbeddingSpace, adjacency: sp.csr_matrix, cache,
                  d_out: np.ndarray):
    """Backprop d_out through the cached forward; returns (d_ent0, d_weights)."""
    _, dact = _ACT[space.activation]
    d_weights = [None] * len(space.gcn_weights)
    de = d_out
    for layer in range(len(space.gcn_weights) - 1, -1, -1):
        agg, z = cache[layer]
        dz = de * dact(z)
        d_weights[layer] = agg.T @ dz
        # norm adjacency is symmetric, so its transpose is itself
        de = adjacency @ (dz @ space.gcn_weights[layer].T)
    return de, d_weights


def _entity_grads(space: EmbeddingSpace, adjacency: sp.csr_matrix | None,
                  cache, d_ent: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of `ent0` and the GCN weights from that of the entity
    output; without GCN layers the output is `ent0` itself."""
    d_ent0, d_weights = _gcn_backward(space, adjacency, cache, d_ent)
    return {"ent0": d_ent0,
            **{f"gcn_{i}": dw for i, dw in enumerate(d_weights)}}


# ---------------------------------------------------------------------------
# Losses

@dataclass(frozen=True)
class KGBatch:
    positives: np.ndarray      # (B, 3) int (h, r, t)
    neg_heads: np.ndarray      # (B, m) int
    neg_tails: np.ndarray      # (B, m) int


@dataclass(frozen=True)
class TextBatch:
    centers: np.ndarray        # (B,) unified token index
    contexts: np.ndarray       # (B,)
    negatives: np.ndarray      # (B, m)


def _scatter_rows(indices, rows, n_rows: int) -> np.ndarray:
    """Sum of `rows[i][j]` into row `indices[i][j]` of an (n_rows, k) zero
    table, by one flat bincount.  Each cell adds its terms in the order
    given, so the sums equal sequential `np.add.at` calls bit for bit."""
    idx = np.concatenate(indices)
    vals = np.concatenate(rows)
    k = vals.shape[1]
    flat = (idx[:, None] * k + np.arange(k)).ravel()
    return np.bincount(flat, weights=vals.ravel(),
                       minlength=n_rows * k).reshape(n_rows, k)


def _sampled_softmax_l2(diff_pos: np.ndarray, diff_neg: np.ndarray,
                        bias: float):
    """Sampled softmax over negative L2 distance and its gradients.

    Per row: -log softmax of (b - ||d||) over the positive difference
    `diff_pos[i]` (B, k) and its negatives `diff_neg[i]` (B, m, k),
    averaged over the batch.  The positive term is included in the
    denominator so the loss is bounded and strictly positive.  Returns
    (loss, dL/d diff_pos, dL/d diff_neg).
    """
    bsz = len(diff_pos)
    f_pos = np.linalg.norm(diff_pos, axis=1)
    f_neg = np.linalg.norm(diff_neg, axis=2)

    logits = bias - np.concatenate([f_pos[:, None], f_neg], axis=1)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    loss = float(-np.mean(np.log(probs[:, 0] + EPS)))

    # dL/df_j = (1[j=0] - p_j) / B
    coef = -probs / bsz
    coef[:, 0] += 1.0 / bsz

    u_pos = diff_pos / np.maximum(f_pos, EPS)[:, None]
    u_neg = diff_neg / np.maximum(f_neg, EPS)[:, :, None]
    return loss, coef[:, 0:1] * u_pos, coef[:, 1:, None] * u_neg


def kg_loss(batch: KGBatch, space: EmbeddingSpace,
            adjacency: sp.csr_matrix | None, bias: float):
    """Translational sampled-softmax loss and analytic gradients: the
    distance of a triple (h, r, t) is ||h + r - t||."""
    ent, cache = _gcn_forward_cached(space, adjacency)
    h, r, t = batch.positives[:, 0], batch.positives[:, 1], batch.positives[:, 2]
    diff_pos = ent[h] + space.rel[r] - ent[t]               # (B, k)
    diff_neg = (ent[batch.neg_heads] + space.rel[r][:, None, :]
                - ent[batch.neg_tails])                      # (B, m, k)
    loss, g_pos, g_neg = _sampled_softmax_l2(diff_pos, diff_neg, bias)

    g_neg_rows = g_neg.reshape(-1, space.dim)
    d_ent = _scatter_rows(
        (h, t, batch.neg_heads.ravel(), batch.neg_tails.ravel()),
        (g_pos, -g_pos, g_neg_rows, -g_neg_rows), len(ent))
    d_rel = _scatter_rows((r, r), (g_pos, g_neg.sum(axis=1)),
                          len(space.rel))
    return loss, {"rel": d_rel, **_entity_grads(space, adjacency, cache, d_ent)}


def text_loss(batch: TextBatch, space: EmbeddingSpace,
              adjacency: sp.csr_matrix | None):
    """Skip-gram sampled softmax with no bias: the distance of a (center,
    candidate) pair is ||v_center - v_cand||, so co-occurring tokens are
    pulled together.  Entity tokens resolve to GCN outputs; gradients on
    them flow back into the base table and weights.
    """
    ent, cache = _gcn_forward_cached(space, adjacency)
    n_ent = space.n_entities
    tokens = np.concatenate([ent, space.lex])  # rows by unified index
    vx = tokens[batch.centers]                 # (B, k)
    loss, g_pos, g_neg = _sampled_softmax_l2(
        vx - tokens[batch.contexts], vx[:, None, :] - tokens[batch.negatives],
        0.0)

    # one scatter over the unified index, split into entities and lexemes
    d_tok = _scatter_rows(
        (batch.centers, batch.contexts, batch.negatives.ravel()),
        (g_pos + g_neg.sum(axis=1), -g_pos, (-g_neg).reshape(-1, space.dim)),
        space.n_tokens)
    d_ent, d_lex = d_tok[:n_ent], d_tok[n_ent:]
    return loss, {"lex": d_lex, **_entity_grads(space, adjacency, cache, d_ent)}


# ---------------------------------------------------------------------------
# Batch construction

@dataclass(frozen=True)
class ObservedTriples:
    """The observed triples of a KG as the sorted int64 keys
    (h*R + r)*E + t."""

    keys: np.ndarray
    n_entities: int
    n_relations: int

    @classmethod
    def of(cls, kg: KnowledgeGraph) -> "ObservedTriples":
        n_ent, n_rel = kg.n_entities, kg.n_relations
        # the largest key is E*R*E - 1, which must fit in an int64
        if n_ent * n_rel * n_ent > 2 ** 63:
            raise ValueError(f"{n_ent} entities and {n_rel} relations "
                             "overflow the int64 triple key")
        triples = np.array(kg.triples, dtype=np.int64).reshape(-1, 3)
        keys = (triples[:, 0] * n_rel + triples[:, 1]) * n_ent + triples[:, 2]
        return cls(keys=np.sort(keys), n_entities=n_ent, n_relations=n_rel)

    def contains(self, h: np.ndarray, r: np.ndarray,
                 t: np.ndarray) -> np.ndarray:
        """Elementwise membership of the broadcast triples (h, r, t)."""
        key = (h * self.n_relations + r) * self.n_entities + t
        if len(self.keys) == 0:
            return np.zeros(key.shape, dtype=bool)
        at = np.searchsorted(self.keys, key)
        return self.keys[np.minimum(at, len(self.keys) - 1)] == key


def _redraw(h: int, r: int, t: int, nh: int, nt: int, corrupt_head: bool,
            observed: ObservedTriples,
            rng: np.random.Generator) -> tuple[int, int]:
    """Redraw the corruption (nh, r, nt) of (h, r, t), an observed triple.

    The corrupted side is redrawn up to 10*|E| times.  If every draw is
    observed, the side is taken as saturated: the corruption restarts
    from the positive on the other side, again up to 10*|E| times.  If
    those are all observed too, the positive (h, t) itself is returned.
    """
    n_entities = observed.n_entities
    for _ in range(2):
        for _ in range(10 * n_entities):
            cand = int(rng.integers(n_entities))
            if corrupt_head:
                nh = cand
            else:
                nt = cand
            if not observed.contains(nh, r, nt):
                return nh, nt
        corrupt_head, nh, nt = not corrupt_head, h, t
    return nh, nt


def _kg_batch(pos: np.ndarray, p_head: np.ndarray,
              observed: ObservedTriples, count: int,
              rng: np.random.Generator) -> KGBatch:
    """Bernoulli-corrupted negatives, `count` per positive (h, r, t): the
    head is corrupted with probability p_head[r], else the tail, and a
    corruption that is an observed triple is redrawn (see `_redraw`)."""
    n_entities = observed.n_entities
    if n_entities < 2:
        raise ValueError("need at least 2 entities to corrupt a triple")
    bsz = len(pos)
    coins = rng.random((bsz, count))
    cands = rng.integers(n_entities, size=(bsz, count))
    neg_h = np.repeat(pos[:, 0:1], count, axis=1)
    neg_t = np.repeat(pos[:, 2:3], count, axis=1)
    head_side = coins < p_head[pos[:, 1], None]
    neg_h[head_side] = cands[head_side]
    neg_t[~head_side] = cands[~head_side]
    # resample the (rare) corruptions that collide with observed triples,
    # in row-major order; a redraw changes only its own cell
    hits = observed.contains(neg_h, pos[:, 1:2], neg_t)
    for i, j in zip(*np.nonzero(hits)):
        h, r, t = (int(x) for x in pos[i])
        neg_h[i, j], neg_t[i, j] = _redraw(
            h, r, t, int(neg_h[i, j]), int(neg_t[i, j]),
            bool(head_side[i, j]), observed, rng)
    return KGBatch(positives=pos, neg_heads=neg_h, neg_tails=neg_t)


def _pair_array(docs_idx: list[np.ndarray], radius: int) -> np.ndarray:
    """All (center, context) unified-index pairs as an (N, 2) int array.

    Pairs come document by document; within a document, offset by offset
    from 1 to `radius`, first every (left, right) pair at that offset in
    position order, then every (right, left) pair.
    """
    lengths = np.array([len(idx) for idx in docs_idx], dtype=np.int64)
    # an offset past the longest document adds no pair
    radius = min(radius, int(lengths.max(initial=1)) - 1)
    offsets = np.arange(1, radius + 1)
    # pairs in one direction per (document, offset), and where each
    # (document, offset) block starts in the output
    n_dir = np.maximum(lengths[:, None] - offsets[None, :], 0)
    block_start = 2 * (np.cumsum(n_dir.ravel()) - n_dir.ravel())
    block_start = block_start.reshape(n_dir.shape)
    out = np.empty((2 * int(n_dir.sum()), 2), dtype=np.int64)
    if len(out) == 0:
        return out
    flat = np.concatenate(docs_idx)
    doc = np.repeat(np.arange(len(lengths)), lengths)
    at = np.arange(len(flat)) - (np.cumsum(lengths) - lengths)[doc]
    for o in range(1, radius + 1):
        left = np.flatnonzero(at < lengths[doc] - o)
        d = doc[left]
        fwd = block_start[d, o - 1] + at[left]     # rows of (left, right)
        back = fwd + n_dir[d, o - 1]                # rows of (right, left)
        out[fwd, 0] = out[back, 1] = flat[left]
        out[fwd, 1] = out[back, 0] = flat[left + o]
    return out


def encode_corpus(corpus: GroundedCorpus,
                  space: EmbeddingSpace) -> list[np.ndarray]:
    """Documents as unified indices: entities, then lexemes; a word that is
    not in `space.lexemes` takes the `<unk>` row."""
    ent_row = {e: i for i, e in enumerate(space.entities)}
    lex_row = {w: space.n_entities + i for i, w in enumerate(space.lexemes)}
    return [np.array([ent_row[tok.entity] if tok.is_entity
                      else lex_row[tok.text] if tok.text in lex_row
                      else lex_row[RARE_TOKEN] for tok in doc],
                     dtype=np.int64)
            for doc in corpus.documents]


# ---------------------------------------------------------------------------
# Optimizer

class AMSGrad:
    """AMSGrad: Adam with a non-decreasing second-moment estimate.

    `step` updates the moments and parameters in place, through two scratch
    buffers per parameter, so a step allocates no arrays.
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float,
                 beta1: float, beta2: float, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.v_hat = {k: np.zeros_like(v) for k, v in params.items()}
        self._scratch = {k: (np.empty_like(v), np.empty_like(v))
                         for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        for name, g in grads.items():
            p, m, v, v_hat = (self.params[name], self.m[name], self.v[name],
                              self.v_hat[name])
            a, b = self._scratch[name]
            m *= self.beta1
            np.multiply(1 - self.beta1, g, out=a)
            m += a
            v *= self.beta2
            np.multiply(1 - self.beta2, g, out=a)
            a *= g
            v += a
            np.maximum(v_hat, v, out=v_hat)
            # p -= lr * m / (sqrt(v_hat) + eps)
            np.multiply(self.lr, m, out=a)
            np.sqrt(v_hat, out=b)
            b += self.eps
            a /= b
            p -= a


# ---------------------------------------------------------------------------
# Training loop

@dataclass
class TrainHistory:
    kg_steps: int = 0
    text_steps: int = 0
    epoch_kg_loss: list[float] = field(default_factory=list)
    epoch_text_loss: list[float] = field(default_factory=list)


def train(kg: KnowledgeGraph, corpus: GroundedCorpus, cfg: OptimizerConfig,
          seed: int) -> tuple[EmbeddingSpace, TrainHistory]:
    """Alternating KG/text AMSGrad training; deterministic under a fixed seed."""
    from .kg import build_graph_structure

    rng = np.random.default_rng(seed)
    space = init_space(kg, corpus, cfg, rng)
    adjacency = build_graph_structure(kg) if cfg.gcn_layers else None
    p_head = relation_stats(kg)
    observed = ObservedTriples.of(kg)
    triples = np.array(kg.triples, dtype=np.int64)

    docs_idx = encode_corpus(corpus, space)
    pairs = _pair_array(docs_idx, cfg.context_radius)
    use_text = cfg.use_text_loss and len(pairs) > 0
    use_kg = cfg.use_kg_loss and len(triples) > 0

    opt = AMSGrad(space.parameters(), cfg.lr, cfg.beta1, cfg.beta2)
    history = TrainHistory()

    # one step per KG batch in every mode, so ablations train equally long
    n_batches = max(1, int(np.ceil(len(triples) / cfg.batch_size)))
    pair_perm = rng.permutation(len(pairs)) if use_text else None
    pair_pos = 0

    def next_text_batch() -> TextBatch:
        nonlocal pair_perm, pair_pos
        if pair_pos + cfg.batch_size > len(pairs):
            pair_perm = rng.permutation(len(pairs))
            pair_pos = 0
        sel = pairs[pair_perm[pair_pos:pair_pos + cfg.batch_size]]
        pair_pos += cfg.batch_size
        negs = rng.integers(space.n_tokens, size=(len(sel), cfg.neg_samples))
        return TextBatch(centers=sel[:, 0], contexts=sel[:, 1], negatives=negs)

    # Each step's `grads` stays bound until the next step's are computed,
    # so a step allocates its gradient tables before the last ones are
    # freed.  Freeing them first gives the same numbers but, through
    # glibc's trimming of the heap top, made training on the default
    # benchmark about twice as slow.
    for _ in range(cfg.epochs):
        kg_losses, text_losses = [], []
        order = rng.permutation(len(triples)) if use_kg else None
        for b in range(n_batches):
            if use_kg:
                sel = triples[order[b * cfg.batch_size:
                                    (b + 1) * cfg.batch_size]]
                batch = _kg_batch(sel, p_head, observed, cfg.neg_samples,
                                  rng)
                loss, grads = kg_loss(batch, space, adjacency, cfg.bias_b)
                if not np.isfinite(loss):
                    raise TrainingDivergence(
                        f"non-finite KG loss at epoch {len(history.epoch_kg_loss)}")
                opt.step(grads)
                history.kg_steps += 1
                kg_losses.append(loss)
            if use_text:
                batch = next_text_batch()
                loss, grads = text_loss(batch, space, adjacency)
                if not np.isfinite(loss):
                    raise TrainingDivergence(
                        f"non-finite text loss at epoch {len(history.epoch_text_loss)}")
                opt.step(grads)
                history.text_steps += 1
                text_losses.append(loss)
        if kg_losses:
            history.epoch_kg_loss.append(float(np.mean(kg_losses)))
        if text_losses:
            history.epoch_text_loss.append(float(np.mean(text_losses)))

    space.ent_out = _gcn_forward_cached(space, adjacency)[0]
    # alignment normalizes every output row: a zero row is as unusable as
    # a non-finite one, and training, not the input, produced it
    rows = np.vstack([space.ent_out, space.lex])
    bad = np.flatnonzero(~(rows.any(axis=1) & np.isfinite(rows).all(axis=1)))
    if len(bad):
        items = [ENTITY_PREFIX + e for e in space.entities] + list(space.lexemes)
        raise TrainingDivergence(
            f"trained {space.lang} space has {len(bad)} all-zero or "
            f"non-finite row(s), first {items[bad[0]]!r}; they cannot be "
            "normalized")
    if not space.all_finite():
        raise TrainingDivergence("non-finite parameters after training")
    return space, history


# ---------------------------------------------------------------------------
# Serialization

def _format_row(vec: np.ndarray) -> str:
    return " ".join(repr(float(x)) for x in vec)


def write_embeddings(space: EmbeddingSpace, prefix) -> None:
    """Write `<prefix>.vec` (entities then frequency-ordered lexemes) and
    `<prefix>.rel.vec`, both in word2vec text format."""
    with open(f"{prefix}.vec", "w", encoding="utf-8") as fh:
        fh.write(f"{space.n_tokens} {space.dim}\n")
        for i, e in enumerate(space.entities):
            fh.write(f"{ENTITY_PREFIX}{e} {_format_row(space.ent_out[i])}\n")
        for i, w in enumerate(space.lexemes):
            fh.write(f"{w} {_format_row(space.lex[i])}\n")
    with open(f"{prefix}.rel.vec", "w", encoding="utf-8") as fh:
        fh.write(f"{len(space.relations)} {space.dim}\n")
        for i, r in enumerate(space.relations):
            fh.write(f"{r} {_format_row(space.rel[i])}\n")


def read_embeddings(path) -> tuple[list[str], np.ndarray]:
    """Tokens and rows of a word2vec text file.  A bad header, a duplicate
    token, a row of the wrong width or count, and a non-numeric or
    non-finite value, or one holding `_` or a non-ASCII character, raise
    a ValueError with the file and line."""
    with open_text(path) as fh:
        header = fh.readline().split()
        if len(header) != 2 or not all(h.isascii() and h.isdigit()
                                       for h in header):
            raise ValueError(f"{path}: line 1: expected a `<count> <dim>` "
                             "header")
        count, dim = int(header[0]), int(header[1])
        # A row of `dim` values takes at least 2 * dim characters, so the
        # file's size bounds the rows it can hold: a header that promises
        # more allocates no more than the file can fill, and one whose
        # width no row can fill allocates nothing.
        rows = min(count, os.path.getsize(path) // max(2 * dim, 1))
        mat = np.empty((rows, dim if rows else 0))
        line_of = {}
        for lineno, line in enumerate(fh, start=2):
            token, *values = line.rstrip("\n").split(" ")
            where = f"{path}: line {lineno}:"
            if token in line_of:
                raise ValueError(f"{where} duplicate token {token!r}, first "
                                 f"on line {line_of[token]}")
            if len(values) != dim:
                raise ValueError(f"{where} {len(values)} values, the header "
                                 f"says {dim}")
            # float() also reads `1_0` and non-ASCII digits, which no
            # word2vec writer emits; the token may hold either
            tail = line[len(token):]
            if "_" in tail or not tail.isascii():
                bad = next(x for x in values if "_" in x or not x.isascii())
                raise ValueError(f"{where} value {bad!r} is not an ASCII "
                                 "number without underscores")
            try:
                row = [float(x) for x in values]
            except ValueError as exc:
                raise ValueError(f"{where} {exc}") from None
            if len(line_of) < len(mat):
                mat[len(line_of)] = row
            line_of[token] = lineno
    tokens = list(line_of)
    if len(tokens) != count:
        raise ValueError(f"{path}: line {min(len(tokens), count) + 2}: "
                         f"{len(tokens)} rows, the header says {count}")
    bad = np.flatnonzero(~np.isfinite(mat).all(axis=1))
    if len(bad):
        raise ValueError(f"{path}: line {bad[0] + 2}: non-finite value for "
                         f"{tokens[bad[0]]!r}")
    return tokens, mat.reshape(count, dim)
