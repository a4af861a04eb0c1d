"""Independent brute-force oracles used to check the library's fast paths.

Everything here is deliberately naive: nested loops, full sorts, explicit
finite differences.  None of it shares code with the implementation under
test.
"""

import numpy as np


def finite_difference_grad(loss_fn, array, h=1e-5):
    """Central finite differences of loss_fn() w.r.t. every entry of array."""
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = array[idx]
        array[idx] = orig + h
        up = loss_fn()
        array[idx] = orig - h
        down = loss_fn()
        array[idx] = orig
        grad[idx] = (up - down) / (2 * h)
        it.iternext()
    return grad


def relative_error(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def cos(u, v):
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def brute_csls(mapped_sources, targets, k, cand_ref=None):
    """Full CSLS score matrix by nested loops.

    A target's hubness penalty is its mean cosine to its k nearest rows of
    `cand_ref`, the mapped sources when it is None.  The penalties depend
    only on one endpoint, so each is computed once per row/column rather
    than per pair.
    """
    if cand_ref is None:
        cand_ref = mapped_sources
    ns, nt, nr = len(mapped_sources), len(targets), len(cand_ref)
    r_t = []
    for i in range(ns):
        sims = sorted((cos(mapped_sources[i], targets[t]) for t in range(nt)),
                      reverse=True)
        r_t.append(float(np.mean(sims[:min(k, nt)])))
    r_s = []
    for j in range(nt):
        sims = sorted((cos(targets[j], cand_ref[s]) for s in range(nr)),
                      reverse=True)
        r_s.append(float(np.mean(sims[:min(k, nr)])))
    scores = np.zeros((ns, nt))
    for i in range(ns):
        for j in range(nt):
            scores[i, j] = (2 * cos(mapped_sources[i], targets[j])
                            - r_t[i] - r_s[j])
    return scores


def brute_norm_adjacency(kg):
    """D^-1/2 (A + I) D^-1/2 as a dense matrix by nested loops, where A
    links every pair of distinct entities that share a triple."""
    n = kg.n_entities
    linked = [[i == j for j in range(n)] for i in range(n)]
    for h, _, t in kg.triples:
        linked[h][t] = linked[t][h] = True
    degree = [sum(row) for row in linked]
    return np.array([[linked[i][j] / np.sqrt(degree[i] * degree[j])
                      for j in range(n)] for i in range(n)])


def brute_pairs(documents, radius):
    """(center, context) pairs within `radius` of each other per document,
    by a nested loop over positions in center order."""
    pairs = []
    for doc in documents:
        for i in range(len(doc)):
            for j in range(max(0, i - radius), min(len(doc), i + radius + 1)):
                if j != i:
                    pairs.append((doc[i], doc[j]))
    return pairs


def brute_mutual_nn(score_matrix):
    """Mutual-1-NN pairs (i, j) from a higher-is-better score matrix,
    ties resolved toward the lowest index."""
    ns, nt = score_matrix.shape
    pairs = []
    for i in range(ns):
        j = max(range(nt), key=lambda c: (score_matrix[i, c], -c))
        back = max(range(ns), key=lambda r: (score_matrix[r, j], -r))
        if back == i:
            pairs.append((i, j))
    return pairs


def brute_rank(scores_row, gold_idx):
    """1-based rank of gold under (descending score, ascending index)."""
    order = sorted(range(len(scores_row)),
                   key=lambda i: (-scores_row[i], i))
    return order.index(gold_idx) + 1


def random_orthogonal(rng, k):
    """Orthogonalized Gaussian matrix (QR with sign-fixed diagonal)."""
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def naive_grounding_stats(raw_documents, surface_forms, case_fold=True):
    """Coverage and mean mentions per covered entity by greedy rescanning.

    surface_forms: list of (entity_id, form string), first-inserted wins.
    Mirrors the grounding contract with an independent scan that stores
    the form table as a flat list instead of a trie.
    """
    table = {}
    for ent, form in surface_forms:
        key = tuple(t.lower() if case_fold else t for t in form.split())
        if key and key not in table:
            table[key] = ent
    if not table:
        return {}
    max_len = max(len(k) for k in table)
    mentions = {}
    for doc in raw_documents:
        tokens = doc.split()
        i = 0
        while i < len(tokens):
            matched = None
            for length in range(min(max_len, len(tokens) - i), 0, -1):
                key = tuple(t.lower() if case_fold else t
                            for t in tokens[i:i + length])
                if key in table:
                    matched = (table[key], length)
                    break
            if matched:
                mentions[matched[0]] = mentions.get(matched[0], 0) + 1
                i += matched[1]
            else:
                i += 1
    return mentions


def reconstruct(corpus, doc_idx):
    """Original token sequence of a grounded document, each entity token
    expanded to the surface tokens it replaced."""
    out = []
    for tok in corpus.documents[doc_idx]:
        if tok.is_entity:
            out.extend(tok.surface)
        else:
            out.append(tok.text)
    return out


# ---------------------------------------------------------------------------
# Earlier implementations of the training step's kernels, kept as oracles:
# the fast kernels must reproduce them bit for bit.

def _softmax_rows(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def add_at_kg_grads(batch, ent, rel, bias, eps=1e-12):
    """kg_loss's loss and its gradients on the entity rows it read and on
    the relation table, scattered by one np.add.at call per term."""
    h, r, t = batch.positives.T
    bsz = len(h)
    diff_pos = ent[h] + rel[r] - ent[t]
    f_pos = np.linalg.norm(diff_pos, axis=1)
    diff_neg = (ent[batch.neg_heads] + rel[r][:, None, :]
                - ent[batch.neg_tails])
    f_neg = np.linalg.norm(diff_neg, axis=2)
    probs = _softmax_rows(bias - np.concatenate([f_pos[:, None], f_neg],
                                                axis=1))
    loss = float(-np.mean(np.log(probs[:, 0] + eps)))
    coef = -probs / bsz
    coef[:, 0] += 1.0 / bsz
    u_pos = diff_pos / np.maximum(f_pos, eps)[:, None]
    u_neg = diff_neg / np.maximum(f_neg, eps)[:, :, None]
    d_ent = np.zeros_like(ent)
    d_rel = np.zeros_like(rel)
    g_pos = coef[:, 0:1] * u_pos
    np.add.at(d_ent, h, g_pos)
    np.add.at(d_ent, t, -g_pos)
    np.add.at(d_rel, r, g_pos)
    g_neg = coef[:, 1:, None] * u_neg
    np.add.at(d_ent, batch.neg_heads, g_neg)
    np.add.at(d_ent, batch.neg_tails, -g_neg)
    np.add.at(d_rel, r, g_neg.sum(axis=1))
    return loss, d_ent, d_rel


def add_at_text_grads(batch, ent, lex, eps=1e-12):
    """text_loss's loss and its gradients on the entity rows and the
    lexeme table, gathered and scattered table by table with masks."""
    n_ent, k = ent.shape

    def gather(idx):
        out = np.empty(idx.shape + (k,))
        is_ent = idx < n_ent
        out[is_ent] = ent[idx[is_ent]]
        out[~is_ent] = lex[idx[~is_ent] - n_ent]
        return out

    vx, vc, vn = (gather(batch.centers), gather(batch.contexts),
                  gather(batch.negatives))
    bsz = len(batch.centers)
    diff_pos = vx - vc
    d_pos = np.linalg.norm(diff_pos, axis=1)
    diff_neg = vx[:, None, :] - vn
    d_neg = np.linalg.norm(diff_neg, axis=2)
    probs = _softmax_rows(-np.concatenate([d_pos[:, None], d_neg], axis=1))
    loss = float(-np.mean(np.log(probs[:, 0] + eps)))
    coef = -probs / bsz
    coef[:, 0] += 1.0 / bsz
    u_pos = diff_pos / np.maximum(d_pos, eps)[:, None]
    u_neg = diff_neg / np.maximum(d_neg, eps)[:, :, None]
    g_pos = coef[:, 0:1] * u_pos
    g_neg = coef[:, 1:, None] * u_neg
    d_ent = np.zeros_like(ent)
    d_lex = np.zeros_like(lex)

    def scatter(idx, grad):
        is_ent = idx < n_ent
        if is_ent.any():
            np.add.at(d_ent, idx[is_ent], grad[is_ent])
        if (~is_ent).any():
            np.add.at(d_lex, idx[~is_ent] - n_ent, grad[~is_ent])

    scatter(batch.centers, g_pos + g_neg.sum(axis=1))
    scatter(batch.contexts, -g_pos)
    scatter(batch.negatives.ravel(), (-g_neg).reshape(-1, k))
    return loss, d_ent, d_lex


def set_loop_negatives(pos, head_prob, triple_set, n_entities, count, rng):
    """Bernoulli-corrupted negatives with a per-negative set lookup and the
    bounded redraw of each collision.  Returns (heads, tails, collisions).
    `head_prob` maps relation ids to head-corruption probabilities."""
    bsz = len(pos)
    coins = rng.random((bsz, count))
    cands = rng.integers(n_entities, size=(bsz, count))
    neg_h = np.repeat(pos[:, 0:1], count, axis=1)
    neg_t = np.repeat(pos[:, 2:3], count, axis=1)
    head_side = coins < head_prob(pos[:, 1])[:, None]
    neg_h[head_side] = cands[head_side]
    neg_t[~head_side] = cands[~head_side]
    collisions = 0
    for i in range(bsz):
        h, r, t = (int(x) for x in pos[i])
        for j in range(count):
            nh, nt = int(neg_h[i, j]), int(neg_t[i, j])
            if (nh, r, nt) not in triple_set:
                continue
            collisions += 1
            side_is_head = bool(head_side[i, j])
            for _ in range(2):
                for _ in range(10 * n_entities):
                    cand = int(rng.integers(n_entities))
                    if side_is_head:
                        nh = cand
                    else:
                        nt = cand
                    if (nh, r, nt) not in triple_set:
                        break
                else:
                    side_is_head, nh, nt = not side_is_head, h, t
                    continue
                break
            neg_h[i, j], neg_t[i, j] = nh, nt
    return neg_h, neg_t, collisions


def allocating_amsgrad_step(params, m, v, v_hat, grads, lr, beta1, beta2,
                            eps=1e-8):
    """One AMSGrad step written with temporaries, in place on the dicts."""
    for name, g in grads.items():
        m[name] *= beta1
        m[name] += (1 - beta1) * g
        v[name] *= beta2
        v[name] += (1 - beta2) * g * g
        np.maximum(v_hat[name], v[name], out=v_hat[name])
        params[name] -= lr * m[name] / (np.sqrt(v_hat[name]) + eps)


def stacked_pairs(documents, radius):
    """(center, context) pairs by two np.stack calls per document and
    offset: per document, per offset, (left, right) then (right, left)."""
    chunks = []
    for idx in documents:
        for off in range(1, radius + 1):
            if len(idx) <= off:
                continue
            left, right = idx[:-off], idx[off:]
            chunks.append(np.stack([left, right], axis=1))
            chunks.append(np.stack([right, left], axis=1))
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(chunks, axis=0)


# ---------------------------------------------------------------------------
# Earlier CSLS kernels, kept as oracles: one for self-learning's proposal
# step and one for evaluation.  The one scorer must reproduce each bit for
# bit.

def _unit(mat):
    return mat / np.linalg.norm(mat, axis=1)[:, None]


def _topk_mean(scores, k, axis):
    n = scores.shape[axis]
    k = min(k, n)
    part = np.partition(scores, n - k, axis=axis)
    sl = [slice(None)] * scores.ndim
    sl[axis] = slice(n - k, n)
    return part[tuple(sl)].mean(axis=axis)


def proposal_csls(mapped_src, tgt, csls_k):
    """2*cos - mean top-k row similarity - mean top-k column similarity."""
    cos_st = _unit(mapped_src) @ _unit(tgt).T
    r_src = _topk_mean(cos_st, csls_k, axis=1)
    r_tgt = _topk_mean(cos_st, csls_k, axis=0)
    return 2.0 * cos_st - r_src[:, None] - r_tgt[None, :]


def evaluation_csls(queries, cands, all_src, csls_k):
    """CSLS whose query penalty is taken over the candidates and whose
    candidate penalty is taken over all mapped source entities."""
    cos_qc = _unit(queries) @ _unit(cands).T
    r_query = _topk_mean(cos_qc, csls_k, axis=1)
    cos_cand_src = _unit(cands) @ _unit(all_src).T
    r_cand = _topk_mean(cos_cand_src, csls_k, axis=1)
    return 2.0 * cos_qc - r_query[:, None] - r_cand[None, :]


def stacked(blocks):
    """The (rows, block) pairs a blocked scorer yields, as one matrix; the
    blocks must cover the rows in order.  Each block is copied, as the
    scorer may build the next one in the same memory."""
    parts, end = [], 0
    for rows, block in blocks:
        assert rows.start == end and rows.stop - rows.start == len(block)
        parts.append(block.copy())
        end = rows.stop
    return np.vstack(parts)
