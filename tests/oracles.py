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


def brute_csls(mapped_sources, targets, k):
    """Full CSLS score matrix by nested loops.

    The hubness penalties depend only on one endpoint, so each is computed
    once per row/column rather than per pair.
    """
    ns, nt = len(mapped_sources), len(targets)
    r_t = []
    for i in range(ns):
        sims = sorted((cos(mapped_sources[i], targets[t]) for t in range(nt)),
                      reverse=True)
        r_t.append(float(np.mean(sims[:min(k, nt)])))
    r_s = []
    for j in range(nt):
        sims = sorted((cos(targets[j], mapped_sources[s]) for s in range(ns)),
                      reverse=True)
        r_s.append(float(np.mean(sims[:min(k, ns)])))
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
