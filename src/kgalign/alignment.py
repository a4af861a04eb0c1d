"""Cross-space alignment by self-learning over fixed embeddings.

The embeddings of each language are frozen; alignment retrofits an
orthogonal transform M between unit-normalized spaces.  Each iteration
solves the Procrustes problem on the current pair set, then proposes new
pairs under a mutual 1-NN constraint with CSLS scoring, until the number
of new entity pairs per iteration falls below a stop fraction.
"""

from __future__ import annotations

import json
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .config import NeighborQuery, PipelineConfig, open_text, read_fields
from .embedding import read_embeddings
from .grounding import ENTITY_PREFIX


def unit_rows(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1)
    if np.any(norms == 0):
        raise ValueError("zero-norm vector cannot be normalized")
    return mat / norms[:, None]


@dataclass
class AlignmentSpace:
    """One side of an alignment problem: items with unit vectors.

    Items are entity markers (`@ent:<id>`) followed by lexemes ordered by
    descending corpus frequency, as written by the embedding serializer.
    """

    items: tuple[str, ...]
    vectors: np.ndarray              # unit rows
    index: dict[str, int] = field(init=False)
    entity_mask: np.ndarray = field(init=False)  # bool per item

    def __post_init__(self):
        self.entity_mask = np.array([t.startswith(ENTITY_PREFIX)
                                     for t in self.items], dtype=bool)
        self.index = {it: i for i, it in enumerate(self.items)}

    @property
    def n_entities(self) -> int:
        return int(self.entity_mask.sum())

    def entity_rows(self, ids) -> np.ndarray:
        """The row of each entity id; an id the space lacks raises a
        KeyError of its `@ent:<id>` item."""
        return np.array([self.index[ENTITY_PREFIX + e] for e in ids],
                        dtype=np.int64)

    @classmethod
    def from_file(cls, path) -> "AlignmentSpace":
        """The space of a `.vec` file; a zero row, which has no direction
        to align, raises a ValueError with the file and line."""
        tokens, mat = read_embeddings(path)
        zero = np.flatnonzero(~mat.any(axis=1))
        if len(zero):
            raise ValueError(f"{path}: line {zero[0] + 2}: zero-norm vector "
                             f"for {tokens[zero[0]]!r}")
        return cls(items=tuple(tokens), vectors=unit_rows(mat))


@dataclass
class AlignmentState:
    source: AlignmentSpace
    target: AlignmentSpace
    ent_pairs: list[tuple[str, str]]          # entity ids, 1-to-1
    lex_pairs: list[tuple[str, str]] = field(default_factory=list)
    transform: np.ndarray | None = None
    iteration: int = 0
    proposal_counts: list[int] = field(default_factory=list)
    lexeme_top_f: int = PipelineConfig.lexeme_top_f

    def pair_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked (X, Y) vectors of all current pairs, entities + lexemes."""
        src, tgt = self.source, self.target
        lex = np.array([(src.index[s], tgt.index[t])
                        for s, t in self.lex_pairs],
                       dtype=np.int64).reshape(-1, 2)
        ent_src = src.entity_rows([s for s, _ in self.ent_pairs])
        ent_tgt = tgt.entity_rows([t for _, t in self.ent_pairs])
        return (src.vectors[np.r_[ent_src, lex[:, 0]]],
                tgt.vectors[np.r_[ent_tgt, lex[:, 1]]])


def procrustes_solve(pairs_x: np.ndarray, pairs_y: np.ndarray) -> np.ndarray:
    """Orthogonal M minimizing sum ||M x - y||^2 via SVD of X^T Y.

    Rows are unit-normalized internally; M = V U^T for U S V^T = svd(X^T Y).
    X^T Y is summed by einsum, not BLAS, whose rounding changes with its
    thread count.
    """
    if len(pairs_x) == 0:
        raise ValueError("need at least one pair")
    x = unit_rows(np.atleast_2d(pairs_x))
    y = unit_rows(np.atleast_2d(pairs_y))
    u, s, vt = np.linalg.svd(np.einsum("ni,nj->ij", x, y))
    if np.any(s < 1e-12 * max(s[0], 1.0)):
        warnings.warn("rank-deficient Procrustes system; minimizer is "
                      "not unique", RuntimeWarning, stacklevel=2)
    return vt.T @ u.T


# Cells of one block of a score matrix: 2**18 float64 values, 2 MB.
BLOCK_CELLS = 1 << 18


def _row_blocks(n_rows: int, n_cols: int, cells: int | None = None):
    """Slices of consecutive rows, each block at most `cells` cells,
    BLOCK_CELLS if None (or one row, if a row alone is larger)."""
    step = max(1, (BLOCK_CELLS if cells is None else cells) // max(n_cols, 1))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def _block_buffer(*shapes: tuple[int, int]) -> np.ndarray:
    """Memory for the largest block `_row_blocks` yields for any of the
    (n_rows, n_cols) `shapes`: the largest of their first blocks."""
    cells = 0
    for n_rows, n_cols in shapes:
        first = next(_row_blocks(n_rows, n_cols), slice(0, 0))
        cells = max(cells, (first.stop - first.start) * n_cols)
    return np.empty(cells)


def _cosines(a: np.ndarray, b: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """a @ b.T, computed into the front of `buf`."""
    out = buf[:len(a) * len(b)].reshape(len(a), len(b))
    return np.matmul(a, b.T, out=out)


def _row_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """The min(k, n) largest values of each row, in no order, as a new
    array; `scores` is partitioned in place."""
    n = scores.shape[1]
    k = min(k, n)
    scores.partition(n - k, axis=1)
    return scores[:, n - k:].copy()


def neg_l2_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """-||a_i - b_j|| for every row pair, from the Gram form
    |a|^2 + |b|^2 - 2 a.b, without an (n, m, k) difference tensor."""
    sq = (np.einsum("ij,ij->i", a, a)[:, None]
          + np.einsum("ij,ij->i", b, b)[None, :] - 2.0 * (a @ b.T))
    return -np.sqrt(np.maximum(sq, 0.0))


def _row_topk_means(a: np.ndarray, b: np.ndarray, k: int, buf: np.ndarray,
                    column_sum: bool = False) -> np.ndarray:
    """Each row of `a`'s mean cosine to its k nearest rows of `b`, unit
    rows both, one block of cosines at a time in `buf`.  With
    `column_sum` the k values are summed in order, as a column mean of
    `b @ a.T` sums them, not pairwise as a row mean does."""
    means = np.empty(len(a))
    for rows in _row_blocks(len(a), len(b)):
        top = _row_topk(_cosines(a[rows], b, buf), k)
        means[rows] = (np.ascontiguousarray(top.T).mean(axis=0)
                       if column_sum else top.mean(axis=1))
    return means


def _score_blocks(queries: np.ndarray, cands: np.ndarray, q: NeighborQuery,
                  cand_ref: np.ndarray | None = None):
    """Yield (rows, scores of those query rows against every candidate),
    higher is better, under the query's metric; the blocks cover the query
    rows in order and each holds at most BLOCK_CELLS cells.  A CSLS call
    builds every block, of its penalties and of its scores, in one buffer,
    so a block is valid only until the next is yielded.

    CSLS is 2 cos(x, y) minus the mean cosine of x to its csls_k nearest
    candidates, minus the mean cosine of y to its csls_k nearest rows of
    `cand_ref`.  With no `cand_ref` the reference rows are the queries.
    The arrays passed in are never written; the call holds unit-row
    copies of them, so a caller that keeps no reference to an argument
    lets it be freed when its copy is made.
    """
    if q.metric != "csls":
        for rows in _row_blocks(len(queries), len(cands)):
            yield rows, neg_l2_matrix(queries[rows], cands)
        return
    queries = unit_rows(queries)
    cands = unit_rows(cands)
    ref = queries if cand_ref is None else unit_rows(cand_ref)
    buf = _block_buffer((len(queries), len(cands)), (len(cands), len(ref)))
    # the penalties, each a row top-k mean over row blocks of cosines.
    # With no `cand_ref`, a candidate's is the column top-k mean of the
    # query-candidate cosines, taken as the row top-k of the
    # candidate-query ones.
    r_query = _row_topk_means(queries, cands, q.csls_k, buf)
    r_cand = _row_topk_means(cands, ref, q.csls_k, buf,
                             column_sum=cand_ref is None)
    del ref, cand_ref                # only the penalties read them
    for rows in _row_blocks(len(queries), len(cands)):
        # 2 cos - r_query - r_cand, in that order, in the one buffer
        block = _cosines(queries[rows], cands, buf)
        block *= 2.0
        block -= r_query[rows, None]
        block -= r_cand
        yield rows, block


def _score_matrix(queries: np.ndarray, cands: np.ndarray, q: NeighborQuery,
                  cand_ref: np.ndarray | None = None) -> np.ndarray:
    """Score of every (query, candidate) row pair, as `_score_blocks`
    yields them, in one (queries x candidates) array.  No stage calls it;
    the benchmark's tracer (`perfbench/spans.py`) wraps it by name."""
    scores = np.empty((len(queries), len(cands)))
    for rows, block in _score_blocks(queries, cands, q, cand_ref):
        scores[rows] = block
    return scores


def _candidate_indices(space: AlignmentSpace, aligned_ids: list[str],
                       top_f: int) -> np.ndarray:
    """Rows of the unaligned entities and of the top-F most frequent
    lexemes, in ascending order."""
    keep = space.entity_mask.copy()
    keep[space.entity_rows(aligned_ids)] = False
    lexemes = ~space.entity_mask
    keep |= lexemes & (np.cumsum(lexemes) <= top_f)
    return np.flatnonzero(keep)


def propose_pairs(state: AlignmentState, q: NeighborQuery
                  ) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """Mutual 1-NN proposals: (entity id pairs, lexeme pairs), each in
    ascending source row.

    Candidates exclude already-aligned entities on both sides; lexemes are
    limited to the top-F frequency cutoff.  A mutual pair survives only if
    both items have the same type; existing lexeme pairs are not re-proposed.
    """
    src, tgt = state.source, state.target
    src_idx = _candidate_indices(src, [s for s, _ in state.ent_pairs],
                                 state.lexeme_top_f)
    tgt_idx = _candidate_indices(tgt, [t for _, t in state.ent_pairs],
                                 state.lexeme_top_f)
    if len(src_idx) == 0 or len(tgt_idx) == 0:
        return [], []
    nn_of_src = np.empty(len(src_idx), dtype=np.int64)
    # column argmax over the blocks: a later block takes a column only on a
    # strictly larger score, so ties go to the lower row, as in one block.
    # Within a block it is the first row equal to the column max, which
    # argmax(axis=0) finds only through a transposed copy of the block.
    nn_of_tgt = np.zeros(len(tgt_idx), dtype=np.int64)
    best = np.full(len(tgt_idx), -np.inf)
    # the mapped and gathered rows are passed without a name, so each is
    # freed as the scorer makes its unit-row copy
    for rows, scores in _score_blocks(src.vectors[src_idx] @ state.transform.T,
                                      tgt.vectors[tgt_idx], q):
        nn_of_src[rows] = scores.argmax(axis=1)
        block_best = scores.max(axis=0)
        block_nn = (scores == block_best).argmax(axis=0)
        wins = block_best > best
        best[wins] = block_best[wins]
        nn_of_tgt[wins] = rows.start + block_nn[wins]

    mutual = nn_of_tgt[nn_of_src] == np.arange(len(src_idx))
    s_rows, t_rows = src_idx[mutual], tgt_idx[nn_of_src[mutual]]
    s_ent, t_ent = src.entity_mask[s_rows], tgt.entity_mask[t_rows]
    both, neither = s_ent & t_ent, ~(s_ent | t_ent)
    cut = len(ENTITY_PREFIX)
    ent = [(src.items[s][cut:], tgt.items[t][cut:])
           for s, t in zip(s_rows[both], t_rows[both])]
    lex = [(src.items[s], tgt.items[t])
           for s, t in zip(s_rows[neither], t_rows[neither])]
    existing = set(state.lex_pairs)
    return ent, [p for p in lex if p not in existing]


def self_learn(state: AlignmentState, q: NeighborQuery,
               stop_fraction: float = PipelineConfig.stop_fraction,
               max_iterations: int = PipelineConfig.max_iterations
               ) -> AlignmentState:
    """Iterate Procrustes solve + mutual-NN proposal until convergence.

    Stops when an iteration proposes fewer entity pairs than
    stop_fraction * |source entities| or the iteration cap is reached.
    The pair set only grows; embeddings are never modified.  The
    settings are those `PipelineConfig` checks.
    """
    threshold = stop_fraction * state.source.n_entities
    while state.iteration < max_iterations:
        x, y = state.pair_matrices()
        state.transform = procrustes_solve(x, y)
        ent, lex = propose_pairs(state, q)
        state.ent_pairs.extend(ent)
        state.lex_pairs.extend(lex)
        state.proposal_counts.append(len(ent))
        state.iteration += 1
        if len(ent) < threshold:
            break
    return state


def solve_once(state: AlignmentState) -> AlignmentState:
    """Single Procrustes solve on the seed pairs, no proposal loop."""
    x, y = state.pair_matrices()
    state.transform = procrustes_solve(x, y)
    state.iteration += 1
    return state


def infer_batch(query_ids: list[str], state: AlignmentState,
                q: NeighborQuery, candidate_rows: np.ndarray):
    """The scores of the queries against the candidate target rows, higher
    is better, as `_score_blocks` yields them: (query rows, block) in
    query order, each block valid only until the next is yielded.

    For CSLS, the query-side penalty is taken over the candidate set and
    the candidate-side penalty over all mapped source entities.  The query
    ids are looked up at the call, the penalties taken at the first block.
    """
    src, tgt = state.source, state.target
    return _score_blocks(
        src.vectors[src.entity_rows(query_ids)] @ state.transform.T,
        tgt.vectors[candidate_rows], q,
        cand_ref=src.vectors[src.entity_mask] @ state.transform.T)


# ---------------------------------------------------------------------------
# Persistence

def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _space_text(space: AlignmentSpace):
    """The JSON text of one side of a state, in pieces: its vectors a few
    rows at a time, never as one list of Python floats.  A piece holds
    1/64 of a score block's cells, whose floats and text take under 1 MB."""
    yield '{"items":' + _dumps(list(space.items)) + ',"vectors":['
    n_rows, n_cols = space.vectors.shape
    for i, rows in enumerate(_row_blocks(n_rows, n_cols, BLOCK_CELLS // 64)):
        yield ("," if i else "") + _dumps(space.vectors[rows].tolist())[1:-1]
    yield "]}"


def save_state(state: AlignmentState, path) -> None:
    """Write `state` as the text of `json.dumps(payload, sort_keys=True,
    separators=(",", ":"))`, streaming the vectors of each side."""
    fields = {
        "source": _space_text(state.source),
        "target": _space_text(state.target),
        "ent_pairs": [list(p) for p in state.ent_pairs],
        "lex_pairs": [list(p) for p in state.lex_pairs],
        "transform": state.transform.tolist(),
        "iteration": state.iteration,
        "proposal_counts": state.proposal_counts,
        "lexeme_top_f": state.lexeme_top_f,
    }
    with open(path, "w", encoding="utf-8") as fh:
        for i, key in enumerate(sorted(fields)):
            fh.write(("," if i else "{") + _dumps(key) + ":")
            value = fields[key]
            fh.writelines(value if key in ("source", "target")
                          else [_dumps(value)])
        fh.write("}")


def _float_array(value, name: str) -> np.ndarray:
    """`value` as `np.array(value, dtype=float)` makes it, except that a
    JSON true or false in a matrix is not a number: it raises a
    ValueError that names `name`."""
    array = np.array(value, dtype=float)
    if array.ndim == 2:
        # a bool converts to 0.0 or 1.0, so only a row holding one of
        # those can hold a bool: only those rows are looked at in Python
        zero_or_one = array == 0
        zero_or_one |= array == 1
        suspect = np.flatnonzero(zero_or_one.any(axis=1))
        if any(type(x) is bool for i in suspect for x in value[i]):
            raise ValueError(f"{name} must be numbers, not true or false")
    return array


def _parsed_side(obj: dict) -> dict:
    """A `json.loads` object hook: the `vectors` of an object as a float
    array, made when the object closes, so that one side's Python floats
    are freed before the next side is parsed.  Rows that are not numbers
    of one width stay as parsed."""
    if "vectors" in obj:
        try:
            obj["vectors"] = _float_array(obj["vectors"], "vectors")
        except (TypeError, ValueError, OverflowError):
            pass
    return obj


def _space_of(side: str, payload) -> AlignmentSpace:
    """One side of a saved state: unique string items, each with one
    finite vector row that is not all zeros, the rows of one width."""
    items, vectors = payload["items"], payload["vectors"]
    if not isinstance(items, list) or not items or not all(
            isinstance(it, str) for it in items):
        problem = "items must be a non-empty list of strings"
    elif len(set(items)) != len(items):
        twice = next(it for it, n in Counter(items).items() if n > 1)
        problem = f"item {twice!r} is listed twice"
    elif not isinstance(vectors, np.ndarray) or vectors.ndim != 2:
        problem = "vectors must be rows of numbers of one width"
    elif len(vectors) != len(items):
        problem = f"has {len(items)} items but {len(vectors)} vector rows"
    elif not np.isfinite(vectors).all():
        bad = int(np.flatnonzero(~np.isfinite(vectors).all(axis=1))[0])
        problem = f"vector of {items[bad]!r} has a non-finite value"
    elif not vectors.any(axis=1).all():
        bad = int(np.flatnonzero(~vectors.any(axis=1))[0])
        problem = f"vector of {items[bad]!r} has zero norm"
    else:
        return AlignmentSpace(tuple(items), vectors)
    raise ValueError(f"{side} {problem}")


def _is_count(value) -> bool:
    return type(value) is int and value >= 0     # JSON true is no number


def _is_pair(value) -> bool:
    return (type(value) is list and len(value) == 2
            and all(type(item) is str for item in value))


def _list_of(test):
    return lambda value: type(value) is list and all(map(test, value))


# each field of a state that is not an array: a test of its value, and
# what the test asks for
_STATE_FIELDS = {
    "ent_pairs": (_list_of(_is_pair), "a list of pairs of strings"),
    "lex_pairs": (_list_of(_is_pair), "a list of pairs of strings"),
    "iteration": (_is_count, "a non-negative integer"),
    "lexeme_top_f": (_is_count, "a non-negative integer"),
    "proposal_counts": (_list_of(_is_count),
                        "a list of non-negative integers"),
}


def load_state(path) -> AlignmentState:
    """The state saved by `save_state`; a malformed file raises a
    ValueError that names it.  Its entity pairs are checked as seed pairs
    are, and each item of a lexeme pair must be a lexeme of its side."""
    with open_text(path) as fh:
        text = fh.read()             # the file's bytes go when it closes
    try:
        data = json.loads(text, object_hook=_parsed_side)
    except ValueError as exc:
        raise ValueError(f"{path}: not a JSON state file: {exc}") from None
    del text
    try:
        for key, (ok, what) in _STATE_FIELDS.items():
            if not ok(data[key]):
                raise ValueError(f"{key} must be {what}, "
                                 f"not {_dumps(data[key]):.40}")
        state = AlignmentState(
            source=_space_of("source", data["source"]),
            target=_space_of("target", data["target"]),
            ent_pairs=[tuple(p) for p in data["ent_pairs"]],
            lex_pairs=[tuple(p) for p in data["lex_pairs"]],
            transform=_float_array(data.get("transform"), "transform"),
            iteration=data["iteration"],
            proposal_counts=data["proposal_counts"],
            lexeme_top_f=data["lexeme_top_f"],
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed state file: {exc!r}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: malformed state file: {exc}") from None
    dim, tgt_dim = state.source.vectors.shape[1], state.target.vectors.shape[1]
    if dim != tgt_dim:
        raise ValueError(f"{path}: malformed state file: source vectors have "
                         f"{dim} values, target vectors {tgt_dim}")
    if state.transform.shape != (dim, dim):
        raise ValueError(f"{path}: transform must be a {dim}x{dim} matrix, "
                         f"not {json.dumps(data.get('transform')):.40}")
    if not np.isfinite(state.transform).all():
        raise ValueError(f"{path}: malformed state file: transform has a "
                         "non-finite value")
    sides = (state.source, state.target)
    check_pairs("entity", state.ent_pairs, [s.index for s in sides], path)
    for pair in state.lex_pairs:
        for side, space, item in zip(("source", "target"), sides, pair):
            if item not in space.index or item.startswith(ENTITY_PREFIX):
                raise ValueError(f"{path}: lexeme pair {pair[0]}\t{pair[1]}: "
                                 f"{side} item {item!r} is not a lexeme of "
                                 "the state")
    return state


def load_seed_pairs(path) -> list[tuple[str, str]]:
    return [(s, t) for _, (s, t) in read_fields(path, "source<TAB>target")]


def check_pairs(kind: str, pairs, known, path) -> None:
    """Seed, test or state entity pairs, at least one, name entities of
    `known`, the (source, target) collections of entity items
    (`@ent:<id>`), each at most once a side."""
    if not pairs:
        raise ValueError(f"{path}: no {kind} pairs")
    used = (set(), set())
    for pair in pairs:
        for side, items, entity, seen in zip(("source", "target"), known,
                                             pair, used):
            if ENTITY_PREFIX + entity not in items:
                problem = "is unknown"
            elif entity in seen:
                problem = "is used twice"
            else:
                seen.add(entity)
                continue
            raise ValueError(f"{path}: {kind} pair {pair[0]}\t{pair[1]}: "
                             f"{side} entity {entity!r} {problem}")


def load_lexicon(path) -> list[tuple[str, str]]:
    """The word pairs of a seed lexicon.  A raw corpus holds no entity
    marker, so an item that is one is never a word: it raises a
    ValueError with the file and line."""
    pairs = []
    for lineno, pair in read_fields(path, "source<TAB>target"):
        for item in pair:
            if item.startswith(ENTITY_PREFIX):
                raise ValueError(f"{path}: line {lineno}: lexicon item "
                                 f"{item!r} is an entity marker, not a word")
        pairs.append((pair[0], pair[1]))
    return pairs
