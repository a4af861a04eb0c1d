"""Surface-form grounding: fuse a KG with a tokenized monolingual corpus.

Entity surface forms are inserted into a token-level prefix trie; the corpus
is scanned left-to-right and at each position the longest matching surface
form is collapsed into a single entity token.  No disambiguation is
attempted; ambiguous forms keep their first-inserted entity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .config import open_text, read_fields
from .kg import KnowledgeGraph

ENTITY_PREFIX = "@ent:"


@dataclass(frozen=True)
class Token:
    """A grounded corpus token: an entity reference or a plain lexeme.

    Entity tokens keep the surface tokens they replaced so the original
    text can be reconstructed exactly.
    """

    entity: str | None
    text: str
    surface: tuple[str, ...] = ()

    @property
    def is_entity(self) -> bool:
        return self.entity is not None


def lexeme(text: str) -> Token:
    return Token(entity=None, text=text)


def entity_token(entity_id: str, surface: tuple[str, ...] = ()) -> Token:
    return Token(entity=entity_id, text=ENTITY_PREFIX + entity_id,
                 surface=surface)


class TokenTable:
    """One shared `Token` per distinct token of a corpus.

    A corpus repeats a small vocabulary many times over, so its documents
    hold references to shared tokens rather than one object an occurrence.
    Lexemes are keyed by their text, mentions by (entity id, surface).
    Tokens are frozen, so sharing them is safe.
    """

    def __init__(self):
        self._tokens: dict = {}

    def lexeme(self, text: str) -> Token:
        tok = self._tokens.get(text)
        if tok is None:
            tok = self._tokens[text] = lexeme(text)
        return tok

    def mention(self, entity_id: str, surface: tuple[str, ...]) -> Token:
        key = (entity_id, surface)
        tok = self._tokens.get(key)
        if tok is None:
            tok = self._tokens[key] = entity_token(entity_id, surface)
        return tok


class SurfaceFormIndex:
    """Prefix trie over normalized surface-form tokens.

    A full surface form maps to exactly one entity id; on collision the
    first inserted entity wins.
    """

    _ENTRY = object()  # sentinel key holding the entity id at a terminal node

    def __init__(self, case_fold: bool = True):
        self.case_fold = case_fold
        self.root: dict = {}

    def normalize(self, token: str) -> str:
        return token.lower() if self.case_fold else token

    def insert(self, surface_tokens: list[str], entity_id: str) -> None:
        node = self.root
        for tok in surface_tokens:
            node = node.setdefault(self.normalize(tok), {})
        node.setdefault(self._ENTRY, entity_id)

    def longest_match(self, tokens, start: int) -> tuple[str, int] | None:
        """Longest surface form matching tokens[start:]; (entity, length)."""
        node = self.root
        best = None
        i = start
        while i < len(tokens):
            child = node.get(self.normalize(tokens[i]))
            if child is None:
                break
            i += 1
            if self._ENTRY in child:
                best = (child[self._ENTRY], i - start)
            node = child
        return best


@dataclass
class GroundedCorpus:
    """The grounded documents of one corpus, one per line.  Training, not
    grounding, decides which lexemes are kept (`embedding.vocabulary`)."""

    documents: list[list[Token]]


@dataclass(frozen=True)
class GroundingStats:
    coverage: float
    avg_match: float


def build_index(forms_path, kg: KnowledgeGraph,
                case_fold: bool = True) -> SurfaceFormIndex:
    """Load `entity-id<TAB>surface form` lines into a trie.

    Unknown entity ids are skipped; a blank surface form raises.
    """
    index = SurfaceFormIndex(case_fold=case_fold)
    for lineno, (ent, form) in read_fields(forms_path,
                                           "entity-id<TAB>surface form"):
        tokens = form.split()
        if not tokens:
            raise ValueError(
                f"{forms_path}: line {lineno}: empty surface form")
        if ent in kg.ent_index:
            index.insert(tokens, ent)
    return index


def ground_tokens(tokens: list[str], index: SurfaceFormIndex,
                  table: TokenTable) -> list[Token]:
    """Greedy left-to-right longest-match grounding of one document; its
    tokens come from `table`."""
    out: list[Token] = []
    i = 0
    n = len(tokens)
    while i < n:
        match = index.longest_match(tokens, i)
        if match is None:
            out.append(table.lexeme(tokens[i]))
            i += 1
        else:
            ent, length = match
            out.append(table.mention(ent, tuple(tokens[i:i + length])))
            i += length
    return out


def grounding_stats(corpus: GroundedCorpus,
                    kg: KnowledgeGraph) -> GroundingStats:
    mentions: Counter[str] = Counter()
    for doc in corpus.documents:
        for tok in doc:
            if tok.is_entity:
                mentions[tok.entity] += 1
    covered = [e for e in kg.entities if mentions[e] > 0]
    coverage = len(covered) / kg.n_entities if kg.n_entities else 0.0
    avg = (sum(mentions[e] for e in covered) / len(covered)
           if covered else 0.0)
    return GroundingStats(coverage=coverage, avg_match=avg)


def ground_corpus(corpus_path, index: SurfaceFormIndex,
                  kg: KnowledgeGraph) -> tuple[GroundedCorpus, GroundingStats]:
    """Ground a pre-tokenized corpus file (one document per line).  Its
    documents share one token object per distinct token."""
    table = TokenTable()
    docs: list[list[Token]] = []
    with open_text(corpus_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            # a raw marker would read back as an entity mention
            if ENTITY_PREFIX in line:
                for tok in tokens:
                    if tok.startswith(ENTITY_PREFIX):
                        raise ValueError(
                            f"{corpus_path}: line {lineno}: raw token "
                            f"{tok!r} starts with the entity marker "
                            f"{ENTITY_PREFIX!r}")
            docs.append(ground_tokens(tokens, index, table))
    corpus = GroundedCorpus(docs)
    return corpus, grounding_stats(corpus, kg)


def load_pregrounded(corpus_path, kg: KnowledgeGraph) -> GroundedCorpus:
    """Read an externally grounded corpus (`@ent:<id>` entity markers).

    A marker with no id or with an id not in the KG raises a ValueError
    with the file and line, so no lexeme starts with the marker.  The
    documents share one token object per distinct token.
    """
    table = TokenTable()
    docs: list[list[Token]] = []
    with open_text(corpus_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            doc: list[Token] = []
            for raw in line.split():
                if not raw.startswith(ENTITY_PREFIX):
                    doc.append(table.lexeme(raw))
                    continue
                ent = raw[len(ENTITY_PREFIX):]
                if ent not in kg.ent_index:
                    problem = ("has no entity id" if not ent else
                               "names an entity the KG does not have")
                    raise ValueError(f"{corpus_path}: line {lineno}: "
                                     f"malformed entity marker {raw!r}: "
                                     f"it {problem}")
                doc.append(table.mention(ent, (raw,)))
            docs.append(doc)
    return GroundedCorpus(docs)


def write_grounded(corpus: GroundedCorpus, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus.documents:
            fh.write(" ".join(tok.text for tok in doc))
            fh.write("\n")
