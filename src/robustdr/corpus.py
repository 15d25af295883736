"""Documents, queries and relevance judgments in BEIR-compatible file layouts.

Corpus and query files are JSONL (one object per line, ``_id``/``text`` plus an
optional ``title`` on documents); relevance judgments are tab-separated
``query-id<TAB>corpus-id<TAB>score`` with an optional header line. Handles are
immutable after load and preserve file order as their iteration order.
Judgments are held by query, ``{query_id: {doc_id: grade}}``: queries in the
order of their first line, each query's documents in the order of theirs; a
later line for the same pair replaces the grade and keeps the first place.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .blobfile import atomic_open
from .errors import CorpusFormatError

_TOKEN_RE = re.compile(r"[0-9a-z]+")
_SCORE_RE = re.compile(r"-?[0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop empty tokens.

    Pure and idempotent: re-tokenizing the space-joined token stream yields
    the same stream.
    """
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True, slots=True)
class Document:
    id: str
    text: str
    title: str | None = None
    tokens: tuple[str, ...] = ()

    @classmethod
    def from_fields(cls, doc_id: str, text: str, title: str | None = None) -> "Document":
        """Build a document, deriving tokens from title (when present) + text."""
        joined = f"{title} {text}" if title else text
        return cls(id=doc_id, text=text, title=title, tokens=tuple(tokenize(joined)))


@dataclass(frozen=True, slots=True)
class Query:
    id: str
    text: str
    tokens: tuple[str, ...] = ()

    @classmethod
    def from_fields(cls, query_id: str, text: str) -> "Query":
        return cls(id=query_id, text=text, tokens=tuple(tokenize(text)))


class _IdCollection:
    """Ordered collection of items with nonempty unique string ids."""

    _kind = "item"

    def __init__(self, items: Iterable) -> None:
        self._items = list(items)
        self._by_id = {}
        for item in self._items:
            if not item.id:
                raise CorpusFormatError(f"empty {self._kind} id")
            if item.id in self._by_id:
                raise CorpusFormatError(f"duplicate {self._kind} id {item.id!r}")
            self._by_id[item.id] = item

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator:
        return iter(self._items)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._by_id

    def __getitem__(self, item_id: str):
        return self._by_id[item_id]

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(item.id for item in self._items)


class Corpus(_IdCollection):
    _kind = "document"


class QuerySet(_IdCollection):
    _kind = "query"


def _iter_jsonl(path: str | Path):
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{path}: line {lineno}: malformed JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise CorpusFormatError(f"{path}: line {lineno}: expected a JSON object")
            yield lineno, obj


def _require(obj: dict, key: str, path: Path, lineno: int) -> str:
    if key not in obj:
        raise CorpusFormatError(f"{path}: line {lineno}: missing field {key!r}")
    value = obj[key]
    if not isinstance(value, str):
        raise CorpusFormatError(f"{path}: line {lineno}: field {key!r} must be a string")
    return value


def load_corpus(path: str | Path) -> Corpus:
    """Load a JSONL corpus; line order becomes iteration order."""
    path = Path(path)
    docs = []
    for lineno, obj in _iter_jsonl(path):
        doc_id = _require(obj, "_id", path, lineno)
        text = _require(obj, "text", path, lineno)
        title = obj.get("title")
        if title is not None and not isinstance(title, str):
            raise CorpusFormatError(f"{path}: line {lineno}: field 'title' must be a string")
        docs.append(Document.from_fields(doc_id, text, title or None))
    return Corpus(docs)


def load_queries(path: str | Path) -> QuerySet:
    path = Path(path)
    queries = []
    for lineno, obj in _iter_jsonl(path):
        query_id = _require(obj, "_id", path, lineno)
        text = _require(obj, "text", path, lineno)
        queries.append(Query.from_fields(query_id, text))
    return QuerySet(queries)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus back to JSONL; round-trips ids and token streams."""
    with atomic_open(path, "w") as fh:
        for doc in corpus:
            obj = {"_id": doc.id, "text": doc.text}
            if doc.title is not None:
                obj["title"] = doc.title
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def save_queries(queries: QuerySet, path: str | Path) -> None:
    with atomic_open(path, "w") as fh:
        for query in queries:
            fh.write(json.dumps({"_id": query.id, "text": query.text}, sort_keys=True) + "\n")


class QrelSet:
    """Graded relevance judgments: each query id's judged document ids, each
    with its grade, in the order they were given.

    Built from ``{query_id: {doc_id: grade}}``, the form it stores, so a pair
    is judged once (`load_qrels` keeps a repeated line's first place and its
    last grade). Each inner dict is copied; a query with no judged document is
    left out, and a negative grade is a CorpusFormatError.
    """

    def __init__(self, judgments: dict[str, dict[str, int]]):
        self._by_query: dict[str, dict[str, int]] = {}
        for qid, docs in judgments.items():
            if not docs:
                continue
            if min(docs.values()) < 0:
                did = next(did for did, grade in docs.items() if grade < 0)
                raise CorpusFormatError(f"negative relevance grade for ({qid!r}, {did!r})")
            self._by_query[qid] = dict(docs)
        self._positives: dict[str, tuple[str, ...]] = {}

    def __len__(self) -> int:
        return sum(len(docs) for docs in self._by_query.values())

    @property
    def query_ids(self) -> tuple[str, ...]:
        return tuple(self._by_query)

    def judged(self, query_id: str) -> dict[str, int]:
        """Judged documents for a query, in file order."""
        return dict(self._by_query.get(query_id, {}))

    def positives(self, query_id: str) -> tuple[str, ...]:
        """Doc ids with grade > 0 for a query, in file order; computed on the first
        call for the query, then kept."""
        found = self._positives.get(query_id)
        if found is None:
            found = tuple(did for did, g in self._by_query.get(query_id, {}).items() if g > 0)
            if query_id in self._by_query:
                self._positives[query_id] = found
        return found

    def validate_against(self, queries: QuerySet, corpus: Corpus) -> None:
        """Flag judgments that reference unknown query or document ids."""
        for qid, docs in self._by_query.items():
            if qid not in queries:
                raise CorpusFormatError(f"qrels reference unknown query id {qid!r}")
            for did in docs:
                if did not in corpus:
                    raise CorpusFormatError(f"qrels reference unknown document id {did!r}")


def load_qrels(path: str | Path) -> QrelSet:
    """Load TSV qrels. A first line whose third column is literally 'score' is a header.

    A later line for a judged (query, document) pair sets its grade at the
    first line's place.

    Every other score is ASCII decimal digits with an optional minus sign (then
    rejected as negative); whitespace around it, such as a CRLF line's CR, is
    ignored, as ``int`` ignores it.
    """
    path = Path(path)
    judgments: dict[str, dict[str, int]] = {}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) < 3:
                raise CorpusFormatError(f"{path}: line {lineno}: expected 3 tab-separated fields")
            qid, did, score = parts[0], parts[1], parts[2]
            if lineno == 1 and score.strip().lower() == "score":
                continue
            if not _SCORE_RE.fullmatch(score.strip()):
                raise CorpusFormatError(
                    f"{path}: line {lineno}: relevance score {score!r} is not an integer"
                )
            grade = int(score)
            if grade < 0:
                raise CorpusFormatError(f"{path}: line {lineno}: negative relevance score")
            judgments.setdefault(qid, {})[did] = grade
    return QrelSet(judgments)


def _sample_disjoint_starts(
    n_tokens: int, span_len: int, rng: np.random.Generator
) -> tuple[int, int] | None:
    """Uniformly sample start indices of two non-overlapping length-`span_len` windows.

    Uniform over all ordered placements; adjacency is allowed. Returns None
    when the token stream is too short to host two disjoint windows.
    """
    if span_len < 1:
        raise ValueError("span_len must be >= 1")
    if n_tokens < 2 * span_len:
        return None
    m = n_tokens - 2 * span_len
    # A 2-subset {y_lo < y_hi} of {0..m+1} maps bijectively onto an unordered
    # pair of disjoint window starts (y_lo, y_hi - 1 + span_len).
    y1 = int(rng.integers(0, m + 2))
    y2 = int(rng.integers(0, m + 1))
    if y2 >= y1:
        y2 += 1
    lo, hi = (y1, y2) if y1 < y2 else (y2, y1)
    first, second = lo, hi - 1 + span_len
    if rng.integers(0, 2):
        first, second = second, first
    return first, second


def sample_span_pair(
    doc: Document, span_len: int, rng: np.random.Generator
) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """Extract two disjoint contiguous token windows from a document.

    Sampling is uniform over all valid disjoint placements. Returns None as a
    skip signal when the document has fewer than ``2 * span_len`` tokens.
    """
    starts = _sample_disjoint_starts(len(doc.tokens), span_len, rng)
    if starts is None:
        return None
    a, b = starts
    return doc.tokens[a : a + span_len], doc.tokens[b : b + span_len]
