"""Exhaustive dense retrieval, BM25 lexical retrieval, and ranking metrics.

Both retrieval paths score a block of queries at once (`block_picks`): the
index's ``negated_scores`` fill a (queries x docs) matrix of at most `_BLOCK`
rows, and one row-wise selector, `_top_k`, picks every row's top k. Ranking
is by descending score with ties broken by lexicographic doc id: a partition
at each row's k-th best score keeps every doc scoring at least that score, so
ties at the boundary all survive; the survivors are ordered by score, then by
doc id as a Python string (each index sorts its ids once), and the first k
are kept. ``-0.0`` and ``0.0`` tie. The selector works on negated scores, and
a doc whose negated score is ``+inf`` is never selected.

Dense search is exact top-k over all corpus rows. A block's scores are one
GEMV per query, not one GEMM for the block: a GEMM sums the dot products in
another order and changes the last bits. BM25 ranks only the docs some query
token hits; the others get ``+inf``. A block's BM25 scores add each query's
distinct-token terms in first-occurrence order, each term rounded as
``qtf * idf * tf * (k1 + 1) / (tf + norm)`` from the left. `search_dense` and
`search_bm25` are the one-query cases of these block paths, so each query's
scores and ranking are the same in a block as alone, bit for bit. The block
size bounds the memory of a pass over many queries to a few block-sized
arrays.

Every dense ranking of a task starts from its `trainer.FeatureStore`, the
task's texts featurized once: `dense_picks` embeds the store's document rows
into a `DenseIndex` and ranks its query rows against it. Self-negative mining
(`trainer.mine_negatives`) and evaluation (`rank_all`, `evaluate`) both take
that path, and `evaluate` judges the rankings by the qrels the store was
built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import blobfile
from .corpus import Corpus, QrelSet
from .encoder import Params, encode_many
from .errors import CorpusFormatError, InvariantError

if TYPE_CHECKING:
    from .trainer import FeatureStore

# BM25's term-frequency saturation and length normalization.
BM25_K1 = 0.9
BM25_B = 0.4
# Queries scored per block.
_BLOCK = 64


@dataclass(frozen=True)
class RankedList:
    query_id: str
    results: tuple[tuple[str, float], ...]  # (doc id, score), scores non-increasing


class Picks(NamedTuple):
    """The top k of a block of queries: query ``start + i`` picks the docs at
    rows ``cols[bounds[i]:bounds[i + 1]]``, best first, scoring ``scores``."""

    start: int
    bounds: np.ndarray
    cols: np.ndarray
    scores: np.ndarray

    def rows(self) -> np.ndarray:
        """The block row (query) of each pick."""
        return np.repeat(np.arange(self.bounds.size - 1), np.diff(self.bounds))


def _id_order(ids: Sequence[str]) -> np.ndarray:
    """The rows in the order of their ids sorted as Python strings."""
    return np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)


def _top_k(neg: np.ndarray, order: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k best docs of a block of negated scores, skipping ``+inf``.

    ``order`` lists the docs by id. Returns (rows, cols), sorted by row, then
    negated score ascending, then id, with at most k picks per row.
    """
    n_rows, n = neg.shape
    neg = neg[:, order]  # docs in id order, so that a stable sort breaks ties by id
    keep = neg < np.inf
    if k < n:
        keep &= neg <= np.partition(neg, k - 1, axis=1)[:, k - 1 : k]
    flat = np.flatnonzero(keep)
    rows = flat // n
    counts = np.bincount(rows, minlength=n_rows)
    starts = np.cumsum(counts) - counts
    # Each row's candidates, left-aligned in id order and padded with +inf.
    padded = np.full((n_rows, counts.max(initial=0)), np.inf)
    padded[rows, np.arange(flat.size) - starts[rows]] = neg.ravel()[flat]
    best = np.argsort(padded, axis=1, kind="stable")[:, :k]
    picked = np.take_along_axis(padded, best, axis=1) < np.inf
    rows = np.nonzero(picked)[0]
    return rows, order[flat[starts[rows] + best[picked]] % n]


def block_picks(index: DenseIndex | Bm25Index, queries: Sequence, k: int) -> Iterator[Picks]:
    """The `Picks` of each block of `_BLOCK` queries, scored by ``index.negated_scores``:
    query embeddings for a `DenseIndex`, token lists for a `Bm25Index`."""
    if k < 1:
        raise ValueError("k must be >= 1")
    for start in range(0, len(queries), _BLOCK):
        neg = index.negated_scores(queries[start : start + _BLOCK])
        rows, cols = _top_k(neg, index.order, k)
        bounds = np.searchsorted(rows, np.arange(neg.shape[0] + 1))
        yield Picks(start, bounds, cols, -neg[rows, cols])


def ranked_lists(
    query_ids: Sequence[str], doc_ids: Sequence[str], picks: Picks
) -> Iterator[RankedList]:
    """One `RankedList` per query of a block, made as it is consumed."""
    bounds = picks.bounds.tolist()
    for i, qid in enumerate(query_ids[picks.start : picks.start + len(bounds) - 1]):
        top = picks.cols[bounds[i] : bounds[i + 1]].tolist()
        scores = picks.scores[bounds[i] : bounds[i + 1]].tolist()
        yield RankedList(qid, tuple(zip([doc_ids[c] for c in top], scores)))


class DenseIndex:
    """Immutable exhaustive index over corpus embeddings: row i of ``matrix``
    embeds the document ``ids[i]``. A matrix without one row per id, or an
    empty index, is a ValueError; a non-finite embedding an InvariantError."""

    def __init__(self, ids: Sequence[str], matrix: np.ndarray):
        if matrix.ndim != 2 or matrix.shape[0] != len(ids):
            raise ValueError("embedding matrix must have one row per id")
        if not np.all(np.isfinite(matrix)):
            raise InvariantError("embeddings must be finite")
        if not len(ids):
            raise ValueError("cannot build a dense index from zero embeddings")
        self.ids = tuple(ids)
        self.matrix = matrix
        self.order = _id_order(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def negated_scores(self, query_embs: np.ndarray) -> np.ndarray:
        """Negated dot products of a block of query embeddings, one GEMV per query."""
        neg = np.empty((len(query_embs), len(self)))
        for i, query_emb in enumerate(query_embs):
            neg[i] = self.matrix @ query_emb
        if not np.all(np.isfinite(neg)):
            raise InvariantError("non-finite dense retrieval score")
        return np.negative(neg, out=neg)


def search_dense(index: DenseIndex, query_emb: np.ndarray, k: int, query_id: str = "") -> RankedList:
    """Exact top-k by dot product via a full scan."""
    query_embs = np.asarray(query_emb, dtype=np.float64)[None, :]
    picks = next(block_picks(index, query_embs, k))
    return next(ranked_lists((query_id,), index.ids, picks))


class Bm25Index:
    """Flat array postings plus per-document length norms.

    Token ``t`` (its id is ``vocab[token]``) occurs in the documents at rows
    ``rows[offsets[t]:offsets[t + 1]]``, ascending, with term frequencies
    ``tf`` (float64) at the same positions; ``df[t]`` counts those rows and
    ``idf[t] = ln(1 + (N - df + 0.5) / (df + 0.5))``. ``norm`` holds each
    document's ``k1 * (1 - b + b * len / avgdl)``.
    """

    def __init__(self, corpus: Corpus):
        self.ids = tuple(doc.id for doc in corpus)
        self.n_docs = len(self.ids)
        self.vocab: dict[str, int] = {}
        n = self.n_docs
        ids = [self.vocab.setdefault(t, len(self.vocab)) for doc in corpus for t in doc.tokens]
        lengths = [len(doc.tokens) for doc in corpus]
        self.doc_len = np.array(lengths, dtype=np.float64)
        docs = np.repeat(np.arange(n, dtype=np.int64), lengths)
        keys, tf = np.unique(np.array(ids, dtype=np.int64) * n + docs, return_counts=True)
        token, rows = np.divmod(keys, n)
        self.rows = rows.astype(np.intp)
        self.tf = tf.astype(np.float64)
        self.offsets = np.searchsorted(token, np.arange(len(self.vocab) + 1))
        self.df = np.diff(self.offsets)
        # math.log, not np.log: the two may differ in the last bit.
        self.idf = np.array([math.log(1.0 + (n - df + 0.5) / (df + 0.5))
                             for df in self.df.tolist()])
        self.avgdl = float(self.doc_len.mean()) if self.n_docs else 0.0
        # With every document empty no posting exists, and no norm is read.
        self.norm = (
            BM25_K1 * (1.0 - BM25_B + BM25_B * self.doc_len / self.avgdl)
            if self.avgdl else np.zeros(self.n_docs)
        )
        self.order = _id_order(self.ids)

    def negated_scores(self, token_lists: Sequence[Sequence[str]]) -> np.ndarray:
        """Negated BM25 scores of a block of queries; ``+inf`` where no query token hits."""
        n_tokens = len(self.vocab)
        ids = np.array([self.vocab.get(t, -1) for tokens in token_lists for t in tokens],
                       dtype=np.int64)
        owner = np.repeat(np.arange(len(token_lists)), [len(tokens) for tokens in token_lists])
        known = ids >= 0
        # Each query's distinct tokens in first-occurrence order, as `Counter` keeps them.
        keys, first, qtf = np.unique(owner[known] * n_tokens + ids[known],
                                     return_index=True, return_counts=True)
        by_first = np.argsort(first)
        query, token = np.divmod(keys[by_first], n_tokens)
        qtf = qtf[by_first]
        df = self.df[token]
        term = np.repeat(np.arange(token.size), df)
        at = np.arange(term.size) + np.repeat(self.offsets[token] - (np.cumsum(df) - df), df)
        rows, tf = self.rows[at], self.tf[at]
        weight = qtf * self.idf[token]
        scores = weight[term] * tf * (BM25_K1 + 1.0) / (tf + self.norm[rows])
        at = (query[term], rows)
        neg = np.zeros((len(token_lists), self.n_docs))
        np.add.at(neg, at, scores)  # unbuffered, in order: each query's tokens in turn
        hit = np.zeros(neg.shape, dtype=bool)
        hit[at] = True
        np.negative(neg, out=neg)
        neg[~hit] = np.inf
        return neg


def search_bm25(index: Bm25Index, query_tokens: Sequence[str], k: int) -> RankedList:
    """Standard BM25 over matching documents; repeated query terms add proportionally.

    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)). Only documents containing at
    least one query token are scored; an empty query yields an empty list.
    """
    picks = next(block_picks(index, [query_tokens], k))
    return next(ranked_lists(("",), index.ids, picks))


def ndcg_at_k(ranked: RankedList, qrels: QrelSet, k: int = 10) -> float | None:
    """Gain 2**grade - 1, discount 1/log2(rank + 1), normalized by the ideal DCG.

    Returns None when the query has no judged documents (metric undefined);
    0.0 when judged documents exist but none has a positive grade.
    """
    judged = qrels.judged(ranked.query_id)
    if not judged:
        return None
    dcg = 0.0
    for rank, (doc_id, _) in enumerate(ranked.results[:k], start=1):
        grade = judged.get(doc_id, 0)
        if grade > 0:
            dcg += (2.0**grade - 1.0) / math.log2(rank + 1.0)
    ideal = sorted(judged.values(), reverse=True)[:k]
    idcg = sum(
        (2.0**g - 1.0) / math.log2(r + 1.0) for r, g in enumerate(ideal, start=1) if g > 0
    )
    if idcg == 0.0:
        return 0.0
    return dcg / idcg


def recall_at_k(ranked: RankedList, qrels: QrelSet, k: int) -> float | None:
    """Fraction of positively judged documents retrieved in the top k."""
    relevant = set(qrels.positives(ranked.query_id))
    if not relevant:
        return None
    hits = sum(1 for doc_id, _ in ranked.results[:k] if doc_id in relevant)
    return hits / len(relevant)


@dataclass(frozen=True)
class MetricsRecord:
    ndcg_at_10: float
    recall_at_10: float
    recall_at_100: float
    n_evaluated: int
    n_skipped: int

    def to_dict(self) -> dict:
        return {
            "ndcg@10": self.ndcg_at_10,
            "recall@10": self.recall_at_10,
            "recall@100": self.recall_at_100,
            "n_evaluated": self.n_evaluated,
            "n_skipped": self.n_skipped,
        }


def dense_picks(params: Params, store: FeatureStore, k: int) -> Iterator[Picks]:
    """The dense top k of every query of a `trainer.FeatureStore`, one `Picks`
    per block: its document rows embedded into a `DenseIndex`, then its query
    rows embedded and ranked against it."""
    index = DenseIndex(store.corpus.ids, encode_many(params, store.doc_rows()))
    return block_picks(index, encode_many(params, store.query_rows()), k)


def rank_all(params: Params, store: FeatureStore, k: int) -> Iterator[RankedList]:
    """Dense-rank every query of a `trainer.FeatureStore` against its corpus,
    yielding one ranking at a time.

    Scores are computed one block of queries at a time, as the rankings are consumed.
    """
    query_ids = [query.id for query in store.queries]
    return (
        ranked
        for picks in dense_picks(params, store, k)
        for ranked in ranked_lists(query_ids, store.corpus.ids, picks)
    )


def evaluate(params: Params, store: FeatureStore) -> tuple[MetricsRecord, list[RankedList]]:
    """Mean nDCG@10 and recall@{10,100} of a `trainer.FeatureStore`'s queries
    with >= 1 positive judgment, ranked by `rank_all` and judged by the store's
    own qrels.

    Queries without positive judgments are skipped and counted. Also returns
    the per-query rankings (depth 100) for run-file output.
    """
    qrels = store.qrels
    ndcgs: list[float] = []
    r10s: list[float] = []
    r100s: list[float] = []
    skipped = 0
    kept: list[RankedList] = []
    for ranked in rank_all(params, store, k=100):
        if not qrels.positives(ranked.query_id):
            skipped += 1
            continue
        kept.append(ranked)
        ndcgs.append(ndcg_at_k(ranked, qrels, k=10))
        r10s.append(recall_at_k(ranked, qrels, k=10))
        r100s.append(recall_at_k(ranked, qrels, k=100))
    if not ndcgs:
        raise ValueError("no queries with positive judgments to evaluate")
    record = MetricsRecord(
        ndcg_at_10=float(np.mean(ndcgs)),
        recall_at_10=float(np.mean(r10s)),
        recall_at_100=float(np.mean(r100s)),
        n_evaluated=len(ndcgs),
        n_skipped=skipped,
    )
    return record, kept


def _run_field(item_id: str) -> str:
    if item_id.split() != [item_id]:
        raise CorpusFormatError(f"id {item_id!r} holds whitespace; a TREC run line "
                                "needs it as one field")
    return item_id


def write_trec_run(rankings: Iterable[RankedList], path: str | Path, tag: str = "robustdr") -> None:
    """TREC run-file lines: `qid Q0 docid rank score tag`. An id that holds
    whitespace is a CorpusFormatError naming it, and nothing is written."""
    checked: set[str] = set()
    with blobfile.atomic_open(path, "w") as fh:
        for ranked in rankings:
            query_id = _run_field(ranked.query_id)
            for rank, (doc_id, score) in enumerate(ranked.results, start=1):
                if doc_id not in checked:
                    checked.add(_run_field(doc_id))
                fh.write(f"{query_id} Q0 {doc_id} {rank} {score!r} {tag}\n")
