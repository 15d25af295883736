"""Exhaustive dense retrieval, BM25 lexical retrieval, and ranking metrics.

Both retrieval paths rank by descending score with ties broken by
lexicographic doc id. Dense search is exact top-k over all corpus rows.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import blobfile
from .corpus import Corpus, QrelSet, QuerySet
from .encoder import EmbeddingMatrix, Featurizer, Params, embed_items
from .errors import InvariantError


@dataclass(frozen=True)
class RankedList:
    query_id: str
    results: tuple[tuple[str, float], ...]  # (doc id, score), scores non-increasing

    def doc_ids(self) -> tuple[str, ...]:
        return tuple(doc_id for doc_id, _ in self.results)


class DenseIndex:
    """Immutable exhaustive index over corpus embeddings."""

    def __init__(self, embeddings: EmbeddingMatrix):
        if len(embeddings) == 0:
            raise ValueError("cannot build a dense index from zero embeddings")
        self.embeddings = embeddings

    def __len__(self) -> int:
        return len(self.embeddings)


def search_dense(index: DenseIndex, query_emb: np.ndarray, k: int, query_id: str = "") -> RankedList:
    """Exact top-k by dot product via a full scan."""
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = index.embeddings.matrix @ np.asarray(query_emb, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise InvariantError("non-finite dense retrieval score")
    ids = index.embeddings.ids
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))[:k]
    return RankedList(query_id, tuple((ids[i], float(scores[i])) for i in order))


class Bm25Index:
    """Inverted lists token -> (row, term frequency), plus length statistics."""

    def __init__(self, corpus: Corpus):
        self.ids = tuple(doc.id for doc in corpus)
        self.postings: dict[str, list[tuple[int, int]]] = {}
        self.doc_len = np.zeros(len(self.ids), dtype=np.float64)
        for row, doc in enumerate(corpus):
            self.doc_len[row] = len(doc.tokens)
            for token, tf in Counter(doc.tokens).items():
                self.postings.setdefault(token, []).append((row, tf))
        self.n_docs = len(self.ids)
        self.avgdl = float(self.doc_len.mean()) if self.n_docs else 0.0

    def idf(self, token: str) -> float:
        df = len(self.postings.get(token, ()))
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))


def search_bm25(
    index: Bm25Index,
    query_tokens: Sequence[str],
    k: int,
    k1: float = 0.9,
    b: float = 0.4,
) -> RankedList:
    """Standard BM25 over matching documents; repeated query terms add proportionally.

    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)). Only documents containing at
    least one query token are scored; an empty query yields an empty list.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not query_tokens:
        return RankedList("", ())
    scores: dict[int, float] = {}
    for token, qtf in Counter(query_tokens).items():
        postings = index.postings.get(token)
        if not postings:
            continue
        idf = index.idf(token)
        for row, tf in postings:
            norm = k1 * (1.0 - b + b * index.doc_len[row] / index.avgdl)
            scores[row] = scores.get(row, 0.0) + qtf * idf * tf * (k1 + 1.0) / (tf + norm)
    order = sorted(scores, key=lambda row: (-scores[row], index.ids[row]))[:k]
    return RankedList("", tuple((index.ids[row], scores[row]) for row in order))


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

    TSV_HEADER = "ndcg@10\trecall@10\trecall@100\tn_evaluated\tn_skipped"

    def tsv_row(self) -> str:
        return (
            f"{self.ndcg_at_10!r}\t{self.recall_at_10!r}\t{self.recall_at_100!r}"
            f"\t{self.n_evaluated}\t{self.n_skipped}"
        )

    def to_dict(self) -> dict:
        return {
            "ndcg@10": self.ndcg_at_10,
            "recall@10": self.recall_at_10,
            "recall@100": self.recall_at_100,
            "n_evaluated": self.n_evaluated,
            "n_skipped": self.n_skipped,
        }


def rank_all(
    params: Params,
    featurizer: Featurizer,
    corpus: Corpus,
    queries: QuerySet,
    k: int,
) -> Iterator[RankedList]:
    """Dense-rank every query against the full corpus, yielding one ranking at a time."""
    index = DenseIndex(embed_items(params, featurizer, corpus))
    query_emb = embed_items(params, featurizer, queries)
    return (
        search_dense(index, query_emb.matrix[i], k, query_id=qid)
        for i, qid in enumerate(query_emb.ids)
    )


def evaluate(
    params: Params,
    featurizer: Featurizer,
    corpus: Corpus,
    queries: QuerySet,
    qrels: QrelSet,
) -> tuple[MetricsRecord, list[RankedList]]:
    """Mean nDCG@10 and recall@{10,100} over queries with >= 1 positive judgment.

    Queries without positive judgments are skipped and counted. Also returns
    the per-query rankings (depth 100) for run-file output.
    """
    rankings = rank_all(params, featurizer, corpus, queries, k=100)
    ndcgs: list[float] = []
    r10s: list[float] = []
    r100s: list[float] = []
    skipped = 0
    kept: list[RankedList] = []
    for ranked in rankings:
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


def write_trec_run(rankings: Iterable[RankedList], path: str | Path, tag: str = "robustdr") -> None:
    """TREC run-file lines: `qid Q0 docid rank score tag`."""
    with blobfile.atomic_open(path, "w") as fh:
        for ranked in rankings:
            for rank, (doc_id, score) in enumerate(ranked.results, start=1):
                fh.write(f"{ranked.query_id} Q0 {doc_id} {rank} {score!r} {tag}\n")
