"""Synthetic retrieval benchmarks for desk-scale experiments.

Two generators:

* a two-domain benchmark whose source and target sides use disjoint topical
  vocabularies glued together by shared function words, for measuring how much
  corpus-side contrastive pretraining transfers, and
* a single-domain source task with an 85/15 majority/minority query imbalance,
  for comparing cluster-weighting strategies.

Documents of a topic draw from that topic's vocabulary, mixed with shared
function words, and every same-topic document is judged relevant to each
query of the topic. In the two-domain benchmark a query draws its topic words
from its documents' vocabulary, so exact token overlap alone identifies its
topic and lexical search (BM25) ranks its relevant documents first. In the
imbalanced task a query draws its topic words from a vocabulary of its own,
disjoint from every document token, plus one word of its topic's documents,
so relevance is learned mainly from the labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, Document, QrelSet, Query, QuerySet, save_corpus, save_queries


@dataclass(frozen=True)
class TaskBundle:
    name: str
    corpus: Corpus
    queries: QuerySet
    qrels: QrelSet


def _topic_vocab(prefix: str, topic: int, size: int) -> list[str]:
    return [f"{prefix}t{topic}w{w}" for w in range(size)]


def _make_doc_tokens(
    vocab: list[str],
    function_words: list[str],
    doc_len: int,
    fw_rate: float,
    rng: np.random.Generator,
) -> list[str]:
    tokens = []
    for _ in range(doc_len):
        if rng.random() < fw_rate:
            tokens.append(function_words[int(rng.integers(len(function_words)))])
        else:
            tokens.append(vocab[int(rng.integers(len(vocab)))])
    return tokens


def _make_task(
    name: str,
    prefix: str,
    n_topics: int,
    docs_per_topic: int,
    queries_per_topic: int,
    function_words: list[str],
    rng: np.random.Generator,
    vocab_per_topic: int = 40,
    doc_len: int = 30,
    query_len_range: tuple[int, int] = (4, 7),
    fw_rate: float = 0.3,
    query_vocab_per_topic: int | None = None,
) -> TaskBundle:
    """One topical retrieval task.

    By default queries draw from their topic's document vocabulary, so corpus
    co-occurrence carries the relevance signal. With `query_vocab_per_topic`
    set, queries use a per-topic vocabulary disjoint from every document
    token, so relevance can only be learned from the labels.
    """
    docs = []
    queries = []
    grades: dict[tuple[str, str], int] = {}
    topic_doc_ids: list[list[str]] = []
    for topic in range(n_topics):
        vocab = _topic_vocab(prefix, topic, vocab_per_topic)
        ids = []
        for d in range(docs_per_topic):
            doc_id = f"{prefix}-t{topic}-d{d}"
            tokens = _make_doc_tokens(vocab, function_words, doc_len, fw_rate, rng)
            docs.append(Document.from_fields(doc_id, " ".join(tokens)))
            ids.append(doc_id)
        topic_doc_ids.append(ids)
    for topic in range(n_topics):
        doc_vocab = _topic_vocab(prefix, topic, vocab_per_topic)
        if query_vocab_per_topic is None:
            vocab = doc_vocab
        else:
            vocab = _topic_vocab(f"{prefix}qry", topic, query_vocab_per_topic)
        for q in range(queries_per_topic):
            qid = f"{prefix}-t{topic}-q{q}"
            qlen = int(rng.integers(query_len_range[0], query_len_range[1] + 1))
            tokens = [vocab[int(rng.integers(len(vocab)))] for _ in range(qlen)]
            if query_vocab_per_topic is not None:
                # one in-topic document word: queries still resemble their
                # domain lexically, so embedding-space clustering sees topics
                # before any label supervision
                tokens.append(doc_vocab[int(rng.integers(len(doc_vocab)))])
            # one shared function word keeps lexical retrieval from seeing
            # only same-topic (all-relevant) candidates
            tokens.append(function_words[int(rng.integers(len(function_words)))])
            queries.append(Query.from_fields(qid, " ".join(tokens)))
            for doc_id in topic_doc_ids[topic]:
                grades[(qid, doc_id)] = 1
    return TaskBundle(name, Corpus(docs), QuerySet(queries), QrelSet(grades))


def make_two_domain_benchmark(
    seed: int = 0,
    n_source_topics: int = 60,
    n_target_topics: int = 50,
    docs_per_topic: int = 20,
    source_queries_per_topic: int = 4,
    target_queries_per_topic: int = 3,
) -> tuple[TaskBundle, TaskBundle]:
    """Source and target tasks with disjoint topical vocabularies.

    Defaults give 1200 + 1000 documents, 240 labeled source queries and 150
    labeled target queries.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    function_words = [f"fw{i}" for i in range(50)]
    source = _make_task(
        "source", "src", n_source_topics, docs_per_topic, source_queries_per_topic,
        function_words, rng,
    )
    target = _make_task(
        "target", "tgt", n_target_topics, docs_per_topic, target_queries_per_topic,
        function_words, rng,
    )
    return source, target


def make_imbalanced_source(
    seed: int = 0,
    n_major_topics: int = 18,
    n_rare_topics: int = 3,
    docs_per_topic: int = 15,
    major_queries_per_topic: int = 50,
    rare_queries_per_topic: int = 53,
    query_vocab_per_topic: int | None = 10,
    rare_query_vocab_profile: tuple[int, ...] = (96, 24, 24),
) -> tuple[TaskBundle, dict[str, str]]:
    """A source task where rare-group queries are 15% of the training mass.

    Majority and rare topics use disjoint vocabularies (so embedding-space
    clustering can separate them) but share one corpus. Query vocabularies are
    disjoint from document vocabularies, so relevance is learnable only from
    the labels; per-query visit counts are low enough that single queries
    cannot be memorized, and rare topics spread their mass over larger query
    vocabularies, so each rare query word receives several times fewer
    gradient updates than a majority word under uniform sampling. The rare
    vocabulary profile is heterogeneous: its first topic is much harder than
    the rest, so the rare group's mean loss is dominated by a single hard
    cluster. Returns the bundle and a query-id -> {"major", "rare"} group map.
    Defaults give 900 majority vs 159 rare queries (85/15).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    function_words = [f"fw{i}" for i in range(30)]
    major = _make_task(
        "major", "maj", n_major_topics, docs_per_topic, major_queries_per_topic,
        function_words, rng, query_vocab_per_topic=query_vocab_per_topic,
    )
    rare_bundles = []
    for t in range(n_rare_topics):
        vocab_size = rare_query_vocab_profile[t % len(rare_query_vocab_profile)]
        rare_bundles.append(
            _make_task(
                f"rare{t}", f"rar{t}", 1, docs_per_topic, rare_queries_per_topic,
                function_words, rng, query_vocab_per_topic=vocab_size,
            )
        )
    docs = list(major.corpus)
    queries = list(major.queries)
    grades: dict[tuple[str, str], int] = {}
    for bundle in [major] + rare_bundles:
        if bundle is not major:
            docs.extend(bundle.corpus)
            queries.extend(bundle.queries)
        for qid in bundle.queries.ids:
            for did, grade in bundle.qrels.judged(qid).items():
                grades[(qid, did)] = grade
    groups = {qid: "major" for qid in major.queries.ids}
    for bundle in rare_bundles:
        groups.update({qid: "rare" for qid in bundle.queries.ids})
    task = TaskBundle("imbalanced-source", Corpus(docs), QuerySet(queries), QrelSet(grades))
    return task, groups


def write_task_dir(bundle: TaskBundle, out_dir: str | Path) -> None:
    """Write corpus.jsonl, queries.jsonl and qrels.tsv for a task."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_corpus(bundle.corpus, out / "corpus.jsonl")
    save_queries(bundle.queries, out / "queries.jsonl")
    with (out / "qrels.tsv").open("w", encoding="utf-8") as fh:
        fh.write("query-id\tcorpus-id\tscore\n")
        for qid in bundle.qrels.query_ids:
            for did, grade in bundle.qrels.judged(qid).items():
                fh.write(f"{qid}\t{did}\t{grade}\n")
