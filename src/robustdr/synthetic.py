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

Every task is a pure function of the seed, and its draws are those of a
per-token loop: a document token is ``u = rng.random()``, then a function word
``rng.integers(n_fw)`` if ``u < fw_rate``, else a topic word
``rng.integers(n_vocab)``. `_token_draws` replays all of a task's document
tokens at once from the generator's raw 64-bit words, bit for bit, picks and
generator state after. It rests on how numpy's PCG64 draws:

* ``random()`` takes one raw word ``w`` and returns ``(w >> 11) * 2**-53``;
* ``integers(b)`` for ``2 <= b <= 2**32`` draws from the 32-bit stream, which
  takes the low half of a fresh word and holds the high half for the next
  32-bit draw (``bit_generator.state["has_uint32"]`` and ``["uinteger"]``);
  ``random()`` and ``random_raw`` leave that half alone;
* it maps a 32-bit ``x`` by Lemire's method to ``(x * b) >> 32``, and rejects
  ``x`` and draws again when ``(x * b) mod 2**32 < (2**32 - b) % b``;
* ``integers(1)`` consumes nothing, and ``integers(0)`` raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import blobfile
from .corpus import Corpus, Document, QrelSet, Query, QuerySet, save_corpus, save_queries


@dataclass(frozen=True)
class TaskBundle:
    name: str
    corpus: Corpus
    queries: QuerySet
    qrels: QrelSet


def _topic_vocab(prefix: str, topic: int, size: int) -> list[str]:
    return [f"{prefix}t{topic}w{w}" for w in range(size)]


_HALF = 0xFFFFFFFF  # the low 32 bits of a raw word


def _token_draws(
    rng: np.random.Generator, n: int, fw_rate: float, n_fw: int, n_vocab: int
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` document tokens' draws from a PCG64 ``rng``, bit for bit those of a loop.

    Returns (whether each token is a function word, each token's pick); the
    picks, and ``rng``'s state after, equal those of ``n`` loop iterations of
    ``u = rng.random(); rng.integers(n_fw if u < fw_rate else n_vocab)``.

    A run of tokens each of whose draws is one accepted 32-bit draw has a fixed
    layout: every token takes one raw word for ``u``, and every other token,
    alternating from the held half, a fresh word for its 32-bit draw. Each
    round reads the raw words of such a run with ``random_raw`` and finds its
    first irregular token: a bound outside [2, 2**32] or a rejected draw. The
    generator is then rewound to that token and advanced past the regular run
    only, and the irregular token is drawn with the scalar calls, so a bound of
    0 raises numpy's ValueError at the same token as the loop.
    """
    bits = rng.bit_generator
    is_fw = np.empty(n, dtype=bool)
    picks = np.empty(n, dtype=np.int64)
    # per kind of token (0 topic word, 1 function word): whether a draw below
    # its bound is one Lemire draw on the 32-bit stream, and its threshold
    kinds = (n_vocab, n_fw)
    regular = np.array([2 <= b <= 2**32 for b in kinds])
    bound = np.array([b if ok else 0 for b, ok in zip(kinds, regular)], dtype=np.uint64)
    threshold = (2**32 - bound) % np.maximum(bound, 1)
    done, span = 0, n
    while done < n:
        start = bits.state
        held, half = start["has_uint32"], start["uinteger"]
        take = min(n - done, span)
        fresh = (held + np.arange(take)) % 2 == 0  # the token takes a fresh word
        at = np.arange(take) + np.cumsum(fresh) - fresh  # each token's word for u
        words = bits.random_raw(int(at[-1]) + 1 + int(fresh[-1]))
        fw = (words[at] >> 11) * 2.0**-53 < fw_rate
        # a fresh token's 32-bit draw is the low half of the word after its u,
        # the next token's the high half of that word, just before its own u
        word = words[at + np.where(fresh, 1, -1)]
        x = np.where(fresh, word & _HALF, word >> 32)
        if held:
            x[0] = half
        kind = fw.astype(np.intp)
        scaled = x * bound[kind]
        irregular = ~regular[kind] | ((scaled & _HALF) < threshold[kind])
        run = int(np.argmax(irregular)) if irregular.any() else take
        is_fw[done : done + run] = fw[:run]
        picks[done : done + run] = scaled[:run] >> 32
        last_fresh = np.flatnonzero(fresh[:run])
        if last_fresh.size:
            half = int(words[at[last_fresh[-1]] + 1] >> 32)
        if run < take:  # rewind, then consume the regular run's words only
            bits.state = start
            bits.advance(int(at[run]))
        bits.state = {**bits.state, "has_uint32": (held + run) % 2, "uinteger": half}
        done += run
        if run < take:
            u = rng.random()
            is_fw[done] = u < fw_rate
            picks[done] = rng.integers(n_fw if u < fw_rate else n_vocab)
            done += 1
        # read ahead at most twice the last run, so that frequent irregular
        # tokens (a bound of 1) read O(n) words in all, not O(n**2)
        span = max(16, 2 * run)
    return is_fw, picks


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
    # Documents are drawn back to back, topic by topic, with one vocabulary
    # size, so one batch holds them all; one table maps each pick to its word:
    # the function words, then every topic's vocabulary.
    n_docs, n_fw = n_topics * docs_per_topic, len(function_words)
    is_fw, picks = _token_draws(rng, n_docs * doc_len, fw_rate, n_fw, vocab_per_topic)
    table = np.array(function_words + [w for topic in range(n_topics)
                                       for w in _topic_vocab(prefix, topic, vocab_per_topic)],
                     dtype=object)
    topic_of = np.repeat(np.arange(n_topics), docs_per_topic * doc_len)
    rows = np.where(is_fw, picks, n_fw + topic_of * vocab_per_topic + picks)
    words = table[rows].tolist()
    topic_doc_ids = [[f"{prefix}-t{topic}-d{d}" for d in range(docs_per_topic)]
                     for topic in range(n_topics)]
    docs = [Document.from_fields(doc_id, " ".join(words[i * doc_len : (i + 1) * doc_len]))
            for i, doc_id in enumerate(chain.from_iterable(topic_doc_ids))]
    queries = []
    grades: dict[tuple[str, str], int] = {}
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
    qrels = bundle.qrels
    blobfile.write_table(out / "qrels.tsv", ["query-id", "corpus-id", "score"],
                         [(qid, did, grade) for qid in qrels.query_ids
                          for did, grade in qrels.judged(qid).items()])
