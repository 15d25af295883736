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
per-token loop, all its documents first, then all its queries. A document
token is ``u = rng.random()``, then a function word ``rng.integers(n_fw)`` if
``u < fw_rate``, else a topic word ``rng.integers(n_vocab)``. A query is its
length ``rng.integers(4, 8)``, that many vocabulary words, with a query
vocabulary of its own one word of its topic's documents, then a function
word. `_token_draws` replays all of a task's document tokens at once from the
generator's raw 64-bit words; `_query_draws` walks a read-ahead of the 32-bit
stream to find every query draw's bound, then draws them all in one
``rng.integers(0, bounds)`` call. Both are bit for bit the loop's, picks and
generator state after. They rest on how numpy's PCG64 draws:

* ``random()`` takes one raw word ``w`` and returns ``(w >> 11) * 2**-53``;
* ``integers(b)`` for ``2 <= b <= 2**32`` draws from the 32-bit stream, which
  takes the low half of a fresh word and holds the high half for the next
  32-bit draw (``bit_generator.state["has_uint32"]`` and ``["uinteger"]``);
  ``random()`` and ``random_raw`` leave that half alone;
* it maps a 32-bit ``x`` by Lemire's method to ``(x * b) >> 32``, and rejects
  ``x`` and draws again when ``(x * b) mod 2**32 < (2**32 - b) % b``;
* ``integers(1)`` consumes nothing, and ``integers(0)`` raises ValueError;
* ``integers(0, bounds)`` with an array of bounds draws each element as the
  scalar call with that bound does, in order, but checks every bound before
  drawing any.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import blobfile
from .corpus import Corpus, Document, QrelSet, Query, QuerySet, save_corpus, save_queries
from .errors import InvariantError


@dataclass(frozen=True)
class TaskBundle:
    name: str
    corpus: Corpus
    queries: QuerySet
    qrels: QrelSet


# Words per topic's document vocabulary, tokens per document, the inclusive
# range of a query's topic-word count, and the share of function words among
# document tokens, the same for every task.
VOCAB_PER_TOPIC = 40
DOC_LEN = 30
QUERY_LEN_RANGE = (4, 7)
FW_RATE = 0.3


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


def _query_draws(
    rng: np.random.Generator, n: int, n_vocab: int, tail: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """``n`` queries' draws from a PCG64 ``rng``, bit for bit those of a loop.

    Returns (each query's length, every query's picks back to back: its
    ``length`` words, then one per bound of ``tail``); they, and ``rng``'s state
    after, equal those of ``n`` loop iterations of ``length =
    rng.integers(lo, hi + 1)`` over ``QUERY_LEN_RANGE``, ``length`` times
    ``rng.integers(n_vocab)``, then ``rng.integers(b)`` for each ``b`` in
    ``tail``. Every bound is at most 2**32.

    A query's first draw fixes how many follow, so one walk over a read-ahead
    of the 32-bit stream, from a saved state, finds every bound. For each kind
    of draw it maps each stream position to the position after a draw of that
    kind starting there: past the first value from there on that Lemire's
    method accepts, or the same position for a bound of 0 or 1, which takes no
    value. Composing the maps gives where a query starting at each position
    ends, and the walk follows that chain from position 0; a read-ahead too
    short for the chain is doubled. The generator is then rewound and every
    bound drawn in one ``rng.integers(0, bounds)`` call, which draws each
    element as the scalar call does, so the values and the state after are the
    loop's; the lengths it draws are checked against the walk's. A bound of 0,
    which the array call refuses before drawing anything, ends the draws with
    the scalar call, which raises numpy's ValueError at the same draw as the
    loop.
    """
    lo, hi = QUERY_LEN_RANGE
    kinds = (hi - lo + 1, n_vocab, *tail)
    bits = rng.bit_generator
    start = bits.state
    size = n * (1 + hi + len(tail))  # at most the draws of n queries without a rejection
    while True:
        # the 32-bit stream: the held half, then each raw word's low and high half
        words = bits.random_raw((size + 1) // 2)
        bits.state = start
        x = np.column_stack([words & _HALF, words >> 32]).ravel()
        if start["has_uint32"]:
            x = np.append(np.uint64(start["uinteger"]), x)
        x = x[:size]
        # after[k][p]: the position after a draw of kind k from position p;
        # size + 1 stands for past the read-ahead
        positions = np.arange(size + 2)
        after = []
        for b in kinds:
            if b < 2:
                after.append(positions)
                continue
            taken = np.flatnonzero((x * np.uint64(b) & _HALF) >= (2**32 - b) % b)
            after.append(np.append(taken + 1, size + 1)[np.searchsorted(taken, positions)])
        # the length a query starting at each position draws, then where it
        # ends (a pad value stands for the one past the read-ahead)
        x = np.append(x, np.uint64(0))
        length = lo + (x[after[0] - 1] * np.uint64(kinds[0]) >> 32).astype(np.intp)
        reach = [after[0]]
        for _ in range(hi):
            reach.append(after[1][reach[-1]])
        end = np.stack(reach)[length, positions]
        for step in after[2:]:
            end = step[end]
        firsts, at, end = [], 0, end.tolist()
        for _ in range(n):
            firsts.append(at)
            at = end[at]
        if at <= size:
            break
        size *= 2
    lengths = length[firsts]
    counts = 1 + lengths + len(tail)
    first = np.cumsum(counts) - counts  # each query's length draw among all draws
    bounds = np.full(int(counts.sum()), n_vocab, dtype=np.int64)
    bounds[first] = kinds[0]
    for i, b in enumerate(tail):
        bounds[first + 1 + lengths + i] = b
    zero = np.flatnonzero(bounds == 0)
    if zero.size:
        rng.integers(0, bounds[: zero[0]])
        rng.integers(0)
    draws = rng.integers(0, bounds)
    if not np.array_equal(draws[first] + lo, lengths):
        raise InvariantError("the query-length walk disagrees with numpy's draws")
    return lengths, np.delete(draws, first)


def _make_task(
    name: str,
    prefix: str,
    n_topics: int,
    docs_per_topic: int,
    queries_per_topic: int,
    function_words: list[str],
    rng: np.random.Generator,
    query_vocab_per_topic: int | None = None,
) -> tuple[str, list[Document], list[Query], dict[str, dict[str, int]]]:
    """One topical retrieval task as its name, documents, queries and judgments.

    By default queries draw from their topic's document vocabulary, so corpus
    co-occurrence carries the relevance signal. With `query_vocab_per_topic`
    set, queries use a per-topic vocabulary disjoint from every document
    token, so relevance can only be learned from the labels. Every generated
    word is lowercase ``[0-9a-z]+``, so a text's tokens are its drawn words,
    as `corpus.tokenize` would split their join, and are not split again.

    All documents' tokens are drawn first (`_token_draws`), then all queries'
    (`_query_draws`); one table maps each pick to its word: the function words,
    every topic's document vocabulary, then every topic's query vocabulary.
    The judgments map each query id to its topic's documents, each graded 1.
    """
    n_docs, n_fw = n_topics * docs_per_topic, len(function_words)
    is_fw, picks = _token_draws(rng, n_docs * DOC_LEN, FW_RATE, n_fw, VOCAB_PER_TOPIC)
    table = function_words + [w for topic in range(n_topics)
                              for w in _topic_vocab(prefix, topic, VOCAB_PER_TOPIC)]
    topic_of = np.repeat(np.arange(n_topics), docs_per_topic * DOC_LEN)
    rows = np.where(is_fw, picks, n_fw + topic_of * VOCAB_PER_TOPIC + picks)
    topic_doc_ids = [[f"{prefix}-t{topic}-d{d}" for d in range(docs_per_topic)]
                     for topic in range(n_topics)]
    # a query's words: `length` from its vocabulary, then, with a query
    # vocabulary of its own, one in-topic document word, so that queries still
    # resemble their domain lexically and embedding-space clustering sees
    # topics before any label supervision; last one shared function word,
    # which keeps lexical retrieval from seeing only same-topic
    # (all-relevant) candidates
    query_topic = np.repeat(np.arange(n_topics), queries_per_topic)
    doc_base = n_fw + query_topic * VOCAB_PER_TOPIC
    if query_vocab_per_topic is None:
        n_vocab, vocab_base, tail = VOCAB_PER_TOPIC, doc_base, [(n_fw, 0)]
    else:
        n_vocab = query_vocab_per_topic
        vocab_base = len(table) + query_topic * n_vocab
        tail = [(VOCAB_PER_TOPIC, doc_base), (n_fw, 0)]
        table += [w for topic in range(n_topics)
                  for w in _topic_vocab(f"{prefix}qry", topic, query_vocab_per_topic)]
    lengths, query_picks = _query_draws(rng, len(query_topic), n_vocab,
                                        tuple(bound for bound, _ in tail))
    counts = lengths + len(tail)
    ends = np.cumsum(counts)
    base = np.repeat(vocab_base, counts)
    for i, (_, tail_base) in enumerate(tail):
        base[ends - len(tail) + i] = tail_base
    words = np.array(table, dtype=object)[np.concatenate([rows, base + query_picks])].tolist()
    docs = []
    for i, doc_id in enumerate(chain.from_iterable(topic_doc_ids)):
        tokens = tuple(words[i * DOC_LEN : (i + 1) * DOC_LEN])
        docs.append(Document(doc_id, " ".join(tokens), tokens=tokens))
    queries, judgments = [], {}
    at, ends = n_docs * DOC_LEN, iter((ends + n_docs * DOC_LEN).tolist())
    for topic in range(n_topics):
        judged = dict.fromkeys(topic_doc_ids[topic], 1)
        for q in range(queries_per_topic):
            qid, end = f"{prefix}-t{topic}-q{q}", next(ends)
            tokens = tuple(words[at:end])
            queries.append(Query(qid, " ".join(tokens), tokens))
            judgments[qid] = judged
            at = end
    return name, docs, queries, judgments


def _bundle(name: str, docs: list[Document], queries: list[Query],
            judgments: dict[str, dict[str, int]]) -> TaskBundle:
    return TaskBundle(name, Corpus(docs), QuerySet(queries), QrelSet(judgments))


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
    return _bundle(*source), _bundle(*target)


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
    # The major topics, then each rare topic, drawn in turn from the one rng
    # and joined in that order: one corpus, one query set, one set of judgments.
    parts = [_make_task("major", "maj", n_major_topics, docs_per_topic,
                        major_queries_per_topic, function_words, rng,
                        query_vocab_per_topic=query_vocab_per_topic)]
    for t in range(n_rare_topics):
        vocab_size = rare_query_vocab_profile[t % len(rare_query_vocab_profile)]
        parts.append(_make_task(f"rare{t}", f"rar{t}", 1, docs_per_topic,
                                rare_queries_per_topic, function_words, rng,
                                query_vocab_per_topic=vocab_size))
    docs, queries, judgments, groups = [], [], {}, {}
    for name, part_docs, part_queries, part_judgments in parts:
        docs.extend(part_docs)
        queries.extend(part_queries)
        judgments.update(part_judgments)
        group = "major" if name == "major" else "rare"
        groups.update((query.id, group) for query in part_queries)
    return _bundle("imbalanced-source", docs, queries, judgments), groups


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
