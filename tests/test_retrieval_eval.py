import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from robustdr import retrieval_eval

from robustdr.corpus import Corpus, Document, QrelSet, Query, QuerySet
from robustdr.encoder import Featurizer, Params
from robustdr.errors import CorpusFormatError, InvariantError
from robustdr.retrieval_eval import (
    Bm25Index,
    DenseIndex,
    RankedList,
    _id_order,
    _top_k,
    block_picks,
    evaluate,
    ndcg_at_k,
    rank_all,
    ranked_lists,
    recall_at_k,
    search_bm25,
    search_dense,
    write_trec_run,
)
from robustdr.trainer import FeatureStore
from tests.oracles import embed_reference, search_bm25_reference, search_dense_heap

# Integer values and both signed zeros, so that scores tie, also across -0.0 and 0.0.
TIE_VALUES = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])


def index_from(matrix, ids=None):
    matrix = np.asarray(matrix, dtype=np.float64)
    ids = ids or tuple(f"d{i}" for i in range(matrix.shape[0]))
    return DenseIndex(ids, matrix)


def exact(results):
    """(doc id, score bits) pairs: equal only when every score is bit-identical."""
    return [(doc_id, float(score).hex()) for doc_id, score in results]


def shuffled_ids(data, n):
    """Ids d0..d(n-1) in a drawn row order; past d9 their string order is not numeric."""
    return tuple(data.draw(st.permutations([f"d{i}" for i in range(n)])))


def typed(results):
    """`exact` plus each score's type: a block must hand back Python floats."""
    return [(doc_id, float(score).hex(), type(score)) for doc_id, score in results]


def block_rankings(picks_of, query_ids, doc_ids, block):
    """Every query's ranking through the block path, with `block` queries per block."""
    with mock.patch.object(retrieval_eval, "_BLOCK", block):
        blocks = list(picks_of())
    for picks in blocks:
        assert picks.cols.dtype == np.intp and picks.scores.dtype == np.float64
    assert [p.start for p in blocks] == list(range(0, len(query_ids), block))
    return [r for picks in blocks for r in ranked_lists(query_ids, doc_ids, picks)]


class TestSearchDense:
    def test_full_ranking_when_k_exceeds_corpus(self, rng):
        index = index_from(rng.normal(size=(5, 3)))
        ranked = search_dense(index, rng.normal(size=3), k=50)
        assert len(ranked.results) == 5

    def test_matching_document_ranked_first(self):
        index = index_from(np.eye(4))
        ranked = search_dense(index, np.eye(4)[2], k=2)
        assert ranked.results[0][0] == "d2"
        assert ranked.results[0][1] == 1.0

    def test_tie_breaks_lexicographic(self):
        index = index_from(np.ones((3, 2)), ids=("zz", "aa", "mm"))
        ranked = search_dense(index, np.ones(2), k=3)
        assert [d for d, _ in ranked.results] == ["aa", "mm", "zz"]

    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=2**31 - 1))
    def test_scan_and_heap_agree(self, k, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        index = index_from(rng.normal(size=(8, 4)))
        q = rng.normal(size=4)
        a = search_dense(index, q, k)
        b = search_dense_heap(index, q, k)
        assert a.results == b.results

    @given(st.data(), st.integers(min_value=1, max_value=14), st.integers(min_value=1, max_value=3))
    def test_ties_and_signed_zeros_match_heap(self, data, n, width):
        rows = st.lists(TIE_VALUES, min_size=width, max_size=width)
        matrix = data.draw(st.lists(rows, min_size=n, max_size=n))
        query = data.draw(rows)
        index = index_from(matrix, shuffled_ids(data, n))
        k = data.draw(st.integers(min_value=1, max_value=n + 2))
        a = search_dense(index, np.array(query), k)
        b = search_dense_heap(index, np.array(query), k)
        assert exact(a.results) == exact(b.results)
        assert all(type(score) is float for _, score in a.results)

    def test_nan_query_rejected(self, rng):
        index = index_from(rng.normal(size=(5, 3)))
        with pytest.raises(InvariantError, match="non-finite"):
            search_dense(index, np.array([0.5, np.nan, 1.0]), k=3)

    def test_scores_non_increasing(self, rng):
        index = index_from(rng.normal(size=(20, 4)))
        ranked = search_dense(index, rng.normal(size=4), k=20)
        scores = [s for _, s in ranked.results]
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_empty_index_rejected(self):
        with pytest.raises(ValueError):
            DenseIndex(ids=(), matrix=np.zeros((0, 3)))


class TestDenseIndex:
    def test_row_id_mismatch(self):
        with pytest.raises(ValueError):
            DenseIndex(ids=("a",), matrix=np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(InvariantError):
            DenseIndex(ids=("a",), matrix=np.array([[np.inf, 0.0]]))


class TestBlocks:
    """The block paths against the one-query references, for every query of a block."""

    @given(st.data())
    def test_bm25_blocks_match_reference(self, data):
        words = st.sampled_from(["ant", "bee", "cat", "dog", "eel"])
        texts = data.draw(st.lists(st.lists(words, max_size=6), min_size=1, max_size=8))
        texts += data.draw(st.lists(st.sampled_from(texts), max_size=4))  # duplicates tie
        ids = shuffled_ids(data, len(texts))
        corpus = Corpus([Document.from_fields(i, " ".join(t)) for i, t in zip(ids, texts)])
        # repeated, unknown ("yak") and empty queries, and queries no doc matches
        queries = data.draw(st.lists(st.lists(st.one_of(words, st.just("yak")), max_size=6),
                                     min_size=1, max_size=9))
        k = data.draw(st.integers(min_value=1, max_value=len(texts) + 2))
        block = data.draw(st.integers(min_value=1, max_value=4))
        index = Bm25Index(corpus)
        qids = tuple(f"q{i}" for i in range(len(queries)))
        got = block_rankings(lambda: block_picks(index, queries, k), qids, index.ids, block)
        assert [r.query_id for r in got] == list(qids)
        for ranked, query in zip(got, queries):
            assert typed(ranked.results) == typed(
                [(d, float(s)) for d, s in search_bm25_reference(corpus, query, k).results])

    @given(st.data(), st.integers(min_value=1, max_value=14), st.integers(min_value=1, max_value=3))
    def test_dense_blocks_match_heap(self, data, n, width):
        rows = st.lists(TIE_VALUES, min_size=width, max_size=width)
        matrix = data.draw(st.lists(rows, min_size=n, max_size=n))
        queries = np.array(data.draw(st.lists(rows, min_size=1, max_size=9)))
        index = index_from(matrix, shuffled_ids(data, n))
        k = data.draw(st.integers(min_value=1, max_value=n + 2))
        block = data.draw(st.integers(min_value=1, max_value=4))
        qids = tuple(f"q{i}" for i in range(len(queries)))
        got = block_rankings(lambda: block_picks(index, queries, k), qids, index.ids, block)
        for ranked, qid, query in zip(got, qids, queries):
            expected = search_dense_heap(index, query, k, query_id=qid)
            assert ranked.query_id == qid
            assert typed(ranked.results) == typed(expected.results)

    def test_non_finite_score_in_a_later_block_rejected(self):
        index = index_from(np.eye(3))
        queries = np.ones((3, 3))
        queries[-1, 1] = np.nan
        with mock.patch.object(retrieval_eval, "_BLOCK", 2):
            blocks = block_picks(index, queries, k=2)
            next(blocks)
            with pytest.raises(InvariantError, match="non-finite"):
                next(blocks)

    def test_rank_all_stays_lazy(self):
        """Ranking Q queries one at a time allocates less than one Q x N float64
        matrix, though a list of the rankings would take about three times as much."""
        n_docs, n_queries, k = 400, 1024, 100
        corpus = Corpus([Document.from_fields(f"d{i}", f"w{i % 97} w{i % 89}")
                         for i in range(n_docs)])
        queries = QuerySet([Query.from_fields(f"q{i}", f"w{i % 97} w{i % 7}")
                            for i in range(n_queries)])
        params = Params.init_random(512, 4, seed=0)
        featurizer = Featurizer(512)
        tracemalloc.start()
        try:
            store = FeatureStore(featurizer, queries, corpus, QrelSet({}))
            count = sum(1 for _ in rank_all(params, store, k))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == n_queries
        assert peak < n_queries * n_docs * 8


class TestTopK:
    @given(st.data(), st.integers(min_value=1, max_value=14))
    def test_matches_full_sort(self, data, n):
        scores = np.array(data.draw(st.lists(TIE_VALUES, min_size=n, max_size=n)))
        ids = shuffled_ids(data, n)
        k = data.draw(st.integers(min_value=1, max_value=n + 2))
        expected = sorted(range(n), key=lambda i: (-scores[i], ids[i]))[:k]
        rows, cols = _top_k(-scores[None, :], _id_order(ids), k)
        assert cols.tolist() == expected
        assert rows.tolist() == [0] * len(expected)


class TestBm25:
    @given(st.data())
    def test_matches_reference(self, data):
        words = st.sampled_from(["ant", "bee", "cat", "dog", "eel"])
        texts = data.draw(st.lists(st.lists(words, max_size=6), min_size=1, max_size=8))
        texts += data.draw(st.lists(st.sampled_from(texts), max_size=4))  # duplicates tie
        ids = shuffled_ids(data, len(texts))
        corpus = Corpus([Document.from_fields(i, " ".join(t)) for i, t in zip(ids, texts)])
        query = data.draw(st.lists(st.one_of(words, st.just("yak")), max_size=6))
        k = data.draw(st.integers(min_value=1, max_value=len(texts) + 2))
        ranked = search_bm25(Bm25Index(corpus), query, k)
        assert exact(ranked.results) == exact(search_bm25_reference(corpus, query, k).results)
        assert all(type(score) is float for _, score in ranked.results)

    @pytest.mark.parametrize("n_filler", range(5))
    def test_repeated_terms_match_reference(self, n_filler):
        """Every (query tf, doc tf) pair up to 6, over a few document frequencies,
        each term rounded as in the reference."""
        texts = [" ".join(["cat"] * tf + ["ant"] * (tf % 3)) for tf in range(1, 7)]
        texts += ["bee ant"] * n_filler
        corpus = Corpus([Document.from_fields(f"d{i}", t) for i, t in enumerate(texts)])
        queries = [["cat"] * qtf + ["ant"] * (qtf % 3) for qtf in range(1, 7)]
        index = Bm25Index(corpus)
        qids = tuple(f"q{i}" for i in range(len(queries)))
        got = block_rankings(lambda: block_picks(index, queries, len(corpus)), qids, index.ids,
                             retrieval_eval._BLOCK)
        for ranked, query in zip(got, queries):
            expected = search_bm25_reference(corpus, query, len(corpus))
            assert exact(ranked.results) == exact(expected.results)

    def test_all_documents_empty(self):
        corpus = Corpus([Document.from_fields("d1", ""), Document.from_fields("d2", "")])
        index = Bm25Index(corpus)  # avgdl is 0: no warning, which the suite turns into errors
        assert index.avgdl == 0.0
        assert search_bm25(index, ["cat"], k=2).results == ()

    def test_single_doc_positive_score(self):
        corpus = Corpus([Document.from_fields("d1", "hello world")])
        index = Bm25Index(corpus)
        ranked = search_bm25(index, ["hello"], k=5)
        assert [d for d, _ in ranked.results] == ["d1"]
        assert ranked.results[0][1] > 0

    def test_absent_token_contributes_nothing(self, tiny_corpus):
        index = Bm25Index(tiny_corpus)
        assert search_bm25(index, ["zebra"], k=5).results == ()
        with_both = search_bm25(index, ["cat", "zebra"], k=5)
        only_cat = search_bm25(index, ["cat"], k=5)
        assert with_both.results == only_cat.results

    def test_empty_query(self, tiny_corpus):
        assert search_bm25(Bm25Index(tiny_corpus), [], k=5).results == ()

    def test_hand_computed_three_doc_fixture(self, tiny_corpus):
        """Frozen hand evaluation with k1=0.9, b=0.4 on the tiny corpus.

        d1: "the cat sat on the mat" (len 6), d2: "the dog chased the cat"
        (len 5), d3: "fish swim in water" (len 4); N=3, avgdl=5.
        """
        index = Bm25Index(tiny_corpus)
        ranked = search_bm25(index, ["cat", "water"], k=3)
        scores = dict(ranked.results)

        idf_cat = math.log(1 + (3 - 2 + 0.5) / (2 + 0.5))
        idf_water = math.log(1 + (3 - 1 + 0.5) / (1 + 0.5))
        d1 = idf_cat * 1.9 / (1 + 0.9 * (0.6 + 0.4 * 6 / 5))
        d2 = idf_cat * 1.9 / (1 + 0.9 * (0.6 + 0.4 * 5 / 5))
        d3 = idf_water * 1.9 / (1 + 0.9 * (0.6 + 0.4 * 4 / 5))
        assert scores["d1"] == pytest.approx(d1, abs=1e-9)
        assert scores["d2"] == pytest.approx(d2, abs=1e-9)
        assert scores["d3"] == pytest.approx(d3, abs=1e-9)

    def test_score_non_decreasing_in_term_frequency(self):
        def score_of(tf):
            text = " ".join(["cat"] * tf + ["pad"] * (6 - tf))
            corpus = Corpus([Document.from_fields("d", text)])
            ranked = search_bm25(Bm25Index(corpus), ["cat"], k=1)
            return ranked.results[0][1]

        values = [score_of(tf) for tf in range(1, 6)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestNdcg:
    def test_perfect_ranking(self):
        qrels = QrelSet({"q": {"a": 2, "b": 1}})
        ranked = RankedList("q", (("a", 9.0), ("b", 8.0), ("c", 7.0)))
        assert ndcg_at_k(ranked, qrels, k=10) == pytest.approx(1.0, abs=1e-12)

    def test_single_relevant_at_rank_two(self):
        qrels = QrelSet({"q": {"rel": 1}})
        ranked = RankedList("q", (("other", 9.0), ("rel", 8.0)))
        assert ndcg_at_k(ranked, qrels, k=10) == pytest.approx(1 / math.log2(3.0), abs=1e-9)
        assert ndcg_at_k(ranked, qrels, k=10) == pytest.approx(0.63093, abs=1e-5)

    def test_relevant_below_cutoff(self):
        qrels = QrelSet({"q": {"rel": 1}})
        results = tuple((f"filler{i}", 100.0 - i) for i in range(10)) + (("rel", 1.0),)
        assert ndcg_at_k(RankedList("q", results), qrels, k=10) == 0.0

    def test_unjudged_query_undefined(self):
        qrels = QrelSet({"other": {"a": 1}})
        assert ndcg_at_k(RankedList("q", (("a", 1.0),)), qrels, k=10) is None

    def test_graded_gains(self):
        qrels = QrelSet({"q": {"a": 3, "b": 1}})
        ranked = RankedList("q", (("b", 2.0), ("a", 1.0)))
        dcg = (2**1 - 1) / math.log2(2) + (2**3 - 1) / math.log2(3)
        idcg = (2**3 - 1) / math.log2(2) + (2**1 - 1) / math.log2(3)
        assert ndcg_at_k(ranked, qrels, k=10) == pytest.approx(dcg / idcg, abs=1e-12)

    def test_invariant_to_permuting_equal_score_equal_grade(self):
        qrels = QrelSet({"q": {"a": 1, "b": 1, "c": 0}})
        one = RankedList("q", (("a", 5.0), ("b", 5.0), ("c", 1.0)))
        two = RankedList("q", (("b", 5.0), ("a", 5.0), ("c", 1.0)))
        assert ndcg_at_k(one, qrels) == ndcg_at_k(two, qrels)


class TestRecall:
    def test_basic(self):
        qrels = QrelSet({"q": {"a": 1, "b": 2, "c": 1}})
        ranked = RankedList("q", (("a", 3.0), ("x", 2.0), ("b", 1.0)))
        assert recall_at_k(ranked, qrels, k=2) == pytest.approx(1 / 3)
        assert recall_at_k(ranked, qrels, k=3) == pytest.approx(2 / 3)

    def test_no_positives_undefined(self):
        qrels = QrelSet({"q": {"a": 0}})
        assert recall_at_k(RankedList("q", (("a", 1.0),)), qrels, k=5) is None


class TestEvaluate:
    def test_planted_perfect_embeddings(self):
        docs = [Document.from_fields(f"d{i}", f"word{i}") for i in range(6)]
        corpus = Corpus(docs)
        queries = QuerySet([Query.from_fields(f"q{i}", f"word{i}") for i in range(3)])
        qrels = QrelSet({f"q{i}": {f"d{i}": 1} for i in range(3)})
        featurizer = Featurizer(dim=512)
        buckets = featurizer([[f"word{i}"] for i in range(6)]).indices.tolist()
        assert len(set(buckets)) == 6, "fixture needs collision-free hashing"
        params = Params(feature_dim=512, embed_dim=512, flat=np.eye(512).ravel())
        record, rankings = evaluate(params, FeatureStore(featurizer, queries, corpus, qrels))
        assert record.ndcg_at_10 == 1.0
        assert record.recall_at_10 == 1.0
        assert record.n_evaluated == 3
        assert record.n_skipped == 0
        assert len(rankings) == 3

    def test_unjudged_queries_skipped_and_counted(self):
        docs = [Document.from_fields("d0", "alpha")]
        queries = QuerySet([Query.from_fields("q0", "alpha"), Query.from_fields("q1", "beta")])
        qrels = QrelSet({"q0": {"d0": 1}})
        featurizer = Featurizer(dim=16)
        params = Params.init_random(16, 4, seed=0)
        record, _ = evaluate(params, FeatureStore(featurizer, queries, Corpus(docs), qrels))
        assert record.n_evaluated == 1
        assert record.n_skipped == 1

    def test_random_embeddings_match_random_ranking_expectation(self, rng):
        """Monte-Carlo oracle: mean nDCG@10 of one relevant doc among n under
        uniformly random permutations."""
        n_docs, n_queries = 40, 300
        docs = [Document.from_fields(f"d{i}", f"w{i}") for i in range(n_docs)]
        corpus = Corpus(docs)
        queries = QuerySet([Query.from_fields(f"q{i}", f"qq{i}") for i in range(n_queries)])
        qrels = QrelSet({f"q{i}": {f"d{int(rng.integers(n_docs))}": 1} for i in range(n_queries)})
        featurizer = Featurizer(dim=2048)
        params = Params.init_random(2048, 8, seed=int(rng.integers(2**31)))
        record, _ = evaluate(params, FeatureStore(featurizer, queries, corpus, qrels))

        # expectation under a uniform random permutation, by enumeration:
        # the relevant doc lands at each rank with probability 1/n
        expected = sum(1 / math.log2(r + 1) for r in range(1, 11)) / n_docs
        mc = []
        for _ in range(4000):
            rank = int(rng.integers(n_docs)) + 1
            mc.append(1 / math.log2(rank + 1) if rank <= 10 else 0.0)
        assert np.mean(mc) == pytest.approx(expected, abs=4 * np.std(mc) / math.sqrt(len(mc)))

        sigma = math.sqrt(expected * (1 - expected) / n_queries)  # loose bound
        assert abs(record.ndcg_at_10 - expected) < 6 * max(sigma, 0.01)

    @given(st.data(), st.integers(min_value=1, max_value=3))
    def test_rankings_match_heap_reference(self, data, width):
        """Every judged query's ranking is its `search_dense_heap` ranking over
        `encode_loop` embeddings: small-integer weights and repeated documents
        tie scores, ids past d9 do not sort numerically, and the one query
        without judgments is skipped and counted."""
        words = st.sampled_from(["ant", "bee", "cat", "dog", "eel"])
        texts = data.draw(st.lists(st.lists(words, max_size=4), min_size=9, max_size=12))
        texts += data.draw(st.lists(st.sampled_from(texts), min_size=2, max_size=4))
        ids = shuffled_ids(data, len(texts))
        corpus = Corpus([Document.from_fields(i, " ".join(t)) for i, t in zip(ids, texts)])
        query_texts = data.draw(st.lists(st.lists(words, max_size=4), min_size=2, max_size=6))
        qids = [f"q{i}" for i in range(len(query_texts))]
        queries = QuerySet([Query.from_fields(q, " ".join(t)) for q, t in zip(qids, query_texts)])
        unjudged = qids[data.draw(st.integers(min_value=0, max_value=len(qids) - 1))]
        doc = st.sampled_from(ids)
        qrels = QrelSet({q: {data.draw(doc): 1} for q in qids if q != unjudged})
        dim = 8
        flat = data.draw(st.lists(TIE_VALUES, min_size=dim * width, max_size=dim * width))
        params = Params(dim, width, flat=np.array(flat))
        featurizer = Featurizer(dim)
        record, rankings = evaluate(params, FeatureStore(featurizer, queries, corpus, qrels))
        index = DenseIndex(*embed_reference(params, featurizer, corpus))
        expected = [search_dense_heap(index, emb, 100, query_id=qid)
                    for qid, emb in zip(*embed_reference(params, featurizer, queries))
                    if qid != unjudged]
        assert [r.query_id for r in rankings] == [r.query_id for r in expected]
        for got, want in zip(rankings, expected):
            assert typed(got.results) == typed(want.results)
        assert (record.n_evaluated, record.n_skipped) == (len(qids) - 1, 1)


class TestTrecRun:
    def test_format(self, tmp_path):
        rankings = [RankedList("q1", (("d2", 1.5), ("d1", 0.5)))]
        path = tmp_path / "run.trec"
        write_trec_run(rankings, path, tag="testtag")
        lines = path.read_text().strip().split("\n")
        assert lines[0].split() == ["q1", "Q0", "d2", "1", "1.5", "testtag"]
        assert lines[1].split() == ["q1", "Q0", "d1", "2", "0.5", "testtag"]

    @pytest.mark.parametrize("query_id,doc_id,bad", [
        ("q 2", "d1", "q 2"), ("q2", "doc one", "doc one"), ("q2", "d\t1", "d\t1"),
        ("q2", "d1\n", "d1\n"),
    ])
    def test_id_holding_whitespace_refused_naming_it(self, tmp_path, query_id, doc_id, bad):
        rankings = [RankedList("q1", (("d1", 2.0),)),
                    RankedList(query_id, (("d1", 1.0), (doc_id, 0.5)))]
        with pytest.raises(CorpusFormatError, match=re.escape(repr(bad))):
            write_trec_run(rankings, tmp_path / "run.trec")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tag", ["my run", "", " tag", "tag\n"])
    def test_tag_not_one_field_refused_naming_it(self, tmp_path, tag):
        rankings = [RankedList("q1", (("d1", 2.0),))]
        with pytest.raises(ValueError, match=re.escape(repr(tag))):
            write_trec_run(rankings, tmp_path / "run.trec", tag=tag)
        assert list(tmp_path.iterdir()) == []
