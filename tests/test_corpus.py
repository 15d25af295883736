import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from robustdr.corpus import (
    Corpus,
    Document,
    QrelSet,
    _sample_disjoint_starts,
    load_corpus,
    load_qrels,
    load_queries,
    sample_span_pair,
    save_corpus,
    tokenize,
)
from robustdr.errors import CorpusFormatError


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestTokenizer:
    def test_lowercase_split_drop_empty(self):
        assert tokenize("A b, c") == ["a", "b", "c"]

    def test_alphanumeric_runs_kept_whole(self):
        assert tokenize("BM25 isn't x-ray") == ["bm25", "isn", "t", "x", "ray"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("...!?") == []

    @given(st.text(max_size=80))
    def test_idempotent_on_joined_tokens(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens


class TestLoadCorpus:
    def test_title_prepended_to_text(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, ['{"_id":"d1","title":"","text":"A b, c"}'])
        corpus = load_corpus(path)
        assert corpus["d1"].tokens == ("a", "b", "c")

        write_lines(path, ['{"_id":"d1","title":"Zz","text":"A b"}'])
        assert load_corpus(path)["d1"].tokens == ("zz", "a", "b")

    @pytest.mark.parametrize("title", ["0", "false", "[]", "{}", "5"])
    def test_non_string_title_rejected(self, tmp_path, title):
        """A falsy title is no string either; only a string or null is a title."""
        path = tmp_path / "corpus.jsonl"
        write_lines(path, ['{"_id":"d0","title":null,"text":"a"}',
                           '{"_id":"d1","title":%s,"text":"a"}' % title])
        with pytest.raises(CorpusFormatError, match="line 2: field 'title' must be a string"):
            load_corpus(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("", encoding="utf-8")
        assert len(load_corpus(path)) == 0

    def test_duplicate_id_error_names_id(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, ['{"_id":"d1","text":"a"}', '{"_id":"d1","text":"b"}'])
        with pytest.raises(CorpusFormatError, match="d1"):
            load_corpus(path)

    def test_malformed_line_error_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, ['{"_id":"d1","text":"a"}', "{not json"])
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_corpus(path)

    def test_order_preserved(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, [json.dumps({"_id": f"d{i}", "text": "x"}) for i in (3, 1, 2)])
        assert load_corpus(path).ids == ("d3", "d1", "d2")

    def test_roundtrip_ids_and_tokens(self, tmp_path, tiny_corpus):
        path = tmp_path / "saved.jsonl"
        save_corpus(tiny_corpus, path)
        reloaded = load_corpus(path)
        assert reloaded.ids == tiny_corpus.ids
        for doc in tiny_corpus:
            assert reloaded[doc.id].tokens == doc.tokens

    def test_load_twice_identical_tokens(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, ['{"_id":"d1","title":"T","text":"Some text, here."}'])
        a = load_corpus(path)
        b = load_corpus(path)
        assert a["d1"].tokens == b["d1"].tokens


class TestLoadQueries:
    def test_basic(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        write_lines(path, ['{"_id":"q1","text":"what is bm25"}'])
        queries = load_queries(path)
        assert len(queries["q1"].tokens) == 3

    def test_missing_text_field(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        write_lines(path, ['{"_id":"q1"}'])
        with pytest.raises(CorpusFormatError, match="text"):
            load_queries(path)

    def test_many_lines_unique_ids(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        write_lines(path, [json.dumps({"_id": f"q{i}", "text": "w"}) for i in range(1000)])
        queries = load_queries(path)
        assert len(queries) == 1000
        assert len(set(queries.ids)) == 1000


class TestLoadQrels:
    def test_basic_grade(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        write_lines(path, ["q1\td1\t2"])
        qrels = load_qrels(path)
        assert qrels.judged("q1").get("d1", 0) == 2

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        write_lines(path, ["query-id\tcorpus-id\tscore", "q1\td1\t1"])
        qrels = load_qrels(path)
        assert len(qrels) == 1

    def test_non_integer_score(self, tmp_path):
        """Only ASCII digits with an optional minus sign: not int()'s underscores,
        plus sign or other scripts' digits."""
        path = tmp_path / "qrels.tsv"
        for score in ("two", "1_0", "+1", "1.0", "\u0661", ""):
            write_lines(path, ["q1\td0\t1", f"q1\td1\t{score}"])
            with pytest.raises(CorpusFormatError, match="line 2: relevance score .* is not an "
                                                        "integer"):
                load_qrels(path)
        write_lines(path, ["q1\td1\t 2\r"])  # a CRLF line's CR, as int() reads it
        assert load_qrels(path).judged("q1").get("d1", 0) == 2

    def test_positives_in_file_order_computed_once(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        write_lines(path, ["q1\td3\t1", "q1\td1\t0", "q1\td2\t2", "q2\td1\t0"])
        qrels = load_qrels(path)
        assert qrels.positives("q1") == ("d3", "d2")
        assert qrels.positives("q1") is qrels.positives("q1")
        assert qrels.positives("q2") == () and qrels.positives("unknown") == ()

    def test_repeated_pair_keeps_its_first_place(self, tmp_path):
        """A later line for a judged pair sets its grade at the first line's
        place; queries come in the order of their first line."""
        path = tmp_path / "qrels.tsv"
        write_lines(path, ["q2\td1\t1", "q1\td3\t1", "q2\td2\t2", "q1\td1\t1",
                           "q2\td1\t3", "q1\td3\t0"])
        qrels = load_qrels(path)
        assert qrels.query_ids == ("q2", "q1")
        assert list(qrels.judged("q2").items()) == [("d1", 3), ("d2", 2)]
        assert list(qrels.judged("q1").items()) == [("d3", 0), ("d1", 1)]
        assert qrels.positives("q1") == ("d1",)
        assert len(qrels) == 4

    def test_validate_against_flags_dangling(self, tmp_path, tiny_corpus, tiny_queries):
        path = tmp_path / "qrels.tsv"
        write_lines(path, ["q1\tmissing-doc\t1"])
        qrels = load_qrels(path)
        with pytest.raises(CorpusFormatError, match="missing-doc"):
            qrels.validate_against(tiny_queries, tiny_corpus)


class TestQrelSet:
    def test_negative_grade_rejected(self):
        with pytest.raises(CorpusFormatError, match="\\('q2', 'd2'\\)"):
            QrelSet({"q1": {"d1": 0}, "q2": {"d1": 1, "d2": -1}})

    def test_query_without_judgments_left_out(self):
        qrels = QrelSet({"q1": {}, "q2": {"d1": 1}})
        assert qrels.query_ids == ("q2",) and len(qrels) == 1


class TestSpanPair:
    def test_exact_length_doc_forced_split(self, rng):
        doc = Document.from_fields("d", "a b c d e f")
        for _ in range(20):
            pair = sample_span_pair(doc, 3, rng)
            assert sorted([pair[0], pair[1]]) == [("a", "b", "c"), ("d", "e", "f")]

    def test_too_short_returns_skip_signal(self, rng):
        doc = Document.from_fields("d", "a b c d e")
        assert sample_span_pair(doc, 3, rng) is None

    def test_spans_never_overlap_property(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 40))
            span_len = int(rng.integers(1, max(2, n // 2 + 1)))
            starts = _sample_disjoint_starts(n, span_len, rng)
            if n < 2 * span_len:
                assert starts is None
                continue
            a, b = starts
            lo, hi = min(a, b), max(a, b)
            assert 0 <= lo and hi + span_len <= n
            assert lo + span_len <= hi  # disjoint index ranges, adjacency allowed

    def test_uniform_over_placements_chi_squared(self, rng):
        """Empirical placement frequencies match brute-force enumeration."""
        scipy_stats = pytest.importorskip("scipy.stats")
        span_len = 3
        n = 4 * span_len
        valid = [
            (a, b)
            for a in range(n - span_len + 1)
            for b in range(n - span_len + 1)
            if a + span_len <= b or b + span_len <= a
        ]
        counts = {placement: 0 for placement in valid}
        draws = 10_000
        for _ in range(draws):
            starts = _sample_disjoint_starts(n, span_len, rng)
            counts[starts] += 1
        observed = np.array([counts[p] for p in valid])
        result = scipy_stats.chisquare(observed)
        assert result.pvalue > 1e-3
