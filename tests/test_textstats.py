import dataclasses
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from robustdr import blobfile
from robustdr.corpus import Query
from robustdr.textstats import (
    INTENT_CATEGORIES,
    classify_intent,
    intent_histogram,
    intent_similarity,
    shift_report,
    weighted_jaccard,
)

freq_tables = st.dictionaries(
    st.sampled_from([f"w{i}" for i in range(12)]),
    st.integers(min_value=1, max_value=50),
    max_size=8,
)


class TestWeightedJaccard:
    def test_identical_tables(self):
        table = {"a": 2, "b": 5}
        assert weighted_jaccard(table, table) == 1.0

    def test_disjoint_vocabularies(self):
        assert weighted_jaccard({"a": 2}, {"b": 3}) == 0.0

    def test_hand_value(self):
        # min: a->1; max: a->2, b->1, c->1  =>  1/4
        assert weighted_jaccard({"a": 2, "b": 1}, {"a": 1, "c": 1}) == pytest.approx(0.25, abs=1e-12)

    def test_both_empty_undefined(self):
        with pytest.raises(ValueError):
            weighted_jaccard({}, {})

    @given(freq_tables, freq_tables)
    def test_symmetric_and_bounded(self, s, t):
        if not s and not t:
            return
        j = weighted_jaccard(s, t)
        assert j == weighted_jaccard(t, s)
        assert 0.0 <= j <= 1.0

    @given(freq_tables, st.integers(min_value=1, max_value=9))
    def test_common_scaling_invariance(self, s, c):
        if not s:
            return
        t = {k: v + 1 for k, v in s.items()}
        scaled = weighted_jaccard({k: c * v for k, v in s.items()}, {k: c * v for k, v in t.items()})
        assert scaled == pytest.approx(weighted_jaccard(s, t), abs=1e-12)


class TestClassifyIntent:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("what is bm25", "what"),
            ("is aspirin safe", "yes/no"),
            ("bm25 definition", "declarative"),
            ("where to eat", "where"),
            ("small dogs allowed", "yes/no"),  # the verbatim first-word list includes "small"
            ("can fish fly", "yes/no"),
        ],
    )
    def test_examples(self, text, expected):
        assert classify_intent(Query.from_fields("q", text)) == expected

    def test_empty_query_declarative(self):
        assert classify_intent(Query.from_fields("q", "...")) == "declarative"

    @given(
        st.sampled_from(["what", "is", "banana", "why", "could"]),
        st.lists(st.sampled_from(["x", "yy", "zzz"]), max_size=4),
    )
    def test_depends_only_on_first_token(self, first, rest):
        a = Query.from_fields("a", " ".join([first] + rest))
        b = Query.from_fields("b", " ".join([first] + ["other"] * len(rest)))
        assert classify_intent(a) == classify_intent(b)

    def test_all_outputs_in_taxonomy(self):
        for text in ["when was it", "who did", "how", "which one", "why not", "do it"]:
            assert classify_intent(Query.from_fields("q", text)) in INTENT_CATEGORIES


class TestIntentSimilarity:
    def test_identical_histograms(self):
        h = Counter({"what": 3, "yes/no": 1})
        assert intent_similarity(h, h) == 1.0

    def test_disjoint_mass(self):
        assert intent_similarity(Counter({"what": 3}), Counter({"why": 2})) == 0.0

    def test_hand_value_on_normalized_frequencies(self):
        a = Counter({"what": 3, "yes/no": 1})
        b = Counter({"what": 1, "yes/no": 1})
        # (0.75, 0.25) vs (0.5, 0.5): (0.5 + 0.25) / (0.75 + 0.5) = 0.6
        assert intent_similarity(a, b) == pytest.approx(0.6, abs=1e-12)

    def test_empty_histogram_undefined(self):
        with pytest.raises(ValueError):
            intent_similarity(Counter(), Counter({"what": 1}))


class TestShiftReport:
    def test_self_similarity_is_one(self, tiny_corpus, tiny_queries):
        report = shift_report(tiny_corpus, tiny_queries, tiny_corpus, tiny_queries)
        assert report.doc_lexical_similarity == 1.0
        assert report.query_intent_similarity == 1.0

    def test_synthetic_pair_matches_direct_formula(self, tiny_corpus, tiny_queries):
        from robustdr.corpus import Corpus, Document, QuerySet

        other_corpus = Corpus([Document.from_fields("x1", "the cat the cat fish")])
        other_queries = QuerySet([Query.from_fields("p1", "what now")])
        report = shift_report(tiny_corpus, tiny_queries, other_corpus, other_queries)

        source_counts = Counter()
        for doc in tiny_corpus:
            source_counts.update(doc.tokens)
        target_counts = Counter({"the": 2, "cat": 2, "fish": 1})
        assert report.doc_lexical_similarity == pytest.approx(
            weighted_jaccard(source_counts, target_counts), abs=1e-15
        )
        hist_a = intent_histogram(tiny_queries)
        hist_b = intent_histogram(other_queries)
        assert report.query_intent_similarity == pytest.approx(
            intent_similarity(hist_a, hist_b), abs=1e-15
        )

    def test_report_serializes(self, tiny_corpus, tiny_queries, tmp_path):
        """The report's fields as one table row, each value read back exactly: the
        floats are Python floats, whose repr is their text."""
        report = shift_report(tiny_corpus, tiny_queries, tiny_corpus, tiny_queries)
        d = dataclasses.asdict(report)
        assert set(d) >= {"doc_lexical_similarity", "query_intent_similarity"}
        blobfile.write_table(tmp_path / "report.tsv", list(d), [d.values()])
        header, row = (tmp_path / "report.tsv").read_text().splitlines()
        assert header.split("\t") == list(d)
        assert [float(v) for v in row.split("\t")] == list(d.values())
