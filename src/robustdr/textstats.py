"""Distribution-shift measurement between a source and a target dataset.

Document shift is the weighted Jaccard similarity of unigram frequency tables;
query shift is the weighted Jaccard similarity of first-word intent-type
histograms, compared as relative frequencies.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .corpus import Corpus, Query, QuerySet

logger = logging.getLogger(__name__)

WH_WORDS = ("what", "when", "who", "how", "where", "why", "which")

# First words that mark a yes/no question. The list is applied verbatim,
# including the odd token "small".
YES_NO_FIRST_WORDS = frozenset(
    {
        "is", "was", "are", "were", "do", "does", "did", "have", "has", "had",
        "should", "can", "could", "would", "am", "small",
    }
)

INTENT_CATEGORIES = WH_WORDS + ("yes/no", "declarative")


def build_freq_table(token_streams: Iterable[Iterable[str]]) -> Counter:
    """Aggregate token counts over an iterable of token streams."""
    table: Counter = Counter()
    for stream in token_streams:
        table.update(stream)
    return table


def weighted_jaccard(s: Mapping[str, float], t: Mapping[str, float]) -> float:
    """sum_k min(s_k, t_k) / sum_k max(s_k, t_k) over the union of keys.

    Symmetric, in [0, 1], and invariant to scaling both tables by the same
    positive constant.
    """
    if not s and not t:
        raise ValueError("weighted_jaccard is undefined for two empty tables")
    num = 0.0
    den = 0.0
    for key in sorted(set(s) | set(t)):
        a = float(s.get(key, 0.0))
        b = float(t.get(key, 0.0))
        num += min(a, b)
        den += max(a, b)
    if den == 0.0:
        raise ValueError("weighted_jaccard is undefined for all-zero tables")
    return num / den


def classify_intent(query: Query) -> str:
    """Map a query to one of the nine intent categories by its first token."""
    if not query.tokens:
        logger.warning("query %r has no tokens; classified declarative", query.id)
        return "declarative"
    first = query.tokens[0]
    if first in WH_WORDS:
        return first
    if first in YES_NO_FIRST_WORDS:
        return "yes/no"
    return "declarative"


def intent_histogram(queries: Iterable[Query]) -> Counter:
    """Counts over the nine intent categories for a query collection."""
    return Counter(classify_intent(q) for q in queries)


def intent_similarity(a: Mapping[str, float], b: Mapping[str, float]) -> float:
    """Weighted Jaccard of two intent histograms, compared as relative frequencies."""
    total_a = sum(a.values())
    total_b = sum(b.values())
    if total_a <= 0 or total_b <= 0:
        raise ValueError("intent_similarity is undefined for an empty histogram")
    norm_a = {k: v / total_a for k, v in a.items()}
    norm_b = {k: v / total_b for k, v in b.items()}
    return weighted_jaccard(norm_a, norm_b)


@dataclass(frozen=True)
class ShiftReport:
    doc_lexical_similarity: float
    query_intent_similarity: float
    source_docs: int
    target_docs: int
    source_queries: int
    target_queries: int


def shift_report(
    source_corpus: Corpus,
    source_queries: QuerySet,
    target_corpus: Corpus,
    target_queries: QuerySet,
) -> ShiftReport:
    """Measure document-lexicon and query-intent similarity between two datasets.

    Document similarity uses raw corpus-wide token counts; query similarity
    compares normalized intent-type frequencies, since the two query sets may
    differ in size.
    """
    doc_sim = weighted_jaccard(
        build_freq_table(doc.tokens for doc in source_corpus),
        build_freq_table(doc.tokens for doc in target_corpus),
    )
    query_sim = intent_similarity(
        intent_histogram(source_queries), intent_histogram(target_queries)
    )
    return ShiftReport(
        doc_lexical_similarity=doc_sim,
        query_intent_similarity=query_sim,
        source_docs=len(source_corpus),
        target_docs=len(target_corpus),
        source_queries=len(source_queries),
        target_queries=len(target_queries),
    )
