import dataclasses

import pytest

from robustdr import experiments, retrieval_eval
from robustdr.corpus import QrelSet
from robustdr.encoder import Featurizer, Params
from robustdr.synthetic import make_imbalanced_source, make_two_domain_benchmark
from tests.oracles import fixed_eval_batch_reference


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def judged_negatives(task):
    """The task with each query's top 25 BM25 documents judged: grade 0 unless
    positive, so that filtering by grade differs from filtering by judgment."""
    index = retrieval_eval.Bm25Index(task.corpus)
    grades = {(q, d): task.qrels.grade(q, d) for q in task.qrels.query_ids
              for d in task.qrels.judged(q)}
    for query in task.queries:
        for doc_id in retrieval_eval.search_bm25(index, query.tokens, 25).doc_ids():
            grades.setdefault((query.id, doc_id), 0)
    return dataclasses.replace(task, qrels=QrelSet(grades))


@pytest.mark.parametrize("source", ["imbalanced", "two-domain"])
def test_fixed_eval_batch_bytes_equal_reference(source):
    """The evaluation batch's rows and their group losses against `losses.Triplet`
    objects from the per-candidate `grade` filter with the distractors rebuilt
    per query."""
    if source == "imbalanced":
        task, groups = make_imbalanced_source(seed=experiments._IMBALANCE_SEED)
    else:
        task, _ = make_two_domain_benchmark(seed=experiments._BENCHMARK_SEED)
        task = judged_negatives(task)
        groups = {q.id: "rare" if i % 5 == 0 else "major" for i, q in enumerate(task.queries)}
    dim = 4096
    batch, qids = experiments._fixed_eval_batch(task, Featurizer(dim, 0))
    want_items, want_qids = fixed_eval_batch_reference(task, Featurizer(dim, 0))
    assert qids == want_qids and len(batch) == len(want_items)
    vectors = batch.block.vectors()
    for row, want in zip(batch.rows.tolist(), want_items):
        pairs = list(zip([vectors[r] for r in row],
                         [want.query, want.positive, *want.negatives], strict=True))
        assert all(same_bytes(a.indices, b.indices) and same_bytes(a.counts, b.counts)
                   for a, b in pairs)
    params = Params.init_random(dim, 6, seed=0)
    got = experiments._group_losses(params, batch, qids, groups)
    want = experiments._group_losses(params, want_items, want_qids, groups)
    assert (got.rare.hex(), got.average.hex()) == (want.rare.hex(), want.average.hex())
    if source == "two-domain":  # judged grade-0 candidates, which the filter keeps
        assert any(grade == 0 for q in task.qrels.query_ids
                   for grade in task.qrels.judged(q).values())


def test_fixed_eval_batch_needs_every_negative():
    """Three topics give a query two distractors, so at most four negatives."""
    task, _ = make_imbalanced_source(seed=1, n_major_topics=2, n_rare_topics=1,
                                     docs_per_topic=4, major_queries_per_topic=2,
                                     rare_queries_per_topic=1)
    with pytest.raises(ValueError, match="evaluation negatives, not 8"):
        experiments._fixed_eval_batch(task, Featurizer(64, 0))
