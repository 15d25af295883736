import dataclasses
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from robustdr import clustering, experiments, losses, retrieval_eval, trainer
from robustdr.corpus import QrelSet
from robustdr.encoder import Featurizer, Params
from robustdr.synthetic import make_imbalanced_source, make_two_domain_benchmark
from tests.oracles import fixed_eval_batch_reference, stack, vectors


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def judged_negatives(task):
    """The task with each query's top 25 BM25 documents judged: grade 0 unless
    positive, so that filtering by grade differs from filtering by judgment."""
    index = retrieval_eval.Bm25Index(task.corpus)
    judgments = {q: task.qrels.judged(q) for q in task.qrels.query_ids}
    for query in task.queries:
        judged = judgments.setdefault(query.id, {})
        for doc_id, _ in retrieval_eval.search_bm25(index, query.tokens, 25).results:
            judged.setdefault(doc_id, 0)
    return dataclasses.replace(task, qrels=QrelSet(judgments))


@pytest.mark.parametrize("source", ["imbalanced", "two-domain"])
def test_fixed_eval_batch_bytes_equal_reference(source):
    """The evaluation batch's rows and their group losses against reference
    `Triplet`s from the per-candidate `grade` filter with the distractors rebuilt
    per query, stacked into a block of their own, one row per slot."""
    if source == "imbalanced":
        task, groups = make_imbalanced_source(seed=experiments._IMBALANCE_SEED)
    else:
        task, _ = make_two_domain_benchmark(seed=experiments._BENCHMARK_SEED)
        task = judged_negatives(task)
        groups = {q.id: "rare" if i % 5 == 0 else "major" for i, q in enumerate(task.queries)}
    dim = 4096
    store = trainer.FeatureStore(Featurizer(dim), task.queries, task.corpus, task.qrels)
    batch, qids = experiments._fixed_eval_batch(store)
    want_items, want_qids = fixed_eval_batch_reference(task, Featurizer(dim))
    assert qids == want_qids and len(batch) == len(want_items)
    rows = vectors(batch.block)
    slots = [[want.query, want.positive, *want.negatives] for want in want_items]
    for row, want in zip(batch.rows.tolist(), slots):
        pairs = list(zip([rows[r] for r in row], want, strict=True))
        assert all(same_bytes(a.indices, b.indices) and same_bytes(a.counts, b.counts)
                   for a, b in pairs)
    stacked = losses.TripletRows(stack([fv for item in slots for fv in item], dim),
                                 np.arange(sum(map(len, slots))).reshape(len(slots), -1))
    params = Params.init_random(dim, 6, seed=0)
    got = experiments._group_losses(params, batch, qids, groups)
    want = experiments._group_losses(params, stacked, want_qids, groups)
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
        experiments._fixed_eval_batch(
            trainer.FeatureStore(Featurizer(64), task.queries, task.corpus, task.qrels))


def test_imbalance_study_prepares_the_task_once():
    """One `run_idro_directional` call featurizes the task once, into one store,
    and builds one BM25 index and one BM25 ranking, at 50 for the evaluation
    batch, whose top 30 give the arms' first-episode pools. The arms start from
    the same weights, so episode 1's clusters are fit once; each later episode
    is fit per arm: 1 + 3 x (episodes - 1) fits."""
    task, groups = make_imbalanced_source(seed=experiments._IMBALANCE_SEED)
    n_texts = len(task.queries) + len(task.corpus)
    config = experiments.idro_experiment_config
    counts = Counter()
    store_init, index_init = trainer.FeatureStore.__init__, retrieval_eval.Bm25Index.__init__
    kmeans_fit = clustering.kmeans_fit
    featurize, block_picks = Featurizer.__call__, retrieval_eval.block_picks

    def counted(key, func):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)
        return wrapper

    def counted_featurize(self, token_lists):
        token_lists = list(token_lists)
        counts["task featurizations"] += len(token_lists) == n_texts
        return featurize(self, token_lists)

    def counted_picks(index, queries, k):
        if isinstance(index, retrieval_eval.Bm25Index):
            counts[f"BM25 rankings at {k}"] += 1
        return block_picks(index, queries, k)

    with (
        mock.patch.object(experiments.synthetic, "make_imbalanced_source",
                          lambda seed: (task, groups)),
        mock.patch.object(experiments, "idro_experiment_config",
                          lambda seed, weighting: config(seed, weighting).replace(
                              episodes=2, steps_per_episode=2)),
        mock.patch.object(trainer.FeatureStore, "__init__", counted("stores", store_init)),
        mock.patch.object(retrieval_eval.Bm25Index, "__init__", counted("indexes", index_init)),
        mock.patch.object(Featurizer, "__call__", counted_featurize),
        mock.patch.object(retrieval_eval, "block_picks", counted_picks),
        mock.patch.object(clustering, "kmeans_fit", counted("k-means fits", kmeans_fit)),
    ):
        results = experiments.run_idro_directional(0)
    assert list(results) == ["idro", "groupdro", "uniform"]
    assert counts == {"stores": 1, "task featurizations": 1, "indexes": 1,
                      "BM25 rankings at 50": 1, "k-means fits": 1 + 3 * (2 - 1)}


def test_coco_study_featurizes_each_task_once():
    """One `run_coco_directional` call featurizes the source task into one store
    and the target task once, into a second store made with the first one's
    featurizer, on which both arms are scored: 2 stores, 1 featurizer call over
    the target's texts and 2 evaluations."""
    source, target = make_two_domain_benchmark(seed=experiments._BENCHMARK_SEED)
    n_target = len(target.queries) + len(target.corpus)
    assert n_target == 1150
    config = experiments.coco_experiment_config
    counts = Counter()
    store_init, featurize, evaluate = (trainer.FeatureStore.__init__, Featurizer.__call__,
                                       retrieval_eval.evaluate)

    def counted(key, func):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)
        return wrapper

    def counted_featurize(self, token_lists):
        token_lists = list(token_lists)
        counts["target featurizations"] += len(token_lists) == n_target
        return featurize(self, token_lists)

    with (
        mock.patch.object(experiments.synthetic, "make_two_domain_benchmark",
                          lambda seed: (source, target)),
        mock.patch.object(experiments, "coco_experiment_config",
                          lambda seed: config(seed).replace(
                              pretrain_epochs=1, episodes=2, steps_per_episode=2)),
        mock.patch.object(trainer.FeatureStore, "__init__", counted("stores", store_init)),
        mock.patch.object(Featurizer, "__call__", counted_featurize),
        mock.patch.object(retrieval_eval, "evaluate", counted("evaluations", evaluate)),
    ):
        results = experiments.run_coco_directional(0)
    assert list(results) == ["with_coco", "without_coco"]
    assert counts == {"stores": 2, "target featurizations": 1, "evaluations": 2}
