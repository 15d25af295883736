"""Desk-scale directional experiments.

Two runnable studies, shared by the acceptance suite and the scripts in
``scripts/``:

* corpus-adaptive pretraining: fine-tuning after span-contrastive pretraining
  on the (source + target) corpora versus fine-tuning from random init, scored
  by zero-shot nDCG@10 on the held-out target task;
* cluster weighting under imbalance: idro / groupdro / uniform weighting on a
  source task whose rare query group holds 15% of the training mass, scored by
  final retrieval loss on the rare group and on all queries, against a fixed
  model-independent negative set.

Each study featurizes its source task once, into one `trainer.FeatureStore`
that every fine-tuning arm trains on. The store ranks the task's queries by
BM25 once, at the deepest depth asked for; the imbalance study asks for 50
first, for the fixed evaluation set's BM25 top 50 minus positives, and the
arms' first-episode top 30 are prefixes of that ranking, masked once. Its
arms start from the same pretrained weights, so the store fits episode 1's
clusters once for all three; later episodes start from each arm's own
weights and are fit per arm. The pretraining study also featurizes its
target task once, into a second store made with the source store's
featurizer, and scores each arm's target nDCG@10 on it
(`retrieval_eval.evaluate`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses, retrieval_eval, synthetic, trainer
from .encoder import Params
from .trainer import Finetuner, RunConfig

_BENCHMARK_SEED = 1000
_IMBALANCE_SEED = 2000


def coco_experiment_config(seed: int) -> RunConfig:
    return RunConfig(
        seed=seed,
        feature_dim=4096,
        embed_dim=48,
        span_len=6,
        pretrain_epochs=6,
        episodes=3,
        steps_per_episode=150,
        batch_size=32,
        negatives_per_query=4,
        mine_depth=30,
        k_clusters=8,
        kmeans_iters=25,
        weighting="idro",
        beta=0.25,
        tau=5e5,
        learning_rate=0.1,
    )


def run_coco_directional(seed: int) -> dict:
    """Target nDCG@10 of fine-tuned-after-pretraining vs fine-tuned-from-scratch."""
    source, target = synthetic.make_two_domain_benchmark(seed=_BENCHMARK_SEED)
    config = coco_experiment_config(seed)

    pretrained = trainer.pretrain_coco(config, [source.corpus, target.corpus]).params
    scratch = Params.init_random(config.feature_dim, config.embed_dim, seed=config.seed)

    store = trainer.training_store(config, source.corpus, source.queries, source.qrels)
    target_store = trainer.FeatureStore(store.featurizer, target.queries, target.corpus,
                                        target.qrels)
    results = {}
    for label, init in (("with_coco", pretrained), ("without_coco", scratch)):
        ft = Finetuner(config, init.copy(), store)
        ft.run()
        record, _ = retrieval_eval.evaluate(ft.params, target_store)
        results[label] = record.ndcg_at_10
    return results


def idro_pretrain_config(seed: int) -> RunConfig:
    return RunConfig(
        seed=seed,
        feature_dim=4096,
        embed_dim=6,
        span_len=6,
        pretrain_epochs=2,
        batch_size=32,
        learning_rate=0.1,
    )


def idro_experiment_config(seed: int, weighting: str) -> RunConfig:
    # embed_dim 6 for ~21 topics makes capacity genuinely scarce, so the final
    # allocation across clusters matters; tau is sized to the raw gradient
    # inner products of this model (~1e4 per row sum). Plain gradient descent
    # keeps per-group progress proportional to the weighted gradient mass.
    return RunConfig(
        seed=seed,
        feature_dim=4096,
        embed_dim=6,
        episodes=3,
        steps_per_episode=100,
        batch_size=64,
        negatives_per_query=4,
        mine_depth=30,
        k_clusters=20,
        kmeans_iters=25,
        weighting=weighting,
        beta=0.25,
        tau=5e5,
        groupdro_step_size=0.2,
        optimizer="sgd",
        learning_rate=0.05,
    )


@dataclass(frozen=True)
class GroupLosses:
    rare: float
    average: float


def _fixed_eval_batch(store: trainer.FeatureStore, n_negatives: int = 8):
    """Model-independent evaluation triplets: first positive + fixed negatives.

    Negatives interleave cross-topic distractors (first documents of the other
    topics, in corpus order) with the store's BM25 top 50 minus the query's
    positives (`trainer.FeatureStore.bm25_unjudged`), so the measured loss
    tracks how precisely a query points at its own topic rather than how it
    fares against random documents. Round t of the interleave takes the
    query's t-th distractor, then its t-th BM25 candidate unless the pool
    already holds it, for as many rounds as the query has distractors, and its
    negatives are the first ``n_negatives`` taken. A round takes one or two,
    so the first ``n_negatives`` rounds of every query are laid out at once.
    Returns one `losses.TripletRows` over the store's rows and the query ids;
    ValueError unless every query gets ``n_negatives``.
    """
    first_doc_of_topic: dict[str, int] = {}
    for j, doc_id in enumerate(store.corpus.ids):
        first_doc_of_topic.setdefault(doc_id.rsplit("-", 1)[0], j)
    topic_at = {topic: i for i, topic in enumerate(first_doc_of_topic)}
    n_topics, n, t = len(topic_at), store.n_queries, np.arange(n_negatives)
    # each query's own topic's place among the topics (n_topics for none)
    own = np.fromiter((topic_at.get(query.id.rsplit("-", 1)[0], n_topics)
                       for query in store.queries), np.intp, n)
    in_round = t < (n_topics - (own < n_topics))[:, None]
    firsts = np.full(n_topics + n_negatives + 1, -1, dtype=np.intp)
    firsts[:n_topics] = list(first_doc_of_topic.values())
    distractor = firsts[t + (t >= own[:, None])]
    unjudged = store.bm25_unjudged(50)
    has = t < unjudged.sizes()[:, None]
    candidate = np.full((n, n_negatives), -1, dtype=np.intp)
    candidate[has] = unjudged.docs[(unjudged.bounds[:-1, None] + t)[has]]
    # A candidate is already held if it is a distractor of its round or of an
    # earlier one; a query's BM25 candidates are distinct.
    held = ((candidate[:, :, None] == distractor[:, None, :]) & (t <= t[:, None])).any(axis=2)
    taken = np.stack([in_round, in_round & has & ~held], axis=2).reshape(n, 2 * n_negatives)
    count = taken.sum(axis=1)
    short = np.flatnonzero(count < n_negatives)
    if short.size:
        raise ValueError(f"query {store.queries[short[0]].id!r}: {count[short[0]]} evaluation "
                         f"negatives, not {n_negatives}")
    rows = np.empty((n, 2 + n_negatives), dtype=np.intp)
    rows[:, 0] = np.arange(n)
    rows[:, 1] = store.positives.docs[store.positives.bounds[:-1]]
    pool = np.stack([distractor, candidate], axis=2).reshape(n, 2 * n_negatives)
    rows[:, 2:] = pool[taken & (np.cumsum(taken, axis=1) <= n_negatives)].reshape(n, n_negatives)
    rows[:, 1:] += store.n_queries  # document positions -> store rows
    return losses.TripletRows(store.block, rows), [query.id for query in store.queries]


def _group_losses(params, batch, qids, groups) -> GroupLosses:
    _, per_item = losses.retrieval_loss(params, batch)
    rare = [loss for loss, qid in zip(per_item, qids) if groups[qid] == "rare"]
    return GroupLosses(rare=float(np.mean(rare)), average=float(np.mean(per_item)))


def run_idro_directional(seed: int) -> dict[str, GroupLosses]:
    """Final rare-group and average retrieval loss for each weighting strategy.

    All three strategies fine-tune the same pretrained checkpoint on one
    feature store of the same 85/15-imbalanced source task and are scored on
    one fixed evaluation batch made from that store.
    """
    task, groups = synthetic.make_imbalanced_source(seed=_IMBALANCE_SEED)
    pretrained = trainer.pretrain_coco(idro_pretrain_config(seed), [task.corpus]).params
    store = trainer.training_store(idro_experiment_config(seed, "idro"), task.corpus,
                                   task.queries, task.qrels)
    eval_batch, eval_qids = _fixed_eval_batch(store)

    results = {}
    for weighting in ("idro", "groupdro", "uniform"):
        config = idro_experiment_config(seed, weighting)
        ft = Finetuner(config, pretrained.copy(), store)
        ft.run()
        results[weighting] = _group_losses(ft.params, eval_batch, eval_qids, groups)
    return results
