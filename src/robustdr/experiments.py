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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import losses, retrieval_eval, synthetic, trainer
from .encoder import Featurizer, Params
from .trainer import Finetuner, RunConfig

_BENCHMARK_SEED = 1000
_IMBALANCE_SEED = 2000


def coco_experiment_config(seed: int) -> RunConfig:
    return RunConfig(
        seed=seed,
        hash_seed=0,
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
    ).validate()


def run_coco_directional(seed: int) -> dict:
    """Target nDCG@10 of fine-tuned-after-pretraining vs fine-tuned-from-scratch."""
    source, target = synthetic.make_two_domain_benchmark(seed=_BENCHMARK_SEED)
    config = coco_experiment_config(seed)
    featurizer = Featurizer(config.feature_dim, config.hash_seed)

    pretrained = trainer.pretrain_coco(config, [source.corpus, target.corpus]).params
    scratch = Params.init_random(config.feature_dim, config.embed_dim, seed=config.seed)

    results = {}
    for label, init in (("with_coco", pretrained), ("without_coco", scratch)):
        ft = Finetuner(config, init.copy(), source.corpus, source.queries, source.qrels)
        ft.run()
        record, _ = retrieval_eval.evaluate(
            ft.params, featurizer, target.corpus, target.queries, target.qrels
        )
        results[label] = record.ndcg_at_10
    return results


def idro_pretrain_config(seed: int) -> RunConfig:
    return RunConfig(
        seed=seed,
        hash_seed=0,
        feature_dim=4096,
        embed_dim=6,
        span_len=6,
        pretrain_epochs=2,
        batch_size=32,
        learning_rate=0.1,
    ).validate()


def idro_experiment_config(seed: int, weighting: str) -> RunConfig:
    # embed_dim 6 for ~21 topics makes capacity genuinely scarce, so the final
    # allocation across clusters matters; tau is sized to the raw gradient
    # inner products of this model (~1e4 per row sum). Plain gradient descent
    # keeps per-group progress proportional to the weighted gradient mass.
    return RunConfig(
        seed=seed,
        hash_seed=0,
        feature_dim=4096,
        embed_dim=6,
        span_len=6,
        pretrain_epochs=2,
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
    ).validate()


@dataclass(frozen=True)
class GroupLosses:
    rare: float
    average: float


def _fixed_eval_batch(task, featurizer, n_negatives=8):
    """Model-independent evaluation triplets: first positive + fixed negatives.

    Negatives interleave cross-topic distractors (first documents of the other
    topics, in corpus order) with BM25 candidates, so the measured loss tracks
    how precisely a query points at its own topic rather than how it fares
    against random documents. Returns one `losses.TripletRows` over a block
    featurized once (query i is row i, then the corpus documents in order)
    and the query ids; ValueError unless every query gets ``n_negatives``.
    """
    index = retrieval_eval.Bm25Index(task.corpus)
    queries = list(task.queries)
    block = featurizer.block(itertools.chain((query.tokens for query in queries),
                                             (doc.tokens for doc in task.corpus)))
    row_of = {doc_id: len(queries) + j for j, doc_id in enumerate(index.ids)}
    qids = [query.id for query in queries]
    rankings = (
        ranked
        for picks in retrieval_eval.block_picks(index, [q.tokens for q in queries], k=50)
        for ranked in retrieval_eval.ranked_lists(qids, index.ids, picks)
    )
    first_doc_of_topic = {}
    for doc in task.corpus:
        topic = doc.id.rsplit("-", 1)[0]
        first_doc_of_topic.setdefault(topic, doc.id)
    distractors_of: dict[str, list[str]] = {}
    rows = np.empty((len(queries), 2 + n_negatives), dtype=np.intp)
    for i, (query, ranking) in enumerate(zip(queries, rankings)):
        positives = task.qrels.positives(query.id)
        own_topic = query.id.rsplit("-", 1)[0]
        distractors = distractors_of.get(own_topic)
        if distractors is None:
            distractors = distractors_of[own_topic] = [
                d for t, d in first_doc_of_topic.items() if t != own_topic
            ]
        judged_positive = set(positives)
        bm25_pool = [d for d in ranking.doc_ids() if d not in judged_positive]
        pool: list[str] = []
        for a, b in zip(distractors, bm25_pool + [None] * len(distractors)):
            if len(pool) >= n_negatives:
                break
            pool.append(a)
            if b is not None and b not in pool:
                pool.append(b)
        if len(pool) < n_negatives:
            raise ValueError(f"query {query.id!r}: {len(pool)} evaluation negatives, "
                             f"not {n_negatives}")
        rows[i] = [i, row_of[positives[0]], *map(row_of.__getitem__, pool[:n_negatives])]
    return losses.TripletRows(block, rows), qids


def _group_losses(params, batch, qids, groups) -> GroupLosses:
    _, per_item = losses.retrieval_loss(params, batch)
    rare = [loss for loss, qid in zip(per_item, qids) if groups[qid] == "rare"]
    return GroupLosses(rare=float(np.mean(rare)), average=float(np.mean(per_item)))


def run_idro_directional(seed: int) -> dict[str, GroupLosses]:
    """Final rare-group and average retrieval loss for each weighting strategy.

    All three strategies fine-tune the same pretrained checkpoint on the same
    85/15-imbalanced source task and are scored on one fixed evaluation batch.
    """
    task, groups = synthetic.make_imbalanced_source(seed=_IMBALANCE_SEED)
    base = idro_experiment_config(seed, "idro")
    featurizer = Featurizer(base.feature_dim, base.hash_seed)
    pretrained = trainer.pretrain_coco(idro_pretrain_config(seed), [task.corpus]).params
    eval_batch, eval_qids = _fixed_eval_batch(task, featurizer)

    results = {}
    for weighting in ("idro", "groupdro", "uniform"):
        config = idro_experiment_config(seed, weighting)
        ft = Finetuner(config, pretrained.copy(), task.corpus, task.queries, task.qrels)
        ft.run()
        results[weighting] = _group_losses(ft.params, eval_batch, eval_qids, groups)
    return results
