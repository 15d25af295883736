"""Representation-quality metrics: alignment and uniformity.

Embeddings are L2-normalized before either metric (zero rows are left as
zero); retrieval scoring elsewhere stays unnormalized. Alignment is the mean
squared distance of positive pairs; uniformity is the log-mean Gaussian
potential over distinct unordered pairs, so identical embeddings score 0 and
more spread scores more negative.
"""

from __future__ import annotations

import numpy as np

from .clustering import normalize_rows
from .corpus import Corpus, sample_span_pair
from .encoder import Featurizer, Params, encode_many


def alignment(x: np.ndarray, x_pos: np.ndarray) -> float:
    """Mean squared Euclidean distance between normalized positive pairs."""
    x = np.asarray(x, dtype=np.float64)
    x_pos = np.asarray(x_pos, dtype=np.float64)
    if x.shape != x_pos.shape:
        raise ValueError("paired embedding arrays must have identical shapes")
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("need at least one positive pair")
    a = normalize_rows(x)
    b = normalize_rows(x_pos)
    return float(np.mean(np.sum((a - b) ** 2, axis=1)))


def uniformity(sample: np.ndarray) -> float:
    """log mean of exp(-2 * squared distance) over distinct unordered pairs."""
    x = np.asarray(sample, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a 2-d embedding array")
    x = normalize_rows(x)
    n = x.shape[0]
    if n < 2:
        raise ValueError("uniformity needs at least two embeddings")
    gram = x @ x.T
    sq_norms = np.diag(gram)
    d2 = sq_norms[:, None] - 2.0 * gram + sq_norms[None, :]
    iu = np.triu_indices(n, k=1)
    return float(np.log(np.mean(np.exp(-2.0 * np.maximum(d2[iu], 0.0)))))


def diagnostics_report(
    params: Params,
    featurizer: Featurizer,
    corpus: Corpus,
    n_pairs: int = 256,
    span_len: int = 8,
    seed: int = 0,
    corpus_id: str = "",
) -> dict:
    """Alignment over sampled span pairs and uniformity over their embeddings.

    Positive pairs are disjoint span pairs from the same document, matching
    the pretraining positive distribution; documents too short to host a pair
    are skipped.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    eligible = [doc for doc in corpus if len(doc.tokens) >= 2 * span_len]
    if not eligible:
        raise ValueError("no documents long enough to sample span pairs")
    pairs = []
    for _ in range(n_pairs):
        doc = eligible[int(rng.integers(len(eligible)))]
        pairs.append(sample_span_pair(doc, span_len, rng))
    emb_first = encode_many(params, featurizer(first for first, _ in pairs).all_rows())
    emb_second = encode_many(params, featurizer(second for _, second in pairs).all_rows())
    points = np.vstack([emb_first, emb_second])
    return {
        "alignment": alignment(emb_first, emb_second),
        "uniformity": uniformity(points),
        "n_pairs": len(pairs),
        "n_points": int(points.shape[0]),
        "corpus_id": corpus_id,
    }
