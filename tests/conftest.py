import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from robustdr.corpus import Corpus, Document, QrelSet, Query, QuerySet
from robustdr.encoder import Featurizer, Params

settings.register_profile(
    "repeatable",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repeatable")


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(1234))


@pytest.fixture
def tiny_corpus():
    docs = [
        Document.from_fields("d1", "the cat sat on the mat"),
        Document.from_fields("d2", "the dog chased the cat"),
        Document.from_fields("d3", "fish swim in water"),
    ]
    return Corpus(docs)


@pytest.fixture
def tiny_queries():
    return QuerySet(
        [
            Query.from_fields("q1", "cat water"),
            Query.from_fields("q2", "dog"),
        ]
    )


@pytest.fixture
def tiny_qrels():
    return QrelSet({("q1", "d1"): 2, ("q1", "d3"): 1, ("q2", "d2"): 1})


def random_feature_vector(featurizer: Featurizer, rng, n_tokens=6):
    tokens = [f"tok{int(rng.integers(40))}" for _ in range(int(rng.integers(1, n_tokens + 1)))]
    return featurizer(tokens)


@pytest.fixture
def small_encoder():
    """A small random encoder plus its featurizer, for loss/gradient tests."""
    featurizer = Featurizer(dim=48, seed=7)
    params = Params.init_random(feature_dim=48, embed_dim=6, seed=3)
    return params, featurizer
