import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from robustdr import blobfile
from robustdr.corpus import Corpus, Document, QrelSet, Query, QuerySet
from robustdr.encoder import CHECKPOINT_FORMAT, FeatureRows, Featurizer, Params

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
    return QrelSet({"q1": {"d1": 2, "d3": 1}, "q2": {"d2": 1}})


def random_tokens(rng, n_tokens=6) -> list[str]:
    """One random text of 1 to ``n_tokens`` tokens from a 40-word vocabulary."""
    return [f"tok{int(rng.integers(40))}" for _ in range(int(rng.integers(1, n_tokens + 1)))]


def random_rows(featurizer: Featurizer, rng, n: int) -> FeatureRows:
    """``n`` random texts featurized into one block, one row each, in order."""
    return featurizer([random_tokens(rng) for _ in range(n)]).all_rows()


def rows_of(items: FeatureRows, *picks) -> FeatureRows:
    """The items of ``items`` at ``picks``, as rows of the same block."""
    return FeatureRows(items.block, items.rows[list(picks)])


@pytest.fixture
def small_encoder():
    """A small random encoder plus its featurizer, for loss/gradient tests."""
    featurizer = Featurizer(dim=48)
    params = Params.init_random(feature_dim=48, embed_dim=6, seed=3)
    return params, featurizer


def save_version_2_checkpoint(params: Params, path) -> None:
    """``params`` as a version-2 checkpoint held them: the same feature-major
    payload, under a header that also named the hash seed (always 0), a hidden
    layer (always false), the dtype and the weight count."""
    fields = {"feature_dim": params.feature_dim, "embed_dim": params.embed_dim,
              "hash_seed": 0, "hidden": False, "dtype": "<f8", "n_params": len(params)}
    blobfile.write(path, CHECKPOINT_FORMAT, 2, fields, [params.flat])
