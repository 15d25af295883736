"""The names the package exports at its top level."""

import robustdr

PUBLIC = [
    "BlobFileError",
    "ClusterLayout",
    "ConfigError",
    "Corpus",
    "CorpusFormatError",
    "Document",
    "FeatureRows",
    "FeatureStore",
    "Featurizer",
    "Finetuner",
    "InvariantError",
    "Params",
    "QrelSet",
    "Query",
    "QuerySet",
    "RunConfig",
    "TripletRows",
    "alpha_weights",
    "coco_loss",
    "idro_loss",
    "load_corpus",
    "load_qrels",
    "load_queries",
    "omega_update",
    "pretrain_coco",
    "r_matrix",
    "retrieval_loss",
    "sample_span_pair",
    "tokenize",
    "training_store",
]


def test_all_is_pinned_and_resolves():
    assert robustdr.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(robustdr, name).__name__ == name


def test_object_form_is_gone():
    """Texts enter the package as rows of a feature block only: no feature vector
    objects, triplet objects, one-text encode and score, or embedding path
    beside the feature store."""
    for name in ("Triplet", "FeatureVector", "encode", "score", "EmbeddingMatrix",
                 "embed_items"):
        assert not hasattr(robustdr, name), name
    for module, names in ((robustdr.encoder, ("FeatureVector", "encode", "score",
                                              "EmbeddingMatrix", "embed_items")),
                          (robustdr.losses, ("Triplet", "TripletBatch", "SpanPairBatch"))):
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(robustdr.Featurizer, "many")
    assert not hasattr(robustdr.encoder.FeatureBlock, "vectors")
    assert not hasattr(robustdr.FeatureRows, "of")
