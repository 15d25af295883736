"""Desk-scale zero-shot dense retrieval.

Span-contrastive pretraining on target corpora, cluster-robust fine-tuning on
labeled source data, exhaustive dense/BM25 retrieval with ranking metrics,
distribution-shift measurement, and representation diagnostics.
"""

from .corpus import (
    Corpus,
    Document,
    QrelSet,
    Query,
    QuerySet,
    load_corpus,
    load_qrels,
    load_queries,
    sample_span_pair,
    tokenize,
)
from .encoder import EmbeddingMatrix, Featurizer, Params, encode, score
from .errors import BlobFileError, ConfigError, CorpusFormatError, InvariantError
from .idro import alpha_weights, idro_loss, omega_update, r_matrix
from .losses import Triplet, coco_loss, retrieval_loss
from .trainer import Finetuner, RunConfig, pretrain_coco

__version__ = "0.1.0"

__all__ = [
    "BlobFileError",
    "ConfigError",
    "Corpus",
    "CorpusFormatError",
    "Document",
    "EmbeddingMatrix",
    "Featurizer",
    "Finetuner",
    "InvariantError",
    "Params",
    "QrelSet",
    "Query",
    "QuerySet",
    "RunConfig",
    "Triplet",
    "alpha_weights",
    "coco_loss",
    "encode",
    "idro_loss",
    "load_corpus",
    "load_qrels",
    "load_queries",
    "omega_update",
    "pretrain_coco",
    "r_matrix",
    "retrieval_loss",
    "sample_span_pair",
    "score",
    "tokenize",
]
