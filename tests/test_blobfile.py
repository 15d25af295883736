"""The header+blob file contract, checked on all three formats.

Encoder checkpoints, cluster models and trainer states share one checked
reader: every malformed file must raise BlobFileError naming the path, never a
raw KeyError or a silently wrong object.
"""

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustdr import blobfile
from robustdr.clustering import kmeans_fit, load_cluster_model, save_cluster_model
from robustdr.encoder import EmbeddingMatrix, Params, load_checkpoint, save_checkpoint
from robustdr.errors import BlobFileError
from robustdr.trainer import Finetuner
from tests.test_trainer import tiny_config, tiny_task


@dataclass(repr=False)
class Format:
    name: str
    data: bytes
    header: dict
    payload: bytes
    load: Callable
    probe: Path

    def __repr__(self):
        return self.name


def _finetuner(config, task):
    params = Params.init_random(config.feature_dim, config.embed_dim, config.hidden, seed=5)
    return Finetuner(config, params, task.corpus, task.queries, task.qrels)


def _checkpoint(path):
    save_checkpoint(Params.init_random(20, 4, hidden=True, seed=6), path, hash_seed=3)
    return load_checkpoint


def _clusters(path):
    rng = np.random.Generator(np.random.PCG64(0))
    ids = tuple(f"q{i}" for i in range(12))
    model = kmeans_fit(EmbeddingMatrix(ids=ids, matrix=rng.normal(size=(12, 3))), 3, seed=1)
    save_cluster_model(model, path)
    return load_cluster_model


def _trainer_state(path):
    config, task = tiny_config(), tiny_task()
    writer = _finetuner(config, task)
    writer.run_episode()
    writer.save_state(path)
    return _finetuner(config, task).load_state


@pytest.fixture(scope="module", params=[_checkpoint, _clusters, _trainer_state],
                ids=["checkpoint", "clusters", "trainer-state"])
def fmt(request, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("blobfile")
    valid = tmp / "valid.bin"
    load = request.param(valid)
    data = valid.read_bytes()
    line, _, payload = data.partition(b"\n")
    return Format(request.param.__name__, data, json.loads(line), payload, load, tmp / "probe.bin")


def rejects(fmt, data):
    fmt.probe.write_bytes(data)
    with pytest.raises(BlobFileError, match=re.escape(str(fmt.probe))):
        fmt.load(fmt.probe)


def with_header(fmt, header):
    return json.dumps(header).encode("utf-8") + b"\n" + fmt.payload


def test_valid_file_loads(fmt):
    fmt.probe.write_bytes(fmt.data)
    fmt.load(fmt.probe)


@given(st.data())
def test_truncation_at_any_byte(fmt, data):
    rejects(fmt, fmt.data[: data.draw(st.integers(0, len(fmt.data) - 1))])


@given(st.binary(min_size=1, max_size=64))
def test_appended_bytes(fmt, extra):
    rejects(fmt, fmt.data + extra)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=6,
)


@given(st.one_of(json_values.map(lambda v: json.dumps(v).encode("utf-8")), st.binary(max_size=40)))
def test_header_not_a_json_object(fmt, line):
    rejects(fmt, line.replace(b"\n", b"") + b"\n" + fmt.payload)


@given(st.one_of(st.text(), st.integers(), st.none()))
def test_wrong_format(fmt, value):
    if value == fmt.header["format"]:
        return
    rejects(fmt, with_header(fmt, {**fmt.header, "format": value}))


@given(st.one_of(st.integers(), st.text(), st.none()))
def test_unsupported_version(fmt, value):
    if value == fmt.header["version"]:
        return
    rejects(fmt, with_header(fmt, {**fmt.header, "version": value}))


@given(st.data())
def test_missing_header_field(fmt, data):
    name = data.draw(st.sampled_from(sorted(fmt.header)))
    rejects(fmt, with_header(fmt, {k: v for k, v in fmt.header.items() if k != name}))


@given(st.data())
def test_non_finite_value_in_any_block(fmt, data):
    slot = data.draw(st.integers(0, len(fmt.payload) // 8 - 1))
    value = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    payload = bytearray(fmt.payload)
    payload[8 * slot : 8 * slot + 8] = np.array([value], dtype="<f8").tobytes()
    fmt.probe.write_bytes(fmt.data[: len(fmt.data) - len(fmt.payload)] + bytes(payload))
    with pytest.raises(BlobFileError, match=re.escape(str(fmt.probe)) + r": block \d+ "):
        fmt.load(fmt.probe)


@pytest.fixture(scope="module")
def saved_state(tmp_path_factory):
    """A trainer state of `tiny_config` (512 x 8 encoder, 3 clusters) after one episode."""
    path = tmp_path_factory.mktemp("state") / "state.bin"
    writer = _finetuner(tiny_config(), tiny_task())
    writer.run_episode()
    writer.save_state(path)
    return path


@settings(max_examples=30)
@given(
    feature_dim=st.integers(1, 1024),
    embed_dim=st.integers(1, 12),
    hidden=st.booleans(),
    k_clusters=st.integers(1, 5),
)
def test_trainer_state_blocks_must_match_params(
    saved_state, feature_dim, embed_dim, hidden, k_clusters
):
    if (feature_dim, embed_dim, hidden) == (512, 8, False) and k_clusters >= 3:
        return  # the run that wrote the file
    config = tiny_config(
        feature_dim=feature_dim, embed_dim=embed_dim, hidden=hidden, k_clusters=k_clusters
    )
    with pytest.raises(BlobFileError, match=re.escape(str(saved_state))):
        _finetuner(config, tiny_task()).load_state(saved_state)


@pytest.mark.parametrize("existing", [False, True])
def test_atomic_open_failed_write_leaves_nothing_behind(tmp_path, existing):
    target = tmp_path / "x.tsv"
    if existing:
        target.write_text("old\n")
    with pytest.raises(RuntimeError, match="writer failed"):
        with blobfile.atomic_open(target, "w") as fh:
            fh.write("new\n")
            raise RuntimeError("writer failed")
    assert not (tmp_path / "x.tsv.tmp").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == (["x.tsv"] if existing else [])
    if existing:
        assert target.read_text() == "old\n"
