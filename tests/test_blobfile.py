"""The header+blob file contract, checked on all three formats.

Encoder checkpoints, cluster models and trainer states share one checked
reader: every malformed file must raise BlobFileError naming the path, never a
raw KeyError or a silently wrong object.
"""

import json
import re
import tracemalloc
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
    params = Params.init_random(config.feature_dim, config.embed_dim, seed=5)
    return Finetuner(config, params, task.corpus, task.queries, task.qrels)


def _checkpoint(path):
    save_checkpoint(Params.init_random(20, 4, seed=6), path, hash_seed=3)
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


def test_bool_in_integer_field(fmt):
    """JSON true is no integer: not as the version, not in any integer header field."""
    names = [k for k, v in fmt.header.items() if type(v) is int]
    assert "version" in names and len(names) >= 3
    for name in names:
        rejects(fmt, with_header(fmt, {**fmt.header, name: True}))


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


def _state_blocks(path):
    """(header fields, named blocks) of a trainer state file."""
    header, _, payload = path.read_bytes().partition(b"\n")
    fields = json.loads(header)
    values = np.frombuffer(payload, "<f8")
    ends = np.cumsum([n for _, n in fields["blocks"]])
    return fields, dict(zip([name for name, _ in fields["blocks"]], np.split(values, ends[:-1])))


def _write_state(path, fields, blocks):
    fields = {**fields, "blocks": [[name, int(arr.size)] for name, arr in blocks.items()]}
    blobfile.write(path, fields.pop("format"), fields.pop("version"), fields, blocks.values())


def _dense_moments_v4(fields, blocks):
    """A version-4 state of the 8 x 512 encoder: Adam's moments dense over
    ``flat``, no ``live`` block."""
    fields = {k: v for k, v in fields.items() if k != "n_live"}
    live = blocks["live"].astype(np.int64)
    dense = {}
    for name in ("adam_m", "adam_v"):
        full = np.zeros((8, 512))
        full[:, live] = blocks[name].reshape(8, -1)
        dense[name] = full.ravel()
    return fields, {"flat": blocks["flat"], **dense, "omega": blocks["omega"],
                    "centroids": blocks["centroids"]}


@pytest.mark.parametrize("version", [3, 4])
def test_old_trainer_state_version_rejected(saved_state, tmp_path, version):
    """Version 3 also carried a step counter; version 4 held Adam's moments dense."""
    fields, blocks = _dense_moments_v4(*_state_blocks(saved_state))
    if version == 3:
        fields["global_step"] = fields["optimizer_t"]
    fields["version"] = version
    probe = tmp_path / f"v{version}.bin"
    _write_state(probe, fields, blocks)
    with pytest.raises(BlobFileError, match=re.escape(str(probe)) + ".*version"):
        _finetuner(tiny_config(), tiny_task()).load_state(probe)


def _negated_first_positive(arr):
    arr = arr.copy()
    arr[np.flatnonzero(arr > 0)[0]] *= -1.0
    return arr


_NOT_ASCENDING_IDS = "block live is not ascending column ids"
# name: (an edit of the valid header fields and blocks, the error it must raise)
_CORRUPTIONS = {
    "adam_v": (lambda f, b: b.update(adam_v=_negated_first_positive(b["adam_v"])),
               "block adam_v holds a negative second moment"),
    "optimizer_t": (lambda f, b: f.update(optimizer_t=-1), "optimizer_t is -1"),
    "live-unsorted": (lambda f, b: b.update(live=np.append(b["live"][1::-1], b["live"][2:])),
                      _NOT_ASCENDING_IDS),
    "live-duplicated": (lambda f, b: b.update(live=np.append(b["live"][0], b["live"][:-1])),
                        _NOT_ASCENDING_IDS),
    "live-non-integer": (lambda f, b: b.update(live=np.append(b["live"][0] + 0.5,
                                                               b["live"][1:])),
                         _NOT_ASCENDING_IDS),
    "live-out-of-range": (lambda f, b: b.update(live=np.append(b["live"][:-1], 512.0)),
                          _NOT_ASCENDING_IDS),
    "live-negative": (lambda f, b: b.update(live=np.append(-1.0, b["live"][1:])),
                      _NOT_ASCENDING_IDS),
    "live-longer-than-feature_dim": (
        lambda f, b: b.update(live=np.arange(513.0), adam_m=np.zeros(8 * 513),
                              adam_v=np.zeros(8 * 513)),
        "n_live is 513",
    ),
    "omega-negative": (lambda f, b: b.update(omega=np.array([-0.5, 1.0, 0.5])),
                       "block omega is not positive with sum 1"),
    "omega-sum-not-1": (lambda f, b: b.update(omega=np.array([0.5, 0.5, 0.5])),
                        "block omega is not positive with sum 1"),
    # tiny_config runs 2 episodes
    "episodes_done-negative": (lambda f, b: f.update(episodes_done=-1), "episodes_done is -1"),
    "episodes_done-past-episodes": (lambda f, b: f.update(episodes_done=3),
                                    "episodes_done is 3"),
    "episodes_done-bool": (lambda f, b: f.update(episodes_done=True),
                           "header field 'episodes_done' is missing or has the wrong type"),
}


@pytest.mark.parametrize("name", _CORRUPTIONS)
def test_trainer_state_negative_moment_or_count_rejected(saved_state, tmp_path, name):
    """A negative second moment would reach a sqrt in the next step; a negative
    step count, the bias correction. A ``live`` block must hold ascending column
    ids of the encoder, ``omega`` must be a probability vector, and the episode
    counter an integer from 0 to the run's episodes. A rejected file changes
    nothing in the loading `Finetuner`."""
    fields, blocks = _state_blocks(saved_state)
    edit, message = _CORRUPTIONS[name]
    edit(fields, blocks)
    fields["n_live"] = blocks["live"].size
    probe = tmp_path / "corrupt.bin"
    _write_state(probe, fields, blocks)
    loader = _finetuner(tiny_config(), tiny_task())
    before = (loader.params.flat.tobytes(), loader.optimizer.t, loader.omega.tobytes())
    with pytest.raises(BlobFileError, match=re.escape(f"{probe}: {message}")):
        loader.load_state(probe)
    assert (loader.params.flat.tobytes(), loader.optimizer.t, loader.omega.tobytes()) == before
    assert loader.optimizer.live.size == 0 and loader.cluster_model is None


def test_trainer_state_payload_holds_only_live_moments(tmp_path):
    """Adam's moments take 8 bytes per live column and row, not per parameter,
    and saving allocates less than one parameter vector."""
    config = tiny_config(feature_dim=4096)
    writer = _finetuner(config, tiny_task())
    writer.run_episode()
    tracemalloc.start()
    try:
        writer.save_state(tmp_path / "state.bin")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(writer.params)
    _, _, payload = (tmp_path / "state.bin").read_bytes().partition(b"\n")
    params, live = writer.params, writer.optimizer.live.size
    k, w = writer.cluster_model.centroids.shape
    moments = params.embed_dim * live
    assert 0 < live < config.feature_dim
    assert len(payload) == 8 * (len(params) + live + 2 * moments + k + k * w)


@settings(max_examples=30)
@given(
    feature_dim=st.integers(1, 1024),
    embed_dim=st.integers(1, 12),
    k_clusters=st.integers(1, 5),
)
def test_trainer_state_blocks_must_match_params(saved_state, feature_dim, embed_dim, k_clusters):
    if (feature_dim, embed_dim) == (512, 8) and k_clusters >= 3:
        return  # the run that wrote the file
    config = tiny_config(feature_dim=feature_dim, embed_dim=embed_dim, k_clusters=k_clusters)
    with pytest.raises(BlobFileError, match=re.escape(str(saved_state))):
        _finetuner(config, tiny_task()).load_state(saved_state)


def test_trainer_state_of_hidden_layer_rejected(saved_state, tmp_path):
    """A state written with the removed hidden layer carried Adam's moments of
    its E x E matrix in two more blocks; the block list no longer matches."""
    fields, blocks = _state_blocks(saved_state)
    at = list(blocks).index("adam_v") + 1
    items = list(blocks.items())
    items[at:at] = [("adam_m_h", np.zeros(64)), ("adam_v_h", np.ones(64))]
    probe = tmp_path / "hidden.bin"
    _write_state(probe, fields, dict(items))
    with pytest.raises(BlobFileError, match=re.escape(str(probe)) + ".*adam_m_h"):
        _finetuner(tiny_config(), tiny_task()).load_state(probe)


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
