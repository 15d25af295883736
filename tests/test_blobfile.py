"""The header+blob file contract, checked on all three formats.

Encoder checkpoints, cluster models and trainer states share one checked
reader: every malformed file must raise BlobFileError naming the path, never a
raw KeyError or a silently wrong object.
"""

import hashlib
import json
import re
import shutil
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robustdr import blobfile
from robustdr.clustering import kmeans_fit, load_cluster_model, save_cluster_model
from robustdr.encoder import Params, load_checkpoint, save_checkpoint
from robustdr.errors import BlobFileError
from robustdr.trainer import Finetuner, training_store
from tests.conftest import save_version_2_checkpoint
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
    store = training_store(config, task.corpus, task.queries, task.qrels)
    return Finetuner(config, params, store)


def _checkpoint(path):
    save_checkpoint(Params.init_random(20, 4, seed=6), path)
    return load_checkpoint


def _cluster_model(width):
    rng = np.random.Generator(np.random.PCG64(0))
    return kmeans_fit(rng.normal(size=(12, width)), 3, seed=1)


def _clusters(path):
    save_cluster_model(_cluster_model(3), path)
    return load_cluster_model


def _trainer_state(path):
    config, task = tiny_config(), tiny_task()
    writer = _finetuner(config, task)
    writer.run_episode()
    writer.save_state(path, path.with_name("valid.ckpt"))
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
    """A trainer state of `tiny_config` (512 x 8 encoder, 3 clusters) after one episode,
    paired with the checkpoint state.ckpt beside it."""
    path = tmp_path_factory.mktemp("state") / "state.bin"
    writer = _finetuner(tiny_config(), tiny_task())
    writer.run_episode()
    writer.save_state(path, path.with_name("state.ckpt"))
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


def _live_subset(blocks, keep):
    """Adam's L x 8 blocks over the live columns where ``keep`` is true only."""
    return {"live": blocks["live"][keep], **{name: blocks[name].reshape(-1, 8)[keep].ravel()
                                             for name in ("adam_m", "adam_v")}}


def _embedding_major_in_state_v8(path):
    """A version-8 state of the 8 x 512 encoder: Adam's moments 8 x L, one row per
    embedding dimension, and the SHA-256 of the paired weights held embedding-major."""
    fields, blocks = _state_blocks(path)
    params = load_checkpoint(path.with_name(fields["checkpoint"]))
    del fields["weights_crc32"]
    fields["weights_sha256"] = hashlib.sha256(params.W.tobytes()).hexdigest()
    return fields, {**blocks, **{name: blocks[name].reshape(-1, 8).T.ravel()
                                 for name in ("adam_m", "adam_v")}}


def _grown_live_in_state_v7(fields, blocks):
    """A version-7 state of the 8 x 512 encoder: Adam's live columns grown step by
    step, so only those a step had touched (a nonzero second moment), and counted
    in an ``n_live`` header field."""
    keep = blocks["adam_v"].reshape(8, -1).any(axis=0)
    blocks = {"live": blocks["live"][keep], **{name: blocks[name].reshape(8, -1)[:, keep].ravel()
                                               for name in ("adam_m", "adam_v")}}
    return {**fields, "n_live": blocks["live"].size}, blocks


def _clusters_in_state_v6(fields, blocks):
    """A version-6 state of the 8 x 512 encoder: the robust weights in an ``omega``
    block and a cluster model, its fields in the header and its ``centroids`` as
    the last block."""
    model = _cluster_model(8)
    fields.update(n_clusters=3, cluster_model={
        "n_clusters": 3, "width": 8, "normalized": True, "objective": model.objective,
        "assignment": {f"q{i}": int(c) for i, c in enumerate(model.labels)}})
    return fields, {**blocks, "omega": np.full(3, 1 / 3), "centroids": model.centroids.ravel()}


def _weights_in_state_v5(path, fields, blocks):
    """A version-5 state of the 8 x 512 encoder: the weights in a leading ``flat``
    block, no paired checkpoint."""
    params = load_checkpoint(path.with_name(fields.pop("checkpoint")))
    del fields["weights_sha256"]
    return fields, {"flat": params.W.ravel(), **blocks}


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


@pytest.mark.parametrize("version", [3, 4, 5, 6, 7, 8])
def test_old_trainer_state_version_rejected(saved_state, tmp_path, version):
    """Version 3 also carried a step counter; version 4 held Adam's moments dense;
    version 5 held the weights, a second copy of those in the episode's checkpoint;
    version 6 held ``omega`` and the cluster model, which the next episode refits;
    version 7 held Adam's moments over the columns touched so far only; version 8
    held them embedding-major, paired with an embedding-major checkpoint by SHA-256."""
    fields, blocks = _embedding_major_in_state_v8(saved_state)
    if version <= 7:
        fields, blocks = _grown_live_in_state_v7(fields, blocks)
    if version <= 6:
        fields, blocks = _clusters_in_state_v6(fields, blocks)
    if version <= 5:
        fields, blocks = _weights_in_state_v5(saved_state, fields, blocks)
    if version <= 4:
        fields, blocks = _dense_moments_v4(fields, blocks)
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


def _resaved(d, name, params, save=save_checkpoint):
    """The file name of ``params`` saved by ``save`` as a checkpoint in directory ``d``."""
    save(params, d / name)
    return name


_NOT_THIS_RUNS_LIVE = "block live is not this run's feature columns"
_PAIRED = "paired checkpoint {dir}/"
# name: (an edit of the valid header fields and blocks, which may write files in
# the probe's directory d, where the valid paired checkpoint lies; the error it
# must raise, with {dir} standing for d)
_CORRUPTIONS = {
    "adam_v": (lambda f, b, d: b.update(adam_v=_negated_first_positive(b["adam_v"])),
               "block adam_v holds a negative second moment"),
    "optimizer_t": (lambda f, b, d: f.update(optimizer_t=-1), "optimizer_t is -1"),
    "live-unsorted": (lambda f, b, d: b.update(live=np.append(b["live"][1::-1], b["live"][2:])),
                      _NOT_THIS_RUNS_LIVE),
    "live-duplicated": (lambda f, b, d: b.update(live=np.append(b["live"][0], b["live"][:-1])),
                        _NOT_THIS_RUNS_LIVE),
    "live-non-integer": (lambda f, b, d: b.update(live=np.append(b["live"][0] + 0.5,
                                                                  b["live"][1:])),
                         _NOT_THIS_RUNS_LIVE),
    "live-out-of-range": (lambda f, b, d: b.update(live=np.append(b["live"][:-1], 512.0)),
                          _NOT_THIS_RUNS_LIVE),
    "live-negative": (lambda f, b, d: b.update(live=np.append(-1.0, b["live"][1:])),
                      _NOT_THIS_RUNS_LIVE),
    "live-longer-than-feature_dim": (
        lambda f, b, d: b.update(live=np.arange(513.0), adam_m=np.zeros(8 * 513),
                                 adam_v=np.zeros(8 * 513)),
        "blocks [['live', 513], ['adam_m', 4104], ['adam_v', 4104]] do not match this run's",
    ),
    "live-shifted-column": (lambda f, b, d: b.update(live=_shifted_column(b["live"])),
                            _NOT_THIS_RUNS_LIVE),
    # tiny_config runs 2 episodes
    "episodes_done-negative": (lambda f, b, d: f.update(episodes_done=-1), "episodes_done is -1"),
    "episodes_done-past-episodes": (lambda f, b, d: f.update(episodes_done=3),
                                    "episodes_done is 3"),
    "episodes_done-bool": (lambda f, b, d: f.update(episodes_done=True),
                           "header field 'episodes_done' is missing or has the wrong type"),
    "checkpoint-missing": (lambda f, b, d: f.update(checkpoint="missing.ckpt"),
                           _PAIRED + "missing.ckpt is missing"),
    "checkpoint-other-weights": (
        lambda f, b, d: f.update(checkpoint=_resaved(d, "other.ckpt",
                                                     Params.init_random(512, 8, seed=9))),
        _PAIRED + "other.ckpt holds other weights than the state's weights_crc32",
    ),
    "checkpoint-other-shape": (
        lambda f, b, d: f.update(checkpoint=_resaved(d, "other.ckpt",
                                                     Params.init_random(256, 8, seed=9))),
        _PAIRED + "other.ckpt has feature_dim 256, this run 512",
    ),
    "checkpoint-version-2": (  # the same weights, as the previous format held them
        lambda f, b, d: f.update(checkpoint=_resaved(
            d, "other.ckpt", load_checkpoint(d / f["checkpoint"]), save_version_2_checkpoint)),
        _PAIRED + "other.ckpt: unsupported robustdr-encoder version 2",
    ),
    "checkpoint-parent-dir": (lambda f, b, d: f.update(checkpoint="../x.ckpt"),
                              "checkpoint '../x.ckpt' is not a bare file name"),
    "checkpoint-absolute": (lambda f, b, d: f.update(checkpoint=str(d / f["checkpoint"])),
                            "checkpoint '{dir}/state.ckpt' is not a bare file name"),
    "checkpoint-not-a-string": (lambda f, b, d: f.update(checkpoint=7),
                                "header field 'checkpoint' is missing or has the wrong type"),
}


@pytest.mark.parametrize("name", _CORRUPTIONS)
def test_trainer_state_negative_moment_or_count_rejected(saved_state, tmp_path, name):
    """A negative second moment would reach a sqrt in the next step; a negative
    step count, the bias correction. A ``live`` block must hold this run's
    feature columns, and the episode counter must be an integer from 0 to the
    run's episodes. The paired checkpoint must be a file beside the state, of
    the current checkpoint version, of this run's encoder and of the weights
    the state's digest names. A rejected file changes nothing in the loading
    `Finetuner`."""
    fields, blocks = _state_blocks(saved_state)
    shutil.copy(saved_state.with_name(fields["checkpoint"]), tmp_path)
    edit, message = _CORRUPTIONS[name]
    edit(fields, blocks, tmp_path)
    _assert_rejected_unchanged(tmp_path / "corrupt.bin", fields, blocks,
                               message.format(dir=tmp_path))


def _shifted_column(live):
    """``live`` with one column moved up by one, into a gap, so it stays ascending."""
    live = live.copy()
    live[np.flatnonzero(np.diff(live) > 1)[0]] += 1
    return live


def _assert_rejected_unchanged(probe, fields, blocks, message):
    """Loading the state of ``fields`` and ``blocks``, written to ``probe``, raises
    ``message`` and leaves the loading `Finetuner` as it was built."""
    _write_state(probe, fields, blocks)
    loader = _finetuner(tiny_config(), tiny_task())
    opt = loader.optimizer

    def state():
        return (loader.params.flat.tobytes(), opt.t, loader.omega.tobytes(), opt.live.tobytes(),
                opt.m_w.tobytes(), opt.v_w.tobytes(), loader.episodes_done)

    before = state()
    with pytest.raises(BlobFileError, match=re.escape(f"{probe}: {message}")):
        loader.load_state(probe)
    assert state() == before
    assert not opt.m_w.any() and loader.cluster_model is None


@pytest.mark.parametrize("edit", ["grown-subset", "shifted-column"])
def test_trainer_state_of_other_live_columns_rejected(saved_state, tmp_path, edit):
    """Adam's live columns are the run's feature columns, fixed before its first
    step. A state over other columns is rejected: a subset, such as a live set
    grown every step held before the run had touched them all, or the run's
    columns with one moved."""
    fields, blocks = _state_blocks(saved_state)
    shutil.copy(saved_state.with_name(fields["checkpoint"]), tmp_path)
    live = blocks["live"]
    if edit == "grown-subset":
        blocks = _live_subset(blocks, np.arange(live.size) % 2 == 0)
        n, m = blocks["live"].size, 8 * blocks["live"].size
        message = (f"blocks [['live', {n}], ['adam_m', {m}], ['adam_v', {m}]] do not match "
                   f"this run's [['live', {live.size}], ['adam_m', {8 * live.size}], "
                   f"['adam_v', {8 * live.size}]]")
    else:
        blocks["live"] = _shifted_column(live)
        message = _NOT_THIS_RUNS_LIVE
    _assert_rejected_unchanged(tmp_path / "other_live.bin", fields, blocks, message)


def test_trainer_state_payload_holds_only_live_moments(tmp_path):
    """The state holds no weights, no robust weights and no cluster model, and
    Adam's moments take 8 bytes per live column and row, not per parameter; the
    weights are stored once, in the paired checkpoint. Under gradient descent the
    payload is empty. Saving both allocates less than one parameter vector."""
    config = tiny_config(feature_dim=4096)
    writer = _finetuner(config, tiny_task())
    writer.run_episode()
    tracemalloc.start()
    try:
        writer.save_state(tmp_path / "state.bin", tmp_path / "state.ckpt")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(writer.params)
    _, _, payload = (tmp_path / "state.bin").read_bytes().partition(b"\n")
    params, live = writer.params, writer.optimizer.live.size
    moments = params.embed_dim * live
    assert 0 < live < config.feature_dim
    assert len(payload) == 8 * (live + 2 * moments)
    _, _, weights = (tmp_path / "state.ckpt").read_bytes().partition(b"\n")
    assert weights == params.flat.tobytes()

    sgd = _finetuner(tiny_config(feature_dim=4096, optimizer="sgd"), tiny_task())
    sgd.run_episode()
    sgd.save_state(tmp_path / "sgd.bin", tmp_path / "sgd.ckpt")
    assert (tmp_path / "sgd.bin").read_bytes().partition(b"\n")[2] == b""


def test_state_checkpoint_elsewhere_rejected(tmp_path):
    """The state names its checkpoint by file name, so the pair shares a directory."""
    writer = _finetuner(tiny_config(), tiny_task())
    (tmp_path / "other").mkdir()
    with pytest.raises(ValueError, match="must sit next to the state"):
        writer.save_state(tmp_path / "state.bin", tmp_path / "other" / "state.ckpt")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["other"]


@settings(max_examples=30)
@given(
    feature_dim=st.integers(1, 1024),
    embed_dim=st.integers(1, 12),
    k_clusters=st.integers(1, 5),
)
# Only the feature count differs: the state's live columns, hashed into 512
# features, are not this run's.
@example(feature_dim=1024, embed_dim=8, k_clusters=3)
def test_trainer_state_blocks_must_match_params(saved_state, feature_dim, embed_dim, k_clusters):
    config = tiny_config(feature_dim=feature_dim, embed_dim=embed_dim, k_clusters=k_clusters)
    loader = _finetuner(config, tiny_task())
    if (feature_dim, embed_dim) == (512, 8):
        # the encoder that wrote the file; the next episode refits any cluster count
        loader.load_state(saved_state)
        return
    with pytest.raises(BlobFileError, match=re.escape(str(saved_state))):
        loader.load_state(saved_state)


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


def test_read_holds_the_payload_once(tmp_path):
    """A load reads the payload into one array and makes its blocks views of it."""
    params = Params.init_random(4096, 64, seed=6)
    save_checkpoint(params, tmp_path / "w.ckpt")
    tracemalloc.start()
    try:
        loaded = load_checkpoint(tmp_path / "w.ckpt")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.flat.tobytes() == params.flat.tobytes()
    assert peak < 1.25 * 8 * len(params)


def test_long_first_line_rejected_within_the_header_limit(tmp_path):
    """A 32-MiB first line that opens like a header is refused after 4096 bytes of it,
    not read whole."""
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"{" + b"x" * ((32 << 20) - 1))
    tracemalloc.start()
    try:
        message = f"{path}: the first line is not a JSON object of at most 4096 bytes"
        with pytest.raises(BlobFileError, match=re.escape(message)):
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_header_over_the_limit_not_written(tmp_path):
    """A header line of 4096 bytes, newline included, is written and read back; one
    byte more, which the reader would refuse, is not written."""
    pad = 4096 - len(json.dumps({"format": "probe", "pad": "", "version": 1}) + "\n")
    blobfile.write(tmp_path / "fits.bin", "probe", 1, {"pad": "p" * pad}, [])
    assert len((tmp_path / "fits.bin").read_bytes()) == 4096
    header, _ = blobfile.read(tmp_path / "fits.bin", "probe", 1, {"pad": str}, lambda h: [])
    assert header["pad"] == "p" * pad
    with pytest.raises(ValueError, match="header of 4097 bytes is over 4096"):
        blobfile.write(tmp_path / "over.bin", "probe", 1, {"pad": "p" * (pad + 1)}, [])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fits.bin"]


def test_header_without_brace_rejected_before_reading_the_line(tmp_path):
    """A 32-MiB file with no newline is rejected from its first byte, not read whole."""
    path = tmp_path / "x.ckpt"
    path.write_bytes(b"x" * (32 << 20))
    tracemalloc.start()
    try:
        message = f"{path}: the first line is not a JSON object"
        with pytest.raises(BlobFileError, match=re.escape(message)):
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
