"""Damaged dataset and checkpoint files fail only as `KwbiasError`.

A file cut short at any byte, or with any one bit of its framing, JSON
header or payload flipped, must raise a `KwbiasError` subclass: never
load, and never fail as a `struct`, `numpy`, `KeyError` or `TypeError`
traceback.  A load of one dataset record, or of a checkpoint against one
already loaded, reads and verifies only the arrays it returns, so damage
anywhere else goes unread.
"""

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwbias import synth, training
from kwbias.container import read_container, write_container
from kwbias.errors import KwbiasError
from kwbias.model import ModelConfig, init_params, init_prefix
from kwbias.synth import (
    SynthError,
    SynthSpec,
    dataset_load,
    dataset_save,
    dataset_transcripts,
    generate_corpus,
    spec_hash,
)
from kwbias.training import CheckpointError, checkpoint_load, checkpoint_save

SPEC = SynthSpec(train_size=4, dev_size=2, test_size=2, n_mels=4, seed=3)
MODEL = ModelConfig(d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=1, d_ff=16,
                    vocab_size=40, n_mels=4, max_src_frames=64, max_tgt_len=32)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """kind -> (original bytes, path to write damaged copies to, loader)."""
    root = tmp_path_factory.mktemp("containers")
    splits, _ = generate_corpus(SPEC)
    dataset_save(root / "good.ds", splits["test"], SPEC)
    params = init_params(MODEL, seed=3)
    init_prefix(params, 2, seed=3)
    checkpoint_save(root / "good.ckpt", params, "0" * 64, seed=3)
    files = {
        "dataset": ((root / "good.ds").read_bytes(), root / "bad.ds", dataset_load),
        "checkpoint": ((root / "good.ckpt").read_bytes(), root / "bad.ckpt", checkpoint_load),
    }
    for blob, path, load in files.values():
        path.write_bytes(blob)
        load(path)  # undamaged files load, so every failure below comes from the damage
    return files


def _header_end(blob: bytes) -> int:
    """Length of the magic, the header length and the JSON header."""
    return 16 + struct.unpack_from("<Q", blob, 8)[0]


def _flip(blob: bytes, bit: int) -> bytes:
    damaged = bytearray(blob)
    damaged[bit // 8] ^= 1 << (bit % 8)
    return bytes(damaged)


def _raises_kwbias_error(path, blob, load) -> None:
    path.write_bytes(blob)
    with pytest.raises(KwbiasError):
        load(path)


@pytest.mark.parametrize("kind", ["dataset", "checkpoint"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_truncated_file_loads_or_raises_kwbias_error(saved, kind, data):
    blob, path, load = saved[kind]
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    _raises_kwbias_error(path, blob[:cut], load)


@pytest.mark.parametrize("kind", ["dataset", "checkpoint"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_header_bit_flip_loads_or_raises_kwbias_error(saved, kind, data):
    blob, path, load = saved[kind]
    bit = data.draw(st.integers(0, 8 * _header_end(blob) - 1), label="bit")
    _raises_kwbias_error(path, _flip(blob, bit), load)


@pytest.mark.parametrize("kind", ["dataset", "checkpoint"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_payload_bit_flip_raises_kwbias_error(saved, kind, data):
    blob, path, load = saved[kind]
    bit = data.draw(st.integers(8 * _header_end(blob), 8 * len(blob) - 1), label="bit")
    _raises_kwbias_error(path, _flip(blob, bit), load)


def test_every_dataset_header_bit_flip_raises_kwbias_error(saved):
    """In a full load and in a header-only read."""
    blob, path, load = saved["dataset"]
    loaded = []
    for bit in range(8 * _header_end(blob)):
        path.write_bytes(_flip(blob, bit))
        for read in (load, dataset_transcripts):
            try:
                read(path)
            except KwbiasError:
                continue
            loaded.append((bit, read.__name__))
    assert loaded == []


def _framed(magic: bytes, header: dict, payload: bytes) -> bytes:
    header_bytes = json.dumps(header).encode()
    return magic + struct.pack("<Q", len(header_bytes)) + header_bytes + payload


def test_files_in_the_earlier_header_layout_fail_naming_the_missing_field(tmp_path):
    """Headers of the layout before `shapes` and `digest`, a manifest and
    counts, and datasets of the layout with `digests` whose transcripts sat
    in a sidecar file."""
    splits, _ = generate_corpus(SPEC)
    utts = splits["test"]
    transcripts = "".join(u.text + "\n" for u in utts).encode("utf-8")
    write_container(tmp_path / "sidecar.ds", b"KWBDS001", {
        "n_mels": SPEC.n_mels,
        "spec_hash": spec_hash(SPEC),
        "contains_jargon": [int(u.contains_jargon) for u in utts],
        "transcripts_sha256": hashlib.sha256(transcripts).hexdigest(),
    }, [u.frames for u in utts])
    with pytest.raises(SynthError, match=r"sidecar\.ds: corrupt dataset header: field 'transcripts' must be list$"):
        dataset_load(tmp_path / "sidecar.ds")

    payload = b"".join(u.frames.astype("<f8").tobytes() for u in utts)
    (tmp_path / "old.ds").write_bytes(_framed(b"KWBDS001", {
        "n_utterances": len(utts),
        "n_mels": SPEC.n_mels,
        "spec_hash": spec_hash(SPEC),
        "frame_counts": [u.frames.shape[0] for u in utts],
        "contains_jargon": [int(u.contains_jargon) for u in utts],
    }, payload))
    # the dataset's own fields are checked before the container's, and this one has no transcripts either
    with pytest.raises(SynthError, match=r"old\.ds: corrupt dataset header: field 'transcripts' must be list$"):
        dataset_load(tmp_path / "old.ds")

    params = init_params(MODEL, seed=3)
    groups = params.groups()
    payload = b"".join(np.ascontiguousarray(groups[g][n].data, dtype="<f8").tobytes()
                       for g in groups for n in sorted(groups[g]))
    (tmp_path / "old.ckpt").write_bytes(_framed(b"KWBCKPT1", {
        "config": params.config.__dict__,
        "vocab_hash": "0" * 64,
        "rng": {"seed": 3},
        "groups": {g: [[n, list(groups[g][n].data.shape)] for n in sorted(groups[g])] for g in groups},
        "payload_len": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }, payload))
    with pytest.raises(CheckpointError,
                       match=r"old\.ckpt: corrupt checkpoint header: field 'shapes' must be list$"):
        checkpoint_load(tmp_path / "old.ckpt")


def _record_bytes(blob: bytes, index: int) -> range:
    """Byte offsets of array `index` in a container, from its header's shapes."""
    shapes = json.loads(blob[16 : _header_end(blob)])["shapes"]
    start = _header_end(blob) + 8 * sum(int(np.prod(s)) for s in shapes[:index])
    return range(start, start + 8 * int(np.prod(shapes[index])))


def test_every_dataset_header_bit_flip_fails_a_one_record_load(saved):
    blob, path, _ = saved["dataset"]
    loaded = []
    for bit in range(8 * _header_end(blob)):
        path.write_bytes(_flip(blob, bit))
        for index in (0, 1):
            try:
                dataset_load(path, index)
            except KwbiasError:
                continue
            loaded.append((bit, index))
    assert loaded == []


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_one_record_load_reads_and_verifies_that_record_only(saved, data):
    """A payload flip inside record i fails a load of i and a full load; a
    flip anywhere else leaves a load of i equal to the intact one."""
    blob, path, _ = saved["dataset"]
    index = data.draw(st.integers(0, 1), label="index")
    bit = data.draw(st.integers(8 * _header_end(blob), 8 * len(blob) - 1), label="bit")
    path.write_bytes(blob)
    intact, intact_digest = dataset_load(path, index)
    path.write_bytes(_flip(blob, bit))
    if bit // 8 in _record_bytes(blob, index):
        for load in (lambda: dataset_load(path, index), lambda: dataset_load(path)):
            with pytest.raises(SynthError, match=r"bad\.ds: dataset digest mismatch in array \d: file is corrupt$"):
                load()
    else:
        utt, digest = dataset_load(path, index)
        assert digest == intact_digest and (utt.text, utt.contains_jargon) == (intact.text, intact.contains_jargon)
        assert np.array_equal(utt.frames, intact.frames)


def test_a_one_record_load_equals_that_record_of_a_full_load(saved):
    blob, path, _ = saved["dataset"]
    path.write_bytes(blob)
    utts, digest = dataset_load(path)
    for index, full in enumerate(utts):
        utt, one_digest = dataset_load(path, index)
        assert one_digest == digest and (utt.text, utt.contains_jargon) == (full.text, full.contains_jargon)
        assert np.array_equal(utt.frames, full.frames) and utt.frames.flags.writeable
    for index in (-1, len(utts)):
        with pytest.raises(SynthError, match=rf"bad\.ds: utterance {index} is outside the 2-utterance dataset$"):
            dataset_load(path, index)


@pytest.fixture
def spotter_pair(tmp_path):
    """(recognizer path, spotter path, index of the one spotter tensor whose
    bytes differ): the spotter is the recognizer with its encoder's input
    bias perturbed and no soft prefix, as a spotter trained from a shared
    base shares every other tensor."""
    params = init_params(MODEL, seed=5)
    checkpoint_save(tmp_path / "spotter.ckpt", params, "0" * 64, seed=5)
    init_prefix(params, 2, seed=5)
    checkpoint_save(tmp_path / "recognizer.ckpt", params, "0" * 64, seed=5)
    spotter, meta = checkpoint_load(tmp_path / "spotter.ckpt")
    spotter.encoder["in_b"].data[0] += 1e-3
    checkpoint_save(tmp_path / "spotter.ckpt", spotter, "0" * 64, seed=5)
    return tmp_path / "recognizer.ckpt", tmp_path / "spotter.ckpt", sorted(spotter.encoder).index("in_b")


def test_a_checkpoint_loaded_against_another_equals_a_full_load(spotter_pair):
    recognizer_path, spotter_path, _ = spotter_pair
    recognizer = checkpoint_load(recognizer_path)
    full, full_meta = checkpoint_load(spotter_path)
    reused, meta = checkpoint_load(spotter_path, reuse=recognizer)
    assert meta == full_meta and reused.config == full.config
    shared = []
    for gname, group in full.groups().items():
        assert group.keys() == reused.groups()[gname].keys()
        for name, t in group.items():
            mine = reused.groups()[gname][name]
            assert np.array_equal(mine.data, t.data), (gname, name)
            if mine is recognizer[0].groups()[gname].get(name):
                shared.append((gname, name))
    # every tensor is shared but the perturbed encoder bias, which is read
    assert len(shared) == sum(map(len, full.groups().values())) - 1 and ("encoder", "in_b") not in shared
    assert meta["digests"]["encoder"]["in_b"] != recognizer[1]["digests"]["encoder"]["in_b"]


def test_a_checkpoint_loaded_against_another_reads_and_verifies_only_its_own_tensors(spotter_pair):
    recognizer_path, spotter_path, in_b = spotter_pair
    recognizer = checkpoint_load(recognizer_path)
    blob = spotter_path.read_bytes()
    own = _record_bytes(blob, in_b)
    spotter_path.write_bytes(_flip(blob, 8 * own.start))
    with pytest.raises(CheckpointError, match=rf"spotter\.ckpt: checkpoint digest mismatch in array {in_b}: "):
        checkpoint_load(spotter_path, reuse=recognizer)
    # a flip in a tensor the recognizer already holds is never read
    spotter_path.write_bytes(_flip(blob, 8 * _record_bytes(blob, in_b + 1).start))
    params, _ = checkpoint_load(spotter_path, reuse=recognizer)
    assert params.encoder["in_b"].data[0] == recognizer[0].encoder["in_b"].data[0] + 1e-3
    with pytest.raises(CheckpointError, match="digest mismatch"):
        checkpoint_load(spotter_path)


def test_a_tensor_of_equal_bytes_but_another_shape_is_read_not_reused(tmp_path):
    """Swapping d_model and d_ff gives the feed-forward input weight the same
    element count: equal bytes and digest, another shape."""
    held = init_params(MODEL, seed=6)
    checkpoint_save(tmp_path / "held.ckpt", held, "0" * 64, seed=6)
    swapped = init_params(ModelConfig(**{**MODEL.__dict__, "d_model": MODEL.d_ff, "d_ff": MODEL.d_model}), seed=6)
    swapped.encoder["l0.ff.w1"].data = held.encoder["l0.ff.w1"].data.reshape(MODEL.d_ff, MODEL.d_model).copy()
    checkpoint_save(tmp_path / "swapped.ckpt", swapped, "0" * 64, seed=6)
    reused, meta = checkpoint_load(tmp_path / "swapped.ckpt", reuse=checkpoint_load(tmp_path / "held.ckpt"))
    assert meta["digests"]["encoder"]["l0.ff.w1"] == hashlib.sha256(held.encoder["l0.ff.w1"].data).hexdigest()
    assert reused.encoder["l0.ff.w1"].shape == (MODEL.d_ff, MODEL.d_model)


def _grow_during_loads(monkeypatch) -> None:
    """Make dataset and checkpoint loads append 8 bytes to the file from
    inside `select`: after the reader took its size, before any payload read."""

    def read(path, magic, kind, error, fields, select):
        def grow_then_select(header):
            with open(path, "ab") as f:
                f.write(bytes(8))
            return select(header)

        return read_container(path, magic, kind, error, fields, grow_then_select)

    monkeypatch.setattr(synth, "read_container", read)
    monkeypatch.setattr(training, "read_container", read)


@pytest.mark.parametrize("index", [None, 0], ids=["full", "one-record"])
def test_a_dataset_that_grows_while_being_read_fails(saved, monkeypatch, index):
    blob, path, _ = saved["dataset"]
    path.write_bytes(blob)
    _grow_during_loads(monkeypatch)
    with pytest.raises(SynthError, match=r"bad\.ds: dataset changed size while being read$"):
        dataset_load(path, index)


@pytest.mark.parametrize("reuse", [False, True], ids=["full", "one-tensor"])
def test_a_checkpoint_that_grows_while_being_read_fails(spotter_pair, monkeypatch, reuse):
    """Loaded against the recognizer, the spotter reads one tensor."""
    recognizer_path, spotter_path, _ = spotter_pair
    held = checkpoint_load(recognizer_path) if reuse else None
    _grow_during_loads(monkeypatch)
    with pytest.raises(CheckpointError, match=r"spotter\.ckpt: checkpoint changed size while being read$"):
        checkpoint_load(spotter_path, reuse=held)


def _parent_layout(blob: bytes) -> bytes:
    """`blob` re-framed as the layout before per-array digests: no `digests`
    field, and a `digest` over the canonical header and the payload."""
    header = json.loads(blob[16 : _header_end(blob)])
    del header["digests"], header["digest"]
    digest = hashlib.sha256(json.dumps(header, sort_keys=True, separators=(",", ":")).encode())
    digest.update(blob[_header_end(blob) :])
    return _framed(blob[:8], {**header, "digest": digest.hexdigest()}, blob[_header_end(blob) :])


@pytest.mark.parametrize("kind", ["dataset", "checkpoint"])
def test_files_in_the_layout_before_per_array_digests_fail_naming_digests(saved, kind):
    blob, path, load = saved[kind]
    path.write_bytes(_parent_layout(blob))
    with pytest.raises(KwbiasError, match=rf"bad\.\w+: corrupt {kind} header: field 'digests' must be list$"):
        load(path)
