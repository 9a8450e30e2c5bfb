"""Damaged dataset and checkpoint files fail only as `KwbiasError`.

A file cut short at any byte, or with any one bit of its framing, JSON
header or payload flipped, must raise a `KwbiasError` subclass: never
load, and never fail as a `struct`, `numpy`, `KeyError` or `TypeError`
traceback.
"""

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwbias.errors import KwbiasError
from kwbias.model import ModelConfig, init_params, init_prefix
from kwbias.synth import SynthError, SynthSpec, dataset_load, dataset_save, generate_corpus, spec_hash
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
    # a damaged dataset is read with the good transcript sidecar beside it
    (root / "bad.txt").write_bytes((root / "good.txt").read_bytes())
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
    blob, path, load = saved["dataset"]
    loaded = []
    for bit in range(8 * _header_end(blob)):
        path.write_bytes(_flip(blob, bit))
        try:
            load(path)
        except KwbiasError:
            continue
        loaded.append(bit)
    assert loaded == []


def _framed(magic: bytes, header: dict, payload: bytes) -> bytes:
    header_bytes = json.dumps(header).encode()
    return magic + struct.pack("<Q", len(header_bytes)) + header_bytes + payload


def test_files_in_the_earlier_header_layout_fail_naming_the_missing_field(tmp_path):
    """Headers of the layout before `shapes` and `digest`: a manifest and counts."""
    splits, _ = generate_corpus(SPEC)
    utts = splits["test"]
    payload = b"".join(u.frames.astype("<f8").tobytes() for u in utts)
    (tmp_path / "old.txt").write_text("".join(u.text + "\n" for u in utts), encoding="utf-8")
    (tmp_path / "old.ds").write_bytes(_framed(b"KWBDS001", {
        "n_utterances": len(utts),
        "n_mels": SPEC.n_mels,
        "spec_hash": spec_hash(SPEC),
        "frame_counts": [u.frames.shape[0] for u in utts],
        "contains_jargon": [int(u.contains_jargon) for u in utts],
    }, payload))
    with pytest.raises(SynthError, match=r"old\.ds: corrupt dataset header: field 'shapes' must be list$"):
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
