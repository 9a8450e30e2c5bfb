"""Damaged dataset and checkpoint files fail only as `KwbiasError`.

A file cut short at any byte, or with any one bit of its framing or JSON
header flipped, must either load or raise a `KwbiasError` subclass,
never a `struct`, `numpy`, `KeyError` or `TypeError` traceback.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwbias.errors import KwbiasError
from kwbias.model import ModelConfig, init_params, init_prefix
from kwbias.synth import SynthSpec, dataset_load, dataset_save, generate_corpus
from kwbias.training import checkpoint_load, checkpoint_save

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


def _loads_or_fails_cleanly(path, blob, load) -> None:
    path.write_bytes(blob)
    try:
        load(path)
    except KwbiasError:
        pass


@pytest.mark.parametrize("kind", ["dataset", "checkpoint"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_truncated_file_loads_or_raises_kwbias_error(saved, kind, data):
    blob, path, load = saved[kind]
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    _loads_or_fails_cleanly(path, blob[:cut], load)


@pytest.mark.parametrize("kind", ["dataset", "checkpoint"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_header_bit_flip_loads_or_raises_kwbias_error(saved, kind, data):
    blob, path, load = saved[kind]
    bit = data.draw(st.integers(0, 8 * _header_end(blob) - 1), label="bit")
    damaged = bytearray(blob)
    damaged[bit // 8] ^= 1 << (bit % 8)
    _loads_or_fails_cleanly(path, bytes(damaged), load)
