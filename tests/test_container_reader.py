"""What `read_container` hands back, and how it refuses an oversized header.

Each array is read into its own writable float64 buffer.  A header may
declare any shape, so lengths are checked against the file size before
anything is allocated, once the header digest says the header is the one
written.
"""

import hashlib
import json
import struct

import numpy as np
import pytest

from kwbias.container import read_container, write_container
from kwbias.errors import KwbiasError
from kwbias.synth import SynthError, dataset_load

MAGIC = b"KWBTEST1"


class ReadError(KwbiasError):
    pass


def _read(path):
    return read_container(path, MAGIC, "test", ReadError, {"name": str})


def test_loaded_arrays_equal_the_saved_ones_as_aligned_writable_views(tmp_path):
    rng = np.random.default_rng(0)
    saved = [rng.normal(size=(3, 5)), np.array([2.5]), np.zeros((0, 4)), rng.normal(size=7),
             np.arange(24.0).reshape(2, 3, 4)]
    path = tmp_path / "c.bin"
    write_container(path, MAGIC, {"name": "x"}, saved)

    header, arrays = _read(path)
    assert header["name"] == "x" and header["shapes"] == [[3, 5], [1], [0, 4], [7], [2, 3, 4]]
    assert len(arrays) == len(saved)
    for a, b in zip(arrays, saved):
        assert a.dtype == np.dtype("<f8") and a.shape == np.shape(b)
        assert np.array_equal(a, b)
        assert a.flags.aligned and a.flags.c_contiguous and a.flags.writeable
    # writing one array leaves its neighbours alone
    arrays[0][...] = -1.0
    assert np.array_equal(arrays[3], saved[3]) and arrays[1][0] == 2.5


def test_a_trailing_byte_is_a_truncated_error(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, MAGIC, {"name": "x"}, [np.ones(2)])
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ReadError, match=r"c\.bin: truncated test: 17 payload bytes, expected 16$"):
        _read(path)


def test_a_huge_declared_shape_fails_as_truncated_not_memory_error(tmp_path):
    fields = {"n_mels": 4, "spec_hash": "0" * 64, "contains_jargon": [0], "transcripts": ["one"],
              "shapes": [[2**40]], "digests": ["0" * 64]}
    # a valid header digest, so the reader trusts the declared shape and the size check fires
    digest = hashlib.sha256(json.dumps(fields, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    header = json.dumps({**fields, "digest": digest}).encode()
    path = tmp_path / "huge.ds"
    path.write_bytes(b"KWBDS001" + struct.pack("<Q", len(header)) + header + bytes(16))
    with pytest.raises(SynthError, match=rf"huge\.ds: truncated dataset: 16 payload bytes, expected {8 * 2**40}$"):
        dataset_load(path)


def test_a_signed_header_with_a_digest_per_shape_missing_is_corrupt(tmp_path):
    """The header digest is sound, so only the count check can catch it."""
    path = tmp_path / "c.bin"
    write_container(path, MAGIC, {"name": "x"}, [np.ones(2), np.zeros(3)])
    blob = path.read_bytes()
    end = 16 + struct.unpack_from("<Q", blob, 8)[0]
    fields = {k: v for k, v in json.loads(blob[16:end]).items() if k != "digest"}
    fields["digests"] = fields["digests"][:1]
    canonical = json.dumps(fields, sort_keys=True, separators=(",", ":")).encode()
    header = json.dumps({**fields, "digest": hashlib.sha256(canonical).hexdigest()}).encode()
    path.write_bytes(MAGIC + struct.pack("<Q", len(header)) + header + blob[end:])
    with pytest.raises(ReadError, match=r"c\.bin: corrupt test header: 1 digests for 2 shapes$"):
        _read(path)
