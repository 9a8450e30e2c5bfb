"""Binary container for a list of float64 arrays, shared by datasets and checkpoints.

A file is an 8-byte magic, the header length as a little-endian u64, a
JSON object header (sorted keys, no whitespace), then the payload: every
array as little-endian float64 in C order, one after the other.

Besides the caller's own fields, the header holds two that this module
writes and checks:

* ``shapes``: one shape (a list of non-negative ints) per array, in
  payload order;
* ``digest``: the sha256 hex of the header's other fields as canonical
  JSON, followed by the payload.

Reading opens the file once and reads every byte of it once. It checks
the framing, the type of every header field the caller names, the
shapes, and the header and payload lengths against the file size before
it allocates anything; it then reads the payload straight into one
aligned float64 buffer and checks the digest over it. A damaged or
truncated file fails as the caller's `KwbiasError` subclass with one
line that starts with the path, never as a `struct`, `numpy`, `KeyError`,
`TypeError` or `MemoryError` traceback. The arrays returned are
writable views of that one buffer, and the verified digest identifies
the file's content for provenance records.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import struct
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import KwbiasError

_LEN = struct.Struct("<Q")


def _canonical(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_container(path: Path | str, magic: bytes, header: dict, arrays: Iterable[np.ndarray]) -> None:
    """Write `arrays` as float64 after `header` plus the `shapes` and `digest` fields."""
    arrays = [np.ascontiguousarray(a, dtype="<f8") for a in arrays]
    header = {**header, "shapes": [list(a.shape) for a in arrays]}
    digest = hashlib.sha256(_canonical(header))
    for a in arrays:
        digest.update(a)
    header_bytes = _canonical({**header, "digest": digest.hexdigest()})
    with Path(path).open("wb") as f:
        f.write(magic)
        f.write(_LEN.pack(len(header_bytes)))
        f.write(header_bytes)
        for a in arrays:
            f.write(a)


def read_container(
    path: Path | str,
    magic: bytes,
    kind: str,
    error: type[KwbiasError],
    fields: dict[str, type],
) -> tuple[dict, list[np.ndarray]]:
    """(header, arrays) of a container whose header has `fields` with their types.

    The file is read once, its payload straight into one aligned float64
    buffer; the arrays are writable, C-contiguous views of that buffer, so
    a loaded checkpoint is trained in place. `header["digest"]` has been
    checked against the content.
    """
    path = Path(path)
    with path.open("rb", buffering=0) as f:
        size = os.fstat(f.fileno()).st_size
        off = len(magic) + _LEN.size
        prefix = f.read(off)
        if prefix[: len(magic)] != magic:
            raise error(f"{path}: not a {kind} file (bad magic)")
        if len(prefix) < off:
            raise error(f"{path}: truncated {kind} file: {len(prefix)} bytes, no header length")
        (header_len,) = _LEN.unpack_from(prefix, len(magic))
        if size - off < header_len:
            raise error(f"{path}: truncated {kind} header: {size - off} of {header_len} bytes")
        try:
            header = json.loads(f.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise error(f"{path}: corrupt {kind} header: {exc}") from exc
        if not isinstance(header, dict):
            raise error(f"{path}: corrupt {kind} header: expected a JSON object, got {type(header).__name__}")
        for name, expected in {**fields, "shapes": list, "digest": str}.items():
            value = header.get(name)
            # bool is an int subclass; no header field is a flag
            if not isinstance(value, expected) or isinstance(value, bool):
                raise error(f"{path}: corrupt {kind} header: field {name!r} must be {expected.__name__}")
        shapes = header["shapes"]
        # JSON gives exact lists and ints, so a type set checks every entry in one C-level pass
        dims = list(itertools.chain.from_iterable(shapes)) if set(map(type, shapes)) <= {list} else None
        if dims is None or not set(map(type, dims)) <= {int} or min(dims, default=0) < 0:
            raise error(f"{path}: corrupt {kind} header: every shape must be a list of non-negative ints")
        counts = [math.prod(shape) for shape in shapes]
        payload_len = size - off - header_len
        expected_len = 8 * sum(counts)
        if payload_len != expected_len:
            raise error(f"{path}: truncated {kind}: {payload_len} payload bytes, expected {expected_len}")
        buf = np.empty(expected_len // 8, dtype="<f8")
        got = f.readinto(buf)
        if got != expected_len or f.read(1):
            raise error(f"{path}: {kind} changed size while being read")
    digest = hashlib.sha256(_canonical({k: v for k, v in header.items() if k != "digest"}))
    digest.update(buf)
    if digest.hexdigest() != header["digest"]:
        raise error(f"{path}: {kind} digest mismatch: file is corrupt")
    arrays, pos = [], 0
    for shape, n in zip(shapes, counts):
        arrays.append(buf[pos : pos + n].reshape(shape))
        pos += n
    return header, arrays
