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

Reading checks the framing, the type of every header field the caller
names, the shapes, the payload length and then the digest, so a damaged
or truncated file fails as the caller's `KwbiasError` subclass with one
line that starts with the path, never as a `struct`, `numpy`, `KeyError`
or `TypeError` traceback.
"""

from __future__ import annotations

import hashlib
import json
import math
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

    The arrays are writable copies: a loaded checkpoint is trained in place.
    """
    path = Path(path)
    blob = path.read_bytes()
    if blob[: len(magic)] != magic:
        raise error(f"{path}: not a {kind} file (bad magic)")
    off = len(magic) + _LEN.size
    if len(blob) < off:
        raise error(f"{path}: truncated {kind} file: {len(blob)} bytes, no header length")
    (header_len,) = _LEN.unpack_from(blob, len(magic))
    if len(blob) - off < header_len:
        raise error(f"{path}: truncated {kind} header: {len(blob) - off} of {header_len} bytes")
    try:
        header = json.loads(blob[off : off + header_len].decode("utf-8"))
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
    if not all(isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape) for shape in shapes):
        raise error(f"{path}: corrupt {kind} header: every shape must be a list of non-negative ints")
    payload = memoryview(blob)[off + header_len :]
    expected_len = 8 * sum(math.prod(shape) for shape in shapes)
    if len(payload) != expected_len:
        raise error(f"{path}: truncated {kind}: {len(payload)} payload bytes, expected {expected_len}")
    digest = hashlib.sha256(_canonical({k: v for k, v in header.items() if k != "digest"}))
    digest.update(payload)
    if digest.hexdigest() != header["digest"]:
        raise error(f"{path}: {kind} digest mismatch: file is corrupt")
    arrays, pos = [], 0
    for shape in shapes:
        n = math.prod(shape)
        arrays.append(np.frombuffer(payload, dtype="<f8", count=n, offset=8 * pos).reshape(shape).copy())
        pos += n
    return header, arrays
