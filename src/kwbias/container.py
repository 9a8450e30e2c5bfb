"""Binary container for a list of float64 arrays, shared by datasets and checkpoints.

A file is an 8-byte magic, the header length as a little-endian u64, a
JSON object header (sorted keys, no whitespace), then the payload: every
array as little-endian float64 in C order, one after the other.

Besides the caller's own fields, the header holds three that this module
writes and checks:

* ``shapes``: one shape (a list of non-negative ints) per array, in
  payload order;
* ``digests``: one sha256 hex per array, over that array's payload bytes;
* ``digest``: the sha256 hex of the header's other fields as canonical
  JSON.  Through ``digests`` it covers the whole content, so it identifies
  the file for provenance records.

Reading checks the framing and the type of every header field the caller
names, then the header digest, before it trusts anything the header says:
that ``digests`` has one entry per shape, the shapes, and the header and
payload lengths against the file size, all before it allocates anything.
It then reads the selected arrays, every one by default, each from its
own offset into its own writable, C-contiguous float64 buffer, and checks
each against its digest; a selection may depend on the verified header,
and no other payload byte is read.  One size check after the reads fails
a file that changed size while being read.  A damaged or truncated file
fails as the caller's `KwbiasError` subclass with one line that starts
with the path, never as a `struct`, `numpy`, `KeyError`, `TypeError` or
`MemoryError` traceback.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import struct
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .errors import KwbiasError

_LEN = struct.Struct("<Q")


def _canonical(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_container(path: Path | str, magic: bytes, header: dict, arrays: Iterable[np.ndarray]) -> None:
    """Write `arrays` as float64 after `header` plus the `shapes`, `digests` and `digest` fields."""
    arrays = [np.ascontiguousarray(a, dtype="<f8") for a in arrays]
    header = {**header, "shapes": [list(a.shape) for a in arrays],
              "digests": [hashlib.sha256(a).hexdigest() for a in arrays]}
    header_bytes = _canonical({**header, "digest": hashlib.sha256(_canonical(header)).hexdigest()})
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
    select: Callable[[dict], Iterable[int]] | None = None,
) -> tuple[dict, list[np.ndarray | None]]:
    """(header, arrays) of a container whose header has `fields` with their types.

    `select(header)`, called with the verified header before any payload
    byte is read, may raise `error` and returns the indices of the arrays
    to read (default: every array); the others come back as None.  Each
    array is read into its own writable, C-contiguous buffer, so a loaded
    checkpoint is trained in place, and is checked against its entry in
    `header["digests"]`.  A file whose size differs after the reads from
    the size its lengths were checked against fails.
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
        for name, expected in {**fields, "shapes": list, "digests": list, "digest": str}.items():
            value = header.get(name)
            # bool is an int subclass; no header field is a flag
            if not isinstance(value, expected) or isinstance(value, bool):
                raise error(f"{path}: corrupt {kind} header: field {name!r} must be {expected.__name__}")
        digest = hashlib.sha256(_canonical({k: v for k, v in header.items() if k != "digest"}))
        if digest.hexdigest() != header["digest"]:
            raise error(f"{path}: {kind} header digest mismatch: file is corrupt")
        shapes, digests = header["shapes"], header["digests"]
        if len(digests) != len(shapes):
            raise error(f"{path}: corrupt {kind} header: {len(digests)} digests for {len(shapes)} shapes")
        # JSON gives exact lists and ints, so a type set checks every entry in one C-level pass
        dims = list(itertools.chain.from_iterable(shapes)) if set(map(type, shapes)) <= {list} else None
        if dims is None or not set(map(type, dims)) <= {int} or min(dims, default=0) < 0:
            raise error(f"{path}: corrupt {kind} header: every shape must be a list of non-negative ints")
        counts = [math.prod(shape) for shape in shapes]
        payload_len = size - off - header_len
        expected_len = 8 * sum(counts)
        if payload_len != expected_len:
            raise error(f"{path}: truncated {kind}: {payload_len} payload bytes, expected {expected_len}")
        offsets = list(itertools.accumulate(counts, initial=0))  # in float64 elements
        chosen = range(len(shapes)) if select is None else sorted(set(select(header)))
        arrays: list[np.ndarray | None] = [None] * len(shapes)
        for i in chosen:
            arrays[i] = np.empty(shapes[i], dtype="<f8")
            f.seek(off + header_len + 8 * offsets[i])
            if f.readinto(arrays[i]) != 8 * counts[i]:
                raise error(f"{path}: {kind} changed size while being read")
            if hashlib.sha256(arrays[i]).hexdigest() != digests[i]:
                raise error(f"{path}: {kind} digest mismatch in array {i}: file is corrupt")
        if os.fstat(f.fileno()).st_size != size:
            raise error(f"{path}: {kind} changed size while being read")
    return header, arrays
