"""Binary container framing shared by datasets and checkpoints.

A file is an 8-byte magic, the header length as a little-endian u64, a
JSON object header, then the payload.  Reading validates the framing and
the type of every header field the caller names, so a malformed file
fails with the caller's `KwbiasError` subclass, never a `struct`, `KeyError`
or `TypeError`.  The checks cost O(header), not O(payload).
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Iterable

from .errors import KwbiasError

_LEN = struct.Struct("<Q")


def non_negative_ints(values: list) -> bool:
    """Every element is a non-negative int (a count or a shape entry)."""
    return all(isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in values)


def write_container(path: Path | str, magic: bytes, header: dict, chunks: Iterable[bytes]) -> None:
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with Path(path).open("wb") as f:
        f.write(magic)
        f.write(_LEN.pack(len(header_bytes)))
        f.write(header_bytes)
        for chunk in chunks:
            f.write(chunk)


def read_container(
    path: Path | str,
    magic: bytes,
    kind: str,
    error: type[KwbiasError],
    fields: dict[str, type],
) -> tuple[dict, memoryview]:
    """(header, payload) of a container whose header has `fields` with their types."""
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
    for name, expected in fields.items():
        value = header.get(name)
        # bool is an int subclass; no header field is a flag
        if not isinstance(value, expected) or isinstance(value, bool):
            raise error(f"{path}: corrupt {kind} header: field {name!r} must be {expected.__name__}")
    return header, memoryview(blob)[off + header_len :]
