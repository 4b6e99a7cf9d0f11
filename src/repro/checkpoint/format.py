"""The on-disk checkpoint container: magic, schema version, CRC, pickle.

A checkpoint file is::

    MAGIC (8 bytes)  b"RPROCKPT"
    header (14 bytes) struct "<HIQ": schema version, CRC-32 of the
                      payload, payload length in bytes
    payload           pickle of the checkpointed object

Writes are atomic (temp file + fsync + rename), so a reader can never
observe a half-written checkpoint; a *killed* writer leaves only a stale
``*.tmp`` beside the target.  Reads validate magic, schema version,
length and CRC before unpickling and raise :class:`CheckpointError` on
any mismatch — a truncated or bit-flipped file is detected up front, not
as a confusing pickle error.

Trust model: the payload is a pickle, exactly like the result cache —
only load checkpoints you (or your own runs) wrote.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from pathlib import Path
from typing import Any

from repro.runner.fsio import atomic_write

__all__ = [
    "CheckpointError",
    "SCHEMA_VERSION",
    "dumps_checkpoint",
    "loads_checkpoint",
    "read_checkpoint",
    "write_checkpoint",
]

MAGIC = b"RPROCKPT"
#: Bump when the container layout (not the payload) changes.
SCHEMA_VERSION = 1

_HEADER = struct.Struct("<HIQ")


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read or validated."""


def dumps_checkpoint(obj: Any) -> bytes:
    """Serialize ``obj`` into the container format (bytes)."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    header = _HEADER.pack(SCHEMA_VERSION, zlib.crc32(payload), len(payload))
    return MAGIC + header + payload


def loads_checkpoint(blob: bytes) -> Any:
    """Validate and deserialize a container produced by :func:`dumps_checkpoint`."""
    head_len = len(MAGIC) + _HEADER.size
    if len(blob) < head_len:
        raise CheckpointError(
            f"checkpoint truncated: {len(blob)} bytes, header needs {head_len}"
        )
    if blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    version, crc, length = _HEADER.unpack_from(blob, len(MAGIC))
    if version > SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint schema v{version} is newer than supported "
            f"v{SCHEMA_VERSION}"
        )
    payload = blob[head_len:]
    if len(payload) != length:
        raise CheckpointError(
            f"checkpoint truncated: payload {len(payload)} bytes, "
            f"header says {length}"
        )
    if zlib.crc32(payload) != crc:
        raise CheckpointError("checkpoint corrupt: CRC mismatch")
    try:
        return pickle.loads(payload)
    except Exception as err:
        raise CheckpointError(f"checkpoint payload unreadable: {err}") from err


def write_checkpoint(path: str | Path, obj: Any) -> Path:
    """Atomically write ``obj`` as a checkpoint file at ``path``."""
    return atomic_write(path, dumps_checkpoint(obj))


def read_checkpoint(path: str | Path) -> Any:
    """Read and validate the checkpoint file at ``path``."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from err
    return loads_checkpoint(blob)


def inspect_checkpoint(path: str | Path) -> dict:
    """Header metadata (no unpickling): schema version, CRC, sizes."""
    path = Path(path)
    blob = path.read_bytes()
    head_len = len(MAGIC) + _HEADER.size
    if len(blob) < head_len or blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint file")
    version, crc, length = _HEADER.unpack_from(blob, len(MAGIC))
    return {
        "path": str(path),
        "schema_version": version,
        "crc32": crc,
        "payload_bytes": length,
        "file_bytes": len(blob),
        "complete": len(blob) - head_len == length,
    }
