"""The injectable filesystem seam behind every durable writer.

:class:`~repro.runner.cache.ResultCache` and
:class:`~repro.runner.journal.RunJournal` (and through the journal, the
service :class:`~repro.service.queue.JobQueue` and fabric
:class:`~repro.fabric.queue.PointQueue`) all follow the same write
discipline: ``open`` → ``write`` → ``flush`` → ``fsync`` → ``rename``.
This module gives that discipline one injectable surface so a test (or
the :mod:`repro.chaos` fault injector) can make any of those steps fail
like a real disk does — ENOSPC, EIO, a write torn at a byte offset —
without monkey-patching the ``os`` module out from under the rest of
the process, and one writer over it, :func:`atomic_write`.

Production code passes nothing and gets :data:`LOCAL_FS`, whose methods
are the plain stdlib calls.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

__all__ = ["LOCAL_FS", "LocalFS", "atomic_write"]


class LocalFS:
    """The real filesystem: each method is the matching stdlib call.

    The surface is deliberately tiny — exactly the operations of the
    atomic-write discipline — so a fault-injecting subclass (see
    :class:`repro.chaos.fs.ChaosFS`) has a complete, enumerable set of
    failure points.
    """

    def open(self, path: str | Path, mode: str = "r",
             encoding: str | None = None):
        """``builtins.open`` (binary modes ignore ``encoding``)."""
        if "b" in mode:
            return open(path, mode)
        return open(path, mode, encoding=encoding)

    def fsync(self, fileno: int) -> None:
        """``os.fsync`` — the durability barrier before a rename."""
        os.fsync(fileno)

    def replace(self, src: str | Path, dst: str | Path) -> None:
        """``Path.replace`` — the atomic publish step."""
        Path(src).replace(dst)


#: Shared default instance; writers use this when no ``fs`` is injected.
LOCAL_FS = LocalFS()


def atomic_write(path: str | Path, data: bytes | str, fs=None) -> Path:
    """Durably write ``data`` to ``path``: temp file + fsync + rename.

    A reader sees the old file or the new one, never a torn mixture; a
    writer killed mid-write leaves only a stale ``*.tmp`` beside the
    target.  The temp name carries the pid and the thread id, so two
    threads writing one path never share a temp file.  This is also the
    writer half of the exactly-once contract: call it *before*
    journaling a completion, and a replayed attempt rewrites the same
    path, so the directory holds one entry per unit of work.
    """
    fs = fs if fs is not None else LOCAL_FS
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = data.encode("utf-8") if isinstance(data, str) else data
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    with fs.open(tmp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        fs.fsync(handle.fileno())
    fs.replace(tmp, path)
    return path
