"""One atomic replace for every durable file the program writes.

Run outputs, checkpoints, job files, spec and result manifests, and
dataset manifests are all replaced whole: :func:`atomic_write` writes
the new content to a scratch file in the target's directory, then
renames it over the target, so a reader sees either the old complete
file or the new complete file, never a torn one.

Durability policy (stated here once): no ``fsync``.  A write that
returned survives the death of the process, but not a power loss or
kernel crash, which may leave the previous file or an empty one.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import BinaryIO, Callable, TypeVar, Union

T = TypeVar("T")

#: The process umask, read once: a scratch file is created ``0600`` and
#: gets the mode a plain ``open(path, "w")`` would have given it.
_UMASK = os.umask(0)
os.umask(_UMASK)


def atomic_write(path: Union[str, Path], write: Callable[[BinaryIO], T]) -> T:
    """Replace *path* with what ``write(handle)`` writes; returns its result.

    *handle* is a binary file opened on ``<name>.<random>.tmp`` in
    *path*'s directory (created if missing).  The scratch file is
    renamed over *path* when *write* returns, and unlinked if anything
    raises, the rename included, so a failed write leaves the previous
    file untouched and no scratch behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, scratch = tempfile.mkstemp(dir=path.parent, prefix=f"{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            os.chmod(scratch, 0o666 & ~_UMASK)
            result = write(handle)
        os.replace(scratch, path)
    except BaseException:
        os.unlink(scratch)
        raise
    return result


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """:func:`atomic_write` of *text* as UTF-8; returns *path*."""
    atomic_write(path, lambda handle: handle.write(text.encode("utf-8")))
    return Path(path)
