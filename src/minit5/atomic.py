"""Crash-safe file replacement: readers see the old file or the whole new one,
never a partial write."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path: str, binary: bool = False):
    """Yield a file open for writing a temp file in path's directory. On a
    clean exit it is fsynced and os.replace'd onto path; if the body raises,
    the temp file is removed and path keeps its previous contents."""
    tmp = f"{path}.{os.getpid()}.tmp"
    text = {} if binary else {"encoding": "utf-8", "newline": "\n"}
    try:
        with open(tmp, "wb" if binary else "w", **text) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
