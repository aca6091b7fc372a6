"""File I/O: crash-safe replacement, so readers see the old file or the whole
new one, never a partial write; and text reads that name a file not in UTF-8."""

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


def read_text(path: str, newline: str | None = None) -> str:
    """path's text, decoded as UTF-8. newline=None turns CR LF and CR into LF,
    as open() does; newline="\n" keeps them. A byte that is not UTF-8 raises
    a ValueError naming path and the byte's offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 at byte offset {exc.start}: "
                         f"{exc.reason}") from None
    return text if newline else text.replace("\r\n", "\n").replace("\r", "\n")
