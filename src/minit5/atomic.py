"""File I/O: crash-safe replacement, so readers see the old file or the whole
new one, never a partial write; text reads that name a file not in UTF-8;
the value rule of every text output; and the length-checked binary reader."""

from __future__ import annotations

import contextlib
import os
import struct


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


def write_text(path: str, text: str) -> None:
    with atomic_write(path) as fh:
        fh.write(text)


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


def format_value(value) -> str:
    """The value rule of every text output: None prints as '-', a float to
    six decimals, anything else (an int, a name) as itself."""
    if value is None:
        return "-"
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def format_rows(rows, sep: str = "\t") -> str:
    """One line per row of values joined by sep: a TSV table, or with
    sep="=" key=value lines from (key, value) pairs."""
    return "".join(sep.join(map(format_value, row)) + "\n" for row in rows)


def read_binary(path: str, what: str):
    """The whole file at path, read as (take, finish): take(fmt) unpacks the
    struct format fmt at the read position, or views the next fmt bytes when
    fmt is an int, and moves past them, or raises "<path>: truncated <what>";
    finish(last) raises "<path>: N bytes after the last of <last>" unless
    the fields taken end the file."""
    with open(path, "rb") as fh:
        data = memoryview(fh.read())
    pos = 0

    def take(fmt: str | int):
        nonlocal pos
        end = pos + (fmt if isinstance(fmt, int) else struct.calcsize(fmt))
        if end > len(data):
            raise ValueError(f"{path}: truncated {what}")
        out = (data[pos:end] if isinstance(fmt, int)
               else struct.unpack_from(fmt, data, pos))
        pos = end
        return out

    def finish(last: str) -> None:
        if pos != len(data):
            raise ValueError(f"{path}: {len(data) - pos} bytes after the last of {last}")

    return take, finish
