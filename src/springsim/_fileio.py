"""File reads and atomic writes shared by every reader and writer.

Every input file is opened once, by :func:`open_input`: a log is read
from the open file a chunk at a time, from its start (a load counts its
lines first, then seeks back to the start once), every other input
whole, by :func:`read_file`. Every file springsim produces goes through
:func:`atomic_write`, so a reader never sees a half-written file and a
failed write leaves the old file in place; directories are created and
stale files removed through :func:`make_dir` and :func:`remove_file`.
All five raise :class:`~springsim.errors.IoFailure` on any OS-level
problem. Float columns are formatted by :func:`float_rows`, byte for
byte as ``repr`` writes them: the shortest string that parses back to
the same float.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import numpy as np
import orjson

from .errors import IoFailure

#: Rows :func:`float_rows` formats at a time: its memory is a few tens of
#: KB whatever the length of the columns.
_BLOCK_ROWS = 512


def float_rows(header: str, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> Iterator[bytes]:
    """CSV bytes in blocks: ``header``, then one line ``f"{x!r},{y!r},{z!r}"``
    per row (x, y, z) of the float64 columns ``a``, ``b`` and ``c``.

    orjson writes each block of :data:`_BLOCK_ROWS` rows. Its digits are
    ``repr``'s (both are shortest round-trip), and so is its notation for
    0.0, -0.0 and every ``|x|`` in [1e-4, 1e16). Outside that it differs:
    ``0.00001`` and ``1e16`` for ``1e-05`` and ``1e+16``, ``null`` for NaN
    and inf. Each such token holds an ``e``, an ``n`` or ``0.0000``, so
    only a line that holds one of those is written again with ``repr``.
    """
    yield header.encode() + b"\n"
    for i in range(0, len(a), _BLOCK_ROWS):
        rows = slice(i, i + _BLOCK_ROWS)
        block = np.column_stack((a[rows], b[rows], c[rows]))
        # [[x,y,z],[x,y,z]] -> x,y,z\nx,y,z
        body = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].replace(b"],[", b"\n")
        if _not_repr(body):
            lines = body.split(b"\n")
            for k, line in enumerate(lines):
                if _not_repr(line):
                    x, y, z = block[k].tolist()
                    lines[k] = f"{x!r},{y!r},{z!r}".encode()
            body = b"\n".join(lines)
        yield body + b"\n"


def _not_repr(data: bytes) -> bool:
    """Whether orjson's ``data`` may hold a token that ``repr`` writes otherwise."""
    return b"e" in data or b"n" in data or b"0.0000" in data


@contextlib.contextmanager
def open_input(path, missing: Exception) -> Iterator[BinaryIO]:
    """Input file ``path``, opened for binary reads and closed on exit.

    Raises ``missing`` if ``path`` is not a regular file, and IoFailure
    on any other OS-level problem: opening it, or any read or seek in
    the ``with`` block. The file is read as the caller reads it: a log
    in chunks, by :func:`springsim.trajectory._read_log`, every other
    input whole, by :func:`read_file`.
    """
    try:
        if not Path(path).is_file():
            raise missing
        fh = open(path, "rb")
    except OSError as exc:
        raise IoFailure(path, exc) from exc
    with fh:
        try:
            yield fh
        except OSError as exc:
            raise IoFailure(path, exc) from exc


def read_file(path, missing: Exception) -> bytes:
    """The bytes of input file ``path``, in one read; errors as :func:`open_input`."""
    with open_input(path, missing) as fh:
        return fh.read()


def atomic_write(path, data: str | Iterable[bytes]) -> None:
    """Write ``data`` to ``path`` through a temp file and a rename.

    ``data`` is text, written as UTF-8, or an iterable of ``bytes``
    chunks, written one at a time as they come; neither has its newlines
    translated. The temp file sits next to ``path`` and is created with
    mode 0o666 minus the umask, as ``open`` would create ``path`` itself.

    Raises:
        IoFailure: On any OS-level problem; ``path`` is then unchanged,
            as it is when iterating ``data`` raises.
    """
    path = Path(path)
    chunks = (data.encode(),) if isinstance(data, str) else data
    tmp = path.parent / f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                for chunk in chunks:
                    fh.write(chunk)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailure(path, exc) from exc


def make_dir(path) -> None:
    """Create directory ``path`` and its parents; an existing one is fine.

    Raises:
        IoFailure: On any OS-level problem, e.g. ``path`` or a parent is a
            file.
    """
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(path, exc) from exc


def remove_file(path) -> None:
    """Delete ``path`` if it exists.

    Raises:
        IoFailure: On any OS-level problem, e.g. ``path`` is a directory.
    """
    path = Path(path)
    try:
        path.unlink(missing_ok=True)
    except OSError as exc:
        raise IoFailure(path, exc) from exc
