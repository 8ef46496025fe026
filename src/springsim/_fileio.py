"""File reads and atomic writes shared by every reader and writer.

Every input file is read by :func:`read_file`. Every file springsim
produces goes through :func:`atomic_write`, so a reader never sees a
half-written file and a failed write leaves the old file in place;
directories are created and stale files removed through :func:`make_dir`
and :func:`remove_file`. All four raise :class:`~springsim.errors.IoFailure`
on any OS-level problem. Float columns are formatted by :func:`float_rows`
with ``repr``, the shortest string that parses back to the same float.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

from .errors import IoFailure


def float_rows(header: str, a: list, b: list, c: list) -> str:
    """CSV text: ``header``, then one ``repr``-formatted line per (a, b, c).

    Pass Python floats (``ndarray.tolist()``): the ``repr`` of a numpy
    scalar is not a plain number.
    """
    return header + "\n" + "".join(f"{x!r},{y!r},{z!r}\n" for x, y, z in zip(a, b, c))


def read_file(path, missing: Exception) -> bytes:
    """The bytes of input file ``path``; raises ``missing`` if it is not a
    regular file and IoFailure on any other OS-level problem."""
    try:
        if not Path(path).is_file():
            raise missing
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoFailure(path, exc) from exc


def atomic_write(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file and a rename.

    The temp file sits next to ``path`` and is created with mode 0o666
    minus the umask, as ``open`` would create ``path`` itself.

    Raises:
        IoFailure: On any OS-level problem; ``path`` is then unchanged.
    """
    path = Path(path)
    tmp = path.parent / f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", newline="\n") as fh:
                fh.write(text)
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
