"""Atomic file output: every file the toolkit writes goes through atomic_open,
so a reader never sees a half-written file and a failed write leaves none."""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress


def temporary_path(path) -> str:
    """The file that atomic_open writes before it replaces `path`."""
    return f"{path}.tmp"


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open temporary_path(path) for writing, creating `path`'s missing parent
    directories; on a clean exit it replaces `path`. If the block or the
    replace fails, the temporary file is removed and `path` is left as it was."""
    os.makedirs(os.path.dirname(os.fspath(path)) or ".", exist_ok=True)
    tmp = temporary_path(path)
    fh = open(tmp, mode, **kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise
