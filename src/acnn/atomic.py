"""Atomic file output: every file the toolkit writes goes through atomic_open,
so a reader never sees a half-written file and a failed write leaves none."""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open `<path>.tmp` for writing, creating `path`'s missing parent
    directories; on a clean exit it replaces `path`. If the block or the
    replace fails, the temporary file is removed and `path` is left as it was."""
    os.makedirs(os.path.dirname(os.fspath(path)) or ".", exist_ok=True)
    tmp = f"{path}.tmp"
    fh = open(tmp, mode, **kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise
