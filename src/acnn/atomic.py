"""Where and how the toolkit writes a file. Every file goes through
atomic_open, so a reader never sees a half-written file and a failed write
leaves none; check_outputs is the one rule for which paths a run may write,
and every command and script that writes calls it before any work."""

from __future__ import annotations

import errno
import os
from contextlib import contextmanager, suppress
from pathlib import Path


def temporary_path(path) -> str:
    """The file that atomic_open writes before it replaces `path`."""
    return f"{path}.tmp"


def check_outputs(inputs: dict, outputs: dict) -> None:
    """Refuse an output that would replace a file the run reads or writes,
    itself or through its temporary file. `inputs` and `outputs` map the role
    of each path, which error messages name, to the path. An output that
    resolves to an input or to another output, or whose temporary file does,
    raises ValueError; one that is an existing directory, or that lies under
    an existing file, raises IsADirectoryError or NotADirectoryError."""
    roles = {Path(path).resolve(): role for role, path in inputs.items()}
    for role, path in outputs.items():
        path = Path(path)
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, "output path is a directory", str(path))
        nearest = next((p for p in path.parents if p.exists()), None)
        if nearest is not None and not nearest.is_dir():
            raise NotADirectoryError(errno.ENOTDIR, "not a directory", str(nearest))
        key = path.resolve()
        if key in roles:
            raise ValueError(f"{role} {path} is also the {roles[key]}")
        roles[key] = role
    for role, path in outputs.items():
        tmp = temporary_path(path)
        key = Path(tmp).resolve()
        if key in roles:
            raise ValueError(f"{role} {path} is written through {tmp}, the {roles[key]}")


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
