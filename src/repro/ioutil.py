"""Atomic file writes shared by every on-disk cache and report writer.

A reader that races a writer must see either the previous complete file
or the new complete file — never an interleaving of the two.  POSIX
``rename(2)`` (and its cross-platform spelling :func:`os.replace`) is
atomic within one filesystem, so every writer here follows the same
discipline: write the full payload to a uniquely named temp file in the
*destination directory* (same filesystem, so the replace cannot degrade
to a copy), then replace.  A writer that dies mid-write leaves only a
``*.tmp`` orphan, never a torn destination.

Used by the orchestrator result cache, the binary graph store and its
count sidecars, run manifests, golden snapshots and fuzz repro bundles —
all of which may be written concurrently by pool workers, parallel
benchmark sessions, or the ``repro serve`` daemon racing a batch run.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from typing import IO, Iterator, Union

PathLike = Union[str, os.PathLike]


@contextlib.contextmanager
def atomic_open(path: PathLike, mode: str = "w") -> Iterator[IO]:
    """Open a temp file that atomically replaces ``path`` on clean exit.

    The temp file lives next to the destination (``os.replace`` must not
    cross filesystems) and is unlinked if the body raises, so failed
    writes leave no partial destination and no stray temp behind.
    ``mode`` must be a write mode (``"w"`` or ``"wb"``).
    """
    path = os.fspath(path)
    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, suffix=".tmp")
    try:
        encoding = None if "b" in mode else "utf-8"
        with os.fdopen(fd, mode, encoding=encoding) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def atomic_write_json(
    path: PathLike,
    payload: object,
    *,
    indent: "int | None" = None,
    sort_keys: bool = False,
    newline: bool = False,
) -> None:
    """Serialize ``payload`` and atomically install it at ``path``."""
    with atomic_open(path, "w") as handle:
        json.dump(payload, handle, indent=indent, sort_keys=sort_keys)
        if newline:
            handle.write("\n")
