"""Small crash-safe filesystem helpers shared by the durability layers.

The result store and the lease scheduler follow the same write discipline:
build the content in a same-directory temp file named ``<target>.tmp<pid>``,
flush + fsync it, then ``os.replace`` it over the target.  A writer killed
between fsync and rename leaves the temp file behind forever -- harmless
(lookups never read it) but accumulating.
:func:`sweep_stale_tmp` is the garbage collector both layers run on open:
it removes ``*.tmp*`` files older than a safety age, never anything
younger (a concurrent writer's in-flight temp file must survive).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

__all__ = ["TMP_SUFFIX_GLOB", "atomic_write_text", "tmp_path_for", "sweep_stale_tmp"]

#: Glob matching the temp files of the atomic-write discipline.
TMP_SUFFIX_GLOB = "*.tmp[0-9]*"

#: Default safety age before an orphaned temp file is collected: old enough
#: that no live writer (a unit simulation takes seconds to minutes) can
#: still be mid-rename, young enough that crashed sweeps don't accrete.
DEFAULT_TMP_SWEEP_AGE_S = 3600.0


def tmp_path_for(path: Path) -> Path:
    """The same-directory temp file a crash-safe write of ``path`` uses."""
    return path.with_name(path.name + f".tmp{os.getpid()}")


def atomic_write_text(path: Path, text: str, fsync_dir: bool = False) -> None:
    """Write ``text`` to ``path`` atomically (fsynced temp file + rename).

    ``fsync_dir=True`` additionally fsyncs the parent directory so the
    rename itself is durable (the result store's contract); the lease layer
    skips it -- its readers tolerate a lost rename.
    """
    tmp = tmp_path_for(path)
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    if fsync_dir:
        try:
            dir_fd = os.open(path.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError:  # pragma: no cover - fs without directory fsync
            pass


def sweep_stale_tmp(
    root: Path,
    max_age_s: float = DEFAULT_TMP_SWEEP_AGE_S,
    recursive: bool = True,
    now: float | None = None,
) -> int:
    """Remove orphaned ``*.tmp<pid>`` files under ``root``; returns the count.

    Only files whose mtime is older than ``max_age_s`` are collected, so a
    concurrent writer's live temp file is never touched.  Races with other
    sweepers (two campaigns opening one shared store) are benign: the loser
    of an unlink race just skips the file.
    """
    root = Path(root)
    if max_age_s is None or not root.is_dir():
        return 0
    cutoff = (time.time() if now is None else now) - max_age_s
    swept = 0
    pattern = f"**/{TMP_SUFFIX_GLOB}" if recursive else TMP_SUFFIX_GLOB
    for tmp in root.glob(pattern):
        try:
            if not tmp.is_file() or tmp.stat().st_mtime > cutoff:
                continue
            tmp.unlink()
            swept += 1
        except OSError:  # vanished mid-sweep (a racing sweeper won)
            continue
    return swept
