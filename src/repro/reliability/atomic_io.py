"""Kill-9-hardened file writes, shared across the persistence layers.

The run journal earned this pattern first (PR 4): rewrite to a temp file,
``fsync`` *before* the atomic rename, optionally rotate the previous good
copy to ``<path>.bak``, and fsync the directory so the rename itself
survives a power cut.  The fuzz triage corpus and the analysis service's
result store need exactly the same durability story, so the mechanics
live here once instead of being re-derived (slightly differently) per
subsystem.

Guarantees, assuming a POSIX filesystem:

* a reader never observes a half-written file at ``path`` — it sees
  either the old complete content or the new complete content;
* with ``backup=True``, a crash between the two renames leaves either
  (old main, stale bak) or (no main, good bak); :func:`read_json_with_backup`,
  which every journal loads through, recovers from both;
* after return, the new content is durable (file fsync'd, directory
  entry fsync'd on a best-effort basis).
"""

from __future__ import annotations

import json
import os
import warnings

__all__ = [
    "atomic_write_text",
    "atomic_write_json",
    "fsync_directory",
    "read_json_with_backup",
]


def fsync_directory(directory):
    """Best-effort fsync of a directory entry (rename durability)."""
    if not directory:
        return
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def atomic_write_text(path, text, backup=False):
    """Atomically replace ``path`` with ``text`` (fsync temp + rename).

    With ``backup=True`` the previous content (if any) is rotated to
    ``<path>.bak`` before the rename, so a crash at any instant leaves a
    recoverable copy on disk.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp_path = path + ".tmp"
    with open(tmp_path, "w") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    if backup and os.path.exists(path):
        os.replace(path, path + ".bak")
    os.replace(tmp_path, path)
    fsync_directory(directory)


def atomic_write_json(path, payload, backup=False, indent=2):
    """Atomically write ``payload`` as canonical (sorted-keys) JSON.

    Sorted keys keep every persisted artifact byte-identical across
    ``PYTHONHASHSEED`` values — the property the journals, the triage
    corpus, and the service result store all assert in tests.
    """
    text = json.dumps(payload, indent=indent, sort_keys=True) + "\n"
    atomic_write_text(path, text, backup=backup)


def read_json_with_backup(path, label, check=None):
    """Load JSON from ``path``, falling back to ``<path>.bak``.

    Returns ``(data, origin)``.  ``origin`` is None when the main file
    loaded (``data`` is None if no file exists at all), ``"bak"`` when
    the backup did, and ``"empty"`` when the main file exists but
    neither copy is usable.  ``check(data)`` raises ``ValueError`` for a
    document of the wrong shape, which counts as unreadable.  Each
    fallback warns, naming the file as ``label``.
    """
    path = os.fspath(path)
    for candidate, origin in ((path, None), (path + ".bak", "bak")):
        if not os.path.exists(candidate):
            continue
        try:
            with open(candidate) as handle:
                data = json.load(handle)
            if check is not None:
                check(data)
        except (ValueError, OSError) as error:
            warnings.warn(
                f"{label} {candidate} is unreadable ({error}); falling back",
                stacklevel=3,
            )
            continue
        if origin is not None:
            warnings.warn(
                f"recovered {label} from backup {candidate}", stacklevel=3
            )
        return data, origin
    return None, ("empty" if os.path.exists(path) else None)
