"""Atomic file writes, shared by every layer that writes a file in place.

The campaign store's artifacts, manifest and ``fuzzer_stats``
(:mod:`repro.fuzzer.store`, which re-exports :func:`atomic_write_bytes`),
checkpoints, the service's journal, leases and locks, the experiment
runner's result cache and the compiled-function cache all write through
here.  Each caller chooses whether its file is fsynced: commit records
are, store artifacts wait for their store's next sync point, and
caches never are.  The module imports nothing from the package, so the
runtime can use it without importing the fuzzer.
"""

import os


def atomic_write_bytes(path, data, fsync=True):
    """Write ``data`` to ``path`` atomically: tmp + flush [+ fsync] + rename.

    A crash at any point leaves either the old file (or nothing) at ``path``
    plus at worst a ``*.tmp.<pid>`` the scanner later quarantines — never a
    half-written artifact under the real name.  Without ``fsync`` that
    holds for a killed process only: after a power loss the file may be
    empty or missing, which a store's recovery scan detects.
    """
    tmp_path = "%s.tmp.%d" % (path, os.getpid())
    with open(tmp_path, "wb") as handle:
        handle.write(data)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    return path


def fsync_path(path):
    """Best-effort fsync of a file or directory by path (never raises).

    A directory's fsync makes the renames into it survive power loss.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
