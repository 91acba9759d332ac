"""Atomic file writes, shared by every layer that writes a file in place.

The campaign store's artifacts and checkpoints (:mod:`repro.fuzzer.store`,
which re-exports :func:`atomic_write_bytes`), the service's leases, the
experiment runner's result cache and the compiled-function cache all write
through here.  The module imports nothing from the package, so the runtime
can use it without importing the fuzzer.
"""

import os


def atomic_write_bytes(path, data, fsync=True):
    """Write ``data`` to ``path`` atomically: tmp + flush + fsync + rename.

    A crash at any point leaves either the old file (or nothing) at ``path``
    plus at worst a ``*.tmp.<pid>`` the scanner later quarantines — never a
    half-written artifact under the real name.
    """
    tmp_path = "%s.tmp.%d" % (path, os.getpid())
    with open(tmp_path, "wb") as handle:
        handle.write(data)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    return path
