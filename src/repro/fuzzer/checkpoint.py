"""Versioned, fingerprint-guarded on-disk campaign checkpoints.

A checkpoint file is the durable snapshot of one :class:`FuzzEngine`'s
mutable state (queue, virgin maps, RNG, schedule counters, crash log,
clock), written so a killed-and-resumed campaign is tick-for-tick identical
to an uninterrupted one.  The format is deliberately paranoid — real
campaigns die mid-write, get restored onto changed source trees, and read
files produced by other versions of themselves:

``MAGIC | version | source fingerprint | payload sha256 | pickled payload``

- a wrong magic or a payload whose digest does not match (torn/truncated
  write) raises :class:`CheckpointCorruptError`;
- a version or source-fingerprint mismatch (the engine changed underneath
  the snapshot, so resuming would silently diverge) raises
  :class:`CheckpointStaleError`.

Nothing here unpickles a byte of payload before every header check passes.
Writes go through :func:`repro.fileio.atomic_write_bytes` (tmp file + fsync +
``os.replace``) and then fsync the directory, so a crash or power loss during
:func:`write_checkpoint` leaves the previous checkpoint intact, and once it
returns the new one survives a power loss.  That lets a checkpoint cover
the campaign store's artifacts between the store's own sync points
(DESIGN.md §8).
"""

import hashlib
import os
import pickle

from repro.fileio import atomic_write_bytes, fsync_path

MAGIC = b"REPROCKPT\x00"
VERSION = 1
_FINGERPRINT_LEN = 16  # hex chars, matching runner._source_fingerprint()
_HEADER_LEN = len(MAGIC) + 2 + _FINGERPRINT_LEN + 32


class CheckpointError(RuntimeError):
    """Base class: a checkpoint file cannot be used.

    Every concrete error is *actionable*: it carries the offending
    ``path``, which header ``field`` failed validation, and the
    ``expected`` vs. ``found`` values — enough for an operator (or a
    supervisor log line) to tell a torn write from a version skew from a
    source-tree change without opening the file.
    """

    def __init__(self, message, path=None, field=None, expected=None, found=None):
        super().__init__(message)
        self.path = path
        self.field = field
        self.expected = expected
        self.found = found


class CheckpointCorruptError(CheckpointError):
    """Not a checkpoint, or a torn/truncated/bit-rotted one."""


class CheckpointStaleError(CheckpointError):
    """A checkpoint from another format version or source tree."""


def default_fingerprint():
    """The package-source fingerprint checkpoints are guarded by.

    Reuses the experiment runner's cache fingerprint: if the sources
    changed, cached results *and* checkpoints are equally untrustworthy.
    """
    from repro.experiments.runner import source_fingerprint

    return source_fingerprint()


def _normalize_fingerprint(fingerprint):
    fingerprint = default_fingerprint() if fingerprint is None else str(fingerprint)
    if len(fingerprint) != _FINGERPRINT_LEN:
        raise ValueError(
            "fingerprint must be %d hex chars, got %r" % (_FINGERPRINT_LEN, fingerprint)
        )
    return fingerprint


def write_checkpoint(path, state, meta=None, fingerprint=None):
    """Atomically write ``state`` (any picklable object) plus ``meta`` dict."""
    fingerprint = _normalize_fingerprint(fingerprint)
    payload = pickle.dumps(
        {"meta": dict(meta or {}), "state": state}, protocol=pickle.HIGHEST_PROTOCOL
    )
    header = (
        MAGIC
        + VERSION.to_bytes(2, "big")
        + fingerprint.encode("ascii")
        + hashlib.sha256(payload).digest()
    )
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    atomic_write_bytes(path, header + payload)
    fsync_path(directory)
    return path


def read_checkpoint(path, fingerprint=None, check_fingerprint=True):
    """Validate and load a checkpoint; returns ``(state, meta)``.

    Raises :class:`CheckpointCorruptError` / :class:`CheckpointStaleError`
    instead of ever unpickling garbage.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < _HEADER_LEN:
        raise CheckpointCorruptError(
            "%s: %d bytes is shorter than the %d-byte checkpoint header "
            "(truncated write?)" % (path, len(blob), _HEADER_LEN),
            path=path,
            field="length",
            expected=_HEADER_LEN,
            found=len(blob),
        )
    if not blob.startswith(MAGIC):
        raise CheckpointCorruptError(
            "%s: bad magic; not a repro checkpoint" % path,
            path=path,
            field="magic",
            expected=MAGIC,
            found=bytes(blob[: len(MAGIC)]),
        )
    offset = len(MAGIC)
    version = int.from_bytes(blob[offset : offset + 2], "big")
    offset += 2
    if version != VERSION:
        raise CheckpointStaleError(
            "%s: checkpoint format v%d, this build reads v%d"
            % (path, version, VERSION),
            path=path,
            field="version",
            expected=VERSION,
            found=version,
        )
    stored_fp = blob[offset : offset + _FINGERPRINT_LEN].decode("ascii", "replace")
    offset += _FINGERPRINT_LEN
    if check_fingerprint:
        expected_fp = _normalize_fingerprint(fingerprint)
        if stored_fp != expected_fp:
            raise CheckpointStaleError(
                "%s: written by source tree %s but this tree is %s; "
                "refusing to resume across code changes"
                % (path, stored_fp, expected_fp),
                path=path,
                field="fingerprint",
                expected=expected_fp,
                found=stored_fp,
            )
    digest = blob[offset : offset + 32]
    offset += 32
    payload = blob[offset:]
    found_digest = hashlib.sha256(payload).digest()
    if found_digest != digest:
        raise CheckpointCorruptError(
            "%s: payload sha256 %s does not match header %s over %d payload "
            "bytes (truncated or corrupt write)"
            % (path, found_digest.hex()[:16], digest.hex()[:16], len(payload)),
            path=path,
            field="sha256",
            expected=digest.hex(),
            found=found_digest.hex(),
        )
    try:
        record = pickle.loads(payload)
        state = record["state"]
        meta = record["meta"]
    except CheckpointError:
        raise
    except Exception as exc:
        # Digest-valid but undecodable: written by a different pickle
        # universe (missing class, protocol skew) — still a typed error,
        # never a raw EOFError/UnpicklingError escaping to the caller.
        raise CheckpointCorruptError(
            "%s: undecodable payload (%s: %s)" % (path, type(exc).__name__, exc),
            path=path,
            field="payload",
            expected="pickled {meta, state} record",
            found="%s: %s" % (type(exc).__name__, exc),
        )
    return state, meta
