"""The durable campaign workspace (AFL-style output directory).

Long campaigns survive machine trouble because the *filesystem*, not the
fuzzer process, is the source of truth: AFL's ``out/<instance>/queue/``,
``crashes/`` and ``hangs/`` directories are what secondary instances sync
through and what a killed campaign resumes from.  This module is that layout
for the reproduction:

::

    out/
      <worker>/                 "main" (single instance) or "w0", "w1", ...
        LOCK                    pidfile; two campaigns cannot share a worker dir
        manifest.json           versioned campaign identity + round watermark
        fuzzer_stats            AFL-style ``key : value`` progress summary
        queue/                  id:NNNNNN,hash:<sha1> retained inputs
        crashes/                id:NNNNNN,sig:<hash5>,hash:<sha1> + triage sidecars
        hangs/                  id:NNNNNN,hash:<sha1> hanging inputs
        quarantine/             torn / hash-mismatched files the scanner evicted

Every artifact is a *sealed file* — ``head:key[,sig:…],hash:<sha1>``,
written atomically and trusted only once its body matches its name — and
this module holds the one codec for that format, which the service
journal, its snapshots and its intake requests use too (DESIGN.md §8).
The tolerant scanner (:meth:`CampaignStore.scan`) verifies every file,
quarantines anything torn, truncated, misnamed, or bit-rotted — counted,
logged, published to telemetry, never fatal — and hands the survivors
back for deterministic re-execution through
:meth:`~repro.fuzzer.engine.FuzzEngine.import_input`
(:meth:`CampaignStore.replay_into`).

The store is an *observer* of the engine, like telemetry: it charges no
virtual clock, draws no RNG, and is excluded from checkpoints; a campaign
with a store attached is field-for-field equal to one without.

Durability is priced at the store's sync points, not per artifact
(DESIGN.md §8).  An artifact and its sidecars are written atomically but
not fsynced, and the store lists them; :meth:`CampaignStore.record_round`
and :meth:`CampaignStore.finalize` fsync the listed files and the slice
directories in one pass, so each synced round and a finished campaign
survive a power loss.  Between sync points a kill loses nothing, and a
checkpoint covers a power loss: it holds every artifact written so far,
and resuming it quarantines each torn one and writes it back.

Fault injection (:mod:`repro.fuzzer.faultinject`) targets store paths with
``torn-write`` / ``corrupt-file`` actions keyed on the store's write
counter, so the quarantine-and-continue path is provable in CI rather than
hoped for.
"""

import hashlib
import json
import logging
import os
import socket
import threading
import time

from repro.fileio import atomic_write_bytes, fsync_path

logger = logging.getLogger("repro.fuzzer.store")

#: Manifest format version; bumped on incompatible layout changes.
MANIFEST_VERSION = 1

MANIFEST_NAME = "manifest.json"
STATS_NAME = "fuzzer_stats"
LOCK_NAME = "LOCK"
QUEUE_DIR = "queue"
CRASH_DIR = "crashes"
HANG_DIR = "hangs"
QUARANTINE_DIR = "quarantine"

#: Name of the single-instance worker slice (AFL++ calls it "default").
MAIN_WORKER = "main"

#: Lease on a steal marker: a stealer wedged on one host cannot block
#: other hosts past this many seconds.
_STEAL_MARKER_TTL = 30.0


class StoreError(RuntimeError):
    """Base class: the campaign workspace cannot be used."""


class StoreLockError(StoreError):
    """Another live campaign owns this worker directory."""

    def __init__(self, path, owner_pid, owner_host=None):
        self.path = path
        self.owner_pid = owner_pid
        self.owner_host = owner_host
        where = (
            "pid %s" % owner_pid
            if owner_host is None
            else "%s pid %s" % (owner_host, owner_pid)
        )
        super().__init__(
            "%s is locked by live campaign %s; refusing to share an "
            "output directory between two campaigns" % (path, where)
        )


class StoreFencedError(StoreError):
    """This process's lock was stolen: its lease expired and a successor
    re-acquired the directory.  Any further write would land in the
    successor's slice — the fenced owner must stop, not retry."""

    def __init__(self, path, owner):
        self.path = path
        self.owner = owner
        super().__init__(
            "%s: lease lost — the lock now names %s; this writer is fenced"
            % (path, owner)
        )


class StoreMismatchError(StoreError):
    """The directory's manifest names a different campaign."""

    def __init__(self, path, field, expected, found):
        self.path = path
        self.field = field
        self.expected = expected
        self.found = found
        super().__init__(
            "%s was written by a different campaign: manifest %s is %r, "
            "this campaign is %r (use a fresh --output directory)"
            % (path, field, found, expected)
        )


def content_hash(data):
    """Content identity of one input (same digest the corpus sync uses)."""
    return hashlib.sha1(bytes(data)).hexdigest()


def _create_with_payload(path, payload, fsync):
    """Create ``path`` holding ``payload``; ``FileExistsError`` if it exists.

    The payload goes into a private temp file first, which is then
    hard-linked to ``path``.  ``os.link`` fails when ``path`` exists, so
    this is as exclusive as ``O_EXCL``, and no reader ever finds ``path``
    empty: an empty lock reads as unowned, and a racer would steal it.
    """
    tmp_path = "%s.tmp.%d.%d" % (path, os.getpid(), threading.get_ident())
    fd = os.open(tmp_path, os.O_CREAT | os.O_TRUNC | os.O_WRONLY)
    try:
        try:
            os.write(fd, payload)
            if fsync:
                os.fsync(fd)
        finally:
            os.close(fd)
        os.link(tmp_path, path)
    finally:
        os.unlink(tmp_path)


# -- sealed files ----------------------------------------------------------------

#: Heads of the sealed names this tree writes (DESIGN.md §8), each with the
#: width its integer key is zero-padded to; None marks a text key (a nonce).
SEALED_HEADS = {"id": 6, "rec": 8, "snap": 8, "req": None}

#: The head whose names may carry a ``sig:`` field (crash artifacts).
_SIGNED_HEAD = "id"

EMPTY_FILE = "empty file (torn write)"
HASH_MISMATCH = "hash mismatch (torn?)"

#: :class:`ScanReport` code of each :func:`read_sealed` failure; any other
#: reason is an unreadable file.
_SCAN_CODES = {EMPTY_FILE: "empty", HASH_MISMATCH: "bad-hash"}

#: Triage files written next to each crash artifact, named after it.
REPORT_SIDECAR = ".report.txt"
TRIAGE_SIDECAR = ".triage.json"
CRASH_SIDECARS = (REPORT_SIDECAR, TRIAGE_SIDECAR)


def _sidecar_damage(path):
    """Why the crash artifact at ``path`` lacks a whole sidecar, or None."""
    for suffix in CRASH_SIDECARS:
        try:
            if os.path.getsize(path + suffix) == 0:
                return "empty %s sidecar (torn write)" % suffix
        except OSError:
            return "missing %s sidecar" % suffix
    return None


def sealed_name(head, key, digest, sig=None):
    """``head:key[,sig:…],hash:<digest>``, the name of a sealed file."""
    width = SEALED_HEADS[head]
    if width is not None:
        key = "%0*d" % (width, key)
    if sig is not None:
        return "%s:%s,sig:%s,hash:%s" % (head, key, sig, digest)
    return "%s:%s,hash:%s" % (head, key, digest)


def parse_sealed_name(name, head):
    """``(key, sig_or_None, digest)`` from a sealed name under ``head``, or None.

    Strict: the fields are exactly ``head``, ``sig`` (crash artifacts
    only) and ``hash`` in that order, none empty; an integer key is
    decimal digits.  No sealed name holds a dot, so sidecars
    (``.report.txt``) and temp files (``.tmp.<pid>``) never parse.
    """
    fields = name.split(",")
    if "." in name or len(fields) not in (2, 3):
        return None
    if len(fields) == 3 and head != _SIGNED_HEAD:
        return None
    labels = (head, "hash") if len(fields) == 2 else (head, "sig", "hash")
    values = []
    for field, label in zip(fields, labels):
        found, _colon, value = field.partition(":")
        if found != label or not value:
            return None
        values.append(value)
    key = values[0]
    if SEALED_HEADS[head] is not None:
        if not (key.isascii() and key.isdigit()):
            return None
        key = int(key)
    return key, values[1] if len(values) == 3 else None, values[-1]


def write_sealed(directory, head, key, body, sig=None, digest=None, fsync=True):
    """Atomically write ``body`` under its sealed name; returns the path.

    ``digest`` spares a second hash when the caller already has one.  No
    directory fsync here: store artifacts are made durable at their
    store's next sync point, not one by one.
    """
    if digest is None:
        digest = content_hash(body)
    path = os.path.join(directory, sealed_name(head, key, digest, sig))
    return atomic_write_bytes(path, body, fsync=fsync)


def write_sealed_json(directory, head, key, obj, fsync=True):
    """Seal ``obj`` as compact sorted JSON; with ``fsync``, fsync the directory."""
    body = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = write_sealed(directory, head, key, body, fsync=fsync)
    if fsync:
        fsync_path(directory)
    return path


def read_sealed(path, digest):
    """``(body, None)`` if ``path`` holds bytes hashing to ``digest``.

    Otherwise ``(None, reason)``: unreadable, empty (a torn write), or
    :data:`HASH_MISMATCH`.  Never raises.
    """
    try:
        with open(path, "rb") as handle:
            body = handle.read()
    except OSError as exc:
        return None, "unreadable: %s" % exc
    if not body:
        return None, EMPTY_FILE
    if content_hash(body) != digest:
        return None, HASH_MISMATCH
    return body, None


def read_sealed_json(path, digest):
    """:func:`read_sealed` of a JSON object: ``(dict, None)`` or ``(None, reason)``."""
    body, reason = read_sealed(path, digest)
    if body is None:
        return None, reason
    try:
        data = json.loads(body.decode("utf-8"))
    except ValueError:
        data = None
    if not isinstance(data, dict):
        return None, "malformed JSON"
    return data, None


def quarantine(path, qdir, reason):
    """Move one damaged file into ``qdir``; True if it moved (never raises).

    A name already taken in ``qdir`` gets a numeric suffix, so nothing
    quarantined is ever overwritten.
    """
    base = os.path.basename(path)
    target = os.path.join(qdir, base)
    bump = 0
    while os.path.exists(target):
        bump += 1
        target = os.path.join(qdir, "%s.%d" % (base, bump))
    try:
        os.makedirs(qdir, exist_ok=True)
        os.replace(path, target)
    except OSError as exc:
        logger.warning("%s: could not quarantine (%s); ignoring", path, exc)
        return False
    logger.warning("%s: quarantined (%s)", path, reason)
    return True


def list_sealed(directory, head):
    """``(key, sig, digest, name)`` of each ``head`` file in ``directory``.

    In key order; anything that does not parse (another head, a sidecar, a
    temp file) is skipped, and a missing directory lists as empty.
    """
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    found = []
    for name in names:
        parsed = parse_sealed_name(name, head)
        if parsed is not None:
            found.append(parsed + (name,))
    found.sort(key=lambda entry: (entry[0], entry[3]))
    return found


def walk_artifacts(root, kind, workers=None):
    """Yield ``(path, seq, sig, digest)`` for each ``root/<worker>/<kind>/`` artifact.

    Workers go in sorted order (or the order of ``workers``), artifacts in
    id order; sidecars and temp files are skipped.  Nothing is verified.
    """
    if workers is None:
        try:
            workers = sorted(os.listdir(root))
        except OSError:
            return
    for worker in workers:
        directory = os.path.join(root, worker, kind)
        for seq, sig, digest, name in list_sealed(directory, _SIGNED_HEAD):
            yield os.path.join(directory, name), seq, sig, digest


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


def lock_host():
    """This actor's host identity as embedded in lock payloads.

    ``REPRO_HOST`` overrides the real hostname — that is how tests (and the
    two-host CI matrix) simulate distinct hosts sharing one filesystem.
    Separator characters are squashed so the payload stays parseable.
    """
    host = os.environ.get("REPRO_HOST") or socket.gethostname() or "localhost"
    return "".join("-" if ch in ":, \t\n\r" else ch for ch in host)


class LockRecord:
    """Parsed contents of one pidfile/lease lock.

    Two payload formats coexist on disk (mixed-format roots are normal
    during a rolling upgrade):

    - legacy: ``<pid>\\n`` — host-blind, liveness = local pid check;
    - lease:  ``<host>:<pid>:<epoch>:<expiry>\\n`` — host-qualified, with
      a fencing ``epoch`` and a wall-clock lease ``expiry`` (the literal
      ``-`` means "no lease": liveness falls back to same-host pid rules).
    """

    __slots__ = ("host", "pid", "epoch", "expiry", "legacy")

    def __init__(self, host, pid, epoch=0, expiry=None, legacy=False):
        self.host = host
        self.pid = int(pid)
        self.epoch = int(epoch)
        self.expiry = None if expiry is None else float(expiry)
        self.legacy = bool(legacy)

    def expired(self, now=None):
        """True once the lease deadline has passed (never for no-lease)."""
        if self.expiry is None:
            return False
        return (time.time() if now is None else now) >= self.expiry

    def names(self, host, pid, epoch=None):
        """Whether this record identifies the given owner."""
        if self.legacy:
            return self.pid == pid
        if self.host != host or self.pid != pid:
            return False
        return epoch is None or self.epoch == epoch

    def __repr__(self):
        if self.legacy:
            return "LockRecord(pid %d, legacy)" % self.pid
        return "LockRecord(%s:%d:%d:%s)" % (
            self.host,
            self.pid,
            self.epoch,
            "-" if self.expiry is None else "%.3f" % self.expiry,
        )


def format_lock_payload(host, pid, epoch=0, expiry=None):
    """Serialize a lease lock record (``expiry=None`` -> no lease)."""
    return "%s:%d:%d:%s\n" % (
        host,
        pid,
        epoch,
        "-" if expiry is None else "%.3f" % expiry,
    )


def read_lock_record(lock_path):
    """Parse a lock file (either format) into a :class:`LockRecord`.

    Returns None when the file is missing, unreadable, or unparseable —
    satellite of the tolerant-scan philosophy: damage never raises here.
    """
    try:
        with open(lock_path, "rb") as handle:
            text = handle.read().decode("ascii", "replace").strip()
    except OSError:
        return None
    if not text:
        return None
    head = text.split()[0]
    if ":" not in head:
        try:
            return LockRecord(None, int(head), legacy=True)
        except ValueError:
            return None
    parts = head.split(":")
    if len(parts) != 4:
        return None
    host, pid, epoch, expiry = parts
    try:
        return LockRecord(
            host, int(pid), int(epoch), None if expiry == "-" else float(expiry)
        )
    except ValueError:
        return None


def read_pidfile_owner(lock_path):
    """The pid recorded in a pidfile lock, or None if unreadable/missing.

    Tolerates both the legacy bare-pid payload and the host-qualified
    lease payload, so mixed-format roots keep working during upgrades.
    """
    record = read_lock_record(lock_path)
    return record.pid if record is not None else None


def _lock_is_stale(record, now=None):
    """Whether a lock record may be stolen.

    Legacy (host-blind) locks keep the pid-liveness rule.  Lease locks are
    stealable once *expired* — the whole point: a paused VM or partitioned
    host cannot be pid-probed, but its lease runs out on its own.  A live,
    unexpired lease from another host is never stale; an unexpired no-lease
    lock from another host is conservatively never stale either (refusal
    beats corruption when liveness is unknowable).
    """
    if record is None:
        return True
    if record.legacy:
        return not _pid_alive(record.pid)
    same_host = record.host == lock_host()
    if same_host and not _pid_alive(record.pid):
        return True
    if record.expiry is not None:
        return record.expired(now)
    return False


def _steal_stale_lock(directory, lock_path):
    """Remove a stale (dead-owner) pidfile lock, marker-guarded.

    Two concurrent openers can both observe the same stale lock; naive
    ``unlink`` lets the slower one remove the *winner's* fresh lock, and
    both end up holding the directory.  The steal is therefore serialized
    through an exclusive marker file: only the marker holder may unlink,
    and it re-reads the owner *under the marker* so a lock re-taken by a
    live process in the meantime survives.  Returns to the caller's
    acquire loop either way; raises :class:`StoreLockError` when the lock
    (or the marker) turns out to be held by a live process after all.
    """
    marker = lock_path + ".steal"
    # The marker carries a short lease of its own, so a steal wedged on
    # one host cannot block other hosts forever.
    marker_payload = format_lock_payload(
        lock_host(), os.getpid(), 0, time.time() + _STEAL_MARKER_TTL
    ).encode("ascii")
    try:
        _create_with_payload(marker, marker_payload, fsync=False)
    except FileExistsError:
        # Another opener is mid-steal.  A live marker holder owns the right
        # to the lock — that is contention, not staleness.  A dead (or
        # lease-expired) one left its marker behind; clear it and retry.
        marker_record = read_lock_record(marker)
        if marker_record is not None and not _lock_is_stale(marker_record):
            raise StoreLockError(
                directory, marker_record.pid, owner_host=marker_record.host
            )
        try:
            os.unlink(marker)
        except OSError:
            pass
        return
    try:
        record = read_lock_record(lock_path)
        if _lock_is_stale(record):
            logger.warning(
                "%s: stealing stale lock left by %s",
                directory,
                record if record is not None else "an unreadable owner",
            )
            try:
                os.unlink(lock_path)
            except OSError:
                pass
    finally:
        try:
            os.unlink(marker)
        except OSError:
            pass


def acquire_pidfile_lock(directory, fsync=True, ttl=None, epoch=0, clock=None):
    """Take the exclusive lock on ``directory``; returns its path.

    The payload is the host-qualified lease format
    (``host:pid:epoch:expiry``); ``ttl=None`` writes a no-lease lock whose
    liveness follows the same-host pid rules, ``ttl=<secs>`` a lease that
    other hosts may steal once it expires.  ``epoch`` is the holder's
    fencing epoch, stamped into the payload so a successor (and the holder
    itself, on renewal) can tell *which* acquisition a record belongs to.

    A lock held by a live owner raises :class:`StoreLockError`; a stale
    one (dead same-host pid, or expired lease) is stolen through the
    marker-guarded path above, so concurrent openers racing for the same
    stale lock end with exactly one holder.  The per-worker campaign
    store, the service root, and the service lease all reuse this.
    """
    lock_path = os.path.join(directory, LOCK_NAME)
    now = clock() if clock is not None else time.time()
    payload = format_lock_payload(
        lock_host(), os.getpid(), epoch, None if ttl is None else now + ttl
    ).encode("ascii")
    while True:
        try:
            _create_with_payload(lock_path, payload, fsync)
        except FileExistsError:
            record = read_lock_record(lock_path)
            if record is not None and not _lock_is_stale(record):
                # A live owner — even this very process (a second store on
                # the same slice) — means two campaigns would clobber one
                # directory.  Refuse.
                raise StoreLockError(
                    directory, record.pid, owner_host=record.host
                )
            _steal_stale_lock(directory, lock_path)
            continue
        return lock_path


def renew_pidfile_lock(directory, ttl, epoch=0, clock=None, fsync=True):
    """Atomically extend this owner's lease on ``directory``.

    Verifies the lock still names this (host, pid, epoch) before
    rewriting it with a fresh expiry; a lock that meanwhile names someone
    else — the lease expired and was stolen — raises
    :class:`StoreFencedError`, the signal for the fenced owner to stop
    writing.  The verify-then-replace pair is not atomic against a
    concurrent steal; that residual window is exactly why journal records
    are fence-stamped and resolved at scan time.
    """
    lock_path = os.path.join(directory, LOCK_NAME)
    record = read_lock_record(lock_path)
    if record is None or not record.names(lock_host(), os.getpid(), epoch):
        raise StoreFencedError(directory, record)
    now = clock() if clock is not None else time.time()
    atomic_write_bytes(
        lock_path,
        format_lock_payload(lock_host(), os.getpid(), epoch, now + ttl).encode(
            "ascii"
        ),
        fsync=fsync,
    )
    return lock_path


def release_pidfile_lock(directory, epoch=None, force=False):
    """Drop this owner's lock on ``directory`` (idempotent, best-effort).

    The unlink is ownership-checked: a process whose stale lock was
    stolen and re-acquired must not delete the *new* owner's lock, so the
    file is removed only when it still names this host+pid (and ``epoch``,
    when given).  ``force=True`` skips the check — administrative cleanup
    of a root nobody owns.
    """
    lock_path = os.path.join(directory, LOCK_NAME)
    if not force:
        record = read_lock_record(lock_path)
        if record is not None and not record.names(
            lock_host(), os.getpid(), epoch
        ):
            logger.warning(
                "%s: not releasing a lock now owned by %s", directory, record
            )
            return
    try:
        os.unlink(lock_path)
    except OSError:
        pass


class ScanReport:
    """Outcome of one tolerant directory scan."""

    __slots__ = ("kind", "survivors", "quarantined")

    def __init__(self, kind):
        self.kind = kind
        #: ``(seq, sig, digest, data)`` for every verified artifact, id order.
        self.survivors = []
        #: ``(original_path, reason)`` for every file moved to quarantine.
        self.quarantined = []

    def __repr__(self):
        return "ScanReport(%s: %d ok, %d quarantined)" % (
            self.kind,
            len(self.survivors),
            len(self.quarantined),
        )


class CampaignStore:
    """One worker's slice of a durable campaign workspace.

    ``root`` is the campaign output directory; ``worker`` names this
    instance's subdirectory.  ``meta`` (subject/config/run_seed/...) is
    recorded in the manifest and *verified* against a pre-existing manifest
    on reopen — resuming a ``gdk`` campaign onto a ``cflow`` store raises
    :class:`StoreMismatchError` instead of silently mixing corpora.

    ``lock=True`` (the default) takes an exclusive pidfile lock on the
    worker directory.  A lock held by a live process raises
    :class:`StoreLockError`; a lock left behind by a dead one (the killed
    campaign this store exists to survive) is logged and stolen.

    ``worker_index`` / ``incarnation`` key the fault-injection plan:
    ``torn-write@<worker_index>.<nth-write>`` tears the store's n-th
    committed artifact, ``corrupt-file`` flips bytes in it.
    """

    def __init__(
        self,
        root,
        worker=MAIN_WORKER,
        meta=None,
        lock=True,
        worker_index=0,
        incarnation=0,
        fsync=True,
        bus=None,
        lease_ttl=None,
    ):
        self.root = os.path.abspath(root)
        self.worker = worker
        self.worker_dir = os.path.join(self.root, worker)
        self.quarantine_dir = os.path.join(self.worker_dir, QUARANTINE_DIR)
        self.worker_index = int(worker_index)
        self.incarnation = int(incarnation)
        self.fsync = fsync
        self._bus = bus
        #: Lease seconds on the slice lock (None = classic no-lease lock).
        #: The incarnation doubles as the slice's fencing epoch: attempt N's
        #: lock names epoch N, so a stalled attempt N-1 whose lease expired
        #: and was stolen fails its next renewal with StoreFencedError.
        self.lease_ttl = lease_ttl
        self._locked = False
        self._write_no = 0  # committed artifact writes (fault-plan key)
        self._seen = {}  # (kind, content hash) -> path of the artifact on disk
        # Artifacts and sidecars written since the last sync point (only
        # listed when this store fsyncs at all).
        self._unsynced = []
        self._seq = {QUEUE_DIR: 0, CRASH_DIR: 0, HANG_DIR: 0}
        self.quarantine_count = 0
        for sub in (QUEUE_DIR, CRASH_DIR, HANG_DIR, QUARANTINE_DIR):
            os.makedirs(os.path.join(self.worker_dir, sub), exist_ok=True)
        if lock:
            self._acquire_lock()
        meta = dict(meta or {})
        # Epoch-stamp the manifest: which host and which fencing epoch
        # (= incarnation) last owned this slice.
        meta.setdefault("host", lock_host())
        meta["fence"] = self.incarnation
        self.meta = self._load_or_init_manifest(meta)
        self._adopt_existing()

    # -- lifecycle -------------------------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def close(self):
        """Flush the manifest and release the lock (idempotent).

        Both steps are ownership-checked end to end: a store whose lease
        was stolen must neither clobber the successor's manifest nor
        delete its lock.
        """
        if self._locked:
            try:
                self._write_manifest()
            except StoreFencedError:
                logger.warning(
                    "%s: fenced at close; manifest left to the successor",
                    self.worker_dir,
                )
            release_pidfile_lock(self.worker_dir, epoch=self.incarnation)
            self._locked = False

    def _acquire_lock(self):
        acquire_pidfile_lock(
            self.worker_dir,
            fsync=self.fsync,
            ttl=self.lease_ttl,
            epoch=self.incarnation,
        )
        self._locked = True

    def renew_lease(self):
        """Extend the slice lease (no-op for classic no-lease locks).

        Raises :class:`StoreFencedError` when the lock no longer names
        this worker — its lease expired and a successor took the slice.
        """
        if self._locked and self.lease_ttl is not None:
            renew_pidfile_lock(
                self.worker_dir,
                self.lease_ttl,
                epoch=self.incarnation,
                fsync=self.fsync,
            )

    def check_fence(self):
        """Raise :class:`StoreFencedError` if this store lost its lock."""
        if not self._locked:
            return
        record = read_lock_record(os.path.join(self.worker_dir, LOCK_NAME))
        if record is None or not record.names(
            lock_host(), os.getpid(), self.incarnation if self.lease_ttl else None
        ):
            raise StoreFencedError(self.worker_dir, record)

    # -- manifest / stats ------------------------------------------------------

    def _manifest_path(self):
        return os.path.join(self.worker_dir, MANIFEST_NAME)

    def _load_or_init_manifest(self, meta):
        path = self._manifest_path()
        existing = None
        if os.path.exists(path):
            try:
                with open(path, encoding="utf-8") as handle:
                    existing = json.load(handle)
            except (OSError, ValueError):
                # A torn manifest is quarantined like any other torn file;
                # identity is then re-seeded from ``meta``.
                if quarantine(path, self.quarantine_dir, "unreadable manifest"):
                    self.quarantine_count += 1
                existing = None
        if existing is not None:
            if int(existing.get("version", -1)) != MANIFEST_VERSION:
                raise StoreMismatchError(
                    path, "version", MANIFEST_VERSION, existing.get("version")
                )
            for field in ("subject", "config", "run_seed"):
                want = meta.get(field)
                have = existing.get(field)
                if want is not None and have is not None and want != have:
                    raise StoreMismatchError(path, field, want, have)
            merged = dict(existing)
            merged.update({k: v for k, v in meta.items() if v is not None})
            return merged
        manifest = {"version": MANIFEST_VERSION, "worker": self.worker, "rounds": 0}
        manifest.update(meta)
        self.meta = manifest
        self._write_manifest()
        return manifest

    def _write_manifest(self):
        if self.lease_ttl is not None and self._locked:
            self.check_fence()
        data = json.dumps(self.meta, indent=2, sort_keys=True).encode("utf-8")
        atomic_write_bytes(self._manifest_path(), data, fsync=self.fsync)

    def record_round(self, round_no):
        """Watermark the last fully-synced round (recovery replays after it).

        The round's artifacts are made durable before the manifest says so.
        """
        self.make_durable()
        self.meta["rounds"] = int(round_no)
        self._write_manifest()

    def rounds(self):
        return int(self.meta.get("rounds", 0))

    def write_stats(self, stats):
        """Write the AFL-style ``fuzzer_stats`` summary atomically."""
        lines = ["%-18s: %s" % (key, stats[key]) for key in sorted(stats)]
        atomic_write_bytes(
            os.path.join(self.worker_dir, STATS_NAME),
            ("\n".join(lines) + "\n").encode("utf-8"),
            fsync=self.fsync,
        )

    def read_stats(self):
        """Parse ``fuzzer_stats`` back into a dict (empty if absent/torn)."""
        path = os.path.join(self.worker_dir, STATS_NAME)
        stats = {}
        try:
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    key, colon, value = line.partition(":")
                    if colon:
                        stats[key.strip()] = value.strip()
        except OSError:
            pass
        return stats

    # -- artifact writes -------------------------------------------------------

    def _dir(self, kind):
        return os.path.join(self.worker_dir, kind)

    def _commit(self, kind, data, sig=None):
        """Dedupe, atomically write, and fault-check one artifact."""
        if self.lease_ttl is not None:
            # Leased slices refuse late writes outright: a fenced worker
            # must not grow a successor's directory.
            self.check_fence()
        digest = content_hash(data)
        if self._seen.get((kind, digest)) is not None:
            return None
        seq = self._seq[kind]
        self._seq[kind] = seq + 1
        path = write_sealed(
            self._dir(kind), "id", seq, bytes(data), sig, digest, fsync=False
        )
        if self.fsync:
            self._unsynced.append(path)
        self._seen[(kind, digest)] = path
        self._write_no += 1
        self._fire_store_fault(path)
        return path

    def make_durable(self):
        """fsync every artifact and sidecar written since the last sync
        point, then the slice directories their names were renamed into."""
        if not self._unsynced:
            return
        for path in self._unsynced:
            fsync_path(path)  # a file quarantined since is skipped
        for kind in (QUEUE_DIR, CRASH_DIR, HANG_DIR):
            fsync_path(self._dir(kind))
        self._unsynced.clear()

    def _fire_store_fault(self, path):
        from repro.fuzzer import faultinject

        plan = faultinject.active_plan()
        if not plan:
            return
        fault = plan.match(
            "store", self.worker_index, self._write_no, self.incarnation
        )
        if fault is not None:
            faultinject.fire_store_fault(fault, path)

    def save_queue_entry(self, entry):
        """Stream one retained queue entry to ``queue/`` (content-deduped)."""
        return self._commit(QUEUE_DIR, entry.data)

    def save_crash(self, record):
        """Stream one deduplicated crash with its triage report sidecars.

        The input lands in ``crashes/`` under its stack-hash signature; the
        human-readable ASan-style report and a machine-readable triage JSON
        sit next to it, so a crash directory is actionable without re-running
        anything.
        """
        path = self._commit(CRASH_DIR, record.data, sig=record.hash5)
        if path is None:
            return None
        trap = record.trap
        report = trap.report() + "\n"
        atomic_write_bytes(
            path + REPORT_SIDECAR, report.encode("utf-8"), fsync=False
        )
        triage = {
            "bug": list(trap.bug_id()),
            "kind": trap.kind,
            "detail": trap.detail,
            "stack": [[frame.function, frame.line] for frame in trap.stack],
            "stack_hash": record.hash5,
            "found_at": record.found_at,
            "afl_unique": bool(record.afl_unique),
        }
        atomic_write_bytes(
            path + TRIAGE_SIDECAR,
            json.dumps(triage, indent=2, sort_keys=True).encode("utf-8"),
            fsync=False,
        )
        if self.fsync:
            self._unsynced += [path + suffix for suffix in CRASH_SIDECARS]
        return path

    def save_hang(self, data):
        """Stream one hanging input to ``hangs/`` (content-deduped)."""
        return self._commit(HANG_DIR, data)

    # -- tolerant scanning / recovery ------------------------------------------

    def _adopt_existing(self):
        """Seed sequence counters, dedupe sets and the unsynced list from
        what is on disk.

        Reopening a store (resume, or a restarted worker) must continue the
        id sequence and must not re-write artifacts that already exist.
        Quarantining here is deferred to :meth:`scan` — adoption is cheap
        and runs on every open.
        """
        for kind in (QUEUE_DIR, CRASH_DIR, HANG_DIR):
            top = 0
            for seq, _sig, digest, name in list_sealed(self._dir(kind), "id"):
                top = max(top, seq + 1)
                self._seen[(kind, digest)] = os.path.join(self._dir(kind), name)
            self._seq[kind] = max(self._seq[kind], top)
        if self.fsync:
            # A killed predecessor may have left these in the page cache
            # only; the first sync point makes them durable too.
            for (kind, _digest), path in self._seen.items():
                self._unsynced.append(path)
                if kind == CRASH_DIR:
                    self._unsynced += [path + suffix for suffix in CRASH_SIDECARS]

    def scan(self, kind=QUEUE_DIR):
        """Verify one artifact directory, quarantining everything damaged.

        Tolerant by contract: a torn write, a stray tmp file, a misnamed
        file, or a content-hash mismatch moves the file to ``quarantine/``
        and the scan continues.  A crash moves together with its sidecars,
        and so does a crash whose sidecar is empty or missing; its input is
        intact, so it still counts as a survivor.  A quarantined artifact's
        content is forgotten, so the next save of the same input (a
        checkpoint's backfill, a replay finding it again) writes it whole
        under a fresh id.  Returns a :class:`ScanReport` whose survivors are
        ``(seq, sig, digest, data)`` in id order.  Publishes a ``store``
        telemetry event with the counts.
        """
        report = ScanReport(kind)
        directory = self._dir(kind)
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            names = []
        for name in names:
            path = os.path.join(directory, name)
            if not os.path.isfile(path):
                continue
            if name.endswith(CRASH_SIDECARS):
                continue  # crash sidecars; checked with their artifact
            parsed = parse_sealed_name(name, "id")
            if ".tmp." in name or name.endswith(".tmp"):
                data, code = None, "torn-write"
                reason = "leftover temp file (torn write)"
            elif parsed is None:
                data, code = None, "bad-name"
                reason = "unparseable artifact name"
            else:
                data, reason = read_sealed(path, parsed[2])
                code = _SCAN_CODES.get(reason, "unreadable")
            if data is not None:
                report.survivors.append(parsed + (data,))
                reason = _sidecar_damage(path) if kind == CRASH_DIR else None
                if reason is None:
                    continue
                code = "sidecar"
            self._evict(report, path, reason, code)
            if parsed is not None and self._seen.get((kind, parsed[2])) == path:
                del self._seen[(kind, parsed[2])]
        report.survivors.sort(key=lambda item: item[0])
        self._publish_scan(report)
        return report

    def _evict(self, report, path, reason, code):
        """Quarantine one artifact, and any sidecar named after it."""
        for victim in [path] + [path + suffix for suffix in CRASH_SIDECARS]:
            if victim != path and not os.path.exists(victim):
                continue
            if quarantine(victim, self.quarantine_dir, reason):
                self.quarantine_count += 1
            report.quarantined.append((victim, code))

    def scan_all(self):
        """Scan queue, crashes, and hangs; returns ``{kind: ScanReport}``."""
        return {kind: self.scan(kind) for kind in (QUEUE_DIR, CRASH_DIR, HANG_DIR)}

    def _publish_scan(self, report):
        try:
            from repro.telemetry.bus import StoreEvent, get_bus

            bus = self._bus if self._bus is not None else get_bus()
            bus.publish(
                StoreEvent(
                    "scan",
                    self.worker,
                    artifact=report.kind,
                    entries=len(report.survivors),
                    quarantined=len(report.quarantined),
                )
            )
        except Exception:  # telemetry must never take the store down
            logger.debug("store scan event publish failed", exc_info=True)

    def replay_into(self, engine):
        """Rebuild engine state from the store via ``import_input``.

        Every surviving input — queue first, then crashes, then hangs, each
        in id order — is re-executed under the engine's own instrumentation
        and re-classified deterministically: novel inputs are queued,
        crashing ones re-enter the crash log, hanging ones the hang log.
        Damaged files are already in ``quarantine/`` by the time this runs.
        Returns ``{kind: survivor_count}``.
        """
        reports = self.scan_all()
        counts = {}
        for kind in (QUEUE_DIR, CRASH_DIR, HANG_DIR):
            report = reports[kind]
            counts[kind] = len(report.survivors)
            for _seq, _sig, _digest, data in report.survivors:
                engine.import_input(data)
        logger.info(
            "%s: resumed %d queue / %d crash / %d hang inputs (%d quarantined)",
            self.worker_dir,
            counts[QUEUE_DIR],
            counts[CRASH_DIR],
            counts[HANG_DIR],
            self.quarantine_count,
        )
        return counts

    def has_artifacts(self):
        """Whether any artifact survived a previous run (cheap check)."""
        return bool(self._seen)

    def queue_hashes(self):
        """Content hashes of every queue entry this store holds."""
        return {digest for (kind, digest) in self._seen if kind == QUEUE_DIR}

    # -- cross-instance sync ---------------------------------------------------

    def sibling_workers(self):
        """Other workers' directory names under the shared root."""
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return []
        siblings = []
        for name in names:
            if name == self.worker:
                continue
            if os.path.isdir(os.path.join(self.root, name, QUEUE_DIR)):
                siblings.append(name)
        return siblings

    def foreign_entries(self, seen_hashes):
        """AFL's foreign-queue scan: new inputs from sibling workers' queues.

        Reads every sibling's ``queue/`` directly (no locking — artifacts
        are immutable once renamed into place), skipping content hashes in
        ``seen_hashes``.  Damaged foreign files are *skipped*, not
        quarantined: only the owning worker evicts its own files.  Yields
        ``(digest, data)`` in (worker, id) order — deterministic for a fixed
        worker set.
        """
        for path, _seq, _sig, digest in walk_artifacts(
            self.root, QUEUE_DIR, self.sibling_workers()
        ):
            if digest in seen_hashes:
                continue
            data, _reason = read_sealed(path, digest)
            if data is not None:  # a damaged foreign file is its owner's problem
                yield digest, data

    # -- engine bookkeeping ----------------------------------------------------

    def finalize(self, engine, extra=None):
        """Write the final ``fuzzer_stats`` + manifest for one engine run,
        once every artifact the slice holds is durable (a sync point)."""
        stats = {
            "execs_done": engine.execs,
            "paths_total": len(engine.queue.entries),
            "cycles_done": engine.cycle,
            "crashes_total": engine.crash_count,
            "unique_crashes": len(engine.unique_crashes),
            "unique_hangs": len(engine.unique_hangs),
            "hangs_total": engine.hangs,
            "coverage": engine.virgin.coverage_count(),
            "ticks": engine.clock.ticks if engine.clock else 0,
            "quarantined": self.quarantine_count,
            "worker": self.worker,
        }
        stats.update(extra or {})
        self.make_durable()
        self.write_stats(stats)
        self._write_manifest()
        if self.fsync:
            fsync_path(self.worker_dir)
        return stats


def worker_name(index):
    """Directory name of instance ``index`` (``w0``, ``w1``, ...)."""
    return "w%d" % index


def campaign_queue_hashes(root):
    """Distinct queue-entry content hashes across every worker slice.

    The directory-synced analogue of the pipe-merged shared-corpus size:
    artifacts are content-addressed, so the union of embedded hashes *is*
    the deduplicated campaign corpus.
    """
    return {digest for _path, _seq, _sig, digest in walk_artifacts(root, QUEUE_DIR)}


def attach_store(engine, store):
    """Attach a store to an engine and backfill artifacts found pre-attach."""
    engine.store = store
    for entry in engine.queue.entries:
        store.save_queue_entry(entry)
    for record in engine.unique_crashes.values():
        store.save_crash(record)
    for record in engine.unique_hangs.values():
        store.save_hang(record.data)
    return engine
