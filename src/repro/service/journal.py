"""Crash-safe job journal: one atomic record per state transition.

The journal is the service's source of truth.  Every record is its own
sealed file, ``journal/rec:<seq>,hash:<sha1>`` (DESIGN.md §8): written
atomically through the store's codec, trusted only once its body matches
its name.  A crash at *any* instant leaves either a fully-committed
record or nothing under the real name.

Three properties keep the journal safe when the root is *shared* —
across hosts, and across the daemon/submitter process boundary:

- **Sequence claims.**  Legitimate writers are serialized by the root
  lock (live submissions travel as ``req:`` files, see
  :mod:`repro.service.intake` — never as raw journal appends), but a
  *displaced* holder does not know it lost the root and may still
  append.  Each append therefore first claims its sequence number via
  an ``O_EXCL`` create under ``journal/seq/``, so two writers can never
  commit different records under the same seq; a claim whose record
  never landed (crashed writer) costs a harmless gap.
- **Fencing.**  Every record carries the writer's fencing epoch (see
  :mod:`repro.service.lease`).  ``append`` re-checks the lease right
  before committing, and the recovery scan quarantines any record whose
  fence *regresses* — the signature of a displaced holder's late write.
- **Compaction.**  Terminal state is folded into sealed snapshot
  files — ``journal/snap:<seq>,hash:<sha1>`` — holding the
  entire :class:`repro.service.jobs.FoldState` up to a sequence
  high-water mark.  Recovery loads the newest valid snapshot and folds
  only the records beyond it.  Deletion *lags one snapshot*: compaction
  N removes only records already covered by snapshot N-1 and keeps the
  two newest snapshots, so a torn newest snapshot falls back to the
  previous one with every needed record still on disk — a kill at any
  instant leaves the old view or the new one, never a torn one.

Recovery is a tolerant scan: records whose name, hash, JSON body,
sequence number, or fence do not check out move to
``journal/quarantine/`` and the scan continues — damage (e.g. an
injected ``journal-torn`` fault, or real media corruption) costs at most
the damaged records, never the service.

Fault injection: ``append`` is the service's journal-commit clock.  After
the n-th durable commit of this process, a matching ``journal-torn`` /
``orch-kill`` fault fires (see :mod:`repro.fuzzer.faultinject`) — torn
records exercise the quarantine path, ``orch-kill`` proves the restart
ladder at every commit point.
"""

import errno
import os

from repro.fuzzer import faultinject
from repro.fuzzer.store import (
    list_sealed,
    parse_sealed_name,
    quarantine,
    read_sealed_json,
    write_sealed_json,
)
from repro.service.jobs import FoldState, fold_state

JOURNAL_VERSION = 1
SNAPSHOT_VERSION = 1
JOURNAL_DIR = "journal"
QUARANTINE_DIR = "quarantine"
SEQ_DIR = "seq"

_SEQ_WIDTH = 8


class JournalRecord:
    """One committed state transition."""

    __slots__ = ("seq", "job", "event", "payload", "fence")

    def __init__(self, seq, job, event, payload, fence=0):
        self.seq = seq
        self.job = job
        self.event = event
        self.payload = payload
        self.fence = int(fence)

    def __repr__(self):
        return "JournalRecord(#%d %s %s f%d)" % (
            self.seq,
            self.job,
            self.event,
            self.fence,
        )


class JobJournal:
    """Append-only, crash-safe record log under ``<root>/journal/``.

    ``service_index`` and ``epoch`` key the fault plan: journal faults are
    ``<action>@<service_index>.<nth-commit>[.<epoch>]``, with the commit
    counter local to this process so a restarted service's clock starts
    over (and, with the default incarnation 0, runs clean).

    ``fence`` is stamped into every record this writer commits; ``lease``
    (a :class:`repro.service.lease.ServiceLease`), when given, is
    re-checked before each commit so a fenced holder aborts with
    :class:`~repro.service.lease.LeaseLostError` instead of writing.
    Writers without the root lock (live submitters) pass neither and
    stamp the fence they last observed.
    """

    def __init__(self, root, fsync=True, service_index=0, epoch=0, fence=0,
                 lease=None):
        self.dir = os.path.join(os.path.abspath(root), JOURNAL_DIR)
        self.quarantine_dir = os.path.join(self.dir, QUARANTINE_DIR)
        self.seq_dir = os.path.join(self.dir, SEQ_DIR)
        os.makedirs(self.quarantine_dir, exist_ok=True)
        os.makedirs(self.seq_dir, exist_ok=True)
        self.fsync = fsync
        self.service_index = int(service_index)
        self.epoch = int(epoch)
        self.fence = int(fence)
        self.lease = lease
        self._next_seq = None  # lazily adopted from disk
        self._commits = 0  # commits by THIS process: the fault-plan clock

    # -- writing ---------------------------------------------------------------

    def append(self, job, event, payload=None):
        """Durably commit one record; returns its sequence number.

        The fault hook fires *after* the rename (and directory fsync), so
        an ``orch-kill`` at commit n proves the record survives the death —
        the restarted service must observe it.
        """
        if self.lease is not None:
            self.lease.check()
        seq = self._claim_seq()
        record = {
            "version": JOURNAL_VERSION,
            "seq": seq,
            "job": job,
            "event": event,
            "payload": payload or {},
            "fence": self.fence,
        }
        path = write_sealed_json(self.dir, "rec", seq, record, fsync=self.fsync)
        self._commits += 1
        plan = faultinject.active_plan()
        if plan:
            fault = plan.match(
                "journal", self.service_index, self._commits, self.epoch
            )
            if fault is not None:
                faultinject.fire_journal_fault(fault, path)
        return seq

    def _claim_seq(self):
        """Reserve the next free sequence number, multi-writer safe.

        The ``O_EXCL`` create under ``journal/seq/`` is the arbitration
        point: of any number of concurrent writers eyeing the same seq,
        exactly one wins it; the rest re-adopt from disk and move up.  A
        claim without a record (writer died in between) is a gap the fold
        does not mind.
        """
        if self._next_seq is None:
            self._next_seq = self._adopted_seq()
        while True:
            seq = self._next_seq
            claim = os.path.join(self.seq_dir, "%0*d" % (_SEQ_WIDTH, seq))
            try:
                fd = os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except OSError as exc:
                if exc.errno != errno.EEXIST:
                    raise
                self._next_seq = max(self._adopted_seq(), seq + 1)
                continue
            os.close(fd)
            self._next_seq = seq + 1
            return seq

    def _adopted_seq(self):
        """Next sequence number per disk: past every claim, record, snapshot."""
        top = -1
        try:
            names = os.listdir(self.seq_dir)
        except OSError:
            names = []
        for name in names:
            try:
                top = max(top, int(name))
            except ValueError:
                pass
        for head in ("rec", "snap"):
            for seq, _sig, _digest, _name in list_sealed(self.dir, head):
                top = max(top, seq)
        return top + 1

    # -- recovery --------------------------------------------------------------

    def read_record(self, name):
        """``(record, None)`` for a ``rec:`` file that verifies, else ``(None, why)``.

        The one check every reader of a record makes: the recovery scan and
        the daemon's judge of records it did not write.
        """
        parsed = parse_sealed_name(name, "rec")
        if parsed is None:
            return None, "unparseable name"
        seq, _sig, digest = parsed
        data, reason = read_sealed_json(os.path.join(self.dir, name), digest)
        if data is None:
            return None, reason
        if data.get("seq") != seq:
            return None, "sequence mismatch"
        fence = data.get("fence", 0)
        if not isinstance(fence, int):
            return None, "fence is not an integer"
        record = JournalRecord(
            seq, data.get("job"), data.get("event", "?"),
            data.get("payload") or {}, fence,
        )
        return record, None

    def scan(self, quarantine=True):
        """Tolerant recovery scan; returns ``(records, quarantined)``.

        ``records`` is every verified :class:`JournalRecord` in sequence
        order; ``quarantined`` lists ``(name, reason)`` for files that
        failed verification and were moved aside (or merely skipped with
        ``quarantine=False`` — the read-only mode CLI inspection uses so
        it never mutates a live service's journal).  Beyond per-file
        verification, the scan enforces cross-record invariants: duplicate
        sequence numbers resolve to the highest-fence record, and a record
        whose fence regresses below an earlier record's (a displaced
        holder's late write) is quarantined.  Also adopts the next
        sequence number, so appends continue the surviving sequence.
        """
        by_seq = {}
        rejected = []
        try:
            names = os.listdir(self.dir)
        except OSError:
            names = []
        for name in sorted(names):
            path = os.path.join(self.dir, name)
            if not name.startswith("rec:") or ".tmp." in name:
                continue  # other heads; atomic-write stragglers
            if not os.path.isfile(path):
                continue
            record, reason = self.read_record(name)
            if record is None:
                rejected.append((path, reason))
                continue
            rival = by_seq.get(record.seq)
            if rival is None:
                by_seq[record.seq] = (record, path)
                continue
            # Two verified records under one seq: a pre-claim-protocol
            # root, or a displaced holder that outraced the claim.  The
            # higher fence is the live owner's; ties break on the name
            # (that is, the digest) so every scanner resolves identically.
            if (record.fence, path) > (rival[0].fence, rival[1]):
                by_seq[record.seq] = (record, path)
                loser = rival[1]
            else:
                loser = path
            rejected.append((loser, "duplicate sequence"))
        records = []
        max_fence = 0
        for seq in sorted(by_seq):
            record, path = by_seq[seq]
            if record.fence < max_fence:
                rejected.append(
                    (path, "fenced late write (fence %d after %d)"
                     % (record.fence, max_fence))
                )
                continue
            max_fence = record.fence
            records.append(record)
        quarantined = self._settle(rejected, quarantine)
        self._next_seq = self._adopted_seq()
        return records, quarantined

    def recover(self, quarantine=True):
        """Full recovery: newest valid snapshot + tail fold.

        Returns ``(state, quarantined)`` where ``state`` is the
        :class:`~repro.service.jobs.FoldState` of the whole history —
        identical to folding every record ever written, but reading only
        the snapshot plus the records beyond its high-water mark.  A torn
        newest snapshot is quarantined and the previous one takes over;
        with no valid snapshot at all, the fold runs from the surviving
        records alone.
        """
        base, quarantined = self._load_snapshot(quarantine)
        records, more = self.scan(quarantine)
        quarantined.extend(more)
        if base is not None:
            records = [record for record in records if record.seq > base.upto]
        state = fold_state(records, base=base)
        self._next_seq = max(self._next_seq or 0, state.upto + 1)
        return state, quarantined

    def _load_snapshot(self, quarantine=True):
        """Newest snapshot that verifies, falling back across torn ones."""
        rejected = []
        state = None
        for upto, _sig, digest, name in reversed(list_sealed(self.dir, "snap")):
            path = os.path.join(self.dir, name)
            data, reason = read_sealed_json(path, digest)
            if data is None:
                rejected.append((path, "snapshot " + reason))
                continue
            try:
                state = FoldState.from_dict(data["state"])
            except (ValueError, KeyError, TypeError):
                rejected.append((path, "malformed snapshot"))
                continue
            if state.upto < 0:
                state.upto = upto
            break
        return state, self._settle(rejected, quarantine)

    def compact(self):
        """Fold history into a snapshot; delete what the *previous* one covers.

        Returns the new snapshot's path (None for an empty journal).  The
        snapshot write is atomic; the ``compact`` marker record after it
        makes the event visible to tailing watchers (and gives the fault
        plan a commit point to kill at).  Deletion lags one snapshot: only
        records at or below the previous snapshot's high-water mark go,
        and the two newest snapshots stay — so at every instant, disk
        holds a complete view through either the newest snapshot or its
        predecessor.
        """
        state, _ = self.recover(quarantine=True)
        if state.upto < 0:
            return None
        snapshot = {
            "version": SNAPSHOT_VERSION,
            "upto": state.upto,
            "state": state.to_dict(),
        }
        path = write_sealed_json(
            self.dir, "snap", state.upto, snapshot, fsync=self.fsync
        )
        self.append(
            None, "compact", {"upto": state.upto, "snapshot": os.path.basename(path)}
        )
        snapshots = list_sealed(self.dir, "snap")[::-1]  # newest first
        for _upto, _sig, _digest, name in snapshots[2:]:
            try:
                os.unlink(os.path.join(self.dir, name))
            except OSError:
                pass
        covered = snapshots[1][0] if len(snapshots) > 1 else -1
        if covered >= 0:
            self._prune(covered)
        return path

    def _prune(self, covered):
        """Delete records and seq claims at or below ``covered`` (idempotent)."""
        for seq, _sig, _digest, name in list_sealed(self.dir, "rec"):
            if seq <= covered:
                try:
                    os.unlink(os.path.join(self.dir, name))
                except OSError:
                    pass
        try:
            names = os.listdir(self.seq_dir)
        except OSError:
            names = []
        for name in names:
            try:
                seq = int(name)
            except ValueError:
                continue
            if seq <= covered:
                try:
                    os.unlink(os.path.join(self.seq_dir, name))
                except OSError:
                    pass

    def _settle(self, rejected, move):
        """Quarantine each ``(path, reason)`` when ``move``; name them all."""
        if move:
            for path, reason in rejected:
                quarantine(path, self.quarantine_dir, reason)
        return [(os.path.basename(path), reason) for path, reason in rejected]
