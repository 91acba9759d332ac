"""Journal compaction: snapshot + tail replay must equal the full fold.

Compaction folds settled history into a self-verifying snapshot file and
prunes the records the *previous* snapshot already covers (deletion lags
one snapshot, and the two newest snapshots stay on disk).  The contract
these tests pin down:

- recovery over a compacted root reconstructs the exact
  :class:`~repro.service.jobs.FoldState` a full-history fold would —
  byte-for-byte, via ``to_dict()`` — no matter how many compactions and
  post-compaction appends interleave;
- a torn newest snapshot is quarantined and recovery falls back to the
  previous snapshot *losslessly*, because every record beyond it is
  still on disk;
- the multi-writer invariants survive compaction: orphan sequence
  claims are harmless gaps, duplicate sequences resolve to the highest
  fence, and a displaced holder's late (fence-regressing) write is
  quarantined, not applied.
"""

import hashlib
import json
import os

from repro.fuzzer.store import parse_sealed_name, sealed_name
from repro.service.jobs import fold_state
from repro.service.journal import JobJournal, JournalRecord

SPEC = {
    "subject": "gdk",
    "config": "path",
    "run_seed": 0,
    "tenant": "default",
    "priority": 0,
    "budget_ticks": 1000,
    "max_retries": 2,
    "require_checkpoint": False,
}


def _spec(index):
    spec = dict(SPEC, job_id="j%06d" % index, index=index)
    return spec


class History:
    """Shadow copy of every record ever committed, captured pre-prune.

    Compaction deletes covered records from disk, so the full-history
    reference fold has to be captured *as records land*.  ``sync`` reads
    any record files not yet seen (including the ``compact`` markers the
    journal appends on its own) straight from disk.
    """

    def __init__(self, journal):
        self.journal = journal
        self.records = {}

    def sync(self):
        for name in os.listdir(self.journal.dir):
            parsed = parse_sealed_name(name, "rec")
            if parsed is None or parsed[0] in self.records:
                continue
            with open(os.path.join(self.journal.dir, name), "rb") as handle:
                data = json.loads(handle.read().decode("utf-8"))
            self.records[parsed[0]] = JournalRecord(
                data["seq"], data["job"], data["event"],
                data["payload"], data.get("fence", 0),
            )

    def append(self, job, event, payload=None):
        self.journal.append(job, event, payload)
        self.sync()

    def full_fold(self):
        return fold_state(
            [self.records[seq] for seq in sorted(self.records)]
        )


def _job_lifecycle(history, index, fate="done"):
    job = "j%06d" % index
    history.append(job, "submit", _spec(index))
    history.append(job, "start", {"attempt": 1, "pid": 100 + index})
    if fate == "done":
        history.append(job, "done", {"summary": {"execs": 7 * (index + 1)}})
    elif fate == "cancel":
        history.append(job, "cancel", {})
    return job


def _disk_record_seqs(journal):
    seqs = set()
    for name in os.listdir(journal.dir):
        parsed = parse_sealed_name(name, "rec")
        if parsed is not None:
            seqs.add(parsed[0])
    return seqs


def _snapshots_on_disk(journal):
    return sorted(
        name for name in os.listdir(journal.dir)
        if parse_sealed_name(name, "snap") is not None
    )


def test_snapshot_plus_tail_replay_equals_full_history_fold(tmp_path):
    journal = JobJournal(str(tmp_path), fsync=False, fence=1)
    history = History(journal)
    history.append(None, "epoch", {"epoch": 0})
    _job_lifecycle(history, 0)
    _job_lifecycle(history, 1, fate="cancel")
    journal.compact()
    history.sync()
    # First compaction deletes nothing: there is no previous snapshot
    # whose coverage makes any record safely redundant.
    assert _disk_record_seqs(journal) == set(history.records)

    _job_lifecycle(history, 2)
    history.append("j000003", "submit", _spec(3))  # left pending
    journal.compact()
    history.sync()
    # Second compaction prunes what snapshot #1 covered — records are
    # actually gone from disk, yet the fold must not notice.
    assert _disk_record_seqs(journal) != set(history.records)
    assert len(_snapshots_on_disk(journal)) == 2

    history.append("j000003", "start", {"attempt": 1, "pid": 999})
    history.append("j000003", "done", {"summary": {"execs": 3}})

    state, quarantined = JobJournal(str(tmp_path), fsync=False).recover()
    assert quarantined == []
    assert state.to_dict() == history.full_fold().to_dict()
    assert sorted(state.jobs) == ["j%06d" % i for i in range(4)]
    assert state.jobs["j000001"].state == "cancelled"
    assert state.jobs["j000003"].state == "succeeded"


def test_third_compaction_keeps_only_two_snapshots(tmp_path):
    journal = JobJournal(str(tmp_path), fsync=False, fence=1)
    history = History(journal)
    for index in range(3):
        _job_lifecycle(history, index)
        journal.compact()
        history.sync()
    assert len(_snapshots_on_disk(journal)) == 2
    state, quarantined = JobJournal(str(tmp_path), fsync=False).recover()
    assert quarantined == []
    assert state.to_dict() == history.full_fold().to_dict()


def test_torn_newest_snapshot_falls_back_to_previous_losslessly(tmp_path):
    journal = JobJournal(str(tmp_path), fsync=False, fence=1)
    history = History(journal)
    _job_lifecycle(history, 0)
    journal.compact()
    _job_lifecycle(history, 1)
    journal.compact()
    history.sync()
    newest = _snapshots_on_disk(journal)[-1]
    with open(os.path.join(journal.dir, newest), "r+b") as handle:
        handle.truncate(20)  # torn mid-write: hash can no longer match

    # A healing writer stamps the fence it observed (compact_offline reads
    # the FENCE high-water mark), so its records do not look regressive.
    fresh = JobJournal(str(tmp_path), fsync=False, fence=1)
    state, quarantined = fresh.recover()
    assert any("snapshot hash mismatch" in reason for _, reason in quarantined)
    # Lossless: deletion lagged one snapshot, so every record beyond the
    # *previous* snapshot is still on disk and the fold is unchanged.
    assert state.to_dict() == history.full_fold().to_dict()
    # ...and the next compaction heals: a fresh snapshot replaces the
    # quarantined one.
    fresh.compact()
    history.sync()
    state2, quarantined2 = JobJournal(str(tmp_path), fsync=False).recover()
    assert quarantined2 == []
    assert state2.jobs.keys() == state.jobs.keys()


def test_orphan_seq_claim_is_a_harmless_gap(tmp_path):
    journal = JobJournal(str(tmp_path), fsync=False, fence=1)
    history = History(journal)
    _job_lifecycle(history, 0)
    # A writer claims the next seq and dies before committing the record.
    orphan = journal._claim_seq()
    _job_lifecycle(history, 1)
    state, quarantined = JobJournal(str(tmp_path), fsync=False).recover()
    assert quarantined == []
    assert orphan not in _disk_record_seqs(journal)
    assert state.to_dict() == history.full_fold().to_dict()
    # A new writer adopts past the orphan claim, never colliding with it.
    assert JobJournal(str(tmp_path), fsync=False)._adopted_seq() > orphan


def test_duplicate_seq_resolves_to_the_highest_fence(tmp_path):
    journal = JobJournal(str(tmp_path), fsync=False, fence=2)
    journal.append("j000000", "submit", _spec(0))

    def forge(seq, fence, note):
        body = json.dumps(
            {
                "version": 1,
                "seq": seq,
                "job": "j000000",
                "event": "start",
                "payload": {"attempt": 1, "note": note},
                "fence": fence,
            },
            sort_keys=True, separators=(",", ":"),
        ).encode("utf-8")
        digest = hashlib.sha1(body).hexdigest()
        with open(os.path.join(journal.dir, sealed_name("rec", seq, digest)),
                  "wb") as handle:
            handle.write(body)

    # A displaced fence-1 holder and the live fence-2 holder both landed a
    # record under seq 1 (the displaced one outraced the claim protocol).
    forge(1, 1, "displaced")
    forge(1, 2, "live")
    records, quarantined = JobJournal(str(tmp_path), fsync=False).scan()
    assert [(name_reason[1]) for name_reason in quarantined] == [
        "duplicate sequence"
    ]
    winner = [record for record in records if record.seq == 1]
    assert len(winner) == 1 and winner[0].fence == 2
    assert winner[0].payload["note"] == "live"


def test_fence_regression_is_quarantined_even_after_compaction(tmp_path):
    journal = JobJournal(str(tmp_path), fsync=False, fence=3)
    history = History(journal)
    _job_lifecycle(history, 0)
    journal.compact()
    history.sync()
    # A fenced predecessor (fence 2) wakes up and appends a late write.
    stale = JobJournal(str(tmp_path), fsync=False, fence=2)
    stale.append("j000000", "cancel", {})
    state, quarantined = JobJournal(str(tmp_path), fsync=False).recover()
    assert any("fenced late write" in reason for _, reason in quarantined)
    assert state.jobs["j000000"].state == "succeeded"  # not cancelled
    assert state.to_dict() == history.full_fold().to_dict()


def test_readonly_recover_leaves_a_torn_snapshot_in_place(tmp_path):
    journal = JobJournal(str(tmp_path), fsync=False, fence=1)
    history = History(journal)
    _job_lifecycle(history, 0)
    journal.compact()
    history.sync()
    newest = _snapshots_on_disk(journal)[-1]
    with open(os.path.join(journal.dir, newest), "r+b") as handle:
        handle.truncate(10)
    state, quarantined = JobJournal(str(tmp_path), fsync=False).recover(
        quarantine=False
    )
    assert any("snapshot" in reason for _, reason in quarantined)
    assert newest in os.listdir(journal.dir)  # inspection never mutates
    assert state.to_dict() == history.full_fold().to_dict()
